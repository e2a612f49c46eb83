(* Tests for the observability subsystem (lib/obs): histogram accuracy,
   JSON round-trips, zero-overhead-when-disabled, determinism of the
   exported artifacts, span-stack balance across error paths, and the
   PMFS mmap ordering fix that rode along with the instrumentation. *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Ojson = Hinfs_obs.Ojson
module Profile = Hinfs_harness.Profile
module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench
module Postmark = Hinfs_workloads.Postmark
module Trace = Hinfs_trace.Trace
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Types = Hinfs_vfs.Types

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- histogram --- *)

let test_hist_exact_small () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  check_int "count" 8 (Hist.count h);
  check_int "min" 1 (Hist.min_value h);
  check_int "max" 9 (Hist.max_value h);
  check_int "sum" 31 (Hist.sum h);
  (* Values below 32 land in exact unit buckets. *)
  check_int "p50 exact" 3 (Hist.quantile h 0.5);
  check_int "p100 exact" 9 (Hist.quantile h 1.0)

let test_hist_quantile_error_bound () =
  let h = Hist.create () in
  for v = 1 to 100_000 do
    Hist.record h v
  done;
  List.iter
    (fun q ->
      let exact = int_of_float (Float.round (q *. 100_000.)) in
      let approx = Hist.quantile h q in
      let err =
        Float.abs (float_of_int (approx - exact)) /. float_of_int exact
      in
      if err > 0.04 then
        Alcotest.failf "q=%g: approx %d vs exact %d (err %.3f)" q approx
          exact err)
    [ 0.5; 0.9; 0.99; 0.999 ];
  check_int "max is exact" 100_000 (Hist.max_value h);
  check_int "p100 clamps to max" 100_000 (Hist.quantile h 1.0)

let test_hist_negative_clamps () =
  let h = Hist.create () in
  Hist.record h (-5);
  check_int "count" 1 (Hist.count h);
  check_int "clamped to 0" 0 (Hist.max_value h)

let test_hist_summary () =
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.record h v
  done;
  let s = Hist.summarize h in
  check_int "count" 1000 s.Hist.count;
  check_int "min" 1 s.Hist.min;
  check_int "max" 1000 s.Hist.max;
  check_bool "mean" true (Float.abs (s.Hist.mean -. 500.5) < 0.001);
  check_bool "p50 <= p99 <= p999 <= max" true
    (s.Hist.p50 <= s.Hist.p99 && s.Hist.p99 <= s.Hist.p999
   && s.Hist.p999 <= s.Hist.max)

(* --- JSON --- *)

let sample_json =
  Ojson.Obj
    [
      ("s", Ojson.String "a \"quoted\"\n\tstring");
      ("i", Ojson.Int (-42));
      ("f", Ojson.Float 1.5);
      ("b", Ojson.Bool true);
      ("n", Ojson.Null);
      ("l", Ojson.List [ Ojson.Int 1; Ojson.Int 2; Ojson.Int 3 ]);
      ("o", Ojson.Obj [ ("nested", Ojson.String "x") ]);
    ]

let test_ojson_roundtrip () =
  let s = Ojson.to_string sample_json in
  let parsed = Ojson.of_string s in
  check_string "reserialization is stable" s (Ojson.to_string parsed);
  let pretty = Ojson.to_string_pretty sample_json in
  check_string "pretty parses back to the same compact form" s
    (Ojson.to_string (Ojson.of_string pretty))

let test_ojson_accessors () =
  (match Ojson.member "i" sample_json with
  | Some v -> check_bool "int" true (Ojson.to_int v = Some (-42))
  | None -> Alcotest.fail "missing i");
  (match Ojson.member "f" sample_json with
  | Some v -> check_bool "float" true (Ojson.to_float v = Some 1.5)
  | None -> Alcotest.fail "missing f");
  (match Ojson.member "l" sample_json with
  | Some v ->
    check_bool "list" true
      (match Ojson.to_list v with Some l -> List.length l = 3 | None -> false)
  | None -> Alcotest.fail "missing l");
  check_bool "absent member" true (Ojson.member "zzz" sample_json = None)

let test_ojson_rejects_garbage () =
  let bad s =
    match Ojson.of_string s with
    | exception Ojson.Parse_error _ -> ()
    | _ -> Alcotest.failf "parser accepted %S" s
  in
  bad "";
  bad "{";
  bad "[1, 2,]";
  bad "{\"a\": 1} trailing";
  bad "nul"

let test_ojson_no_nan () =
  let s = Ojson.to_string (Ojson.Float Float.nan) in
  check_bool "NaN clamped to a parseable number" true
    (match Ojson.of_string s with Ojson.Float _ | Ojson.Int _ -> true | _ -> false)

(* --- zero cost when disabled --- *)

let test_disabled_is_allocation_free () =
  Obs.uninstall ();
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    Obs.span_begin Obs.Op_write;
    Obs.span_end Obs.Op_write;
    Obs.instant Obs.Ev_bbm_lazy ~a:i ~b:0;
    Obs.span_since Obs.Flush ~t0:0;
    Obs.counter "gauge" i
  done;
  let w1 = Gc.minor_words () in
  (* Allow a constant for the measurement itself; any per-op allocation
     would show up as >= iters words. *)
  check_bool "no per-op allocation when disabled" true (w1 -. w0 < 256.0)

(* --- harness-level tests --- *)

let tiny_spec =
  {
    Experiment.default_spec with
    Experiment.nvmm_size = 48 * 1024 * 1024;
    Experiment.buffer_bytes = 2 * 1024 * 1024;
    Experiment.cache_pages = 512;
    Experiment.threads = 2;
    Experiment.duration_ns = 10_000_000;
  }

let small_fb =
  {
    Filebench.default_params with
    Filebench.nfiles = 24;
    Filebench.mean_file_size = 16 * 1024;
    Filebench.io_size = 16 * 1024;
    Filebench.append_size = 4 * 1024;
  }

(* Installing the sink must not move a single virtual timestamp: the same
   seeded run with and without observability does the same ops in the same
   virtual time. *)
let test_obs_does_not_perturb_the_run () =
  let workload () = Filebench.fileserver ~params:small_fb () in
  let plain, _ =
    Experiment.run_workload ~spec:tiny_spec Fixtures.Hinfs_fs (workload ())
  in
  let observed, _, obs =
    Experiment.run_workload_obs ~spec:tiny_spec Fixtures.Hinfs_fs (workload ())
  in
  check_int "same op count" plain.Workload.ops observed.Workload.ops;
  check_bool "same virtual elapsed" true
    (plain.Workload.elapsed_ns = observed.Workload.elapsed_ns);
  check_bool "sink saw the ops" true
    ((Obs.hist obs Obs.Op_write).Hist.count > 0)

let test_trace_export_deterministic () =
  let run () =
    let _r, _s, obs =
      Experiment.run_workload_obs ~spec:tiny_spec ~trace:true Fixtures.Hinfs_fs
        (Filebench.varmail ~params:small_fb ())
    in
    (Ojson.to_string_pretty (Obs.chrome_trace obs), Obs.nonempty_hists obs)
  in
  let trace1, hists1 = run () in
  let trace2, hists2 = run () in
  check_string "byte-identical trace JSON" trace1 trace2;
  check_bool "identical histogram summaries" true (hists1 = hists2);
  check_bool "trace is non-trivial" true (String.length trace1 > 1000)

let small_workloads () =
  [
    ("fileserver", Filebench.fileserver ~params:small_fb ());
    ("webserver", Filebench.webserver ~params:small_fb ());
    ("webproxy", Filebench.webproxy ~params:small_fb ());
    ("varmail", Filebench.varmail ~params:small_fb ());
  ]

let test_span_balance_after_workloads () =
  List.iter
    (fun kind ->
      List.iter
        (fun (wname, w) ->
          let _r, _s, obs =
            Experiment.run_workload_obs ~spec:tiny_spec kind w
          in
          check_int
            (Fmt.str "open spans after %s on %s" wname (Fixtures.name kind))
            0 (Obs.open_spans obs);
          check_int
            (Fmt.str "mismatches after %s on %s" wname (Fixtures.name kind))
            0 (Obs.mismatches obs))
        (small_workloads ()))
    [ Fixtures.Hinfs_fs; Fixtures.Pmfs_fs; Fixtures.Ext4_dax ]

let test_span_balance_after_job_and_trace () =
  let small_postmark =
    {
      Postmark.default_params with
      Postmark.nfiles = 40;
      Postmark.transactions = 120;
    }
  in
  let _r, _s, obs =
    Experiment.run_job_obs ~spec:tiny_spec Fixtures.Hinfs_fs
      (Postmark.make ~params:small_postmark ())
  in
  check_int "job: open spans" 0 (Obs.open_spans obs);
  check_int "job: mismatches" 0 (Obs.mismatches obs);
  let _r, _s, obs =
    Experiment.run_trace_obs ~spec:tiny_spec Fixtures.Pmfs_fs
      (Trace.usr0 ~ops:400 ())
  in
  check_int "trace: open spans" 0 (Obs.open_spans obs);
  check_int "trace: mismatches" 0 (Obs.mismatches obs)

let test_phases_and_gauges_populate () =
  let _r, _s, obs =
    Experiment.run_workload_obs ~spec:tiny_spec Fixtures.Pmfs_fs
      (Filebench.varmail ~params:small_fb ())
  in
  check_bool "dev.flush spans" true ((Obs.hist obs Obs.Flush).Hist.count > 0);
  check_bool "dev.fence spans" true ((Obs.hist obs Obs.Fence).Hist.count > 0);
  check_bool "journal.commit spans" true
    ((Obs.hist obs Obs.Journal_commit).Hist.count > 0);
  check_bool "sampler produced gauges" true (Obs.counter_summaries obs <> []);
  let _r, _s, obs =
    Experiment.run_workload_obs ~spec:tiny_spec Fixtures.Hinfs_fs
      (Filebench.fileserver ~params:small_fb ())
  in
  check_bool "writeback spans on hinfs" true
    ((Obs.hist obs Obs.Writeback).Hist.count > 0);
  check_bool "hinfs buffer gauge sampled" true
    (List.mem_assoc "buffer.used_blocks"
       (List.map (fun (n, s) -> (n, s)) (Obs.counter_summaries obs)))

let test_profile_json_has_required_keys () =
  let r, _s, obs =
    Experiment.run_workload_obs ~spec:tiny_spec Fixtures.Hinfs_fs
      (Filebench.fileserver ~params:small_fb ())
  in
  let json =
    Profile.experiment_json ~name:"fileserver" ~fs:"hinfs"
      ~ops:r.Workload.ops ~elapsed_ns:r.Workload.elapsed_ns obs
  in
  (* Round-trip through the serialized form, as a diff tool would. *)
  let parsed = Ojson.of_string (Ojson.to_string_pretty json) in
  let get path =
    List.fold_left
      (fun acc key ->
        match acc with None -> None | Some v -> Ojson.member key v)
      (Some parsed) path
  in
  check_bool "throughput > 0" true
    (match get [ "throughput_ops_per_sec" ] with
    | Some v -> (
      match Ojson.to_float v with Some f -> f > 0.0 | None -> false)
    | None -> false);
  List.iter
    (fun q ->
      match get [ "latency_ns"; "op.write"; q ] with
      | Some v ->
        check_bool (Fmt.str "op.write %s > 0" q) true
          (match Ojson.to_int v with Some n -> n > 0 | None -> false)
      | None -> Alcotest.failf "latency_ns.op.write.%s missing" q)
    [ "p50"; "p99"; "p999" ];
  check_bool "obs health block present" true
    (match get [ "obs"; "open_spans" ] with
    | Some v -> Ojson.to_int v = Some 0
    | None -> false)

(* --- the PMFS mmap satellite fix --- *)

(* Pmfs.mmap used to be a silent no-op; now it must order in-flight
   updates on the medium (a fence, like fsync) and emit a pin event. *)
let test_pmfs_mmap_orders_and_pins () =
  let engine = Engine.create () in
  let obs = Obs.create ~trace:true engine in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall @@ fun () ->
  let fences = ref (-1) in
  let pin_seen = ref false in
  Engine.spawn engine ~name:"mmap-test" (fun () ->
      let stats = Stats.create () in
      let config = { Config.default with Config.nvmm_size = 8 * 1024 * 1024 } in
      let device = Hinfs_nvmm.Device.create engine stats config in
      let fs = Pmfs.mkfs_and_mount device ~journal_blocks:32 () in
      let h = Pmfs.handle fs in
      let fd = h.Hinfs_vfs.Vfs.open_ "/m" Types.creat in
      let payload = Bytes.make 4096 'x' in
      ignore (h.Hinfs_vfs.Vfs.write fd payload (Bytes.length payload));
      let before = Stats.total_mfences stats in
      h.Hinfs_vfs.Vfs.mmap fd;
      fences := Stats.total_mfences stats - before;
      h.Hinfs_vfs.Vfs.munmap fd;
      h.Hinfs_vfs.Vfs.close fd;
      h.Hinfs_vfs.Vfs.unmount ());
  Engine.run engine;
  check_bool "mmap issues at least one fence" true (!fences > 0);
  let trace = Ojson.to_string (Obs.chrome_trace obs) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  pin_seen := contains "mmap.pin" trace;
  check_bool "mmap.pin instant in the trace" true !pin_seen;
  check_bool "mmap.unpin instant in the trace" true
    (contains "mmap.unpin" trace);
  check_int "balanced spans" 0 (Obs.open_spans obs)

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "exact below 32" `Quick test_hist_exact_small;
          Alcotest.test_case "quantile error bound" `Quick
            test_hist_quantile_error_bound;
          Alcotest.test_case "negative clamps" `Quick test_hist_negative_clamps;
          Alcotest.test_case "summary" `Quick test_hist_summary;
        ] );
      ( "ojson",
        [
          Alcotest.test_case "roundtrip" `Quick test_ojson_roundtrip;
          Alcotest.test_case "accessors" `Quick test_ojson_accessors;
          Alcotest.test_case "rejects garbage" `Quick test_ojson_rejects_garbage;
          Alcotest.test_case "no NaN in output" `Quick test_ojson_no_nan;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_is_allocation_free;
          Alcotest.test_case "sink does not perturb the run" `Quick
            test_obs_does_not_perturb_the_run;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "trace export byte-identical" `Quick
            test_trace_export_deterministic;
        ] );
      ( "balance",
        [
          Alcotest.test_case "after rate workloads" `Quick
            test_span_balance_after_workloads;
          Alcotest.test_case "after job and trace" `Quick
            test_span_balance_after_job_and_trace;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "phases and gauges populate" `Quick
            test_phases_and_gauges_populate;
          Alcotest.test_case "profile json keys" `Quick
            test_profile_json_has_required_keys;
        ] );
      ( "pmfs-mmap",
        [
          Alcotest.test_case "orders and pins" `Quick
            test_pmfs_mmap_orders_and_pins;
        ] );
    ]
