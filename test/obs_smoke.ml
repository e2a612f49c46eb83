(* Obs smoke: drive the whole profile pipeline end to end — obs-enabled
   run, Chrome-trace export to a file, BENCH-style experiment JSON — then
   parse both artifacts back with our own parser and validate shape and
   required keys. Wired into `dune runtest` through the obs-smoke alias;
   also runnable directly: dune exec test/obs_smoke.exe *)

module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Ojson = Hinfs_obs.Ojson
module Profile = Hinfs_harness.Profile
module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench

let failures = ref []
let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt

let spec =
  {
    Experiment.default_spec with
    Experiment.nvmm_size = 48 * 1024 * 1024;
    Experiment.buffer_bytes = 2 * 1024 * 1024;
    Experiment.cache_pages = 512;
    Experiment.threads = 2;
    Experiment.duration_ns = 10_000_000;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let member path json =
  List.fold_left
    (fun acc key ->
      match acc with None -> None | Some v -> Ojson.member key v)
    (Some json) path

let () =
  let workload =
    Filebench.fileserver
      ~params:
        {
          Filebench.default_params with
          Filebench.nfiles = 24;
          Filebench.mean_file_size = 16 * 1024;
          Filebench.io_size = 16 * 1024;
          Filebench.append_size = 4 * 1024;
        }
      ()
  in
  let result, _stats, obs =
    Experiment.run_workload_obs ~spec ~trace:true Fixtures.Hinfs_fs workload
  in
  if result.Workload.ops <= 0 then fail "workload performed no ops";
  if Obs.open_spans obs > 0 then
    fail "%d spans left open" (Obs.open_spans obs);
  if Obs.mismatches obs > 0 then
    fail "%d span mismatches" (Obs.mismatches obs);

  (* Chrome trace: write to a file, read it back, parse, validate. *)
  let trace_path = Filename.temp_file "hinfs_obs_smoke" ".trace.json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace_path) @@ fun () ->
  Profile.write_file trace_path (Obs.chrome_trace obs);
  (match Ojson.of_string (read_file trace_path) with
  | exception Ojson.Parse_error msg ->
    fail "trace file does not parse: %s" msg
  | parsed -> (
    match member [ "traceEvents" ] parsed with
    | None -> fail "trace file has no traceEvents"
    | Some v -> (
      match Ojson.to_list v with
      | None -> fail "traceEvents is not a list"
      | Some events ->
        if List.length events < 100 then
          fail "suspiciously small trace (%d events)" (List.length events);
        List.iter
          (fun e ->
            match member [ "ph" ] e with
            | Some (Ojson.String _) -> ()
            | _ -> fail "trace event without a ph field")
          events;
        let has_phase ph =
          List.exists
            (fun e -> member [ "ph" ] e = Some (Ojson.String ph))
            events
        in
        List.iter
          (fun ph -> if not (has_phase ph) then fail "no %S events" ph)
          [ "M"; "X"; "i"; "C" ])));

  (* BENCH-style JSON: serialize one experiment, parse it back, check the
     keys scripts/bench_check.sh depends on. *)
  let json =
    Profile.bench_json
      ~config:[ ("seed", Ojson.Int (Int64.to_int spec.Experiment.seed)) ]
      [
        Profile.experiment_json ~name:"fileserver" ~fs:"hinfs"
          ~ops:result.Workload.ops ~elapsed_ns:result.Workload.elapsed_ns obs;
      ]
  in
  (match Ojson.of_string (Ojson.to_string_pretty json) with
  | exception Ojson.Parse_error msg -> fail "bench json does not parse: %s" msg
  | parsed -> (
    if member [ "schema" ] parsed <> Some (Ojson.String "hinfs-bench") then
      fail "bench json schema tag missing";
    match member [ "experiments" ] parsed with
    | Some (Ojson.List [ e ]) ->
      (match member [ "throughput_ops_per_sec" ] e with
      | Some v when (match Ojson.to_float v with Some f -> f > 0.0 | None -> false)
        -> ()
      | _ -> fail "throughput missing or zero");
      List.iter
        (fun q ->
          match member [ "latency_ns"; "op.write"; q ] e with
          | Some v
            when (match Ojson.to_int v with Some n -> n > 0 | None -> false)
            -> ()
          | _ -> fail "latency_ns.op.write.%s missing or zero" q)
        [ "p50"; "p99"; "p999" ]
    | _ -> fail "experiments list malformed"));

  match !failures with
  | [] ->
    Fmt.pr "obs-smoke OK: %d ops, trace + bench JSON round-trip clean@."
      result.Workload.ops
  | fs ->
    List.iter (Fmt.epr "obs-smoke FAIL: %s@.") (List.rev fs);
    exit 1
