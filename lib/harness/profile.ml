(* Machine-readable performance summaries: the BENCH_HINFS.json schema.

   One JSON object per benchmark run, carrying per-experiment throughput
   plus full latency-histogram summaries keyed by op class ("latency_ns")
   and internal phase ("phases_ns"), and sampled-gauge statistics
   ("counters"). Everything is derived from deterministic virtual-clock
   data, so two runs with the same seed must produce byte-identical
   files — scripts/bench_check.sh enforces exactly that. *)

module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Ojson = Hinfs_obs.Ojson

let schema_version = 1

let summary_json (s : Hist.summary) =
  Ojson.Obj
    [
      ("count", Ojson.Int s.Hist.count);
      ("min", Ojson.Int s.Hist.min);
      ("mean", Ojson.Float s.Hist.mean);
      ("p50", Ojson.Int s.Hist.p50);
      ("p90", Ojson.Int s.Hist.p90);
      ("p99", Ojson.Int s.Hist.p99);
      ("p999", Ojson.Int s.Hist.p999);
      ("max", Ojson.Int s.Hist.max);
    ]

(* Both syscall op classes ("op.*") and serving-layer request classes
   ("req.*") are latency classes: they land in "latency_ns" where the
   bench_compare gate watches their p50/p99. Internal phases (including
   the srv.* breakdowns) land in "phases_ns". *)
let is_op_kind k =
  let n = Obs.kind_name k in
  (String.length n > 3 && String.sub n 0 3 = "op.")
  || (String.length n > 4 && String.sub n 0 4 = "req.")

(* One benchmark cell: a (workload, fs) run with its obs sink. *)
let experiment_json ~name ~fs ~ops ~elapsed_ns obs =
  let throughput =
    if elapsed_ns > 0 then float_of_int ops /. (float_of_int elapsed_ns /. 1e9)
    else 0.0
  in
  let hists = Obs.nonempty_hists obs in
  let ops_h, phases_h = List.partition (fun (k, _) -> is_op_kind k) hists in
  let hist_obj entries =
    Ojson.Obj
      (List.map (fun (k, s) -> (Obs.kind_name k, summary_json s)) entries)
  in
  Ojson.Obj
    [
      ("name", Ojson.String name);
      ("fs", Ojson.String fs);
      ("ops", Ojson.Int ops);
      ("elapsed_ns", Ojson.Int elapsed_ns);
      ("throughput_ops_per_sec", Ojson.Float throughput);
      ("latency_ns", hist_obj ops_h);
      ("phases_ns", hist_obj phases_h);
      ( "counters",
        Ojson.Obj
          (List.map
             (fun (n, s) -> (n, summary_json s))
             (Obs.counter_summaries obs)) );
      ( "obs",
        Ojson.Obj
          [
            ("open_spans", Ojson.Int (Obs.open_spans obs));
            ("mismatches", Ojson.Int (Obs.mismatches obs));
            ("dropped_events", Ojson.Int (Obs.dropped_events obs));
          ] );
    ]

let bench_json ~config experiments =
  Ojson.Obj
    [
      ("schema", Ojson.String "hinfs-bench");
      ("version", Ojson.Int schema_version);
      ("config", Ojson.Obj config);
      ("experiments", Ojson.List experiments);
    ]

let write_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Ojson.to_string_pretty json))
