(* Workload abstraction and the multi-threaded driver.

   A workload provides a [setup] phase (population, untimed: the driver
   resets the stats afterwards) and a [worker] step executed in a loop by
   each thread until the virtual deadline. Workers report how many
   file-system operations each step performed so throughput matches
   filebench's ops/s accounting. *)

module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Vfs = Hinfs_vfs.Vfs
module Obs = Hinfs_obs.Obs

type context = {
  handle : Vfs.handle;
  rng : Rng.t;
  thread_id : int;
}

type t = {
  name : string;
  setup : Vfs.handle -> Rng.t -> unit;
  worker : context -> int; (* one step; returns ops performed *)
}

type result = {
  workload : string;
  fs_name : string;
  threads : int;
  elapsed_ns : int;
  ops : int;
  ops_per_sec : float;
}

let pp_result ppf r =
  Fmt.pf ppf "%-12s %-14s %2d thr  %9d ops  %12.0f ops/s" r.workload
    r.fs_name r.threads r.ops r.ops_per_sec

(* --- fixed jobs (macro benchmarks, Fig. 13): measured by elapsed time --- *)

type job = {
  job_name : string;
  job_setup : Vfs.handle -> Rng.t -> unit;
  job_run : Vfs.handle -> Rng.t -> int; (* returns ops performed *)
}

type job_result = {
  job : string;
  jr_fs_name : string;
  jr_elapsed_ns : int;
  jr_ops : int;
}

let pp_job_result ppf r =
  Fmt.pf ppf "%-12s %-14s %9d ops  %12.3f ms" r.job r.jr_fs_name r.jr_ops
    (float_of_int r.jr_elapsed_ns /. 1e6)

let run_job ?(seed = 42L) ~stats (job : job) (handle : Vfs.handle) =
  let rng = Rng.create ~seed in
  job.job_setup handle rng;
  (* Quiesce the population phase so its dirty bytes are not attributed to
     the measurement window. *)
  handle.Vfs.sync_all ();
  Stats.reset stats;
  (match Obs.current () with Some o -> Obs.reset o | None -> ());
  let start = Proc.now_int () in
  let ops = job.job_run handle rng in
  for _ = 1 to ops do
    Stats.op_done stats
  done;
  {
    job = job.job_name;
    jr_fs_name = handle.Vfs.fs_name;
    jr_elapsed_ns = Proc.now_int () - start;
    jr_ops = ops;
  }

(* Run [w] on [handle] with [threads] workers for [duration] virtual ns.
   Must be called from within a simulation process. The stats are reset
   after setup so only the measurement window is counted. *)
let run ?(seed = 42L) ~stats ~threads ~duration w (handle : Vfs.handle) =
  let setup_rng = Rng.create ~seed in
  w.setup handle setup_rng;
  handle.Vfs.sync_all ();
  Stats.reset stats;
  (match Obs.current () with Some o -> Obs.reset o | None -> ());
  let start = Proc.now_int () in
  let deadline = start + duration in
  let total_ops = ref 0 in
  let live = ref threads in
  let done_waker = ref None in
  for thread_id = 0 to threads - 1 do
    Proc.spawn ~name:(Printf.sprintf "%s-worker-%d" w.name thread_id)
      (fun () ->
        let rng =
          Rng.create ~seed:(Int64.add seed (Int64.of_int ((thread_id * 7919) + 1)))
        in
        let ctx = { handle; rng; thread_id } in
        let rec loop () =
          if Proc.now_int () < deadline then begin
            let ops = w.worker ctx in
            total_ops := !total_ops + ops;
            for _ = 1 to ops do
              Stats.op_done stats
            done;
            loop ()
          end
        in
        loop ();
        decr live;
        if !live = 0 then
          match !done_waker with
          | Some waker -> ignore (Engine.wake waker ())
          | None -> ())
  done;
  if !live > 0 then Proc.suspend (fun waker -> done_waker := Some waker);
  let elapsed = Proc.now_int () - start in
  {
    workload = w.name;
    fs_name = handle.Vfs.fs_name;
    threads;
    elapsed_ns = elapsed;
    ops = !total_ops;
    ops_per_sec =
      (if elapsed > 0 then
         float_of_int !total_ops /. (float_of_int elapsed /. 1e9)
       else 0.0);
  }
