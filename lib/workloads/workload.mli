(** Workload abstraction and the multi-threaded driver. *)

type context = {
  handle : Hinfs_vfs.Vfs.handle;
  rng : Hinfs_sim.Rng.t;
  thread_id : int;
}

(** A rate workload (filebench-style): measured as operations per second
    over a fixed virtual window. *)
type t = {
  name : string;
  setup : Hinfs_vfs.Vfs.handle -> Hinfs_sim.Rng.t -> unit;
  worker : context -> int;  (** one step; returns ops performed *)
}

type result = {
  workload : string;
  fs_name : string;
  threads : int;
  elapsed_ns : int;
  ops : int;
  ops_per_sec : float;
}

val pp_result : Format.formatter -> result -> unit

(** A fixed job (macro benchmark): measured by elapsed virtual time. *)
type job = {
  job_name : string;
  job_setup : Hinfs_vfs.Vfs.handle -> Hinfs_sim.Rng.t -> unit;
  job_run : Hinfs_vfs.Vfs.handle -> Hinfs_sim.Rng.t -> int;
}

type job_result = {
  job : string;
  jr_fs_name : string;
  jr_elapsed_ns : int;
  jr_ops : int;
}

val pp_job_result : Format.formatter -> job_result -> unit

val run_job :
  ?seed:int64 ->
  stats:Hinfs_stats.Stats.t ->
  job ->
  Hinfs_vfs.Vfs.handle ->
  job_result
(** Setup, quiesce, reset stats, run to completion. Must run inside a
    simulation process. *)

val run :
  ?seed:int64 ->
  stats:Hinfs_stats.Stats.t ->
  threads:int ->
  duration:int ->
  t ->
  Hinfs_vfs.Vfs.handle ->
  result
(** Setup, quiesce, reset stats, then run [threads] workers until the
    virtual deadline. Must run inside a simulation process. *)
