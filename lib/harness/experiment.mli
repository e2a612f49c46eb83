(** Experiment driver: one fresh simulation per (file system, workload,
    configuration) cell. *)

type spec = {
  nvmm_size : int;
  nvmm_write_ns : int;
  nvmm_bandwidth : int;
  buffer_bytes : int;  (** HiNFS DRAM write buffer *)
  cache_pages : int;  (** EXT page cache ("system memory") *)
  threads : int;
  duration_ns : int;
  seed : int64;
  shards : int;  (** HiNFS hot-state shards (1 = unsharded, the default) *)
}

val default_spec : spec
(** Laptop-scale calibration of the paper's Table 2 setup: ratios preserved
    (buffer ~0.4x dataset, page cache ~0.6x dataset, 1 GB/s NVMM at
    200 ns), sizes divided by ~80. See EXPERIMENTS.md. *)

val trace_spec : spec
(** Fig. 12 sizing: DRAM buffer = 1/10 of the trace working set. *)

val config_of : spec -> Hinfs_nvmm.Config.t

val run_workload :
  ?spec:spec ->
  ?threads:int ->
  ?duration:int ->
  Fixtures.fs_kind ->
  Hinfs_workloads.Workload.t ->
  Hinfs_workloads.Workload.result * Hinfs_stats.Stats.t

val run_job :
  ?spec:spec ->
  Fixtures.fs_kind ->
  Hinfs_workloads.Workload.job ->
  Hinfs_workloads.Workload.job_result * Hinfs_stats.Stats.t

val run_trace :
  ?spec:spec ->
  Fixtures.fs_kind ->
  Hinfs_trace.Trace.t ->
  Hinfs_trace.Trace.replay_result * Hinfs_stats.Stats.t

(** {2 Observability-enabled runs}

    Same cells with an {!Hinfs_obs.Obs} sink installed for the run and the
    periodic gauge sampler running between mount and teardown. [trace]
    additionally keeps per-event data for Chrome-trace export. The sink is
    global: do not nest obs runs. *)

val with_env_obs :
  ?trace:bool ->
  ?sampler_period_ns:int ->
  spec ->
  Fixtures.fs_kind ->
  (Fixtures.env -> 'a) ->
  'a * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t

val run_workload_obs :
  ?spec:spec ->
  ?threads:int ->
  ?duration:int ->
  ?trace:bool ->
  ?sampler_period_ns:int ->
  Fixtures.fs_kind ->
  Hinfs_workloads.Workload.t ->
  Hinfs_workloads.Workload.result * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t

val run_job_obs :
  ?spec:spec ->
  ?trace:bool ->
  ?sampler_period_ns:int ->
  Fixtures.fs_kind ->
  Hinfs_workloads.Workload.job ->
  Hinfs_workloads.Workload.job_result * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t

val run_trace_obs :
  ?spec:spec ->
  ?trace:bool ->
  ?sampler_period_ns:int ->
  Fixtures.fs_kind ->
  Hinfs_trace.Trace.t ->
  Hinfs_trace.Trace.replay_result * Hinfs_stats.Stats.t * Hinfs_obs.Obs.t
