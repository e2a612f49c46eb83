(* Experiment driver: one simulation per (file system, workload, config)
   cell. Each run builds a fresh engine, device and file system, executes
   the workload, and returns the measurement plus the stats sink for
   byte/time breakdowns. *)

module Engine = Hinfs_sim.Engine
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Workload = Hinfs_workloads.Workload
module Trace = Hinfs_trace.Trace
module Obs = Hinfs_obs.Obs

type spec = {
  nvmm_size : int;
  nvmm_write_ns : int;
  nvmm_bandwidth : int;
  buffer_bytes : int; (* HiNFS DRAM write buffer *)
  cache_pages : int; (* EXT page cache (system memory) *)
  threads : int;
  duration_ns : int;
  seed : int64;
  shards : int; (* HiNFS hot-state shards (1 = unsharded, the default) *)
}

(* Laptop-scale calibration of the paper's Table 2 setup: the ratios are
   preserved (buffer ~40% of a filebench dataset, EXT page cache 1.5x the
   HiNFS buffer, 1 GB/s NVMM at 200 ns), sizes are divided by ~80 so a
   full figure grid runs in seconds. See EXPERIMENTS.md. *)
let default_spec =
  {
    nvmm_size = 384 * 1024 * 1024;
    nvmm_write_ns = 200;
    nvmm_bandwidth = 1_000_000_000;
    buffer_bytes = 26 * 1024 * 1024; (* ~0.4x the ~64 MB filebench datasets,
                                        the paper's 2 GB / 5 GB *)
    cache_pages = 9600 (* 37.5 MB: ~0.6x dataset, the paper's 3 GB / 5 GB *);
    threads = 4;
    duration_ns = 200_000_000 (* 0.2 virtual seconds *);
    seed = 42L;
    shards = 1;
  }

let config_of spec =
  {
    Config.default with
    Config.nvmm_size = spec.nvmm_size;
    Config.nvmm_write_ns = spec.nvmm_write_ns;
    Config.nvmm_write_bandwidth = spec.nvmm_bandwidth;
  }

(* Run [f] against a freshly mounted [kind] inside its own simulation. *)
let with_env spec kind f =
  let engine = Engine.create () in
  let result = ref None in
  Engine.spawn engine ~name:"experiment" (fun () ->
      let env =
        Fixtures.setup engine ~config:(config_of spec)
          ~buffer_bytes:spec.buffer_bytes ~cache_pages:spec.cache_pages
          ~shards:spec.shards kind
      in
      let value = f env in
      env.Fixtures.teardown ();
      result := Some (value, env.Fixtures.stats));
  Engine.run engine;
  match !result with
  | Some r -> r
  | None -> failwith "experiment did not complete"

let run_workload ?spec ?threads ?duration kind workload =
  let spec = Option.value ~default:default_spec spec in
  let threads = Option.value ~default:spec.threads threads in
  let duration = Option.value ~default:spec.duration_ns duration in
  with_env spec kind (fun env ->
      Workload.run ~seed:spec.seed ~stats:env.Fixtures.stats ~threads
        ~duration workload env.Fixtures.handle)

let run_job ?spec kind job =
  let spec = Option.value ~default:default_spec spec in
  with_env spec kind (fun env ->
      Workload.run_job ~seed:spec.seed ~stats:env.Fixtures.stats job
        env.Fixtures.handle)

(* Fig. 12 sets the DRAM buffer to 1/10 of the workload size; trace
   working sets are ~16 MB, so the trace spec defaults to a 1.6 MB buffer
   (and a page cache scaled the same way for the EXT baselines). *)
let trace_spec =
  {
    default_spec with
    buffer_bytes = 1_600_000;
    cache_pages = 600;
  }

let run_trace ?(spec = trace_spec) kind trace =
  let spec = spec in
  with_env spec kind (fun env ->
      Trace.replay ~stats:env.Fixtures.stats trace env.Fixtures.handle)

(* --- observability-enabled runs --- *)

(* Same shape as [with_env], but with an [Obs] sink installed for the
   run's lifetime and the periodic gauge sampler running between mount and
   teardown. The sink is global, so obs runs must not nest; the harness
   only ever runs one simulation at a time. *)
let with_env_obs ?(trace = false) ?sampler_period_ns spec kind f =
  let engine = Engine.create () in
  let obs = Obs.create ~trace engine in
  Obs.install obs;
  Fun.protect ~finally:Obs.uninstall (fun () ->
      let result = ref None in
      Engine.spawn engine ~name:"experiment" (fun () ->
          let env =
            Fixtures.setup engine ~config:(config_of spec)
              ~buffer_bytes:spec.buffer_bytes ~cache_pages:spec.cache_pages
              ~shards:spec.shards kind
          in
          let stop =
            Obs.start_sampler ?period_ns:sampler_period_ns obs
              ~gauges:env.Fixtures.gauges
          in
          let value = f env in
          stop ();
          env.Fixtures.teardown ();
          result := Some (value, env.Fixtures.stats));
      Engine.run engine;
      match !result with
      | Some (value, stats) -> (value, stats, obs)
      | None -> failwith "experiment did not complete")

let run_workload_obs ?spec ?threads ?duration ?trace ?sampler_period_ns kind
    workload =
  let spec = Option.value ~default:default_spec spec in
  let threads = Option.value ~default:spec.threads threads in
  let duration = Option.value ~default:spec.duration_ns duration in
  with_env_obs ?trace ?sampler_period_ns spec kind (fun env ->
      Workload.run ~seed:spec.seed ~stats:env.Fixtures.stats ~threads
        ~duration workload env.Fixtures.handle)

let run_job_obs ?spec ?trace ?sampler_period_ns kind job =
  let spec = Option.value ~default:default_spec spec in
  with_env_obs ?trace ?sampler_period_ns spec kind (fun env ->
      Workload.run_job ~seed:spec.seed ~stats:env.Fixtures.stats job
        env.Fixtures.handle)

let run_trace_obs ?(spec = trace_spec) ?trace ?sampler_period_ns kind tr =
  with_env_obs ?trace ?sampler_period_ns spec kind (fun env ->
      Trace.replay ~stats:env.Fixtures.stats tr env.Fixtures.handle)
