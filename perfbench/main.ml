(* The repository's benchmark: steady-state fileserver, varmail and serve
   on HiNFS, with end-to-end metrics on the virtual clock (the modelled
   file system) and the host clock (the simulator's own cost), and a
   traced run that attributes them to layers.

     main.exe --workload <fileserver|varmail|serve> --seed N
              --seconds S --trace <0|1>

   Everything runs in one OS process and one OCaml domain; simulated
   threads and NFS clients are fibers on the virtual clock. All three
   workloads are closed loops: a thread or client issues its next call
   only once the previous one has returned.

   A run mounts a fresh file system and populates it (set-up), runs a
   warm-up window, then a measured window whose virtual length is
   [S] times the workload's [ns_per_second]. The window is virtual so
   every virtual metric repeats exactly for a seed; at [S] = 10 it costs
   10-20 host seconds on a 2-core x86-64 container. Counters and
   histograms are read from the start of the measured window. After teardown the device is crashed
   (volatile state dropped) and remounted with PMFS, and fsck and the
   data checks must pass. The last line of output is one JSON object. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Vfs = Hinfs_vfs.Vfs
module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Ojson = Hinfs_obs.Ojson
module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench
module Fileset = Hinfs_workloads.Fileset
module Server = Hinfs_server.Server
module Clients = Hinfs_server.Clients
module Ofcache = Hinfs_server.Ofcache
module Fhandle = Hinfs_server.Fhandle
module Pmfs = Hinfs_pmfs.Pmfs
module Fsck = Hinfs_fsck.Fsck

(* --- workloads --- *)

type kind = Fileserver | Varmail | Serve

type workload = {
  kind : kind;
  name : string;
  shards : int;
  threads : int; (* filebench threads; serve uses [serve_cfg] *)
  warmup_ns : int64;
  ns_per_second : int64; (* measured virtual ns per --seconds *)
  steady_bound : float; (* the window's halves agree within this share *)
}

let workloads =
  [
    {
      kind = Fileserver;
      name = "fileserver";
      shards = 1;
      threads = 2;
      warmup_ns = 100_000_000L;
      ns_per_second = 70_000_000L;
      steady_bound = 0.10;
    };
    {
      kind = Varmail;
      name = "varmail";
      shards = 1;
      threads = 2;
      warmup_ns = 20_000_000L;
      ns_per_second = 80_000_000L;
      steady_bound = 0.05;
    };
    {
      kind = Serve;
      name = "serve";
      shards = 8;
      threads = 0;
      warmup_ns = 40_000_000L;
      ns_per_second = 24_000_000L;
      steady_bound = 0.05;
    };
  ]

let spec = Experiment.default_spec
let subwindows = 2 (* the steadiness check compares the window's halves *)
let tick_ns = 200_000L (* controller period: trace drains, window edges *)
let setup_repeats = 5
let kept_trace_events = 60_000

let serve_cfg seed =
  {
    Clients.default with
    Clients.clients = 256;
    hot_files = 64;
    theta = 0.9;
    shards = 8;
    seed = Int64.of_int seed;
  }

let filebench_of = function
  | Fileserver -> Filebench.fileserver ()
  | Varmail -> Filebench.varmail ()
  | Serve -> invalid_arg "filebench_of"

(* The file sets [filebench_of] populates. *)
let fileset_of = function
  | Fileserver -> { Fileset.dir = "/fileserver"; nfiles = 1024; mean_size = 65536 }
  | Varmail -> { Fileset.dir = "/varmail"; nfiles = 4096; mean_size = 16384 }
  | Serve -> invalid_arg "fileset_of"

(* Thread [tid] of [threads] owns the files whose index is [tid] modulo
   [threads]: each generated index is moved to the owned file next to it.
   No two threads then race on one name, so filebench's tolerated
   unlink/open races cannot occur and no call fails; popularity keeps the
   generator's shape. *)
let owned_path (fs : Fileset.t) ~threads ~tid path =
  let prefix = fs.Fileset.dir ^ "/d" in
  let lp = String.length prefix in
  if String.length path > lp + 4 && String.sub path 0 lp = prefix then
    match String.rindex_opt path 'f' with
    | Some i -> (
      match int_of_string_opt (String.sub path (i + 1) (String.length path - i - 1)) with
      | Some idx -> Fileset.file_path fs (idx - (idx mod threads) + tid)
      | None -> path)
    | None -> path
  else path

let owned_handle fs ~threads ~tid (h : Vfs.handle) =
  let m = owned_path fs ~threads ~tid in
  {
    h with
    Vfs.open_ = (fun p f -> h.Vfs.open_ (m p) f);
    unlink = (fun p -> h.Vfs.unlink (m p));
    stat = (fun p -> h.Vfs.stat (m p));
    exists = (fun p -> h.Vfs.exists (m p));
    rename = (fun a b -> h.Vfs.rename (m a) (m b));
    truncate = (fun p n -> h.Vfs.truncate (m p) n);
  }

(* --- one simulation --- *)

type result = {
  setup_s : float;
  window_ns : int64;
  finished_at : int64; (* virtual time the last worker stopped *)
  ops : int; (* ops attempted in the window *)
  samples : int; (* latency samples behind the lat_* percentiles *)
  failed : int;
  sub_ops : int array;
  host_cpu_us_per_op : float;
  host_alloc_kw_per_op : float;
  peak_heap_mb : float;
  e2e : (string * float) list; (* virtual end-to-end metrics *)
  layer : (string * float) list; (* per-layer metrics *)
  nvmm_written : int64;
  decomposition : (string * float) list; (* traced run only; us per op *)
  trace_events : Ojson.t list;
  failures : string list;
}

let us ns = float_of_int ns /. 1000.0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_op n ops = ratio n ops

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Latency samples of one run, whichever side they were timed on. *)
type meter = {
  ops : Samples.t; (* one sample per op, the decomposition's base *)
  all : Samples.t; (* the lat_* percentiles *)
  read : Samples.t;
  write : Samples.t;
  sync : Samples.t;
  attempted : unit -> int;
  failed : unit -> int;
}

(* Counters that the library keeps cumulatively, read at both window
   edges. *)
type server_counts = {
  oc_hits : int;
  oc_misses : int;
  oc_evictions : int;
  estale : int;
  err_replies : int;
  expired_replies : int;
}

let server_counts = function
  | None ->
    { oc_hits = 0; oc_misses = 0; oc_evictions = 0; estale = 0; err_replies = 0;
      expired_replies = 0 }
  | Some srv ->
    let c = Server.cache srv in
    {
      oc_hits = Ofcache.hits c;
      oc_misses = Ofcache.misses c;
      oc_evictions = Ofcache.evictions c;
      estale = Fhandle.estale_total (Server.handles srv);
      err_replies = Server.err_replies srv;
      expired_replies = Server.expired_replies srv;
    }

let stats_layer stats ~ops =
  let hits = Stats.buffer_write_hits stats and misses = Stats.buffer_write_misses stats in
  let rhits = Stats.buffer_read_hits stats and rmisses = Stats.buffer_read_misses stats in
  let bg = Int64.to_int (Stats.nvmm_bytes_written_bg stats) in
  let total = Int64.to_int (Stats.nvmm_bytes_written stats) in
  [
    ("core.write_hit_ratio", ratio hits (hits + misses));
    ("core.read_hit_ratio", ratio rhits (rhits + rmisses));
    ("core.evictions_per_kop", 1000.0 *. per_op (Stats.evictions stats) ops);
    ("core.writeback_stalls", float_of_int (Stats.writeback_stalls stats));
    ("core.dead_block_drops", float_of_int (Stats.dead_block_drops stats));
    ( "core.coalesced_lines_per_op",
      per_op (Int64.to_int (Stats.coalesced_cacheline_writes stats)) ops );
    ( "core.eager_write_share",
      ratio (Stats.eager_writes stats) (Stats.eager_writes stats + Stats.lazy_writes stats) );
    ("core.bbm_accuracy", Stats.bbm_accuracy stats);
    ("journal.fences_per_op", per_op (Stats.mfences stats Stats.Journal) ops);
    ("journal.flush_lines_per_op", per_op (Stats.clflush_issued stats Stats.Journal) ops);
    ("nvmm.write_bytes_per_op", per_op (total - bg) ops);
    ("nvmm.bg_write_bytes_per_op", per_op bg ops);
    ("nvmm.read_bytes_per_op", per_op (Int64.to_int (Stats.nvmm_bytes_read stats)) ops);
    ("nvmm.clflush_lines_per_op", per_op (Stats.total_clflush_issued stats) ops);
    ( "nvmm.clflush_useful_ratio",
      ratio (Stats.total_clflush_dirty stats) (Stats.total_clflush_issued stats) );
    ("nvmm.fences_per_op", per_op (Stats.total_mfences stats) ops);
  ]

let server_layer (a : server_counts) (b : server_counts) =
  let hits = b.oc_hits - a.oc_hits and misses = b.oc_misses - a.oc_misses in
  [
    ("server.ofcache_hit_ratio", ratio hits (hits + misses));
    ("server.ofcache_evictions", float_of_int (b.oc_evictions - a.oc_evictions));
    ("server.estale", float_of_int (b.estale - a.estale));
    ("server.err_replies", float_of_int (b.err_replies - a.err_replies));
    ("server.expired_replies", float_of_int (b.expired_replies - a.expired_replies));
  ]

let vfs_layer (probe : Probe.t) =
  List.concat_map
    (fun c ->
      let s = Probe.samples probe c in
      let n = "vfs." ^ Probe.cls_name c in
      [
        (n ^ ".calls", float_of_int (Samples.count s));
        (n ^ ".p50_us", us (Samples.quantile s 0.5));
        (n ^ ".p99_us", us (Samples.quantile s 0.99));
      ])
    Probe.classes
  @ [ ("vfs.errors", float_of_int probe.Probe.errors) ]

let traced_layer (l : Layers.t) ~ops ~fg_ns =
  let s k = Layers.summary l k in
  let mean k = (s k).Hist.mean /. 1000.0 in
  let journal_free_min =
    let m =
      Layers.gauge_min l (fun g ->
          g = "journal.free_slots" || Filename.extension g = ".journal_free_slots")
    in
    if m = max_int then 0.0 else float_of_int m
  in
  [
    ("core.wb_flush_p99_us", us (s Obs.Writeback).Hist.p99);
    ("core.fetch_p99_us", us (s Obs.Buffer_fetch).Hist.p99);
    ("core.pool_used_mean", Layers.gauge_mean l (fun g -> g = "buffer.used_blocks"));
    ("journal.commits_per_op", per_op (s Obs.Journal_commit).Hist.count ops);
    ("journal.commit_p50_us", us (s Obs.Journal_commit).Hist.p50);
    ("journal.commit_p99_us", us (s Obs.Journal_commit).Hist.p99);
    ("journal.free_slots_min", journal_free_min);
    ("journal.time_share", ratio (Layers.fg_total l Obs.Journal_commit) fg_ns);
    ("nvmm.flush_p99_us", us (s Obs.Flush).Hist.p99);
    ("nvmm.fence_p99_us", us (s Obs.Fence).Hist.p99);
    ("nvmm.slot_wait_p99_us", us (s Obs.Slot_wait).Hist.p99);
    ("nvmm.bw_slots_mean", Layers.gauge_mean l (fun g -> g = "bw.slots_in_use"));
    ("nvmm.bw_queued_mean", Layers.gauge_mean l (fun g -> g = "bw.queued"));
    ("server.queue_p50_us", us (s Obs.Srv_queue).Hist.p50);
    ("server.queue_p99_us", us (s Obs.Srv_queue).Hist.p99);
    ("server.decode_us", mean Obs.Srv_decode);
    ("server.encode_us", mean Obs.Srv_encode);
    ("server.flush_p99_us", us (s Obs.Srv_flush).Hist.p99);
    ("server.queue_depth_mean", Layers.gauge_mean l (fun g -> g = "srv.queue_depth"));
    ("sim.switches_per_op", per_op l.Layers.switches ops);
  ]

let kw_per_op w ops = if ops = 0 then 0.0 else w /. float_of_int ops /. 1000.0

(* Words the host allocated per op: minor plus direct major allocations. *)
let alloc_kw_per_op (g0 : Gc.stat) (g1 : Gc.stat) ~ops =
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  let major = g1.Gc.major_words -. g0.Gc.major_words in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  kw_per_op (minor +. major -. promoted) ops

let gc_layer (g0 : Gc.stat) (g1 : Gc.stat) ~ops =
  [
    ("host.promoted_kw_per_op", kw_per_op (g1.Gc.promoted_words -. g0.Gc.promoted_words) ops);
    ("host.minor_gcs", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("host.major_gcs", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  ]

let wall () = Unix.gettimeofday ()

(* Mount and populate; returns the environment, the probed handle and the
   host wall seconds it took. Must run inside a simulation process. *)
let set_up engine w probe ~seed =
  let t0 = wall () in
  let env =
    Fixtures.setup engine ~config:(Experiment.config_of spec)
      ~buffer_bytes:spec.Experiment.buffer_bytes
      ~cache_pages:spec.Experiment.cache_pages ~shards:w.shards Fixtures.Hinfs_fs
  in
  let h = Probe.wrap probe env.Fixtures.handle in
  (match w.kind with
  | Fileserver | Varmail ->
    (filebench_of w.kind).Workload.setup h (Rng.create ~seed:(Int64.of_int seed))
  | Serve -> Clients.setup h (serve_cfg seed));
  h.Vfs.sync_all ();
  (env, h, wall () -. t0)

let probe_for ?keep_spans engine w =
  let fill_ok, durable =
    match w.kind with
    (* fileserver never fsyncs: its calls that return durable are the
       journaled namespace changes, unlink and create *)
    | Fileserver ->
      ( (fun c -> c = 'p' || c = 'w'),
        fun c ~creates -> c = Probe.Unlink || (c = Probe.Open && creates) )
    | Varmail -> ((fun c -> c = 'p' || c = 'w'), fun c ~creates:_ -> c = Probe.Fsync)
    | Serve -> ((fun c -> c = 'h'), fun _ ~creates:_ -> false)
  in
  Probe.create ?keep_spans engine ~fill_ok ~durable

(* Time set-up alone, in a simulation of its own. *)
let setup_only w ~seed =
  let engine = Engine.create () in
  let took = ref 0.0 in
  Engine.spawn engine ~name:"setup" (fun () ->
      let env, _, s = set_up engine w (probe_for engine w) ~seed in
      took := s;
      env.Fixtures.teardown ());
  Engine.run engine;
  !took

(* Crash the device (drop what only the CPU cache holds), remount it with
   PMFS, and check the image. *)
let verify env ~check_data =
  let failures = ref [] in
  Device.crash env.Fixtures.device;
  let fs = Pmfs.mount env.Fixtures.device () in
  let r = Fsck.check_pmfs fs in
  if not (Fsck.ok r) then
    failures := Fmt.str "fsck after remount: %a" Fsck.pp_report r :: !failures;
  if r.Fsck.leaked_blocks > 0 || r.Fsck.leaked_inodes > 0 then
    failures :=
      Printf.sprintf "fsck after remount: %d leaked block(s), %d leaked inode(s)"
        r.Fsck.leaked_blocks r.Fsck.leaked_inodes
      :: !failures;
  failures := check_data (Pmfs.handle fs) @ !failures;
  Pmfs.unmount fs;
  !failures

(* The file system raised something other than an [Fs_error] out of a
   call: the run has no result. *)
exception Sim_failed of string

let run_sim w ~seed ~seconds ~traced =
  let engine = Engine.create () in
  let window_ns = Int64.mul (Int64.of_int seconds) w.ns_per_second in
  let keep_spans = if traced then kept_trace_events / 2 else 0 in
  let probe = probe_for ~keep_spans engine w in
  let smeter = Serve_loop.meter ~keep_spans engine in
  let iterations = Samples.create () in
  let meter =
    match w.kind with
    | Serve ->
      {
        ops = smeter.Serve_loop.all;
        all = smeter.Serve_loop.all;
        read = smeter.read;
        write = smeter.write;
        sync = smeter.sync;
        attempted = (fun () -> smeter.Serve_loop.attempted);
        failed = (fun () -> smeter.Serve_loop.failed);
      }
    | Fileserver | Varmail ->
      {
        ops = probe.Probe.all;
        all = iterations;
        read = probe.Probe.whole_reads;
        write = Probe.samples probe Probe.Write;
        sync = probe.Probe.sync;
        attempted = (fun () -> Samples.count probe.Probe.all);
        failed = (fun () -> probe.Probe.errors);
      }
  in
  let obs = if traced then Some (Obs.create ~trace:true ~max_events:2_000_000 engine) else None in
  let worker_pids = Hashtbl.create 64 in
  let layers =
    Option.map
      (fun o ->
        Layers.create ~keep:(kept_trace_events / 2) o ~foreground:(fun pid ->
            Hashtbl.mem worker_pids pid
            || String.length (Engine.proc_name engine pid) > 10
               && String.sub (Engine.proc_name engine pid) 0 10 = "srv-worker"))
      obs
  in
  let result = ref None and verify_after = ref (fun () -> []) in
  Engine.spawn engine ~name:"bench" (fun () ->
      let env, h, setup_s = set_up engine w probe ~seed in
      let srv =
        match w.kind with
        | Serve ->
          let s = Server.create ~workers:32 ~cache_cap:64 engine h in
          Server.start s;
          Some s
        | _ -> None
      in
      let stop_sampler =
        match obs with
        | None -> fun () -> ()
        | Some o ->
          Obs.install o;
          let extra =
            match srv with
            | Some s -> [ ("srv.queue_depth", fun () -> Server.queue_depth s) ]
            | None -> []
          in
          Obs.start_sampler o ~gauges:(env.Fixtures.gauges @ extra)
      in
      let t_start = Int64.add (Proc.now ()) w.warmup_ns in
      let t_end = Int64.add t_start window_ns in
      (* workers *)
      let live = ref 0 and waker = ref None and finished_at = ref 0L in
      let one_done () =
        decr live;
        if !live = 0 then begin
          finished_at := Proc.now ();
          match !waker with Some wk -> ignore (Engine.wake wk ()) | None -> ()
        end
      in
      let clients =
        match (w.kind, srv) with
        | Serve, Some s ->
          let cfg = serve_cfg seed in
          live := 1;
          Serve_loop.spawn smeter s cfg ~deadline:t_end ~on_done:one_done
        | _ ->
          let wl = filebench_of w.kind and fs = fileset_of w.kind in
          for tid = 0 to w.threads - 1 do
            incr live;
            Proc.spawn ~name:(Printf.sprintf "%s-worker-%d" w.name tid) (fun () ->
                Hashtbl.replace worker_pids (Engine.current_pid engine) ();
                let ctx =
                  {
                    Workload.handle = owned_handle fs ~threads:w.threads ~tid h;
                    rng = Rng.create ~seed:(Int64.of_int ((seed * 7919) + tid + 1));
                    thread_id = tid;
                  }
                in
                while Int64.compare (Proc.now ()) t_end < 0 do
                  let t0 = Proc.now () in
                  ignore (wl.Workload.worker ctx);
                  if probe.Probe.window then
                    Samples.add iterations (Int64.to_int (Int64.sub (Proc.now ()) t0))
                done;
                one_done ())
          done;
          [||]
      in
      (* controller: tick to each edge, draining the trace as it goes *)
      let drain () = Option.iter Layers.drain layers in
      let rec tick_until t =
        let now = Proc.now () in
        if Int64.compare now t < 0 then begin
          Proc.delay (min tick_ns (Int64.sub t now));
          drain ();
          tick_until t
        end
      in
      tick_until t_start;
      drain ();
      Stats.reset env.Fixtures.stats;
      probe.Probe.window <- true;
      smeter.Serve_loop.window <- true;
      Option.iter (fun l -> l.Layers.window <- true) layers;
      let sc0 = server_counts srv in
      let gc0 = Gc.quick_stat () in
      let cpu0 = Sys.time () in
      let sub_ops = Array.make subwindows 0 in
      let sub_ns = Int64.div window_ns (Int64.of_int subwindows) in
      let ops_before = ref 0 in
      for k = 0 to subwindows - 1 do
        tick_until
          (if k = subwindows - 1 then t_end
           else Int64.add t_start (Int64.mul sub_ns (Int64.of_int (k + 1))));
        let now_ops = meter.attempted () in
        sub_ops.(k) <- now_ops - !ops_before;
        ops_before := now_ops
      done;
      let cpu_per_op = (Sys.time () -. cpu0) *. 1e6 /. float_of_int (max 1 !ops_before) in
      drain ();
      probe.Probe.window <- false;
      smeter.Serve_loop.window <- false;
      Option.iter (fun l -> l.Layers.window <- false) layers;
      let gc1 = Gc.quick_stat () in
      (* read before the percentiles below sort copies of the samples *)
      let peak_heap_mb =
        float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
      in
      let stats = env.Fixtures.stats in
      let ops = meter.attempted () in
      let secs = Int64.to_float window_ns /. 1e9 in
      let q s p = us (Samples.quantile s p) in
      let user_written = Int64.to_int (Stats.user_bytes_written stats) in
      let nvmm_written = Stats.nvmm_bytes_written stats in
      let e2e =
        [
          ("ops_per_s", float_of_int ops /. secs);
          ("lat_p50_us", q meter.all 0.5);
          ("lat_p99_us", q meter.all 0.99);
          ("lat_p999_us", q meter.all 0.999);
          ("read_p99_us", q meter.read 0.99);
          ("write_p99_us", q meter.write 0.99);
          ("sync_p99_us", q meter.sync 0.99);
          ("nvmm_write_amp", ratio (Int64.to_int nvmm_written) user_written);
        ]
      in
      let fg_ns = Samples.sum meter.ops in
      let layer =
        vfs_layer probe
        @ stats_layer stats ~ops
        @ server_layer sc0 (server_counts srv)
        @ [ ("server.estale_relookups", float_of_int smeter.Serve_loop.estale_relookups) ]
        @ (("host.cpu_us_per_op", cpu_per_op) :: gc_layer gc0 gc1 ~ops)
        @ (match layers with Some l -> traced_layer l ~ops ~fg_ns | None -> [])
      in
      let decomposition =
        match layers with
        | None -> []
        | Some l ->
          let parts = List.map (fun (n, ns) -> (n, us ns /. float_of_int (max 1 ops))) (Layers.parts l) in
          let total = us fg_ns /. float_of_int (max 1 ops) in
          let attributed = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
          parts @ [ ("unattributed", total -. attributed); ("total", total) ]
      in
      if !live > 0 then Proc.suspend (fun wk -> waker := Some wk);
      stop_sampler ();
      (match srv with
      | Some s ->
        Ofcache.drop_all (Server.cache s);
        Server.stop s
      | None -> ());
      let trace_events = Option.fold ~none:[] ~some:Layers.chrome_events layers in
      let span_failures =
        match layers with
        | Some l ->
          (if l.Layers.mismatches > 0 then
             [ Printf.sprintf "%d mismatched trace spans" l.Layers.mismatches ]
           else [])
          @ (if l.Layers.dropped > 0 then
               [ Printf.sprintf "%d trace events dropped" l.Layers.dropped ]
             else [])
        | None -> []
      in
      (match obs with Some _ -> Obs.uninstall () | None -> ());
      env.Fixtures.teardown ();
      let check_data vh =
        Probe.check_sizes probe vh;
        let own =
          match w.kind with
          | Serve ->
            Array.to_list clients
            |> List.filter_map (Serve_loop.check_own vh (serve_cfg seed))
          | _ -> []
        in
        own
        @ (match probe.Probe.first_failure with
          | Some f -> [ Printf.sprintf "%d data check(s) failed; first: %s" probe.Probe.check_failures f ]
          | None -> [])
      in
      (* The image is checked once the engine has drained, so that no
         daemon of the unmounted file system still runs. *)
      verify_after := (fun () -> verify env ~check_data);
      let failures = span_failures in
      result :=
        Some
          {
            setup_s;
            window_ns;
            finished_at = !finished_at;
            ops;
            samples = Samples.count meter.all;
            failed = meter.failed ();
            sub_ops;
            host_cpu_us_per_op = cpu_per_op;
            host_alloc_kw_per_op = alloc_kw_per_op gc0 gc1 ~ops;
            peak_heap_mb;
            e2e;
            layer;
            nvmm_written;
            decomposition;
            trace_events;
            failures;
          });
  (try Engine.run engine
   with e ->
     if obs <> None then Obs.uninstall ();
     raise (Sim_failed (Printexc.to_string e)));
  let verified = ref [ "remount check did not run" ] in
  Engine.spawn engine ~name:"verify" (fun () -> verified := !verify_after ());
  (try Engine.run engine with e -> verified := [ "remount check raised " ^ Printexc.to_string e ]);
  let probe_spans = probe.Probe.spans @ smeter.Serve_loop.spans in
  match !result with
  | Some r -> ({ r with failures = r.failures @ !verified }, probe_spans, engine)
  | None -> failwith "benchmark simulation did not complete"

(* --- checks on a run --- *)

(* Warm-up left in the window shows as a difference between its halves. *)
let steady_failures w r =
  let half k = Array.fold_left ( + ) 0 (Array.sub r.sub_ops (k * subwindows / 2) (subwindows / 2)) in
  let a = float_of_int (half 0) and b = float_of_int (half 1) in
  let diff = if a +. b = 0.0 then infinity else 2.0 *. Float.abs (a -. b) /. (a +. b) in
  if diff > w.steady_bound then
    [
      Printf.sprintf
        "not steady: the window's halves completed %.0f and %.0f ops, %.3f apart \
         (bound %.2f)"
        a b diff w.steady_bound;
    ]
  else []

(* --- output --- *)

let e2e_units =
  [
    ("ops_per_s", "ops/s"); ("lat_p50_us", "us"); ("lat_p99_us", "us");
    ("lat_p999_us", "us"); ("read_p99_us", "us"); ("write_p99_us", "us");
    ("sync_p99_us", "us"); ("nvmm_write_amp", "B/B");
    ("host_alloc_kw_per_op", "kw/op"); ("peak_heap_mb", "MB"); ("setup_s", "s");
  ]

let layer_unit name =
  let ends s = Filename.check_suffix name s in
  if ends "_us" || ends "_us_per_op" then "us"
  else if ends "_ratio" || ends "_share" || ends "accuracy" then "ratio"
  else if ends "bytes_per_op" then "B/op"
  else if ends "kw_per_op" then "kw/op"
  else if ends "_per_op" then "1/op"
  else if ends "_per_kop" then "1/kop"
  else "count"

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (n, v, u) ->
        (* JSON has no NaN; a ratio over nothing reads 0 like [ratio] *)
        let v = if Float.is_nan v then 0.0 else v in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

let write_trace w ~seed engine (r : result) spans =
  let dir = ".perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/%s-seed%d.trace.json" dir w.name seed in
  let pids = Hashtbl.create 64 in
  let own =
    List.map
      (fun (s : Probe.span) ->
        Hashtbl.replace pids s.Probe.pid ();
        Ojson.Obj
          [
            ("ph", Ojson.String "X");
            ("name", Ojson.String ("bench." ^ s.Probe.name));
            ("pid", Ojson.Int 1);
            ("tid", Ojson.Int s.Probe.pid);
            ("ts", Ojson.Float (Int64.to_float s.Probe.t0 /. 1000.0));
            ("dur", Ojson.Float (Int64.to_float (Int64.sub s.Probe.t1 s.Probe.t0) /. 1000.0));
            ("args", Ojson.Obj [ ("id", Ojson.Int s.Probe.id) ]);
          ])
      spans
  in
  List.iter
    (fun ev ->
      match Layers.field "tid" ev with
      | Some (Ojson.Int pid) -> Hashtbl.replace pids pid ()
      | _ -> ())
    r.trace_events;
  let meta =
    Hashtbl.fold (fun pid () acc -> pid :: acc) pids []
    |> List.sort compare
    |> List.concat_map (fun pid ->
           List.map
             (fun p ->
               Ojson.Obj
                 [
                   ("ph", Ojson.String "M");
                   ("name", Ojson.String "thread_name");
                   ("pid", Ojson.Int p);
                   ("tid", Ojson.Int pid);
                   ("args", Ojson.Obj [ ("name", Ojson.String (Engine.proc_name engine pid)) ]);
                 ])
             [ 0; 1 ])
  in
  let json =
    Ojson.Obj
      [
        ("traceEvents", Ojson.List (meta @ r.trace_events @ own));
        ("displayTimeUnit", Ojson.String "ns");
      ]
  in
  let oc = open_out path in
  output_string oc (Ojson.to_string json);
  close_out oc;
  path

let print_run w r =
  Printf.printf "# %s: this run's set-up %.3f s, warm-up %.1f virtual ms, window %.1f virtual ms\n"
    w.name r.setup_s
    (Int64.to_float w.warmup_ns /. 1e6)
    (Int64.to_float r.window_ns /. 1e6);
  Printf.printf "# %s: %d ops in window, sub-window ops [%s]\n" w.name r.ops
    (String.concat " " (Array.to_list (Array.map string_of_int r.sub_ops)));
  Printf.printf "# %s: %d latency samples (%s)\n" w.name r.samples
    (match w.kind with Serve -> "requests" | _ -> "worker iterations");
  Printf.printf "# %s: failed_op_ratio %.6f (%d failed of %d attempted)\n" w.name
    (ratio r.failed r.ops) r.failed r.ops

let is_host name = String.starts_with ~prefix:"host." name

let run_measured w ~seed ~seconds ~trace =
  let r, _, _ = run_sim w ~seed ~seconds ~traced:false in
  let failures = r.failures @ steady_failures w r in
  print_run w r;
  if not trace then begin
    (* setup_s is timed apart from the measured run and after it, so that
       no set-up adds to the run's peak heap and all of them run alike:
       each in a fresh simulation after a full collection. Most of a
       set-up is the kernel faulting in the modelled device's ~384 MB;
       now and then the C allocator hands back pages already faulted in
       and that set-up is ~3x faster, which the median absorbs. *)
    let setups = List.init setup_repeats (fun _ ->
        Gc.compact ();
        setup_only w ~seed) in
    let setup_s = median setups in
    let values =
      r.e2e
      @ [ ("host_alloc_kw_per_op", r.host_alloc_kw_per_op); ("peak_heap_mb", r.peak_heap_mb);
          ("setup_s", setup_s) ]
    in
    Printf.printf "# %s: setup runs [%s] s\n" w.name
      (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
    Printf.printf "# %s: host CPU %.2f us per op over the window (not gated)\n" w.name
      r.host_cpu_us_per_op;
    List.iter
      (fun (n, v) -> Printf.printf "%-22s %14.4f %s\n" n v (List.assoc n e2e_units))
      values;
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
    print_endline
      (json_line ~correct:(failures = []) ~attempted:r.ops ~failed:r.failed
         (List.map (fun (n, v) -> (n, v, List.assoc n e2e_units)) values));
    failures = []
  end
  else begin
    Gc.compact ();
    let t, spans, engine = run_sim w ~seed ~seconds ~traced:true in
    let same name a b =
      if a <> b then [ Printf.sprintf "traced run differs from untraced run in %s" name ] else []
    in
    let failures =
      failures @ t.failures
      @ same "op count" r.ops t.ops
      @ same "finish time" r.finished_at t.finished_at
      @ same "NVMM bytes written" r.nvmm_written t.nvmm_written
      @ same "virtual end-to-end metrics" r.e2e t.e2e
      @ same "virtual per-layer counters"
          (List.filter (fun (n, _) -> List.mem_assoc n t.layer && not (is_host n)) r.layer)
          (List.filter (fun (n, _) -> List.mem_assoc n r.layer && not (is_host n)) t.layer)
    in
    let path = write_trace w ~seed engine t spans in
    Printf.printf "# %s: Chrome trace written to %s\n" w.name path;
    Printf.printf "# %s: per-op time decomposition (us per op, parts sum to the mean latency)\n" w.name;
    List.iter (fun (n, v) -> Printf.printf "  %-14s %10.4f\n" n v) t.decomposition;
    let host = List.filter (fun (n, _) -> is_host n) r.layer in
    let virt = List.filter (fun (n, _) -> not (is_host n)) t.layer in
    let metrics =
      virt @ host
      @ [ ("host.trace_overhead_us_per_op", t.host_cpu_us_per_op -. r.host_cpu_us_per_op) ]
      @ List.map (fun (n, v) -> ("decomp." ^ n ^ "_us", v)) t.decomposition
    in
    List.iter (fun (n, v) -> Printf.printf "%-34s %14.4f %s\n" n v (layer_unit n)) metrics;
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
    print_endline
      (json_line ~correct:(failures = []) ~attempted:r.ops ~failed:r.failed
         (List.map (fun (n, v) -> (n, v, layer_unit n)) metrics));
    failures = []
  end

let run_workload w ~seed ~seconds ~trace =
  match run_measured w ~seed ~seconds ~trace with
  | ok -> ok
  | exception Sim_failed e ->
    Printf.printf "CHECK FAILED: %s: the simulation raised %s\n" w.name e;
    print_endline (json_line ~correct:false ~attempted:1 ~failed:1 []);
    false

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "fileserver|varmail|serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "length of the measured window, in benchmark seconds");
      ("--trace", Arg.Set_int trace, "1 for the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  (* One workload per process: peak_heap_mb reads Gc.top_heap_words,
     which never falls, so a second workload would inherit the first's
     peak. run.sh runs `all` as one process per workload. *)
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w when !seconds >= 1 ->
    exit (if run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) then 0 else 1)
  | _ ->
    prerr_endline "perfbench: --workload must be fileserver, varmail or serve; --seconds >= 1";
    exit 2
