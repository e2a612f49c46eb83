(* Online self-healing: the background repair daemon for per-shard fault
   domains.

   A shard that degrades at runtime (uncorrectable read, dropped recovery
   records, patrol-detected poison) is taken through

     Degraded --quarantine--> Quarantined --start_repair--> Repairing
                                                               |
        Healthy <--------------- readmit (success) ------------+
        Degraded <-------------- fail_repair (give up this try)+

   while its siblings keep serving read-write traffic. One repair pass:

   1. quarantine the shard — foreground ops now fail fast (reads EIO,
      writes EROFS) and the mount's quarantine listener drops the shard's
      DRAM state (HiNFS aborts pending transactions and evicts buffers);
   2. wait for the shard journal's live transactions to drain (bounded:
      if writers are wedged mid-transaction the pass is retried at the
      next patrol tick rather than blocking the daemon);
   3. re-run journal recovery over the shard's sub-region against the
      current epoch watermark: committed-but-uncheckpointed transactions
      are preserved by the wipe-order invariants, uncommitted ones are
      rolled back, untrusted (poisoned / CRC-failing) records dropped —
      then re-arm the live log handle over the now-empty region;
   4. heal the epoch record (re-persist the runtime watermark) and scrub
      the shard's regions in isolation — journal poison is zeroed, free
      slots are zeroed, allocated-data poison is left in place (EIO on
      read is data loss, not a structural fault);
   5. fsck the mount and re-admit the shard only if the image is
      structurally clean and the shard's journal sub-region is empty.

   Every repair write goes through the untimed reliable-store path
   (poke_flushed / fence_untimed), so the persistence recorder sees it:
   crash images taken mid-repair are legal and must mount.

   The daemon is rate-limited on the virtual clock ([interval_ns] between
   patrol passes) and gives up on a shard after [max_attempts] failed
   repairs, leaving it Degraded for an operator ([hinfs_cli scrub] /
   offline fsck).

   Unsharded mounts have no quarantinable domain — the Mount domain never
   passes Degraded, because there is no sibling to keep serving — but a
   Degraded mount is not degraded-forever: the patrol heals mount-scoped
   poison (superblock, epoch record) in place, and when the whole mount
   is the fault domain (shards = 1) it runs the same drain / journal
   re-replay / scrub / fsck pass *in place* against the degraded mount
   (reads keep being served, mutations keep failing EROFS) and re-admits
   it once the image verifies clean. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Condvar = Hinfs_sim.Condvar
module Device = Hinfs_nvmm.Device
module Config = Hinfs_nvmm.Config
module Fault = Hinfs_nvmm.Fault
module Stats = Hinfs_stats.Stats
module Log = Hinfs_journal.Cacheline_log
module Epoch = Hinfs_journal.Epoch
module Pmfs = Hinfs_pmfs.Pmfs
module Health = Hinfs_pmfs.Health
module Layout = Hinfs_pmfs.Layout
module Fs_ctx = Hinfs_pmfs.Fs_ctx
module Obs = Hinfs_obs.Obs

type config = {
  interval_ns : int;  (** virtual time between patrol passes *)
  max_attempts : int;  (** failed repairs before giving a shard up *)
  drain_polls : int;  (** bounded waits for live txns to drain *)
  drain_poll_ns : int;  (** virtual time per drain poll *)
}

let default_config =
  {
    interval_ns = 2_000_000;  (* 2 ms: patrol often, repair promptly *)
    max_attempts = 3;
    drain_polls = 50;
    drain_poll_ns = 100_000;
  }

type t = {
  fs : Pmfs.t;
  cfg : config;
  cv : Condvar.t;
  mutable stop : bool;
  mutable running : bool;
  mutable repairs_done : int;  (* successful re-admissions *)
  mutable repairs_failed : int;
}

let repairs_done t = t.repairs_done
let repairs_failed t = t.repairs_failed

(* --- patrol: find damage the foreground path has not tripped over --- *)

(* Poison in a shard's journal sub-region or inode/data ranges is latent
   damage (journals are only read at recovery): degrade the owner now so
   repair starts before a crash forces recovery to drop records. *)
let patrol_detect fs =
  let device = Pmfs.device fs in
  match Device.fault_model device with
  | None -> ()
  | Some fm ->
    let ls = (Device.config device).Config.cacheline_size in
    List.iter
      (fun line ->
        let addr = line * ls in
        match Pmfs.shard_of_addr fs addr with
        | Some s when Pmfs.shard_count fs > 1 ->
          (* Data-region poison over an allocated block is data loss the
             scrubber will not heal; quarantining the shard for it would
             be all cost and no cure. Journal / itable poison is
             structural: flag it. *)
          let geo = Pmfs.geometry fs in
          let block = addr / geo.Layout.block_size in
          if block < geo.Layout.data_start then
            Pmfs.degrade_shard fs s
              (Fmt.str "patrol: poisoned metadata line at %#x" addr)
        | _ -> ())
      (Fault.poisoned_lines fm)

(* Mount-scoped damage is healed in place (no quarantine possible):
   superblock copies rewritten, epoch record re-persisted. *)
let heal_mount_scope fs =
  let device = Pmfs.device fs in
  let geo = Pmfs.geometry fs in
  let bs = geo.Layout.block_size in
  let sb_poisoned addr = Device.verify_range device ~addr ~len:bs <> [] in
  if sb_poisoned 0 || sb_poisoned (geo.Layout.sb_replica * bs) then begin
    Layout.write_superblock device geo ~clean:false;
    Stats.add_scrub_repair (Device.stats device)
  end;
  let epoch_addr = Layout.epoch_block geo * bs in
  if Device.verify_range device ~addr:epoch_addr ~len:bs <> [] then begin
    Epoch.heal (Pmfs.epoch fs);
    Stats.add_scrub_repair (Device.stats device)
  end

(* --- one shard repair pass --- *)

let drain_live_txns t log =
  let rec poll n =
    if Log.live_txns log = 0 then true
    else if n = 0 then false
    else begin
      Proc.delay_int t.cfg.drain_poll_ns;
      poll (n - 1)
    end
  in
  poll t.cfg.drain_polls

let repair_shard t s =
  let fs = t.fs in
  let health = Pmfs.health fs in
  let stats = Device.stats (Pmfs.device fs) in
  Health.quarantine health s;
  Stats.add_quarantine stats;
  Obs.instant Obs.Ev_quarantine ~a:s
    ~b:(Health.state_code (Health.shard_state health s));
  let log = (Fs_ctx.shard (Pmfs.ctx fs) s).Fs_ctx.log in
  if not (drain_live_txns t log) then
    (* Writers wedged mid-transaction: stay Quarantined, retry at the next
       patrol tick. Not counted as a failed attempt — nothing was tried. *)
    ()
  else begin
    Health.start_repair health s;
    let t0 = Engine.now (Device.engine (Pmfs.device fs)) in
    let ok =
      try
        let device = Pmfs.device fs in
        let geo = Pmfs.geometry fs in
        (* 3. Re-replay / wipe the shard's journal sub-region. The live
           handle is re-armed over the now-empty region afterwards. *)
        let first_block, blocks = Layout.journal_region geo s in
        let committed_epoch = Epoch.committed (Pmfs.epoch fs) in
        let r = Log.recover device ~committed_epoch ~first_block ~blocks () in
        ignore r.Log.rolled_back;
        Log.reset_runtime log;
        (* 4. Epoch watermark + shard-scoped scrub. *)
        Epoch.heal (Pmfs.epoch fs);
        let sreport = Scrub.run ~shard:s fs in
        (* 5. Verify in isolation before re-admitting: the image must be
           structurally clean and the shard journal empty. Residual
           allocated-data poison is tolerated (per-line EIO, not a
           structural fault). *)
        let freport = Fsck.check_pmfs fs in
        let shard_clean =
          Fsck.ok freport
          && freport.Fsck.shard_reports.(s).Fsck.journal_entries = 0
        in
        Scrub.clean sreport && shard_clean
      with _ -> false
    in
    Obs.span_since Obs.Health_repair ~t0;
    if ok then begin
      let attempts = Health.repair_attempts health s in
      Health.readmit health s;
      Stats.add_shard_repair stats ~ok:true;
      t.repairs_done <- t.repairs_done + 1;
      Obs.instant Obs.Ev_readmit ~a:s ~b:attempts
    end
    else begin
      Health.fail_repair health s "repair failed; shard still degraded";
      Stats.add_shard_repair stats ~ok:false;
      t.repairs_failed <- t.repairs_failed + 1
    end
  end

(* In-place repair of a degraded unsharded mount (shards = 1): the Mount
   domain is the only fault domain there is, so there is no quarantine —
   reads keep being served while the pass runs, mutations keep failing
   EROFS, and re-admission is Degraded -> Healthy once the image checks
   out. The pass itself is the shard recipe over the single journal
   region. Residual allocated-data poison is tolerated exactly as in
   [repair_shard]: a per-line EIO is data loss, not a structural fault
   (it may re-degrade the mount on the next read, triggering another
   bounded pass). *)
let repair_mount t =
  let fs = t.fs in
  let health = Pmfs.health fs in
  let stats = Device.stats (Pmfs.device fs) in
  let log = (Fs_ctx.shard (Pmfs.ctx fs) 0).Fs_ctx.log in
  if drain_live_txns t log then begin
    let t0 = Engine.now (Device.engine (Pmfs.device fs)) in
    let ok =
      try
        let device = Pmfs.device fs in
        let geo = Pmfs.geometry fs in
        let first_block, blocks = Layout.journal_region geo 0 in
        let committed_epoch = Epoch.committed (Pmfs.epoch fs) in
        let r = Log.recover device ~committed_epoch ~first_block ~blocks () in
        ignore r.Log.rolled_back;
        Log.reset_runtime log;
        Epoch.heal (Pmfs.epoch fs);
        let sreport = Scrub.run fs in
        let freport = Fsck.check_pmfs fs in
        Scrub.clean sreport
        && Fsck.ok freport
        && freport.Fsck.shard_reports.(0).Fsck.journal_entries = 0
      with _ -> false
    in
    Obs.span_since Obs.Health_repair ~t0;
    if ok then begin
      Health.readmit_mount health;
      Stats.add_shard_repair stats ~ok:true;
      t.repairs_done <- t.repairs_done + 1;
      Obs.instant Obs.Ev_readmit ~a:(-1)
        ~b:(Health.mount_repair_attempts health)
    end
    else begin
      Health.fail_mount_repair health "repair failed; mount still degraded";
      Stats.add_shard_repair stats ~ok:false;
      t.repairs_failed <- t.repairs_failed + 1
    end
  end

let pass t =
  let fs = t.fs in
  let health = Pmfs.health fs in
  patrol_detect fs;
  heal_mount_scope fs;
  if Pmfs.shard_count fs > 1 then
    for s = 0 to Pmfs.shard_count fs - 1 do
      if not t.stop then begin
        match Health.shard_state health s with
        | Health.Degraded _
          when Health.repair_attempts health s < t.cfg.max_attempts ->
          repair_shard t s
        | Health.Quarantined _ ->
          (* A previous pass quarantined but could not drain; try again. *)
          repair_shard t s
        | _ -> ()
      end
    done
  else begin
    match Health.mount_state health with
    | Health.Degraded _
      when Health.mount_repair_attempts health < t.cfg.max_attempts ->
      repair_mount t
    | _ -> ()
  end

(* --- daemon lifecycle --- *)

let create ?(config = default_config) fs =
  {
    fs;
    cfg = config;
    cv = Condvar.create (Device.engine (Pmfs.device fs));
    stop = false;
    running = false;
    repairs_done = 0;
    repairs_failed = 0;
  }

(* Spawn the daemon (call from inside a simulation process). *)
let start t =
  if t.running then invalid_arg "Repair: daemon already running";
  t.running <- true;
  Proc.spawn ~name:"shard-repair" (fun () ->
      let rec loop () =
        if not t.stop then begin
          ignore
            (Condvar.wait_timeout t.cv
               ~timeout:t.cfg.interval_ns);
          if not t.stop then pass t;
          loop ()
        end
      in
      loop ())

(* Wake the daemon now (tests; foreground EIO handlers). *)
let kick t = ignore (Condvar.broadcast t.cv)

let stop t =
  if t.running then begin
    t.stop <- true;
    t.running <- false;
    ignore (Condvar.broadcast t.cv)
  end

(* One synchronous pass, for callers that want repair without the daemon
   (CLI, direct tests). Must run inside a simulation process. *)
let run_once ?(config = default_config) fs =
  let t = create ~config fs in
  pass t;
  (t.repairs_done, t.repairs_failed)
