(* Buffer Benefit Model and Eager-Persistent Write Checker state (§3.3.2).

   Each data block of a file carries a Lazy/Eager-Persistent state bit plus
   the counters the model needs:
   - N_cw: cacheline writes to the block since the previous sync;
   - the ghost-buffer dirty bitmap, whose population count is N_cf — the
     cacheline flushes the current sync would perform had every write been
     buffered (the ghost buffer keeps index metadata only, no data).

   At each synchronization covering the block, buffering was worthwhile iff

       N_cw * L_dram + N_cf * L_nvmm  <  N_cw * L_nvmm        (Inequality 1)

   If violated the block is set Eager-Persistent: subsequent asynchronous
   writes go straight to NVMM. The state decays back to Lazy when the
   file has not been synced for [eager_decay_ns] (checked lazily at write
   time against the file's last-sync time, as the paper does).

   Accuracy accounting (Fig. 6): a sync's prediction was accurate if the
   block's previous sync reached the same satisfied/violated verdict.

   Simplification (documented in DESIGN.md): the ghost buffer does not
   simulate background evictions, so N_cf is an upper bound — flushes that
   a background thread would have absorbed still count. This biases the
   model slightly toward Eager, which is the conservative direction for
   read consistency and barely matters for sync-heavy blocks. *)

type block_meta = {
  mutable eager : bool;
  mutable ncw : int;
  mutable ghost_dirty : Clbitmap.t;
  mutable prev_satisfied : bool option;
}

type file_model = {
  metas : (int, block_meta) Hashtbl.t; (* fblock -> meta *)
  mutable last_sync : int;
  mutable ever_synced : bool;
  mutable default_eager : bool;
      (* the file's most recent majority verdict, applied to blocks created
         after that sync. The paper initialises new blocks Lazy "before the
         arrival of their first synchronization operations" and thereafter
         decides "using the most recent synchronization information"; for
         append-dominated files (varmail, logs) every write targets a brand
         new block, so without this inheritance the checker could never
         route them direct. *)
  mutable mmap_pinned : bool; (* mmapped files stay Eager (§4.2) *)
}

let create_file_model () =
  {
    metas = Hashtbl.create 16;
    last_sync = 0;
    ever_synced = false;
    default_eager = false;
    mmap_pinned = false;
  }

let meta_of file fblock =
  match Hashtbl.find_opt file.metas fblock with
  | Some meta -> meta
  | None ->
    (* New blocks start Lazy-Persistent before the file's first sync
       (§3.3.2) and inherit the file's latest verdict afterwards. *)
    let meta =
      {
        eager = file.ever_synced && file.default_eager;
        ncw = 0;
        ghost_dirty = Clbitmap.empty;
        prev_satisfied = None;
      }
    in
    Hashtbl.replace file.metas fblock meta;
    meta

(* Record a (real or would-be) buffered write for the ghost buffer. *)
let record_write file fblock ~lines =
  let meta = meta_of file fblock in
  meta.ncw <- meta.ncw + Clbitmap.count lines;
  meta.ghost_dirty <- Clbitmap.union meta.ghost_dirty lines

(* The checker's verdict for an asynchronous write to [fblock] (case 2).
   Synchronous writes (case 1) are decided by the caller from the open
   flags / mount options. *)
let is_eager file fblock ~now ~eager_decay_ns =
  if file.mmap_pinned then true
  else begin
    let decayed =
      file.ever_synced
      && now - file.last_sync > eager_decay_ns
    in
    match Hashtbl.find_opt file.metas fblock with
    | None ->
      (* Unwritten-since-tracking block: the file's latest verdict,
         subject to the same decay. *)
      file.ever_synced && file.default_eager && not decayed
    | Some meta ->
      if not meta.eager then false
      else if decayed then begin
        (* Decay: no sync on this file for a while. *)
        meta.eager <- false;
        false
      end
      else meta.eager
  end

(* Re-evaluate every block covered by the current synchronization
   operation. Returns the number of blocks evaluated. *)
let on_sync file ~now ~l_dram ~l_nvmm ~stats =
  let evaluated = ref 0 in
  let violated = ref 0 in
  Hashtbl.iter
    (fun _fblock meta ->
      if meta.ncw > 0 then begin
        incr evaluated;
        let ncw = meta.ncw in
        let ncf = Clbitmap.count meta.ghost_dirty in
        let satisfied = (ncw * l_dram) + (ncf * l_nvmm) < ncw * l_nvmm in
        if not satisfied then incr violated;
        (match meta.prev_satisfied with
        | Some prev ->
          Hinfs_stats.Stats.bbm_prediction stats ~correct:(prev = satisfied)
        | None -> ());
        meta.prev_satisfied <- Some satisfied;
        meta.eager <- not satisfied;
        meta.ncw <- 0;
        meta.ghost_dirty <- Clbitmap.empty
      end)
    file.metas;
  if !evaluated > 0 then file.default_eager <- 2 * !violated > !evaluated;
  file.last_sync <- now;
  file.ever_synced <- true;
  !evaluated

let pin_mmap file = file.mmap_pinned <- true
let unpin_mmap file = file.mmap_pinned <- false
