(* Byte-addressable NVMM device with an explicit CPU-cache model.

   Two layers of state:
   - [chunks]: the NVMM medium itself; survives [crash]. See "the medium"
     below for its chunked, copy-on-write storage.
   - [overlay]: cachelines currently dirty in the (volatile) CPU cache.
     Ordinary stores ([write_cached], [set_u*]) land here and are lost on
     [crash] until [clflush]ed. Non-temporal stores ([write_nt]) bypass the
     cache and reach the medium directly, like movnti/clwb streaming copies
     (PMFS's copy_from_user_inatomic_nocache data path).

   Timing: loads cost DRAM speed (the paper assumes symmetric reads); every
   cacheline stored to the medium costs [nvmm_write_ns] and must hold one of
   the N_w bandwidth slots while it streams, reproducing the paper's
   bandwidth emulator. Waiting for a slot is charged to the caller's stats
   category, because that is exactly the foreground/background interference
   the paper discusses (§3.2.1). *)

(* Persistence-event recorder (off by default, zero cost when disabled).

   Under the x86 persistency model a store is volatile until its line is
   flushed, and a flush only becomes *ordered* at the next mfence: a crash
   may persist any subset of the not-yet-fenced line versions, while
   everything fenced is guaranteed on the medium. The recorder keeps, per
   cacheline, the set of contents the medium may legally hold at a crash:

   - [base]: the guaranteed content — last fenced version (or the medium
     content when the line first became pending);
   - [versions]: newer candidate contents, oldest first. A [clflush] pushes
     a flushed-but-unfenced version; a store in a *later epoch* than the
     previous store first snapshots the pre-store cached content (the old
     epoch's value could be evicted on its own); non-temporal stores push
     their post-store medium content (they reach the medium but are only
     ordered by the next fence).

   An [mfence] closes the epoch: every version up to the last *flushed* one
   becomes guaranteed (collapsed into [base]); unflushed cached content
   stays pending. The current dirty overlay line, when present, is always
   an additional candidate (spontaneous eviction). *)
module Record = struct
  type version = { content : Bytes.t; flushed : bool }

  type line = {
    mutable base : Bytes.t;
    mutable versions : version list; (* oldest first *)
    mutable store_epoch : int; (* epoch of last store while dirty; -1 clean *)
  }

  type t = {
    mutable epoch : int; (* fences seen since recording was enabled *)
    lines : (int, line) Hashtbl.t; (* cacheline index -> pending record *)
    mutable stores : int;
    mutable flushes : int;
    mutable fences : int;
    mutable on_fence : unit -> unit;
  }

  let create () =
    {
      epoch = 0;
      lines = Hashtbl.create 256;
      stores = 0;
      flushes = 0;
      fences = 0;
      on_fence = (fun () -> ());
    }
end

(* --- the medium ---

   The medium is an array of fixed 64 KB chunks. A chunk is either ours
   alone, and written in place, or shared read-only: with the zero chunk,
   with an [image], or with other devices built from one. The first store
   to a shared chunk copies it (copy-on-write), so [snapshot],
   [capture_crash_state], [of_snapshot] and [materialize_crash_image] share
   chunks instead of copying the medium.

   [create] allocates no chunk: every chunk starts shared with [zeros], so
   its first store copies [zeros] like any other shared chunk. The host
   holds only the chunks the model has written, 64 KB each (6,144 of them
   would cover 384 MB). *)

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

let zeros = Bytes.make chunk_size '\000'

(* Marks a chunk with no buffer of ours. *)
let no_buffer = Bytes.empty

(* A medium's content: its size and its chunks, all shared read-only. *)
type image = { im_size : int; im_chunks : Bytes.t array }

type t = {
  engine : Hinfs_sim.Engine.t;
  stats : Hinfs_stats.Stats.t;
  config : Config.t;
  chunks : Bytes.t array; (* chunk i holds [i * chunk_size, ...) *)
  mine : Bytes.t array;
      (* [chunks.(i)] when only this device holds it, else [no_buffer] *)
  overlay : (int, Bytes.t) Hashtbl.t; (* cacheline index -> line content *)
  dirty : Bytes.t; (* one bit per cacheline: set iff [overlay] holds it *)
  line_bits : int; (* log2 of the cacheline size, a power of two *)
  bandwidth : Hinfs_sim.Resource.t;
  mutable recorder : Record.t option;
  mutable fault : Fault.t option; (* media-fault model; None = perfect *)
}

(* One crash point: the guaranteed medium image plus, for every line whose
   persisted content is undecided, the list of legal candidate contents
   (index 0 is the guaranteed one). A concrete crash image picks one
   candidate per line independently. *)
type crash_state = {
  cs_label : string;
  cs_image : image; (* guaranteed medium content *)
  cs_line_size : int;
  cs_choices : (int * Bytes.t array) list; (* line idx (ascending) -> candidates *)
}

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Resource = Hinfs_sim.Resource
module Stats = Hinfs_stats.Stats
module Obs = Hinfs_obs.Obs

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* A device on [chunks], all shared until its first store to each. *)
let make engine stats config ~chunks =
  let ls = config.Config.cacheline_size in
  if ls > chunk_size then invalid_arg "Device: cacheline larger than a chunk";
  let lines = (config.Config.nvmm_size + ls - 1) / ls in
  {
    engine;
    stats;
    config;
    chunks;
    mine = Array.make (Array.length chunks) no_buffer;
    overlay = Hashtbl.create 4096;
    dirty = Bytes.make ((lines + 7) / 8) '\000';
    line_bits = log2 ls;
    bandwidth =
      Resource.create ~name:"nvmm-write-bandwidth"
        ~capacity:(Config.nw_slots config);
    recorder = None;
    fault = None;
  }

let create engine stats config =
  let config = Config.validate config in
  let n = (config.Config.nvmm_size + chunk_mask) lsr chunk_bits in
  make engine stats config ~chunks:(Array.make n zeros)

let config t = t.config
let size t = t.config.Config.nvmm_size
let stats t = t.stats
let engine t = t.engine
let bandwidth t = t.bandwidth

let line_size t = t.config.Config.cacheline_size

let check_range t ~addr ~len =
  if len < 0 then invalid_arg "Device: negative length";
  if addr < 0 || addr + len > size t then
    Fmt.invalid_arg "Device: range [%d, %d) out of bounds (size %d)" addr
      (addr + len) (size t)

(* --- medium access --- *)

(* Chunk [i], made ours to write in place: its first store copies the
   shared chunk, [zeros] included. *)
let own_chunk t i =
  let c = Bytes.copy t.chunks.(i) in
  t.chunks.(i) <- c;
  t.mine.(i) <- c;
  c

let[@inline] writable_chunk t i =
  let c = t.chunks.(i) in
  if c == t.mine.(i) then c else own_chunk t i

(* Copy medium [addr, addr + len) into [dst] at [off], chunk by chunk. *)
let blit_from_medium t ~addr dst ~off ~len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let o = a land chunk_mask in
    let n = Int.min (len - !pos) (chunk_size - o) in
    Bytes.blit t.chunks.(a lsr chunk_bits) o dst (off + !pos) n;
    pos := !pos + n
  done

(* Store [src] from [off] to medium [addr, addr + len), chunk by chunk. *)
let blit_to_medium t ~src ~off ~addr ~len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let o = a land chunk_mask in
    let n = Int.min (len - !pos) (chunk_size - o) in
    Bytes.blit src (off + !pos) (writable_chunk t (a lsr chunk_bits)) o n;
    pos := !pos + n
  done

(* A cacheline never straddles a chunk: both sizes are powers of two. *)
let medium_line t idx =
  let addr = idx lsl t.line_bits in
  Bytes.sub t.chunks.(addr lsr chunk_bits) (addr land chunk_mask) (line_size t)

(* Timed ops charge their virtual time to [cat] inline. A plain delay
   advances the clock by exactly its length, so [spend] adds [ns] without
   reading the clock; a wait for a bandwidth slot is measured instead. *)
let spend t cat ns =
  Proc.delay_int ns;
  Stats.add_time t.stats cat ns

(* Stream [lines] cachelines to the medium under one bandwidth slot. *)
let stream t lines =
  let t0 = Proc.now_int () in
  Resource.acquire t.bandwidth 1;
  Obs.span_since Obs.Slot_wait ~t0;
  match Proc.delay_int (lines * t.config.Config.nvmm_write_ns) with
  | () -> Resource.release t.bandwidth 1
  | exception e ->
    Resource.release t.bandwidth 1;
    raise e

(* --- volatile overlay helpers ---

   The [dirty] bitmap mirrors the key set of [overlay], so the common
   clean-line test is a bit test rather than a hash lookup. Every insertion
   and removal goes through [overlay_line] / [overlay_remove] (and [crash]
   clears both), which keeps the two in step. *)

let[@inline] is_dirty_line t idx =
  Char.code (Bytes.get t.dirty (idx lsr 3)) land (1 lsl (idx land 7)) <> 0

let set_dirty_bit t idx on =
  let byte = Char.code (Bytes.get t.dirty (idx lsr 3)) in
  let bit = 1 lsl (idx land 7) in
  Bytes.set t.dirty (idx lsr 3)
    (Char.unsafe_chr (if on then byte lor bit else byte land lnot bit))

let overlay_line t idx =
  if is_dirty_line t idx then Hashtbl.find t.overlay idx
  else begin
    let line = medium_line t idx in
    Hashtbl.replace t.overlay idx line;
    set_dirty_bit t idx true;
    line
  end

let overlay_remove t idx =
  Hashtbl.remove t.overlay idx;
  set_dirty_bit t idx false

let dirty_cachelines t = Hashtbl.length t.overlay

(* [buf] from [off] mirrors the device range [addr, addr + len). Copy the
   part of that range inside cacheline [idx] from [buf] into the cached
   [line] ([blit_to_line]), or from every dirty line into [buf]
   ([patch_dirty]). *)
let blit_to_line t idx line ~addr ~src ~off ~len =
  let line_start = idx * line_size t in
  let copy_start = Int.max addr line_start in
  let copy_end = Int.min (addr + len) (line_start + line_size t) in
  Bytes.blit src
    (off + copy_start - addr)
    line (copy_start - line_start)
    (copy_end - copy_start)

let patch_dirty t ~addr ~len ~into ~off =
  let ls = line_size t in
  for idx = addr / ls to (addr + len - 1) / ls do
    if is_dirty_line t idx then begin
      let line_start = idx * ls in
      let copy_start = Int.max addr line_start in
      let copy_end = Int.min (addr + len) (line_start + ls) in
      Bytes.blit (Hashtbl.find t.overlay idx) (copy_start - line_start) into
        (off + copy_start - addr)
        (copy_end - copy_start)
    end
  done

let dirty_line_addrs t =
  let ls = line_size t in
  Hashtbl.fold (fun idx _ acc -> (idx * ls) :: acc) t.overlay []
  |> List.sort compare

(* --- recorder hooks (no-ops when recording is disabled) --- *)

let record_line t (r : Record.t) idx =
  match Hashtbl.find_opt r.Record.lines idx with
  | Some rl -> rl
  | None ->
    let rl =
      { Record.base = medium_line t idx; versions = []; store_epoch = -1 }
    in
    Hashtbl.replace r.Record.lines idx rl;
    rl

(* Called BEFORE the store mutates the overlay line: if the line is dirty
   from an earlier epoch, the pre-store cached content is itself a legal
   crash candidate (it could have been evicted before this store). *)
let record_store t idx =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.stores <- r.Record.stores + 1;
    let rl = record_line t r idx in
    if
      is_dirty_line t idx
      && rl.Record.store_epoch >= 0
      && rl.Record.store_epoch < r.Record.epoch
    then
      rl.Record.versions <-
        rl.Record.versions
        @ [
            {
              Record.content = Bytes.copy (Hashtbl.find t.overlay idx);
              flushed = false;
            };
          ];
    rl.Record.store_epoch <- r.Record.epoch

(* Called with the dirty line content just before it is blitted to the
   medium: the flushed content is persistent-but-unordered until the next
   fence. *)
let record_flush t idx content =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.flushes <- r.Record.flushes + 1;
    let rl = record_line t r idx in
    rl.Record.versions <-
      rl.Record.versions
      @ [ { Record.content = Bytes.copy content; flushed = true } ];
    rl.Record.store_epoch <- -1

(* Non-temporal stores reach the medium directly but are only ordered by the
   next fence: record the pre-store medium content as base (if the line was
   not already pending) and the post-store medium line as a flushed
   candidate. [pre] runs before the blit, [post] after overlay merging. *)
let record_nt_pre t ~addr ~len =
  match t.recorder with
  | None -> ()
  | Some r ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      ignore (record_line t r idx)
    done

let record_nt_post t ~addr ~len =
  match t.recorder with
  | None -> ()
  | Some r ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      r.Record.stores <- r.Record.stores + 1;
      let rl = record_line t r idx in
      rl.Record.versions <-
        rl.Record.versions
        @ [
            {
              Record.content = medium_line t idx;
              flushed = true;
            };
          ];
      if not (is_dirty_line t idx) then rl.Record.store_epoch <- -1
    done

(* A fence makes every version through the last flushed one guaranteed.
   Unflushed cached content stays pending in the new epoch. *)
let record_fence_collapse (r : Record.t) dirty_line =
  r.Record.epoch <- r.Record.epoch + 1;
  let drop = ref [] in
  Hashtbl.iter
    (fun idx (rl : Record.line) ->
      let rec split acc base = function
        | [] -> (base, List.rev acc)
        | ({ Record.flushed; content } as v) :: rest ->
          if flushed then split [] (Some content) rest
          else split (v :: acc) base rest
      in
      (match split [] None rl.Record.versions with
      | None, _ -> ()
      | Some content, keep ->
        rl.Record.base <- content;
        rl.Record.versions <- keep);
      if rl.Record.versions = [] && not (dirty_line idx) then
        drop := idx :: !drop)
    r.Record.lines;
  List.iter (Hashtbl.remove r.Record.lines) !drop

let record_fence t =
  match t.recorder with
  | None -> ()
  | Some r ->
    r.Record.fences <- r.Record.fences + 1;
    (* The hook fires before the fence takes effect: a crash "at" the fence
       still sees every unfenced version as undecided. *)
    r.Record.on_fence ();
    record_fence_collapse r (is_dirty_line t)

(* Untimed raw stores (poke) and whole-overlay drops bypass the persistency
   model: forget any pending record for the covered lines. *)
let record_forget t ~addr ~len =
  match t.recorder with
  | None -> ()
  | Some r ->
    if len > 0 then begin
      let ls = line_size t in
      let first = addr / ls and last = (addr + len - 1) / ls in
      for idx = first to last do
        Hashtbl.remove r.Record.lines idx
      done
    end

(* --- media-fault hooks (no-ops when no fault model is attached) --- *)

(* Timed load of [addr, addr+len): lines dirty in the CPU cache are served
   from the cache and never touch the medium, so only clean lines can
   fault. Raises on the first faulting line, in address order, so a fixed
   seed and access sequence fault identically. *)
let fault_check_load t ~addr ~len =
  match t.fault with
  | None -> ()
  | Some f ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      if not (is_dirty_line t idx) then
        match Fault.check_load f idx with
        | None -> ()
        | Some kind ->
          let transient = kind = Fault.Transient in
          Stats.add_media_fault t.stats ~transient;
          raise (Fault.Media_error { addr = idx * ls; transient })
    done

(* A store that fully covers lines of the medium: heals poison, may draw
   store-time poison. Partially covered lines keep their fault state. *)
let fault_store_range t ~addr ~len =
  match t.fault with
  | None -> ()
  | Some f ->
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      let line_start = idx * ls in
      if addr <= line_start && line_start + ls <= addr + len then
        Fault.store_line f idx
    done

let fault_store_line t idx =
  match t.fault with None -> () | Some f -> Fault.store_line f idx

(* Untimed raw store (poke): reliable, heals fully covered lines. *)
let fault_heal_range t ~addr ~len =
  match t.fault with
  | None -> ()
  | Some f ->
    if len > 0 then begin
      let ls = line_size t in
      let first = addr / ls and last = (addr + len - 1) / ls in
      for idx = first to last do
        let line_start = idx * ls in
        if addr <= line_start && line_start + ls <= addr + len then
          Fault.heal_line f idx
      done
    end

let set_fault_model t f = t.fault <- f
let fault_model t = t.fault

(* Untimed poison inspection for scrub/fsck/recovery: byte addresses
   (ascending) of poisoned lines intersecting the range. *)
let verify_range t ~addr ~len =
  match t.fault with
  | None -> []
  | Some f ->
    if len <= 0 then []
    else begin
      check_range t ~addr ~len;
      let ls = line_size t in
      let first = addr / ls and last = (addr + len - 1) / ls in
      let acc = ref [] in
      for idx = last downto first do
        if Fault.is_poisoned f idx then acc := (idx * ls) :: !acc
      done;
      !acc
    end

(* --- timed data-path operations --- *)

let read t ~cat ~addr ~len ~into ~off =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length into then
    invalid_arg "Device.read: destination range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    spend t cat (lines * t.config.Config.dram_read_ns);
    (* The loads have happened: poisoned/transient-faulting lines machine-
       check here, after the access paid its latency. *)
    fault_check_load t ~addr ~len;
    blit_from_medium t ~addr into ~off ~len;
    patch_dirty t ~addr ~len ~into ~off;
    Stats.add_nvmm_read t.stats len
  end

let read_alloc t ~cat ~addr ~len =
  let buf = Bytes.create len in
  read t ~cat ~addr ~len ~into:buf ~off:0;
  buf

(* A store that reaches the medium directly invalidates any stale cached
   copy of the lines it covers (it fully bypasses the cache hierarchy).
   Partially covered lines must merge the new bytes into the cached copy
   instead. *)
let invalidate_cached t ~addr ~src ~off ~len =
  let ls = line_size t in
  let first = addr / ls and last = (addr + len - 1) / ls in
  for idx = first to last do
    if is_dirty_line t idx then begin
      let line_start = idx * ls in
      if addr <= line_start && line_start + ls <= addr + len then
        overlay_remove t idx
      else
        blit_to_line t idx (Hashtbl.find t.overlay idx) ~addr ~src ~off ~len
    end
  done

let write_nt ?(background = false) t ~cat ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.write_nt: source range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    let t0 = Proc.now_int () in
    stream t lines;
    Stats.add_time t.stats cat (Proc.now_int () - t0);
    record_nt_pre t ~addr ~len;
    blit_to_medium t ~src ~off ~addr ~len;
    invalidate_cached t ~addr ~src ~off ~len;
    record_nt_post t ~addr ~len;
    fault_store_range t ~addr ~len;
    Stats.add_nvmm_written t.stats ~background len
  end

let write_cached t ~cat ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if off < 0 || off + len > Bytes.length src then
    invalid_arg "Device.write_cached: source range out of bounds";
  if len > 0 then begin
    let lines = Config.cachelines_in t.config ~addr ~len in
    spend t cat (lines * t.config.Config.dram_write_ns);
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      record_store t idx;
      blit_to_line t idx (overlay_line t idx) ~addr ~src ~off ~len
    done
  end

(* The one place a cached line moves to the medium: records the flush event
   and writes the line back. Both [clflush] and [flush_all_untimed] go
   through here so timed and test-setup persistence cannot diverge. *)
let persist_line t idx =
  if is_dirty_line t idx then begin
    let line = Hashtbl.find t.overlay idx in
    record_flush t idx line;
    let addr = idx lsl t.line_bits in
    Bytes.blit line 0
      (writable_chunk t (addr lsr chunk_bits))
      (addr land chunk_mask) (line_size t);
    overlay_remove t idx;
    fault_store_line t idx
  end

(* Flush the dirty cachelines intersecting [addr, addr+len) to the medium.
   Clean lines only pay the instruction-issue cost. *)
let clflush ?(background = false) t ~cat ~addr ~len =
  check_range t ~addr ~len;
  if len > 0 then begin
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    let dirty = ref 0 in
    for idx = first to last do
      if is_dirty_line t idx then incr dirty
    done;
    let total_lines = last - first + 1 in
    Stats.add_clflush t.stats cat ~lines:total_lines ~dirty:!dirty;
    let t0 = Proc.now_int () in
    Proc.delay_int (total_lines * t.config.Config.clflush_issue_ns);
    if !dirty > 0 then stream t !dirty;
    Stats.add_time t.stats cat (Proc.now_int () - t0);
    Obs.span_since Obs.Flush ~t0;
    for idx = first to last do
      persist_line t idx
    done;
    if !dirty > 0 then
      Stats.add_nvmm_written t.stats ~background (!dirty * ls)
  end

let mfence t ~cat =
  Stats.add_mfence t.stats cat;
  let t0 = Proc.now_int () in
  spend t cat t.config.Config.mfence_ns;
  Obs.span_since Obs.Fence ~t0;
  record_fence t

(* --- small typed accessors (metadata fields) --- *)

(* Loads of metadata words are not individually timed: they are cache-hot
   DRAM-speed accesses whose cost the paper folds into "Others" (which we
   charge per syscall). Stores go through the cached-write path so that
   crash semantics remain exact. *)

let peek_persistent t ~addr ~len =
  check_range t ~addr ~len;
  let buf = Bytes.create len in
  blit_from_medium t ~addr buf ~off:0 ~len;
  buf

let peek t ~addr ~len =
  let buf = peek_persistent t ~addr ~len in
  if len > 0 then patch_dirty t ~addr ~len ~into:buf ~off:0;
  buf

(* Untimed raw store, for mkfs-time initialisation and tests. Writes the
   medium directly and drops any cached copy. *)
let poke t ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  record_forget t ~addr ~len;
  fault_heal_range t ~addr ~len;
  blit_to_medium t ~src ~off ~addr ~len;
  if len > 0 then begin
    let ls = line_size t in
    let first = addr / ls and last = (addr + len - 1) / ls in
    for idx = first to last do
      if is_dirty_line t idx then
        blit_to_line t idx (Hashtbl.find t.overlay idx) ~addr ~src ~off ~len
    done
  end

(* Untimed recorded store for recovery/repair paths. Like [poke] it is the
   reliable path — reaches the medium directly, heals fully covered poisoned
   lines, never draws new faults — but the persistence recorder sees it as a
   flushed-but-unfenced version (exactly a non-temporal store minus the
   timing), so crash enumeration *during* recovery observes what replay and
   scrub persist. Equivalent to [poke] when recording is off, except that
   pending records for the covered lines are kept, not forgotten. *)
let poke_flushed t ~addr ~src ~off ~len =
  check_range t ~addr ~len;
  if len > 0 then begin
    record_nt_pre t ~addr ~len;
    blit_to_medium t ~src ~off ~addr ~len;
    invalidate_cached t ~addr ~src ~off ~len;
    record_nt_post t ~addr ~len;
    fault_heal_range t ~addr ~len
  end

(* Untimed ordering point pairing with [poke_flushed]: fires the recorder's
   fence (running the on_fence hook, then collapsing flushed versions into
   the guaranteed base) without charging time or stats. No-op when recording
   is off. *)
let fence_untimed t = record_fence t

(* Scalar loads read in place from the dirty line or the medium. Only a
   field that straddles a cacheline, or lies out of range, takes the
   allocating [peek] path (which raises the range error). *)
let[@inline] load t addr n get =
  let ls = line_size t in
  let o = addr land (ls - 1) in
  if addr < 0 || addr + n > size t || o + n > ls then
    get (peek t ~addr ~len:n) 0
  else
    let idx = addr lsr t.line_bits in
    if is_dirty_line t idx then get (Hashtbl.find t.overlay idx) o
    else get t.chunks.(addr lsr chunk_bits) (addr land chunk_mask)

let get_u8 t addr = load t addr 1 Bytes.get_uint8
let get_u16 t addr = load t addr 2 Bytes.get_uint16_le

let get_u32 t addr =
  load t addr 4 (fun b o ->
      Int32.to_int (Bytes.get_int32_le b o) land 0xFFFFFFFF)

let get_u64 t addr = load t addr 8 Bytes.get_int64_le
let get_int t addr =
  load t addr 8 (fun b o -> Int64.to_int (Bytes.get_int64_le b o))

(* Coherent in-place comparison of [addr, addr + length s) with [s]. *)
let equal_string t ~addr s =
  let len = String.length s in
  check_range t ~addr ~len;
  let bits = t.line_bits in
  let i = ref 0 and equal = ref true in
  while !equal && !i < len do
    let idx = (addr + !i) lsr bits in
    let line_end = ((idx + 1) lsl bits) - addr in
    let stop = if line_end < len then line_end else len in
    let dirty = is_dirty_line t idx in
    let line_addr = idx lsl bits in
    let src =
      if dirty then Hashtbl.find t.overlay idx
      else t.chunks.(line_addr lsr chunk_bits)
    in
    let base = if dirty then line_addr else line_addr land lnot chunk_mask in
    let shift = addr - base in
    while !equal && !i < stop do
      if Bytes.unsafe_get src (shift + !i) <> String.unsafe_get s !i then
        equal := false;
      incr i
    done
  done;
  !equal

let set_bytes t ~cat ~addr bytes =
  write_cached t ~cat ~addr ~src:bytes ~off:0 ~len:(Bytes.length bytes)

let set_u8 t ~cat addr v =
  let b = Bytes.create 1 in
  Bytes.set_uint8 b 0 v;
  set_bytes t ~cat ~addr b

let set_u16 t ~cat addr v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 v;
  set_bytes t ~cat ~addr b

let set_u32 t ~cat addr v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  set_bytes t ~cat ~addr b

let set_u64 t ~cat addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  set_bytes t ~cat ~addr b

let set_int t ~cat addr v = set_u64 t ~cat addr (Int64.of_int v)

(* --- crash injection --- *)

let crash t =
  Hashtbl.reset t.overlay;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  match t.recorder with
  | None -> ()
  | Some r -> Hashtbl.reset r.Record.lines

(* The persistent medium (what a crash would leave), sharing our chunks:
   from now on both sides copy a chunk before they store to it. *)
let snapshot t =
  Array.iteri
    (fun i c -> if c == t.mine.(i) then t.mine.(i) <- no_buffer)
    t.chunks;
  { im_size = size t; im_chunks = Array.copy t.chunks }

(* A fresh device on an image's chunks: used by crash-consistency tests to
   mount and inspect the post-crash image while the pre-crash simulation
   keeps running. *)
let of_snapshot engine stats config image =
  let config = Config.validate config in
  if image.im_size <> config.Config.nvmm_size then
    invalid_arg "Device.of_snapshot: image size mismatch";
  make engine stats config ~chunks:(Array.copy image.im_chunks)

(* Content key: equal iff the images hold the same bytes. *)
let image_digest image =
  Array.to_list image.im_chunks
  |> List.mapi (fun i c ->
         Digest.subbytes c 0
           (Int.min chunk_size (image.im_size - (i lsl chunk_bits))))
  |> String.concat ""
  |> Digest.string

(* Test/setup helper: persist every dirty line through the same path as
   [clflush], then make the result guaranteed (flush-all acts as flush +
   fence, minus the timing and the fence hook). *)
let flush_all_untimed t =
  Hashtbl.fold (fun idx _ acc -> idx :: acc) t.overlay []
  |> List.sort compare
  |> List.iter (fun idx -> persist_line t idx);
  match t.recorder with
  | None -> ()
  | Some r -> record_fence_collapse r (fun _ -> false)

(* --- persistence-event recording & crash-state capture --- *)

let enable_recording t =
  flush_all_untimed t;
  t.recorder <- Some (Record.create ())

let disable_recording t = t.recorder <- None
let recording t = t.recorder <> None

let set_on_fence t f =
  match t.recorder with
  | None -> invalid_arg "Device.set_on_fence: recording disabled"
  | Some r -> r.Record.on_fence <- f

let recorded_events t =
  match t.recorder with
  | None -> (0, 0, 0)
  | Some r -> (r.Record.stores, r.Record.flushes, r.Record.fences)

(* Number of lines whose crash content is currently undecided. *)
let pending_choice_lines t =
  let recorded =
    match t.recorder with
    | None -> 0
    | Some r -> Hashtbl.length r.Record.lines
  in
  let dirty_unrecorded =
    Hashtbl.fold
      (fun idx _ acc ->
        match t.recorder with
        | Some r when Hashtbl.mem r.Record.lines idx -> acc
        | _ -> acc + 1)
      t.overlay 0
  in
  recorded + dirty_unrecorded

let dedup_candidates cands =
  List.fold_left
    (fun acc c -> if List.exists (Bytes.equal c) acc then acc else c :: acc)
    [] cands
  |> List.rev

(* Cap pathologically long candidate chains (many epochs of stores to one
   line with no flush): keep the guaranteed content plus the newest few. *)
let max_candidates = 8

let capture_crash_state ?(label = "crash") t =
  let ls = line_size t in
  let choice idx (rl : Record.line option) =
    let cands =
      match rl with
      | Some rl ->
        rl.Record.base
        :: List.map (fun v -> v.Record.content) rl.Record.versions
      | None -> [ medium_line t idx ]
    in
    let cands =
      match Hashtbl.find_opt t.overlay idx with
      | Some line -> cands @ [ Bytes.copy line ]
      | None -> cands
    in
    let cands = dedup_candidates cands in
    let cands =
      if List.length cands <= max_candidates then cands
      else
        List.hd cands
        :: (List.filteri
              (fun i _ -> i >= List.length cands - (max_candidates - 1))
              (List.tl cands))
    in
    match cands with
    | [] | [ _ ] -> None
    | _ -> Some (idx, Array.of_list cands)
  in
  let choices = ref [] in
  (match t.recorder with
  | None -> ()
  | Some r ->
    Hashtbl.iter
      (fun idx rl ->
        match choice idx (Some rl) with
        | None -> ()
        | Some c -> choices := c :: !choices)
      r.Record.lines);
  Hashtbl.iter
    (fun idx _ ->
      let recorded =
        match t.recorder with
        | Some r -> Hashtbl.mem r.Record.lines idx
        | None -> false
      in
      if not recorded then
        match choice idx None with
        | None -> ()
        | Some c -> choices := c :: !choices)
    t.overlay;
  {
    cs_label = label;
    cs_image = snapshot t;
    cs_line_size = ls;
    cs_choices = List.sort (fun (a, _) (b, _) -> compare a b) !choices;
  }

(* Concrete crash image: the guaranteed medium with [choice.(i)] picking
   the persisted candidate for the i-th undecided line. It shares the
   state's chunks, copying only those that hold an undecided line. *)
let materialize_crash_image state ~choice =
  let base = state.cs_image.im_chunks in
  let chunks = Array.copy base in
  let ls = state.cs_line_size in
  List.iteri
    (fun i (idx, cands) ->
      let line = cands.(choice.(i)) in
      let addr = idx * ls in
      let ci = addr lsr chunk_bits and o = addr land chunk_mask in
      if chunks.(ci) == base.(ci) then chunks.(ci) <- Bytes.copy base.(ci);
      Bytes.blit line 0 chunks.(ci) o ls)
    state.cs_choices;
  { state.cs_image with im_chunks = chunks }
