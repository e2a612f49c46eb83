(* Directory entries, stored in the directory inode's data blocks.

   Fixed 64-byte dirents (one cacheline each, so a dirent update is exactly
   one undo-log entry pair):
     0..3   inode number (0 = free slot)
     4..5   name length
     6..61  name bytes (max 55)

   Lookups scan; creation reuses the first free slot or appends a fresh
   block. All mutations are journaled through the caller's transaction. *)

module Device = Hinfs_nvmm.Device
module Log = Hinfs_journal.Cacheline_log
module Stats = Hinfs_stats.Stats
module Errno = Hinfs_vfs.Errno

let dirent_size = 64
let max_name_len = 55

let mcat = Stats.Other

let dirents_per_block ctx = ctx.Fs_ctx.geo.Layout.block_size / dirent_size

let check_name name =
  let len = String.length name in
  if len = 0 || len > max_name_len then
    Errno.raise_error EINVAL "directory entry name %S too long (max %d)" name
      max_name_len

let dirent_addr ctx block slot =
  Fs_ctx.block_addr ctx block + (slot * dirent_size)

(* Live slot and name tests, read in place: a scan copies no dirent out.
   Cowfs shares these and {!scan}, so both substrates walk directories the
   same way. *)
let slot_ino device addr = Device.get_u32 device addr

let dirent_matches device ~addr name =
  slot_ino device addr <> 0
  && Device.get_u16 device (addr + 4) = String.length name
  && Device.equal_string device ~addr:(addr + 6) name

let read_dirent device addr =
  let ino = slot_ino device addr in
  if ino = 0 then None
  else begin
    let raw = Device.peek device ~addr ~len:dirent_size in
    Some (Bytes.sub_string raw 6 (Bytes.get_uint16_le raw 4), ino)
  end

(* Walk the dirent slots of [nblocks] file blocks in order ([lookup] maps a
   file block to its device block, [None] for a hole; [addr] gives a slot's
   byte address) until [f ~fblock ~block ~slot addr] returns true. Returns
   whether it stopped early. *)
let scan ~nblocks ~per_block ~lookup ~addr f =
  let rec block_loop fblock =
    fblock < nblocks
    &&
    match lookup fblock with
    | None -> block_loop (fblock + 1)
    | Some block ->
      let rec slot_loop slot =
        if slot >= per_block then block_loop (fblock + 1)
        else f ~fblock ~block ~slot (addr block slot) || slot_loop (slot + 1)
      in
      slot_loop 0
  in
  block_loop 0

(* Number of dirent blocks currently backing the directory. *)
let dir_blocks ctx ~dir =
  let size = Layout.Inode.size ctx.Fs_ctx.device ctx.Fs_ctx.geo dir in
  size / ctx.Fs_ctx.geo.Layout.block_size

let scan_dir ctx ~dir f =
  scan ~nblocks:(dir_blocks ctx ~dir) ~per_block:(dirents_per_block ctx)
    ~lookup:(fun fblock -> Block_tree.lookup ctx ~ino:dir ~fblock)
    ~addr:(dirent_addr ctx) f

let find ctx ~dir name =
  let device = ctx.Fs_ctx.device in
  let result = ref None in
  ignore
    (scan_dir ctx ~dir (fun ~fblock:_ ~block ~slot addr ->
         dirent_matches device ~addr name
         && begin
              result := Some (slot_ino device addr, block, slot);
              true
            end));
  !result

let lookup ctx ~dir name =
  match find ctx ~dir name with
  | Some (ino, _, _) -> Some ino
  | None -> None

let list ctx ~dir =
  let device = ctx.Fs_ctx.device in
  let acc = ref [] in
  ignore
    (scan_dir ctx ~dir (fun ~fblock:_ ~block:_ ~slot:_ addr ->
         Option.iter (fun e -> acc := e :: !acc) (read_dirent device addr);
         false));
  List.rev !acc

let entry_count ctx ~dir =
  let device = ctx.Fs_ctx.device in
  let n = ref 0 in
  ignore
    (scan_dir ctx ~dir (fun ~fblock:_ ~block:_ ~slot:_ addr ->
         if slot_ino device addr <> 0 then incr n;
         false));
  !n

let is_empty ctx ~dir = entry_count ctx ~dir = 0

(* First free slot among existing dirent blocks. *)
let find_free_slot ctx ~dir =
  let device = ctx.Fs_ctx.device in
  let result = ref None in
  ignore
    (scan_dir ctx ~dir (fun ~fblock:_ ~block ~slot addr ->
         slot_ino device addr = 0
         && begin
              result := Some (block, slot);
              true
            end));
  !result

(* All dirent mutations journal into the directory's home-shard log; the
   caller's [txn] must have been begun on that same log. *)
let write_dirent ctx txn ~dir ~block ~slot ~name ~ino =
  let addr = dirent_addr ctx block slot in
  Log.log (Fs_ctx.log_for ctx ~ino:dir) txn ~addr ~len:dirent_size;
  let raw = Bytes.make dirent_size '\000' in
  Bytes.set_int32_le raw 0 (Int32.of_int ino);
  Bytes.set_uint16_le raw 4 (String.length name);
  Bytes.blit_string name 0 raw 6 (String.length name);
  Device.set_bytes ctx.Fs_ctx.device ~cat:mcat ~addr raw

(* Insert an entry. Returns the NVMM blocks allocated for the directory by
   this call (a fresh dirent block plus any index nodes): they are only
   reachable once [txn] commits, so a caller that aborts the transaction
   must hand them back to the allocator. A failure *inside* [add] reclaims
   its own allocations before re-raising. *)
let add ctx txn ~dir name ~ino =
  check_name name;
  let device = ctx.Fs_ctx.device in
  let geo = ctx.Fs_ctx.geo in
  let allocated = ref [] in
  try
    let block, slot =
      match find_free_slot ctx ~dir with
      | Some (block, slot) -> (block, slot)
      | None ->
        (* Append a fresh dirent block: zero it persistently before it
           becomes reachable, then extend the directory size. *)
        let nblocks = dir_blocks ctx ~dir in
        let block, fresh, blocks =
          Block_tree.ensure ctx txn ~ino:dir ~fblock:nblocks
        in
        allocated := blocks;
        if fresh then begin
          Device.write_nt device ~cat:mcat
            ~addr:(Fs_ctx.block_addr ctx block)
            ~src:Device.zeros ~off:0 ~len:geo.Layout.block_size
        end;
        let inode_addr = Layout.Inode.addr geo dir in
        Log.log (Fs_ctx.log_for ctx ~ino:dir) txn ~addr:inode_addr ~len:40;
        Layout.Inode.set_size device ~cat:mcat geo dir
          ((nblocks + 1) * geo.Layout.block_size);
        Layout.Inode.set_blocks device ~cat:mcat geo dir
          (Layout.Inode.blocks device geo dir + if fresh then 1 else 0);
        (block, 0)
    in
    write_dirent ctx txn ~dir ~block ~slot ~name ~ino;
    !allocated
  with e ->
    List.iter (Fs_ctx.free_block ctx) !allocated;
    raise e

let remove ctx txn ~dir name =
  match find ctx ~dir name with
  | None -> Errno.raise_error ENOENT "no entry %S" name
  | Some (ino, block, slot) ->
    let addr = dirent_addr ctx block slot in
    Log.log (Fs_ctx.log_for ctx ~ino:dir) txn ~addr ~len:4;
    Device.set_u32 ctx.Fs_ctx.device ~cat:mcat addr 0;
    ino
