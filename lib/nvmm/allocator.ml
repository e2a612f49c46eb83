(* Block allocator over a region of the device.

   Allocation state lives in DRAM, as in PMFS: the kernel module keeps its
   free lists volatile and rebuilds them at mount time by walking the inode
   trees, so there is nothing to persist here.

   One search serves both placements: take the first clear bit at or after
   [hint], else wrap round to the start. [alloc] moves [hint] past the
   block it takes. Under [Lowest_first] every bit below [hint] is set
   ([free] pulls it back), so the search finds the lowest free block, as
   PMFS's [pmfs_new_block] does with its sorted free list. Under
   [Next_fit] [free] leaves it alone, and the search sweeps on round the
   region before it reuses a freed block. *)

type placement = Lowest_first | Next_fit

type t = {
  placement : placement;
  first_block : int;
  count : int;
  used : Hinfs_structures.Bitmap.t;
  mutable hint : int; (* search start, relative index *)
  mutable injector : (unit -> bool) option;
      (* operation-level fault hook: [true] = fail this allocation *)
}

module Bitmap = Hinfs_structures.Bitmap

let create ~placement ~first_block ~count =
  if first_block < 0 || count <= 0 then
    invalid_arg "Allocator.create: bad region";
  {
    placement;
    first_block;
    count;
    used = Bitmap.create count;
    hint = 0;
    injector = None;
  }

let set_fault_injector t f = t.injector <- f

(* Injected failures look exactly like exhaustion (alloc returns [None]),
   so callers exercise their genuine ENOSPC paths. *)
let injected_failure t =
  match t.injector with None -> false | Some f -> f ()

let capacity t = t.count
let free_blocks t = Bitmap.count_clear t.used
let used_blocks t = Bitmap.count_set t.used

let contains t block =
  block >= t.first_block && block < t.first_block + t.count

let is_allocated t block =
  if not (contains t block) then invalid_arg "Allocator: block out of region";
  Bitmap.get t.used (block - t.first_block)

let take t i =
  Bitmap.set t.used i;
  t.hint <- (if i + 1 >= t.count then 0 else i + 1);
  Some (t.first_block + i)

let alloc t =
  if injected_failure t then None
  else
  match Bitmap.find_first_clear ~from:t.hint t.used with
  | Some i -> take t i
  | None -> (
    match Bitmap.find_first_clear ~from:0 t.used with
    | Some i -> take t i
    | None -> None)

let free t block =
  if not (contains t block) then invalid_arg "Allocator.free: out of region";
  let i = block - t.first_block in
  if not (Bitmap.get t.used i) then
    invalid_arg "Allocator.free: double free";
  Bitmap.clear t.used i;
  match t.placement with
  | Lowest_first -> if i < t.hint then t.hint <- i
  | Next_fit -> ()

let mark_allocated t block =
  if not (contains t block) then
    invalid_arg "Allocator.mark_allocated: out of region";
  Bitmap.set t.used (block - t.first_block)

let reset t =
  Bitmap.clear_all t.used;
  t.hint <- 0
