(** The DRAM write buffer pool (paper §3.2): a fixed population of 4 KB
    DRAM blocks on a free stack and a global LRW (Least Recently Written)
    list. A block's [data] is allocated when {!alloc} first binds it.
    Each block carries its Cacheline Bitmaps:

    - [present]: lines holding valid data in DRAM;
    - [dirty]: lines awaiting writeback (subset of [present]);
    - [home_valid]: lines of the NVMM home block known to hold valid data
      (all set when the home pre-existed; completed at first writeback). *)

type block = {
  id : int;
  mutable data : Bytes.t;  (** empty until the block is first bound *)
  node : int Hinfs_structures.Dlist.node;
  mutable ino : int;
  mutable fblock : int;
  mutable home : int;  (** NVMM home block number *)
  mutable present : Clbitmap.t;
  mutable dirty : Clbitmap.t;
  mutable home_valid : Clbitmap.t;
  mutable last_written : int;
  mutable write_count : int;  (** writes since binding (for sampled LFU) *)
  mutable pinned : int;  (** foreground use / in-flight writeback *)
  mutable in_use : bool;
}

type t

val create : capacity:int -> block_size:int -> lines_per_block:int -> t
val capacity : t -> int
val free_count : t -> int
val used_count : t -> int
val free_fraction : t -> float
val block : t -> int -> block
val lines_per_block : t -> int

val alloc : t -> ino:int -> fblock:int -> home:int -> now:int -> block option
(** Take the most recently freed block and bind it; [None] when the pool
    is exhausted (the caller stalls on the writeback daemons). *)

val free : t -> block -> unit
(** @raise Invalid_argument if the block is pinned or not in use. *)

val touch_written : t -> ?policy:Hconfig.replacement -> block -> now:int -> unit
(** Record a write: moves the block to the MRW end under LRW. *)

val pick_victim : ?policy:Hconfig.replacement -> t -> block option
(** Victim selection: LRW/FIFO take the list head; sampled LFU evicts the
    least-frequently-written of the first unpinned candidates. *)

val iter_lrw : t -> (block -> unit) -> unit
(** From LRW to MRW; the callback must not free the visited block. *)

val lrw_ids : t -> int list
