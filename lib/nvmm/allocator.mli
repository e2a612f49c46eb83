(** DRAM-resident block allocator over a device region (PMFS keeps its free
    lists volatile and rebuilds them at mount; so do we). *)

type t

(** Where {!alloc} looks first. *)
type placement =
  | Lowest_first  (** the lowest free block, as PMFS's [pmfs_new_block] *)
  | Next_fit  (** the next free block after the last one handed out *)

val create : placement:placement -> first_block:int -> count:int -> t
val capacity : t -> int
val free_blocks : t -> int
val used_blocks : t -> int
val contains : t -> int -> bool
val is_allocated : t -> int -> bool

val alloc : t -> int option
(** Allocate one block; returns its absolute block number. *)

val free : t -> int -> unit
(** @raise Invalid_argument on double free or out-of-region block. *)

val mark_allocated : t -> int -> unit
(** Used when rebuilding allocation state during recovery. *)

val set_fault_injector : t -> (unit -> bool) option -> unit
(** Operation-level fault hook, polled once per {!alloc}: when it
    returns [true] the allocation fails ([None]) exactly as exhaustion
    would. Used by {!Faultops} to force ENOSPC / out-of-inodes
    mid-transaction. *)

val reset : t -> unit
