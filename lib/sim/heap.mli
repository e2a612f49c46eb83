(** Binary min-heap of timestamped events.

    Entries are ordered by [(time, seq)]: events with equal virtual times pop
    in insertion (FIFO) order, which keeps the simulation deterministic. *)

type 'a entry = { time : int64; seq : int; payload : 'a }

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:int64 -> seq:int -> 'a -> unit
(** [add t ~time ~seq payload] inserts an event. The caller is responsible
    for supplying strictly increasing [seq] values. *)

val top : 'a t -> 'a entry
(** Earliest entry without removing it.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> 'a entry
(** Remove and return the earliest entry.
    @raise Invalid_argument if the heap is empty. *)
