(** Binary min-heap of timestamped events.

    Entries are ordered by [(time, seq)]: events with equal virtual times pop
    in insertion (FIFO) order, which keeps the simulation deterministic.
    Keys live in unboxed [int] arrays beside the payloads, so an insertion
    allocates nothing once the arrays have grown. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:int -> seq:int -> 'a -> unit
(** [add t ~time ~seq payload] inserts an event. The caller is responsible
    for supplying strictly increasing [seq] values. *)

val top_time : 'a t -> int
(** Time of the earliest entry.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> 'a
(** Remove the earliest entry and return its payload; read {!top_time}
    first for its time.
    @raise Invalid_argument if the heap is empty. *)
