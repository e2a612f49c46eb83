(** In-process API for simulation processes.

    These helpers perform the {!Engine} effects and are only meaningful when
    called from inside a process running under {!Engine.run}. Virtual time
    is an [int] of nanoseconds; {!now} and {!delay} are [int64] views of
    {!now_int} and {!delay_int}. *)

val now_int : unit -> int
(** Current virtual time (ns). *)

val delay_int : int -> unit
(** Sleep for the given number of virtual nanoseconds. [delay_int 0] and
    negative delays return immediately without yielding. *)

val now : unit -> int64
(** {!now_int} as an [int64]; allocates at most once per virtual instant. *)

val delay : int64 -> unit
(** {!delay_int} taking an [int64].
    @raise Invalid_argument if the delay exceeds [max_int] ns. *)

val yield : unit -> unit
(** Give other processes scheduled at the current time a chance to run. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a child process at the current virtual time. *)

val suspend : ('a Engine.waker -> unit) -> 'a
(** Block the current process. [register] receives a one-shot waker; the
    process resumes with the value passed to {!Engine.wake}. *)
