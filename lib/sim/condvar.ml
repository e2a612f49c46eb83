(* Condition variable for simulation processes.

   The writeback daemons sleep on one of these: they are woken either by a
   low-watermark signal from the allocation path or by their own periodic
   timer, whichever fires first (wait_timeout). *)

type outcome = Signaled | Timed_out

type t = {
  engine : Engine.t;
  waiters : outcome Engine.waker Queue.t;
}

let create engine = { engine; waiters = Queue.create () }

let waiting t =
  Queue.fold
    (fun acc w -> if Engine.is_fired w then acc else acc + 1)
    0 t.waiters

let wait t =
  match Proc.suspend (fun w -> Queue.add w t.waiters) with
  | Signaled -> ()
  | Timed_out -> assert false

let wait_timeout t ~timeout =
  if timeout <= 0 then Timed_out
  else
    Proc.suspend (fun w ->
        Queue.add w t.waiters;
        Engine.after t.engine timeout (fun () ->
            ignore (Engine.wake w Timed_out)))

(* Pop waiters until one is actually woken (skipping those that already
   timed out). Returns true if a live waiter was signaled. *)
let signal t =
  let rec loop () =
    match Queue.take_opt t.waiters with
    | None -> false
    | Some w -> if Engine.wake w Signaled then true else loop ()
  in
  loop ()

let broadcast t =
  let n = ref 0 in
  let rec loop () =
    match Queue.take_opt t.waiters with
    | None -> ()
    | Some w ->
      if Engine.wake w Signaled then incr n;
      loop ()
  in
  loop ();
  !n
