(* In-process API: helpers performing the engine's effects. Only valid while
   running inside a process spawned on an {!Engine.t}. *)

let now_int = Engine.process_now
let now = Engine.process_now64
let delay_int = Engine.delay

(* [Int64.to_int] would wrap a delay past the [int] clock's range to a
   negative, which [delay_int] ignores; refuse it instead. *)
let delay ns =
  if Int64.compare ns 0L > 0 then begin
    if Int64.compare ns (Int64.of_int max_int) > 0 then
      invalid_arg "Proc.delay: delay beyond the virtual clock's range";
    delay_int (Int64.to_int ns)
  end

let yield = Engine.yield

let spawn ?(name = "process") f = Effect.perform (Engine.Spawn (name, f))

let suspend register = Effect.perform (Engine.Suspend register)
