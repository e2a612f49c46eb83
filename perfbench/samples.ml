(* Every latency sample of a window, kept whole so that percentiles are
   exact order statistics rather than histogram bucket bounds. *)

type t = { mutable a : int array; mutable n : int; mutable sorted : bool }

let create () = { a = Array.make 4096 0; n = 0; sorted = true }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

(* Nearest-rank quantile; 0 when empty. *)
let quantile t q =
  if t.n = 0 then 0
  else begin
    if not t.sorted then begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      Array.blit s 0 t.a 0 t.n;
      t.sorted <- true
    end;
    let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
    t.a.(max 0 (min (t.n - 1) (rank - 1)))
  end
