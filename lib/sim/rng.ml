(* Deterministic pseudo-random number generator (splitmix64).

   Every workload generator owns its own Rng seeded from the experiment
   configuration, so runs are reproducible bit-for-bit regardless of how
   processes interleave.

   The state lives unboxed in 8 bytes and [mix] is inlined into every
   draw, so [int], [int_in_range], [bool] and [chance] allocate nothing;
   only [next_int64] boxes its result. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix t =
  let open Int64 in
  let z = add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = mix t

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (mix t) 11)

let[@inline] float t =
  (* 53 uniform bits scaled into [0, 1). *)
  float_of_int (bits53 t) /. 9007199254740992.0

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be > 0";
  (* Rejection-free for our purposes: modulo bias is negligible for the
     bounds used (all far below 2^53). *)
  bits53 t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (mix t) 1L = 1L

let chance t p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Marsaglia polar method would need caching; a simple Box-Muller transform
   keeps the generator stateless beyond the seed. *)
let gaussian t ~mean ~stddev =
  let u1 = max 1e-12 (float t) in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)
