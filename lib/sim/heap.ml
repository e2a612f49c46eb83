(* Binary min-heap of timestamped events.

   Keys are (time, seq) pairs; [seq] is a strictly increasing sequence number
   assigned at insertion so that events scheduled for the same virtual time
   fire in FIFO order — this is what makes the whole simulation
   deterministic. The keys sit in two [int] arrays parallel to the payload
   array, so moving an entry copies three immediates and inserting one
   builds no record. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let[@inline] lt t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let swap t i j =
  let time = t.times.(i) and seq = t.seqs.(i) and payload = t.payloads.(i) in
  t.times.(i) <- t.times.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.payloads.(i) <- t.payloads.(j);
  t.times.(j) <- time;
  t.seqs.(j) <- seq;
  t.payloads.(j) <- payload

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = if left < t.size && lt t left i then left else i in
  let smallest =
    if right < t.size && lt t right smallest then right else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* Double the arrays when full. The payload array needs a filler value of
   its type; [payload] (the one being inserted) serves, and no slot at or
   above [size] is ever read. *)
let grow t payload =
  let capacity = Array.length t.times in
  if t.size >= capacity then begin
    let n = max 16 (2 * capacity) in
    let times = Array.make n 0 and seqs = Array.make n 0 in
    let payloads = Array.make n payload in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.payloads 0 payloads 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

let add t ~time ~seq payload =
  grow t payload;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload;
  t.size <- i + 1;
  sift_up t i

let check_nonempty t name = if t.size = 0 then invalid_arg name

let top_time t =
  check_nonempty t "Heap.top_time: empty heap";
  t.times.(0)

let pop t =
  check_nonempty t "Heap.pop: empty heap";
  let payload = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.payloads.(0) <- t.payloads.(last);
    sift_down t 0
  end;
  payload
