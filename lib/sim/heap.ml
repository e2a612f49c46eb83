(* Binary min-heap of timestamped events.

   Keys are (time, seq) pairs; [seq] is a strictly increasing sequence number
   assigned at insertion so that events scheduled for the same virtual time
   fire in FIFO order — this is what makes the whole simulation
   deterministic. *)

type 'a entry = { time : int64; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
}

let create () = { data = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let lt a b =
  match Int64.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < t.size && lt t.data.(left) t.data.(!smallest) then smallest := left;
  if right < t.size && lt t.data.(right) t.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let capacity = Array.length t.data in
  if t.size >= capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    (* The dummy element is never observed: every slot below [size] is
       overwritten before being read. *)
    let dummy = t.data.(0) in
    let data = Array.make new_capacity dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let add t ~time ~seq payload =
  let entry = { time; seq; payload } in
  if Array.length t.data = 0 then t.data <- Array.make 16 entry else grow t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* [top] and [pop] return the entry itself, not an option: the engine pops
   once per event and tests [is_empty] first, so the hot path allocates
   nothing. *)
let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.data.(0)

let pop t =
  let top = top t in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  top
