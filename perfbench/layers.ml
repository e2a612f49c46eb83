(* Per-layer attribution for the traced run.

   The [Obs] sink keeps every span, instant and gauge sample as an event.
   To keep memory flat over a long window, the benchmark drains the sink
   in short chunks: [drain] exports the chunk's events, folds them into
   the accumulators below and resets the sink. Spans of one process close
   in LIFO order, so a process's closed spans whose start is not earlier
   than a closing span's start are its direct children; that gives each
   span kind its self time on the foreground processes (the ones an op's
   latency is spent on). [srv.queue] is measured from the client's
   enqueue and so does not nest in the worker's timeline; it is summed on
   its own. *)

module Obs = Hinfs_obs.Obs
module Hist = Hinfs_obs.Hist
module Ojson = Hinfs_obs.Ojson

type gauge = { mutable n : int; mutable sum : float; mutable lo : int }

(* A process's closed spans not yet claimed by a parent, newest first. *)
type stack = { mutable items : (int64 * int) list; mutable len : int }

type t = {
  obs : Obs.t;
  foreground : int -> bool;
  kinds : (string, Obs.kind) Hashtbl.t;
  hists : (Obs.kind, Hist.t) Hashtbl.t; (* every process *)
  self_ns : (Obs.kind, int ref) Hashtbl.t; (* foreground self time *)
  fg_ns : (Obs.kind, int ref) Hashtbl.t; (* foreground whole spans *)
  pending : (int, stack) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  mutable window : bool;
  mutable switches : int;
  mutable mismatches : int;
  mutable dropped : int;
  mutable keep : int; (* Chrome-trace events still to keep *)
  mutable kept : Ojson.t list;
}

let create ?(keep = 0) obs ~foreground =
  let kinds = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace kinds (Obs.kind_name k) k) Obs.all_kinds;
  {
    obs;
    foreground;
    kinds;
    hists = Hashtbl.create 64;
    self_ns = Hashtbl.create 64;
    fg_ns = Hashtbl.create 64;
    pending = Hashtbl.create 64;
    gauges = Hashtbl.create 32;
    window = false;
    switches = 0;
    mismatches = 0;
    dropped = 0;
    keep;
    kept = [];
  }

let bump tbl k n =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl k (ref n)

let field name = function
  | Ojson.Obj fields -> List.assoc_opt name fields
  | _ -> None

let num name ev =
  match Option.bind (field name ev) Ojson.to_float with
  | Some f -> f
  | None -> 0.0

let ns_of_us us = Int64.of_float (Float.round (us *. 1000.0))

(* Direct children of a span closing at [t0]: the pid's pending spans that
   started no earlier. Returns their total duration. *)
let claim_children t pid t0 dur =
  let st =
    match Hashtbl.find_opt t.pending pid with
    | Some st -> st
    | None ->
      let st = { items = []; len = 0 } in
      Hashtbl.replace t.pending pid st;
      st
  in
  let rec pop acc = function
    | (c0, cdur) :: rest when Int64.compare c0 t0 >= 0 ->
      st.len <- st.len - 1;
      pop (acc + cdur) rest
    | rest -> (acc, rest)
  in
  let children, rest = pop 0 st.items in
  st.items <- (t0, dur) :: rest;
  st.len <- st.len + 1;
  children

(* Top-level spans are never claimed. An open span has far fewer direct
   children than [keep], so dropping the oldest beyond it loses none. *)
let prune t =
  let keep = 4096 in
  Hashtbl.iter
    (fun _ st ->
      if st.len > 2 * keep then begin
        st.items <- List.filteri (fun i _ -> i < keep) st.items;
        st.len <- keep
      end)
    t.pending

let span t kind pid t0 dur =
  match kind with
  | Obs.Srv_queue -> if t.window then bump t.fg_ns kind dur
  | Obs.Req_lookup | Req_getattr | Req_read | Req_write | Req_create
  | Req_remove | Req_rename | Req_commit ->
    () (* client-side request spans: the end-to-end figure itself *)
  | _ ->
    let children = claim_children t pid t0 dur in
    if t.window && t.foreground pid then begin
      bump t.self_ns kind (dur - children);
      bump t.fg_ns kind dur
    end

let record_event t ev =
  match Option.bind (field "ph" ev) Ojson.to_str with
  | Some "X" -> (
    let name = Option.value ~default:"" (Option.bind (field "name" ev) Ojson.to_str) in
    match Hashtbl.find_opt t.kinds name with
    | None -> ()
    | Some kind ->
      let pid = Option.value ~default:0 (Option.bind (field "tid" ev) Ojson.to_int) in
      let t0 = ns_of_us (num "ts" ev) in
      let dur = Int64.to_int (ns_of_us (num "dur" ev)) in
      if t.window then begin
        let h =
          match Hashtbl.find_opt t.hists kind with
          | Some h -> h
          | None ->
            let h = Hist.create () in
            Hashtbl.replace t.hists kind h;
            h
        in
        Hist.record h dur
      end;
      span t kind pid t0 dur)
  | Some "C" when t.window ->
    let name = Option.value ~default:"" (Option.bind (field "name" ev) Ojson.to_str) in
    let v =
      Option.value ~default:0
        (Option.bind (Option.bind (field "args" ev) (field "value")) Ojson.to_int)
    in
    let g =
      match Hashtbl.find_opt t.gauges name with
      | Some g -> g
      | None ->
        let g = { n = 0; sum = 0.0; lo = max_int } in
        Hashtbl.replace t.gauges name g;
        g
    in
    g.n <- g.n + 1;
    g.sum <- g.sum +. float_of_int v;
    g.lo <- min g.lo v
  | _ -> ()

(* Fold the sink's events into the accumulators and clear it. *)
let drain t =
  let events =
    match field "traceEvents" (Obs.chrome_trace t.obs) with
    | Some (Ojson.List evs) -> evs
    | _ -> []
  in
  List.iter
    (fun ev ->
      record_event t ev;
      if t.window && t.keep > 0 && field "ph" ev <> Some (Ojson.String "M")
      then begin
        t.keep <- t.keep - 1;
        t.kept <- ev :: t.kept
      end)
    events;
  if t.window then begin
    t.switches <- t.switches + Obs.context_switches t.obs;
    t.mismatches <- t.mismatches + Obs.mismatches t.obs;
    t.dropped <- t.dropped + Obs.dropped_events t.obs
  end;
  prune t;
  Obs.reset t.obs

(* --- readers --- *)

let summary t kind =
  match Hashtbl.find_opt t.hists kind with
  | Some h -> Hist.summarize h
  | None -> Hist.summarize (Hist.create ())

let self t kind = match Hashtbl.find_opt t.self_ns kind with Some r -> !r | None -> 0
let fg_total t kind = match Hashtbl.find_opt t.fg_ns kind with Some r -> !r | None -> 0

(* Mean and minimum of every sampled gauge whose name satisfies [pick]. *)
let gauge_mean t pick =
  Hashtbl.fold
    (fun name g acc -> if pick name && g.n > 0 then acc +. (g.sum /. float_of_int g.n) else acc)
    t.gauges 0.0

let gauge_min t pick =
  Hashtbl.fold
    (fun name g acc -> if pick name && g.n > 0 then min acc g.lo else acc)
    t.gauges max_int

(* Parts of the foreground time, in ns summed over the window. Every
   span kind lands in exactly one part. *)
let parts t =
  let part_of = function
    | Obs.Srv_queue -> "queue"
    | Srv_decode | Srv_encode -> "codec"
    | Srv_flush -> "srv_flush"
    | Journal_commit -> "journal"
    | Writeback -> "writeback"
    | Buffer_fetch -> "fetch"
    | Flush -> "flush"
    | Fence -> "fence"
    | Slot_wait -> "slot_wait"
    | Op_open | Op_close | Op_read | Op_write | Op_fsync | Op_seek | Op_mkdir
    | Op_rmdir | Op_unlink | Op_rename | Op_readdir | Op_stat | Op_exists
    | Op_truncate | Op_mmap | Op_munmap | Op_msync | Op_sync_all | Op_unmount ->
      "vfs"
    | _ -> "other"
  in
  let names =
    [ "queue"; "codec"; "vfs"; "srv_flush"; "journal"; "writeback"; "fetch";
      "flush"; "fence"; "slot_wait"; "other" ]
  in
  let sums = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace sums n 0) names;
  List.iter
    (fun k ->
      let ns = if k = Obs.Srv_queue then fg_total t k else self t k in
      let p = part_of k in
      Hashtbl.replace sums p (Hashtbl.find sums p + ns))
    Obs.all_kinds;
  List.map (fun n -> (n, Hashtbl.find sums n)) names

let chrome_events t = List.rev t.kept
