(* The [serve] workload's client fleet: [Clients]' request mix in a
   closed loop that runs until a virtual deadline instead of for a fixed
   request count, timing every [Server.rpc] from the client side.

   Failure accounting lives here because [Clients] discards replies: an
   error or expired-session reply counts as a failed request, and a fresh
   LOOKUP after ESTALE is counted as a re-lookup. Each client also keeps
   the fill byte of its last acknowledged write per block of its private
   file, which [check_own] compares with the file after remount. *)

module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine
module Rng = Hinfs_sim.Rng
module Zipf = Hinfs_sim.Zipf
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Server = Hinfs_server.Server
module Clients = Hinfs_server.Clients
module Wire = Hinfs_server.Wire

type meter = {
  engine : Engine.t;
  all : Samples.t;
  read : Samples.t;
  write : Samples.t;
  sync : Samples.t; (* COMMIT and stable WRITE *)
  mutable window : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable err_replies : int;
  mutable expired_replies : int;
  mutable estale_relookups : int;
  mutable keep_spans : int;
  mutable spans : Probe.span list;
  mutable next_id : int;
}

let meter ?(keep_spans = 0) engine =
  {
    engine;
    all = Samples.create ();
    read = Samples.create ();
    write = Samples.create ();
    sync = Samples.create ();
    window = false;
    attempted = 0;
    failed = 0;
    err_replies = 0;
    expired_replies = 0;
    estale_relookups = 0;
    keep_spans;
    spans = [];
    next_id = 0;
  }

type client = {
  idx : int;
  mutable sid : int;
  rng : Rng.t;
  fhs : (string, Wire.fh) Hashtbl.t;
  mutable writes : int;
  mutable flip : bool;
  mutable live : bool;
  acked : (int, char) Hashtbl.t; (* block of the private file -> fill *)
}

let rpc m srv c req =
  let t0 = Proc.now () in
  m.next_id <- m.next_id + 1;
  let reply = Server.rpc srv ~sid:c.sid req in
  if m.window then begin
    let t1 = Proc.now () in
    let ns = Int64.to_int (Int64.sub t1 t0) in
    Samples.add m.all ns;
    (match req with
    | Wire.Read _ -> Samples.add m.read ns
    | Wire.Write (_, _, _, stable) ->
      Samples.add m.write ns;
      if stable then Samples.add m.sync ns
    | Wire.Commit _ -> Samples.add m.sync ns
    | _ -> ());
    m.attempted <- m.attempted + 1;
    (match reply with
    | Wire.R_err _ ->
      m.failed <- m.failed + 1;
      m.err_replies <- m.err_replies + 1
    | Wire.R_expired ->
      m.failed <- m.failed + 1;
      m.expired_replies <- m.expired_replies + 1
    | _ -> ());
    if m.keep_spans > 0 then begin
      m.keep_spans <- m.keep_spans - 1;
      m.spans <-
        {
          Probe.name = Hinfs_obs.Obs.kind_name (Wire.kind_of_req req);
          pid = Engine.current_pid m.engine;
          id = m.next_id;
          t0;
          t1;
        }
        :: m.spans
    end
  end;
  reply

(* An expired lease is re-established and the request retried. *)
let rec rpc_sess m srv c req attempts =
  match rpc m srv c req with
  | Wire.R_expired when attempts > 0 ->
    c.sid <- Server.establish srv;
    rpc_sess m srv c req (attempts - 1)
  | reply -> reply

let lookup_fh m srv c path =
  match Hashtbl.find_opt c.fhs path with
  | Some fh -> Some fh
  | None -> (
    match rpc_sess m srv c (Wire.Lookup path) 3 with
    | Wire.R_handle (fh, _) ->
      Hashtbl.replace c.fhs path fh;
      Some fh
    | _ -> None)

(* A handle-based request; ESTALE drops the cached handle and looks the
   path up again. *)
let rec with_fh m srv c path f attempts =
  match lookup_fh m srv c path with
  | None -> ()
  | Some fh -> (
    match f fh with
    | Wire.R_err Errno.ESTALE when attempts > 0 ->
      if m.window then m.estale_relookups <- m.estale_relookups + 1;
      Hashtbl.remove c.fhs path;
      with_fh m srv c path f (attempts - 1)
    | _ -> ())

let fill c = Char.chr (97 + ((c.idx + c.writes) mod 26))

let read_hot m srv c cfg zipf =
  let path = Clients.hot_path cfg (Zipf.sample zipf c.rng) in
  let off = Rng.int c.rng (cfg.Clients.io_bytes + 1) in
  with_fh m srv c path
    (fun fh -> rpc_sess m srv c (Wire.Read (fh, off, cfg.Clients.io_bytes)) 3)
    2

let write_own m srv c cfg =
  let io = cfg.Clients.io_bytes in
  c.writes <- c.writes + 1;
  let stable = c.writes mod cfg.Clients.stable_every = 0 in
  let off = c.writes * io mod cfg.Clients.file_span in
  let ch = fill c in
  with_fh m srv c (Clients.own_path cfg c.idx)
    (fun fh ->
      let reply = rpc_sess m srv c (Wire.Write (fh, off, String.make io ch, stable)) 3 in
      (match reply with
      | Wire.R_written (n, _) when n = io -> Hashtbl.replace c.acked (off / io) ch
      | _ -> ());
      reply)
    2

let getattr_hot m srv c cfg zipf =
  let path = Clients.hot_path cfg (Zipf.sample zipf c.rng) in
  with_fh m srv c path (fun fh -> rpc_sess m srv c (Wire.Getattr fh) 3) 2

let commit_own m srv c cfg =
  with_fh m srv c (Clients.own_path cfg c.idx)
    (fun fh -> rpc_sess m srv c (Wire.Commit fh) 3)
    2

(* Drop the handle cache, then remove or re-create the scratch file. *)
let churn m srv c cfg =
  Hashtbl.reset c.fhs;
  let p = Clients.scratch_path cfg c.idx c.flip in
  if c.live then begin
    ignore (rpc_sess m srv c (Wire.Remove p) 3);
    c.live <- false
  end
  else begin
    ignore (rpc_sess m srv c (Wire.Create p) 3);
    c.live <- true
  end

let rename_scratch m srv c cfg =
  if c.live then begin
    let src = Clients.scratch_path cfg c.idx c.flip in
    let dst = Clients.scratch_path cfg c.idx (not c.flip) in
    match rpc_sess m srv c (Wire.Rename (src, dst)) 3 with
    | Wire.R_ok _ ->
      c.flip <- not c.flip;
      Hashtbl.remove c.fhs src
    | _ -> ()
  end
  else commit_own m srv c cfg

(* The mix of [Clients.client_loop], repeated until [deadline]. *)
let client_loop m srv cfg zipf c ~deadline =
  let own = Clients.own_path cfg c.idx in
  (match rpc_sess m srv c (Wire.Create own) 3 with
  | Wire.R_handle (fh, _) -> Hashtbl.replace c.fhs own fh
  | _ -> ());
  while Int64.compare (Proc.now ()) deadline < 0 do
    let r = Rng.float c.rng in
    if r < 0.55 then read_hot m srv c cfg zipf
    else if r < 0.80 then write_own m srv c cfg
    else if r < 0.88 then getattr_hot m srv c cfg zipf
    else if r < 0.93 then commit_own m srv c cfg
    else if r < 0.97 then churn m srv c cfg
    else rename_scratch m srv c cfg;
    Proc.delay_int (Rng.int_in_range c.rng ~lo:200 ~hi:2000)
  done

(* Each client's RNG is seeded with the next output of one generator
   seeded by the run's seed. [Clients.run] seeds client i with
   seed + (i+1) * the splitmix increment, so client i's stream is client
   0's shifted by i draws; two clients whose positions meet then issue
   the same calls from then on, the fleet moves in lockstep groups and
   throughput follows the seed (1.14M-1.34M req/s over five seeds,
   against 1.25M-1.26M seeded this way). *)
let client seeds i =
  {
    idx = i;
    sid = 0;
    rng = Rng.create ~seed:(Rng.next_int64 seeds);
    fhs = Hashtbl.create 16;
    writes = 0;
    flip = false;
    live = false;
    acked = Hashtbl.create 16;
  }

(* Spawn the fleet; [on_done] runs once every client has passed the
   deadline and received its last reply. *)
let spawn m srv cfg ~deadline ~on_done =
  let zipf = Zipf.create ~n:cfg.Clients.hot_files ~theta:cfg.Clients.theta in
  let remaining = ref cfg.Clients.clients in
  let seeds = Rng.create ~seed:cfg.Clients.seed in
  let clients = Array.init cfg.Clients.clients (client seeds) in
  Array.iter
    (fun c ->
      Proc.spawn ~name:(Printf.sprintf "client%d" c.idx) (fun () ->
          c.sid <- Server.establish srv;
          client_loop m srv cfg zipf c ~deadline;
          decr remaining;
          if !remaining = 0 then on_done ()))
    clients;
  clients

(* The private file on [h] must hold exactly the acknowledged writes:
   each acknowledged block its last fill byte, every other block zeros. *)
let check_own (h : Vfs.handle) cfg c =
  let io = cfg.Clients.io_bytes in
  let path = Clients.own_path cfg c.idx in
  let blocks = Hashtbl.fold (fun k _ acc -> max acc (k + 1)) c.acked 0 in
  match h.Vfs.open_ path Types.rdonly with
  | exception Errno.Fs_error _ -> Some (Printf.sprintf "%s missing after remount" path)
  | fd ->
    let size = (h.Vfs.fstat fd).Types.size in
    let buf = Bytes.create io in
    let rec blk k =
      if k >= blocks then None
      else begin
        let n = h.Vfs.pread fd ~off:(k * io) buf io in
        let want = Option.value ~default:'\000' (Hashtbl.find_opt c.acked k) in
        if n <> io || not (Bytes.for_all (fun b -> b = want) buf) then
          Some (Printf.sprintf "%s block %d does not hold its acknowledged write" path k)
        else blk (k + 1)
      end
    in
    let verdict =
      if size <> blocks * io then
        Some (Printf.sprintf "%s has %d bytes, acknowledged writes cover %d" path size (blocks * io))
      else blk 0
    in
    h.Vfs.close fd;
    verdict
