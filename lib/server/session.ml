(* Client session table with lease expiry on the virtual clock.

   A session is a lease, nothing more: file handles are server-global and
   survive its death, so an expired client re-establishes and keeps using
   the handles it already holds. What expiry does reclaim is the server
   resources the session was pinning — the expiry callback (installed by
   the server) evicts that session's cached opens.

   Expiry is detected lazily on [touch] (the request path) and by the
   server's periodic sweeper, so an idle session's resources are
   reclaimed even with no traffic arriving for it. *)

module Proc = Hinfs_sim.Proc
module Obs = Hinfs_obs.Obs

type session = { sid : int; mutable expires_at : int }

type t = {
  lease_ns : int;
  sessions : (int, session) Hashtbl.t;
  mutable next_sid : int;
  mutable on_expire : int -> unit; (* sid of the lapsed session *)
  mutable expired_total : int;
}

let create ~lease_ns =
  {
    lease_ns;
    sessions = Hashtbl.create 64;
    next_sid = 1;
    on_expire = ignore;
    expired_total = 0;
  }

let on_expire t f = t.on_expire <- f
let live t = Hashtbl.length t.sessions
let expired_total t = t.expired_total
let lease_ns t = t.lease_ns

let establish t =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  Hashtbl.replace t.sessions sid
    { sid; expires_at = Proc.now_int () + t.lease_ns };
  sid

let expire t (s : session) =
  Hashtbl.remove t.sessions s.sid;
  t.expired_total <- t.expired_total + 1;
  t.on_expire s.sid

(* Request-path check: renews the lease when live, reports (and reclaims)
   a lapsed or unknown session so the server can answer R_expired. *)
let touch t sid =
  match Hashtbl.find_opt t.sessions sid with
  | None -> false
  | Some s ->
    if Proc.now_int () > s.expires_at then begin
      expire t s;
      false
    end
    else begin
      s.expires_at <- Proc.now_int () + t.lease_ns;
      true
    end

(* Periodic sweep from the server's reaper fiber. Returns how many
   sessions lapsed. *)
let sweep t =
  let now = Proc.now_int () in
  let lapsed =
    Hashtbl.fold
      (fun _ s acc -> if now > s.expires_at then s :: acc else acc)
      t.sessions []
    |> List.sort (fun a b -> compare a.sid b.sid)
  in
  List.iter (fun s -> expire t s) lapsed;
  List.length lapsed
