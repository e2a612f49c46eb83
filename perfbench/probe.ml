(* The benchmark's probe at the VFS boundary: a [Vfs.handle] whose every
   field times the call on the virtual clock, counts [Fs_error] before
   re-raising it, and checks each read against a model of the files'
   sizes and fill bytes.

   The model is exact because no two callers race on one path: filebench
   threads own disjoint files and every serve client owns its private
   files, while the shared hot set is read-only. *)

module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Proc = Hinfs_sim.Proc
module Engine = Hinfs_sim.Engine

type cls = Open | Close | Read | Write | Fsync | Unlink | Rename | Stat | Other

(* The classes reported as vfs.<class>.*; [Other] (mkdir, seek, truncate,
   sync_all) is timed and counted in the ops but not reported alone. *)
let classes = [ Open; Close; Read; Write; Fsync; Unlink; Rename; Stat ]

let cls_name = function
  | Open -> "open"
  | Close -> "close"
  | Read -> "read"
  | Write -> "write"
  | Fsync -> "fsync"
  | Unlink -> "unlink"
  | Rename -> "rename"
  | Stat -> "stat"
  | Other -> "other"

let cls_index = function
  | Open -> 0
  | Close -> 1
  | Read -> 2
  | Write -> 3
  | Fsync -> 4
  | Unlink -> 5
  | Rename -> 6
  | Stat -> 7
  | Other -> 8

(* One boundary span kept for the Chrome trace: the layer it crosses, the
   calling process and the call's own identifier. *)
type span = { name : string; pid : int; id : int; t0 : int64; t1 : int64 }

type file = {
  path : string;
  mutable pos : int;
  append : bool;
  mutable read_ns : int; (* all reads through this descriptor *)
}

type t = {
  engine : Engine.t;
  fill_ok : char -> bool;
  durable : cls -> creates:bool -> bool;
      (* calls the caller waits on for durability *)
  per_class : Samples.t array; (* measured window only *)
  all : Samples.t;
  sync : Samples.t;
  whole_reads : Samples.t; (* every read of one open file, summed *)
  mutable window : bool;
  mutable errors : int; (* Fs_error raised inside the window *)
  mutable calls : int; (* every call, any phase *)
  sizes : (string, int) Hashtbl.t;
  files : (Vfs.fd, file) Hashtbl.t;
  mutable check_failures : int;
  mutable first_failure : string option;
  mutable keep_spans : int; (* how many more spans to keep *)
  mutable spans : span list;
}

let create ?(keep_spans = 0) engine ~fill_ok ~durable =
  {
    engine;
    fill_ok;
    durable;
    per_class = Array.init 9 (fun _ -> Samples.create ());
    all = Samples.create ();
    sync = Samples.create ();
    whole_reads = Samples.create ();
    window = false;
    errors = 0;
    calls = 0;
    sizes = Hashtbl.create 8192;
    files = Hashtbl.create 256;
    check_failures = 0;
    first_failure = None;
    keep_spans;
    spans = [];
  }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.check_failures <- t.check_failures + 1;
      if t.first_failure = None then t.first_failure <- Some msg)
    fmt

let samples t c = t.per_class.(cls_index c)

(* Time [f ()] as one call of class [c]. Only calls that complete inside
   the measured window are sampled. *)
let timed ?(creates = false) t c f =
  let t0 = Proc.now () in
  t.calls <- t.calls + 1;
  let finish () =
    if t.window then begin
      let t1 = Proc.now () in
      let ns = Int64.to_int (Int64.sub t1 t0) in
      Samples.add t.per_class.(cls_index c) ns;
      Samples.add t.all ns;
      if t.durable c ~creates then Samples.add t.sync ns;
      if t.keep_spans > 0 then begin
        t.keep_spans <- t.keep_spans - 1;
        t.spans <-
          {
            name = "vfs." ^ cls_name c;
            pid = Engine.current_pid t.engine;
            id = t.calls;
            t0;
            t1;
          }
          :: t.spans
      end
    end
  in
  match f () with
  | v ->
    finish ();
    v
  | exception (Errno.Fs_error _ as e) ->
    if t.window then t.errors <- t.errors + 1;
    finish ();
    raise e

let size t path = Option.value ~default:0 (Hashtbl.find_opt t.sizes path)

let check_read t (file : file) ~pos buf len n =
  let expect = max 0 (min len (size t file.path - pos)) in
  if n <> expect then
    fail t "read of %s at %d returned %d bytes, expected %d" file.path pos n
      expect
  else begin
    (* A plain loop: the check runs inside the measured window and must
       not add to the host allocation it reports. *)
    let i = ref 0 in
    while !i < n && t.fill_ok (Bytes.get buf !i) do
      incr i
    done;
    if !i < n then
      fail t "read of %s at %d: byte %d is %C, not a fill byte" file.path pos
        (pos + !i) (Bytes.get buf !i)
  end

let note_write t path ~pos n =
  if n > 0 then Hashtbl.replace t.sizes path (max (size t path) (pos + n))

let wrap t (h : Vfs.handle) =
  let with_file fd f =
    match Hashtbl.find_opt t.files fd with
    | Some file -> f file
    | None -> ()
  in
  {
    h with
    Vfs.open_ =
      (fun path flags ->
        timed t Open ~creates:flags.Types.create (fun () ->
            let fd = h.Vfs.open_ path flags in
            if flags.Types.truncate || not (Hashtbl.mem t.sizes path) then
              Hashtbl.replace t.sizes path 0;
            Hashtbl.replace t.files fd
              { path; pos = 0; append = flags.Types.append; read_ns = 0 };
            fd));
    close =
      (fun fd ->
        timed t Close (fun () ->
            h.Vfs.close fd;
            with_file fd (fun file ->
                if t.window && file.read_ns > 0 then Samples.add t.whole_reads file.read_ns);
            Hashtbl.remove t.files fd));
    read =
      (fun fd buf len ->
        let t0 = Proc.now () in
        timed t Read (fun () ->
            let n = h.Vfs.read fd buf len in
            with_file fd (fun file ->
                check_read t file ~pos:file.pos buf len n;
                file.pos <- file.pos + n;
                file.read_ns <- file.read_ns + Int64.to_int (Int64.sub (Proc.now ()) t0));
            n));
    pread =
      (fun fd ~off buf len ->
        timed t Read (fun () ->
            let n = h.Vfs.pread fd ~off buf len in
            with_file fd (fun file -> check_read t file ~pos:off buf len n);
            n));
    write =
      (fun fd buf len ->
        timed t Write (fun () ->
            let n = h.Vfs.write fd buf len in
            with_file fd (fun file ->
                let pos = if file.append then size t file.path else file.pos in
                note_write t file.path ~pos n;
                file.pos <- pos + n);
            n));
    pwrite =
      (fun fd ~off buf len ->
        timed t Write (fun () ->
            let n = h.Vfs.pwrite fd ~off buf len in
            with_file fd (fun file -> note_write t file.path ~pos:off n);
            n));
    fsync = (fun fd -> timed t Fsync (fun () -> h.Vfs.fsync fd));
    fstat = (fun fd -> timed t Stat (fun () -> h.Vfs.fstat fd));
    stat = (fun path -> timed t Stat (fun () -> h.Vfs.stat path));
    exists = (fun path -> timed t Stat (fun () -> h.Vfs.exists path));
    unlink =
      (fun path ->
        timed t Unlink (fun () ->
            h.Vfs.unlink path;
            Hashtbl.remove t.sizes path));
    rename =
      (fun src dst ->
        timed t Rename (fun () ->
            h.Vfs.rename src dst;
            let n = size t src in
            Hashtbl.remove t.sizes src;
            Hashtbl.replace t.sizes dst n));
    mkdir = (fun path -> timed t Other (fun () -> h.Vfs.mkdir path));
    seek = (fun fd off -> timed t Other (fun () -> h.Vfs.seek fd off));
    truncate =
      (fun path n ->
        timed t Other (fun () ->
            h.Vfs.truncate path n;
            Hashtbl.replace t.sizes path n));
    sync_all = (fun () -> timed t Other h.Vfs.sync_all);
  }

(* Every file the model knows must exist on [h] with the model's size. *)
let check_sizes t (h : Vfs.handle) =
  Hashtbl.iter
    (fun path n ->
      match h.Vfs.stat path with
      | st ->
        if st.Types.size <> n then
          fail t "%s has %d bytes after remount, expected %d" path
            st.Types.size n
      | exception Errno.Fs_error _ -> fail t "%s missing after remount" path)
    t.sizes
