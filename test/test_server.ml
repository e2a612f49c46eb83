(* Serving-layer unit tests: wire codec round-trips, the request loop
   end to end, lease expiry reclaim, generation-stamped handle staleness
   (unlink+recreate, rename-over, rollback/snapshot-delete), bounded
   open-file-cache eviction with flush-on-evict durability, the
   quarantined-shard EIO fail-fast, and handle-table determinism across
   seeded runs. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Vfs = Hinfs_vfs.Vfs
module Types = Hinfs_vfs.Types
module Errno = Hinfs_vfs.Errno
module Pmfs = Hinfs_pmfs.Pmfs
module Cowfs = Hinfs_pmfs.Cowfs
module Health = Hinfs_pmfs.Health
module Fs = Hinfs.Fs
module Wire = Hinfs_server.Wire
module Server = Hinfs_server.Server
module Session = Hinfs_server.Session
module Ofcache = Hinfs_server.Ofcache
module Fhandle = Hinfs_server.Fhandle
module Clients = Hinfs_server.Clients

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- wire codec --- *)

let roundtrip_req r = Wire.decode_req (Wire.encode_req r)
let roundtrip_reply r = Wire.decode_reply (Wire.encode_reply r)

let test_codec_roundtrip () =
  let fh = Wire.fh_make ~slot:123456 ~gen:789 in
  check_int "fh slot" 123456 (Wire.fh_slot fh);
  check_int "fh gen" 789 (Wire.fh_gen fh);
  let reqs =
    [
      Wire.Lookup "/a/b";
      Wire.Getattr fh;
      Wire.Read (fh, 4096, 512);
      Wire.Write (fh, 0, String.make 200 'x', true);
      Wire.Write (fh, 65536, "", false);
      Wire.Create "/new";
      Wire.Remove "/old";
      Wire.Rename ("/from", "/to");
      Wire.Commit fh;
    ]
  in
  List.iter (fun r -> check_bool (Wire.req_name r) true (roundtrip_req r = r)) reqs;
  let st =
    {
      Types.ino = 42;
      kind = Types.Regular;
      size = 12345;
      nlink = 1;
      blocks = 4;
      mtime_ns = 99L;
    }
  in
  let replies =
    [
      Wire.R_handle (fh, st);
      Wire.R_attr { st with kind = Types.Directory };
      Wire.R_data (String.make 300 'd');
      Wire.R_written (4096, 7L);
      Wire.R_ok 7L;
      Wire.R_err Errno.ESTALE;
      Wire.R_err Errno.EIO;
      Wire.R_expired;
    ]
  in
  List.iter (fun r -> check_bool "reply" true (roundtrip_reply r = r)) replies

(* Encoded bytes are part of the wire format and of the modelled codec
   cost (charged by length): every constructor must encode to exactly these
   bytes. *)
let test_codec_golden_bytes () =
  let hex b =
    String.concat ""
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (Bytes.to_seq b)))
  in
  let fh = Wire.fh_make ~slot:7 ~gen:3 in
  let st =
    {
      Types.ino = 42;
      kind = Types.Directory;
      size = 4096;
      nlink = 2;
      blocks = 1;
      mtime_ns = 123456789L;
    }
  in
  List.iter
    (fun (r, golden) ->
      check_string (Wire.req_name r) golden (hex (Wire.encode_req r)))
    [
      (Wire.Lookup "/d/f", "0104000000000000002f642f66");
      (Wire.Getattr fh, "020700000003000000");
      ( Wire.Read (fh, 8192, 4096),
        "03070000000300000000200000000000000010000000000000" );
      ( Wire.Write (fh, 16, "hello", true),
        "0407000000030000001000000000000000050000000000000068656c6c6f01" );
      (Wire.Create "/n", "0502000000000000002f6e");
      (Wire.Remove "/x", "0602000000000000002f78");
      ( Wire.Rename ("/a", "/bb"),
        "0702000000000000002f6103000000000000002f6262" );
      (Wire.Commit fh, "080700000003000000");
    ];
  List.iteri
    (fun i (r, golden) ->
      check_string (Printf.sprintf "reply %d" i) golden
        (hex (Wire.encode_reply r)))
    [
      ( Wire.R_handle (fh, st),
        "0107000000030000002a000000000000000100000000000000001000000000000002\
         00000000000000010000000000000015cd5b0700000000" );
      ( Wire.R_attr { st with kind = Types.Regular },
        "022a000000000000000000000000000000001000000000000002000000000000000\
         10000000000000015cd5b0700000000" );
      (Wire.R_data "xyz", "03030000000000000078797a");
      ( Wire.R_written (4096, 0x48694E4653L),
        "04001000000000000053464e6948000000" );
      (Wire.R_ok 9L, "050900000000000000");
      (Wire.R_err Errno.ESTALE, "060c00000000000000");
      (Wire.R_expired, "07");
    ]

(* The free list hands a released buffer back only for a request of its
   exact size, leaves buffers under the floor to the minor heap, and
   drops everything it holds rather than pass its cap. *)
let test_free_list_exact_size () =
  let big = Wire.take 4096 in
  Wire.release big;
  check_bool "other size is a fresh buffer" true (Wire.take 4097 != big);
  let again = Wire.take 4096 in
  check_bool "same size is recycled" true (again == big);
  check_bool "list drained" true (Wire.take 4096 != big);
  let small = Wire.take 100 in
  Wire.release small;
  check_bool "under the floor is never recycled" true (Wire.take 100 != small);
  (* 33 MB released against a 32 MB cap: the list starts over *)
  let mb = 1024 * 1024 in
  let first = Wire.take mb in
  Wire.release first;
  for _ = 1 to 32 do
    Wire.release (Bytes.create mb)
  done;
  let kept = List.init 33 (fun _ -> Wire.take mb) in
  check_bool "past the cap the list is dropped" false
    (List.exists (fun b -> b == first) kept)

(* --- helpers --- *)

let expect_handle = function
  | Wire.R_handle (fh, st) -> (fh, st)
  | Wire.R_err e -> Alcotest.failf "expected handle, got %s" (Errno.to_string e)
  | _ -> Alcotest.fail "expected R_handle"

let expect_data = function
  | Wire.R_data d -> d
  | Wire.R_err e -> Alcotest.failf "expected data, got %s" (Errno.to_string e)
  | _ -> Alcotest.fail "expected R_data"

let expect_err = function
  | Wire.R_err e -> e
  | _ -> Alcotest.fail "expected R_err"

let expect_ok = function
  | Wire.R_ok _ | Wire.R_written _ -> ()
  | Wire.R_err e -> Alcotest.failf "expected ok, got %s" (Errno.to_string e)
  | _ -> Alcotest.fail "expected R_ok"

let with_server ?workers ?cache_cap ?lease_ns engine vfs f =
  let srv = Server.create ?workers ?cache_cap ?lease_ns engine vfs in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

(* Words allocated straight on the major heap (not promoted from the
   minor heap) per call of [f], over [n] calls. *)
let large_words_per_call n f =
  let _, p0, m0 = Gc.counters () in
  for _ = 1 to n do
    f ()
  done;
  let _, p1, m1 = Gc.counters () in
  (m1 -. m0 -. (p1 -. p0)) /. float_of_int n

let fill_file rpc path ch =
  let fh, _ = expect_handle (rpc (Wire.Create path)) in
  expect_ok (rpc (Wire.Write (fh, 0, String.make 4096 ch, true)));
  fh

(* --- end-to-end request loop --- *)

let test_serve_basic () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh, st = expect_handle (rpc (Wire.Create "/f")) in
          check_int "fresh file is empty" 0 st.Types.size;
          expect_ok (rpc (Wire.Write (fh, 0, String.make 100 'a', false)));
          expect_ok (rpc (Wire.Write (fh, 100, String.make 50 'b', true)));
          expect_ok (rpc (Wire.Commit fh));
          let data = expect_data (rpc (Wire.Read (fh, 95, 10))) in
          check_string "read spans the write boundary" "aaaaabbbbb" data;
          (match rpc (Wire.Getattr fh) with
          | Wire.R_attr st -> check_int "size after writes" 150 st.Types.size
          | _ -> Alcotest.fail "expected R_attr");
          (* lookup of the same path returns the same handle *)
          let fh2, _ = expect_handle (rpc (Wire.Lookup "/f")) in
          check_bool "stable handle" true (Int64.equal fh fh2);
          (* path errors surface as errno replies, not exceptions *)
          check_bool "lookup of missing path" true
            (expect_err (rpc (Wire.Lookup "/missing")) = Errno.ENOENT);
          expect_ok (rpc (Wire.Rename ("/f", "/g")));
          let data = expect_data (rpc (Wire.Read (fh, 0, 5))) in
          check_string "handle follows rename" "aaaaa" data;
          expect_ok (rpc (Wire.Remove "/g"));
          check_bool "handle stale after remove" true
            (expect_err (rpc (Wire.Getattr fh)) = Errno.ESTALE);
          (* exactly the two deliberate failures above: ENOENT + ESTALE *)
          check_int "no other fs-level failures leaked" 2
            (Server.err_replies srv)))

(* --- lease expiry --- *)

let test_lease_expiry_reclaim () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server ~lease_ns:1_000_000 engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let fh, _ = expect_handle (Server.rpc srv ~sid (Wire.Create "/f")) in
          expect_ok
            (Server.rpc srv ~sid (Wire.Write (fh, 0, String.make 64 'w', false)));
          check_int "open cached" 1 (Ofcache.length (Server.cache srv));
          (* go idle past the lease: the reaper must reclaim the session
             and its cached open with no traffic arriving *)
          Proc.delay 5_000_000L;
          check_int "session swept while idle" 0
            (Session.live (Server.sessions srv));
          check_int "cached open reclaimed" 0
            (Ofcache.length (Server.cache srv));
          (* the lapsed sid now gets R_expired... *)
          (match Server.rpc srv ~sid (Wire.Getattr fh) with
          | Wire.R_expired -> ()
          | _ -> Alcotest.fail "expected R_expired for lapsed session");
          (* ...but handles are server-global: a fresh session keeps using
             the same fh, and the flush-on-reclaim preserved the data *)
          let sid2 = Server.establish srv in
          let data =
            expect_data (Server.rpc srv ~sid:sid2 (Wire.Read (fh, 0, 64)))
          in
          check_string "data survived reclaim" (String.make 64 'w') data))

(* --- generation bump across unlink+recreate --- *)

let test_generation_bump () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh1, _ = expect_handle (rpc (Wire.Create "/f")) in
          expect_ok (rpc (Wire.Remove "/f"));
          let fh2, _ = expect_handle (rpc (Wire.Create "/f")) in
          check_bool "recreate at the same path mints a new generation" true
            (Wire.fh_gen fh2 > Wire.fh_gen fh1);
          check_bool "old handle stays stale" true
            (expect_err (rpc (Wire.Read (fh1, 0, 1))) = Errno.ESTALE);
          check_bool "old handle stale for writes too" true
            (expect_err (rpc (Wire.Write (fh1, 0, "x", true))) = Errno.ESTALE);
          (match rpc (Wire.Getattr fh2) with
          | Wire.R_attr _ -> ()
          | _ -> Alcotest.fail "fresh handle must resolve");
          (* rename-over clobbers the destination's handle the same way *)
          let fh3, _ = expect_handle (rpc (Wire.Create "/g")) in
          expect_ok (rpc (Wire.Rename ("/f", "/g")));
          check_bool "renamed-over handle is stale" true
            (expect_err (rpc (Wire.Getattr fh3)) = Errno.ESTALE);
          check_bool "moved handle survives" true
            (match rpc (Wire.Getattr fh2) with
            | Wire.R_attr _ -> true
            | _ -> false)))

(* --- ESTALE after rollback / snapshot delete --- *)

let test_estale_after_rollback () =
  Testkit.run_sim (fun engine ->
      let device = Testkit.make_device engine in
      let fs = Cowfs.mkfs_and_mount device () in
      with_server engine (Cowfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh, _ = expect_handle (rpc (Wire.Create "/f")) in
          expect_ok (rpc (Wire.Write (fh, 0, "before", true)));
          let snap = Server.snapshot srv in
          expect_ok (rpc (Wire.Write (fh, 0, "AFTER!", true)));
          Server.rollback srv snap;
          (* revalidation must ESTALE before serving any inode state from
             the rolled-back tree — even though the path exists again *)
          check_bool "handle stale after rollback" true
            (expect_err (rpc (Wire.Getattr fh)) = Errno.ESTALE);
          check_bool "reads blocked too" true
            (expect_err (rpc (Wire.Read (fh, 0, 6))) = Errno.ESTALE);
          (* fresh lookup sees the rolled-back content *)
          let fh2, _ = expect_handle (rpc (Wire.Lookup "/f")) in
          check_string "rolled-back data" "before"
            (expect_data (rpc (Wire.Read (fh2, 0, 6))));
          (* snapshot_delete also invalidates outstanding handles *)
          let snap2 = Server.snapshot srv in
          check_bool "live before delete" true
            (match rpc (Wire.Getattr fh2) with
            | Wire.R_attr _ -> true
            | _ -> false);
          Server.snapshot_delete srv snap2;
          check_bool "handle stale after snapshot delete" true
            (expect_err (rpc (Wire.Getattr fh2)) = Errno.ESTALE)))

(* --- bounded open-file cache --- *)

let test_bounded_eviction () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      with_server ~cache_cap:4 engine (Pmfs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fhs =
            List.init 8 (fun i ->
                let path = Printf.sprintf "/f%d" i in
                let fh, _ = expect_handle (rpc (Wire.Create path)) in
                expect_ok
                  (rpc (Wire.Write (fh, 0, String.make 32 (Char.chr (65 + i)), false)));
                fh)
          in
          let cache = Server.cache srv in
          check_int "cache stays bounded" 4 (Ofcache.length cache);
          check_bool "evictions happened" true (Ofcache.evictions cache >= 4);
          (* flush-on-evict: unstable writes to evicted files are durable;
             reads (which re-open) still see them *)
          List.iteri
            (fun i fh ->
              let data = expect_data (rpc (Wire.Read (fh, 0, 32))) in
              check_string
                (Printf.sprintf "f%d readable after eviction" i)
                (String.make 32 (Char.chr (65 + i)))
                data)
            fhs;
          check_int "still bounded after re-opens" 4 (Ofcache.length cache)))

(* --- quarantined-shard eviction fails fast with EIO --- *)

let test_quarantined_evict_eio () =
  Testkit.run_sim (fun engine ->
      let hcfg = { Testkit.small_hcfg with Hinfs.Hconfig.shards = 4 } in
      let _d, fs = Testkit.make_hinfs ~hcfg engine in
      with_server ~cache_cap:1 engine (Fs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let h = Fs.handle fs in
          for s = 0 to 3 do
            h.Vfs.mkdir (Printf.sprintf "/d%d" s)
          done;
          (* a dirty cached open on some shard... *)
          let fh, st = expect_handle (rpc (Wire.Create "/d0/victim")) in
          expect_ok (rpc (Wire.Write (fh, 0, String.make 64 'v', false)));
          let victim_shard = Pmfs.shard_of_ino (Fs.pmfs fs) st.Types.ino in
          let health = Pmfs.health (Fs.pmfs fs) in
          Health.degrade health (Health.Shard victim_shard) "test fault";
          Health.quarantine health victim_shard;
          (* ...now any request that forces the eviction gets EIO, fast:
             one flush attempt, no retry loop against the isolated shard *)
          let other =
            (* a dir on a different shard so only the eviction can fail *)
            let rec pick s =
              let dir = Printf.sprintf "/d%d" s in
              let dst = dir ^ "/other" in
              let ino = (h.Vfs.stat dir).Types.ino in
              if Pmfs.shard_of_ino (Fs.pmfs fs) ino <> victim_shard then dst
              else pick (s + 1)
            in
            pick 1
          in
          check_bool "eviction fails fast with EIO" true
            (expect_err (rpc (Wire.Create other)) = Errno.EIO);
          check_int "victim entry dropped, not retried" 0
            (Ofcache.length (Server.cache srv));
          (* healthy shards keep serving: the retry now finds room *)
          let fh2, _ = expect_handle (rpc (Wire.Create other)) in
          expect_ok (rpc (Wire.Write (fh2, 0, "ok", true)));
          check_string "healthy shard unaffected" "ok"
            (expect_data (rpc (Wire.Read (fh2, 0, 2))))))

(* --- recycled wire buffers --- *)

(* A 4 KB READ takes its READ buffer and reply from the free list; only
   the client's R_data string is a fresh large block (513 words). *)
let test_read_rpc_large_blocks () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs engine in
      with_server engine (Fs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh = fill_file rpc "/f" 'r' in
          let read () = ignore (expect_data (rpc (Wire.Read (fh, 0, 4096)))) in
          for _ = 1 to 16 do
            read ()
          done;
          let words = large_words_per_call 200 read in
          check_bool
            (Fmt.str "%.0f large words per READ <= 600" words)
            true (words <= 600.0)))

(* A 4 KB WRITE recycles the request and the decoded data: no large
   block beyond the caller's own payload. *)
let test_write_rpc_large_blocks () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs engine in
      with_server engine (Fs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fh = fill_file rpc "/f" 'w' in
          let payload = String.make 4096 'x' in
          let write () = expect_ok (rpc (Wire.Write (fh, 0, payload, false))) in
          for _ = 1 to 16 do
            write ()
          done;
          let words = large_words_per_call 200 write in
          check_bool
            (Fmt.str "%.0f large words per WRITE < 64" words)
            true (words < 64.0)))

(* A client's R_data must not share storage with any recycled buffer:
   1000 later READs of other fill bytes, half of them short, leave every
   earlier reply as it was. The READs must also have been served from recycled buffers, or
   the check proves nothing. *)
let test_rdata_not_aliased () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs engine in
      with_server engine (Fs.handle fs) (fun srv ->
          let sid = Server.establish srv in
          let rpc r = Server.rpc srv ~sid r in
          let fills = List.init 26 (fun i -> Char.chr (97 + i)) in
          let fhs =
            Array.of_list
              (List.map (fun ch -> (ch, fill_file rpc (Fmt.str "/%c" ch) ch)) fills)
          in
          let first = expect_data (rpc (Wire.Read (snd fhs.(0), 0, 4096))) in
          let kept = ref [] in
          let i = ref 0 in
          let words =
            large_words_per_call 1000 (fun () ->
                incr i;
                let ch, fh = fhs.(1 + (!i mod 25)) in
                (* every other READ asks past EOF: a short read *)
                let len = if !i mod 2 = 0 then 4096 else 8192 in
                kept := (ch, expect_data (rpc (Wire.Read (fh, 0, len)))) :: !kept)
          in
          check_string "first reply unchanged" (String.make 4096 'a') first;
          List.iter
            (fun (ch, d) ->
              check_bool (Fmt.str "reply of %c unchanged" ch) true
                (String.length d = 4096 && String.for_all (Char.equal ch) d))
            !kept;
          check_bool
            (Fmt.str "%.0f large words per READ <= 600" words)
            true (words <= 600.0)))

(* 64 clients at once, each writing and reading back its own fill bytes
   through 8 workers: every read returns only the client's own data. *)
let test_concurrent_clients_own_data () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_hinfs engine in
      with_server engine (Fs.handle fs) (fun srv ->
          let clients = 64 and rounds = 20 in
          let remaining = ref clients and bad = ref 0 in
          let _, p0, m0 = Gc.counters () in
          for c = 0 to clients - 1 do
            Proc.spawn (fun () ->
                let sid = Server.establish srv in
                let rpc r = Server.rpc srv ~sid r in
                let fh, _ = expect_handle (rpc (Wire.Create (Fmt.str "/c%d" c))) in
                for r = 1 to rounds do
                  let ch = Char.chr (33 + ((c * 7) + r) mod 90) in
                  expect_ok (rpc (Wire.Write (fh, 0, String.make 4096 ch, r mod 4 = 0)));
                  let d = expect_data (rpc (Wire.Read (fh, 0, 4096))) in
                  if not (String.for_all (Char.equal ch) d) then incr bad
                done;
                decr remaining)
          done;
          while !remaining > 0 do
            Proc.delay_int 100_000
          done;
          let _, p1, m1 = Gc.counters () in
          check_int "every read saw only its own client's data" 0 !bad;
          (* per round: the caller's payload and the R_data string *)
          let words = (m1 -. m0 -. (p1 -. p0)) /. float_of_int (clients * rounds) in
          check_bool
            (Fmt.str "%.0f large words per round <= 1200" words)
            true (words <= 1200.0)))

(* --- handle-table determinism across seeded runs --- *)

let fleet_run () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let srv = Server.create ~workers:4 ~cache_cap:8 engine (Pmfs.handle fs) in
      Server.start srv;
      let cfg =
        {
          Clients.default with
          Clients.clients = 8;
          ops_per_client = 30;
          hot_files = 16;
          seed = 4242L;
        }
      in
      let ops = Clients.run engine srv cfg in
      Server.stop srv;
      (ops, Server.served srv, Fhandle.dump (Server.handles srv), Proc.now ()))

let test_fleet_determinism () =
  let ops1, served1, dump1, t1 = fleet_run () in
  let ops2, served2, dump2, t2 = fleet_run () in
  check_int "same ops" ops1 ops2;
  check_int "same requests served" served1 served2;
  check_bool "some requests served" true (served1 > 8 * 30);
  check_bool "identical handle tables" true (dump1 = dump2);
  check_bool "handle table is non-trivial" true (List.length dump1 > 8);
  check_bool "identical virtual end time" true (Int64.equal t1 t2)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec golden bytes" `Quick
            test_codec_golden_bytes;
          Alcotest.test_case "free list recycles exact sizes" `Quick
            test_free_list_exact_size;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "READ rpc large blocks" `Quick
            test_read_rpc_large_blocks;
          Alcotest.test_case "WRITE rpc large blocks" `Quick
            test_write_rpc_large_blocks;
          Alcotest.test_case "R_data not aliased" `Quick test_rdata_not_aliased;
          Alcotest.test_case "concurrent clients read own data" `Quick
            test_concurrent_clients_own_data;
        ] );
      ( "serve",
        [
          Alcotest.test_case "request loop end to end" `Quick test_serve_basic;
          Alcotest.test_case "lease expiry reclaim" `Quick
            test_lease_expiry_reclaim;
        ] );
      ( "handles",
        [
          Alcotest.test_case "generation bump on recreate" `Quick
            test_generation_bump;
          Alcotest.test_case "ESTALE after rollback" `Quick
            test_estale_after_rollback;
          Alcotest.test_case "fleet determinism" `Quick test_fleet_determinism;
        ] );
      ( "ofcache",
        [
          Alcotest.test_case "bounded eviction" `Quick test_bounded_eviction;
          Alcotest.test_case "quarantined evict EIO" `Quick
            test_quarantined_evict_eio;
        ] );
    ]
