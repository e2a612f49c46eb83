(* PMFS integration tests: data path, namespace, persistence across
   remount, crash recovery, and the VFS layer on top. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Device = Hinfs_nvmm.Device
module Pmfs = Hinfs_pmfs.Pmfs
module Layout = Hinfs_pmfs.Layout
module Dir = Hinfs_pmfs.Dir
module Fs_ctx = Hinfs_pmfs.Fs_ctx
module Block_tree = Hinfs_pmfs.Block_tree
module Errno = Hinfs_vfs.Errno
module Types = Hinfs_vfs.Types
module Vfs = Hinfs_vfs.Vfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let root = Layout.root_ino

let read_all fs ~ino ~len =
  let buf = Bytes.create len in
  let n = Pmfs.read fs ~ino ~off:0 ~len ~into:buf ~into_off:0 in
  (Bytes.sub buf 0 n, n)

(* --- basic data path --- *)

let test_create_write_read () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "hello" in
      let payload = Testkit.pattern_bytes ~seed:1 10_000 in
      let n =
        Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:10_000
          ~sync:false
      in
      check_int "bytes written" 10_000 n;
      let data, n = read_all fs ~ino ~len:20_000 in
      check_int "bytes read (clamped to size)" 10_000 n;
      Testkit.check_bytes "round trip" payload data)

let test_unaligned_overwrite () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "f" in
      let base = Bytes.make 9000 'a' in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:base ~src_off:0 ~len:9000 ~sync:false);
      (* Overwrite an unaligned range crossing a block boundary. *)
      let patch = Bytes.make 1000 'b' in
      ignore
        (Pmfs.write fs ~ino ~off:3800 ~src:patch ~src_off:0 ~len:1000
           ~sync:false);
      let expected = Bytes.make 9000 'a' in
      Bytes.fill expected 3800 1000 'b';
      let data, _ = read_all fs ~ino ~len:9000 in
      Testkit.check_bytes "patched" expected data)

let test_sparse_file_holes_read_zero () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "sparse" in
      let tail = Bytes.make 100 'z' in
      (* Write far into the file: everything before is a hole. *)
      ignore
        (Pmfs.write fs ~ino ~off:1_000_000 ~src:tail ~src_off:0 ~len:100
           ~sync:false);
      check_int "size" 1_000_100 (Pmfs.inode_size fs ino);
      let buf = Bytes.make 200 'x' in
      let n = Pmfs.read fs ~ino ~off:500_000 ~len:200 ~into:buf ~into_off:0 in
      check_int "hole read length" 200 n;
      check_bool "hole reads zeros" true
        (Bytes.to_string buf = String.make 200 '\000');
      (* Tail data intact. *)
      let buf2 = Bytes.create 100 in
      let _ = Pmfs.read fs ~ino ~off:1_000_000 ~len:100 ~into:buf2 ~into_off:0 in
      Testkit.check_bytes "tail" tail buf2)

let test_fresh_partial_block_zero_filled () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      (* Pollute a block, free it, then reallocate for a new file: stale
         bytes must not leak. *)
      let a = Pmfs.create_file fs ~dir:root "a" in
      let junk = Bytes.make 4096 'J' in
      ignore (Pmfs.write fs ~ino:a ~off:0 ~src:junk ~src_off:0 ~len:4096 ~sync:false);
      Pmfs.unlink fs ~dir:root "a";
      let b = Pmfs.create_file fs ~dir:root "b" in
      let tiny = Bytes.make 10 'T' in
      ignore (Pmfs.write fs ~ino:b ~off:100 ~src:tiny ~src_off:0 ~len:10 ~sync:false);
      (* size is 110; bytes 0..99 must read as zeros, not 'J'. *)
      let buf = Bytes.create 110 in
      let _ = Pmfs.read fs ~ino:b ~off:0 ~len:110 ~into:buf ~into_off:0 in
      check_bool "prefix zeroed" true
        (Bytes.sub_string buf 0 100 = String.make 100 '\000');
      Alcotest.(check string) "data" (Bytes.to_string tiny)
        (Bytes.sub_string buf 100 10))

let test_large_file_grows_tree () =
  Testkit.run_sim (fun engine ->
      let config =
        { Testkit.small_config with Hinfs_nvmm.Config.nvmm_size = 32 * 1024 * 1024 }
      in
      let _d, fs = Testkit.make_pmfs ~config engine in
      let ino = Pmfs.create_file fs ~dir:root "big" in
      (* 3 MB: needs a height-2 tree (512 blocks per level-1 node). *)
      let chunk = Bytes.make 65536 '\000' in
      for i = 0 to 47 do
        Bytes.fill chunk 0 65536 (Char.chr (Char.code 'A' + (i mod 26)));
        ignore
          (Pmfs.write fs ~ino ~off:(i * 65536) ~src:chunk ~src_off:0 ~len:65536
             ~sync:false)
      done;
      check_int "size" (48 * 65536) (Pmfs.inode_size fs ino);
      (* Spot check several offsets. *)
      List.iter
        (fun i ->
          let buf = Bytes.create 16 in
          let _ =
            Pmfs.read fs ~ino ~off:(i * 65536) ~len:16 ~into:buf ~into_off:0
          in
          Alcotest.(check char)
            "content at chunk" (Char.chr (Char.code 'A' + (i mod 26)))
            (Bytes.get buf 0))
        [ 0; 1; 17; 31; 47 ])

(* A lookup hit through a height-2 tree allocates only its [Some]. *)
let test_lookup_hit_allocation_budget () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "sparse" in
      let block = Bytes.make 4096 'L' in
      ignore
        (Pmfs.write fs ~ino ~off:(600 * 4096) ~src:block ~src_off:0 ~len:4096
           ~sync:false);
      let ctx = Pmfs.ctx fs in
      let hit = Block_tree.lookup ctx ~ino ~fblock:600 in
      check_bool "hit" true (hit <> None);
      check_bool "hole" true (Block_tree.lookup ctx ~ino ~fblock:599 = None);
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Block_tree.lookup ctx ~ino ~fblock:600))
      done;
      let w1 = Gc.minor_words () in
      let per_call = (w1 -. w0) /. float_of_int n in
      check_bool
        (Fmt.str "%.1f words per lookup hit <= 2" per_call)
        true (per_call <= 2.0))

let test_truncate () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "t" in
      let payload = Testkit.pattern_bytes ~seed:2 20_000 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:20_000 ~sync:false);
      let blocks_before = (Pmfs.stat_of fs ino).Types.blocks in
      Pmfs.truncate fs ~ino ~size:5_000;
      check_int "shrunk size" 5_000 (Pmfs.inode_size fs ino);
      let blocks_after = (Pmfs.stat_of fs ino).Types.blocks in
      check_bool "blocks freed" true (blocks_after < blocks_before);
      let data, n = read_all fs ~ino ~len:20_000 in
      check_int "reads clamp" 5_000 n;
      Testkit.check_bytes "kept prefix" (Bytes.sub payload 0 5_000) data;
      (* Grow back: no stale data may reappear. *)
      Pmfs.truncate fs ~ino ~size:8_192;
      let buf = Bytes.create 3_192 in
      let _ = Pmfs.read fs ~ino ~off:5_000 ~len:3_192 ~into:buf ~into_off:0 in
      ignore buf)

let test_unlink_frees_space () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      (* Prime the root directory's dirent block so it does not count as
         "leaked" space below. *)
      let warmup = Pmfs.create_file fs ~dir:root "warmup" in
      ignore warmup;
      Pmfs.unlink fs ~dir:root "warmup";
      let free0 = Pmfs.free_data_blocks fs in
      let ino = Pmfs.create_file fs ~dir:root "f" in
      let payload = Bytes.make 100_000 'x' in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:100_000 ~sync:false);
      check_bool "space consumed" true (Pmfs.free_data_blocks fs < free0);
      Pmfs.unlink fs ~dir:root "f";
      check_int "space reclaimed" free0 (Pmfs.free_data_blocks fs);
      check_bool "name gone" true (Pmfs.lookup fs ~dir:root "f" = None))

(* --- namespace --- *)

let test_directories () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let sub = Pmfs.mkdir fs ~dir:root "sub" in
      let _a = Pmfs.create_file fs ~dir:sub "a" in
      let _b = Pmfs.create_file fs ~dir:sub "b" in
      let names = List.map fst (Pmfs.readdir fs ~dir:sub) in
      Alcotest.(check (list string)) "listing" [ "a"; "b" ]
        (List.sort compare names);
      (* rmdir refuses non-empty *)
      let refused =
        try
          Pmfs.rmdir fs ~dir:root "sub";
          false
        with Errno.Fs_error (ENOTEMPTY, _) -> true
      in
      check_bool "rmdir non-empty refused" true refused;
      Pmfs.unlink fs ~dir:sub "a";
      Pmfs.unlink fs ~dir:sub "b";
      Pmfs.rmdir fs ~dir:root "sub";
      check_bool "dir gone" true (Pmfs.lookup fs ~dir:root "sub" = None))

let test_many_dirents_span_blocks () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      (* 64 dirents per block; create 200 entries to span multiple dirent
         blocks. *)
      for i = 0 to 199 do
        ignore (Pmfs.create_file fs ~dir:root (Printf.sprintf "file%03d" i))
      done;
      check_int "entries" 200 (List.length (Pmfs.readdir fs ~dir:root));
      (* Delete every other, then re-create: slots are reused. *)
      for i = 0 to 199 do
        if i mod 2 = 0 then Pmfs.unlink fs ~dir:root (Printf.sprintf "file%03d" i)
      done;
      check_int "after deletes" 100 (List.length (Pmfs.readdir fs ~dir:root));
      for i = 0 to 99 do
        ignore (Pmfs.create_file fs ~dir:root (Printf.sprintf "new%03d" i))
      done;
      check_int "after re-create" 200 (List.length (Pmfs.readdir fs ~dir:root));
      check_bool "lookup works" true
        (Pmfs.lookup fs ~dir:root "file001" <> None))

(* Reference for [Dir.find]: a copying scan that reads each 64-byte dirent
   out with [peek] and compares the decoded name. *)
let reference_find ctx ~dir name =
  let device = ctx.Fs_ctx.device and geo = ctx.Fs_ctx.geo in
  let bs = geo.Layout.block_size in
  let result = ref None in
  for fblock = 0 to (Layout.Inode.size device geo dir / bs) - 1 do
    match Block_tree.lookup ctx ~ino:dir ~fblock with
    | None -> ()
    | Some block ->
      for slot = 0 to (bs / Dir.dirent_size) - 1 do
        let raw =
          Device.peek device ~addr:(Dir.dirent_addr ctx block slot)
            ~len:Dir.dirent_size
        in
        let ino = Int32.to_int (Bytes.get_int32_le raw 0) in
        if
          !result = None && ino <> 0
          && Bytes.sub_string raw 6 (Bytes.get_uint16_le raw 4) = name
        then result := Some (ino, block, slot)
      done
  done;
  !result

(* A directory of names that share prefixes, with deleted slots and some
   dirents still dirty in the CPU cache: [Dir.find] must agree with the
   reference on live, deleted, prefix and absent names. *)
let test_dir_find_matches_reference () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_pmfs engine in
      let ctx = Pmfs.ctx fs in
      let rng = Rng.create ~seed:21L in
      let dir = Pmfs.mkdir fs ~dir:root "d" in
      (* "f1", "f1-xxxxxx", "f10-x", ...: many names are prefixes of others. *)
      let name i =
        let full = Printf.sprintf "f%d-%s" i (String.make 50 'x') in
        String.sub full 0 (min (String.length full) (2 + (i mod 7 * 8)))
      in
      let names = List.init 300 name |> List.sort_uniq compare in
      List.iter (fun n -> ignore (Pmfs.create_file fs ~dir n)) names;
      Device.flush_all_untimed d;
      List.iter
        (fun n -> if Rng.int rng 3 = 0 then Pmfs.unlink fs ~dir n)
        names;
      for i = 0 to 9 do
        ignore (Pmfs.create_file fs ~dir (Printf.sprintf "g%d" i))
      done;
      (* One entry lives only in the CPU cache: a cached store into the
         first free slot, never flushed. *)
      let block, slot = Option.get (Dir.find_free_slot ctx ~dir) in
      let raw = Bytes.make Dir.dirent_size '\000' in
      Bytes.set_int32_le raw 0 77l;
      Bytes.blit_string "cached" 0 raw 6 6;
      Bytes.set_uint16_le raw 4 6;
      Device.write_cached d ~cat:Stats.Other
        ~addr:(Dir.dirent_addr ctx block slot)
        ~src:raw ~off:0 ~len:Dir.dirent_size;
      let probes =
        names
        @ List.init 10 (Printf.sprintf "g%d")
        @ [ "cached"; "cache"; "f"; "f1"; "f1-"; "g"; "g10"; "absent" ]
      in
      List.iter
        (fun n ->
          let expected = reference_find ctx ~dir n in
          check_bool (Printf.sprintf "find %S" n) true
            (Dir.find ctx ~dir n = expected))
        probes;
      check_bool "cached entry found" true
        (Dir.find ctx ~dir "cached" = Some (77, block, slot)))

(* Allocation guard: a miss scans all 256 dirents (four blocks) of a clean
   directory in place; the probe has the entries' name length, so every
   slot compares its name bytes too. A copying scan allocates ~10 words per
   dirent; what is left is per call and per block (closures and the
   block-tree lookups), under one word per dirent. *)
let test_dir_find_does_not_allocate_per_dirent () =
  Testkit.run_sim (fun engine ->
      let d, fs = Testkit.make_pmfs engine in
      let ctx = Pmfs.ctx fs in
      let dir = Pmfs.mkdir fs ~dir:root "d" in
      for i = 0 to 255 do
        ignore (Pmfs.create_file fs ~dir (Printf.sprintf "entry%03d" i))
      done;
      Device.flush_all_untimed d;
      let iters = 100 in
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (Dir.find ctx ~dir "entry999"))
      done;
      let w1 = Gc.minor_words () in
      check_bool "no per-dirent allocation" true
        ((w1 -. w0) /. float_of_int iters < 256.0))

let test_rename () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let ino = Pmfs.create_file fs ~dir:root "old" in
      let payload = Testkit.pattern_bytes ~seed:3 500 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:500 ~sync:false);
      let sub = Pmfs.mkdir fs ~dir:root "d" in
      Pmfs.rename fs ~src_dir:root ~src:"old" ~dst_dir:sub ~dst:"new";
      check_bool "old gone" true (Pmfs.lookup fs ~dir:root "old" = None);
      Alcotest.(check (option int)) "new present" (Some ino)
        (Pmfs.lookup fs ~dir:sub "new");
      (* Rename over an existing file frees the target. *)
      let victim = Pmfs.create_file fs ~dir:sub "victim" in
      ignore (Pmfs.write fs ~ino:victim ~off:0 ~src:payload ~src_off:0 ~len:500 ~sync:false);
      Pmfs.rename fs ~src_dir:sub ~src:"new" ~dst_dir:sub ~dst:"victim";
      Alcotest.(check (option int)) "replaced" (Some ino)
        (Pmfs.lookup fs ~dir:sub "victim"))

let test_eexist_enoent () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      ignore (Pmfs.create_file fs ~dir:root "x");
      let dup =
        try
          ignore (Pmfs.create_file fs ~dir:root "x");
          false
        with Errno.Fs_error (EEXIST, _) -> true
      in
      check_bool "duplicate rejected" true dup;
      let missing =
        try
          Pmfs.unlink fs ~dir:root "nope";
          false
        with Errno.Fs_error (ENOENT, _) -> true
      in
      check_bool "missing unlink rejected" true missing)

(* --- persistence across remount --- *)

let test_remount_preserves_data () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let sub = Pmfs.mkdir fs ~dir:root "dir" in
      let ino = Pmfs.create_file fs ~dir:sub "file" in
      let payload = Testkit.pattern_bytes ~seed:10 50_000 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:50_000 ~sync:false);
      let free_before = Pmfs.free_data_blocks fs in
      Pmfs.unmount fs;
      (* Remount the same device. *)
      let fs2 = Pmfs.mount d () in
      check_int "no recovery on clean unmount" 0 (Pmfs.recovered_txns fs2);
      let sub2 = Option.get (Pmfs.lookup fs2 ~dir:root "dir") in
      check_int "dir ino stable" sub sub2;
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:sub2 "file") in
      let buf = Bytes.create 50_000 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:50_000 ~into:buf ~into_off:0 in
      check_int "size preserved" 50_000 n;
      Testkit.check_bytes "data preserved" payload buf;
      check_int "allocator rebuilt identically" free_before
        (Pmfs.free_data_blocks fs2))

let test_crash_recovery_consistent () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let ino = Pmfs.create_file fs ~dir:root "stable" in
      let payload = Testkit.pattern_bytes ~seed:11 8192 in
      ignore (Pmfs.write fs ~ino ~off:0 ~src:payload ~src_off:0 ~len:8192 ~sync:false);
      (* Crash without unmounting: committed transactions must survive, the
         file system must mount and pass basic consistency checks. *)
      Device.crash d;
      let fs2 = Pmfs.mount d () in
      let ino2 = Option.get (Pmfs.lookup fs2 ~dir:root "stable") in
      let buf = Bytes.create 8192 in
      let n = Pmfs.read fs2 ~ino:ino2 ~off:0 ~len:8192 ~into:buf ~into_off:0 in
      check_int "committed write survived crash" 8192 n;
      Testkit.check_bytes "data intact" payload buf)

(* Property: crash at a random point during a random operation sequence
   always yields a mountable, readable file system where every file's
   content is one of the states the crashed operation allows. We check a
   weaker but meaningful invariant: mount succeeds, every directory entry
   resolves to a live inode, and reading every file succeeds. *)
let crash_anywhere_prop =
  QCheck.Test.make ~name:"pmfs mounts consistently after crash anywhere"
    ~count:25
    QCheck.(pair small_nat (int_bound 5_000_000))
    (fun (seed, crash_at) ->
      Testkit.run_sim (fun engine ->
          let d = Testkit.make_device engine in
          let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
          let rng = Rng.create ~seed:(Int64.of_int (seed * 31 + 7)) in
          (* Run random ops in a child process; "crash" by snapshotting the
             persistent medium at a random virtual instant (a real crash
             stops execution, so the child is quiesced from then on and any
             half-finished operation is excused). *)
          let crashed = ref false in
          Proc.spawn (fun () ->
              try
                for i = 0 to 200 do
                  if !crashed then raise Exit;
                  let name = Printf.sprintf "f%d" (Rng.int rng 20) in
                  match Rng.int rng 4 with
                  | 0 -> (
                    try ignore (Pmfs.create_file fs ~dir:root name)
                    with Errno.Fs_error _ -> ())
                  | 1 -> (
                    match Pmfs.lookup fs ~dir:root name with
                    | Some ino ->
                      let len = 1 + Rng.int rng 10_000 in
                      let payload = Testkit.pattern_bytes ~seed:i len in
                      ignore
                        (Pmfs.write fs ~ino ~off:(Rng.int rng 20_000)
                           ~src:payload ~src_off:0 ~len ~sync:false)
                    | None -> ())
                  | 2 -> (
                    try Pmfs.unlink fs ~dir:root name
                    with Errno.Fs_error _ -> ())
                  | _ -> (
                    match Pmfs.lookup fs ~dir:root name with
                    | Some ino -> Pmfs.truncate fs ~ino ~size:(Rng.int rng 5_000)
                    | None -> ())
                done
              with
              | Engine.Stopped | Exit -> ()
              | _ when !crashed -> ());
          Proc.delay (Int64.of_int crash_at);
          let image = Device.snapshot d in
          crashed := true;
          let d2 =
            Device.of_snapshot
              (Device.engine d)
              (Hinfs_stats.Stats.create ())
              (Device.config d) image
          in
          let fs2 = Pmfs.mount d2 () in
          let ok = ref true in
          List.iter
            (fun (_name, ino) ->
              match Pmfs.stat_of fs2 ino with
              | stat ->
                let buf = Bytes.create (min stat.Types.size 50_000) in
                (try
                   ignore
                     (Pmfs.read fs2 ~ino ~off:0 ~len:(Bytes.length buf)
                        ~into:buf ~into_off:0)
                 with _ -> ok := false)
              | exception _ -> ok := false)
            (Pmfs.readdir fs2 ~dir:root);
          !ok))

(* --- VFS layer --- *)

let test_vfs_handle_basics () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      h.Vfs.mkdir "/data";
      let fd = h.Vfs.open_ "/data/log" { Types.creat with Types.read = true } in
      let payload = Testkit.pattern_bytes ~seed:20 5000 in
      check_int "write" 5000 (h.Vfs.write fd payload 5000);
      h.Vfs.seek fd 0;
      let buf = Bytes.create 5000 in
      check_int "read" 5000 (h.Vfs.read fd buf 5000);
      Testkit.check_bytes "vfs round trip" payload buf;
      h.Vfs.fsync fd;
      let st = h.Vfs.fstat fd in
      check_int "size" 5000 st.Types.size;
      h.Vfs.close fd;
      check_bool "exists" true (h.Vfs.exists "/data/log");
      h.Vfs.unlink "/data/log";
      check_bool "gone" false (h.Vfs.exists "/data/log"))

let test_vfs_append_mode () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let fd =
        h.Vfs.open_ "/log" { Types.creat with Types.append = true }
      in
      let a = Bytes.of_string "hello " and b = Bytes.of_string "world" in
      ignore (h.Vfs.write fd a 6);
      ignore (h.Vfs.write fd b 5);
      h.Vfs.close fd;
      let fd = h.Vfs.open_ "/log" Types.rdonly in
      let buf = Bytes.create 11 in
      ignore (h.Vfs.read fd buf 11);
      Alcotest.(check string) "appended" "hello world" (Bytes.to_string buf))

let test_vfs_errors () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let enoent =
        try
          ignore (h.Vfs.open_ "/missing" Types.rdonly);
          false
        with Errno.Fs_error (ENOENT, _) -> true
      in
      check_bool "open missing" true enoent;
      let ebadf =
        try
          ignore (h.Vfs.read 999 (Bytes.create 1) 1);
          false
        with Errno.Fs_error (EBADF, _) -> true
      in
      check_bool "bad fd" true ebadf;
      let fd = h.Vfs.open_ "/wr" Types.creat in
      let not_readable =
        try
          ignore (h.Vfs.read fd (Bytes.create 1) 1);
          false
        with Errno.Fs_error (EBADF, _) -> true
      in
      check_bool "write-only fd not readable" true not_readable;
      let excl =
        try
          ignore (h.Vfs.open_ "/wr" { Types.creat with Types.excl = true });
          false
        with Errno.Fs_error (EEXIST, _) -> true
      in
      check_bool "O_EXCL" true excl)

let test_vfs_fsync_byte_accounting () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let fs = Pmfs.mkfs_and_mount d ~journal_blocks:32 () in
      let h = Pmfs.handle fs in
      let fd = h.Vfs.open_ "/f" { Types.creat with Types.read = true } in
      let buf = Bytes.make 1000 'x' in
      ignore (h.Vfs.write fd buf 1000);
      ignore (h.Vfs.write fd buf 1000);
      h.Vfs.fsync fd;
      (* A third write, not covered by any fsync. *)
      ignore (h.Vfs.write fd buf 1000);
      h.Vfs.close fd;
      (* O_SYNC writes count directly. *)
      let fd2 = h.Vfs.open_ "/g" { Types.creat with Types.o_sync = true } in
      ignore (h.Vfs.write fd2 buf 1000);
      h.Vfs.close fd2);
  Alcotest.(check int64) "user bytes" 4000L (Stats.user_bytes_written stats);
  Alcotest.(check int) "fsync bytes" 3000 (Stats.fsync_bytes stats)

let test_concurrent_writers_different_files () =
  Testkit.run_sim (fun engine ->
      let _d, fs = Testkit.make_pmfs engine in
      let h = Pmfs.handle fs in
      let done_count = ref 0 in
      for i = 0 to 7 do
        Proc.spawn (fun () ->
            let path = Printf.sprintf "/file%d" i in
            let fd = h.Vfs.open_ path { Types.creat with Types.read = true } in
            let payload = Testkit.pattern_bytes ~seed:(100 + i) 8192 in
            ignore (h.Vfs.write fd payload 8192);
            h.Vfs.seek fd 0;
            let buf = Bytes.create 8192 in
            ignore (h.Vfs.read fd buf 8192);
            Testkit.check_bytes "concurrent round trip" payload buf;
            h.Vfs.close fd;
            incr done_count)
      done;
      (* run_sim returns when all processes finish *)
      ());
  ()

(* Random operations compared against a model file system (a Map from path
   to contents), via the VFS handle. *)
let vfs_model_prop =
  QCheck.Test.make ~name:"pmfs matches model under random ops" ~count:40
    QCheck.(small_nat)
    (fun seed ->
      Testkit.run_sim (fun engine ->
          let _d, fs = Testkit.make_pmfs engine in
          let h = Pmfs.handle fs in
          let rng = Rng.create ~seed:(Int64.of_int ((seed * 131) + 17)) in
          let model : (string, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
          let paths = Array.init 8 (fun i -> Printf.sprintf "/m%d" i) in
          let ok = ref true in
          for step = 0 to 300 do
            let path = Rng.pick rng paths in
            match Rng.int rng 5 with
            | 0 ->
              (* write whole file *)
              let len = Rng.int rng 12_000 in
              let payload = Testkit.pattern_bytes ~seed:step len in
              let fd =
                h.Hinfs_vfs.Vfs.open_ path
                  { Types.creat with Types.truncate = true }
              in
              ignore (h.Hinfs_vfs.Vfs.write fd payload len);
              h.Hinfs_vfs.Vfs.close fd;
              Hashtbl.replace model path (Bytes.copy payload)
            | 1 -> (
              (* patch a range *)
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some content ->
                let size = Bytes.length content in
                let off = Rng.int rng (size + 1000) in
                let len = 1 + Rng.int rng 3000 in
                let payload = Testkit.pattern_bytes ~seed:(step + 7) len in
                let fd = h.Hinfs_vfs.Vfs.open_ path Types.rdwr in
                ignore (h.Hinfs_vfs.Vfs.pwrite fd ~off payload len);
                h.Hinfs_vfs.Vfs.close fd;
                let new_size = max size (off + len) in
                let updated = Bytes.make new_size '\000' in
                Bytes.blit content 0 updated 0 size;
                Bytes.blit payload 0 updated off len;
                Hashtbl.replace model path updated)
            | 2 -> (
              (* delete *)
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some _ ->
                h.Hinfs_vfs.Vfs.unlink path;
                Hashtbl.remove model path)
            | 3 -> (
              (* truncate *)
              match Hashtbl.find_opt model path with
              | None -> ()
              | Some content ->
                let size = Rng.int rng (Bytes.length content + 2000) in
                h.Hinfs_vfs.Vfs.truncate path size;
                let updated = Bytes.make size '\000' in
                Bytes.blit content 0 updated 0 (min size (Bytes.length content));
                Hashtbl.replace model path updated)
            | _ -> (
              (* verify read *)
              match Hashtbl.find_opt model path with
              | None ->
                if h.Hinfs_vfs.Vfs.exists path then begin
                  ok := false
                end
              | Some content ->
                let fd = h.Hinfs_vfs.Vfs.open_ path Types.rdonly in
                let buf = Bytes.create (Bytes.length content + 100) in
                let n =
                  h.Hinfs_vfs.Vfs.pread fd ~off:0 buf (Bytes.length buf)
                in
                h.Hinfs_vfs.Vfs.close fd;
                if
                  n <> Bytes.length content
                  || not (Bytes.equal (Bytes.sub buf 0 n) content)
                then ok := false)
          done;
          !ok))

let () =
  Alcotest.run "pmfs"
    [
      ( "data-path",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "unaligned overwrite" `Quick
            test_unaligned_overwrite;
          Alcotest.test_case "sparse holes" `Quick
            test_sparse_file_holes_read_zero;
          Alcotest.test_case "fresh partial block zeroed" `Quick
            test_fresh_partial_block_zero_filled;
          Alcotest.test_case "large file grows tree" `Quick
            test_large_file_grows_tree;
          Alcotest.test_case "lookup hit allocation budget" `Quick
            test_lookup_hit_allocation_budget;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "unlink frees space" `Quick
            test_unlink_frees_space;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "dirents span blocks" `Quick
            test_many_dirents_span_blocks;
          Alcotest.test_case "find matches copying scan" `Quick
            test_dir_find_matches_reference;
          Alcotest.test_case "find does not allocate per dirent" `Quick
            test_dir_find_does_not_allocate_per_dirent;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "eexist/enoent" `Quick test_eexist_enoent;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "remount preserves data" `Quick
            test_remount_preserves_data;
          Alcotest.test_case "crash recovery" `Quick
            test_crash_recovery_consistent;
        ]
        @ Testkit.qcheck_cases [ crash_anywhere_prop ] );
      ( "vfs",
        [
          Alcotest.test_case "handle basics" `Quick test_vfs_handle_basics;
          Alcotest.test_case "append mode" `Quick test_vfs_append_mode;
          Alcotest.test_case "errors" `Quick test_vfs_errors;
          Alcotest.test_case "fsync byte accounting" `Quick
            test_vfs_fsync_byte_accounting;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers_different_files;
        ]
        @ Testkit.qcheck_cases [ vfs_model_prop ] );
    ]
