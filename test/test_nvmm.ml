(* Tests for the NVMM device model: data integrity, cache/crash semantics,
   timing charges, and the allocator. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device
module Allocator = Hinfs_nvmm.Allocator
module Blockdev = Hinfs_blockdev.Blockdev

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

let cat = Stats.Other

(* --- config --- *)

let test_config_defaults () =
  let c = Config.default in
  check_int "cachelines per block" 64 (Config.cachelines_per_block c);
  (* 1 GB/s at 200ns per 64B line: 64/200e-9 = 320 MB/s per slot -> 3 slots *)
  check_int "nw slots" 3 (Config.nw_slots c);
  check_int "lines in aligned 4K" 64 (Config.cachelines_in c ~addr:0 ~len:4096);
  check_int "lines in unaligned range" 2
    (Config.cachelines_in c ~addr:60 ~len:8);
  check_int "lines in 1 byte" 1 (Config.cachelines_in c ~addr:0 ~len:1);
  check_int "lines in empty" 0 (Config.cachelines_in c ~addr:0 ~len:0)

let test_config_validation () =
  Alcotest.check_raises "bad cacheline"
    (Invalid_argument "Config: cacheline_size must be a positive power of two")
    (fun () ->
      ignore (Config.validate { Config.default with Config.cacheline_size = 48 }))

let test_nw_slots_sweep () =
  (* Higher latency at same bandwidth means more concurrent slots. *)
  let slots lat =
    Config.nw_slots { Config.default with Config.nvmm_write_ns = lat }
  in
  check_int "50ns" 1 (slots 50);
  check_int "200ns" 3 (slots 200);
  check_int "800ns" 13 (slots 800)

(* --- device data integrity --- *)

let test_write_nt_read_back () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:1 1000 in
      Device.write_nt d ~cat ~addr:123 ~src:payload ~off:0 ~len:1000;
      let back = Device.read_alloc d ~cat ~addr:123 ~len:1000 in
      Testkit.check_bytes "round trip" payload back)

let test_cached_write_visible_before_flush () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:2 100 in
      Device.write_cached d ~cat ~addr:4096 ~src:payload ~off:0 ~len:100;
      (* Coherent view sees it... *)
      let back = Device.read_alloc d ~cat ~addr:4096 ~len:100 in
      Testkit.check_bytes "coherent read" payload back;
      (* ...but the medium does not. *)
      let persisted = Device.peek_persistent d ~addr:4096 ~len:100 in
      check_bool "not yet persistent" true
        (Bytes.to_string persisted = String.make 100 '\000'))

let test_crash_drops_unflushed () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:3 256 in
      Device.write_cached d ~cat ~addr:0 ~src:payload ~off:0 ~len:256;
      (* Flush only the first two cachelines. *)
      Device.clflush d ~cat ~addr:0 ~len:128;
      Device.crash d;
      let back = Device.peek d ~addr:0 ~len:256 in
      Testkit.check_bytes "flushed part survived"
        (Bytes.sub payload 0 128) (Bytes.sub back 0 128);
      check_bool "unflushed part lost" true
        (Bytes.to_string (Bytes.sub back 128 128) = String.make 128 '\000'))

let test_write_nt_survives_crash () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let payload = Testkit.pattern_bytes ~seed:4 512 in
      Device.write_nt d ~cat ~addr:8192 ~src:payload ~off:0 ~len:512;
      Device.crash d;
      let back = Device.peek d ~addr:8192 ~len:512 in
      Testkit.check_bytes "nt store persistent" payload back)

let test_write_nt_invalidates_overlay () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let cached = Bytes.make 64 'A' in
      Device.write_cached d ~cat ~addr:0 ~src:cached ~off:0 ~len:64;
      let nt = Bytes.make 64 'B' in
      Device.write_nt d ~cat ~addr:0 ~src:nt ~off:0 ~len:64;
      (* Full-line NT store wins over the stale cached copy. *)
      let back = Device.read_alloc d ~cat ~addr:0 ~len:64 in
      Testkit.check_bytes "nt wins" nt back;
      check_int "overlay dropped" 0 (Device.dirty_cachelines d))

let test_write_nt_partial_line_merges_overlay () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let cached = Bytes.make 64 'A' in
      Device.write_cached d ~cat ~addr:0 ~src:cached ~off:0 ~len:64;
      let nt = Bytes.make 16 'B' in
      Device.write_nt d ~cat ~addr:8 ~src:nt ~off:0 ~len:16;
      let back = Device.read_alloc d ~cat ~addr:0 ~len:64 in
      let expected = Bytes.make 64 'A' in
      Bytes.fill expected 8 16 'B';
      Testkit.check_bytes "merged view" expected back)

let test_dirty_line_tracking () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      check_int "clean initially" 0 (Device.dirty_cachelines d);
      let b = Bytes.make 1 'x' in
      Device.write_cached d ~cat ~addr:100 ~src:b ~off:0 ~len:1;
      check_int "one dirty line" 1 (Device.dirty_cachelines d);
      check_bool "line 1 dirty" true (Device.is_dirty_line d 1);
      Device.clflush d ~cat ~addr:64 ~len:64;
      check_int "clean after flush" 0 (Device.dirty_cachelines d))

(* --- in-place loads and the dirty-line bitmap --- *)

(* Scalar loads read in place; [peek] is the copying reference. Fields sit
   in clean lines, dirty lines and across a clean/dirty line boundary. *)
let test_scalar_loads_match_peek () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let size = Device.size d in
      Device.poke d ~addr:0 ~src:(Testkit.pattern_bytes ~seed:11 512) ~off:0
        ~len:512;
      (* Dirty lines 2 and 4 (bytes 128..191 and 256..319) with other
         content; lines 0, 1 and 3 stay clean. *)
      let fresh = Testkit.pattern_bytes ~seed:12 64 in
      Device.write_cached d ~cat ~addr:128 ~src:fresh ~off:0 ~len:64;
      Device.write_cached d ~cat ~addr:256 ~src:fresh ~off:0 ~len:64;
      for addr = 0 to 504 do
        let p n = Device.peek d ~addr ~len:n in
        check_int "u8" (Bytes.get_uint8 (p 1) 0) (Device.get_u8 d addr);
        check_int "u16" (Bytes.get_uint16_le (p 2) 0) (Device.get_u16 d addr);
        check_int "u32"
          (Int32.to_int (Bytes.get_int32_le (p 4) 0) land 0xFFFFFFFF)
          (Device.get_u32 d addr);
        check_i64 "u64" (Bytes.get_int64_le (p 8) 0) (Device.get_u64 d addr);
        check_int "int"
          (Int64.to_int (Bytes.get_int64_le (p 8) 0))
          (Device.get_int d addr)
      done;
      let range_error addr n =
        Invalid_argument
          (Printf.sprintf "Device: range [%d, %d) out of bounds (size %d)" addr
             (addr + n) size)
      in
      Alcotest.check_raises "u16 past the end" (range_error (size - 1) 2)
        (fun () -> ignore (Device.get_u16 d (size - 1)));
      Alcotest.check_raises "u32 negative" (range_error (-4) 4) (fun () ->
          ignore (Device.get_u32 d (-4)));
      Alcotest.check_raises "u64 past the end" (range_error (size - 4) 8)
        (fun () -> ignore (Device.get_u64 d (size - 4)));
      Alcotest.check_raises "int past the end" (range_error size 8) (fun () ->
          ignore (Device.get_int d size)))

let test_equal_string_matches_peek () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.poke d ~addr:0 ~src:(Testkit.pattern_bytes ~seed:13 512) ~off:0
        ~len:512;
      Device.write_cached d ~cat ~addr:100 ~src:(Bytes.make 40 'q') ~off:0
        ~len:40;
      let rng = Rng.create ~seed:14L in
      for _ = 1 to 500 do
        let addr = Rng.int rng 400 in
        let len = Rng.int rng 100 in
        let s = Bytes.to_string (Device.peek d ~addr ~len) in
        check_bool "equal to its own peek" true (Device.equal_string d ~addr s);
        if len > 0 then begin
          let i = Rng.int rng len in
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr ((Char.code s.[i] + 1) land 255));
          check_bool "one byte off" false
            (Device.equal_string d ~addr (Bytes.to_string b))
        end
      done)

(* The bitmap answers [is_dirty_line]; [dirty_line_addrs] reads the overlay
   table. They must agree after every kind of store, flush and crash. *)
let test_dirty_bitmap_mirrors_overlay () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let ls = (Device.config d).Config.cacheline_size in
      let lines = 64 in
      let rng = Rng.create ~seed:15L in
      let agree step =
        let dirty = Device.dirty_line_addrs d in
        for idx = 0 to lines + 1 do
          check_bool
            (Printf.sprintf "step %d line %d" step idx)
            (List.mem (idx * ls) dirty) (Device.is_dirty_line d idx)
        done;
        check_int "count" (List.length dirty) (Device.dirty_cachelines d)
      in
      Device.enable_recording d;
      for step = 1 to 400 do
        let addr = Rng.int rng (lines * ls) in
        let len = 1 + Rng.int rng (4 * ls) in
        let len = min len ((lines * ls) - addr) in
        let src = Bytes.make len 'b' in
        (match Rng.int rng 7 with
        | 0 | 1 -> Device.write_cached d ~cat ~addr ~src ~off:0 ~len
        | 2 -> Device.clflush d ~cat ~addr ~len
        | 3 -> Device.write_nt d ~cat ~addr ~src ~off:0 ~len
        | 4 -> Device.poke d ~addr ~src ~off:0 ~len
        | 5 -> Device.poke_flushed d ~addr ~src ~off:0 ~len
        | _ -> if Rng.int rng 8 = 0 then Device.crash d);
        agree step
      done;
      Device.flush_all_untimed d;
      agree 0)

(* Allocation guards: a load on a clean or a dirty line allocates nothing.
   The bound allows a constant for the measurement itself; any per-call
   allocation would show up as >= [iters] words. *)
let test_scalar_loads_do_not_allocate () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.write_cached d ~cat ~addr:64 ~src:(Bytes.make 8 'x') ~off:0 ~len:8;
      let iters = 10_000 in
      let sink = ref 0 in
      let w0 = Gc.minor_words () in
      for i = 1 to iters do
        let addr = if i land 1 = 0 then 64 else 512 in
        sink := !sink + Device.get_u32 d addr + Device.get_int d addr
      done;
      let w1 = Gc.minor_words () in
      ignore (Sys.opaque_identity !sink);
      check_bool "no per-load allocation" true (w1 -. w0 < 256.0))

(* The counters are immediate ints: accumulating allocates nothing. *)
let test_stats_counters_do_not_allocate () =
  let stats = Stats.create () in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Stats.add_time stats cat i;
    Stats.add_nvmm_written stats ~background:(i land 1 = 0) 64
  done;
  let w1 = Gc.minor_words () in
  check_int "bytes counted" 640_000
    (Int64.to_int (Stats.nvmm_bytes_written stats));
  check_bool "no per-call allocation" true (w1 -. w0 < 256.0)

(* A fence charges its time inline: it allocates no more than the one
   delay it performs (see test_sim's delay budget). *)
let test_mfence_allocation_budget () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      Device.mfence d ~cat;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Device.mfence d ~cat
      done;
      let w1 = Gc.minor_words () in
      let per_call = (w1 -. w0) /. float_of_int n in
      check_bool
        (Fmt.str "%.1f words per mfence <= 10" per_call)
        true (per_call <= 10.0))

(* [create] allocates the chunk tables and the dirty-line bitmap (768 KB
   at 384 MB), but no chunk: the medium takes host memory only where it is
   written. The count starts after a full major cycle; a cycle still in
   progress inflates the count of the large blocks allocated during it. *)
let test_fresh_device_holds_no_medium () =
  let config = Hinfs_harness.Experiment.(config_of default_spec) in
  let engine = Engine.create () and stats = Stats.create () in
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let d = Device.create engine stats config in
  let allocated = Gc.allocated_bytes () -. b0 in
  check_int "384 MB medium" (384 * 1024 * 1024) (Device.size d);
  check_bool
    (Fmt.str "%.0f bytes allocated < 1 MB" allocated)
    true
    (allocated < 1024. *. 1024.)

(* --- timing --- *)

let test_write_nt_timing () =
  let stats = Stats.create () in
  let elapsed =
    Testkit.run_sim (fun engine ->
        let d = Testkit.make_device ~stats engine in
        let t0 = Proc.now () in
        let payload = Bytes.make 4096 'x' in
        Device.write_nt d ~cat ~addr:0 ~src:payload ~off:0 ~len:4096;
        Int64.sub (Proc.now ()) t0)
  in
  (* 64 lines x 200 ns *)
  check_i64 "nt write cost" 12_800L elapsed;
  check_int "charged to category" 12_800 (Stats.time stats cat);
  check_i64 "bytes counted" 4096L (Stats.nvmm_bytes_written stats)

let test_bandwidth_throttling () =
  (* With 3 slots, 6 concurrent 64-line writes take twice as long as 3. *)
  let engine = Engine.create () in
  let stats = Stats.create () in
  let d = Device.create engine stats Testkit.small_config in
  let payload = Bytes.make 4096 'x' in
  for i = 0 to 5 do
    Engine.spawn engine (fun () ->
        Device.write_nt d ~cat ~addr:(i * 4096) ~src:payload ~off:0 ~len:4096)
  done;
  Engine.run engine;
  check_int "6 writes on 3 slots take 2 rounds" 25_600 (Engine.now engine)

let test_clflush_only_pays_for_dirty () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let b = Bytes.make 64 'x' in
      Device.write_cached d ~cat ~addr:0 ~src:b ~off:0 ~len:64;
      (* Flush 4 lines, only 1 dirty. *)
      Device.clflush d ~cat ~addr:0 ~len:256);
  check_i64 "only dirty line counted" 64L (Stats.nvmm_bytes_written stats)

let test_read_timing () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let buf = Bytes.create 4096 in
      Device.read d ~cat:Stats.Read_access ~addr:0 ~len:4096 ~into:buf ~off:0);
  (* 64 lines x 8 ns dram read *)
  check_int "read cost" 512 (Stats.time stats Stats.Read_access)

let test_bounds_checking () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let size = Device.size d in
      let b = Bytes.make 16 'x' in
      let raised = ref false in
      (try Device.write_nt d ~cat ~addr:(size - 8) ~src:b ~off:0 ~len:16
       with Invalid_argument _ -> raised := true);
      check_bool "out of bounds rejected" true !raised)

(* --- allocator --- *)

let test_allocator_basic () =
  let a = Allocator.create ~placement:Lowest_first ~first_block:10 ~count:5 in
  check_int "free" 5 (Allocator.free_blocks a);
  let b1 = Option.get (Allocator.alloc a) in
  check_int "first block" 10 b1;
  let rest = List.init 4 (fun _ -> Option.get (Allocator.alloc a)) in
  Alcotest.(check (list int)) "sequential" [ 11; 12; 13; 14 ] rest;
  Alcotest.(check (option int)) "exhausted" None (Allocator.alloc a);
  Allocator.free a 12;
  Alcotest.(check (option int)) "reuses freed" (Some 12) (Allocator.alloc a)

(* A freed block comes back at once under lowest-first placement, and only
   after the sweep has passed the rest of the region under next-fit. *)
let test_allocator_placement () =
  let after_free placement =
    let a = Allocator.create ~placement ~first_block:0 ~count:8 in
    for _ = 1 to 4 do
      ignore (Allocator.alloc a)
    done;
    Allocator.free a 1;
    List.init 5 (fun _ -> Option.get (Allocator.alloc a))
  in
  Alcotest.(check (list int)) "lowest first" [ 1; 4; 5; 6; 7 ]
    (after_free Lowest_first);
  Alcotest.(check (list int)) "next fit" [ 4; 5; 6; 7; 1 ]
    (after_free Next_fit)

let test_allocator_double_free () =
  let a = Allocator.create ~placement:Lowest_first ~first_block:0 ~count:4 in
  let b = Option.get (Allocator.alloc a) in
  Allocator.free a b;
  Alcotest.check_raises "double free"
    (Invalid_argument "Allocator.free: double free") (fun () ->
      Allocator.free a b)

let allocator_no_double_alloc_prop =
  QCheck.Test.make ~name:"allocator never double-allocates" ~count:100
    QCheck.(pair bool (list (option (int_bound 49))))
    (fun (lowest, ops) ->
      (* Some x = try to free block x if held; None = alloc. *)
      let placement : Allocator.placement =
        if lowest then Lowest_first else Next_fit
      in
      let a = Allocator.create ~placement ~first_block:0 ~count:50 in
      let held = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | None -> (
            match Allocator.alloc a with
            | None -> ()
            | Some b ->
              if Hashtbl.mem held b then
                QCheck.Test.fail_reportf "double allocation of %d" b;
              Hashtbl.replace held b ())
          | Some b ->
            if Hashtbl.mem held b then begin
              Allocator.free a b;
              Hashtbl.remove held b
            end)
        ops;
      Allocator.used_blocks a = Hashtbl.length held)

(* Lowest-first placement against a bit-array model: every [alloc] returns
   the smallest clear block, whatever mix of frees, recovery marks and
   resets came before. *)
type alloc_op = Alloc | Free of int | Mark of int | Reset

let alloc_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Alloc);
        (4, map (fun b -> Free b) (int_bound 39));
        (1, map (fun b -> Mark b) (int_bound 39));
        (1, return Reset);
      ])

let show_alloc_op = function
  | Alloc -> "alloc"
  | Free b -> Printf.sprintf "free %d" b
  | Mark b -> Printf.sprintf "mark %d" b
  | Reset -> "reset"

let allocator_lowest_first_prop =
  QCheck.Test.make ~name:"lowest-first takes the smallest clear block"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_alloc_op)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 200) alloc_op_gen))
    (fun ops ->
      let first = 7 and count = 40 in
      let a =
        Allocator.create ~placement:Lowest_first ~first_block:first ~count
      in
      let used = Array.make count false in
      List.iter
        (function
          | Alloc ->
            let rec lowest i =
              if i = count then None
              else if used.(i) then lowest (i + 1)
              else Some (first + i)
            in
            let want = lowest 0 and got = Allocator.alloc a in
            if got <> want then
              QCheck.Test.fail_reportf "alloc gave %s, lowest clear is %s"
                (Option.fold ~none:"none" ~some:string_of_int got)
                (Option.fold ~none:"none" ~some:string_of_int want);
            Option.iter (fun b -> used.(b - first) <- true) got
          | Free i ->
            if used.(i) then begin
              Allocator.free a (first + i);
              used.(i) <- false
            end
          | Mark i ->
            Allocator.mark_allocated a (first + i);
            used.(i) <- true
          | Reset ->
            Allocator.reset a;
            Array.fill used 0 count false)
        ops;
      true)

(* --- chunked medium against a flat model ---

   Random sequences of stores, flushes, fences, crashes, snapshots, mounts
   of images and crash images on a device of 4 to 8 64 KB chunks, every
   load checked against flat [Bytes]. A device is modelled by its coherent
   view (what [peek] sees) and its medium (what [peek_persistent] and a
   crash see); an image by its bytes. Addresses cluster around chunk
   boundaries, so ranges straddle them, and most chunks are never
   written. Images are checked at the end, after every later store to the
   device they came from and to the devices built on them. *)

let chunk = 65536

type store = Cached | Nt | Poke | Poke_flushed

type medium_op =
  | Store of store * int * int * int * int (* device, addr, len, fill seed *)
  | Flush of int * int * int (* device, addr, len *)
  | Fence of int
  | Crash of int
  | Record of int
  | Snapshot of int
  | Mount of int (* image *)
  | Materialize of int * int (* device, choice seed *)
  | Load of int * int * int (* device, addr, len *)

let pp_medium_op ppf = function
  | Store (k, i, a, l, s) ->
    Fmt.pf ppf "%s d%d %d+%d #%d"
      (match k with
      | Cached -> "cached"
      | Nt -> "nt"
      | Poke -> "poke"
      | Poke_flushed -> "poke_flushed")
      i a l s
  | Flush (i, a, l) -> Fmt.pf ppf "clflush d%d %d+%d" i a l
  | Fence i -> Fmt.pf ppf "mfence d%d" i
  | Crash i -> Fmt.pf ppf "crash d%d" i
  | Record i -> Fmt.pf ppf "record d%d" i
  | Snapshot i -> Fmt.pf ppf "snapshot d%d" i
  | Mount j -> Fmt.pf ppf "of_snapshot i%d" j
  | Materialize (i, s) -> Fmt.pf ppf "materialize d%d #%d" i s
  | Load (i, a, l) -> Fmt.pf ppf "load d%d %d+%d" i a l

let medium_case_gen =
  let open QCheck.Gen in
  let dev = int_bound 5 in
  let addr =
    oneof
      [
        map2 (fun c d -> (c * chunk) + d) (int_bound 8) (int_range (-96) 96);
        int_bound (8 * chunk);
      ]
  in
  let len = frequency [ (8, int_bound 200); (1, int_range 1 (chunk + 200)) ] in
  let store k = map4 (fun i a l s -> Store (k, i, a, l, s)) dev addr len nat in
  let op =
    frequency
      [
        (4, store Cached);
        (2, store Nt);
        (1, store Poke);
        (1, store Poke_flushed);
        (2, map3 (fun i a l -> Flush (i, a, l)) dev addr len);
        (1, map (fun i -> Fence i) dev);
        (1, map (fun i -> Crash i) dev);
        (1, map (fun i -> Record i) dev);
        (2, map (fun i -> Snapshot i) dev);
        (2, map (fun j -> Mount j) nat);
        (2, map2 (fun i s -> Materialize (i, s)) dev nat);
        (6, map3 (fun i a l -> Load (i, a, l)) dev addr len);
      ]
  in
  triple (int_bound 4) (int_bound 3) (list_size (int_range 1 60) op)

type modelled = { d : Device.t; view : Bytes.t; medium : Bytes.t }

(* Run one case; returns the mismatches found, newest first. *)
let run_medium_case (extra, trim, ops) =
  let size = ((4 + extra) * chunk) - (trim * 4096) in
  let config = { Config.default with Config.nvmm_size = size } in
  let ls = config.Config.cacheline_size in
  let errors = ref [] in
  let check what ok = if not ok then errors := what :: !errors in
  let fit addr len =
    let len = min len size in
    (max 0 (min addr (size - len)), len)
  in
  let devs, images =
    Testkit.run_sim (fun engine ->
        let stats = Stats.create () in
        let devs =
          ref
            [
              {
                d = Device.create engine stats config;
                view = Bytes.make size '\000';
                medium = Bytes.make size '\000';
              };
            ]
        and images = ref [] in
        let dev i = List.nth !devs (i mod List.length !devs) in
        List.iteri
          (fun step op ->
            let what msg =
              Fmt.str "step %d (%a): %s" step pp_medium_op op msg
            in
            match op with
            | Store (kind, i, addr, len, seed) ->
              let m = dev i and addr, len = fit addr len in
              let src = Testkit.pattern_bytes ~seed len in
              (match kind with
              | Cached -> Device.write_cached m.d ~cat ~addr ~src ~off:0 ~len
              | Nt -> Device.write_nt m.d ~cat ~addr ~src ~off:0 ~len
              | Poke -> Device.poke m.d ~addr ~src ~off:0 ~len
              | Poke_flushed -> Device.poke_flushed m.d ~addr ~src ~off:0 ~len);
              Bytes.blit src 0 m.view addr len;
              if kind <> Cached then Bytes.blit src 0 m.medium addr len
            | Flush (i, addr, len) ->
              let m = dev i and addr, len = fit addr len in
              Device.clflush m.d ~cat ~addr ~len;
              if len > 0 then begin
                let first = addr / ls * ls in
                let stop = ((addr + len - 1) / ls + 1) * ls in
                Bytes.blit m.view first m.medium first (stop - first)
              end
            | Fence i -> Device.mfence (dev i).d ~cat
            | Crash i ->
              let m = dev i in
              Device.crash m.d;
              Bytes.blit m.medium 0 m.view 0 size
            | Record i ->
              let m = dev i in
              Device.enable_recording m.d;
              Bytes.blit m.view 0 m.medium 0 size
            | Snapshot i ->
              let m = dev i in
              images := (Device.snapshot m.d, Bytes.copy m.medium) :: !images
            | Mount j -> (
              match !images with
              | [] -> ()
              | l ->
                let img, b = List.nth l (j mod List.length l) in
                devs :=
                  !devs
                  @ [
                      {
                        d = Device.of_snapshot engine stats config img;
                        view = Bytes.copy b;
                        medium = Bytes.copy b;
                      };
                    ])
            | Materialize (i, seed) ->
              let m = dev i in
              let state = Device.capture_crash_state m.d in
              if not (Device.recording m.d) then begin
                (* Unrecorded, the undecided lines are exactly those the
                   cache holds with new content: medium or cached. *)
                let line b idx = Bytes.sub b (idx * ls) ls in
                let differs idx =
                  not (Bytes.equal (line m.view idx) (line m.medium idx))
                in
                List.iter
                  (fun (idx, cands) ->
                    check (what (Fmt.str "line %d candidates" idx))
                      (differs idx
                      && Array.length cands = 2
                      && Bytes.equal cands.(0) (line m.medium idx)
                      && Bytes.equal cands.(1) (line m.view idx)))
                  state.Device.cs_choices;
                let changed =
                  List.filter differs (List.init (size / ls) Fun.id)
                in
                check (what "every changed line undecided")
                  (List.length state.Device.cs_choices = List.length changed)
              end;
              let rng = Rng.create ~seed:(Int64.of_int seed) in
              let choice =
                Array.of_list
                  (List.map
                     (fun (_, c) -> Rng.int rng (Array.length c))
                     state.Device.cs_choices)
              in
              let expect = Bytes.copy m.medium in
              List.iteri
                (fun k (idx, cands) ->
                  Bytes.blit cands.(choice.(k)) 0 expect (idx * ls) ls)
                state.Device.cs_choices;
              images :=
                (Device.materialize_crash_image state ~choice, expect)
                :: (state.Device.cs_image, Bytes.copy m.medium)
                :: !images
            | Load (i, addr, len) ->
              let m = dev i and addr, len = fit addr len in
              let view = Bytes.sub m.view addr len in
              check (what "read")
                (Bytes.equal view (Device.read_alloc m.d ~cat ~addr ~len));
              check (what "peek")
                (Bytes.equal view (Device.peek m.d ~addr ~len));
              check (what "peek_persistent")
                (Bytes.equal (Bytes.sub m.medium addr len)
                   (Device.peek_persistent m.d ~addr ~len));
              check (what "equal_string")
                (Device.equal_string m.d ~addr (Bytes.to_string view));
              if len > 0 then begin
                let off = Bytes.copy view in
                let last = Char.code (Bytes.get off (len - 1)) in
                Bytes.set off (len - 1) (Char.chr ((last + 1) land 255));
                check (what "equal_string, one byte off")
                  (not (Device.equal_string m.d ~addr (Bytes.to_string off)))
              end;
              if addr + 8 <= size then
                check (what "get_int")
                  (Device.get_int m.d addr
                  = Int64.to_int (Bytes.get_int64_le m.view addr)))
          ops;
        (!devs, !images))
  in
  List.iteri
    (fun i m ->
      check (Fmt.str "final view of d%d" i)
        (Bytes.equal m.view (Device.peek m.d ~addr:0 ~len:size));
      check (Fmt.str "final medium of d%d" i)
        (Bytes.equal m.medium (Device.peek_persistent m.d ~addr:0 ~len:size)))
    devs;
  let images =
    List.rev_map (fun (img, b) -> (img, b, Device.image_digest img)) images
  in
  List.iteri
    (fun i (img, b, digest) ->
      check (Fmt.str "image i%d" i)
        (Bytes.equal b (Testkit.image_bytes ~config img));
      List.iteri
        (fun j (_, b', digest') ->
          check (Fmt.str "digests of i%d and i%d" i j)
            (digest = digest' = Bytes.equal b b'))
        images)
    images;
  !errors

let medium_model_prop =
  QCheck.Test.make ~name:"chunked medium matches flat model" ~count:60
    (QCheck.make
       ~print:(fun (e, t, ops) ->
         Fmt.str "+%d chunks -%d blocks: %a" e t
           Fmt.(list ~sep:semi pp_medium_op)
           ops)
       ~shrink:QCheck.Shrink.(triple nil nil list)
       medium_case_gen)
    (fun case ->
      match run_medium_case case with
      | [] -> true
      | errors ->
        QCheck.Test.fail_reportf "%s" (String.concat "\n" (List.rev errors)))

(* --- blockdev --- *)

let test_blockdev_roundtrip () =
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device engine in
      let bdev = Blockdev.create d in
      let block = Testkit.pattern_bytes ~seed:9 4096 in
      Blockdev.write_block bdev ~cat 5 ~src:block ~off:0;
      let back = Bytes.create 4096 in
      Blockdev.read_block bdev ~cat 5 ~into:back ~off:0;
      Testkit.check_bytes "block round trip" block back;
      check_int "write requests" 1 (Blockdev.write_requests bdev);
      check_int "read requests" 1 (Blockdev.read_requests bdev))

let test_blockdev_overhead_charged () =
  let stats = Stats.create () in
  Testkit.run_sim (fun engine ->
      let d = Testkit.make_device ~stats engine in
      let bdev = Blockdev.create d in
      let block = Bytes.make 4096 'x' in
      Blockdev.write_block bdev ~cat 0 ~src:block ~off:0;
      Blockdev.read_block bdev ~cat 0 ~into:block ~off:0);
  (* 2 requests x 8000 ns block layer overhead *)
  check_int "block layer overhead" 16_000 (Stats.time stats Stats.Block_layer)

let () =
  Alcotest.run "nvmm"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "nw slots sweep" `Quick test_nw_slots_sweep;
        ] );
      ( "device",
        [
          Alcotest.test_case "nt write round trip" `Quick
            test_write_nt_read_back;
          Alcotest.test_case "cached write coherence" `Quick
            test_cached_write_visible_before_flush;
          Alcotest.test_case "crash drops unflushed" `Quick
            test_crash_drops_unflushed;
          Alcotest.test_case "nt write survives crash" `Quick
            test_write_nt_survives_crash;
          Alcotest.test_case "nt invalidates overlay" `Quick
            test_write_nt_invalidates_overlay;
          Alcotest.test_case "partial nt merges overlay" `Quick
            test_write_nt_partial_line_merges_overlay;
          Alcotest.test_case "dirty line tracking" `Quick
            test_dirty_line_tracking;
          Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
          Alcotest.test_case "scalar loads match peek" `Quick
            test_scalar_loads_match_peek;
          Alcotest.test_case "equal_string matches peek" `Quick
            test_equal_string_matches_peek;
          Alcotest.test_case "dirty bitmap mirrors overlay" `Quick
            test_dirty_bitmap_mirrors_overlay;
          Alcotest.test_case "scalar loads do not allocate" `Quick
            test_scalar_loads_do_not_allocate;
          Alcotest.test_case "stats counters do not allocate" `Quick
            test_stats_counters_do_not_allocate;
          Alcotest.test_case "mfence allocation budget" `Quick
            test_mfence_allocation_budget;
          Alcotest.test_case "fresh device holds no medium" `Quick
            test_fresh_device_holds_no_medium;
        ] );
      ("medium", Testkit.qcheck_cases [ medium_model_prop ]);
      ( "timing",
        [
          Alcotest.test_case "nt write cost" `Quick test_write_nt_timing;
          Alcotest.test_case "bandwidth throttling" `Quick
            test_bandwidth_throttling;
          Alcotest.test_case "clflush dirty only" `Quick
            test_clflush_only_pays_for_dirty;
          Alcotest.test_case "read cost" `Quick test_read_timing;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "basic" `Quick test_allocator_basic;
          Alcotest.test_case "placement" `Quick test_allocator_placement;
          Alcotest.test_case "double free" `Quick test_allocator_double_free;
        ]
        @ Testkit.qcheck_cases
            [ allocator_no_double_alloc_prop; allocator_lowest_first_prop ] );
      ( "blockdev",
        [
          Alcotest.test_case "round trip" `Quick test_blockdev_roundtrip;
          Alcotest.test_case "overhead charged" `Quick
            test_blockdev_overhead_charged;
        ] );
    ]
