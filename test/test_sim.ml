(* Tests for the discrete-event simulation engine and its primitives. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Resource = Hinfs_sim.Resource
module Condvar = Hinfs_sim.Condvar
module Rwlock = Hinfs_sim.Rwlock
module Rng = Hinfs_sim.Rng
module Zipf = Hinfs_sim.Zipf
module Heap = Hinfs_sim.Heap

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* --- heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  let seq = ref 0 in
  let add time payload =
    Heap.add h ~time ~seq:!seq payload;
    incr seq
  in
  add 30 "c";
  add 10 "a";
  add 20 "b";
  add 10 "a2";
  let pop () = Heap.pop h in
  check_int "length" 4 (Heap.length h);
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "fifo at same time" "a2" (pop ());
  Alcotest.(check string) "then b" "b" (pop ());
  Alcotest.(check string) "then c" "c" (pop ());
  check_bool "empty" true (Heap.is_empty h)

let test_heap_random () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:42L in
  let n = 1000 in
  for i = 0 to n - 1 do
    Heap.add h ~time:(Rng.int rng 100) ~seq:i i
  done;
  let prev = ref (-1, -1) in
  for _ = 1 to n do
    let time = Heap.top_time h in
    (* The payload is the entry's seq. *)
    let seq = Heap.pop h in
    let pt, ps = !prev in
    check_bool "monotone (time, seq)" true
      (pt < time || (pt = time && ps < seq));
    prev := (time, seq)
  done;
  check_bool "drained" true (Heap.is_empty h)

(* Equal times pop in insertion order while the key arrays double from 16
   to 32 to 64 slots underneath, with pops interleaved between pushes. *)
let test_heap_fifo_across_growth () =
  let h = Heap.create () in
  let pushed = ref 0 and popped = ref 0 and peak = ref 0 in
  let push () =
    Heap.add h ~time:5 ~seq:!pushed !pushed;
    incr pushed;
    peak := max !peak (Heap.length h)
  in
  let pop () =
    check_int "fifo at equal times" !popped (Heap.pop h);
    incr popped
  in
  for round = 1 to 60 do
    push ();
    push ();
    if round mod 3 = 0 then pop ()
  done;
  check_bool "grew past 32 entries" true (!peak > 32);
  while not (Heap.is_empty h) do
    pop ()
  done;
  check_int "every entry popped" !pushed !popped

(* --- engine basics --- *)

let test_delay_advances_clock () =
  let final =
    Testkit.run_sim (fun _engine ->
        Proc.delay 100L;
        Proc.delay 50L;
        Proc.now ())
  in
  check_i64 "clock" 150L final

let test_same_time_fifo () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.spawn engine (fun () -> order := i :: !order)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_spawn_interleaving () =
  let trace = ref [] in
  let record x = trace := x :: !trace in
  Testkit.run_sim (fun _ ->
      Proc.spawn (fun () ->
          record "a0";
          Proc.delay 10L;
          record "a10");
      Proc.spawn (fun () ->
          record "b0";
          Proc.delay 5L;
          record "b5");
      Proc.delay 20L;
      record "main20");
  Alcotest.(check (list string))
    "interleaving by virtual time"
    [ "a0"; "b0"; "b5"; "a10"; "main20" ]
    (List.rev !trace)

let test_run_until_horizon () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.spawn engine (fun () ->
      let rec loop () =
        Proc.delay 10L;
        incr fired;
        if !fired < 1000 then loop ()
      in
      loop ());
  Engine.run ~until:55 engine;
  check_int "events before horizon" 5 !fired;
  check_int "clock at horizon" 55 (Engine.now engine)

let test_exception_propagates () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      Proc.delay 5L;
      failwith "boom");
  Alcotest.check_raises "process exception re-raised" (Failure "boom")
    (fun () -> Engine.run engine)

let test_negative_delay_rejected () =
  let engine = Engine.create () in
  let raised = ref false in
  Engine.spawn engine (fun () ->
      try Proc.delay (-5L)
      with Invalid_argument _ -> raised := true);
  Engine.run engine;
  (* Negative delays are silently clamped by Proc.delay (returns without
     yielding), so no exception is expected from the helper... *)
  check_bool "no exception from Proc.delay" false !raised

(* [Proc.now] reads the clock of the engine whose event is running. A
   simulation nested inside a process sees its own clock, then hands the
   outer one back; an engine-context thunk of the inner engine has no
   process of its own, so its [Now] effect reaches the enclosing process. *)
let test_now_nested_runs () =
  let seen = ref [] in
  let record tag = seen := (tag, Proc.now ()) :: !seen in
  Testkit.run_sim (fun _ ->
      Proc.delay 100L;
      let inner = Engine.create () in
      Engine.spawn inner (fun () ->
          Proc.delay 7L;
          record "inner process");
      Engine.at inner 3 (fun () -> record "inner thunk");
      Engine.run inner;
      record "outer after";
      Proc.delay 5L;
      record "outer later");
  Alcotest.(check (list (pair string int64)))
    "clocks"
    [
      ("inner thunk", 100L);
      ("inner process", 7L);
      ("outer after", 100L);
      ("outer later", 105L);
    ]
    (List.rev !seen);
  check_bool "outside any process the effect is unhandled" true
    (match Proc.now () with
    | _ -> false
    | exception Effect.Unhandled _ -> true)

(* Allocation guard: reading the clock inside a process allocates nothing. *)
let test_now_does_not_allocate () =
  Testkit.run_sim (fun _ ->
      Proc.delay 42L;
      let sink = ref 0L in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        sink := Proc.now ()
      done;
      let w1 = Gc.minor_words () in
      check_i64 "clock" 42L !sink;
      check_bool "no per-call allocation" true (w1 -. w0 < 256.0))

(* Allocation budget of one delay: only the continuation and its resume
   thunk are allocated. *)
let test_delay_int_allocation_budget () =
  Testkit.run_sim (fun _ ->
      Proc.delay_int 1;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Proc.delay_int 1
      done;
      let w1 = Gc.minor_words () in
      let per_call = (w1 -. w0) /. float_of_int n in
      check_bool
        (Fmt.str "%.1f words per delay <= 10" per_call)
        true (per_call <= 10.0))

(* An [int64] delay beyond the [int] clock would wrap to a negative int,
   which [delay_int] ignores; the view refuses it instead. *)
let test_delay_beyond_clock_range_rejected () =
  List.iter
    (fun ns ->
      let raised = ref false in
      Testkit.run_sim (fun _ ->
          try Proc.delay ns with Invalid_argument _ -> raised := true);
      check_bool (Fmt.str "Proc.delay %Ld raises" ns) true !raised)
    [ Int64.shift_left 1L 62; Int64.max_int ]

(* --- resources --- *)

let test_resource_limits_concurrency () =
  let peak = ref 0 in
  let active = ref 0 in
  Testkit.run_sim (fun engine ->
      let r = Resource.create ~name:"r" ~capacity:3 in
      for _ = 1 to 10 do
        Proc.spawn (fun () ->
            Resource.with_resource r 1 (fun () ->
                incr active;
                peak := max !peak !active;
                Proc.delay 100L;
                decr active))
      done;
      ignore engine);
  check_int "peak concurrency bounded by capacity" 3 !peak

let test_resource_fifo () =
  let order = ref [] in
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:1 in
      for i = 1 to 4 do
        Proc.spawn (fun () ->
            Resource.with_resource r 1 (fun () ->
                order := i :: !order;
                Proc.delay 10L))
      done);
  Alcotest.(check (list int)) "FIFO grants" [ 1; 2; 3; 4 ] (List.rev !order)

let test_resource_bandwidth_timing () =
  (* 2 slots, 3 jobs of 100ns each: third job starts at t=100. *)
  let finish_times = ref [] in
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:2 in
      for _ = 1 to 3 do
        Proc.spawn (fun () ->
            Resource.with_resource r 1 (fun () -> Proc.delay 100L);
            finish_times := Proc.now () :: !finish_times)
      done);
  Alcotest.(check (list int64))
    "finish times" [ 100L; 100L; 200L ]
    (List.sort Int64.compare !finish_times)

let test_resource_large_request_not_starved () =
  let order = ref [] in
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:2 in
      Proc.spawn (fun () ->
          Resource.with_resource r 2 (fun () ->
              order := "big1" :: !order;
              Proc.delay 10L));
      Proc.spawn (fun () ->
          Resource.with_resource r 2 (fun () ->
              order := "big2" :: !order;
              Proc.delay 10L));
      Proc.spawn (fun () ->
          Resource.with_resource r 1 (fun () ->
              order := "small" :: !order;
              Proc.delay 10L)));
  Alcotest.(check (list string))
    "big request granted before later small one"
    [ "big1"; "big2"; "small" ]
    (List.rev !order)

let test_try_acquire () =
  Testkit.run_sim (fun _ ->
      let r = Resource.create ~name:"r" ~capacity:2 in
      Alcotest.(check bool) "first" true (Resource.try_acquire r 2);
      Alcotest.(check bool) "exhausted" false (Resource.try_acquire r 1);
      Resource.release r 2;
      Alcotest.(check bool) "after release" true (Resource.try_acquire r 1))

(* --- condition variables --- *)

let test_condvar_signal () =
  let woken = ref (-1L) in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () ->
          Condvar.wait c;
          woken := Proc.now ());
      Proc.delay 50L;
      ignore (Condvar.signal c));
  check_i64 "woken at signal time" 50L !woken

let test_condvar_timeout () =
  let outcome = ref Condvar.Signaled in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      outcome := Condvar.wait_timeout c ~timeout:30;
      check_i64 "timed out at deadline" 30L (Proc.now ()));
  check_bool "timeout outcome" true (!outcome = Condvar.Timed_out)

let test_condvar_signal_beats_timeout () =
  let outcome = ref Condvar.Timed_out in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () ->
          Proc.delay 10L;
          ignore (Condvar.signal c));
      outcome := Condvar.wait_timeout c ~timeout:1000;
      check_i64 "woken at signal" 10L (Proc.now ()));
  check_bool "signaled" true (!outcome = Condvar.Signaled)

let test_condvar_broadcast () =
  let woken = ref 0 in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      for _ = 1 to 5 do
        Proc.spawn (fun () ->
            Condvar.wait c;
            incr woken)
      done;
      Proc.delay 10L;
      let n = Condvar.broadcast c in
      check_int "broadcast count" 5 n);
  check_int "all woken" 5 !woken

let test_condvar_timeout_then_signal_no_double_wake () =
  (* A waiter that timed out must not also consume a later signal. *)
  let second_woken = ref false in
  Testkit.run_sim (fun engine ->
      let c = Condvar.create engine in
      Proc.spawn (fun () -> ignore (Condvar.wait_timeout c ~timeout:5));
      Proc.spawn (fun () ->
          Condvar.wait c;
          second_woken := true);
      Proc.delay 50L;
      ignore (Condvar.signal c));
  check_bool "signal reached the live waiter" true !second_woken

(* --- rwlock --- *)

let test_rwlock_readers_share () =
  let concurrent = ref 0 in
  let peak = ref 0 in
  Testkit.run_sim (fun _ ->
      let l = Rwlock.create () in
      for _ = 1 to 4 do
        Proc.spawn (fun () ->
            Rwlock.with_read l (fun () ->
                incr concurrent;
                peak := max !peak !concurrent;
                Proc.delay 10L;
                decr concurrent))
      done);
  check_int "readers run concurrently" 4 !peak

let test_rwlock_writer_excludes () =
  let trace = ref [] in
  Testkit.run_sim (fun _ ->
      let l = Rwlock.create () in
      Proc.spawn (fun () ->
          Rwlock.with_write l (fun () ->
              trace := ("w-start", Proc.now ()) :: !trace;
              Proc.delay 100L;
              trace := ("w-end", Proc.now ()) :: !trace));
      Proc.spawn (fun () ->
          Proc.delay 10L;
          Rwlock.with_read l (fun () ->
              trace := ("r", Proc.now ()) :: !trace)));
  let r_time = List.assoc "r" !trace in
  check_i64 "reader waited for writer" 100L r_time

let test_rwlock_writer_not_starved () =
  (* Writer queued behind a reader; a later reader must wait behind the
     writer. *)
  let trace = ref [] in
  Testkit.run_sim (fun _ ->
      let l = Rwlock.create () in
      Proc.spawn (fun () ->
          Rwlock.with_read l (fun () ->
              trace := ("r1", Proc.now ()) :: !trace;
              Proc.delay 50L));
      Proc.spawn (fun () ->
          Proc.delay 10L;
          Rwlock.with_write l (fun () ->
              trace := ("w", Proc.now ()) :: !trace;
              Proc.delay 50L));
      Proc.spawn (fun () ->
          Proc.delay 20L;
          Rwlock.with_read l (fun () -> trace := ("r2", Proc.now ()) :: !trace)));
  let w_time = List.assoc "w" !trace in
  let r2_time = List.assoc "r2" !trace in
  check_i64 "writer ran when r1 released" 50L w_time;
  check_i64 "late reader waited for writer" 100L r2_time

(* --- rng / zipf --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    check_i64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

(* The stream every seeded run depends on, pinned: the first 32 raw
   outputs for one seed, and the derived draws for another. *)
let test_rng_golden () =
  let rng = Rng.create ~seed:42L in
  List.iteri
    (fun i want -> check_i64 (Fmt.str "output %d" i) want (Rng.next_int64 rng))
    [
      0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
      0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
      0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L;
      0x9e54d738297f77aeL; 0x3474724a775b19bfL; 0x7e348a0e451650beL;
      0x836ded897f3e46e6L; 0x851f977347ed6db7L; 0xaa47e31c02e78edcL;
      0x341452c54d7c33f2L; 0x1a83d752f35eba75L; 0x7ed90003f67f9e1dL;
      0x17eadff448a86a07L; 0xb05eca1a2972b860L; 0xf513444b6455a3e8L;
      0x12b3a6dd261f6e99L; 0x998d8fb100ca15d5L; 0x9eac75d45474c891L;
      0x12fc33f229b7b950L; 0x470ea7e37990e511L; 0xbdf25b150620a835L;
      0xc9167e198fb9991fL; 0xf1222631cdc86d07L; 0xb1b59f1b53585e43L;
      0xca376da14213d975L; 0xd72c1692509d2c5eL;
    ];
  let rng = Rng.create ~seed:2024L in
  List.iteri
    (fun i (n, f, r, b) ->
      check_int (Fmt.str "int %d" i) n (Rng.int rng 1000);
      check_bool (Fmt.str "float %d" i) true (Float.equal f (Rng.float rng));
      check_int (Fmt.str "int_in_range %d" i) r
        (Rng.int_in_range rng ~lo:(-5) ~hi:5);
      check_bool (Fmt.str "bool %d" i) b (Rng.bool rng))
    [
      (213, 0x1.8e430bb1511fp-4, -5, true);
      (256, 0x1.1ad6f6dad28abp-1, 1, false);
      (220, 0x1.b519ee1370d8p-2, 1, true);
      (805, 0x1.52ab878fb3a75p-1, -5, true);
      (672, 0x1.5b2b089fbbcfep-2, 5, true);
      (223, 0x1.531f164014925p-1, -4, false);
      (303, 0x1.d341ec7998bd1p-1, 2, true);
      (100, 0x1.88ccf075698p-3, -1, false);
    ]

(* Allocation budget of a draw: [int], [int_in_range] and [chance]
   return immediates from an unboxed state, so 0 words per call. *)
let test_rng_draws_do_not_allocate () =
  let rng = Rng.create ~seed:5L in
  let n = 10_000 in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    sink := !sink + Rng.int rng 1000 + Rng.int_in_range rng ~lo:1 ~hi:6;
    if Rng.chance rng 0.5 then incr sink
  done;
  let w1 = Gc.minor_words () in
  check_bool "draws happened" true (!sink > 0);
  check_bool (Fmt.str "%.0f words for %d draws = 0" (w1 -. w0) (3 * n)) true
    (w1 -. w0 < 1.0)

let test_rng_bounds () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "in bounds" true (v >= 0 && v < 17);
    let f = Rng.float rng in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let r = Rng.int_in_range rng ~lo:5 ~hi:9 in
    check_bool "range inclusive" true (r >= 5 && r <= 9)
  done

let test_zipf_skew () =
  let rng = Rng.create ~seed:11L in
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let counts = Array.make 1000 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let v = Zipf.sample z rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 should be far more popular than rank 500. *)
  check_bool "skewed"
    true
    (counts.(0) > 20 * max 1 counts.(500));
  (* Top 10% of ranks should account for the majority of accesses. *)
  let top = Array.sub counts 0 100 |> Array.fold_left ( + ) 0 in
  check_bool "top-heavy" true (float_of_int top /. float_of_int samples > 0.5)

let test_zipf_uniform_theta0 () =
  let rng = Rng.create ~seed:13L in
  let z = Zipf.create ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "roughly uniform" true (c > 3500 && c < 6500))
    counts

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "random monotone" `Quick test_heap_random;
          Alcotest.test_case "FIFO across growth" `Quick
            test_heap_fifo_across_growth;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances clock" `Quick
            test_delay_advances_clock;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "interleaving" `Quick test_spawn_interleaving;
          Alcotest.test_case "run until horizon" `Quick test_run_until_horizon;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "now in nested runs" `Quick test_now_nested_runs;
          Alcotest.test_case "now does not allocate" `Quick
            test_now_does_not_allocate;
          Alcotest.test_case "delay_int allocation budget" `Quick
            test_delay_int_allocation_budget;
          Alcotest.test_case "int64 delay beyond clock range rejected" `Quick
            test_delay_beyond_clock_range_rejected;
          Alcotest.test_case "negative delay is a no-op" `Quick
            test_negative_delay_rejected;
        ] );
      ( "resource",
        [
          Alcotest.test_case "limits concurrency" `Quick
            test_resource_limits_concurrency;
          Alcotest.test_case "FIFO grants" `Quick test_resource_fifo;
          Alcotest.test_case "bandwidth timing" `Quick
            test_resource_bandwidth_timing;
          Alcotest.test_case "no starvation of large requests" `Quick
            test_resource_large_request_not_starved;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
        ] );
      ( "condvar",
        [
          Alcotest.test_case "signal" `Quick test_condvar_signal;
          Alcotest.test_case "timeout" `Quick test_condvar_timeout;
          Alcotest.test_case "signal beats timeout" `Quick
            test_condvar_signal_beats_timeout;
          Alcotest.test_case "broadcast" `Quick test_condvar_broadcast;
          Alcotest.test_case "timed-out waiter skipped" `Quick
            test_condvar_timeout_then_signal_no_double_wake;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "writer not starved" `Quick
            test_rwlock_writer_not_starved;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "golden stream" `Quick test_rng_golden;
          Alcotest.test_case "draws do not allocate" `Quick
            test_rng_draws_do_not_allocate;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform_theta0;
        ] );
    ]
