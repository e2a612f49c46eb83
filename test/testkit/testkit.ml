(* Shared helpers for the test suites. *)

module Engine = Hinfs_sim.Engine
module Proc = Hinfs_sim.Proc
module Rng = Hinfs_sim.Rng
module Stats = Hinfs_stats.Stats
module Config = Hinfs_nvmm.Config
module Device = Hinfs_nvmm.Device

(* Spawn [f] as the root process of [engine] and run the engine until the
   process tree finishes; [None] if [f] never returned. *)
let run_root ?(name = "test") engine f =
  let result = ref None in
  Engine.spawn engine ~name (fun () -> result := Some (f engine));
  Engine.run engine;
  !result

(* Run [f] inside a fresh simulation and return its result. *)
let run_sim f =
  match run_root (Engine.create ()) f with
  | Some r -> r
  | None -> Alcotest.fail "simulation did not complete the test process"

(* A small device configuration for unit tests: 8 MB NVMM. *)
let small_config =
  { Config.default with Config.nvmm_size = 8 * 1024 * 1024 }

let make_device ?(config = small_config) ?stats engine =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  Device.create engine stats config

(* An image's bytes, flat, for tests that index or print a medium. *)
let image_bytes ?(config = small_config) image =
  let d =
    Device.of_snapshot (Engine.create ()) (Stats.create ()) config image
  in
  Device.peek_persistent d ~addr:0 ~len:(Device.size d)

(* Fresh PMFS on a fresh device, inside a running simulation. *)
let make_pmfs ?config ?stats ?(sync_mount = false) engine =
  let device = make_device ?config ?stats engine in
  let fs =
    Hinfs_pmfs.Pmfs.mkfs_and_mount device ~journal_blocks:32 ~sync_mount ()
  in
  (device, fs)

(* Fresh HiNFS on a fresh device, inside a running simulation. Daemons are
   off by default so the engine drains when the test finishes; pass
   [daemons:true] and remember to unmount. *)
let make_hinfs ?config ?stats ?hcfg ?(sync_mount = false) ?(daemons = false)
    engine =
  let device = make_device ?config ?stats engine in
  let fs =
    Hinfs.Fs.mkfs_and_mount device ~journal_blocks:32 ?hcfg ~sync_mount
      ~daemons ()
  in
  (device, fs)

(* A small HiNFS buffer configuration for unit tests. *)
let small_hcfg =
  { Hinfs.Hconfig.default with Hinfs.Hconfig.buffer_bytes = 256 * 4096 }

(* Deterministic pseudo-random payload. *)
let pattern_bytes ~seed len =
  let rng = Rng.create ~seed:(Int64.of_int (seed * 7919)) in
  Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

(* Convert qcheck tests to alcotest cases. *)
let qcheck_cases tests = List.map QCheck_alcotest.to_alcotest tests

(* --- soak kit ---

   The skeleton the soak and crashmc executables share: the seed,
   seed-prefixed failures, simulation runs under the observability sink,
   the run-twice determinism check and the final verdict. A soak keeps
   only its workload, its oracle and its non-vacuity checks. *)
module Soak = struct
  module Obs = Hinfs_obs.Obs
  module Crashmc = Hinfs_crashmc.Crashmc

  type t = { name : string; seed : int64; mutable failures : string list }

  (* SOAK_SEED=<int64> overrides [default_seed], to reproduce or widen a
     failure; every failure message carries the seed that produced it. An
     empty value counts as unset; a malformed one stops the soak. *)
  let create ~default_seed name =
    let seed =
      match Sys.getenv_opt "SOAK_SEED" with
      | None | Some "" -> default_seed
      | Some s -> (
        match Int64.of_string_opt s with
        | Some seed -> seed
        | None ->
          Fmt.epr "%s: SOAK_SEED=%S is not a 64-bit integer@." name s;
          exit 2)
    in
    { name; seed; failures = [] }

  let fail t fmt =
    Fmt.kstr
      (fun s -> t.failures <- Fmt.str "[seed %Ld] %s" t.seed s :: t.failures)
      fmt

  (* Run [f] inside a fresh simulation and return its result. With [obs]
     the observability sink is installed for the run, and once the engine
     drains every span must have closed, in order: spans opened on a
     failure path must unwind too. *)
  let run ?(obs = false) t f =
    let engine = Engine.create () in
    let sink = if obs then Some (Obs.create engine) else None in
    Option.iter Obs.install sink;
    let result = run_root ~name:t.name engine f in
    Option.iter
      (fun o ->
        if Obs.open_spans o > 0 || Obs.mismatches o > 0 then
          fail t "span accounting broken (%d open, %d mismatched)"
            (Obs.open_spans o) (Obs.mismatches o);
        Obs.uninstall ())
      sink;
    match result with
    | Some r -> r
    | None ->
      Fmt.failwith "%s: simulation did not complete (seed %Ld)" t.name t.seed

  (* Arm [device]'s recorder for a seeded crash point: keep the newest
     crash state at or before fence [target] (fences counted from 0),
     labelled [label fence] and paired with [meta fence] taken at the same
     moment. Memory stays bounded whatever the run length. *)
  let crash_point device ~target ~label meta =
    let captured = ref None in
    Crashmc.on_pending_fence device (fun fence ->
        if fence <= target then
          captured :=
            Some
              ( Device.capture_crash_state ~label:(label fence) device,
                meta fence ));
    captured

  (* Run [f] twice; the runs must agree bit for bit. Returns the first. *)
  let deterministic t f =
    let first = f () in
    if f () <> first then fail t "two runs with the same seed disagree";
    first

  (* Print the verdict; any failure exits 1. *)
  let finish t =
    match List.rev t.failures with
    | [] -> Fmt.pr "%s OK@." t.name
    | fs ->
      List.iter (Fmt.epr "%s FAIL: %s@." t.name) fs;
      exit 1

  (* Run every crashmc scenario at [params] (SOAK_SEED overrides its
     seed), print the report, and hold it to the acceptance bar: the given
     minimum coverage, zero violations on the real code, every buggy
     fixture flagged (the checker is not vacuous), and the same report from
     a second run. *)
  let crash_suite ?(min_images = 0) ?(min_recovery_states = 0)
      ~min_recovery_images name params =
    let t = create ~default_seed:params.Crashmc.seed name in
    let params = { params with Crashmc.seed = t.seed } in
    let report =
      deterministic t (fun () ->
          Crashmc.run_suite ~params Hinfs_crashmc.Scenarios.all)
    in
    Fmt.pr "%a@." Crashmc.pp_report report;
    let at_least what count bar =
      let n = Crashmc.total count report in
      if n < bar then fail t "only %d %s (need >= %d)" n what bar
    in
    at_least "distinct crash images explored"
      (fun r -> r.sr_images) min_images;
    at_least "recovery-phase crash states captured"
      (fun r -> r.sr_recovery_states) min_recovery_states;
    at_least "crash-during-recovery images verified"
      (fun r -> r.sr_recovery_images) min_recovery_images;
    (match Crashmc.unexpected_violations report with
    | [] -> ()
    | (sc, st, v) :: _ as vs ->
      fail t "%d unexpected violation(s), e.g. [%s/%s] %s" (List.length vs)
        sc st v);
    (match Crashmc.missed_fixtures report with
    | [] -> ()
    | ms -> fail t "buggy fixture(s) not flagged: %s" (String.concat ", " ms));
    finish t
end
