(* crashmc smoke suite: run every scenario with a fixed seed and a bounded
   image budget, and enforce the acceptance bar:
   - >= 1000 distinct crash images explored across PMFS and HiNFS workloads,
   - zero invariant/durability violations on the real code,
   - the injected missing-fence fixture IS flagged (checker not vacuous),
   - fully deterministic given the seed.

   Wired into `dune runtest` through the crashmc-smoke alias; also runnable
   directly: dune exec test/crashmc_smoke.exe *)

module Crashmc = Hinfs_crashmc.Crashmc

let params =
  {
    Crashmc.seed = 42L;
    k_exhaustive = 10;
    samples_per_state = 28;
    max_images_per_state = 96;
    max_states = 40;
    recrash_states = 4;
    recrash_samples = 3;
    recrash_checks = 48;
  }

let () =
  Testkit.Soak.crash_suite ~min_images:1000 ~min_recovery_images:100
    "crashmc-smoke" params
