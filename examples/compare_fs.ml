(* Run one workload across all the file systems of the paper's Table 3 and
   print a Fig. 7-style comparison row.

     dune exec examples/compare_fs.exe            (defaults to fileserver)
     dune exec examples/compare_fs.exe varmail *)

module Fixtures = Hinfs_harness.Fixtures
module Experiment = Hinfs_harness.Experiment
module Workload = Hinfs_workloads.Workload
module Filebench = Hinfs_workloads.Filebench

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fileserver" in
  let make =
    match name with
    | "fileserver" -> fun () -> Filebench.fileserver ()
    | "webserver" -> fun () -> Filebench.webserver ()
    | "webproxy" -> fun () -> Filebench.webproxy ()
    | "varmail" -> fun () -> Filebench.varmail ()
    | other -> Fmt.failwith "unknown workload %S" other
  in
  Fmt.pr "# %s on the paper's five file systems (4 threads, 100 ms window)@."
    name;
  let results =
    List.map
      (fun kind ->
        let result, _stats =
          Experiment.run_workload ~duration:100_000_000 kind (make ())
        in
        (Fixtures.name kind, result.Workload.ops_per_sec))
      Fixtures.paper_five
  in
  let pmfs = List.assoc "pmfs" results in
  List.iter
    (fun (fs, ops) ->
      Fmt.pr "%-14s %10.0f ops/s   %5.2fx pmfs@." fs ops (ops /. pmfs))
    results
