(* SMARTS sampling and the parallel campaign, the longest-running
   suites (see test_main.ml for the split). *)

let () =
  Test_util.run_split "sdiq-sampling"
    [
      ("sampling", Suite_sampling.suite);
      ("parallel", Suite_parallel.suite);
    ]
