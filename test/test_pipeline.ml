(* Pipeline suites: the invariant checker, scheduler policies, the
   event bus and quiet-cycle skipping (see test_main.ml for the
   split). *)

let () =
  Test_util.run_split "sdiq-pipeline"
    [
      ("check", Suite_check.suite);
      ("sched", Suite_sched.suite);
      ("events", Suite_events.suite);
      ("quiet", Suite_quiet.suite);
    ]
