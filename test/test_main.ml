(* The unit and property suites, split over three test executables so
   `dune runtest` runs them in parallel: this one (ISA, analysis, core,
   cpu, power, workloads, tools, observation), [test_pipeline] (the
   checker, scheduler, event and quiet-cycle suites) and [test_sampling]
   (SMARTS sampling and the parallel campaign). Group and test names,
   as printed, are the same wherever a group runs. *)

let () =
  Test_util.run_split "sdiq"
    [
      ("util", Suite_util.suite);
      ("isa", Suite_isa.suite);
      ("exec", Suite_exec.suite);
      ("exec-edge", Suite_exec_edge.suite);
      ("decoded", Suite_decoded.suite);
      ("cfg", Suite_cfg.suite);
      ("analysis", Suite_analysis.suite);
      ("ddg", Suite_ddg.suite);
      ("core", Suite_core.suite);
      ("core-more", Suite_core_more.suite);
      ("cpu", Suite_cpu.suite);
      ("cpu-more", Suite_cpu_more.suite);
      ("power", Suite_power.suite);
      ("workloads", Suite_workloads.suite);
      ("harness", Suite_harness.suite);
      ("edge", Suite_edge.suite);
      ("tools", Suite_tools.suite);
      ("properties", Suite_properties.suite);
      ("telemetry", Suite_telemetry.suite);
      ("tighten", Suite_tighten.suite);
      ("certificate", Suite_certificate.suite);
      ("obs", Suite_obs.suite);
      ("fastpath", Suite_fastpath.suite);
      ("golden", Suite_golden.suite);
    ]
