let () =
  Alcotest.run "sdiq"
    [
      ("util", Suite_util.suite);
      ("isa", Suite_isa.suite);
      ("exec", Suite_exec.suite);
      ("exec-edge", Suite_exec_edge.suite);
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
      ("sampling", Suite_sampling.suite);
      ("parallel", Suite_parallel.suite);
      ("edge", Suite_edge.suite);
      ("tools", Suite_tools.suite);
      ("properties", Suite_properties.suite);
      ("check", Suite_check.suite);
      ("sched", Suite_sched.suite);
      ("events", Suite_events.suite);
      ("quiet", Suite_quiet.suite);
      ("obs", Suite_obs.suite);
      ("telemetry", Suite_telemetry.suite);
      ("tighten", Suite_tighten.suite);
      ("certificate", Suite_certificate.suite);
      ("golden", Suite_golden.suite);
    ]
