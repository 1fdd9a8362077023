(* Entry point aggregating every test suite in the repository. *)

let () =
  Alcotest.run "regalloc"
    (Test_support.suites
    @ Test_pool.suites
    @ Test_sched.suites
    @ Test_frontend.suites
    @ Test_ir.suites
    @ Test_analysis.suites
    @ Test_opt.suites
    @ Test_coloring.suites
    @ Test_alloc.suites
    @ Test_context.suites
    @ Test_check.suites
    @ Test_race.suites
    @ Test_build.suites
    @ Test_pipeline.suites
    @ Test_telemetry.suites
    @ Test_spill.suites
    @ Test_manyargs.suites
    @ Test_vm.suites
    @ Test_programs.suites
    @ Test_synth.suites
    @ Test_shapes.suites)
