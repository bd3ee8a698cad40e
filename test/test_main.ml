(* chaos-child mode: the kill/resume test re-executes this binary with
   SIMCOV_CHAOS_CHILD set to run a checkpointing campaign it can kill
   (Unix.fork is unavailable once domains exist) *)
let () =
  match Sys.getenv_opt "SIMCOV_CHAOS_CHILD" with
  | Some path -> Test_robustness.chaos_child_main path
  | None -> ()

let () =
  Alcotest.run "simcov"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("graph", Test_graph.suite);
      ("bdd", Test_bdd.suite);
      ("reorder", Test_reorder.suite);
      ("fsm", Test_fsm.suite);
      ("netlist", Test_netlist.suite);
      ("symbolic", Test_symbolic.suite);
      ("abstraction", Test_abstraction.suite);
      ("coverage", Test_coverage.suite);
      ("testgen", Test_testgen.suite);
      ("dlx", Test_dlx.suite);
      ("testmodel", Test_testmodel.suite);
      ("core", Test_core.suite);
      ("control", Test_control.suite);
      ("uio_wmethod", Test_uio_wmethod.suite);
      ("equiv", Test_equiv.suite);
      ("symtour", Test_symtour.suite);
      ("dsp", Test_dsp.suite);
      ("observability", Test_observability.suite);
      ("serialize", Test_serialize.suite);
      ("stuckat", Test_stuckat.suite);
      ("dual", Test_dual.suite);
      ("programs", Test_programs.suite);
      ("fig2", Test_fig2.suite);
      ("robustness", Test_robustness.suite);
      ("analysis", Test_analysis.suite);
      ("fsm_lint", Test_fsm_lint.suite);
      ("campaign", Test_campaign.suite);
      ("covdb", Test_covdb.suite);
      ("service", Test_service.suite);
      ("golden", Test_golden.suite);
    ]
