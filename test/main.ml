let () =
  Alcotest.run "umlfront"
    (Test_xml.suite @ Test_metamodel.suite @ Test_uml.suite @ Test_taskgraph.suite
   @ Test_simulink.suite @ Test_fsm.suite @ Test_schedule_compose.suite @ Test_guards.suite @ Test_cosim.suite @ Test_transform.suite @ Test_dataflow.suite
   @ Test_codegen.suite @ Test_blocks.suite @ Test_core.suite @ Test_extensions.suite @ Test_roundtrip.suite @ Test_robustness.suite @ Test_coverage.suite
   @ Test_integration.suite @ Test_obs.suite @ Test_telemetry.suite
   @ Test_trace_export.suite
   @ Test_parallel.suite @ Test_compiled.suite @ Test_context.suite @ Test_analysis.suite
   @ Test_conformance.suite @ Test_serve.suite @ Test_cli.suite)
