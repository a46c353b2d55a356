let suites =
  [
    ("rng", Test_rng.suite);
    ("eheap", Test_eheap.suite);
    ("engine", Test_engine.suite);
    ("queues", Test_queues.suite);
    ("link-net-topology", Test_link_net.suite);
    ("transport", Test_transport.suite);
    ("protocols", Test_protocols.suite);
    ("pdq", Test_pdq.suite);
    ("d3", Test_d3.suite);
    ("baselines", Test_baselines.suite);
    ("arbitration", Test_arbitration.suite);
    ("water-fill", Test_water_fill.suite);
    ("alloc", Test_alloc.suite);
    ("pase-core", Test_pase_core.suite);
    ("stats", Test_stats.suite);
    ("streaming", Test_streaming.suite);
    ("workload", Test_workload.suite);
    ("determinism", Test_determinism.suite);
    ("extensions", Test_extensions.suite);
    ("properties", Test_properties.suite);
    ("fat-tree", Test_fat_tree.suite);
    ("telemetry", Test_telemetry.suite);
    ("trace", Test_trace.suite);
    ("attrib", Test_attrib.suite);
    ("behaviours", Test_behaviours.suite);
    ("faults", Test_faults.suite);
    ("laws", Test_laws.suite);
  ]

let () =
  match Sys.getenv_opt "QCHECK_SWEEP" with
  | Some n -> Qseed.sweep ~seeds:(int_of_string n)
  | None -> Alcotest.run "pase-repro" suites
