let () =
  Alcotest.run "tact"
    [
      ("prng", Test_prng.suite);
      ("pool", Test_pool.suite);
      ("stats-util", Test_stats.suite);
      (* The heap cases report under "sim", where they sat before the heap
         moved to tact_util, so their names are unchanged. *)
      ("sim", Test_heap.suite @ Test_sim.suite);
      ("store", Test_store.suite);
      ("wlog", Test_wlog.suite);
      ("wlog-model", Test_wlog_model.suite);
      ("codec", Test_codec.suite);
      ("batch", Test_batch.suite);
      ("core-model", Test_core_model.suite);
      ("protocols", Test_protocols.suite);
      ("replica", Test_replica.suite);
      ("truncation", Test_truncation.suite);
      ("sessions", Test_sessions.suite);
      ("crash", Test_crash.suite);
      ("trace", Test_trace.suite);
      ("analytic", Test_analytic.suite);
      ("edge", Test_edge.suite);
      ("scenario", Test_scenario.suite);
      ("spec", Test_spec.suite);
      ("verify", Test_verify.suite);
      ("soak", Test_soak.suite);
      ("models", Test_models.suite);
      ("apps", Test_apps.suite);
      ("experiments", Test_experiments.suite);
      ("analysis", Test_analysis.suite);
      ("sanitize", Test_sanitize.suite);
      ("check", Test_check.suite);
      ("shard", Test_shard.suite);
      ("nemesis", Test_nemesis.suite);
      ("transport", Test_transport.suite);
      ("strip", Test_strip.suite);
      ("staticcheck", Test_staticcheck.suite);
      ("effects", Test_effects.suite);
      ("smoke", Test_smoke.suite);
    ]
