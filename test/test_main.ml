let () =
  Alcotest.run "pgvn"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("ssa", Test_ssa.suite);
      ("check", Test_check.suite);
      ("absint", Test_absint.suite);
      ("schedule", Test_schedule.suite);
      ("expr", Test_expr.suite);
      ("rules", Test_rules.suite);
      ("infer", Test_infer.suite);
      ("gvn", Test_gvn.suite);
      ("phipred", Test_phipred.suite);
      ("differential", Test_differential.suite);
      ("paper", Test_paper.suite);
      ("baselines", Test_baselines.suite);
      ("transform", Test_transform.suite);
      ("gcm", Test_gcm.suite);
      ("validate", Test_validate.suite);
      ("pred", Test_pred.suite);
      ("par", Test_par.suite);
      ("cli", Test_cli.suite);
      ("workload", Test_workload.suite);
      ("stats", Test_stats.suite);
      ("touch", Test_touch.suite);
    ]
