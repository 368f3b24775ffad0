let () =
  Alcotest.run "entangled"
    [
      ("monad", Test_monad.suite);
      ("lens", Test_lens.suite);
      ("tree", Test_tree.suite);
      ("symlens", Test_symlens.suite);
      ("algbx", Test_algbx.suite);
      ("relational", Test_relational.suite);
      ("rlens", Test_rlens.suite);
      ("of_lens (Lemma 4)", Test_of_lens.suite);
      ("of_algebraic (Lemma 5)", Test_of_algebraic.suite);
      ("of_symmetric (Lemma 6)", Test_of_symmetric.suite);
      ("translate (Lemmas 1-3)", Test_translate.suite);
      ("entanglement (S3.4)", Test_entanglement.suite);
      ("effectful (S4)", Test_effectful.suite);
      ("compose", Test_compose.suite);
      ("program", Test_program.suite);
      ("journal", Test_journal.suite);
      ("equivalence", Test_equivalence.suite);
      ("nondet (S5)", Test_nondet.suite);
      ("partial (S5)", Test_partial.suite);
      ("multiway", Test_multiway.suite);
      ("prob (S5)", Test_prob.suite);
      ("two-cell theory (S2)", Test_two_cell.suite);
      ("modelbx (MDE)", Test_modelbx.suite);
      ("span", Test_span.suite);
      ("undo", Test_undo.suite);
      ("minimize (quotient)", Test_minimize.suite);
      ("delta lens", Test_delta_lens.suite);
      ("fd", Test_fd.suite);
      ("query", Test_query.suite);
      ("certify", Test_certify.suite);
      ("config lens", Test_config_lens.suite);
      ("dml", Test_dml.suite);
      ("row delta (incremental put)", Test_row_delta.suite);
      ("command optimizer", Test_command.suite);
      ("law inference", Test_law_infer.suite);
      ("lint", Test_lint.suite);
      ("integration", Test_integration.suite);
      ("chaos (atomic + fault injection)", Test_atomic.suite);
      ("sync (replicated store)", Test_sync.suite);
      ("wire renderer (byte identity)", Test_wire_render.suite);
      ("transport (real net + chaos net)", Test_transport.suite);
      ("durable log", Test_durable_log.suite);
      ("shard (gossip + compaction)", Test_shard.suite);
      ("incr (reactive recomputation)", Test_incr.suite);
      ("served lens (put by delta)", Test_served.suite);
      ("soak (one driver, history oracle)", Test_soak.suite);
      (* last: registers into the shared catalog (see its header note) *)
      ("esmql (law-checked query front-end)", Test_ql.suite);
    ]
