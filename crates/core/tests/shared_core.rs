//! Shared-core regression: batch and fuzz workers must share one frozen
//! session core — the prelude is lexed, parsed, and type-checked exactly
//! once per core, never once per worker.
//!
//! The typeck crate counts prelude builds process-wide
//! ([`p4bid_typeck::prelude_build_counts`]); everything here runs inside
//! one `#[test]` so the counter deltas are not interleaved by the test
//! harness's thread pool.

use p4bid::batch::{check_batch, check_batch_cold, check_batch_with_core, synthetic_corpus};
use p4bid::CheckOptions;
use p4bid_typeck::{prelude_build_counts, SharedSessionCore};

#[test]
fn workers_never_rebuild_the_prelude() {
    let inputs = synthetic_corpus(40);
    let opts = CheckOptions::ifc();

    // Freezing a core type-checks the prelude exactly once.
    let before_core = prelude_build_counts();
    let core = SharedSessionCore::new(opts.clone());
    let after_core = prelude_build_counts();
    assert_eq!(after_core.checks - before_core.checks, 1, "one prelude check per core");
    // The token slice and the parsed program are process-wide: at most one
    // build of each, ever, no matter how many sessions/cores exist.
    assert!(after_core.lexes <= 1, "{after_core:?}");
    assert!(after_core.parses <= 1, "{after_core:?}");

    // Checking a corpus over 8 workers off the shared core rebuilds
    // nothing: no re-lex, no re-parse, no re-check.
    let report = check_batch_with_core(&inputs, &core, 8);
    assert!(report.all_accepted(), "{}", report.render_table());
    let after_batch = prelude_build_counts();
    assert_eq!(after_batch, after_core, "shared-core workers must not rebuild the prelude");

    // `check_batch` freezes its own core: exactly one more check.
    let _ = check_batch(&inputs, &opts, 8);
    let after_owned = prelude_build_counts();
    assert_eq!(after_owned.checks - after_batch.checks, 1);

    // The cold path (kept for the determinism comparison) pays one prelude
    // check per worker session — the warm-up the shared core eliminates.
    let _ = check_batch_cold(&inputs, &opts, 4);
    let after_cold = prelude_build_counts();
    let cold_checks = after_cold.checks - after_owned.checks;
    assert!(
        (1..=4).contains(&cold_checks),
        "cold workers each check the prelude, got {cold_checks}"
    );
    assert_eq!(after_cold.lexes, after_core.lexes, "lexing stays process-wide even when cold");
    assert_eq!(after_cold.parses, after_core.parses, "parsing stays process-wide even when cold");
}
