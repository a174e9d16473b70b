//! Shared-core regression: batch and fuzz workers must share one frozen
//! session core — the prelude is lexed, parsed, and type-checked exactly
//! once per core, never once per worker.
//!
//! Prelude checks are counted per session ([`SessionStats::prelude_checks`],
//! summed into a batch report's stats), so those assertions hold whatever
//! else runs in the process. Lexing and parsing are cached process-wide
//! and counted by [`p4bid_typeck::prelude_build_counts`]; each can reach at
//! most 1, whatever the test order.
//!
//! [`SessionStats::prelude_checks`]: p4bid_typeck::SessionStats::prelude_checks

use p4bid::batch::{check_batch_cold, check_batch_with_core, synthetic_corpus};
use p4bid::CheckOptions;
use p4bid_typeck::{prelude_build_counts, CheckerSession};

#[test]
fn workers_never_rebuild_the_prelude() {
    let inputs = synthetic_corpus(40);
    let opts = CheckOptions::ifc();

    // Warming a session to freeze it into a core type-checks the prelude
    // exactly once.
    let mut warm = CheckerSession::new(opts.clone());
    warm.warm();
    assert_eq!(warm.stats().prelude_checks, 1, "one prelude check per core");
    let core = warm.freeze();
    // The token slice and the parsed program are process-wide: at most one
    // build of each, ever, no matter how many sessions/cores exist.
    let after_core = prelude_build_counts();
    assert!(after_core.lexes <= 1, "{after_core:?}");
    assert!(after_core.parses <= 1, "{after_core:?}");

    // Checking a corpus over 8 workers off the shared core rebuilds
    // nothing: no re-lex, no re-parse, no re-check.
    let report = check_batch_with_core(&inputs, &core, 8);
    assert!(report.all_accepted(), "{}", report.render_table());
    assert_eq!(report.stats.workers, 8);
    assert_eq!(report.stats.sessions.prelude_checks, 0, "shared-core workers never re-check");
    assert_eq!(prelude_build_counts(), after_core, "shared-core workers never re-lex or re-parse");

    // The cold path (kept for the determinism comparison) pays one prelude
    // check per worker session — the warm-up the shared core eliminates.
    let cold = check_batch_cold(&inputs, &opts, 4);
    let cold_checks = cold.stats.sessions.prelude_checks;
    assert!(
        (1..=4).contains(&cold_checks),
        "cold workers each check the prelude, got {cold_checks}"
    );
    assert_eq!(prelude_build_counts(), after_core, "lexing and parsing stay process-wide");
}
