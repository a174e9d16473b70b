//! Publish-once regression: a program-supplied lattice builds its
//! checked prelude state once per shared core, never once per worker.
//!
//! Kept in its own test binary: building a core bumps the process-wide
//! prelude counters that `shared_core.rs` measures deltas of, so the two
//! must never share a process.

use p4bid::batch::{check_batch_with_core, BatchInput};
use p4bid::CheckOptions;
use p4bid_typeck::SharedSessionCore;

/// Program-supplied lattices build their prelude state once per *core*,
/// not once per worker: the publish-once side table serializes the first
/// build under its lock and every sibling session adopts the published
/// state. A renamed two-point chain is used because its label indices
/// coincide with the frozen warm lattice's, so the built state is
/// tier-pure and publishable.
#[test]
fn program_lattices_publish_prelude_state_once_across_workers() {
    let lat = "lattice { lo < hi; }\n";
    let inputs: Vec<BatchInput> = (0..40)
        .map(|i| {
            BatchInput::new(
                format!("chain-{i:02}"),
                format!(
                    "{lat}control C{i}(inout <bit<8>, lo> x) {{ apply {{ x = x + 8w{}; }} }}",
                    i % 9
                ),
            )
        })
        .collect();
    let core = SharedSessionCore::new(CheckOptions::ifc());
    let report = check_batch_with_core(&inputs, &core, 8);
    assert!(report.all_accepted(), "{}", report.render_table());
    let s = report.stats.sessions;
    assert_eq!(
        s.lattice_states_published, 1,
        "exactly one worker builds the chain prelude state: {s:?}"
    );

    // Resubmitting the same corpus rebuilds nothing: every worker adopts
    // the published lattice state — no second build, no second publish.
    // The item memo is pay-on-reuse, so this second sighting of each
    // control records it (40 inserts, 0 hits)…
    let again = check_batch_with_core(&inputs, &core, 8);
    assert_eq!(report.to_json(), again.to_json(), "warm reports are byte-identical");
    let s2 = again.stats.sessions;
    assert_eq!(s2.lattice_states_published, 0, "{s2:?}");
    assert_eq!((s2.prefix_inserts, s2.prefix_hits), (40, 0), "{s2:?}");
    // …and the third answers every control from the memo, under the
    // lattice the declaration resolves to.
    let third = check_batch_with_core(&inputs, &core, 8);
    assert_eq!(report.to_json(), third.to_json(), "memo answers are byte-identical");
    let s3 = third.stats.sessions;
    assert_eq!(s3.lattice_states_published, 0, "{s3:?}");
    assert_eq!(s3.prefix_hits, 40, "every control is reused past the lattice decl: {s3:?}");
}
