//! The benchmark's determinism check: with the same seed, every count a
//! traced episode reports (prefix-cache and verdict-cache counters, topo
//! rounds and re-checks, accepted NI seeds and executions, probe
//! allocations) repeats exactly; another seed changes the inputs and
//! still matches every known answer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{traced_episode, WORKLOADS};

/// A few ops per workload: enough to touch every counter.
fn ops(workload: &str) -> u64 {
    match workload {
        "corpus-cold" => 64,
        "edit-stream" => 48,
        "topo-watch" => 64,
        _ => 256,
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for w in WORKLOADS {
        let a = traced_episode(w, 7, ops(w)).expect("workload runs");
        let b = traced_episode(w, 7, ops(w)).expect("workload runs");
        assert_eq!(a.ops, ops(w), "{w}");
        assert_eq!(a.failed, 0, "{w}");
        assert!(!a.counts.is_empty(), "{w}");
        assert_eq!(a.counts, b.counts, "{w}");
        assert_eq!(a.digest, b.digest, "{w}");
    }
}

#[test]
fn another_seed_changes_inputs_and_keeps_every_answer() {
    for w in WORKLOADS {
        let a = traced_episode(w, 7, ops(w)).expect("workload runs");
        let c = traced_episode(w, 8, ops(w)).expect("workload runs");
        assert_ne!(a.digest, c.digest, "{w}: the seed must change the inputs");
        assert_eq!(c.failed, 0, "{w}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(traced_episode("no-such-workload", 1, 1).is_err());
    assert!(perfbench::run("no-such-workload", 1, 1, false).is_err());
}
