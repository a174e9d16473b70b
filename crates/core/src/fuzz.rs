//! Parallel soundness fuzzing: generate random programs, check them, and
//! run the accepted ones through the non-interference harness — across
//! cores, with reports byte-identical to the serial run.
//!
//! Seeds are the tasks of the crate's worker pool, the one `p4bid batch`
//! uses (see "The worker pool" in `docs/ARCHITECTURE.md`): each worker
//! generates its programs locally (generation is a pure function of the
//! seed) and records one [`SeedOutcome`] per seed; a violation stops the
//! run at the lowest violating seed.
//! Checker state comes from one frozen [`SharedSessionCore`] — the prelude
//! is lexed/parsed/checked once per run, not once per worker — and each
//! worker checks through a private overlay session cloned off it
//! ([`run_fuzz_cold`] keeps the per-worker cold-session path alive for the
//! determinism comparison). Results are merged **by seed**, never by
//! completion order, so the final [`FuzzReport`] — including which
//! violation is reported when several seeds fail — is identical for every
//! worker count and for both session paths. The determinism regression
//! suite pins this down end to end.

use crate::batch::BatchStats;
use p4bid_ni::{check_non_interference, random_program, GenConfig, NiConfig, NiOutcome};
use p4bid_typeck::{CheckOptions, CheckerSession, SharedSessionCore};

/// What happened on one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedOutcome {
    /// The checker accepted the program and the harness found no leak.
    Accepted,
    /// The checker rejected the program (expected for unsafe generations).
    Rejected,
    /// The checker accepted the program but the harness found a leak — a
    /// soundness violation. Carries the generated source and the rendered
    /// witness.
    Violation {
        /// The generated program text.
        source: String,
        /// The rendered [`LeakWitness`](p4bid_ni::LeakWitness).
        witness: String,
    },
    /// Checking this seed panicked inside an isolated worker (a checker
    /// bug or an injected `P4BID_FAULTS` fault). Not a soundness
    /// violation: the run continues, and the seed is counted separately.
    Panicked,
}

/// The merged outcome of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seeds fuzzed (`0..total`). When a violation is found the run may
    /// have stopped early; `accepted + rejected` then covers only the
    /// seeds below the violating one.
    pub total: u64,
    /// Programs the IFC checker accepted (all non-interfering unless
    /// `violation` is set).
    pub accepted: u64,
    /// Programs the IFC checker rejected.
    pub rejected: u64,
    /// Seeds whose check panicked inside an isolated worker (0 outside
    /// chaos runs; also surfaced as the `panics` stats counter).
    pub panicked: u64,
    /// The lowest-seed soundness violation, if any.
    pub violation: Option<(u64, SeedOutcome)>,
    /// Aggregated interner/pool tier statistics across the workers
    /// (reporting only — excluded from the deterministic report contract;
    /// `p4bid fuzz --stats-json` prints them on stderr).
    pub stats: BatchStats,
}

impl FuzzReport {
    /// Whether the soundness theorem survived the run.
    #[must_use]
    pub fn sound(&self) -> bool {
        self.violation.is_none()
    }
}

/// Fuzzes one seed: generate, check against the (reused, per-worker)
/// session, and on accept run the NI harness. Session verdicts are
/// identical to one-shot `check_source` (the session test suite asserts
/// this), so reports stay comparable across entry points.
#[must_use]
pub fn fuzz_seed(
    session: &mut CheckerSession,
    seed: u64,
    cfg: &GenConfig,
    ni_cfg: &NiConfig,
) -> SeedOutcome {
    let gp = random_program(seed, cfg);
    // Generation is pure in the seed, so keying injected faults on the
    // generated source keeps chaos runs worker-count independent, exactly
    // like `batch`.
    let deadline = session.options().deadline_from_now();
    session.set_deadline(deadline);
    crate::faults::check_faults(&gp.source);
    match session.check(&gp.source) {
        Ok(typed) => {
            let out = check_non_interference(&typed, &gp.control_plane, "Fuzz", ni_cfg);
            if let NiOutcome::Leak(w) = &out {
                SeedOutcome::Violation { source: gp.source, witness: w.to_string() }
            } else {
                SeedOutcome::Accepted
            }
        }
        Err(_) => SeedOutcome::Rejected,
    }
}

/// Fuzzes seeds `0..n` on `jobs` workers (`0` = one per core), all
/// sharing one frozen session core; the run stops at the first violation.
///
/// The report is deterministic in `(n, cfg, ni_cfg)` and independent of
/// `jobs`: accepted/rejected totals count only seeds *below* the first
/// violating seed, exactly as a serial early-exiting loop would see them.
#[must_use]
pub fn run_fuzz(n: u64, cfg: &GenConfig, ni_cfg: &NiConfig, jobs: usize) -> FuzzReport {
    let core = SharedSessionCore::new(CheckOptions::ifc());
    run_fuzz_with(n, cfg, ni_cfg, jobs, || core.session())
}

/// [`run_fuzz`] on the pre-shared-core path: every worker builds its own
/// cold session. Kept so the determinism suite can assert the shared-core
/// reports are byte-identical to the historical per-worker-session output.
#[must_use]
pub fn run_fuzz_cold(n: u64, cfg: &GenConfig, ni_cfg: &NiConfig, jobs: usize) -> FuzzReport {
    run_fuzz_with(n, cfg, ni_cfg, jobs, || CheckerSession::new(CheckOptions::ifc()))
}

/// The shared driver: fans seeds over the crate's worker pool, each worker
/// owning one session produced by `make_session`. A panicking seed becomes
/// [`SeedOutcome::Panicked`]; a violation stops the run, and the pool skips
/// every seed above the lowest violating one — seeds the merge would never
/// count and a serial early-exiting loop would never have reached.
fn run_fuzz_with(
    n: u64,
    cfg: &GenConfig,
    ni_cfg: &NiConfig,
    jobs: usize,
    make_session: impl Fn() -> CheckerSession + Sync,
) -> FuzzReport {
    let run = crate::pool::run(
        usize::try_from(n).unwrap_or(usize::MAX),
        jobs,
        &make_session,
        false,
        &|session, i| (i as u64, fuzz_seed(session, i as u64, cfg, ni_cfg)),
        &|i| (i as u64, SeedOutcome::Panicked),
        &|(_, o)| matches!(o, SeedOutcome::Violation { .. }),
    );
    let mut report = merge_by_seed(n, run.results);
    report.stats = run.stats;
    report.stats.panics = report.panicked;
    report
}

/// Merges per-seed outcomes into the canonical report: the lowest-seed
/// violation wins, and accept/reject totals cover exactly the seeds below
/// it (matching a serial early-exiting run).
fn merge_by_seed(total: u64, mut outcomes: Vec<(u64, SeedOutcome)>) -> FuzzReport {
    outcomes.sort_by_key(|&(seed, _)| seed);
    let mut report = FuzzReport {
        total,
        accepted: 0,
        rejected: 0,
        panicked: 0,
        violation: None,
        stats: BatchStats::default(),
    };
    for (seed, outcome) in outcomes {
        match outcome {
            SeedOutcome::Accepted => report.accepted += 1,
            SeedOutcome::Rejected => report.rejected += 1,
            SeedOutcome::Panicked => report.panicked += 1,
            v @ SeedOutcome::Violation { .. } => {
                report.violation = Some((seed, v));
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ni() -> NiConfig {
        NiConfig::default().with_runs(5)
    }

    #[test]
    fn serial_and_parallel_reports_agree() {
        let cfg = GenConfig::default();
        let ni = quick_ni();
        let serial = run_fuzz(20, &cfg, &ni, 1);
        for jobs in [2, 4] {
            let par = run_fuzz(20, &cfg, &ni, jobs);
            assert_eq!(serial.accepted, par.accepted, "jobs={jobs}");
            assert_eq!(serial.rejected, par.rejected, "jobs={jobs}");
            assert_eq!(serial.violation.is_some(), par.violation.is_some(), "jobs={jobs}");
        }
    }

    #[test]
    fn fuzzing_is_deterministic_per_seed() {
        let cfg = GenConfig::default();
        let ni = quick_ni();
        let mut s1 = CheckerSession::new(CheckOptions::ifc());
        let mut s2 = CheckerSession::new(CheckOptions::ifc());
        for seed in 0..10 {
            assert_eq!(fuzz_seed(&mut s1, seed, &cfg, &ni), fuzz_seed(&mut s2, seed, &cfg, &ni));
        }
    }

    #[test]
    fn shared_core_and_cold_fuzz_reports_agree() {
        let cfg = GenConfig::default();
        let ni = quick_ni();
        for jobs in [1, 2] {
            let cold = run_fuzz_cold(15, &cfg, &ni, jobs);
            let shared = run_fuzz(15, &cfg, &ni, jobs);
            assert_eq!(cold.accepted, shared.accepted, "jobs={jobs}");
            assert_eq!(cold.rejected, shared.rejected, "jobs={jobs}");
            assert_eq!(cold.violation, shared.violation, "jobs={jobs}");
        }
    }

    #[test]
    fn shared_core_sessions_fuzz_identically_to_cold_ones() {
        let cfg = GenConfig::default();
        let ni = quick_ni();
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let mut shared = core.session();
        let mut cold = CheckerSession::new(CheckOptions::ifc());
        for seed in 0..10 {
            assert_eq!(
                fuzz_seed(&mut shared, seed, &cfg, &ni),
                fuzz_seed(&mut cold, seed, &cfg, &ni),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn lowest_violating_seed_wins_the_merge() {
        let boom = |s: &str| SeedOutcome::Violation { source: s.into(), witness: String::new() };
        let report = merge_by_seed(
            5,
            vec![
                (3, boom("late")),
                (0, SeedOutcome::Accepted),
                (1, boom("early")),
                (2, SeedOutcome::Rejected),
                (4, SeedOutcome::Accepted),
            ],
        );
        let (seed, SeedOutcome::Violation { source, .. }) = report.violation.clone().unwrap()
        else {
            panic!()
        };
        assert_eq!(seed, 1);
        assert_eq!(source, "early");
        // Counts cover only seeds below the violation, like a serial run.
        assert_eq!((report.accepted, report.rejected), (1, 0));
        assert!(!report.sound());
    }

    #[test]
    fn clean_merge_counts_everything() {
        let report = merge_by_seed(
            3,
            vec![
                (2, SeedOutcome::Rejected),
                (0, SeedOutcome::Accepted),
                (1, SeedOutcome::Accepted),
            ],
        );
        assert!(report.sound());
        assert_eq!((report.accepted, report.rejected), (2, 1));
    }

    #[test]
    fn panicked_seeds_are_counted_but_do_not_stop_the_run() {
        let report = merge_by_seed(
            4,
            vec![
                (0, SeedOutcome::Accepted),
                (1, SeedOutcome::Panicked),
                (2, SeedOutcome::Rejected),
                (3, SeedOutcome::Accepted),
            ],
        );
        assert!(report.sound(), "a panic is an isolation event, not a soundness violation");
        assert_eq!((report.accepted, report.rejected, report.panicked), (2, 1, 1));
    }
}
