//! `ni-fuzz`: `p4bid fuzz --jobs 1` over seeded generated programs.
//!
//! Why: the only workload where the interpreter and the non-interference
//! harness (`ni`) do most of the work. About a quarter of the generated
//! programs are accepted, and each accepted one is run through 30 pairs of
//! executions, costing far more than a rejected one. The programs are
//! small, so `syntax` and `typeck` are minor.
//!
//! Inputs: a seeded range of generator seeds with the `p4bid fuzz`
//! settings (`GenConfig::default()`, 30 NI runs). The known answer: no
//! soundness violation and no panic on any seed.
//!
//! An op (and a latency sample) is one seed through `fuzz_seed` on one
//! session of a frozen core, the way a `run_fuzz` worker runs them, traced
//! or not. `run_fuzz` itself always fuzzes seeds `0..n`, so it cannot take
//! a seeded input range. The traced run splits a seed into
//! `random_program`, the check and `check_non_interference` afterwards, in
//! the probe. One worker rather than `nproc`, for the reason given in
//! `corpus_cold`.

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::{Outcome, Workload};
use p4bid::fuzz::{fuzz_seed, SeedOutcome};
use p4bid::ni::{check_non_interference, random_program, GenConfig, NiConfig, NiOutcome};
use p4bid::{CheckOptions, SharedSessionCore};
use std::time::Instant;

/// NI runs per accepted program, as `p4bid fuzz` sets them.
const NI_RUNS: usize = 30;

/// The prepared workload.
#[derive(Debug)]
pub struct NiFuzz {
    /// First generator seed.
    base: u64,
    gen: GenConfig,
    ni: NiConfig,
}

/// The set-up: the frozen core the fuzz session comes from.
pub struct State {
    core: SharedSessionCore,
}

impl NiFuzz {
    /// The seed range for `seed`.
    #[must_use]
    pub fn prepare(seed: u64) -> Self {
        NiFuzz {
            base: Rng::new(seed, 31).next_u64() >> 24,
            gen: GenConfig::default(),
            ni: NiConfig::default().with_runs(NI_RUNS),
        }
    }

    fn worker(&self, core: &SharedSessionCore, ops: u64, tr: &mut Tracer) -> Outcome {
        let mut session = core.session();
        let mut out = Outcome::default();
        for i in 0..ops {
            let seed = self.base + i;
            tr.set_op(i);
            let t = Instant::now();
            let cpu = crate::util::cpu_us(false);
            let root = tr.begin("op");
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tr.time("ni.fuzz_seed", || fuzz_seed(&mut session, seed, &self.gen, &self.ni))
            }));
            tr.end(root);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            let us = crate::util::cpu_us(false) - cpu;
            out.sample(us, wall_us, 1);
            out.ops += 1;
            match result {
                Ok(SeedOutcome::Accepted | SeedOutcome::Rejected) => {}
                Ok(_) => out.fail(format!("seed {seed}: soundness violation")),
                Err(_) => {
                    session = core.session();
                    out.fail(format!("seed {seed}: panicked"));
                }
            }
        }
        out.count_prefix(&session.stats());
        out
    }

    /// Probes every seed of the episode on this thread, after the timed
    /// part: `random_program`, the syntax and check layers, and, for an
    /// accepted program, `check_non_interference` (the interpreter runs
    /// inside it). Each call is a span under a `probe` root.
    fn probe(&self, tr: &mut Tracer, out: &mut Outcome) {
        let mut probe = Probe::new();
        let cold = SharedSessionCore::new(CheckOptions::ifc());
        let ni_core = SharedSessionCore::new(CheckOptions::ifc());
        let mut session = ni_core.session();
        let (mut accepted, mut executions) = (0u64, 0u64);
        for i in 0..out.ops {
            tr.set_op(i);
            let root = tr.begin("probe");
            let gp = tr.time("ni.random_program", || random_program(self.base + i, &self.gen));
            tr.end(root);
            probe.run(tr, &gp.source, &cold);
            let Ok(typed) = session.check(&gp.source) else { continue };
            accepted += 1;
            let root = tr.begin("probe");
            let outcome = tr.time("ni.check_non_interference", || {
                check_non_interference(&typed, &gp.control_plane, "Fuzz", &self.ni)
            });
            tr.end(root);
            match outcome {
                NiOutcome::Holds { runs } => executions += 2 * runs as u64,
                NiOutcome::Leak(_) => {
                    out.fail(format!("seed {}: probe found a leak", self.base + i))
                }
                NiOutcome::Error(_) => {}
            }
        }
        out.count("ni.accepted", accepted as f64);
        out.count("ni.executions", executions as f64);
        out.layer.insert("ni.accept_share", accepted as f64 / out.ops.max(1) as f64);
        probe.report(out);
    }
}

impl Workload for NiFuzz {
    type State = State;

    fn setup(&self, tr: &mut Tracer) -> State {
        let core = tr
            .time("typeck.SharedSessionCore::new", || SharedSessionCore::new(CheckOptions::ifc()));
        State { core }
    }

    fn run(&self, st: &mut State, ops: u64, tr: &mut Tracer) -> Outcome {
        let start = Instant::now();
        let mut out = self.worker(&st.core, ops, tr);
        let wall_us = start.elapsed().as_secs_f64() * 1e6;
        let busy_us: f64 = out.samples.iter().map(|s| s.us).sum();
        out.efficiency = Some(busy_us / wall_us);
        if tr.is_on() {
            let n = out.ops.max(1) as f64;
            out.layer.insert("batch.driver_us", (wall_us - busy_us) / n);
            self.probe(tr, &mut out);
        }
        out
    }

    fn digest(&self) -> u64 {
        self.base
    }

    fn episode_ops(&self) -> u64 {
        2048
    }
}
