//! The paired-execution non-interference harness: an executable analogue
//! of Definition 4.2 / Theorem 4.3.
//!
//! Given a typechecked program and a control plane, the harness repeatedly:
//!
//! 1. draws a random input packet (the control's parameter values),
//! 2. scrambles every field whose label is not `⊑ l` to get a second,
//!    low-equivalent input (the two initial stores of Definition 4.1),
//! 3. runs both packets under the *same* control plane `C`,
//! 4. checks that the final parameter values agree at every observable
//!    leaf and that the control-flow signals agree (clause 7: both runs
//!    `cont`, or both `exit`).
//!
//! For programs accepted by the IFC checker the theorem says no difference
//! can ever appear; for the seeded-buggy case-study variants the harness
//! finds a concrete [`LeakWitness`] demonstrating the interference.
//!
//! A check prepares the control once ([`Interp::prepare`]) and runs both
//! packets of every pair on that one prepared control, as the sequence
//! check does for every round; only `apply` (and any control-level `var`
//! initializer) is evaluated per execution. A prepared run gives exactly the outcome of a
//! fresh [`run_control`](p4bid_interp::run_control) (see the module docs of
//! `p4bid_interp`), so the witnesses are the ones an unprepared harness
//! would find.

use crate::lowequiv::{observable_differences, random_value, scramble_unobservable, Difference};
use p4bid_interp::{ControlOutcome, ControlPlane, EvalError, Interp, PreparedControl, Value};
use p4bid_lattice::{Label, Lattice};
use p4bid_typeck::{TypedControl, TypedProgram};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Configuration for a non-interference check.
#[derive(Debug, Clone)]
pub struct NiConfig {
    /// Number of random input pairs to try.
    pub runs: usize,
    /// RNG seed (the harness is fully deterministic given the seed).
    pub seed: u64,
    /// Observation level `l`; the observer sees every label `⊑ l`.
    /// `None` means the lattice bottom (a public observer).
    pub observe: Option<String>,
}

impl Default for NiConfig {
    fn default() -> Self {
        NiConfig { runs: 100, seed: 0xBAD5EED, observe: None }
    }
}

impl NiConfig {
    /// A config with the given number of runs.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the observation level by label name.
    #[must_use]
    pub fn observing(mut self, label: impl Into<String>) -> Self {
        self.observe = Some(label.into());
        self
    }
}

/// Named final parameter values of one run.
pub type RunOutputs = Vec<(String, Value)>;

/// A concrete interference witness: two low-equivalent inputs whose
/// observable outputs differ.
#[derive(Debug, Clone)]
pub struct LeakWitness {
    /// The input pair (low-equivalent by construction).
    pub inputs: (Vec<Value>, Vec<Value>),
    /// The final parameter values of both runs.
    pub outputs: (RunOutputs, RunOutputs),
    /// Observable differences (`param.path: a ≠ b`), or empty when the
    /// leak is through the exit signal.
    pub differences: Vec<Difference>,
    /// Whether each run exited.
    pub exited: (bool, bool),
    /// Which pair index found the leak.
    pub run_index: usize,
}

impl fmt::Display for LeakWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "non-interference violated on pair #{} (inputs agree on all observable fields):",
            self.run_index
        )?;
        if self.exited.0 != self.exited.1 {
            writeln!(
                f,
                "  control-flow signal differs: run A {}, run B {}",
                if self.exited.0 { "exited" } else { "continued" },
                if self.exited.1 { "exited" } else { "continued" },
            )?;
        }
        for d in &self.differences {
            writeln!(f, "  observable output differs at {d}")?;
        }
        Ok(())
    }
}

/// The outcome of a non-interference check.
#[derive(Debug, Clone)]
pub enum NiOutcome {
    /// All pairs agreed on every observable output: the program behaved
    /// non-interferently on this sample.
    Holds {
        /// Number of pairs executed.
        runs: usize,
    },
    /// A concrete leak was found.
    Leak(Box<LeakWitness>),
    /// Evaluation failed (control-plane misconfiguration etc.).
    Error(EvalError),
}

impl NiOutcome {
    /// Whether non-interference held on the sample.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, NiOutcome::Holds { .. })
    }

    /// The witness, if a leak was found.
    #[must_use]
    pub fn witness(&self) -> Option<&LeakWitness> {
        match self {
            NiOutcome::Leak(w) => Some(w),
            _ => None,
        }
    }
}

/// Result of [`run_pair`]: the observable differences plus each run's
/// exit flag.
pub type PairResult = (Vec<Difference>, (bool, bool));

/// Runs one specific low-equivalent pair and reports the observable
/// differences.
///
/// # Errors
///
/// Propagates [`EvalError`] from either run.
pub fn run_pair(
    typed: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    observe: Label,
    args_a: Vec<Value>,
    args_b: Vec<Value>,
) -> Result<PairResult, EvalError> {
    let prepared = Interp::new(typed, cp).prepare(control)?;
    let run = run_both(typed, &prepared, observe, &args_a, &args_b)?;
    Ok((run.differences, (run.a.exited, run.b.exited)))
}

/// Both runs of one pair and the observable differences between their
/// final parameter values, each path prefixed by its parameter's name.
pub(crate) struct PairRun {
    pub(crate) a: ControlOutcome,
    pub(crate) b: ControlOutcome,
    pub(crate) differences: Vec<Difference>,
}

impl PairRun {
    /// Whether the pair shows interference: an observable difference, or
    /// one run exiting while the other continues.
    pub(crate) fn leaks(&self) -> bool {
        !self.differences.is_empty() || self.a.exited != self.b.exited
    }

    /// The leak outcome for this pair, run from `inputs`.
    pub(crate) fn into_leak(self, inputs: (Vec<Value>, Vec<Value>), run_index: usize) -> NiOutcome {
        NiOutcome::Leak(Box::new(LeakWitness {
            inputs,
            outputs: (named(self.a.params), named(self.b.params)),
            differences: self.differences,
            exited: (self.a.exited, self.b.exited),
            run_index,
        }))
    }
}

/// A run's final parameter values with owned names.
fn named(params: Vec<(std::rc::Rc<str>, Value)>) -> RunOutputs {
    params.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}

/// Runs the prepared control on both inputs of a pair and collects the
/// observable differences of the outputs.
pub(crate) fn run_both(
    typed: &TypedProgram,
    prepared: &PreparedControl<'_>,
    observe: Label,
    args_a: &[Value],
    args_b: &[Value],
) -> Result<PairRun, EvalError> {
    let a = prepared.run(args_a)?;
    let b = prepared.run(args_b)?;
    let ctx = typed.ctx.borrow();
    let mut differences = Vec::new();
    let params = &prepared.control().params;
    for (param, ((name, va), (_, vb))) in params.iter().zip(a.params.iter().zip(&b.params)) {
        for mut d in observable_differences(&ctx, &typed.lattice, observe, param.ty, va, vb) {
            d.path =
                if d.path.is_empty() { name.to_string() } else { format!("{name}.{}", d.path) };
            differences.push(d);
        }
    }
    Ok(PairRun { a, b, differences })
}

/// The observation level a configuration names: the lattice bottom when
/// it names none.
pub(crate) fn observation_label(lat: &Lattice, observe: Option<&str>) -> Result<Label, EvalError> {
    match observe {
        None => Ok(lat.bottom()),
        Some(name) => lat.label(name).ok_or_else(|| {
            EvalError::Internal(format!("observation label `{name}` is not in the lattice"))
        }),
    }
}

/// Draws a random input for `ctrl`, then a low-equivalent partner with
/// every part not `⊑ observe` scrambled (in that order from `rng`).
pub(crate) fn low_equivalent_pair(
    rng: &mut StdRng,
    typed: &TypedProgram,
    ctrl: &TypedControl,
    observe: Label,
) -> (Vec<Value>, Vec<Value>) {
    let ctx = typed.ctx.borrow();
    let args_a: Vec<Value> = ctrl.params.iter().map(|p| random_value(rng, &ctx, p.ty)).collect();
    let args_b = ctrl
        .params
        .iter()
        .zip(&args_a)
        .map(|(p, v)| scramble_unobservable(rng, &ctx, &typed.lattice, observe, p.ty, v))
        .collect();
    (args_a, args_b)
}

/// Empirically checks non-interference of a control block (see the module
/// docs for the protocol).
///
/// The observation level defaults to `⊥`. The check is deterministic in
/// `config.seed`.
#[must_use]
pub fn check_non_interference(
    typed: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    config: &NiConfig,
) -> NiOutcome {
    let prepared = match Interp::new(typed, cp).prepare(control) {
        Ok(p) => p,
        Err(e) => return NiOutcome::Error(e),
    };
    let ctrl = prepared.control();
    let observe = match observation_label(&typed.lattice, config.observe.as_deref()) {
        Ok(l) => l,
        Err(e) => return NiOutcome::Error(e),
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    for run_index in 0..config.runs {
        let (args_a, args_b) = low_equivalent_pair(&mut rng, typed, ctrl, observe);
        let run = match run_both(typed, &prepared, observe, &args_a, &args_b) {
            Ok(run) => run,
            Err(e) => return NiOutcome::Error(e),
        };
        if run.leaks() {
            return run.into_leak((args_a, args_b), run_index);
        }
    }
    NiOutcome::Holds { runs: config.runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_typeck::{check_source, CheckOptions};

    fn typed_ifc(src: &str) -> TypedProgram {
        check_source(src, &CheckOptions::ifc()).expect("typechecks")
    }

    fn typed_permissive(src: &str) -> TypedProgram {
        check_source(src, &CheckOptions::permissive()).expect("permissive-typechecks")
    }

    #[test]
    fn well_typed_program_is_non_interfering() {
        let t = typed_ifc(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply {
                    h = h + l;
                    if (l == 8w0) { l = 8w1; }
                }
            }"#,
        );
        let out = check_non_interference(&t, &ControlPlane::new(), "C", &NiConfig::default());
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn explicit_leak_is_caught() {
        // Rejected by the IFC checker; admit it through the permissive
        // checker (labels kept, flows unenforced) and watch the harness
        // find the leak.
        let t = typed_permissive(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply { l = h; }
            }"#,
        );
        let out = check_non_interference(&t, &ControlPlane::new(), "C", &NiConfig::default());
        let w = out.witness().expect("l = h leaks");
        assert!(w.differences.iter().any(|d| d.path.starts_with('l')), "{w}");
    }

    #[test]
    fn implicit_leak_is_caught() {
        let t = typed_permissive(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply { if (h > 8w127) { l = 8w1; } else { l = 8w0; } }
            }"#,
        );
        let out = check_non_interference(&t, &ControlPlane::new(), "C", &NiConfig::default());
        assert!(!out.holds(), "branching on a secret leaks one bit");
    }

    #[test]
    fn exit_signal_leak_is_caught() {
        let t = typed_permissive(
            r#"control C(inout <bit<8>, high> h) {
                apply { if (h > 8w127) { exit; } }
            }"#,
        );
        let out = check_non_interference(&t, &ControlPlane::new(), "C", &NiConfig::default());
        let w = out.witness().expect("exit timing leaks");
        assert_ne!(w.exited.0, w.exited.1, "{w}");
    }

    #[test]
    fn observation_level_changes_verdict() {
        // A high-to-high copy: invisible to a low observer, visible to a
        // high observer only if it *differs* — it never does, since h is
        // scrambled identically... so instead leak high into high from a
        // differing secret: a high observer sees h, so no scrambling
        // happens at observe=high and NI trivially holds.
        let t = typed_permissive(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply { l = h; }
            }"#,
        );
        // Observing at high: nothing is scrambled, runs are identical.
        let cfg = NiConfig::default().observing("high");
        assert!(check_non_interference(&t, &ControlPlane::new(), "C", &cfg).holds());
        // Observing at low: the leak appears.
        assert!(
            !check_non_interference(&t, &ControlPlane::new(), "C", &NiConfig::default()).holds()
        );
    }

    #[test]
    fn harness_is_deterministic_in_seed() {
        let t = typed_permissive(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply { if (h == 8w1) { l = 8w1; } }
            }"#,
        );
        let cfg = NiConfig::default().with_seed(42).with_runs(500);
        let a = check_non_interference(&t, &ControlPlane::new(), "C", &cfg);
        let b = check_non_interference(&t, &ControlPlane::new(), "C", &cfg);
        match (a, b) {
            (NiOutcome::Leak(wa), NiOutcome::Leak(wb)) => {
                assert_eq!(wa.run_index, wb.run_index);
                assert_eq!(wa.inputs, wb.inputs);
            }
            (a, b) => panic!("expected identical leaks, got {a:?} / {b:?}"),
        }
    }

    #[test]
    fn unknown_control_reported() {
        let t = typed_ifc("control C(inout bit<8> x) { apply { } }");
        let out = check_non_interference(&t, &ControlPlane::new(), "Nope", &NiConfig::default());
        assert!(matches!(out, NiOutcome::Error(EvalError::UnknownControl(_))));
    }

    #[test]
    fn run_pair_reports_paths() {
        let t = typed_permissive(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply { l = h; }
            }"#,
        );
        let lat = t.lattice.clone();
        let (diffs, exited) = run_pair(
            &t,
            &ControlPlane::new(),
            "C",
            lat.bottom(),
            vec![Value::bit(8, 0), Value::bit(8, 1)],
            vec![Value::bit(8, 0), Value::bit(8, 2)],
        )
        .unwrap();
        assert_eq!(exited, (false, false));
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "l");
        assert_eq!(diffs[0].left, Value::bit(8, 1));
        assert_eq!(diffs[0].right, Value::bit(8, 2));
    }
}
