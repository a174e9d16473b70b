//! Multi-packet (recirculation) non-interference — the paper's first
//! future-work direction (§7):
//!
//! > "our non-interference theorems treat P4 programs as mapping a single
//! > input packet to a single output packet, but P4 allows programming
//! > switches that can maintain internal state and recirculate packets
//! > for additional processing. These features could lead to security
//! > leaks if an adversary can observe sequences of input and output
//! > packets."
//!
//! This module models the sequence setting without extending the
//! language: the control's `inout` parameters *are* the state carried
//! across rounds. Each trial runs two executions over `rounds`
//! recirculations:
//!
//! 1. both runs start from low-equivalent parameter values;
//! 2. after each round, the observable parts of both runs' outputs must
//!    agree (the adversary sees the whole output *sequence*) and the
//!    exit signals must agree;
//! 3. the outputs are fed back as the next round's inputs, and the
//!    unobservable parts are *independently re-scrambled* — modeling
//!    secrets that change between recirculations.
//!
//! For programs accepted by the IFC checker, single-round
//! non-interference composes: low-equal inputs produce low-equal outputs,
//! which re-scrambling keeps low-equal, so the whole sequence is safe.
//! The tests check exactly this, and that one-round-leaky programs also
//! leak somewhere in the sequence.

use crate::harness::{low_equivalent_pair, observation_label, run_both, NiOutcome};
use crate::lowequiv::scramble_unobservable;
use p4bid_interp::{ControlOutcome, ControlPlane, EvalError, Value};
use p4bid_typeck::TypedProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for a sequence (recirculation) non-interference check.
#[derive(Debug, Clone)]
pub struct SequenceConfig {
    /// Recirculation rounds per trial.
    pub rounds: usize,
    /// Number of independent trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Observation label name (`None` = lattice bottom).
    pub observe: Option<String>,
    /// Whether the unobservable parts are independently re-randomized
    /// between rounds (fresh secrets per packet) or left to persist
    /// (stateful switch memory). Both settings must be safe for
    /// well-typed programs.
    pub refresh_secrets: bool,
}

impl Default for SequenceConfig {
    fn default() -> Self {
        SequenceConfig {
            rounds: 4,
            trials: 50,
            seed: 0x5EC0ADE,
            observe: None,
            refresh_secrets: true,
        }
    }
}

impl SequenceConfig {
    /// Sets the number of rounds, builder-style.
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the number of trials, builder-style.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the RNG seed, builder-style.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the observation label, builder-style.
    #[must_use]
    pub fn observing(mut self, label: impl Into<String>) -> Self {
        self.observe = Some(label.into());
        self
    }

    /// Chooses between fresh secrets per round (`true`, the default) and
    /// persistent secret state (`false`), builder-style.
    #[must_use]
    pub fn with_refresh_secrets(mut self, refresh: bool) -> Self {
        self.refresh_secrets = refresh;
        self
    }
}

/// Checks non-interference over sequences of recirculated packets; see
/// the module docs for the protocol.
#[must_use]
pub fn check_sequence_non_interference(
    typed: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    config: &SequenceConfig,
) -> NiOutcome {
    let Some(ctrl) = typed.control(control) else {
        return NiOutcome::Error(EvalError::UnknownControl(control.to_string()));
    };
    let lat = &typed.lattice;
    let observe = match observation_label(lat, config.observe.as_deref()) {
        Ok(l) => l,
        Err(e) => return NiOutcome::Error(e),
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    for trial in 0..config.trials {
        let (mut args_a, mut args_b) = low_equivalent_pair(&mut rng, typed, ctrl, observe);

        for round in 0..config.rounds {
            let run = match run_both(typed, cp, ctrl, observe, args_a.clone(), args_b.clone()) {
                Ok(run) => run,
                Err(e) => return NiOutcome::Error(e),
            };
            if run.leaks() {
                return run.into_leak((args_a, args_b), trial * config.rounds + round);
            }
            // Recirculate: outputs become the next round's inputs. With
            // `refresh_secrets`, the unobservable parts are independently
            // refreshed in each run (new packets carry new secrets);
            // without it they persist (stateful switch memory).
            let ctx = typed.ctx.borrow();
            let mut next = |out: ControlOutcome| -> Vec<Value> {
                let values = out.params.into_iter().map(|(_, v)| v);
                if config.refresh_secrets {
                    ctrl.params
                        .iter()
                        .zip(values)
                        .map(|(p, v)| scramble_unobservable(&mut rng, &ctx, lat, observe, p.ty, &v))
                        .collect()
                } else {
                    values.collect()
                }
            };
            args_a = next(run.a);
            args_b = next(run.b);
        }
    }
    NiOutcome::Holds { runs: config.trials * config.rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_typeck::{check_source, CheckOptions};

    #[test]
    fn well_typed_stateful_pipeline_is_sequence_safe() {
        // A program whose low state accumulates across recirculations and
        // whose high state depends on everything — still safe over any
        // number of rounds.
        let typed = check_source(
            r#"control C(inout <bit<8>, low> counter, inout <bit<8>, high> acc,
                         inout <bit<8>, low> data) {
                apply {
                    counter = counter + 8w1;
                    acc = acc + data;
                    if (data > 8w200) { data = 8w0; } else { data = data + 8w3; }
                }
            }"#,
            &CheckOptions::ifc(),
        )
        .expect("typechecks");
        let out = check_sequence_non_interference(
            &typed,
            &ControlPlane::new(),
            "C",
            &SequenceConfig::default().with_rounds(6).with_trials(40),
        );
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn single_round_leak_appears_in_sequences() {
        let typed = check_source(
            r#"control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {
                apply { if (h > 8w127) { l = l + 8w1; } }
            }"#,
            &CheckOptions::permissive(),
        )
        .expect("permissive");
        let out = check_sequence_non_interference(
            &typed,
            &ControlPlane::new(),
            "C",
            &SequenceConfig::default(),
        );
        assert!(out.witness().is_some(), "{out:?}");
    }

    #[test]
    fn delayed_leak_through_state_is_caught() {
        // Round 0 captures the secret into persistent (high) switch state
        // — fine in isolation; a *later* round dumps the state to a public
        // field. Exactly the multi-packet scenario §7 worries about: no
        // single round both reads the secret input and writes it to a
        // public output. The single-packet type system still rejects it
        // (the dump is an explicit flow), which is why the composition
        // argument goes through.
        let src = r#"control C(inout <bit<1>, low> phase, inout <bit<8>, low> out,
                               inout <bit<8>, high> stash, inout <bit<8>, high> secret) {
            apply {
                if (phase == 1w0) {
                    stash = secret;
                } else {
                    out = stash;
                }
                phase = 1w1;
            }
        }"#;
        assert!(check_source(src, &CheckOptions::ifc()).is_err());
        let typed = check_source(src, &CheckOptions::permissive()).expect("permissive");
        let out = check_sequence_non_interference(
            &typed,
            &ControlPlane::new(),
            "C",
            &SequenceConfig::default().with_refresh_secrets(false).with_trials(50),
        );
        assert!(out.witness().is_some(), "{out:?}");
    }

    #[test]
    fn well_typed_programs_safe_with_persistent_secrets_too() {
        let typed = check_source(
            r#"control C(inout <bit<8>, low> counter, inout <bit<8>, high> acc) {
                apply {
                    counter = counter + 8w1;
                    acc = acc + counter;
                }
            }"#,
            &CheckOptions::ifc(),
        )
        .expect("typechecks");
        let out = check_sequence_non_interference(
            &typed,
            &ControlPlane::new(),
            "C",
            &SequenceConfig::default().with_refresh_secrets(false).with_rounds(8),
        );
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn unknown_control_is_an_error() {
        let typed =
            check_source("control C(inout bit<8> x) { apply { } }", &CheckOptions::ifc()).unwrap();
        let out = check_sequence_non_interference(
            &typed,
            &ControlPlane::new(),
            "Nope",
            &SequenceConfig::default(),
        );
        assert!(matches!(out, NiOutcome::Error(EvalError::UnknownControl(_))));
    }
}
