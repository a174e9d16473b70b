//! Differential test of prepared controls: one prepared control, reused
//! for many inputs, must give exactly what a fresh prepare gives on each
//! input.
//!
//! `Interp::prepare` lowers a control to slot-indexed code once, and
//! `PreparedControl::run` keeps its frame from one run to the next; the NI
//! harness leans on that reuse for every pair and round. A run that read a
//! slot the previous run left behind (a local, a parameter, a temporary,
//! a control-level `var`) would make a later run differ from a fresh one,
//! so every case below runs each input twice: on the shared prepared
//! control and on a fresh prepare, and compares the `ControlOutcome` or
//! `EvalError`.

use p4bid::corpus::{case_studies, demo_control_plane};
use p4bid_interp::{ControlPlane, EvalError, Interp, KeyPattern, TableEntry, Value};
use p4bid_ni::{random_program, random_value, GenConfig};
use p4bid_typeck::{check_source, CheckOptions, TypedProgram};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random inputs for `control`'s parameters.
fn inputs(typed: &TypedProgram, control: &str, n: usize, seed: u64) -> Vec<Vec<Value>> {
    let ctrl = typed.control(control).expect("control exists");
    let ctx = typed.ctx.borrow();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| ctrl.params.iter().map(|p| random_value(&mut rng, &ctx, p.ty)).collect())
        .collect()
}

/// Runs every input on one shared prepared control and on a fresh
/// prepare, asserts the results agree, and returns them.
fn reuse_matches_fresh(
    interp: &Interp<'_>,
    control: &str,
    inputs: &[Vec<Value>],
    what: &str,
) -> Vec<Result<p4bid_interp::ControlOutcome, EvalError>> {
    let shared = interp.prepare(control).unwrap_or_else(|e| panic!("{what}: prepare: {e}"));
    inputs
        .iter()
        .enumerate()
        .map(|(i, args)| {
            let reused = shared.run(args);
            let fresh = interp.prepare(control).and_then(|p| p.run(args));
            assert_eq!(reused, fresh, "{what}: input #{i} {args:?}");
            let one_shot = interp.run_control(control, args.clone());
            assert_eq!(reused, one_shot, "{what}: input #{i} through run_control");
            reused
        })
        .collect()
}

#[test]
fn generated_programs_accepted_under_ifc() {
    let cfg = GenConfig::default();
    let mut accepted = 0;
    for seed in 0..150 {
        let gp = random_program(seed, &cfg);
        let Ok(typed) = check_source(&gp.source, &CheckOptions::ifc()) else { continue };
        accepted += 1;
        let interp = Interp::new(&typed, &gp.control_plane);
        let results =
            reuse_matches_fresh(&interp, "Fuzz", &inputs(&typed, "Fuzz", 24, seed), "ifc");
        assert!(results.iter().all(Result::is_ok), "seed {seed}: {results:?}");
    }
    assert!(accepted >= 20, "only {accepted} of 150 generated programs accepted");
}

#[test]
fn permissive_checked_leaky_programs() {
    let cfg = GenConfig::default().with_safe_bias(0.0);
    for seed in 0..120 {
        let gp = random_program(seed, &cfg);
        let typed = check_source(&gp.source, &CheckOptions::permissive()).expect("permissive");
        let interp = Interp::new(&typed, &gp.control_plane);
        reuse_matches_fresh(&interp, "Fuzz", &inputs(&typed, "Fuzz", 24, seed), "permissive");
    }
}

#[test]
fn case_study_controls_with_their_control_planes() {
    for cs in case_studies() {
        let cp = demo_control_plane(cs.name);
        let secure = check_source(cs.secure, &CheckOptions::ifc()).expect("secure typechecks");
        let insecure =
            check_source(cs.insecure, &CheckOptions::permissive()).expect("insecure permissive");
        for (typed, variant) in [(&secure, "secure"), (&insecure, "insecure")] {
            let what = format!("{} ({variant})", cs.name);
            let interp = Interp::new(typed, &cp);
            let results =
                reuse_matches_fresh(&interp, cs.control, &inputs(typed, cs.control, 40, 7), &what);
            assert!(results.iter().all(Result::is_ok), "{what}: {results:?}");
        }
    }
}

/// A control-level `var` whose initializer calls a function that declares
/// a local on one branch only, read by an action and a table declared
/// after it: the initializer runs on every run, and what it computes must
/// reach the code declared after it whichever branch it took.
const BRANCHY_VAR: &str = r#"
    control C(inout bit<8> x, inout bit<8> y) {
        function bit<8> pick(in bit<8> v) {
            if (v > 8w127) {
                bit<8> t = v + 8w1;
                return t;
            }
            return v;
        }
        bit<8> seen = pick(x);
        action bump(bit<8> step) { y = y + seen + step; }
        table tb {
            key = { x: exact; }
            actions = { bump; }
            default_action = bump;
        }
        apply {
            tb.apply();
            x = seen;
        }
    }
"#;

#[test]
fn var_initializer_with_branch_local_allocation() {
    let typed = check_source(BRANCHY_VAR, &CheckOptions::ifc()).expect("typechecks");
    let mut cp = ControlPlane::new();
    cp.add_entry(
        "tb",
        TableEntry::new(
            vec![KeyPattern::Exact(Value::bit(8, 200))],
            "bump",
            vec![Value::bit(8, 5)],
        ),
    );
    let interp = Interp::new(&typed, &cp);
    // Both branches, in both orders, and the table hit.
    let xs = [0u128, 200, 1, 255, 127, 128, 200, 3];
    let args: Vec<Vec<Value>> =
        xs.iter().map(|&x| vec![Value::bit(8, x), Value::bit(8, 10)]).collect();
    let results = reuse_matches_fresh(&interp, "C", &args, "branchy var");
    let ys: Vec<u128> = results
        .iter()
        .map(|r| r.as_ref().expect("runs").param("y").and_then(Value::as_u128).expect("y"))
        .collect();
    // y = 10 + seen + step: seen is x or x + 1, step is 5 on the hit.
    assert_eq!(ys, [10, 216, 11, 10, 137, 139, 216, 13]);
}

#[test]
fn fuel_exhaustion_matches_at_every_budget() {
    let typed = check_source(BRANCHY_VAR, &CheckOptions::ifc()).expect("typechecks");
    let cp = ControlPlane::new();
    let args: Vec<Vec<Value>> =
        [5u128, 250].iter().map(|&x| vec![Value::bit(8, x), Value::bit(8, 1)]).collect();
    let (mut exhausted, mut finished) = (0, 0);
    for fuel in 0..40 {
        let interp = Interp::new(&typed, &cp).with_fuel(fuel);
        for r in reuse_matches_fresh(&interp, "C", &args, &format!("fuel {fuel}")) {
            match r {
                Err(EvalError::FuelExhausted) => exhausted += 1,
                Ok(_) => finished += 1,
                Err(e) => panic!("fuel {fuel}: {e}"),
            }
        }
    }
    assert!(exhausted > 0 && finished > 0, "{exhausted} exhausted, {finished} finished");
}

#[test]
fn control_plane_errors_keep_their_text() {
    let typed = check_source(
        r#"control C(inout bit<8> k, inout bit<8> out) {
            action set(bit<8> v) { out = v; }
            table tb { key = { k: exact; } actions = { set; } }
            apply { tb.apply(); }
        }"#,
        &CheckOptions::ifc(),
    )
    .expect("typechecks");
    let args = vec![vec![Value::bit(8, 1), Value::bit(8, 0)]; 3];
    let cases = [
        ("ghost", vec![], "control-plane entry for `tb` names unknown action `ghost`"),
        (
            "set",
            vec![],
            "control-plane arguments for `set` in table `tb`: expected 1 control-plane \
             argument(s), got 0",
        ),
        (
            "set",
            vec![Value::Bool(true)],
            "control-plane arguments for `set` in table `tb`: argument `true` does not fit \
             parameter `v`",
        ),
    ];
    for (action, entry_args, text) in cases {
        let mut cp = ControlPlane::new();
        cp.add_entry("tb", TableEntry::new(vec![KeyPattern::Any], action, entry_args));
        let interp = Interp::new(&typed, &cp);
        for r in reuse_matches_fresh(&interp, "C", &args, action) {
            assert_eq!(r.expect_err("entry is misconfigured").to_string(), text);
        }
    }
}
