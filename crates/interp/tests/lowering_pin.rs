//! Pinned outcomes of hand-written controls: the exact `ControlOutcome` or
//! `EvalError` of each run, and the smallest fuel budget that completes it.
//!
//! The controls exercise what name resolution and slot assignment could
//! get wrong: locals in `apply`, actions and functions, shadowing in
//! nested blocks and `if` branches, closures that captured a name before
//! it was shadowed, a function whose local is declared on one branch and
//! that is called inside its own argument, header-stack reads and writes
//! out of bounds, record literals, `exit` with `inout` copy-out, default
//! actions and control-plane entries that do not fit the table.
//!
//! Each figure was taken from the name-keyed evaluator that preceded the
//! slot-indexed one, so this file is an oracle independent of the code it
//! checks. Every case runs twice on one prepared control (a run must not
//! leak into the next), and once with one unit of fuel less, which must
//! run out.

use p4bid_interp::{ControlPlane, EvalError, Interp, KeyPattern, TableEntry, Value};
use p4bid_typeck::{check_source, CheckOptions, TypedProgram};

fn typed(src: &str) -> TypedProgram {
    check_source(src, &CheckOptions::ifc()).expect("typechecks")
}

fn b(v: u128) -> Value {
    Value::bit(8, v)
}

/// Runs `control` on `args` with `fuel`, twice on one prepared image,
/// then with `fuel - 1`, which must exhaust. Returns the result of the
/// full-fuel run with parameter names as strings.
fn run_pinned(
    t: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    args: &[Value],
    fuel: u64,
) -> Result<(Vec<(String, Value)>, bool), EvalError> {
    let prepared = Interp::new(t, cp).with_fuel(fuel).prepare(control).expect("prepares");
    let first = prepared.run(args);
    assert_eq!(first, prepared.run(args), "a second run on the same image differs");
    let short = Interp::new(t, cp).with_fuel(fuel - 1).run_control(control, args.to_vec());
    assert_eq!(short, Err(EvalError::FuelExhausted), "{fuel} is not the smallest budget");
    first.map(|out| {
        let params = out.params.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
        (params, out.exited)
    })
}

/// Pins a run that completes: its final parameters, exit flag and fuel.
fn pin_outcome(
    t: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    args: &[Value],
    fuel: u64,
    exited: bool,
    params: &[(&str, Value)],
) {
    let want: Vec<(String, Value)> =
        params.iter().map(|(n, v)| ((*n).to_string(), v.clone())).collect();
    assert_eq!(run_pinned(t, cp, control, args, fuel), Ok((want, exited)), "{control} {args:?}");
}

/// Pins a run that fails: its error, the error's text and the fuel spent
/// before it.
fn pin_error(
    t: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    args: &[Value],
    fuel: u64,
    err: &EvalError,
    text: &str,
) {
    assert_eq!(run_pinned(t, cp, control, args, fuel), Err(err.clone()), "{control} {args:?}");
    assert_eq!(err.to_string(), text);
}

#[test]
fn swap_local_in_apply() {
    let t = typed(
        "control Swap(inout bit<8> a, inout bit<8> b) {
            apply { bit<8> t = a; a = b; b = t; }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "Swap", &[b(1), b(2)], 6, false, &[("a", b(2)), ("b", b(1))]);
}

#[test]
fn locals_in_an_action_and_a_function() {
    let t = typed(
        "control C(inout bit<8> x, inout bit<8> y) {
            function bit<8> twice(in bit<8> v) { bit<8> d = v + v; return d; }
            action bump(bit<8> k) { bit<8> t = x; x = y + k; y = t; }
            apply { bit<8> s = twice(x); bump(8w3); y = y + s; }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(5), b(7)], 27, false, &[("x", b(10)), ("y", b(15))]);
}

#[test]
fn shadowing_in_nested_blocks_and_branches() {
    let t = typed(
        "control C(inout bit<8> x, inout bit<8> y) {
            apply {
                bit<8> v = 8w1;
                { bit<8> v = 8w2; x = v; { bit<8> v = v + 8w10; y = v; } x = x + v; }
                if (x == 8w4) { bit<8> v = 8w7; y = y + v; } else { bit<8> v = 8w9; y = y + v; }
                x = x + v;
            }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(0), b(0)], 33, false, &[("x", b(5)), ("y", b(19))]);
}

#[test]
fn a_var_shadows_a_parameter_an_action_captured() {
    // `bump` captured the parameter `x`; the `x` that `apply` declares
    // shadows it there but not inside `bump`, which `twice` also calls
    // with its own parameter named `x` in scope.
    let t = typed(
        "control C(inout bit<8> x, inout bit<8> y) {
            action bump() { x = x + 8w1; }
            action twice(inout bit<8> x) { x = x + x; bump(); }
            bit<8> z = y + 8w5;
            apply { bit<8> x = z; bump(); twice(y); x = x + 8w100; y = y + x; }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(10), b(20)], 34, false, &[("x", b(12)), ("y", b(165))]);
}

#[test]
fn a_function_local_on_one_branch_called_inside_its_own_argument() {
    let t = typed(
        "control C(inout bit<8> x, inout bit<8> y) {
            function bit<8> f(in bit<8> v) {
                if (v > 8w10) { bit<8> w = v - 8w10; return w; }
                return v + 8w1;
            }
            function bit<8> sub(in bit<8> a, in bit<8> c) { return a - c; }
            bit<8> z = f(y);
            apply { x = f(f(x)); y = f(x) + z; y = sub(y, sub(x, y)); }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(15), b(3)], 72, false, &[("x", b(6)), ("y", b(16))]);
    pin_outcome(&t, &none, "C", &[b(2), b(30)], 72, false, &[("x", b(4)), ("y", b(46))]);
}

#[test]
fn header_stack_reads_and_writes_out_of_bounds() {
    // Out-of-bounds reads see a zeroed element; out-of-bounds writes,
    // including the copy-out of an `inout` argument, do nothing.
    let t = typed(
        "header h_t { bit<8> v; }
        control C(inout h_t[2] s, inout bit<8> x) {
            action a(inout bit<8> p, inout bit<8> q) { p = p + 8w10; q = q + 8w1; }
            apply { x = s[x].v; s[x + 8w1].v = 8w9; s[0].v = s[1].v + 8w1; a(s[x + 8w2].v, x); }
        }",
    );
    let none = ControlPlane::new();
    let v = t.sym("v").expect("field interned");
    let h = |n| Value::Header { valid: true, fields: vec![(v, b(n))] };
    let stack = |a, c| Value::Stack(vec![h(a), h(c)]);
    let run = |x, s_out, x_out| {
        pin_outcome(&t, &none, "C", &[stack(1, 2), b(x)], 32, false, &[("s", s_out), ("x", x_out)]);
    };
    run(5, stack(10, 9), b(1));
    run(1, stack(3, 2), b(3));
    run(0, stack(3, 2), b(2));
}

#[test]
fn inout_lvalues_are_fixed_at_copy_in_and_written_back_in_order() {
    // `s[x]` is resolved before the body bumps `x`; `a(x, x)` writes `p`
    // back first and `q` last.
    let t = typed(
        "header h_t { bit<8> v; }
        control C(inout h_t[2] s, inout bit<8> x) {
            action a(inout bit<8> p, inout bit<8> q) { p = p + 8w10; q = q + 8w1; }
            apply { a(s[x].v, x); a(x, x); }
        }",
    );
    let none = ControlPlane::new();
    let v = t.sym("v").expect("field interned");
    let h = |n| Value::Header { valid: true, fields: vec![(v, b(n))] };
    let stack = |a, c| Value::Stack(vec![h(a), h(c)]);
    pin_outcome(
        &t,
        &none,
        "C",
        &[stack(1, 2), b(0)],
        23,
        false,
        &[("s", stack(11, 2)), ("x", b(2))],
    );
}

#[test]
fn record_literals() {
    let t = typed(
        "struct pair_t { bit<8> lo; bit<8> hi; }
        control C(inout bit<8> x) {
            apply {
                pair_t p = { lo = x, hi = x + 8w1 };
                p.lo = p.hi * 8w2;
                x = p.lo + { a = 8w3 }.a;
            }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(4)], 18, false, &[("x", b(13))]);
}

#[test]
fn exit_inside_an_action_still_copies_out() {
    let t = typed(
        "control C(inout bit<8> x, inout bit<8> y) {
            action a(inout bit<8> v) { v = v + 8w1; exit; }
            apply { a(x); y = 8w99; }
        }",
    );
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(4), b(5)], 8, true, &[("x", b(5)), ("y", b(5))]);
}

const TABLE: &str = "control C(inout bit<8> x, inout bit<8> y) {
    action set(bit<8> k) { y = k + 8w1; x = k; }
    table t { key = { x: exact; } actions = { set; } default_action = set; }
    apply { t.apply(); }
}";

#[test]
fn default_action_runs_with_zeroed_control_plane_arguments() {
    let t = typed(TABLE);
    let none = ControlPlane::new();
    pin_outcome(&t, &none, "C", &[b(4), b(5)], 10, false, &[("x", b(0)), ("y", b(1))]);
}

#[test]
fn entries_that_do_not_fit_the_table_fail_only_when_matched() {
    let t = typed(TABLE);
    let mut cp = ControlPlane::new();
    let entry =
        |key, action: &str, args| TableEntry::new(vec![KeyPattern::Exact(b(key))], action, args);
    cp.add_entry("t", entry(4, "ghost", vec![]));
    cp.add_entry("t", entry(7, "set", vec![]));
    cp.add_entry("t", entry(8, "set", vec![Value::Bool(true)]));
    cp.add_entry("t", entry(9, "set", vec![Value::Int(300)]));

    let unknown = EvalError::UnknownEntryAction { table: "t".into(), action: "ghost".into() };
    let text = "control-plane entry for `t` names unknown action `ghost`";
    pin_error(&t, &cp, "C", &[b(4), b(5)], 3, &unknown, text);

    let count = EvalError::EntryArgMismatch {
        table: "t".into(),
        action: "set".into(),
        detail: "expected 1 control-plane argument(s), got 0".into(),
    };
    let text = "control-plane arguments for `set` in table `t`: \
                expected 1 control-plane argument(s), got 0";
    pin_error(&t, &cp, "C", &[b(7), b(5)], 3, &count, text);

    let shape = EvalError::EntryArgMismatch {
        table: "t".into(),
        action: "set".into(),
        detail: "argument `true` does not fit parameter `k`".into(),
    };
    let text = "control-plane arguments for `set` in table `t`: \
                argument `true` does not fit parameter `k`";
    pin_error(&t, &cp, "C", &[b(8), b(5)], 3, &shape, text);

    // An `int` argument is coerced to the parameter's width.
    pin_outcome(&t, &cp, "C", &[b(9), b(5)], 10, false, &[("x", b(44)), ("y", b(45))]);
    // A miss runs the declared default.
    pin_outcome(&t, &cp, "C", &[b(6), b(5)], 10, false, &[("x", b(0)), ("y", b(1))]);
}
