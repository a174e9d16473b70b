//! Property-based totality tests for the full checking pipeline: a
//! [`CheckerSession::check`] call must never panic, whatever the input —
//! arbitrary bytes, token soup, or near-miss programs — and must answer
//! the same input the same way every time. The batch/serve workers wrap
//! each check in `catch_unwind` as a last line of defense, but that
//! containment turns a panic into a rejected program; these properties
//! keep the panics from existing in the first place.

use p4bid_typeck::{CheckOptions, CheckerSession};
use proptest::prelude::*;

/// Fragments that steer the soup deep into the checker: declarations,
/// security annotations, tables, declassify, and the operators the
/// type rules branch on.
const FRAGMENTS: [&str; 24] = [
    "control",
    "C",
    "(",
    ")",
    "{",
    "}",
    "inout",
    "bit<8>",
    "x",
    ";",
    "apply",
    "=",
    "if",
    "else",
    "8w3",
    "table",
    "key",
    "actions",
    "<bit<8>, high>",
    "exit",
    "declassify",
    "+",
    "~",
    "low",
];

proptest! {
    /// The whole pipeline — oversized guard, parse, resolve, typecheck —
    /// is total on arbitrary input, under every mode.
    #[test]
    fn session_check_is_total(input in ".{0,200}") {
        for opts in [CheckOptions::ifc(), CheckOptions::base(), CheckOptions::permissive()] {
            let mut session = CheckerSession::new(opts);
            let _ = session.check(&input);
        }
    }

    /// Token-soup from valid fragments gets much deeper into the type
    /// rules than raw bytes; the session must survive it, and one session
    /// must survive a whole stream of such programs (state from a failed
    /// check must not poison the next one).
    #[test]
    fn session_survives_fragment_soup_streams(
        programs in proptest::collection::vec(
            proptest::collection::vec(0usize..24, 0..40),
            1..4,
        )
    ) {
        let mut session = CheckerSession::new(CheckOptions::ifc());
        for pieces in &programs {
            let soup: String =
                pieces.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(" ");
            let _ = session.check(&soup);
        }
    }

    /// Checking is deterministic: the same source answers identically on
    /// a fresh session and on a reused one, diagnostics included — the
    /// property the batch report's byte-identical contract rests on.
    #[test]
    fn session_check_is_deterministic(
        pieces in proptest::collection::vec(0usize..24, 0..40)
    ) {
        let soup: String = pieces.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(" ");
        let mut fresh_a = CheckerSession::new(CheckOptions::ifc());
        let mut fresh_b = CheckerSession::new(CheckOptions::ifc());
        let a = fresh_a.check(&soup).map(|_| ()).map_err(|d| format!("{d:?}"));
        let b = fresh_b.check(&soup).map(|_| ()).map_err(|d| format!("{d:?}"));
        prop_assert_eq!(&a, &b, "fresh sessions agree");
        let again = fresh_a.check(&soup).map(|_| ()).map_err(|d| format!("{d:?}"));
        prop_assert_eq!(&a, &again, "a reused session agrees with itself");
    }

    /// The item memo is invisible: a warm session that already checked a
    /// related program twice (recording its controls) answers a second
    /// program exactly like a cold session with the memo disabled —
    /// verdicts and diagnostics byte-identical through `verdict`, typed
    /// output identical through `check`. The generator builds both
    /// programs from a shared pool of items (one of them malformed) so
    /// shared controls, and thus memo hits, are frequent.
    #[test]
    fn prefix_resume_matches_cold_check(
        base in proptest::collection::vec(0usize..8, 1..7),
        tail in proptest::collection::vec(0usize..8, 0..4),
        split in 0usize..7,
    ) {
        const ITEMS: [&str; 8] = [
            "lattice { lo < hi; }",
            "control A(inout <bit<8>, high> h) { apply { h = h + 8w1; } }",
            "control B(inout bit<8> x) { apply { x = x + 8w2; } }",
            "control Leak(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
            "action inc(inout bit<8> v) { v = v + 8w1; }",
            "bit<8> twice(bit<8> v) { return v + v; }",
            "header ph_t { <bit<8>, high> f; }",
            "control G(inout <bit<8>, low> l) { apply { if (l == 8w0) { l = 8w1; } } }",
        ];
        let render = |ixs: &[usize]| {
            ixs.iter().map(|&i| ITEMS[i]).collect::<Vec<_>>().join("\n")
        };
        let first = render(&base);
        let second = render(
            &base[..split.min(base.len())]
                .iter()
                .copied()
                .chain(tail.iter().copied())
                .collect::<Vec<_>>(),
        );
        // Interner/pool ids differ between a warm and a cold session (the
        // warm one allocated ids for the first program too), so compare a
        // rendered projection — names, labels, display-form types, and
        // full diagnostics — rather than raw `Debug` output.
        let project = |out: &Result<p4bid_typeck::TypedProgram, Vec<p4bid_typeck::Diagnostic>>| {
            match out {
                Err(diags) => format!("err: {diags:?}"),
                Ok(t) => {
                    let ctx = t.ctx.borrow();
                    let controls: Vec<String> = t
                        .controls
                        .iter()
                        .map(|c| {
                            let params: Vec<String> = c
                                .params
                                .iter()
                                .map(|p| {
                                    format!(
                                        "{:?} {} {}",
                                        p.direction,
                                        p4bid_ast::sectype::display_secty(
                                            &ctx.types, &ctx.syms, &t.lattice, p.ty,
                                        ),
                                        p.name,
                                    )
                                })
                                .collect();
                            format!(
                                "{}({}) pc={} fns={:?} tables={:?}",
                                c.name,
                                params.join(", "),
                                t.lattice.name(c.pc),
                                c.functions.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
                                c.tables
                                    .iter()
                                    .map(|(n, l)| format!("{n}:{}", t.lattice.name(*l)))
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect();
                    format!("ok: {controls:?}")
                }
            }
        };
        let mut warm = CheckerSession::new(CheckOptions::ifc());
        let _ = warm.check(&first);
        let _ = warm.check(&first);
        let verdict = warm.verdict(&second).map_err(|d| format!("{d:?}"));
        let warm_out = project(&warm.check(&second));
        let mut cold = CheckerSession::new(CheckOptions::ifc()).with_prefix_cache_cap(0);
        let cold_result = cold.check(&second);
        let cold_verdict = cold_result.as_ref().map(|_| ()).map_err(|d| format!("{d:?}"));
        prop_assert_eq!(verdict, cold_verdict, "memo answers must be invisible");
        prop_assert_eq!(warm_out, project(&cold_result), "the warm cold path must match too");
    }

    /// The resource guards stay total too: a byte cap and an (unexpired)
    /// deadline never panic, and the cap rejects exactly the inputs
    /// longer than it.
    #[test]
    fn guarded_sessions_are_total(input in ".{0,200}", cap in 1u64..64) {
        let opts = CheckOptions::ifc().with_max_source_bytes(cap).with_check_timeout_ms(10_000);
        let mut session = CheckerSession::new(opts);
        let result = session.check(&input);
        if input.len() as u64 > cap {
            let diags = result.expect_err("over the cap");
            prop_assert_eq!(diags.len(), 1);
            prop_assert_eq!(diags[0].code, p4bid_typeck::DiagCode::Oversized);
        }
    }
}
