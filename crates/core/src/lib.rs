//! # P4BID — Information Flow Control in P4 (PLDI 2022 reproduction)
//!
//! A security-type system for (Core) P4 that provably enforces
//! non-interference, reproduced as a self-contained Rust workspace: lexer,
//! parser, baseline and IFC typecheckers, a big-step interpreter with a
//! control plane, an empirical non-interference harness, the paper's six
//! case-study programs, and the measurement that regenerates Table 1.
//!
//! This crate is the facade: it re-exports the pieces, ships the
//! [`corpus`] of case studies, derives the unannotated baselines
//! ([`strip`]), generates synthetic workloads ([`synth`]), checks whole
//! corpora in parallel ([`batch`]), runs the streaming ingest service
//! behind `p4bid serve` / `p4bid watch` ([`serve`]), composes per-switch
//! verdicts into whole-network fixpoint reports ([`topo`]), fuzzes the
//! soundness theorem across cores ([`fuzz`]), injects deterministic
//! faults for chaos testing ([`faults`]), renders diagnostics
//! ([`render_diagnostics`]), and produces the evaluation reports
//! ([`report`]).
//!
//! ## Quickstart
//!
//! ```
//! use p4bid::{check, CheckOptions, DiagCode};
//!
//! // The paper's Listing 1 bug: a secret local TTL stored in the public
//! // ipv4 header.
//! let insecure = p4bid::corpus::TOPOLOGY.insecure;
//! let errors = check(insecure, &CheckOptions::ifc()).unwrap_err();
//! assert!(errors.iter().any(|d| d.code == DiagCode::ExplicitFlow));
//!
//! // The Listing 2 fix typechecks.
//! assert!(check(p4bid::corpus::TOPOLOGY.secure, &CheckOptions::ifc()).is_ok());
//! ```
//!
//! ## Running packets
//!
//! ```
//! use p4bid::{check, CheckOptions};
//! use p4bid::interp::{run_control, ControlPlane, Value};
//!
//! let typed = check(
//!     "control Inc(inout bit<8> x) { apply { x = x + 8w1; } }",
//!     &CheckOptions::ifc(),
//! ).unwrap();
//! let out = run_control(&typed, &ControlPlane::new(), "Inc", vec![Value::bit(8, 1)])
//!     .unwrap();
//! assert_eq!(out.param("x"), Some(&Value::bit(8, 2)));
//! ```

// `deny` rather than `forbid`: the drain handler in [`serve`] installs a
// process signal handler through one audited `#[allow(unsafe_code)]` FFI
// shim; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
mod engine;
pub mod faults;
pub mod fuzz;
pub mod packet;
pub mod policy;
mod pool;
pub mod report;
pub mod serve;
pub mod strip;
pub mod synth;
pub mod topo;

pub use p4bid_typeck::{
    check_source as check, render_chain, CheckOptions, CheckerSession, DiagCode, Diagnostic,
    FlowEdge, FlowNode, FlowOp, LineageEdge, LineageGraph, Mode, SessionHarvest, SessionStats,
    SharedSessionCore, TypedControl, TypedProgram, DEFAULT_PREFIX_CACHE_CAP, PRELUDE,
};
pub use policy::{PolicyError, PolicyPack, PolicyRule};

/// The security-lattice substrate.
pub mod lattice {
    pub use p4bid_lattice::{laws, Label, Lattice, LatticeError};
}

/// Surface and resolved abstract syntax, interning, and the hash-consing
/// type pool.
pub mod ast {
    pub use p4bid_ast::intern::{FrozenInterner, Interner, Symbol};
    pub use p4bid_ast::pool::{FrozenPool, FrozenTyCtx, SharedTyCtx, TyCtx, TyPool};
    pub use p4bid_ast::pretty;
    pub use p4bid_ast::sectype::{FieldList, FnParam, FnTy, SecTy, Ty, TyId};
    pub use p4bid_ast::span::{line_col, source_line, span_line_col, LineCol, Span, Spanned};
    pub use p4bid_ast::surface::*;
}

/// Parsing.
pub mod syntax {
    pub use p4bid_syntax::{parse, ParseError};
}

/// The Core P4 interpreter and control plane.
pub mod interp {
    pub use p4bid_interp::{
        run_control, Closure, ControlOutcome, ControlPlane, EvalError, Interp, KeyPattern, Signal,
        TableConfig, TableEntry, TableValue, Value,
    };
}

/// The empirical non-interference harness.
pub mod ni {
    pub use p4bid_ni::{
        check_non_interference, check_sequence_non_interference, low_equal, observable_differences,
        random_program, run_pair, Difference, GenConfig, GeneratedProgram, LeakWitness, NiConfig,
        NiOutcome, SequenceConfig,
    };
}

use p4bid_ast::span::{source_line, span_line_col};

/// Renders diagnostics against the source text they were produced from,
/// with `line:col` positions and a caret under the offending span.
///
/// Diagnostics whose span does not fall inside `source` (e.g. from the
/// implicit prelude) are rendered without a location.
///
/// # Examples
///
/// ```
/// use p4bid::{check, CheckOptions, render_diagnostics};
/// let src = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {\n    apply { l = h; }\n}\n";
/// let errs = check(src, &CheckOptions::ifc()).unwrap_err();
/// let report = render_diagnostics(src, &errs);
/// assert!(report.contains("E-EXPLICIT-FLOW"));
/// assert!(report.contains("2:13"));
/// ```
#[must_use]
pub fn render_diagnostics(source: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        if let Some(lc) = span_line_col(source, d.span) {
            out.push_str(&format!("{lc}: {d}\n"));
            let line = source_line(source, d.span.start);
            out.push_str(&format!("    | {line}\n"));
            let col = (lc.col as usize).saturating_sub(1);
            let width = ((d.span.end - d.span.start) as usize)
                .clamp(1, line.len().saturating_sub(col).max(1));
            out.push_str(&format!("    | {}{}\n", " ".repeat(col), "^".repeat(width)));
        } else {
            out.push_str(&format!("{d}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_the_leak() {
        let src =
            "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {\n    apply { l = h; }\n}\n";
        let errs = check(src, &CheckOptions::ifc()).unwrap_err();
        let report = render_diagnostics(src, &errs);
        assert!(report.contains("l = h"), "{report}");
        assert!(report.contains('^'), "{report}");
    }

    #[test]
    fn render_survives_dummy_spans() {
        let d = Diagnostic::new(DiagCode::Malformed, "synthetic", ast::Span::dummy());
        let report = render_diagnostics("short", &[d]);
        assert!(report.contains("synthetic"));
        assert!(!report.contains('^'));
    }
}
