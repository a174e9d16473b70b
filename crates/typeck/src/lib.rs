//! The P4BID typecheckers: plain Core P4 typing (§3.3 of the paper, the
//! "p4c" baseline of Table 1) and the information-flow control type system
//! (§4.2, Figures 5–7).
//!
//! The main entry points are [`check_source`] (parse + check a
//! security-annotated P4 program, including the standard prelude) and
//! [`check_program`] (check an already-parsed [`Program`]).
//!
//! # Examples
//!
//! The buggy assignment from Listing 1/2 of the paper — a `high` physical
//! TTL written into the `low` public `ipv4.ttl` — is rejected with an
//! explicit-flow diagnostic, and the fixed program is accepted:
//!
//! ```
//! use p4bid_typeck::{check_source, CheckOptions, DiagCode};
//!
//! let buggy = r#"
//!     header ipv4_t { <bit<8>, low> ttl; }
//!     header local_t { <bit<8>, high> phys_ttl; }
//!     struct headers { ipv4_t ipv4; local_t local_hdr; }
//!     control Ingress(inout headers hdr) {
//!         action update(<bit<8>, high> phys_ttl) {
//!             hdr.ipv4.ttl = phys_ttl;          // !BUG!: low <- high
//!         }
//!         apply { }
//!     }
//! "#;
//! let errs = check_source(buggy, &CheckOptions::ifc()).unwrap_err();
//! assert!(errs.iter().any(|d| d.code == DiagCode::ExplicitFlow));
//!
//! let fixed = buggy.replace("hdr.ipv4.ttl", "hdr.local_hdr.phys_ttl");
//! assert!(check_source(&fixed, &CheckOptions::ifc()).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod diag;
pub mod env;
pub mod lineage;
pub mod oracle;
pub(crate) mod prefix;
pub mod session;

pub use checker::{
    check_program, CheckOptions, Mode, ProgramView, TypedControl, TypedParam, TypedProgram,
};
pub use diag::{DiagCode, Diagnostic};
pub use env::{LabelTable, ScopedEnv, TypeDefs, VarInfo};
pub use lineage::{render_chain, FlowEdge, FlowNode, FlowOp, LineageEdge, LineageGraph};
pub use session::{
    CheckerSession, SessionHarvest, SessionStats, SharedSessionCore, DEFAULT_PREFIX_CACHE_CAP,
};

use p4bid_ast::surface::Program;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The standard prelude, implicitly available to every program checked via
/// [`check_source`]: the BMv2-style `standard_metadata_t`, the builtin
/// match kinds, `NoAction`, `mark_to_drop`, and `num_bits_set` (the
/// popcount helper the D2R case study uses, Listing 3).
///
/// Everything is written in the surface language itself — the typecheckers
/// and the interpreter treat prelude definitions like user code.
pub const PRELUDE: &str = r#"
match_kind { exact, lpm, ternary }

struct standard_metadata_t {
    bit<9>  ingress_port;
    bit<9>  egress_spec;
    bit<9>  egress_port;
    bit<32> instance_type;
    bit<32> packet_length;
    bit<3>  priority;
}

action NoAction() { }

function void mark_to_drop(inout standard_metadata_t meta) {
    meta.egress_spec = 9w511;
}

function bit<32> num_bits_set(in bit<32> x) {
    bit<32> v = x;
    v = v - ((v >> 1) & 0x55555555);
    v = (v & 0x33333333) + ((v >> 2) & 0x33333333);
    v = (v + (v >> 4)) & 0x0F0F0F0F;
    return (v * 0x01010101) >> 24;
}
"#;

/// How many times this process has lexed and parsed the prelude (see
/// [`prelude_build_counts`]). Each counter can reach at most 1: both
/// results are cached process-wide. Prelude *checks* are counted per
/// session ([`SessionStats::prelude_checks`]).
pub(crate) static PRELUDE_LEXES: AtomicU64 = AtomicU64::new(0);
pub(crate) static PRELUDE_PARSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide prelude build counters, for asserting that no session or
/// core ever re-lexes or re-parses the prelude (the shared-core
/// regression suite pins this down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreludeBuildCounts {
    /// Times the prelude text was lexed (at most 1: the `Copy` token slice
    /// is cached process-wide and shared by every session).
    pub lexes: u64,
    /// Times the prelude token slice was parsed (at most 1: the parsed
    /// `Program` is cached process-wide).
    pub parses: u64,
}

/// Reads the process-wide prelude build counters.
#[must_use]
pub fn prelude_build_counts() -> PreludeBuildCounts {
    PreludeBuildCounts {
        lexes: PRELUDE_LEXES.load(Ordering::Relaxed),
        parses: PRELUDE_PARSES.load(Ordering::Relaxed),
    }
}

/// The prelude token slice, lexed once per process (tokens are `Copy` and
/// carry no text of their own, so the slice is shared statically exactly
/// as the ROADMAP's token-stream-reuse item asked for).
pub(crate) fn prelude_tokens() -> &'static [p4bid_syntax::Token] {
    static TOKENS: OnceLock<Vec<p4bid_syntax::Token>> = OnceLock::new();
    TOKENS.get_or_init(|| {
        PRELUDE_LEXES.fetch_add(1, Ordering::Relaxed);
        p4bid_syntax::lex(PRELUDE).expect("the shipped prelude lexes")
    })
}

/// The prelude, parsed once per process from the cached token slice and
/// shared by handle (sessions clone the `Arc`, never the AST).
pub(crate) fn prelude_arc() -> std::sync::Arc<Program> {
    static PROGRAM: OnceLock<std::sync::Arc<Program>> = OnceLock::new();
    std::sync::Arc::clone(PROGRAM.get_or_init(|| {
        PRELUDE_PARSES.fetch_add(1, Ordering::Relaxed);
        std::sync::Arc::new(
            p4bid_syntax::parse_tokens(PRELUDE, prelude_tokens())
                .expect("the shipped prelude parses"),
        )
    }))
}

/// Parses the prelude: a clone of the process-wide cached parse of the
/// process-wide cached token slice. Infallible for the shipped prelude;
/// kept private so the unit tests can prove it.
fn prelude_items() -> Program {
    (*prelude_arc()).clone()
}

/// The `--max-source-bytes` guard: the single [`DiagCode::Oversized`]
/// diagnostic for a source that exceeds the cap, or `None` when it fits
/// (or the guard is off). Checked before the lexer ever sees the input.
pub(crate) fn oversized_diag(source: &str, opts: &CheckOptions) -> Option<Diagnostic> {
    let cap = opts.max_source_bytes;
    (cap > 0 && source.len() as u64 > cap).then(|| {
        Diagnostic::new(
            DiagCode::Oversized,
            format!("program source is {} bytes, over the {cap}-byte cap", source.len()),
            p4bid_ast::span::Span::dummy(),
        )
    })
}

/// Parses and typechecks a source program, with the [`PRELUDE`] available.
///
/// # Errors
///
/// Returns parser errors (as a single [`Diagnostic`] with code
/// [`DiagCode::Malformed`]), a single [`DiagCode::Oversized`] diagnostic
/// when the source exceeds `opts.max_source_bytes`, or the full list of
/// type/flow errors.
pub fn check_source(source: &str, opts: &CheckOptions) -> Result<TypedProgram, Vec<Diagnostic>> {
    if let Some(d) = oversized_diag(source, opts) {
        return Err(vec![d]);
    }
    let user = p4bid_syntax::parse(source).map_err(|e| {
        vec![Diagnostic::new(DiagCode::Malformed, e.message().to_string(), e.span())]
    })?;
    let mut program = prelude_items();
    program.items.extend(user.items);
    check_program(program, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_parses_and_checks_in_both_modes() {
        let p = prelude_items();
        assert!(p.items.len() >= 4);
        check_program(p.clone(), &CheckOptions::ifc()).expect("prelude is IFC-clean");
        check_program(p, &CheckOptions::base()).expect("prelude is base-clean");
    }

    #[test]
    fn empty_program_with_prelude_checks() {
        let t =
            check_source("control C(inout bit<8> x) { apply { } }", &CheckOptions::ifc()).unwrap();
        assert_eq!(t.controls.len(), 1);
        assert_eq!(t.controls[0].name, "C");
    }

    #[test]
    fn parse_errors_become_diagnostics() {
        let errs = check_source("control {", &CheckOptions::ifc()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, DiagCode::Malformed);
    }

    #[test]
    fn oversized_sources_are_rejected_before_parsing() {
        let src = "control C(inout bit<8> x) { apply { } }";
        let tight = CheckOptions::ifc().with_max_source_bytes(8);
        let errs = check_source(src, &tight).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, DiagCode::Oversized);
        // The cap is exclusive: a source exactly at the cap still checks.
        let exact = CheckOptions::ifc().with_max_source_bytes(src.len() as u64);
        assert!(check_source(src, &exact).is_ok());
        // 0 disables the guard.
        assert!(check_source(src, &CheckOptions::ifc()).is_ok());
        // Even unparseable garbage is rejected as oversized, not malformed.
        let errs = check_source("control {{{{ not p4", &tight).unwrap_err();
        assert_eq!(errs[0].code, DiagCode::Oversized);
    }

    #[test]
    fn expired_deadline_is_a_timeout_diagnostic() {
        // `check_timeout_ms: 0` disables the guard, so arm an explicit
        // deadline in the past to hit the expiry path deterministically.
        let mut session = CheckerSession::new(CheckOptions::ifc());
        session.set_deadline(Some(std::time::Instant::now() - std::time::Duration::from_millis(1)));
        let errs =
            session.check("control C(inout bit<8> x) { apply { x = x + 8w1; } }").unwrap_err();
        assert!(errs.iter().any(|d| d.code == DiagCode::Timeout), "{errs:?}");
        // The deadline was consumed: the next check runs unguarded.
        assert!(session.check("control C(inout bit<8> x) { apply { x = x + 8w1; } }").is_ok());
    }
}
