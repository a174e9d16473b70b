//! Typechecker diagnostics.
//!
//! Every rejected program gets one or more [`Diagnostic`]s pointing at the
//! offending source span, with a machine-readable [`DiagCode`] so tests and
//! tools can assert on the *class* of violation (explicit flow, implicit
//! flow, table-key flow, …) rather than on message text.

use crate::lineage::{render_chain, FlowEdge};
use p4bid_ast::span::Span;
use std::fmt;

/// Machine-readable diagnostic classes.
///
/// The `*Flow` codes are the information-flow violations the paper's case
/// studies exercise; the remaining codes are ordinary (base) type errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    // --- base type errors -------------------------------------------------
    /// Reference to an unknown type name.
    UnknownType,
    /// Reference to an unknown variable.
    UnknownVar,
    /// Reference to an unknown field.
    UnknownField,
    /// Reference to an unknown match kind.
    UnknownMatchKind,
    /// Reference to an unknown action in a table.
    UnknownAction,
    /// A name declared twice in the same scope.
    DuplicateDef,
    /// Operand or assignment type mismatch.
    TypeMismatch,
    /// Called something that is not a function or action.
    NotCallable,
    /// Applied something that is not a table.
    NotATable,
    /// Wrong number of arguments.
    ArityMismatch,
    /// Assignment target is not an l-value, or is read-only.
    NotAssignable,
    /// `return` outside a function, or with the wrong type.
    BadReturn,
    /// A non-void function body may fall through without returning.
    MissingReturn,
    /// Binary/unary operator applied to unsupported operand types.
    InvalidOperands,
    /// Malformed program structure (e.g. no control block).
    Malformed,

    // --- failure-domain diagnostics ----------------------------------------
    /// The checker itself failed on this program (a caught panic in an
    /// isolated worker). Never cached; the program counts as rejected.
    InternalError,
    /// The per-program wall-clock budget (`--check-timeout-ms`) expired
    /// before checking finished. Never cached.
    Timeout,
    /// The program source exceeds the configured `--max-source-bytes`
    /// cap and was rejected without being parsed.
    Oversized,

    // --- security (IFC) errors --------------------------------------------
    /// Reference to a label that is not in the active lattice.
    UnknownLabel,
    /// Explicit flow: assignment of higher-labeled data into a
    /// lower-labeled location (`χ₂ ⋢ χ₁` in T-Assign).
    ExplicitFlow,
    /// Implicit flow: write below the current security context
    /// (`pc ⋢ χ₁` in T-Assign, or an `exit`/`return` above ⊥).
    ImplicitFlow,
    /// A call in a context higher than the callee's write bound
    /// (`pc ⋢ pc_fn` in T-Call).
    CallPcViolation,
    /// A table whose key is more secret than some action's writes
    /// (`χ_k ⋢ pc_fn_j` in T-TblDecl).
    TableKeyFlow,
    /// A table applied in a context above its `pc_tbl` (T-TblCall).
    TableApplyPcViolation,
    /// An `inout` argument whose security type differs from the parameter
    /// (no subtyping on `inout`, §4.2).
    InoutLabelMismatch,
    /// Indexing with an index more secret than the stack elements
    /// (`χ₂ ⋢ χ₁` in T-Index).
    IndexLeak,
    /// A `declassify(e)` site in a run whose options (or policy rule) do
    /// not permit declassification.
    DeclassifyForbidden,
    /// A control whose `@pc(...)` annotation sits below the ambient
    /// context when the options make the ambient pc a floor
    /// (`CheckOptions::pc_floor`; the topology fixpoint driver's
    /// ingress-label seeding). An understated pc would let the control
    /// write below the real influence of the data reaching it.
    PcBelowAmbient,
}

impl DiagCode {
    /// Whether the code is one of the information-flow violations (as
    /// opposed to a plain type error a non-security P4 compiler would also
    /// report).
    #[must_use]
    pub fn is_security(self) -> bool {
        matches!(
            self,
            DiagCode::UnknownLabel
                | DiagCode::ExplicitFlow
                | DiagCode::ImplicitFlow
                | DiagCode::CallPcViolation
                | DiagCode::TableKeyFlow
                | DiagCode::TableApplyPcViolation
                | DiagCode::InoutLabelMismatch
                | DiagCode::IndexLeak
                | DiagCode::DeclassifyForbidden
                | DiagCode::PcBelowAmbient
        )
    }

    /// The codes of *transient* checking failures — a caught worker panic
    /// and an expired wall-clock budget — whose verdicts must never be
    /// cached or replayed: a retry of the same body may legitimately
    /// produce a different outcome.
    pub const TRANSIENT: [DiagCode; 2] = [DiagCode::InternalError, DiagCode::Timeout];

    /// Short stable identifier, e.g. `E-EXPLICIT-FLOW`.
    #[must_use]
    pub fn ident(self) -> &'static str {
        match self {
            DiagCode::UnknownType => "E-UNKNOWN-TYPE",
            DiagCode::UnknownVar => "E-UNKNOWN-VAR",
            DiagCode::UnknownField => "E-UNKNOWN-FIELD",
            DiagCode::UnknownMatchKind => "E-UNKNOWN-MATCH-KIND",
            DiagCode::UnknownAction => "E-UNKNOWN-ACTION",
            DiagCode::DuplicateDef => "E-DUPLICATE-DEF",
            DiagCode::TypeMismatch => "E-TYPE-MISMATCH",
            DiagCode::NotCallable => "E-NOT-CALLABLE",
            DiagCode::NotATable => "E-NOT-A-TABLE",
            DiagCode::ArityMismatch => "E-ARITY-MISMATCH",
            DiagCode::NotAssignable => "E-NOT-ASSIGNABLE",
            DiagCode::BadReturn => "E-BAD-RETURN",
            DiagCode::MissingReturn => "E-MISSING-RETURN",
            DiagCode::InvalidOperands => "E-INVALID-OPERANDS",
            DiagCode::Malformed => "E-MALFORMED",
            DiagCode::InternalError => "E-INTERNAL",
            DiagCode::Timeout => "E-TIMEOUT",
            DiagCode::Oversized => "E-OVERSIZED",
            DiagCode::UnknownLabel => "E-UNKNOWN-LABEL",
            DiagCode::ExplicitFlow => "E-EXPLICIT-FLOW",
            DiagCode::ImplicitFlow => "E-IMPLICIT-FLOW",
            DiagCode::CallPcViolation => "E-CALL-PC",
            DiagCode::TableKeyFlow => "E-TABLE-KEY-FLOW",
            DiagCode::TableApplyPcViolation => "E-TABLE-APPLY-PC",
            DiagCode::InoutLabelMismatch => "E-INOUT-LABEL",
            DiagCode::IndexLeak => "E-INDEX-LEAK",
            DiagCode::DeclassifyForbidden => "E-DECLASSIFY-FORBIDDEN",
            DiagCode::PcBelowAmbient => "E-PC-FLOOR",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ident())
    }
}

/// A single typechecker diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Machine-readable class.
    pub code: DiagCode,
    /// Human-readable message (lowercase, no trailing punctuation).
    pub message: String,
    /// Primary source span.
    pub span: Span,
    /// The source → sink flow path explaining the violation, oldest edge
    /// first with the violating edge last. Empty for diagnostics with no
    /// flow to explain (parse errors, unknown names) and when lineage
    /// recording is off.
    pub lineage: Vec<FlowEdge>,
}

impl Diagnostic {
    /// Builds a diagnostic.
    #[must_use]
    pub fn new(code: DiagCode, message: impl Into<String>, span: Span) -> Self {
        Diagnostic { code, message: message.into(), span, lineage: Vec::new() }
    }

    /// Attaches a flow-lineage path, builder-style.
    #[must_use]
    pub fn with_lineage(mut self, path: Vec<FlowEdge>) -> Self {
        self.lineage = path;
        self
    }

    /// The lineage path rendered as one human-readable chain, e.g.
    /// `` `h` (high) --assign--> `x` (high) --assign--> `l` (low) ``.
    /// `None` when the diagnostic carries no lineage.
    #[must_use]
    pub fn lineage_chain(&self) -> Option<String> {
        (!self.lineage.is_empty()).then(|| render_chain(&self.lineage))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}]: {}", self.code.ident(), self.message)?;
        if let Some(chain) = self.lineage_chain() {
            write!(f, "\n  flow: {chain}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn security_classification() {
        assert!(DiagCode::ExplicitFlow.is_security());
        assert!(DiagCode::TableKeyFlow.is_security());
        assert!(!DiagCode::TypeMismatch.is_security());
        assert!(!DiagCode::UnknownVar.is_security());
    }

    #[test]
    fn display_includes_code_and_message() {
        let d = Diagnostic::new(DiagCode::ExplicitFlow, "high flows to low", Span::new(1, 2));
        assert_eq!(d.to_string(), "error[E-EXPLICIT-FLOW]: high flows to low");
    }

    #[test]
    fn idents_are_stable() {
        assert_eq!(DiagCode::ImplicitFlow.ident(), "E-IMPLICIT-FLOW");
        assert_eq!(DiagCode::TableApplyPcViolation.ident(), "E-TABLE-APPLY-PC");
        assert_eq!(DiagCode::DeclassifyForbidden.ident(), "E-DECLASSIFY-FORBIDDEN");
        assert_eq!(DiagCode::InternalError.ident(), "E-INTERNAL");
        assert_eq!(DiagCode::Timeout.ident(), "E-TIMEOUT");
        assert_eq!(DiagCode::Oversized.ident(), "E-OVERSIZED");
    }

    #[test]
    fn transient_failures_are_classified() {
        // Transient verdicts must never be cached; a deterministic
        // oversized reject may be.
        let transient = |c| DiagCode::TRANSIENT.contains(&c);
        assert!(transient(DiagCode::InternalError));
        assert!(transient(DiagCode::Timeout));
        assert!(!transient(DiagCode::Oversized));
        assert!(!transient(DiagCode::ExplicitFlow));
        // None of the failure-domain codes is a security violation.
        assert!(!DiagCode::InternalError.is_security());
        assert!(!DiagCode::Timeout.is_security());
        assert!(!DiagCode::Oversized.is_security());
    }

    #[test]
    fn display_renders_the_flow_chain() {
        use crate::lineage::{FlowEdge, FlowNode, FlowOp};
        let edge = FlowEdge {
            op: FlowOp::Assign,
            source: FlowNode::new("h", "high", Span::new(1, 2)),
            sink: FlowNode::new("l", "low", Span::new(3, 4)),
        };
        let d = Diagnostic::new(DiagCode::ExplicitFlow, "high flows to low", Span::new(3, 4))
            .with_lineage(vec![edge]);
        let s = d.to_string();
        assert!(s.contains("flow: `h` (high) --assign--> `l` (low)"), "{s}");
        assert!(d.lineage_chain().is_some());
        let plain = Diagnostic::new(DiagCode::UnknownVar, "unknown `x`", Span::new(0, 1));
        assert!(plain.lineage_chain().is_none());
    }
}
