//! Surface abstract syntax for the security-annotated Core P4 fragment.
//!
//! This is a direct transcription of Figure 1 of the P4BID paper (plus the
//! handful of conveniences the case studies need: unary operators, a richer
//! binary-operator set, header/struct/typedef declarations, and a `lattice`
//! declaration for custom label orders). Security annotations are written
//! `<T, label>` as in Listings 2–7; an unannotated type defaults to `⊥`.
//!
//! Label annotations are kept as *names* here; the typechecker resolves them
//! against the active [`p4bid_lattice::Lattice`].

use crate::span::{Span, Spanned};
use std::fmt;

/// Parameter / expression directionality (`d ::= in | inout`).
///
/// `in` data can only be read; `inout` can be read and written. Omitted
/// directions on action parameters mark *control-plane* parameters whose
/// arguments are supplied by the controller at table-install time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Read-only.
    In,
    /// Readable and writable (copy-in/copy-out).
    InOut,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::In => write!(f, "in"),
            Direction::InOut => write!(f, "inout"),
        }
    }
}

/// A surface type expression (τ before typedef unfolding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeExpr {
    /// `bool`.
    Bool,
    /// Arbitrary-precision `int`.
    Int,
    /// `bit<n>`, an unsigned bit-vector of width `n` (1 ≤ n ≤ 128).
    Bit(u16),
    /// `void` / unit — function return type only.
    Void,
    /// A named type: a typedef alias, header, or struct name, resolved via
    /// the type-definition context Δ.
    Named(String),
    /// A header stack `T[n]`.
    Stack(Box<AnnType>, u32),
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Bool => write!(f, "bool"),
            TypeExpr::Int => write!(f, "int"),
            TypeExpr::Bit(n) => write!(f, "bit<{n}>"),
            TypeExpr::Void => write!(f, "void"),
            TypeExpr::Named(n) => write!(f, "{n}"),
            TypeExpr::Stack(t, n) => write!(f, "{}[{n}]", t),
        }
    }
}

/// A type expression together with an optional security-label annotation:
/// the surface form of the security type `⟨τ, χ⟩`.
///
/// `<bit<8>, high> ttl;` parses to `AnnType { ty: Bit(8), label: Some("high") }`.
/// Unannotated types (`bit<8> ttl;`) default to the lattice bottom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnType {
    /// The underlying Core P4 type.
    pub ty: TypeExpr,
    /// Optional label name, resolved against the lattice by the checker.
    pub label: Option<Spanned<String>>,
    /// Source location of the whole annotation.
    pub span: Span,
}

impl AnnType {
    /// An unannotated (⊥-labeled) type.
    #[must_use]
    pub fn plain(ty: TypeExpr, span: Span) -> Self {
        AnnType { ty, label: None, span }
    }
}

impl fmt::Display for AnnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.label {
            Some(l) => write!(f, "<{}, {}>", self.ty, l.node),
            None => write!(f, "{}", self.ty),
        }
    }
}

/// Binary operators (`⊕`). The paper leaves the operator set to a typing
/// oracle `T`; we provide the operators the case studies and the P4 core
/// library use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (wrapping on `bit<n>`).
    Add,
    /// `-` (wrapping on `bit<n>`).
    Sub,
    /// `*` (wrapping on `bit<n>`).
    Mul,
    /// `&` bitwise and.
    BitAnd,
    /// `|` bitwise or.
    BitOr,
    /// `^` bitwise xor.
    BitXor,
    /// `<<` left shift.
    Shl,
    /// `>>` logical right shift.
    Shr,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&` (both operands evaluated; Core P4 calls are effectful so we keep
    /// evaluation total and strict).
    And,
    /// `||`.
    Or,
}

impl BinOp {
    /// Surface token for this operator.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `!` boolean negation.
    Not,
    /// `-` arithmetic negation (wrapping on `bit<n>`).
    Neg,
    /// `~` bitwise complement.
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Not => write!(f, "!"),
            UnOp::Neg => write!(f, "-"),
            UnOp::BitNot => write!(f, "~"),
        }
    }
}

/// Expression forms (Figure 1a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Boolean literal `b`.
    Bool(bool),
    /// Integer literal `n_w`: value plus optional width (`8w255` has
    /// width 8; a bare `255` is an arbitrary-precision `int`).
    Int {
        /// The literal value (bit patterns are masked to the width).
        value: u128,
        /// Literal width, if given with `<w>w<value>` syntax.
        width: Option<u16>,
    },
    /// Variable `x`.
    Var(String),
    /// Array/stack indexing `e1[e2]`.
    Index(Box<Expr>, Box<Expr>),
    /// Binary operation `e1 ⊕ e2`.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Record literal `{ f1 = e1, …, fk = ek }`.
    Record(Vec<(Spanned<String>, Expr)>),
    /// Field projection `e.f`.
    Field(Box<Expr>, Spanned<String>),
    /// Function / action call `e(args…)`. A table application `t.apply()`
    /// desugars to `Call(Var(t), [])`.
    Call(Box<Expr>, Vec<Expr>),
}

/// A spanned expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// The expression form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Builds an expression node.
    #[must_use]
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Convenience constructor for a variable reference.
    #[must_use]
    pub fn var(name: impl Into<String>, span: Span) -> Self {
        Expr::new(ExprKind::Var(name.into()), span)
    }

    /// Whether the expression is syntactically a valid l-value
    /// (Appendix F: `lval ::= x | lval.f | lval[n]`, where the index may be
    /// any expression at evaluation time).
    #[must_use]
    pub fn is_lvalue_shaped(&self) -> bool {
        match &self.kind {
            ExprKind::Var(_) => true,
            ExprKind::Field(e, _) | ExprKind::Index(e, _) => e.is_lvalue_shaped(),
            _ => false,
        }
    }
}

/// A local variable declaration `⟨τ, χ⟩ x := e` / `⟨τ, χ⟩ x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Declared (possibly annotated) type.
    pub ty: AnnType,
    /// Variable name.
    pub name: Spanned<String>,
    /// Optional initializer.
    pub init: Option<Expr>,
    /// Source location of the whole declaration.
    pub span: Span,
}

/// Statement forms (Figure 1b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// Call statement `e1(e2…)` — covers direct action/function calls and
    /// table applications.
    Call(Expr),
    /// Assignment `lval := e`.
    Assign(Expr, Expr),
    /// Conditional.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// Block `{ stmt… }`.
    Block(Vec<Stmt>),
    /// `exit` — abort the control block.
    Exit,
    /// `return e` / `return`.
    Return(Option<Expr>),
    /// Nested variable declaration.
    VarDecl(VarDecl),
}

/// A spanned statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// The statement form.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Builds a statement node.
    #[must_use]
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }
}

/// A function/action parameter `d x : ⟨τ, χ⟩`.
///
/// `direction: None` on an action parameter marks a *control-plane*
/// parameter (the paper's "directionless" optional arguments, supplied by
/// the controller); it behaves as `in` inside the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// `in`, `inout`, or none (control-plane).
    pub direction: Option<Direction>,
    /// Parameter name.
    pub name: Spanned<String>,
    /// Declared type.
    pub ty: AnnType,
}

/// An action declaration — a function with no return value whose
/// directionless parameters may be bound by the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDecl {
    /// Action name.
    pub name: Spanned<String>,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A function declaration `function ⟨τ_ret, χ_ret⟩ x (d y : ⟨τ, χ⟩) { stmt }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionDecl {
    /// Function name.
    pub name: Spanned<String>,
    /// Return type (`void` for unit).
    pub ret: AnnType,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A key entry in a table declaration: `exp : match_kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyEntry {
    /// Key expression, usually a header field.
    pub expr: Expr,
    /// Match kind name (`exact`, `lpm`, `ternary`).
    pub match_kind: Spanned<String>,
}

/// An action reference inside a table: `act(bound_args…)`.
///
/// Bound arguments fill the action's *directional* parameter prefix at
/// table-declaration time (as in `forwarding(failures)` in Listing 3); the
/// remaining directionless parameters are supplied by the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionRef {
    /// Action name.
    pub name: Spanned<String>,
    /// Data-plane arguments bound at declaration.
    pub args: Vec<Expr>,
    /// Source location.
    pub span: Span,
}

/// A table declaration `table x { key act }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecl {
    /// Table name.
    pub name: Spanned<String>,
    /// Lookup keys.
    pub keys: Vec<KeyEntry>,
    /// Candidate actions.
    pub actions: Vec<ActionRef>,
    /// Optional default action (must be one of `actions`), run on a lookup
    /// miss. Defaults to `NoAction`.
    pub default_action: Option<Spanned<String>>,
    /// Source location.
    pub span: Span,
}

/// Declarations allowed inside a control body (`decl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlDecl {
    /// Local variable.
    Var(VarDecl),
    /// Action.
    Action(ActionDecl),
    /// Function.
    Function(FunctionDecl),
    /// Match-action table.
    Table(TableDecl),
}

impl CtrlDecl {
    /// The declared name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            CtrlDecl::Var(v) => &v.name.node,
            CtrlDecl::Action(a) => &a.name.node,
            CtrlDecl::Function(f) => &f.name.node,
            CtrlDecl::Table(t) => &t.name.node,
        }
    }

    /// The source span of the declaration.
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            CtrlDecl::Var(v) => v.span,
            CtrlDecl::Action(a) => a.span,
            CtrlDecl::Function(f) => f.span,
            CtrlDecl::Table(t) => t.span,
        }
    }
}

/// A control block: declarations followed by the `apply` block
/// (`ctrl_body ::= decl stmt`).
///
/// The optional `pc` annotation (`@pc(A) control Alice(...) { … }`) sets
/// the ambient security context the block is checked under, as in the
/// isolation case study (§5.4): `Γ, Δ ⊢_A update_by_alice() ⊣ Γ'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlDecl {
    /// Control name.
    pub name: Spanned<String>,
    /// Parameters (headers, metadata, …).
    pub params: Vec<Param>,
    /// Body declarations.
    pub decls: Vec<CtrlDecl>,
    /// The `apply { … }` statements.
    pub apply: Vec<Stmt>,
    /// Optional `@pc(label)` annotation.
    pub pc: Option<Spanned<String>>,
    /// Source location.
    pub span: Span,
}

/// Top-level type declarations (`typ_decl`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDecl {
    /// `typedef τ X;`
    Typedef {
        /// Aliased type.
        ty: AnnType,
        /// New name.
        name: Spanned<String>,
    },
    /// `header X { ⟨τ, χ⟩ f; … }`
    Header {
        /// Header type name.
        name: Spanned<String>,
        /// Field declarations.
        fields: Vec<(Spanned<String>, AnnType)>,
    },
    /// `struct X { ⟨τ, χ⟩ f; … }` — a record type.
    Struct {
        /// Struct type name.
        name: Spanned<String>,
        /// Field declarations.
        fields: Vec<(Spanned<String>, AnnType)>,
    },
    /// `match_kind { f, … }`
    MatchKind {
        /// Declared match kinds (e.g. `exact`, `lpm`).
        kinds: Vec<Spanned<String>>,
    },
}

impl TypeDecl {
    /// The declared name, if the declaration introduces one.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self {
            TypeDecl::Typedef { name, .. }
            | TypeDecl::Header { name, .. }
            | TypeDecl::Struct { name, .. } => Some(&name.node),
            TypeDecl::MatchKind { .. } => None,
        }
    }
}

/// A custom lattice declaration:
/// `lattice { bot < A; bot < B; A < top; B < top; }`.
///
/// Element names are collected from the order pairs. When absent the
/// program uses the active lattice supplied by the embedding (by default
/// the two-point `{low ⊑ high}` lattice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeDecl {
    /// Order constraints `lo < hi`.
    pub order: Vec<(Spanned<String>, Spanned<String>)>,
    /// Source location.
    pub span: Span,
}

impl LatticeDecl {
    /// All element names mentioned, deduplicated in first-appearance order.
    #[must_use]
    pub fn element_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for (lo, hi) in &self.order {
            for n in [&lo.node, &hi.node] {
                if !names.contains(n) {
                    names.push(n.clone());
                }
            }
        }
        names
    }
}

/// Top-level items, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A type declaration.
    Type(TypeDecl),
    /// A lattice declaration.
    Lattice(LatticeDecl),
    /// A global function (visible in every control).
    Function(FunctionDecl),
    /// A global action (visible in every control).
    Action(ActionDecl),
    /// A control block.
    Control(ControlDecl),
}

/// A whole program (`prg ::= typ_decl ctrl_body`, generalized to several
/// top-level items and at least one control block).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// All items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Iterates over the control blocks in source order.
    pub fn controls(&self) -> impl Iterator<Item = &ControlDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Control(c) => Some(c),
            _ => None,
        })
    }

    /// The lattice declaration, if any. Multiple declarations are a parse
    /// error; the first wins defensively.
    #[must_use]
    pub fn lattice_decl(&self) -> Option<&LatticeDecl> {
        self.items.iter().find_map(|i| match i {
            Item::Lattice(l) => Some(l),
            _ => None,
        })
    }

    /// Iterates over the type declarations in source order.
    pub fn type_decls(&self) -> impl Iterator<Item = &TypeDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Type(t) => Some(t),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::dummy()
    }

    #[test]
    fn lvalue_shapes() {
        let x = Expr::var("x", sp());
        assert!(x.is_lvalue_shaped());
        let xf =
            Expr::new(ExprKind::Field(Box::new(x.clone()), Spanned::new("f".into(), sp())), sp());
        assert!(xf.is_lvalue_shaped());
        let idx = Expr::new(
            ExprKind::Index(
                Box::new(xf),
                Box::new(Expr::new(ExprKind::Int { value: 0, width: None }, sp())),
            ),
            sp(),
        );
        assert!(idx.is_lvalue_shaped());
        let call = Expr::new(ExprKind::Call(Box::new(x), vec![]), sp());
        assert!(!call.is_lvalue_shaped());
        let lit = Expr::new(ExprKind::Bool(true), sp());
        assert!(!lit.is_lvalue_shaped());
    }

    #[test]
    fn binop_classification() {
        assert_eq!(BinOp::Shl.symbol(), "<<");
        assert_eq!(BinOp::And.to_string(), "&&");
        assert_eq!(BinOp::BitAnd.to_string(), "&");
    }

    #[test]
    fn lattice_decl_names() {
        let s = |n: &str| Spanned::new(n.to_string(), sp());
        let decl = LatticeDecl {
            order: vec![(s("bot"), s("A")), (s("bot"), s("B")), (s("A"), s("top"))],
            span: sp(),
        };
        assert_eq!(decl.element_names(), vec!["bot", "A", "B", "top"]);
    }

    #[test]
    fn program_accessors() {
        let mut p = Program::default();
        assert!(p.lattice_decl().is_none());
        assert_eq!(p.controls().count(), 0);
        p.items.push(Item::Lattice(LatticeDecl { order: vec![], span: sp() }));
        assert!(p.lattice_decl().is_some());
    }

    #[test]
    fn display_forms() {
        assert_eq!(TypeExpr::Bit(32).to_string(), "bit<32>");
        assert_eq!(Direction::InOut.to_string(), "inout");
        assert_eq!(UnOp::BitNot.to_string(), "~");
        let ann = AnnType {
            ty: TypeExpr::Bit(8),
            label: Some(Spanned::new("high".into(), sp())),
            span: sp(),
        };
        assert_eq!(ann.to_string(), "<bit<8>, high>");
    }
}
