//! The Core P4 typechecker, in three modes:
//!
//! * **base** — the plain Core P4 typing judgements of §3.3 (the paper's
//!   "unannotated, p4c" baseline in Table 1): security annotations are
//!   stripped and no flow checks run;
//! * **ifc** — the P4BID security type system of §4.2 (Figures 5, 6, 7),
//!   which additionally enforces the lattice constraints;
//! * **permissive** — labels are resolved but flows are not enforced, so
//!   the non-interference harness can *run* buggy programs and exhibit
//!   their leaks.
//!
//! The declarative rules are implemented algorithmically:
//!
//! * expression checking *synthesizes* the principal type
//!   `⟨τ, χ⟩ goes d` (smallest label, most permissive direction);
//!   T-SubType-In is applied at every `in`-position use site;
//! * T-Subtype-PC is realized by threading the exact current context label
//!   `pc` downwards (`if` joins the guard label into it);
//! * `pc_fn` (T-FuncDecl) is inferred by checking the body once in
//!   *bound-collection* mode: every write/call/return contributes an upper
//!   bound, and `pc_fn` is the meet of the bounds (see DESIGN.md §4 for why
//!   the admissible set is a principal down-set);
//! * `pc_tbl` (T-TblDecl) is `⊓ⱼ pc_fnⱼ` over the table's actions, valid
//!   iff every key label is below it.
//!
//! All resolved types are hash-consed in the session's
//! [`TyPool`]: `SecTy` values are `Copy` id+label
//! pairs, the τ-equality side conditions are id comparisons (with a slow
//! path only for the `int` ↔ `bit<n>` coercion), and record/header field
//! lookups are symbol-keyed.

use crate::diag::{DiagCode, Diagnostic};
use crate::env::{LabelTable, ScopedEnv, TypeDefs, VarInfo};
use crate::lineage::{FlowEdge, FlowNode, FlowOp, LineageEdge, LineageGraph, TRACE_CAP};
use crate::oracle;
use p4bid_ast::intern::{Interner, Symbol};
use p4bid_ast::pool::{SharedTyCtx, TyCtx, TyPool};
use p4bid_ast::pretty::expr_to_string;
use p4bid_ast::sectype::{FieldList, FnParam, FnTy, SecTy, Ty, TyId};
use p4bid_ast::span::Span;
use p4bid_ast::surface::*;
use p4bid_lattice::{Label, Lattice};
use std::sync::Arc;

/// Which judgement set to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Plain Core P4 typing (the p4c baseline): annotations ignored.
    Base,
    /// The P4BID information-flow control type system.
    #[default]
    Ifc,
    /// Labels are resolved (so downstream tools like the NI harness know
    /// them) but no flow constraint is enforced. Used to *run* the
    /// seeded-buggy case-study programs and demonstrate their leaks.
    Permissive,
}

/// Options controlling a check run.
///
/// Two sets compare equal exactly when every field does; the check engine
/// keeps one cell per distinct set, so a program is never answered from a
/// cell built for other options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOptions {
    /// Baseline or IFC mode.
    pub mode: Mode,
    /// Lattice override. When `None`, a `lattice { … }` declaration in the
    /// program is used, falling back to [`Lattice::two_point`].
    pub lattice: Option<Lattice>,
    /// Ambient security context for controls without a `@pc(...)`
    /// annotation (label name, resolved against the active lattice).
    /// Defaults to `⊥`.
    pub pc: Option<String>,
    /// Whether the checker records flow edges into a per-program
    /// [`LineageGraph`] and attaches source→sink explanation paths to
    /// flow diagnostics (default on; recording is skipped in base mode,
    /// which has no labels to explain).
    pub record_lineage: bool,
    /// Whether `declassify(e)` is permitted (default off:
    /// declassification is an escape hatch a policy must grant
    /// explicitly, e.g. via a `p4bid.policy` rule).
    pub allow_declassify: bool,
    /// Largest program source, in bytes, the checker will accept. Larger
    /// inputs are rejected with a single [`DiagCode::Oversized`]
    /// diagnostic before the lexer ever sees them. `0` (the default)
    /// disables the guard.
    pub max_source_bytes: u64,
    /// Per-program wall-clock budget, in milliseconds. When it expires
    /// mid-check the checker stops early with a single
    /// [`DiagCode::Timeout`] diagnostic instead of hanging its worker.
    /// `0` (the default) disables the guard.
    pub check_timeout_ms: u64,
    /// Whether the ambient `pc` is a *floor*: a control whose `@pc(L)`
    /// annotation sits below the ambient context is rejected with
    /// [`DiagCode::PcBelowAmbient`] instead of silently lowering its
    /// write bound. Off by default (a standalone check trusts the
    /// annotation); the topology fixpoint driver turns it on, because
    /// there the ambient pc models real upstream influence that a
    /// single switch must not understate.
    pub pc_floor: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            mode: Mode::default(),
            lattice: None,
            pc: None,
            record_lineage: true,
            allow_declassify: false,
            max_source_bytes: 0,
            check_timeout_ms: 0,
            pc_floor: false,
        }
    }
}

impl CheckOptions {
    /// IFC mode with defaults.
    #[must_use]
    pub fn ifc() -> Self {
        CheckOptions { mode: Mode::Ifc, ..Default::default() }
    }

    /// Baseline mode with defaults.
    #[must_use]
    pub fn base() -> Self {
        CheckOptions { mode: Mode::Base, ..Default::default() }
    }

    /// Permissive mode (labels resolved, flows not enforced) with
    /// defaults.
    #[must_use]
    pub fn permissive() -> Self {
        CheckOptions { mode: Mode::Permissive, ..Default::default() }
    }

    /// Sets the ambient `pc` label by name, builder-style.
    #[must_use]
    pub fn with_pc(mut self, pc: impl Into<String>) -> Self {
        self.pc = Some(pc.into());
        self
    }

    /// Sets the lattice, builder-style.
    #[must_use]
    pub fn with_lattice(mut self, lattice: Lattice) -> Self {
        self.lattice = Some(lattice);
        self
    }

    /// Turns flow-lineage recording on or off, builder-style.
    #[must_use]
    pub fn with_lineage(mut self, record: bool) -> Self {
        self.record_lineage = record;
        self
    }

    /// Permits or forbids `declassify(e)`, builder-style.
    #[must_use]
    pub fn with_declassify(mut self, allow: bool) -> Self {
        self.allow_declassify = allow;
        self
    }

    /// Caps accepted source size in bytes (`0` = unlimited),
    /// builder-style.
    #[must_use]
    pub fn with_max_source_bytes(mut self, bytes: u64) -> Self {
        self.max_source_bytes = bytes;
        self
    }

    /// Sets the per-program wall-clock budget in milliseconds (`0` = no
    /// deadline), builder-style.
    #[must_use]
    pub fn with_check_timeout_ms(mut self, ms: u64) -> Self {
        self.check_timeout_ms = ms;
        self
    }

    /// Makes the ambient `pc` a floor that `@pc(...)` annotations may not
    /// dip below, builder-style (see [`CheckOptions::pc_floor`]).
    #[must_use]
    pub fn with_pc_floor(mut self, floor: bool) -> Self {
        self.pc_floor = floor;
        self
    }

    /// The deadline implied by [`CheckOptions::check_timeout_ms`] for a
    /// check starting now, if the guard is enabled.
    #[must_use]
    pub fn deadline_from_now(&self) -> Option<std::time::Instant> {
        (self.check_timeout_ms > 0).then(|| {
            std::time::Instant::now() + std::time::Duration::from_millis(self.check_timeout_ms)
        })
    }
}

/// A resolved control-block parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedParam {
    /// Parameter name (the human-facing boundary form).
    pub name: String,
    /// The interned parameter name (what the interpreter binds by).
    pub sym: Symbol,
    /// Direction (`in` or `inout`; directionless defaults to `in`).
    pub direction: Direction,
    /// Resolved security type.
    pub ty: SecTy,
}

/// A checked control block, with resolved parameter types, the ambient
/// `pc` it was checked under, and the inferred signatures of its
/// declarations (the `pc_fn` write bounds of T-FuncDecl and the `pc_tbl`
/// application bounds of T-TblDecl).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedControl {
    /// Control name.
    pub name: String,
    /// Resolved parameters.
    pub params: Vec<TypedParam>,
    /// Ambient security context.
    pub pc: Label,
    /// Inferred function/action types, in declaration order (includes
    /// globals visible to this control).
    pub functions: Vec<(String, Arc<FnTy>)>,
    /// Inferred table bounds `pc_tbl`, in declaration order.
    pub tables: Vec<(String, Label)>,
}

impl TypedControl {
    /// The inferred type of a function or action declared in (or visible
    /// to) this control.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&FnTy> {
        self.functions.iter().rev().find(|(n, _)| n == name).map(|(_, f)| &**f)
    }

    /// The inferred `pc_tbl` of a table declared in this control.
    #[must_use]
    pub fn table_pc(&self, name: &str) -> Option<Label> {
        self.tables.iter().find(|(n, _)| n == name).map(|(_, l)| *l)
    }
}

/// The checked program's items: the shared prelude (an `Arc`, never
/// deep-copied per program) followed by the user's items; iteration order
/// and equality behave exactly like one flat [`Program`].
#[derive(Debug, Clone)]
pub struct ProgramView {
    prelude: Arc<Program>,
    items: Vec<Item>,
}

impl ProgramView {
    pub(crate) fn new(prelude: Arc<Program>, items: Vec<Item>) -> Self {
        Self { prelude, items }
    }

    /// A view over a whole program, no shared parts.
    pub(crate) fn flat(program: Program) -> Self {
        Self { prelude: Arc::new(Program { items: Vec::new() }), items: program.items }
    }

    /// All items in source order (prelude items first if a prelude was
    /// included).
    pub fn items(&self) -> impl Iterator<Item = &Item> {
        self.prelude.items.iter().chain(self.items.iter())
    }

    /// Iterates over the control blocks in source order.
    pub fn controls(&self) -> impl Iterator<Item = &ControlDecl> {
        self.items().filter_map(|i| match i {
            Item::Control(c) => Some(c),
            _ => None,
        })
    }

    /// Number of items in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prelude.items.len() + self.items.len()
    }

    /// Whether the view holds no items at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for ProgramView {
    /// Item-sequence equality, independent of how the items are split
    /// between prelude and program.
    fn eq(&self, other: &Self) -> bool {
        self.items().eq(other.items())
    }
}

impl Eq for ProgramView {}

/// The result of a successful check: the program, the active lattice, the
/// resolved type definitions, per-control parameter signatures, and the
/// shared interner/type-pool context all resolved ids point into. This is
/// everything the interpreter and the non-interference harness need.
#[derive(Debug, Clone)]
pub struct TypedProgram {
    /// The checked program (prelude items first if a prelude was included).
    pub program: ProgramView,
    /// The active security lattice.
    pub lattice: Lattice,
    /// The resolved type-definition context Δ.
    pub defs: TypeDefs,
    /// Checked control blocks, in source order.
    pub controls: Vec<TypedControl>,
    /// The interner + type pool every [`Symbol`] and
    /// [`TyId`] in this program resolves
    /// against. Shared with the producing session (append-only, so ids
    /// stay valid as the session checks further programs).
    pub ctx: SharedTyCtx,
    /// Every flow edge the checker walked, in check order. Empty when
    /// lineage recording is off (or in base mode, which has no labels).
    pub lineage: LineageGraph,
}

impl TypedProgram {
    /// Finds a checked control by name.
    #[must_use]
    pub fn control(&self, name: &str) -> Option<&TypedControl> {
        self.controls.iter().find(|c| c.name == name)
    }

    /// The interned symbol of `name`, if the checker ever saw it.
    #[must_use]
    pub fn sym(&self, name: &str) -> Option<Symbol> {
        self.ctx.borrow().syms.lookup(name)
    }

    /// Interns `name` in the program's context (for constructing input
    /// values whose field keys must agree with the program's types).
    #[must_use]
    pub fn intern(&self, name: &str) -> Symbol {
        self.ctx.borrow_mut().syms.intern(name)
    }

    /// The string a symbol of this program stands for.
    #[must_use]
    pub fn sym_name(&self, sym: Symbol) -> String {
        self.ctx.borrow().syms.resolve(sym).to_string()
    }
}

/// Typechecks an already-parsed program.
///
/// # Errors
///
/// Returns all diagnostics if the program is ill-typed (or, in IFC mode,
/// leaky). The diagnostic list is never empty on `Err`.
pub fn check_program(
    program: Program,
    opts: &CheckOptions,
) -> Result<TypedProgram, Vec<Diagnostic>> {
    let lattice = resolve_lattice(&program, opts)?;
    let default_pc = resolve_default_pc(&lattice, opts)?;
    let ctx = TyCtx::shared();
    let deadline = opts.deadline_from_now();
    let (controls, state, lineage) = {
        let mut c = ctx.borrow_mut();
        check_items(
            &program.items,
            &lattice,
            opts,
            default_pc,
            &mut c,
            CheckerState::empty(),
            deadline,
        )?
    };
    Ok(TypedProgram {
        lattice,
        defs: state.defs,
        controls,
        program: ProgramView::flat(program),
        ctx,
        lineage,
    })
}

/// Resolves the active lattice: the override in `opts`, else the program's
/// `lattice { … }` declaration, else the two-point default.
pub(crate) fn resolve_lattice(
    program: &Program,
    opts: &CheckOptions,
) -> Result<Lattice, Vec<Diagnostic>> {
    if let Some(l) = &opts.lattice {
        return Ok(l.clone());
    }
    match program.lattice_decl() {
        Some(decl) => lattice_from_decl(decl),
        None => Ok(Lattice::two_point()),
    }
}

/// Builds the lattice a `lattice { … }` declaration describes.
fn lattice_from_decl(decl: &LatticeDecl) -> Result<Lattice, Vec<Diagnostic>> {
    let names = decl.element_names();
    let order: Vec<(String, String)> =
        decl.order.iter().map(|(lo, hi)| (lo.node.clone(), hi.node.clone())).collect();
    Lattice::from_order(&names, &order).map_err(|e| {
        vec![Diagnostic::new(
            DiagCode::Malformed,
            format!("invalid lattice declaration: {e}"),
            decl.span,
        )]
    })
}

/// Resolves the ambient `pc` override against the active lattice.
pub(crate) fn resolve_default_pc(
    lattice: &Lattice,
    opts: &CheckOptions,
) -> Result<Label, Vec<Diagnostic>> {
    match &opts.pc {
        None => Ok(lattice.bottom()),
        Some(name) => lattice.label(name).ok_or_else(|| {
            vec![Diagnostic::new(
                DiagCode::UnknownLabel,
                format!("ambient pc label `{name}` is not in the lattice {lattice}"),
                Span::dummy(),
            )]
        }),
    }
}

/// The carried checker context: Δ, the global Γ bindings, and the inferred
/// global function signatures. A [`CheckerSession`](crate::CheckerSession)
/// snapshots this after checking the prelude so later programs start from
/// the snapshot instead of re-checking it; because every type inside is a
/// pooled `TyId`, the snapshot clone copies ids, never type structure.
#[derive(Debug, Clone)]
pub(crate) struct CheckerState {
    pub(crate) defs: TypeDefs,
    pub(crate) env: ScopedEnv,
    pub(crate) sig_functions: Vec<(String, Arc<FnTy>)>,
}

impl CheckerState {
    pub(crate) fn empty() -> Self {
        CheckerState { defs: TypeDefs::new(), env: ScopedEnv::new(), sig_functions: Vec::new() }
    }

    /// Whether every interner/pool handle in the state lies below the
    /// given tier boundaries (a pure state is valid in any session over
    /// the same frozen base, so it can be published to the core).
    pub(crate) fn within_tiers(&self, max_sym: usize, max_ty: usize) -> bool {
        self.defs.within_tiers(max_sym, max_ty)
            && self.env.within_tiers(max_sym, max_ty)
            && self.sig_functions.iter().all(|(_, f)| fnty_within_tiers(f, max_sym, max_ty))
    }
}

/// Whether a function type's handles all lie below the tier boundaries.
pub(crate) fn fnty_within_tiers(f: &FnTy, max_sym: usize, max_ty: usize) -> bool {
    f.params.iter().all(|p| p.name.index() < max_sym && p.ty.ty.index() < max_ty)
        && f.ret.ty.index() < max_ty
}

/// Checks a run of top-level items under an initial state, returning the
/// checked controls, the final state (for prelude snapshotting), and the
/// recorded flow-lineage graph.
///
/// # Errors
///
/// Returns all diagnostics if any item is ill-typed.
pub(crate) fn check_items<'a>(
    items: &'a [Item],
    lattice: &'a Lattice,
    opts: &CheckOptions,
    default_pc: Label,
    ctx: &'a mut TyCtx,
    state: CheckerState,
    deadline: Option<std::time::Instant>,
) -> Result<(Vec<TypedControl>, CheckerState, LineageGraph), Vec<Diagnostic>> {
    let walk =
        walk_items(items.iter().map(Step::Check), lattice, opts, default_pc, ctx, state, deadline);
    if walk.diags.is_empty() {
        Ok((walk.controls, walk.state, walk.lineage))
    } else {
        Err(walk.diags)
    }
}

/// One top-level item of a [`walk_items`] run: checked from its AST, or
/// answered by the session's item memo with the diagnostics it recorded
/// (already rebased to the item's position).
pub(crate) enum Step<'a> {
    Check(&'a Item),
    Reuse(Vec<Diagnostic>),
}

/// Everything a [`walk_items`] run produced. `diags` is in item order and
/// `ends[i]` is its length after item `i`; a run cut by its deadline has
/// fewer `ends` than items, and `timed_out` set.
pub(crate) struct Walk {
    pub(crate) controls: Vec<TypedControl>,
    pub(crate) state: CheckerState,
    pub(crate) lineage: LineageGraph,
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) ends: Vec<usize>,
    pub(crate) timed_out: bool,
}

/// Walks top-level items in order under an initial state: each checked
/// item extends Δ/Γ/the signatures, each reused one contributes only its
/// recorded diagnostics. Reuse is sound for a `control` alone: it leaves
/// the carried state as it found it, and its lineage traces never reach
/// past its own flows (see `FlowLog::item_start`), so its diagnostics are
/// a function of the state before it and its own text.
pub(crate) fn walk_items<'a>(
    steps: impl IntoIterator<Item = Step<'a>>,
    lattice: &'a Lattice,
    opts: &CheckOptions,
    default_pc: Label,
    ctx: &'a mut TyCtx,
    state: CheckerState,
    deadline: Option<std::time::Instant>,
) -> Walk {
    let TyCtx { syms, types } = ctx;
    let labels = LabelTable::new(lattice, syms);
    let mut checker = Checker {
        lat: lattice,
        labels,
        syms,
        pool: types,
        resolve_labels: opts.mode != Mode::Base,
        enforce: opts.mode == Mode::Ifc,
        record: opts.record_lineage && opts.mode != Mode::Base,
        allow_declassify: opts.allow_declassify,
        pc_floor: opts.pc_floor,
        defs: state.defs,
        env: state.env,
        diags: Vec::new(),
        log: FlowLog::default(),
        guards: Vec::new(),
        guard_keys: Vec::new(),
        sig_functions: state.sig_functions,
        sig_tables: Vec::new(),
        pc_bounds: None,
        return_ty: None,
        deadline,
        timed_out: false,
    };

    let mut controls = Vec::new();
    let mut ends = Vec::new();
    for step in steps {
        if checker.deadline_expired() {
            break;
        }
        checker.log.item_start = checker.log.edges.len();
        match step {
            Step::Reuse(diags) => checker.diags.extend(diags),
            Step::Check(Item::Lattice(_)) => {}
            Step::Check(Item::Type(t)) => checker.type_decl(t),
            Step::Check(Item::Function(f)) => checker.function_decl(f),
            Step::Check(Item::Action(a)) => checker.action_decl(a),
            Step::Check(Item::Control(c)) => {
                if let Some(tc) = checker.control_decl(c, default_pc) {
                    controls.push(tc);
                }
            }
        }
        ends.push(checker.diags.len());
    }
    Walk {
        controls,
        state: CheckerState {
            defs: checker.defs,
            env: checker.env,
            sig_functions: checker.sig_functions,
        },
        lineage: checker.log.into_graph(),
        diags: checker.diags,
        ends,
        timed_out: checker.timed_out,
    }
}

/// One active `if` guard (innermost last), for blaming implicit flows:
/// when a `pc ⊑ bound` side condition fails, the innermost guard whose
/// label breaks the bound is the source of the leak.
struct GuardCtx<'a> {
    /// The guard expression (rendered only if the guard is blamed).
    cond: &'a Expr,
    /// The guard's label (already joined into the branch `pc`).
    label: Label,
    /// Range of the guard's trace keys in [`Checker::guard_keys`] (the
    /// arena is stack-disciplined: popped guards truncate it back).
    keys_start: u32,
    keys_len: u32,
}

// ----------------------------------------------------------------------
// Structural flow keys
//
// Lineage traces follow *handles*: the l-value-shaped subexpressions of
// an edge's source, matched against the sinks of earlier edges. Matching
// is by span-insensitive structural hash, never by rendered text — key
// extraction runs on the checking hot path for every program (including
// accepted ones), so it must not allocate. A 64-bit collision can at
// worst mis-pick one hop of an explanation path, never change a verdict.
// ----------------------------------------------------------------------

use p4bid_ast::hash::{byte as fnv_byte, bytes as fnv_bytes, OFFSET as FNV_OFFSET};

/// Folds an expression's structure (not its spans) into `h`: two
/// occurrences of the same written expression hash equal.
fn expr_key_into(e: &Expr, h: u64) -> u64 {
    match &e.kind {
        ExprKind::Bool(b) => fnv_byte(fnv_byte(h, 1), u8::from(*b)),
        ExprKind::Int { value, width } => {
            let h = fnv_bytes(fnv_byte(h, 2), &value.to_le_bytes());
            fnv_bytes(h, &width.unwrap_or(u16::MAX).to_le_bytes())
        }
        ExprKind::Var(name) => fnv_bytes(fnv_byte(h, 3), name.as_bytes()),
        ExprKind::Index(recv, index) => expr_key_into(index, expr_key_into(recv, fnv_byte(h, 4))),
        ExprKind::Binary(op, lhs, rhs) => {
            expr_key_into(rhs, expr_key_into(lhs, fnv_byte(fnv_byte(h, 5), *op as u8)))
        }
        ExprKind::Unary(op, inner) => expr_key_into(inner, fnv_byte(fnv_byte(h, 6), *op as u8)),
        ExprKind::Record(fields) => {
            let mut h = fnv_byte(h, 7);
            for (name, value) in fields {
                h = expr_key_into(value, fnv_bytes(h, name.node.as_bytes()));
            }
            h
        }
        ExprKind::Field(recv, field) => {
            fnv_bytes(expr_key_into(recv, fnv_byte(h, 8)), field.node.as_bytes())
        }
        ExprKind::Call(callee, args) => {
            let mut h = expr_key_into(callee, fnv_byte(h, 9));
            for arg in args {
                h = expr_key_into(arg, h);
            }
            h
        }
    }
}

/// Structural key of one expression.
fn expr_key(e: &Expr) -> u64 {
    expr_key_into(e, FNV_OFFSET)
}

/// The key of a bare declared name (variable, table, action, parameter):
/// identical to the key of a `Var` expression naming it, so name sinks
/// match later reads of the binding.
fn name_key(name: &str) -> u64 {
    fnv_bytes(fnv_byte(FNV_OFFSET, 3), name.as_bytes())
}

/// Collects the structural keys of the maximal l-value-shaped
/// subexpressions of `e` — the handles lineage traces follow backwards.
fn lvalue_key_hashes(e: &Expr, out: &mut Vec<u64>) {
    if e.is_lvalue_shaped() {
        out.push(expr_key(e));
        return;
    }
    match &e.kind {
        ExprKind::Binary(_, lhs, rhs) => {
            lvalue_key_hashes(lhs, out);
            lvalue_key_hashes(rhs, out);
        }
        ExprKind::Unary(_, inner) => lvalue_key_hashes(inner, out),
        ExprKind::Record(fields) => {
            for (_, value) in fields {
                lvalue_key_hashes(value, out);
            }
        }
        ExprKind::Call(_, args) => {
            for arg in args {
                lvalue_key_hashes(arg, out);
            }
        }
        ExprKind::Field(recv, _) => lvalue_key_hashes(recv, out),
        ExprKind::Index(recv, index) => {
            lvalue_key_hashes(recv, out);
            lvalue_key_hashes(index, out);
        }
        _ => {}
    }
}

/// A lineage sink before rendering: a borrowed expression or name from
/// the program being checked. Rendering to source text happens only on
/// failure paths ([`Checker::render_sink`]).
#[derive(Clone, Copy)]
enum SinkRef<'a> {
    /// An l-value, callee, or indexing expression.
    Expr(&'a Expr),
    /// A declared name: variable binding, table, or action.
    Name(&'a str),
    /// An interned parameter name.
    Param(Symbol),
    /// The function's return slot.
    Return,
    /// The builtin `declassify(inner)` call.
    Declassify(&'a Expr),
}

/// One flow edge awaiting its verdict: all-`Copy` borrows into the
/// program being checked. Prepared by [`Checker::edge`], rendered by
/// [`Checker::flow_error`] if the constraint fails, recorded compactly
/// by [`Checker::commit`] either way.
#[derive(Clone, Copy)]
struct PendingEdge<'a> {
    op: FlowOp,
    src: &'a Expr,
    src_label: Label,
    sink: SinkRef<'a>,
    sink_label: Label,
    sink_span: Span,
}

/// The checker's in-flight flow log: compact edges plus the structural
/// keys backward traces match on. Recording is allocation-free per edge
/// (the vectors grow amortized); the log converts into the owned public
/// [`LineageGraph`] when checking finishes.
#[derive(Default)]
struct FlowLog<'a> {
    edges: Vec<PendingEdge<'a>>,
    /// Per-edge structural key of the sink (what later traces match).
    sink_keys: Vec<u64>,
    /// Flat arena of per-edge source keys (the l-value-shaped
    /// subexpressions of the source).
    src_keys: Vec<u64>,
    /// Per-edge `(start, len)` range into `src_keys`.
    src_ranges: Vec<(u32, u32)>,
    /// Index of the first edge of the top-level item being checked.
    /// Traces stop there: each item binds its own names (a control's
    /// parameters, a function's locals), so an earlier item's write to
    /// an equally named sink is a different variable.
    item_start: usize,
}

impl<'a> FlowLog<'a> {
    fn record(&mut self, e: PendingEdge<'a>, syms: &Interner) {
        let sink_key = match e.sink {
            SinkRef::Expr(s) => expr_key(s),
            SinkRef::Name(n) => name_key(n),
            SinkRef::Param(sym) => name_key(syms.resolve(sym)),
            SinkRef::Return => name_key("return"),
            // Never the target of a later read: tagged off the expression
            // key space.
            SinkRef::Declassify(_) => fnv_byte(FNV_OFFSET, 0xff),
        };
        self.sink_keys.push(sink_key);
        let start = self.src_keys.len();
        lvalue_key_hashes(e.src, &mut self.src_keys);
        let len = self.src_keys.len() - start;
        self.src_ranges.push((start as u32, len as u32));
        self.edges.push(e);
    }

    fn src_keys_of(&self, ix: usize) -> &[u64] {
        let (start, len) = self.src_ranges[ix];
        &self.src_keys[start as usize..(start as usize + len as usize)]
    }

    /// Walks backwards from a violating expression (described by its
    /// l-value `keys`) to its origins: repeatedly finds the most recent
    /// earlier edge of the current item whose sink matches one of the
    /// current keys, prepends it, and continues from *that* edge's source
    /// keys. Returns edge indices oldest-first (capped at [`TRACE_CAP`]
    /// hops; the strictly decreasing cursor guarantees termination).
    fn trace_indices(&self, keys: &[u64]) -> Vec<usize> {
        let mut path = std::collections::VecDeque::new();
        let mut keys: Vec<u64> = keys.to_vec();
        let mut cursor = self.edges.len();
        while path.len() < TRACE_CAP {
            let found =
                (self.item_start..cursor).rev().find(|&i| keys.contains(&self.sink_keys[i]));
            let Some(ix) = found else { break };
            path.push_front(ix);
            keys.clear();
            keys.extend_from_slice(self.src_keys_of(ix));
            cursor = ix;
        }
        path.into()
    }

    fn into_graph(self) -> LineageGraph {
        let edges: Vec<LineageEdge> = self
            .edges
            .into_iter()
            .map(|e| LineageEdge {
                op: e.op,
                src_span: e.src.span,
                src_label: e.src_label,
                sink_span: e.sink_span,
                sink_label: e.sink_label,
            })
            .collect();
        edges.into()
    }
}

struct Checker<'a> {
    lat: &'a Lattice,
    /// Interned lattice element names (`Vec`-indexed by symbol).
    labels: LabelTable,
    /// The session's interner; names are interned at declaration sites and
    /// probed (never grown) at use sites.
    syms: &'a mut Interner,
    /// The session's hash-consing type pool; every resolved type is
    /// constructed through it.
    pool: &'a mut TyPool,
    /// Whether annotations are resolved against the lattice (Ifc and
    /// Permissive modes) or stripped (Base).
    resolve_labels: bool,
    /// Whether flow constraints are enforced (Ifc mode only).
    enforce: bool,
    /// Whether flow edges are recorded into [`Checker::lineage`]
    /// (`CheckOptions::record_lineage`, and never in base mode).
    record: bool,
    /// Whether `declassify(e)` is permitted.
    allow_declassify: bool,
    /// Whether the ambient `pc` is a floor `@pc(...)` annotations may not
    /// dip below ([`CheckOptions::pc_floor`]).
    pc_floor: bool,
    defs: TypeDefs,
    env: ScopedEnv,
    diags: Vec<Diagnostic>,
    /// Every flow edge walked so far, in check order (compact; rendered
    /// only when a failure needs an explanation path).
    log: FlowLog<'a>,
    /// The stack of active `if` guards (innermost last); empty unless
    /// lineage recording is on.
    guards: Vec<GuardCtx<'a>>,
    /// Stack-disciplined arena of the active guards' trace keys.
    guard_keys: Vec<u64>,
    /// Inferred signatures, recorded as declarations are checked.
    sig_functions: Vec<(String, Arc<FnTy>)>,
    sig_tables: Vec<(String, Label)>,
    /// `Some(bounds)` while checking a function body whose `pc_fn` is being
    /// inferred; every pc constraint records its bound here.
    pc_bounds: Option<Vec<Label>>,
    /// `Γ(return)` inside a function body.
    return_ty: Option<SecTy>,
    /// Wall-clock budget for this check run (`--check-timeout-ms`);
    /// polled per item and per statement. `None` when the guard is off.
    deadline: Option<std::time::Instant>,
    /// Set once the deadline expires: a single `E-TIMEOUT` diagnostic is
    /// emitted and the rest of the run is skipped.
    timed_out: bool,
}

impl<'a> Checker<'a> {
    fn error(&mut self, code: DiagCode, message: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::new(code, message, span));
    }

    /// Polls the wall-clock budget. On first expiry, emits the one
    /// `E-TIMEOUT` diagnostic; afterwards the item and statement loops
    /// bail out early. Free when no deadline is set.
    fn deadline_expired(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => {
                self.timed_out = true;
                self.diags.push(Diagnostic::new(
                    DiagCode::Timeout,
                    "check aborted: wall-clock budget exceeded",
                    Span::dummy(),
                ));
                true
            }
            _ => false,
        }
    }

    fn name(&self, l: Label) -> &str {
        self.lat.name(l)
    }

    /// Renders a pooled type for diagnostics (cold path).
    fn ty_str(&self, id: TyId) -> String {
        self.pool.display(id, self.syms)
    }

    /// Resolves a parameter name symbol for diagnostics (cold path).
    fn param_name(&self, sym: Symbol) -> &str {
        self.syms.resolve(sym)
    }

    // ------------------------------------------------------------------
    // Flow lineage
    // ------------------------------------------------------------------

    /// Prepares one flow edge `src → sink` for recording, or `None` when
    /// lineage is off. Preparation copies borrows and labels — no keys,
    /// no rendering. The edge is *not* recorded yet: failure sites first
    /// attach an explanation path via [`Checker::flow_error`], then
    /// [`Checker::commit`] the edge, so a violating edge never traces
    /// through itself.
    fn edge(
        &self,
        op: FlowOp,
        src: &'a Expr,
        src_label: Label,
        sink: SinkRef<'a>,
        sink_label: Label,
        sink_span: Span,
    ) -> Option<PendingEdge<'a>> {
        if !self.record {
            return None;
        }
        Some(PendingEdge { op, src, src_label, sink, sink_label, sink_span })
    }

    /// Records a prepared edge into the flow log.
    fn commit(&mut self, flo: Option<PendingEdge<'a>>) {
        if let Some(e) = flo {
            self.log.record(e, self.syms);
        }
    }

    /// Renders a sink reference into the source text a diagnostic shows
    /// (cold path).
    fn render_sink(&self, s: SinkRef<'_>) -> String {
        match s {
            SinkRef::Expr(e) => expr_to_string(e),
            SinkRef::Name(n) => n.to_string(),
            SinkRef::Param(sym) => self.syms.resolve(sym).to_string(),
            SinkRef::Return => "return".to_string(),
            SinkRef::Declassify(inner) => format!("declassify({})", expr_to_string(inner)),
        }
    }

    /// Renders one compact edge into the diagnostic-facing form (cold
    /// path: the AST the edge borrows is still in hand).
    fn render_edge(&self, e: &PendingEdge<'_>) -> FlowEdge {
        FlowEdge {
            op: e.op,
            source: FlowNode::new(expr_to_string(e.src), self.name(e.src_label), e.src.span),
            sink: FlowNode::new(self.render_sink(e.sink), self.name(e.sink_label), e.sink_span),
        }
    }

    /// Traces a violating expression's keys back through the log and
    /// renders the predecessor path oldest-first.
    fn trace_rendered(&self, keys: &[u64]) -> Vec<FlowEdge> {
        self.log
            .trace_indices(keys)
            .iter()
            .map(|&ix| self.render_edge(&self.log.edges[ix]))
            .collect()
    }

    /// Emits a flow diagnostic with the violating edge's explanation path
    /// attached: the traced predecessors of its source, then the edge.
    fn flow_error(
        &mut self,
        code: DiagCode,
        message: String,
        span: Span,
        flo: &Option<PendingEdge<'a>>,
    ) {
        let mut d = Diagnostic::new(code, message, span);
        if let Some(e) = flo {
            let mut keys = Vec::new();
            lvalue_key_hashes(e.src, &mut keys);
            let mut path = self.trace_rendered(&keys);
            path.push(self.render_edge(e));
            d = d.with_lineage(path);
        }
        self.diags.push(d);
    }

    /// The implicit-flow explanation for a failed `pc ⊑ bound` side
    /// condition: the innermost guard whose label breaks the bound (or the
    /// ambient `pc` itself, for `@pc`/`--pc` violations) flowing into the
    /// sink via a `guard-pc` edge.
    fn pc_path(&self, pc: Label, bound: Label, sink: SinkRef<'_>, span: Span) -> Vec<FlowEdge> {
        let sink = FlowNode::new(self.render_sink(sink), self.name(bound), span);
        match self.guards.iter().rev().find(|g| !self.lat.leq(g.label, bound)) {
            Some(g) => {
                let edge = FlowEdge {
                    op: FlowOp::GuardPc,
                    source: FlowNode::new(expr_to_string(g.cond), self.name(g.label), g.cond.span),
                    sink,
                };
                let keys = &self.guard_keys
                    [g.keys_start as usize..(g.keys_start as usize + g.keys_len as usize)];
                let mut path = self.trace_rendered(keys);
                path.push(edge);
                path
            }
            None => {
                let source = FlowNode::new("pc", self.name(pc), span);
                vec![FlowEdge { op: FlowOp::GuardPc, source, sink }]
            }
        }
    }

    // ------------------------------------------------------------------
    // pc constraints
    // ------------------------------------------------------------------

    /// Enforces `pc ⊑ bound` (the write-effect side conditions of T-Assign,
    /// T-Call, T-TblCall, T-Exit, T-Return).
    ///
    /// In bound-collection mode the ambient function `pc_fn` is symbolic:
    /// `bound` is recorded as an upper bound for it, and only the
    /// guard-context part of `pc` (which is what `pc` holds in that mode)
    /// is checked against `bound`.
    /// `sink` is the rendered write target / call / control transfer the
    /// failed condition would have leaked into (lineage only).
    fn require_pc(
        &mut self,
        pc: Label,
        bound: Label,
        code: DiagCode,
        what: &str,
        sink: SinkRef<'_>,
        span: Span,
    ) {
        if !self.enforce {
            return;
        }
        if let Some(bounds) = &mut self.pc_bounds {
            bounds.push(bound);
        }
        if !self.lat.leq(pc, bound) {
            let msg = format!(
                "{what} in a `{}` security context, but only contexts up to `{}` may do this",
                self.name(pc),
                self.name(bound),
            );
            let mut d = Diagnostic::new(code, msg, span);
            if self.record {
                d = d.with_lineage(self.pc_path(pc, bound, sink, span));
            }
            self.diags.push(d);
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    /// Resolves a surface type. In base mode all annotations are stripped
    /// first (the baseline checker never consults the lattice).
    fn resolve(&mut self, ann: &AnnType) -> Option<SecTy> {
        let resolved = if self.resolve_labels {
            self.defs.resolve_interned(ann, self.lat, self.pool, &self.labels, self.syms)
        } else {
            self.defs.resolve_interned(
                &strip_labels(ann),
                self.lat,
                self.pool,
                &self.labels,
                self.syms,
            )
        };
        match resolved {
            Ok(t) => Some(t),
            Err(d) => {
                self.diags.push(d);
                None
            }
        }
    }

    fn type_decl(&mut self, t: &TypeDecl) {
        match t {
            TypeDecl::MatchKind { kinds } => {
                for k in kinds {
                    let sym = self.syms.intern(&k.node);
                    self.defs.add_match_kind(sym);
                }
            }
            TypeDecl::Typedef { ty, name } => {
                if let Some(resolved) = self.resolve(ty) {
                    let sym = self.syms.intern(&name.node);
                    if !self.defs.define(sym, &name.node, resolved) {
                        self.error(
                            DiagCode::DuplicateDef,
                            format!("type `{}` is already defined", name.node),
                            name.span,
                        );
                    }
                }
            }
            TypeDecl::Header { name, fields } | TypeDecl::Struct { name, fields } => {
                let is_header = matches!(t, TypeDecl::Header { .. });
                let mut resolved_fields: Vec<(Symbol, SecTy)> = Vec::with_capacity(fields.len());
                for (fname, fty) in fields {
                    let fsym = self.syms.intern(&fname.node);
                    if resolved_fields.iter().any(|(n, _)| *n == fsym) {
                        self.error(
                            DiagCode::DuplicateDef,
                            format!("duplicate field `{}` in `{}`", fname.node, name.node),
                            fname.span,
                        );
                        continue;
                    }
                    if let Some(rt) = self.resolve(fty) {
                        if is_header && !self.pool.is_base_scalar(rt.ty) {
                            // "The fields of headers … must be base types"
                            // (§3.3). Structs may nest headers.
                            self.error(
                                DiagCode::TypeMismatch,
                                format!(
                                    "header field `{}` must have a base type, found `{}`",
                                    fname.node,
                                    self.ty_str(rt.ty)
                                ),
                                fname.span,
                            );
                            continue;
                        }
                        resolved_fields.push((fsym, rt));
                    }
                }
                let fields = FieldList::new(resolved_fields);
                let ty =
                    if is_header { self.pool.header(fields) } else { self.pool.record(fields) };
                let sym = self.syms.intern(&name.node);
                if !self.defs.define(sym, &name.node, SecTy::bottom(ty, self.lat)) {
                    self.error(
                        DiagCode::DuplicateDef,
                        format!("type `{}` is already defined", name.node),
                        name.span,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions (Figure 5)
    // ------------------------------------------------------------------

    /// Synthesizes `⟨τ, χ⟩ goes d` for an expression. The returned `bool`
    /// is `true` iff the expression `goes inout` *and* is writable (T-Var
    /// on a writable binding, propagated through fields and indices).
    ///
    /// Returns `None` after recording a diagnostic, to stop error cascades.
    fn expr(&mut self, e: &'a Expr, pc: Label) -> Option<(SecTy, bool)> {
        match &e.kind {
            ExprKind::Bool(_) => Some((SecTy::bottom(TyId::BOOL, self.lat), false)),
            ExprKind::Int { width, .. } => {
                let ty = match width {
                    Some(w) => self.pool.bit(*w),
                    None => TyId::INT,
                };
                Some((SecTy::bottom(ty, self.lat), false))
            }
            ExprKind::Var(name) => {
                // Use sites probe the interner: a name that was never
                // interned was never declared.
                match self.syms.lookup(name).and_then(|sym| self.env.lookup(sym)) {
                    Some(info) => Some((info.ty, info.writable)),
                    None => {
                        self.error(
                            DiagCode::UnknownVar,
                            format!("unknown variable `{name}`"),
                            e.span,
                        );
                        None
                    }
                }
            }
            ExprKind::Field(recv, field) => {
                let (rt, writable) = self.expr(recv, pc)?;
                match self.syms.lookup(&field.node).and_then(|s| self.pool.field(rt.ty, s)) {
                    Some(ft) => Some((ft, writable)),
                    None => {
                        let msg =
                            format!("type `{}` has no field `{}`", self.ty_str(rt.ty), field.node);
                        self.error(DiagCode::UnknownField, msg, field.span);
                        None
                    }
                }
            }
            ExprKind::Index(recv, index) => {
                let (rt, writable) = self.expr(recv, pc)?;
                let elem = match self.pool.kind(rt.ty) {
                    Ty::Stack(elem, _) => Some(*elem),
                    _ => None,
                };
                let Some(elem) = elem else {
                    let msg = format!("cannot index into `{}`", self.ty_str(rt.ty));
                    self.error(DiagCode::TypeMismatch, msg, e.span);
                    return None;
                };
                let (it, _) = self.expr(index, pc)?;
                if !matches!(self.pool.kind(it.ty), Ty::Bit(_) | Ty::Int) {
                    let msg =
                        format!("stack index must be numeric, found `{}`", self.ty_str(it.ty));
                    self.error(DiagCode::TypeMismatch, msg, index.span);
                    return None;
                }
                // T-Index: χ₂ ⊑ χ₁ — the index may not be more secret than
                // the elements, or which element is touched leaks it.
                if self.enforce && !self.lat.leq(it.label, elem.label) {
                    let flo = self.edge(
                        FlowOp::Index,
                        index,
                        it.label,
                        SinkRef::Expr(e),
                        elem.label,
                        e.span,
                    );
                    let msg = format!(
                        "index has label `{}` but the stack elements are `{}`; \
                         the element access would leak the index",
                        self.name(it.label),
                        self.name(elem.label)
                    );
                    self.flow_error(DiagCode::IndexLeak, msg, index.span, &flo);
                    self.commit(flo);
                }
                Some((elem, writable))
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let (lt, _) = self.expr(lhs, pc)?;
                let (rt, _) = self.expr(rhs, pc)?;
                match oracle::binop_result(self.pool, *op, lt.ty, rt.ty) {
                    Some(ty) => {
                        // T-BinOp: result label is the join of the operands.
                        let label = self.lat.join(lt.label, rt.label);
                        Some((SecTy::new(ty, label), false))
                    }
                    None => {
                        let msg = format!(
                            "operator `{op}` cannot be applied to `{}` and `{}`",
                            self.ty_str(lt.ty),
                            self.ty_str(rt.ty)
                        );
                        self.error(DiagCode::InvalidOperands, msg, e.span);
                        None
                    }
                }
            }
            ExprKind::Unary(op, inner) => {
                let (it, _) = self.expr(inner, pc)?;
                match oracle::unop_result(self.pool, *op, it.ty) {
                    Some(ty) => Some((SecTy::new(ty, it.label), false)),
                    None => {
                        let msg = format!(
                            "operator `{op}` cannot be applied to `{}`",
                            self.ty_str(it.ty)
                        );
                        self.error(DiagCode::InvalidOperands, msg, e.span);
                        None
                    }
                }
            }
            ExprKind::Record(fields) => {
                let mut rfields: Vec<(Symbol, SecTy)> = Vec::with_capacity(fields.len());
                for (name, value) in fields {
                    let fsym = self.syms.intern(&name.node);
                    if rfields.iter().any(|(n, _)| *n == fsym) {
                        self.error(
                            DiagCode::DuplicateDef,
                            format!("duplicate record field `{}`", name.node),
                            name.span,
                        );
                        continue;
                    }
                    let (vt, _) = self.expr(value, pc)?;
                    rfields.push((fsym, vt));
                }
                let ty = self.pool.record(FieldList::new(rfields));
                Some((SecTy::bottom(ty, self.lat), false))
            }
            ExprKind::Call(callee, args) => {
                let ret = self.check_call(callee, args, pc, e.span, false)?;
                Some((ret, false))
            }
        }
    }

    /// T-Call / T-TblCall. `as_stmt` permits table application, which has
    /// no value and is only legal in statement position.
    fn check_call(
        &mut self,
        callee: &'a Expr,
        args: &'a [Expr],
        pc: Label,
        span: Span,
        as_stmt: bool,
    ) -> Option<SecTy> {
        // `declassify` is a checker builtin, not a binding: any user
        // definition of the name shadows it.
        if let ExprKind::Var(name) = &callee.kind {
            if name == "declassify"
                && self.syms.lookup(name).and_then(|sym| self.env.lookup(sym)).is_none()
            {
                return self.declassify_call(args, pc, span);
            }
        }
        let (ct, _) = self.expr(callee, pc)?;
        // Cheap clone (compound nodes are `Arc`-backed) so the pool borrow
        // does not overlap the recursive checks below.
        let callee_kind = self.pool.kind(ct.ty).clone();
        match callee_kind {
            Ty::Function(fnty) => {
                if args.len() != fnty.params.len() {
                    self.error(
                        DiagCode::ArityMismatch,
                        format!(
                            "call supplies {} argument(s) but the callee takes {}",
                            args.len(),
                            fnty.params.len()
                        ),
                        span,
                    );
                    return None;
                }
                for (param, arg) in fnty.params.iter().zip(args) {
                    self.check_arg(param, arg, pc);
                }
                // T-Call: pc ⊑ pc_fn — calling in a higher context would
                // leak the context through the callee's writes.
                self.require_pc(
                    pc,
                    fnty.pc_fn,
                    DiagCode::CallPcViolation,
                    "this call occurs",
                    SinkRef::Expr(callee),
                    span,
                );
                Some(fnty.ret)
            }
            Ty::Table(pc_tbl) => {
                if !as_stmt {
                    self.error(
                        DiagCode::NotCallable,
                        "tables can only be applied as statements",
                        span,
                    );
                    return None;
                }
                if !args.is_empty() {
                    self.error(
                        DiagCode::ArityMismatch,
                        "table application takes no arguments",
                        span,
                    );
                    return None;
                }
                // T-TblCall: pc ⊑ pc_tbl.
                self.require_pc(
                    pc,
                    pc_tbl,
                    DiagCode::TableApplyPcViolation,
                    "this table is applied",
                    SinkRef::Expr(callee),
                    span,
                );
                Some(SecTy::unit(self.lat))
            }
            _ => {
                let msg = format!("`{}` is not callable", self.ty_str(ct.ty));
                self.error(DiagCode::NotCallable, msg, callee.span);
                None
            }
        }
    }

    /// The `declassify(e)` builtin: re-labels the value of `e` to ⊥, the
    /// escape hatch a policy grants per program group
    /// ([`CheckOptions::allow_declassify`]). The lowered flow is recorded
    /// as a `declassify` lineage edge whether or not it is permitted; a
    /// forbidden use is a security error carrying that edge's path.
    fn declassify_call(&mut self, args: &'a [Expr], pc: Label, span: Span) -> Option<SecTy> {
        if args.len() != 1 {
            self.error(
                DiagCode::ArityMismatch,
                format!("`declassify` takes exactly 1 argument, {} supplied", args.len()),
                span,
            );
            return None;
        }
        let (at, _) = self.expr(&args[0], pc)?;
        if !self.resolve_labels {
            // Base mode strips labels, so declassification is the identity.
            return Some(at);
        }
        let bottom = self.lat.bottom();
        let flo = self.edge(
            FlowOp::Declassify,
            &args[0],
            at.label,
            SinkRef::Declassify(&args[0]),
            bottom,
            span,
        );
        if self.enforce && !self.allow_declassify {
            let msg = format!(
                "`declassify` of `{}` data is not permitted under this policy",
                self.name(at.label)
            );
            self.flow_error(DiagCode::DeclassifyForbidden, msg, span, &flo);
        }
        self.commit(flo);
        Some(SecTy::new(at.ty, bottom))
    }

    /// Checks one argument against a parameter, honoring directions:
    /// `in` positions admit label subtyping (T-SubType-In); `inout`
    /// positions require a writable l-value with the *exact* security type
    /// (no subtyping — see the `write_to_high` example in §4.2).
    fn check_arg(&mut self, param: &FnParam, arg: &'a Expr, pc: Label) {
        let Some((at, writable)) = self.expr(arg, pc) else { return };
        let flo = self.edge(
            FlowOp::Arg,
            arg,
            at.label,
            SinkRef::Param(param.name),
            param.ty.label,
            arg.span,
        );
        if !self.pool.same_shape(at, param.ty) {
            let msg = format!(
                "argument for `{}` has type `{}` but the parameter expects `{}`",
                self.param_name(param.name),
                self.ty_str(at.ty),
                self.ty_str(param.ty.ty)
            );
            self.flow_error(DiagCode::TypeMismatch, msg, arg.span, &flo);
            self.commit(flo);
            return;
        }
        match param.direction {
            Direction::In => {
                if self.enforce && !self.lat.leq(at.label, param.ty.label) {
                    let msg = format!(
                        "argument labeled `{}` flows into `in` parameter `{}` \
                         labeled `{}`",
                        self.name(at.label),
                        self.param_name(param.name),
                        self.name(param.ty.label)
                    );
                    self.flow_error(DiagCode::ExplicitFlow, msg, arg.span, &flo);
                }
            }
            Direction::InOut => {
                if !arg.is_lvalue_shaped() || !writable {
                    self.error(
                        DiagCode::NotAssignable,
                        format!(
                            "`inout` argument for `{}` must be a writable l-value",
                            self.param_name(param.name)
                        ),
                        arg.span,
                    );
                    self.commit(flo);
                    return;
                }
                if self.enforce && at.label != param.ty.label {
                    let msg = format!(
                        "`inout` argument labeled `{}` does not match parameter \
                         `{}` labeled `{}`; `inout` positions admit no label \
                         subtyping",
                        self.name(at.label),
                        self.param_name(param.name),
                        self.name(param.ty.label)
                    );
                    self.flow_error(DiagCode::InoutLabelMismatch, msg, arg.span, &flo);
                }
            }
        }
        self.commit(flo);
    }

    // ------------------------------------------------------------------
    // Statements (Figure 6)
    // ------------------------------------------------------------------

    fn stmt(&mut self, s: &'a Stmt, pc: Label) {
        if self.deadline_expired() {
            return;
        }
        match &s.kind {
            StmtKind::Call(e) => {
                let ExprKind::Call(callee, args) = &e.kind else {
                    self.error(DiagCode::Malformed, "expected a call statement", s.span);
                    return;
                };
                self.check_call(callee, args, pc, s.span, true);
            }
            StmtKind::Assign(lhs, rhs) => self.assign(lhs, rhs, pc, s.span),
            StmtKind::If(cond, then_branch, else_branch) => {
                let guard_label = match self.expr(cond, pc) {
                    Some((ct, _)) => {
                        if ct.ty != TyId::BOOL {
                            let msg = format!(
                                "`if` guard must be `bool`, found `{}`",
                                self.ty_str(ct.ty)
                            );
                            self.error(DiagCode::TypeMismatch, msg, cond.span);
                        }
                        ct.label
                    }
                    None => self.lat.bottom(),
                };
                // T-Cond: the branches are checked at χ₂ ⊒ pc ⊔ χ₁; the
                // principal choice is exactly pc ⊔ χ₁.
                let branch_pc = self.lat.join(pc, guard_label);
                if self.record {
                    let keys_start = self.guard_keys.len() as u32;
                    lvalue_key_hashes(cond, &mut self.guard_keys);
                    let keys_len = self.guard_keys.len() as u32 - keys_start;
                    self.guards.push(GuardCtx { cond, label: guard_label, keys_start, keys_len });
                }
                self.env.push_scope();
                self.stmt(then_branch, branch_pc);
                self.env.pop_scope();
                if let Some(els) = else_branch {
                    self.env.push_scope();
                    self.stmt(els, branch_pc);
                    self.env.pop_scope();
                }
                if self.record {
                    if let Some(g) = self.guards.pop() {
                        self.guard_keys.truncate(g.keys_start as usize);
                    }
                }
            }
            StmtKind::Block(stmts) => {
                self.env.push_scope();
                for st in stmts {
                    self.stmt(st, pc);
                }
                self.env.pop_scope();
            }
            StmtKind::Exit => {
                // T-Exit types only at ⊥: an `exit` in a secret context
                // would leak through the control-flow signal.
                self.require_pc(
                    pc,
                    self.lat.bottom(),
                    DiagCode::ImplicitFlow,
                    "`exit` occurs",
                    SinkRef::Name("exit"),
                    s.span,
                );
            }
            StmtKind::Return(value) => self.return_stmt(value.as_ref(), pc, s.span),
            StmtKind::VarDecl(v) => self.var_decl(v, pc),
        }
    }

    /// T-Assign: `lhs goes inout : ⟨τ, χ₁⟩`, `rhs : ⟨τ, χ₂⟩`, `χ₂ ⊑ χ₁`,
    /// `pc ⊑ χ₁`.
    fn assign(&mut self, lhs: &'a Expr, rhs: &'a Expr, pc: Label, span: Span) {
        if !lhs.is_lvalue_shaped() {
            self.error(DiagCode::NotAssignable, "assignment target is not an l-value", lhs.span);
            return;
        }
        let Some((lt, writable)) = self.expr(lhs, pc) else { return };
        if !writable {
            self.error(
                DiagCode::NotAssignable,
                "assignment target is read-only (declared `in`)",
                lhs.span,
            );
            return;
        }
        let Some((rt, _)) = self.expr(rhs, pc) else { return };
        let flo = self.edge(FlowOp::Assign, rhs, rt.label, SinkRef::Expr(lhs), lt.label, lhs.span);
        if !self.pool.same_shape(rt, lt) {
            let msg = format!(
                "cannot assign `{}` to a location of type `{}`",
                self.ty_str(rt.ty),
                self.ty_str(lt.ty)
            );
            self.flow_error(DiagCode::TypeMismatch, msg, span, &flo);
            self.commit(flo);
            return;
        }
        if self.enforce && !self.lat.leq(rt.label, lt.label) {
            let msg = format!(
                "explicit flow: `{}` data assigned to a `{}` location",
                self.name(rt.label),
                self.name(lt.label)
            );
            self.flow_error(DiagCode::ExplicitFlow, msg, span, &flo);
        }
        self.commit(flo);
        self.require_pc(
            pc,
            lt.label,
            DiagCode::ImplicitFlow,
            "this write occurs",
            SinkRef::Expr(lhs),
            span,
        );
    }

    /// T-Return: types only at ⊥; the value must match `Γ(return)`.
    fn return_stmt(&mut self, value: Option<&'a Expr>, pc: Label, span: Span) {
        let Some(ret) = self.return_ty else {
            self.error(DiagCode::BadReturn, "`return` outside a function body", span);
            return;
        };
        match (value, ret.ty) {
            (None, TyId::UNIT) => {}
            (None, other) => {
                let msg =
                    format!("this function must return a value of type `{}`", self.ty_str(other));
                self.error(DiagCode::BadReturn, msg, span);
            }
            (Some(e), _) => {
                if ret.ty == TyId::UNIT {
                    self.error(DiagCode::BadReturn, "this function does not return a value", span);
                    return;
                }
                let Some((vt, _)) = self.expr(e, pc) else { return };
                let flo = self.edge(FlowOp::Return, e, vt.label, SinkRef::Return, ret.label, span);
                if !self.pool.same_shape(vt, ret) {
                    let msg = format!(
                        "returned value has type `{}` but the function returns `{}`",
                        self.ty_str(vt.ty),
                        self.ty_str(ret.ty)
                    );
                    self.flow_error(DiagCode::BadReturn, msg, e.span, &flo);
                } else if self.enforce && !self.lat.leq(vt.label, ret.label) {
                    let msg = format!(
                        "returned value labeled `{}` exceeds the declared return \
                         label `{}`",
                        self.name(vt.label),
                        self.name(ret.label)
                    );
                    self.flow_error(DiagCode::ExplicitFlow, msg, e.span, &flo);
                }
                self.commit(flo);
            }
        }
        self.require_pc(
            pc,
            self.lat.bottom(),
            DiagCode::ImplicitFlow,
            "`return` occurs",
            SinkRef::Return,
            span,
        );
    }

    /// T-VarDecl / T-VarInit. Declarations carry no `pc` side condition
    /// (fresh locations cannot leak), but the initializer label must be
    /// below the declared label.
    fn var_decl(&mut self, v: &'a VarDecl, pc: Label) {
        let Some(declared) = self.resolve(&v.ty) else { return };
        if let Some(init) = &v.init {
            if let Some((it, _)) = self.expr(init, pc) {
                let flo = self.edge(
                    FlowOp::Init,
                    init,
                    it.label,
                    SinkRef::Name(&v.name.node),
                    declared.label,
                    v.name.span,
                );
                if !self.pool.same_shape(it, declared) {
                    let msg = format!(
                        "initializer has type `{}` but `{}` is declared `{}`",
                        self.ty_str(it.ty),
                        v.name.node,
                        self.ty_str(declared.ty)
                    );
                    self.flow_error(DiagCode::TypeMismatch, msg, init.span, &flo);
                } else if self.enforce && !self.lat.leq(it.label, declared.label) {
                    let msg = format!(
                        "initializer labeled `{}` flows into `{}` declared `{}`",
                        self.name(it.label),
                        v.name.node,
                        self.name(declared.label)
                    );
                    self.flow_error(DiagCode::ExplicitFlow, msg, init.span, &flo);
                }
                self.commit(flo);
            }
        }
        let sym = self.syms.intern(&v.name.node);
        if !self.env.declare(sym, VarInfo { ty: declared, writable: true }) {
            self.error(
                DiagCode::DuplicateDef,
                format!("`{}` is already declared in this scope", v.name.node),
                v.name.span,
            );
        }
    }

    // ------------------------------------------------------------------
    // Declarations (Figure 7)
    // ------------------------------------------------------------------

    fn resolve_params(&mut self, params: &[Param], is_action: bool) -> Vec<FnParam> {
        let mut out = Vec::with_capacity(params.len());
        for p in params {
            let Some(ty) = self.resolve(&p.ty) else { continue };
            let control_plane = is_action && p.direction.is_none();
            out.push(FnParam {
                name: self.syms.intern(&p.name.node),
                direction: p.direction.unwrap_or(Direction::In),
                ty,
                control_plane,
            });
        }
        out
    }

    /// T-FuncDecl, shared by actions and functions. Checks the body in
    /// bound-collection mode and infers `pc_fn` as the meet of the
    /// collected write bounds.
    fn function_like(
        &mut self,
        name: &p4bid_ast::Spanned<String>,
        params: &[Param],
        ret: Option<&AnnType>,
        body: &'a [Stmt],
        is_action: bool,
        span: Span,
    ) {
        let fn_params = self.resolve_params(params, is_action);
        if fn_params.len() != params.len() {
            // Some parameter type failed to resolve; diagnostics were
            // already recorded. Do not bind a bogus signature.
            return;
        }
        let ret_ty = match ret {
            None => SecTy::unit(self.lat),
            Some(ann) => match self.resolve(ann) {
                Some(t) => t,
                None => return,
            },
        };

        // Γ₁ = Γ[xᵢ : ⟨τᵢ, χᵢ⟩, return : ⟨τ_ret, χ_ret⟩], body at pc_fn.
        self.env.push_scope();
        for p in &fn_params {
            let writable = p.direction == Direction::InOut;
            self.env.declare(p.name, VarInfo { ty: p.ty, writable });
        }
        let saved_bounds = self.pc_bounds.replace(Vec::new());
        let saved_ret = self.return_ty.replace(ret_ty);
        for s in body {
            self.stmt(s, self.lat.bottom());
        }
        let bounds = self.pc_bounds.take().unwrap_or_default();
        self.pc_bounds = saved_bounds;
        self.return_ty = saved_ret;
        self.env.pop_scope();

        // pc_fn is the meet of every upper bound the body generated; with
        // no writes at all the function may be called anywhere (⊤).
        let pc_fn = if self.enforce { self.lat.meet_all(bounds) } else { self.lat.top() };

        if ret_ty.ty != TyId::UNIT && !always_returns(body) {
            let msg = format!(
                "function `{}` may finish without returning a `{}`",
                name.node,
                self.ty_str(ret_ty.ty)
            );
            self.error(DiagCode::MissingReturn, msg, span);
        }

        let fnty = Arc::new(FnTy { params: fn_params, pc_fn, ret: ret_ty, is_action });
        self.sig_functions.push((name.node.clone(), Arc::clone(&fnty)));
        let fn_tyid = self.pool.intern(Ty::Function(fnty));
        let info = VarInfo { ty: SecTy::bottom(fn_tyid, self.lat), writable: false };
        let sym = self.syms.intern(&name.node);
        if !self.env.declare(sym, info) {
            self.error(
                DiagCode::DuplicateDef,
                format!("`{}` is already declared in this scope", name.node),
                name.span,
            );
        }
    }

    fn action_decl(&mut self, a: &'a ActionDecl) {
        self.function_like(&a.name, &a.params, None, &a.body, true, a.span);
    }

    fn function_decl(&mut self, f: &'a FunctionDecl) {
        self.function_like(&f.name, &f.params, Some(&f.ret), &f.body, false, f.span);
    }

    /// T-TblDecl: computes `pc_tbl = ⊓ⱼ pc_fnⱼ`, checks every key label is
    /// below every action's write bound, and typechecks the bound argument
    /// prefixes.
    fn table_decl(&mut self, t: &'a TableDecl) {
        // Gather the action signatures first: pc_tbl depends on them.
        let mut action_tys: Vec<(Arc<FnTy>, &ActionRef)> = Vec::new();
        for aref in &t.actions {
            match self.syms.lookup(&aref.name.node).and_then(|sym| self.env.lookup(sym)) {
                Some(info) => match self.pool.kind(info.ty.ty).clone() {
                    Ty::Function(f) if f.is_action => {
                        action_tys.push((f, aref));
                    }
                    Ty::Function(_) => {
                        self.error(
                            DiagCode::UnknownAction,
                            format!(
                                "`{}` is a function; only actions may appear in a table",
                                aref.name.node
                            ),
                            aref.name.span,
                        );
                    }
                    _ => {
                        let msg = format!(
                            "`{}` is `{}`, not an action",
                            aref.name.node,
                            self.ty_str(info.ty.ty)
                        );
                        self.error(DiagCode::UnknownAction, msg, aref.name.span);
                    }
                },
                None => {
                    self.error(
                        DiagCode::UnknownAction,
                        format!("unknown action `{}`", aref.name.node),
                        aref.name.span,
                    );
                }
            }
        }

        let pc_tbl = if self.enforce {
            self.lat.meet_all(action_tys.iter().map(|(f, _)| f.pc_fn))
        } else {
            self.lat.top()
        };

        // Keys: known match kinds, scalar key expressions, and
        // χ_k ⊑ pc_fnⱼ for every action j (T-TblDecl).
        for key in &t.keys {
            let kind_known = self
                .syms
                .lookup(&key.match_kind.node)
                .is_some_and(|sym| self.defs.is_match_kind(sym));
            if !kind_known {
                self.error(
                    DiagCode::UnknownMatchKind,
                    format!("unknown match kind `{}`", key.match_kind.node),
                    key.match_kind.span,
                );
            }
            let Some((kt, _)) = self.expr(&key.expr, pc_tbl) else { continue };
            if !self.pool.is_base_scalar(kt.ty) {
                let msg = format!("table keys must be scalars, found `{}`", self.ty_str(kt.ty));
                self.error(DiagCode::TypeMismatch, msg, key.expr.span);
                continue;
            }
            let key_flo = self.edge(
                FlowOp::Table,
                &key.expr,
                kt.label,
                SinkRef::Name(&t.name.node),
                pc_tbl,
                key.expr.span,
            );
            if self.enforce {
                for (fnty, aref) in &action_tys {
                    if !self.lat.leq(kt.label, fnty.pc_fn) {
                        // The violating edge names the offending action
                        // (not the whole table) as the sink.
                        let flo = self.edge(
                            FlowOp::Table,
                            &key.expr,
                            kt.label,
                            SinkRef::Name(&aref.name.node),
                            fnty.pc_fn,
                            key.expr.span,
                        );
                        let msg = format!(
                            "table key labeled `{}` selects action `{}` which \
                             writes at level `{}`; matching on the key would \
                             leak it",
                            self.name(kt.label),
                            aref.name.node,
                            self.name(fnty.pc_fn)
                        );
                        self.flow_error(DiagCode::TableKeyFlow, msg, key.expr.span, &flo);
                    }
                }
            }
            self.commit(key_flo);
        }

        // Bound argument prefixes: the directional parameters of each
        // action are bound at declaration time; the directionless
        // (control-plane) suffix is installed by the controller.
        for (fnty, aref) in &action_tys {
            let data_params: Vec<&FnParam> = fnty.data_params().collect();
            if aref.args.len() != data_params.len() {
                self.error(
                    DiagCode::ArityMismatch,
                    format!(
                        "action `{}` takes {} data-plane argument(s), {} supplied",
                        aref.name.node,
                        data_params.len(),
                        aref.args.len()
                    ),
                    aref.span,
                );
                continue;
            }
            for (param, arg) in data_params.iter().zip(&aref.args) {
                self.check_arg(param, arg, pc_tbl);
            }
        }

        // Default action, if named, must be one of the listed actions.
        if let Some(d) = &t.default_action {
            if !t.actions.iter().any(|a| a.name.node == d.node) {
                self.error(
                    DiagCode::UnknownAction,
                    format!("default action `{}` is not in the table's action list", d.node),
                    d.span,
                );
            }
        }

        self.sig_tables.push((t.name.node.clone(), pc_tbl));
        let tbl_tyid = self.pool.table(pc_tbl);
        let info = VarInfo { ty: SecTy::bottom(tbl_tyid, self.lat), writable: false };
        let sym = self.syms.intern(&t.name.node);
        if !self.env.declare(sym, info) {
            self.error(
                DiagCode::DuplicateDef,
                format!("`{}` is already declared in this scope", t.name.node),
                t.name.span,
            );
        }
    }

    /// Checks one control block under its ambient `pc` (the `@pc(...)`
    /// annotation, or the run-wide default).
    fn control_decl(&mut self, c: &'a ControlDecl, default_pc: Label) -> Option<TypedControl> {
        // Control-local declarations are visible only inside this control:
        // roll the signature log back to the globals afterwards.
        let fn_mark = self.sig_functions.len();
        let pc = match (&c.pc, self.resolve_labels) {
            (Some(name), true) => match self.labels.resolve(&name.node, self.syms) {
                Some(l) => {
                    if self.pc_floor && self.enforce && !self.lat.leq(default_pc, l) {
                        self.error(
                            DiagCode::PcBelowAmbient,
                            format!(
                                "control `{}` declares pc `{}` below the ambient context `{}`",
                                c.name.node,
                                self.lat.name(l),
                                self.lat.name(default_pc),
                            ),
                            name.span,
                        );
                    }
                    l
                }
                None => {
                    self.error(
                        DiagCode::UnknownLabel,
                        format!("unknown pc label `{}`", name.node),
                        name.span,
                    );
                    default_pc
                }
            },
            _ => {
                if self.resolve_labels {
                    default_pc
                } else {
                    self.lat.bottom()
                }
            }
        };

        self.env.push_scope();
        let mut typed_params = Vec::new();
        for p in &c.params {
            let Some(ty) = self.resolve(&p.ty) else { continue };
            let direction = p.direction.unwrap_or(Direction::In);
            let writable = direction == Direction::InOut;
            let sym = self.syms.intern(&p.name.node);
            if !self.env.declare(sym, VarInfo { ty, writable }) {
                self.error(
                    DiagCode::DuplicateDef,
                    format!("duplicate parameter `{}`", p.name.node),
                    p.name.span,
                );
            }
            typed_params.push(TypedParam { name: p.name.node.clone(), sym, direction, ty });
        }
        let params_ok = typed_params.len() == c.params.len();

        for d in &c.decls {
            match d {
                CtrlDecl::Var(v) => self.var_decl(v, pc),
                CtrlDecl::Action(a) => self.action_decl(a),
                CtrlDecl::Function(f) => self.function_decl(f),
                CtrlDecl::Table(t) => self.table_decl(t),
            }
        }

        self.env.push_scope();
        for s in &c.apply {
            self.stmt(s, pc);
        }
        self.env.pop_scope();
        self.env.pop_scope();

        let functions = self.sig_functions.clone();
        self.sig_functions.truncate(fn_mark);
        params_ok.then(|| TypedControl {
            name: c.name.node.clone(),
            params: typed_params,
            pc,
            functions,
            tables: std::mem::take(&mut self.sig_tables),
        })
    }
}

/// Whether a statement sequence is guaranteed to return or exit on every
/// path (used for the missing-return check on non-void functions).
fn always_returns(stmts: &[Stmt]) -> bool {
    stmts.iter().any(stmt_always_returns)
}

fn stmt_always_returns(s: &Stmt) -> bool {
    match &s.kind {
        StmtKind::Return(_) | StmtKind::Exit => true,
        StmtKind::If(_, t, Some(e)) => stmt_always_returns(t) && stmt_always_returns(e),
        StmtKind::Block(ss) => always_returns(ss),
        _ => false,
    }
}

/// Recursively removes every security annotation (base mode).
fn strip_labels(ann: &AnnType) -> AnnType {
    let ty = match &ann.ty {
        TypeExpr::Stack(elem, n) => TypeExpr::Stack(Box::new(strip_labels(elem)), *n),
        other => other.clone(),
    };
    AnnType { ty, label: None, span: ann.span }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_edge<'a>(log: &mut FlowLog<'a>, src: &'a Expr, sink: &'a Expr, syms: &Interner) {
        let lat = Lattice::two_point();
        log.record(
            PendingEdge {
                op: FlowOp::Assign,
                src,
                src_label: lat.bottom(),
                sink: SinkRef::Expr(sink),
                sink_label: lat.bottom(),
                sink_span: sink.span,
            },
            syms,
        );
    }

    #[test]
    fn trace_follows_the_most_recent_write() {
        let syms = Interner::new();
        let sp = Span::dummy();
        let (h, x, zero) = (
            Expr::var("h", sp),
            Expr::var("x", sp),
            Expr::new(ExprKind::Int { value: 0, width: Some(8) }, sp),
        );
        let mut log = FlowLog::default();
        log_edge(&mut log, &h, &x, &syms); // x = h
        log_edge(&mut log, &zero, &x, &syms); // x = 8w0 (overwrites)
        let path = log.trace_indices(&[expr_key(&x)]);
        assert_eq!(path, vec![1], "only the latest write to x counts");
        // The literal source has no l-value keys, so the trace stops.
        assert!(log.src_keys_of(1).is_empty());
    }

    #[test]
    fn trace_chains_through_intermediaries_and_terminates() {
        let syms = Interner::new();
        let sp = Span::dummy();
        let (h, x, y) = (Expr::var("h", sp), Expr::var("x", sp), Expr::var("y", sp));
        let mut log = FlowLog::default();
        log_edge(&mut log, &h, &x, &syms); // x = h
        log_edge(&mut log, &x, &y, &syms); // y = x
        assert_eq!(log.trace_indices(&[expr_key(&y)]), vec![0, 1], "oldest first");
        // A self-referential chain (x = x repeatedly) stays bounded.
        let mut looped = FlowLog::default();
        for _ in 0..32 {
            log_edge(&mut looped, &x, &x, &syms);
        }
        assert!(looped.trace_indices(&[expr_key(&x)]).len() <= TRACE_CAP);
    }

    #[test]
    fn structural_keys_are_span_insensitive_and_name_compatible() {
        let a = Expr::var("hdr", Span::dummy());
        let b = Expr::var("hdr", Span::new(10, 20));
        assert_eq!(expr_key(&a), expr_key(&b));
        assert_eq!(name_key("hdr"), expr_key(&a));
        assert_ne!(expr_key(&a), expr_key(&Expr::var("hdx", Span::dummy())));
    }
}
