//! The big-step evaluator for the Core P4 fragment (§3.2 and Appendices
//! F–H of the paper).
//!
//! Implements the judgements
//!
//! ```text
//! ⟨C, Δ, μ, ε, exp⟩  ⇓ ⟨μ', val⟩
//! ⟨C, Δ, μ, ε, stmt⟩ ⇓ ⟨μ', ε', sig⟩
//! ⟨C, Δ, μ, ε, decl⟩ ⇓ ⟨Δ', μ', ε', sig⟩
//! ```
//!
//! including l-value evaluation/writing (Appendix F/G), the
//! copy-in/copy-out calling convention (Appendix H), table matching
//! against the control plane, and the three control-flow signals
//! `cont` / `return val` / `exit`.
//!
//! Execution is split in two. [`Interp::prepare`] runs the declaration
//! judgements of a control once and lowers every body a run can reach —
//! `apply`, the actions and functions it calls, control-level `var`
//! initializers, table keys and the arguments tables bind — into a private
//! resolved form. The environment ε exists only while preparing: every
//! variable reference becomes a slot of one frame, field names become
//! [`Symbol`]s, types become the coercion or zero value they stand for,
//! and calls and table applications point straight at prepared code.
//! Core P4 has no recursion (a closure captures ε before its own name is
//! bound), so no body is ever active twice at once and every declaration
//! site — a local, a parameter, the argument temporaries of a call, the
//! evaluated index of an l-value — owns one fixed slot. Each table's
//! control-plane configuration is looked up once, and each installed
//! entry is resolved to its action and checked arguments, or to the error
//! a match on it raises.
//!
//! [`PreparedControl::run`] is then: reset the control-level `var`s in
//! the frame, write the coerced packet into the parameter slots, evaluate
//! the control-level initializers in order and run `apply` by indexing.
//! Every other slot is written before it is read, so the frame is kept
//! from one run to the next. No name is looked up, the type context is
//! not touched and nothing is allocated but the outcome and the values
//! the program itself builds. Fuel is burned at the same points as in the
//! judgements above (each statement, each expression and each call), so a
//! run's outcome, error and fuel use are those of a fresh execution.
//!
//! Out-of-bounds stack reads produce the deterministic `havoc(τ)` (a
//! zeroed value of the element shape) and out-of-bounds writes are no-ops,
//! matching the `Eval 1 error` rules in Appendix I case 8 and keeping the
//! evaluator total.

use crate::control_plane::{ControlPlane, TableConfig};
use crate::value::{eval_binop, eval_unop, Value};
use p4bid_ast::intern::Symbol;
use p4bid_ast::pool::TyPool;
use p4bid_ast::sectype::{SecTy, Ty};
use p4bid_ast::surface::*;
use p4bid_typeck::{TypedControl, TypedProgram};
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Default execution fuel. Core P4 has no recursion or loops, so on
/// typechecked programs this is pure defense in depth.
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// Evaluation errors. On typechecked programs only control-plane
/// misconfigurations and fuel exhaustion are reachable; the `Internal`
/// variants would indicate interpreter bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The requested control block does not exist.
    UnknownControl(String),
    /// `run_control` was given the wrong number of arguments.
    ArgCount {
        /// Parameters the control declares.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A control-plane entry names an action the table does not list.
    UnknownEntryAction {
        /// Table name.
        table: String,
        /// Offending action name.
        action: String,
    },
    /// A control-plane entry's arguments do not fit the action's
    /// control-plane parameters.
    EntryArgMismatch {
        /// Table name.
        table: String,
        /// Action name.
        action: String,
        /// What went wrong.
        detail: String,
    },
    /// The evaluator ran out of fuel.
    FuelExhausted,
    /// An internal invariant failed (a bug: typechecked programs should
    /// never reach this).
    Internal(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownControl(n) => write!(f, "unknown control `{n}`"),
            EvalError::ArgCount { expected, got } => {
                write!(f, "control takes {expected} argument(s), {got} supplied")
            }
            EvalError::UnknownEntryAction { table, action } => {
                write!(f, "control-plane entry for `{table}` names unknown action `{action}`")
            }
            EvalError::EntryArgMismatch { table, action, detail } => {
                write!(f, "control-plane arguments for `{action}` in table `{table}`: {detail}")
            }
            EvalError::FuelExhausted => write!(f, "evaluation fuel exhausted"),
            EvalError::Internal(m) => write!(f, "internal interpreter error: {m}"),
        }
    }
}

impl Error for EvalError {}

/// Control-flow signals (`sig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Signal {
    /// Fall through to the next statement.
    Cont,
    /// Return from the enclosing function with a value (`Unit` for bare
    /// `return;`).
    Return(Value),
    /// Abort the whole control block.
    Exit,
}

/// Result of running a control on a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlOutcome {
    /// Final values of all control parameters, in declaration order
    /// (`inout` parameters reflect the writes; `in` parameters are
    /// returned as passed). The names are shared with the prepared
    /// control, so a run copies none.
    pub params: Vec<(Rc<str>, Value)>,
    /// Whether the control terminated via `exit`.
    pub exited: bool,
}

impl ControlOutcome {
    /// Looks up a final parameter value by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| **n == *name).map(|(_, v)| v)
    }
}

/// Runs a control block of a typechecked program on the given parameter
/// values, under the given control plane: one [`Interp::prepare`] and one
/// [`PreparedControl::run`].
///
/// # Errors
///
/// See [`EvalError`]. On typechecked programs only control-plane
/// misconfiguration (bad action names/arguments in entries) is reachable.
///
/// # Examples
///
/// ```
/// use p4bid_typeck::{check_source, CheckOptions};
/// use p4bid_interp::{run_control, ControlPlane, Value};
///
/// let typed = check_source(
///     "control Inc(inout bit<8> x) { apply { x = x + 8w1; } }",
///     &CheckOptions::ifc(),
/// ).unwrap();
/// let out = run_control(&typed, &ControlPlane::new(), "Inc", vec![Value::bit(8, 41)])
///     .unwrap();
/// assert_eq!(out.param("x"), Some(&Value::bit(8, 42)));
/// ```
pub fn run_control(
    typed: &TypedProgram,
    cp: &ControlPlane,
    control: &str,
    args: Vec<Value>,
) -> Result<ControlOutcome, EvalError> {
    Interp::new(typed, cp).run_control(control, args)
}

/// The ambient `C` and Δ of an execution, plus its fuel budget: the
/// builder that prepares controls.
///
/// The shared [`TyCtx`](p4bid_ast::pool::TyCtx) of the typed program is
/// borrowed only while preparing, never by a run, so interleaving
/// interpretation with further checking on the owning session is safe.
pub struct Interp<'a> {
    typed: &'a TypedProgram,
    cp: &'a ControlPlane,
    fuel: u64,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter with [`DEFAULT_FUEL`].
    #[must_use]
    pub fn new(typed: &'a TypedProgram, cp: &'a ControlPlane) -> Self {
        Interp { typed, cp, fuel: DEFAULT_FUEL }
    }

    /// Replaces the fuel budget of every run.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Prepares a control block for any number of runs: looks it up,
    /// makes its declarations and those of the top-level functions and
    /// actions, and lowers every body a run can reach to slot-indexed code
    /// (see [`PreparedControl`]).
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownControl`] when the program has no such control;
    /// `Internal` if a name or type does not resolve (unreachable on
    /// typechecked programs).
    ///
    /// # Examples
    ///
    /// ```
    /// use p4bid_typeck::{check_source, CheckOptions};
    /// use p4bid_interp::{ControlPlane, Interp, Value};
    ///
    /// let typed = check_source(
    ///     "control Inc(inout bit<8> x) { apply { x = x + 8w1; } }",
    ///     &CheckOptions::ifc(),
    /// ).unwrap();
    /// let cp = ControlPlane::new();
    /// let inc = Interp::new(&typed, &cp).prepare("Inc").unwrap();
    /// for v in [0, 41, 255] {
    ///     let out = inc.run(&[Value::bit(8, v)]).unwrap();
    ///     assert_eq!(out.param("x"), Some(&Value::bit(8, (v + 1) % 256)));
    /// }
    /// ```
    pub fn prepare(&self, control: &str) -> Result<PreparedControl<'a>, EvalError> {
        let typed = self.typed;
        let unknown = || EvalError::UnknownControl(control.to_string());
        let decl = typed.program.controls().find(|c| c.name.node == control).ok_or_else(unknown)?;
        let ctrl = typed.control(control).ok_or_else(unknown)?;
        let mut lower = Lower {
            typed,
            cp: self.cp,
            slots: 0,
            scope: Vec::new(),
            closures: Vec::new(),
            tables: Vec::new(),
            code: Code { bodies: Vec::new(), tables: Vec::new() },
            zeros: Vec::new(),
        };

        // Global scope: prelude and top-level functions/actions.
        for item in typed.program.items() {
            match item {
                Item::Function(f) => lower.declare_closure(&f.name.node, ClosureDecl::Function(f)),
                Item::Action(a) => lower.declare_closure(&a.name.node, ClosureDecl::Action(a)),
                _ => {}
            }
        }

        // The parameter slots 0..n; each run writes its packet into them.
        let mut params = Vec::with_capacity(ctrl.params.len());
        for param in &ctrl.params {
            let slot = lower.slot();
            lower.scope.push((&param.name, Binding::Slot(slot)));
            params.push((Rc::from(param.name.as_str()), lower.coerce(param.ty)));
        }

        // Control-body declarations, in order. A `var` starts every run at
        // its zero value or its initializer's value.
        let mut inits = Vec::new();
        for d in &decl.decls {
            match d {
                CtrlDecl::Var(v) => {
                    let ty = lower.resolve(&v.ty)?;
                    let mut scope = lower.scope.clone();
                    let init = v.init.as_ref().map(|e| lower.expr(&mut scope, e)).transpose()?;
                    let slot = lower.slot();
                    match init {
                        Some(expr) => inits.push((slot, expr, lower.coerce(ty))),
                        None => lower.zeros.push((slot, lower.zero(ty))),
                    }
                    lower.scope.push((&v.name.node, Binding::Slot(slot)));
                }
                CtrlDecl::Action(a) => lower.declare_closure(&a.name.node, ClosureDecl::Action(a)),
                CtrlDecl::Function(f) => {
                    lower.declare_closure(&f.name.node, ClosureDecl::Function(f));
                }
                CtrlDecl::Table(t) => {
                    let captured = lower.scope.len();
                    lower.tables.push(PendingTable { decl: t, captured, lowered: None });
                    let ix = lower.tables.len() - 1;
                    lower.scope.push((&t.name.node, Binding::Table(ix)));
                }
            }
        }

        // The apply block runs in the control's environment: its top-level
        // declarations extend it.
        let mut scope = lower.scope.clone();
        let apply = lower.stmts(&mut scope, &decl.apply)?;

        Ok(PreparedControl {
            ctrl,
            fuel: self.fuel,
            code: lower.code,
            frame: Cell::new(Vec::new()),
            slots: lower.slots,
            zeros: lower.zeros.into(),
            params: params.into(),
            inits: inits.into(),
            apply,
        })
    }

    /// Runs a control block once; see [`run_control`].
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn run_control(
        &self,
        control: &str,
        args: Vec<Value>,
    ) -> Result<ControlOutcome, EvalError> {
        self.prepare(control)?.run(&args)
    }
}

/// A control block ready to run: its lowered code and the frame it runs
/// in.
///
/// [`run`](Self::run) resets the control-level `var`s without an
/// initializer to their zero values, writes the coerced arguments into the
/// parameter slots, evaluates the other control-level `var`s' initializers
/// in declaration order and runs `apply`. Every other slot is written
/// before it is read — a local at its declaration, a parameter at its
/// call, a temporary or key where it is evaluated — so what a run leaves
/// in the frame is never seen by the next, and the frame is kept from one
/// run to the next rather than built anew. Declarations burn no fuel, so
/// each run has the full budget.
pub struct PreparedControl<'a> {
    ctrl: &'a TypedControl,
    fuel: u64,
    code: Code<'a>,
    /// The frame, between runs; empty before the first and while a run
    /// holds it.
    frame: Cell<Vec<Value>>,
    /// The frame's length.
    slots: usize,
    /// Zero values of the control-level `var`s without an initializer.
    zeros: Box<[(Slot, Value)]>,
    /// Name and coercion of each parameter; parameter `i` is slot `i`.
    params: Box<[(Rc<str>, Coerce)]>,
    /// The control-level initializers: slot, initializer and coercion.
    inits: Box<[(Slot, RExpr, Coerce)]>,
    apply: Box<[RStmt]>,
}

impl<'a> PreparedControl<'a> {
    /// The checked control this prepared control runs.
    #[must_use]
    pub fn control(&self) -> &'a TypedControl {
        self.ctrl
    }

    /// Runs the control on the given parameter values.
    ///
    /// # Errors
    ///
    /// See [`EvalError`]; [`EvalError::ArgCount`] when `args` does not
    /// match the control's parameters.
    pub fn run(&self, args: &[Value]) -> Result<ControlOutcome, EvalError> {
        if args.len() != self.params.len() {
            return Err(EvalError::ArgCount { expected: self.params.len(), got: args.len() });
        }
        let mut frame = self.frame.take();
        frame.resize(self.slots, Value::Unit);
        let mut m = Machine { code: &self.code, frame, fuel: self.fuel };
        let outcome = self.execute(&mut m, args).map(|exited| {
            let finals = m.frame.iter_mut().map(|v| std::mem::replace(v, Value::Unit));
            let params = self.params.iter().map(|(name, _)| Rc::clone(name)).zip(finals).collect();
            ControlOutcome { params, exited }
        });
        self.frame.set(m.frame);
        outcome
    }

    /// Starts a run on `m` and runs `apply`; whether it exited.
    fn execute(&self, m: &mut Machine<'_, '_>, args: &[Value]) -> Result<bool, EvalError> {
        for (slot, zero) in self.zeros.iter() {
            m.frame[*slot] = zero.clone();
        }
        // Copy the packet into the parameter slots.
        for (slot, ((_, coerce), arg)) in self.params.iter().zip(args).enumerate() {
            m.frame[slot] = coerce.apply(arg.clone());
        }
        for (slot, init, coerce) in self.inits.iter() {
            let v = m.initializer(init)?;
            m.frame[*slot] = coerce.apply(v);
        }

        for s in self.apply.iter() {
            match m.exec(s) {
                Ok(Signal::Cont) => {}
                Ok(Signal::Exit) | Err(Interrupt::Exit) => return Ok(true),
                Ok(Signal::Return(_)) => {
                    return Err(EvalError::Internal(
                        "`return` escaped to the control level".into(),
                    ));
                }
                Err(Interrupt::Fail(e)) => return Err(e),
            }
        }
        Ok(false)
    }
}

// ----------------------------------------------------------------------
// The resolved form
// ----------------------------------------------------------------------

/// A frame slot.
type Slot = usize;

/// The lowered actions, functions and tables of a prepared control,
/// indexed by the ids calls and applications carry.
struct Code<'a> {
    bodies: Vec<RBody<'a>>,
    tables: Vec<RTable<'a>>,
}

/// The only conversions a resolved type makes of a value at copy-in,
/// initialization, return and control-plane argument checks: P4's
/// implicit `int` → `bit<n>` (masking) and `bit<n>` → `int`; every other
/// value must already fit and is kept as it is.
#[derive(Debug, Clone, Copy)]
enum Coerce {
    Keep,
    Bit(u16),
    Int,
}

impl Coerce {
    fn of(pool: &TyPool, ty: SecTy) -> Coerce {
        match pool.kind(ty.ty) {
            Ty::Bit(w) => Coerce::Bit(*w),
            Ty::Int => Coerce::Int,
            _ => Coerce::Keep,
        }
    }

    fn apply(self, v: Value) -> Value {
        match (self, &v) {
            (Coerce::Bit(w), Value::Int(i)) => Value::bit(w, *i as u128),
            (Coerce::Int, Value::Bit { value, .. }) => Value::Int(*value as i128),
            _ => v,
        }
    }
}

/// A resolved expression. Every node burns one unit of fuel, as the
/// surface node it comes from does.
#[derive(Debug)]
enum RExpr {
    /// A literal.
    Const(Value),
    /// A variable.
    Var(Slot),
    Field(Box<RExpr>, Symbol),
    Index(Box<RExpr>, Box<RExpr>),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
    Unary(UnOp, Box<RExpr>),
    Record(Box<[(Symbol, RExpr)]>),
    /// A function call; also burns for its callee expression.
    Call(Box<RCall>),
}

/// A resolved statement. Every statement burns one unit of fuel.
#[derive(Debug)]
enum RStmt {
    /// A local `var`.
    Var(Slot, Init),
    Block(Box<[RStmt]>),
    If(RExpr, Box<RStmt>, Option<Box<RStmt>>),
    Assign(RPlace, RExpr),
    Exit,
    Return(Option<RExpr>),
    /// A call statement; also burns for its callee expression.
    Call(RCall),
    /// `t.apply()`; also burns for its callee expression.
    Apply(usize),
}

/// How a local `var` starts.
#[derive(Debug)]
enum Init {
    /// Its initializer, evaluated and then coerced to its type.
    Expr(RExpr, Coerce),
    /// The zero value of its type.
    Zero(Value),
}

/// A resolved l-value: a base slot plus a path of field and index steps.
/// An index is evaluated into its own slot when the l-value is located,
/// so an `inout` argument is written back where it was read.
#[derive(Debug)]
struct RPlace {
    base: Slot,
    path: Box<[RStep]>,
}

#[derive(Debug)]
enum RStep {
    Field(Symbol),
    /// The index expression and the slot its value is kept in.
    Index(RExpr, Slot),
}

/// A call of a lowered body with its data-plane arguments.
#[derive(Debug)]
struct RCall {
    body: usize,
    args: Box<[RArg]>,
    /// The first of `args.len()` slots the arguments are evaluated into
    /// before they are bound: an argument may call the callee again
    /// (`f(a, f(b, c))`), which overwrites its parameter slots.
    temps: Slot,
}

#[derive(Debug)]
enum RArg {
    In(RExpr),
    InOut(RPlace),
}

/// A lowered function or action.
#[derive(Debug)]
struct RBody<'a> {
    name: &'a str,
    params: Box<[RParam<'a>]>,
    ret: Coerce,
    stmts: Box<[RStmt]>,
}

#[derive(Debug)]
struct RParam<'a> {
    name: &'a str,
    slot: Slot,
    direction: Direction,
    ty: SecTy,
    coerce: Coerce,
    /// A directionless action parameter, bound by the control plane.
    control_plane: bool,
}

/// A lowered table. Its keys are evaluated into `keys.len()` consecutive
/// slots from `keys_at` and matched against its configuration where they
/// lie.
#[derive(Debug)]
struct RTable<'a> {
    keys: Box<[RExpr]>,
    keys_at: Slot,
    config: Option<&'a TableConfig>,
    /// The calls of the declared actions, with their bound arguments.
    actions: Box<[RCall]>,
    /// What each installed entry runs, in installation order, or the error
    /// a match on it raises.
    entries: Box<[Result<Invoke, EvalError>]>,
    /// What a miss runs: the configured default, else the declared one.
    miss: Option<Result<Invoke, EvalError>>,
}

/// An action of a table with its checked control-plane arguments.
#[derive(Debug)]
struct Invoke {
    action: usize,
    args: Box<[Value]>,
}

// ----------------------------------------------------------------------
// Lowering
// ----------------------------------------------------------------------

/// What a name is bound to while lowering: the environment ε with every
/// location replaced by the slot or the code it stands for.
#[derive(Debug, Clone, Copy)]
enum Binding {
    Slot(Slot),
    /// An index into [`Lower::closures`].
    Closure(usize),
    /// An index into [`Lower::tables`].
    Table(usize),
}

/// A scope: bindings in declaration order, the latest binding of a name
/// shadowing earlier ones.
type Scope<'a> = Vec<(&'a str, Binding)>;

fn lookup(scope: &Scope<'_>, name: &str) -> Option<Binding> {
    scope.iter().rev().find(|(n, _)| *n == name).map(|&(_, b)| b)
}

#[derive(Clone, Copy)]
enum ClosureDecl<'a> {
    Function(&'a FunctionDecl),
    Action(&'a ActionDecl),
}

/// A declared function or action, lowered the first time a call reaches
/// it. `captured` is the length of the control-level scope at its
/// declaration: the environment it closes over.
struct PendingClosure<'a> {
    decl: ClosureDecl<'a>,
    captured: usize,
    lowered: Option<usize>,
}

/// A declared table, lowered the first time it is applied.
struct PendingTable<'a> {
    decl: &'a TableDecl,
    captured: usize,
    lowered: Option<usize>,
}

/// The lowering of one control.
struct Lower<'a> {
    typed: &'a TypedProgram,
    cp: &'a ControlPlane,
    /// Slots handed out so far.
    slots: usize,
    /// The control-level scope: globals, parameters and control
    /// declarations. It only grows, so a prefix of it is the environment
    /// a closure or table declared at that point captured.
    scope: Scope<'a>,
    closures: Vec<PendingClosure<'a>>,
    tables: Vec<PendingTable<'a>>,
    code: Code<'a>,
    /// Zero values of the control-level `var`s without an initializer.
    zeros: Vec<(Slot, Value)>,
}

fn internal<T>(msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError::Internal(msg.into()))
}

impl<'a> Lower<'a> {
    fn slot(&mut self) -> Slot {
        self.slot_run(1)
    }

    /// `n` consecutive fresh slots; the first.
    fn slot_run(&mut self, n: usize) -> Slot {
        self.slots += n;
        self.slots - n
    }

    fn declare_closure(&mut self, name: &'a str, decl: ClosureDecl<'a>) {
        let captured = self.scope.len();
        self.closures.push(PendingClosure { decl, captured, lowered: None });
        self.scope.push((name, Binding::Closure(self.closures.len() - 1)));
    }

    /// Resolves a surface annotation through Δ.
    fn resolve(&self, ann: &AnnType) -> Result<SecTy, EvalError> {
        let mut ctx = self.typed.ctx.borrow_mut();
        self.typed
            .defs
            .resolve(ann, &self.typed.lattice, &mut ctx.types)
            .map_err(|d| EvalError::Internal(format!("type resolution at runtime: {d}")))
    }

    fn coerce(&self, ty: SecTy) -> Coerce {
        Coerce::of(&self.typed.ctx.borrow().types, ty)
    }

    /// `init_Δ τ`.
    fn zero(&self, ty: SecTy) -> Value {
        Value::init(&self.typed.ctx.borrow().types, ty)
    }

    fn field(&self, name: &str) -> Result<Symbol, EvalError> {
        match self.typed.sym(name) {
            Some(sym) => Ok(sym),
            None => internal(format!("missing field `{name}`")),
        }
    }

    /// The lowered body of closure `ix`, lowering it on first use in the
    /// environment it captured plus its parameters.
    fn closure(&mut self, ix: usize) -> Result<usize, EvalError> {
        if let Some(id) = self.closures[ix].lowered {
            return Ok(id);
        }
        let (name, params, ret, body, is_action) = match self.closures[ix].decl {
            ClosureDecl::Function(f) => (&f.name.node, &f.params, Some(&f.ret), &f.body, false),
            ClosureDecl::Action(a) => (&a.name.node, &a.params, None, &a.body, true),
        };
        let mut scope = self.scope[..self.closures[ix].captured].to_vec();
        let mut rparams = Vec::with_capacity(params.len());
        for p in params {
            let ty = self.resolve(&p.ty)?;
            let slot = self.slot();
            rparams.push(RParam {
                name: &p.name.node,
                slot,
                direction: p.direction.unwrap_or(Direction::In),
                ty,
                coerce: self.coerce(ty),
                control_plane: is_action && p.direction.is_none(),
            });
            scope.push((&p.name.node, Binding::Slot(slot)));
        }
        let ret = match ret {
            Some(ret) => self.coerce(self.resolve(ret)?),
            None => Coerce::Keep,
        };
        let stmts = self.stmts(&mut scope, body)?;
        self.code.bodies.push(RBody { name, params: rparams.into(), ret, stmts });
        let id = self.code.bodies.len() - 1;
        self.closures[ix].lowered = Some(id);
        Ok(id)
    }

    /// Statements in `scope`, whose declarations they extend.
    fn stmts(
        &mut self,
        scope: &mut Scope<'a>,
        stmts: &'a [Stmt],
    ) -> Result<Box<[RStmt]>, EvalError> {
        stmts.iter().map(|s| self.stmt(scope, s)).collect()
    }

    /// A statement in a scope of its own (block, branch).
    fn nested(&mut self, scope: &mut Scope<'a>, s: &'a Stmt) -> Result<RStmt, EvalError> {
        let mark = scope.len();
        let s = self.stmt(scope, s);
        scope.truncate(mark);
        s
    }

    fn stmt(&mut self, scope: &mut Scope<'a>, s: &'a Stmt) -> Result<RStmt, EvalError> {
        Ok(match &s.kind {
            StmtKind::VarDecl(v) => {
                let ty = self.resolve(&v.ty)?;
                let init = match &v.init {
                    Some(e) => Init::Expr(self.expr(scope, e)?, self.coerce(ty)),
                    None => Init::Zero(self.zero(ty)),
                };
                let slot = self.slot();
                scope.push((&v.name.node, Binding::Slot(slot)));
                RStmt::Var(slot, init)
            }
            StmtKind::Block(stmts) => {
                let mark = scope.len();
                let block = self.stmts(scope, stmts);
                scope.truncate(mark);
                RStmt::Block(block?)
            }
            StmtKind::If(cond, then_branch, else_branch) => {
                let cond = self.expr(scope, cond)?;
                let then_branch = self.nested(scope, then_branch)?;
                let else_branch = match else_branch {
                    Some(els) => Some(Box::new(self.nested(scope, els)?)),
                    None => None,
                };
                RStmt::If(cond, Box::new(then_branch), else_branch)
            }
            StmtKind::Assign(lhs, rhs) => {
                RStmt::Assign(self.place(scope, lhs)?, self.expr(scope, rhs)?)
            }
            StmtKind::Exit => RStmt::Exit,
            StmtKind::Return(value) => {
                RStmt::Return(value.as_ref().map(|e| self.expr(scope, e)).transpose()?)
            }
            StmtKind::Call(e) => {
                let ExprKind::Call(callee, args) = &e.kind else {
                    return internal("malformed call statement");
                };
                match self.callee(scope, callee)? {
                    Binding::Table(ix) => RStmt::Apply(self.table(ix)?),
                    Binding::Closure(ix) => {
                        let body = self.closure(ix)?;
                        RStmt::Call(self.call(scope, body, args, 0)?)
                    }
                    Binding::Slot(_) => unreachable!("callee returns code"),
                }
            }
        })
    }

    /// The function, action or table a callee expression names.
    fn callee(&self, scope: &Scope<'a>, callee: &Expr) -> Result<Binding, EvalError> {
        match &callee.kind {
            ExprKind::Var(name) => match lookup(scope, name) {
                Some(b @ (Binding::Closure(_) | Binding::Table(_))) => Ok(b),
                Some(Binding::Slot(_)) => internal(format!("`{name}` is not callable")),
                None => internal(format!("unbound variable `{name}`")),
            },
            _ => internal("callee is not a name"),
        }
    }

    /// A call of `body` with data-plane `args`, evaluated in `scope`;
    /// `extra` control-plane arguments follow them.
    fn call(
        &mut self,
        scope: &mut Scope<'a>,
        body: usize,
        args: &'a [Expr],
        extra: usize,
    ) -> Result<RCall, EvalError> {
        let directions: Vec<Direction> =
            self.code.bodies[body].params.iter().map(|p| p.direction).collect();
        if args.len() + extra != directions.len() {
            return internal(format!(
                "call of `{}` with {} argument(s), expected {}",
                self.code.bodies[body].name,
                args.len() + extra,
                directions.len()
            ));
        }
        let args: Box<[RArg]> = args
            .iter()
            .zip(directions)
            .map(|(arg, direction)| match direction {
                Direction::In => self.expr(scope, arg).map(RArg::In),
                Direction::InOut => self.place(scope, arg).map(RArg::InOut),
            })
            .collect::<Result<_, _>>()?;
        let temps = self.slot_run(args.len());
        Ok(RCall { body, args, temps })
    }

    fn expr(&mut self, scope: &mut Scope<'a>, e: &'a Expr) -> Result<RExpr, EvalError> {
        Ok(match &e.kind {
            ExprKind::Bool(b) => RExpr::Const(Value::Bool(*b)),
            ExprKind::Int { value, width } => RExpr::Const(match width {
                Some(w) => Value::bit(*w, *value),
                None => Value::Int(*value as i128),
            }),
            ExprKind::Var(name) => match lookup(scope, name) {
                Some(Binding::Slot(slot)) => RExpr::Var(slot),
                Some(_) => return internal(format!("`{name}` is not a value")),
                None => return internal(format!("unbound variable `{name}`")),
            },
            ExprKind::Field(recv, field) => {
                RExpr::Field(Box::new(self.expr(scope, recv)?), self.field(&field.node)?)
            }
            ExprKind::Index(recv, index) => {
                RExpr::Index(Box::new(self.expr(scope, recv)?), Box::new(self.expr(scope, index)?))
            }
            ExprKind::Binary(op, lhs, rhs) => RExpr::Binary(
                *op,
                Box::new(self.expr(scope, lhs)?),
                Box::new(self.expr(scope, rhs)?),
            ),
            ExprKind::Unary(op, inner) => RExpr::Unary(*op, Box::new(self.expr(scope, inner)?)),
            ExprKind::Record(fields) => RExpr::Record(
                fields
                    .iter()
                    .map(|(name, value)| {
                        Ok((self.typed.intern(&name.node), self.expr(scope, value)?))
                    })
                    .collect::<Result<_, EvalError>>()?,
            ),
            ExprKind::Call(callee, args) => match self.callee(scope, callee)? {
                Binding::Closure(ix) => {
                    let body = self.closure(ix)?;
                    RExpr::Call(Box::new(self.call(scope, body, args, 0)?))
                }
                _ => return internal("a table is not callable in an expression"),
            },
        })
    }

    fn place(&mut self, scope: &mut Scope<'a>, e: &'a Expr) -> Result<RPlace, EvalError> {
        let mut path = Vec::new();
        let base = self.place_path(scope, e, &mut path)?;
        Ok(RPlace { base, path: path.into() })
    }

    /// The base slot of an l-value, pushing its steps onto `path`.
    fn place_path(
        &mut self,
        scope: &mut Scope<'a>,
        e: &'a Expr,
        path: &mut Vec<RStep>,
    ) -> Result<Slot, EvalError> {
        match &e.kind {
            ExprKind::Var(name) => match lookup(scope, name) {
                Some(Binding::Slot(slot)) => Ok(slot),
                _ => internal(format!("unbound l-value `{name}`")),
            },
            ExprKind::Field(recv, field) => {
                let base = self.place_path(scope, recv, path)?;
                path.push(RStep::Field(self.field(&field.node)?));
                Ok(base)
            }
            ExprKind::Index(recv, index) => {
                let base = self.place_path(scope, recv, path)?;
                let index = self.expr(scope, index)?;
                path.push(RStep::Index(index, self.slot()));
                Ok(base)
            }
            _ => internal("expression is not an l-value"),
        }
    }

    /// The lowered table `ix`, lowering it on first use in the environment
    /// it captured.
    fn table(&mut self, ix: usize) -> Result<usize, EvalError> {
        if let Some(id) = self.tables[ix].lowered {
            return Ok(id);
        }
        let t = self.tables[ix].decl;
        let mut scope = self.scope[..self.tables[ix].captured].to_vec();
        let keys: Box<[RExpr]> =
            t.keys.iter().map(|k| self.expr(&mut scope, &k.expr)).collect::<Result<_, _>>()?;
        let keys_at = self.slot_run(keys.len());
        let mut actions = Vec::with_capacity(t.actions.len());
        for a in &t.actions {
            let name = &a.name.node;
            let body = match lookup(&scope, name) {
                Some(Binding::Closure(c)) => self.closure(c)?,
                Some(_) => return internal(format!("table action `{name}` is not a closure")),
                None => return internal(format!("table action `{name}` not in scope")),
            };
            let extra = self.code.bodies[body].params.iter().filter(|p| p.control_plane).count();
            actions.push(self.call(&mut scope, body, &a.args, extra)?);
        }

        let config = self.cp.table(&t.name.node);
        let installed = config.map_or(&[][..], |c| &c.entries[..]);
        let entries =
            installed.iter().map(|e| self.invoke(t, &actions, &e.action, Some(&e.args))).collect();
        let miss = match config.and_then(|c| c.default_action.as_ref()) {
            Some((name, args)) => Some(self.invoke(t, &actions, name, Some(args))),
            None => t.default_action.as_ref().map(|d| self.invoke(t, &actions, &d.node, None)),
        };
        self.code.tables.push(RTable {
            keys,
            keys_at,
            config,
            actions: actions.into(),
            entries,
            miss,
        });
        let id = self.code.tables.len() - 1;
        self.tables[ix].lowered = Some(id);
        Ok(id)
    }

    /// What running `action` from table `t` takes: the controller's
    /// arguments `args`, validated and coerced against the action's
    /// control-plane parameters, or (`None`, the declared default) their
    /// zero values. Errors are those a run raises when it gets here.
    fn invoke(
        &self,
        t: &TableDecl,
        actions: &[RCall],
        action: &str,
        args: Option<&[Value]>,
    ) -> Result<Invoke, EvalError> {
        let table = || t.name.node.clone();
        let Some(ix) = t.actions.iter().position(|a| a.name.node == action) else {
            return Err(EvalError::UnknownEntryAction { table: table(), action: action.into() });
        };
        let params = &self.code.bodies[actions[ix].body].params;
        let ctrl_params = || params.iter().filter(|p| p.control_plane);
        let Some(args) = args else {
            let zeros = ctrl_params().map(|p| self.zero(p.ty)).collect();
            return Ok(Invoke { action: ix, args: zeros });
        };
        let mismatch =
            |detail| EvalError::EntryArgMismatch { table: table(), action: action.into(), detail };
        let expected = ctrl_params().count();
        if args.len() != expected {
            return Err(mismatch(format!(
                "expected {expected} control-plane argument(s), got {}",
                args.len()
            )));
        }
        let ctx = self.typed.ctx.borrow();
        let mut coerced = Vec::with_capacity(args.len());
        for (param, value) in ctrl_params().zip(args) {
            let v = param.coerce.apply(value.clone());
            if !value_fits_kind(&v, ctx.types.kind(param.ty.ty)) {
                return Err(mismatch(format!(
                    "argument `{}` does not fit parameter `{}`",
                    v.display_with(&ctx.syms),
                    param.name
                )));
            }
            coerced.push(v);
        }
        Ok(Invoke { action: ix, args: coerced.into() })
    }
}

// ----------------------------------------------------------------------
// Running
// ----------------------------------------------------------------------

/// Control-flow interrupts threaded through expression evaluation: an
/// `exit` raised inside a callee aborts the whole control block.
#[derive(Debug)]
enum Interrupt {
    Exit,
    Fail(EvalError),
}

impl From<EvalError> for Interrupt {
    fn from(e: EvalError) -> Self {
        Interrupt::Fail(e)
    }
}

type EResult<T> = Result<T, Interrupt>;

fn fail<T>(msg: impl Into<String>) -> EResult<T> {
    Err(Interrupt::Fail(EvalError::Internal(msg.into())))
}

/// One execution in progress: the frame and the remaining fuel.
struct Machine<'p, 'a> {
    code: &'p Code<'a>,
    frame: Vec<Value>,
    fuel: u64,
}

/// An evaluated index as a position (out-of-range values saturate, so they
/// read as havoc and write nowhere).
fn position(index: &Value) -> usize {
    usize::try_from(index.as_u128().unwrap_or(u128::MAX)).unwrap_or(usize::MAX)
}

impl Machine<'_, '_> {
    fn burn(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Evaluates a `var` initializer, where `exit` is an error.
    fn initializer(&mut self, e: &RExpr) -> Result<Value, EvalError> {
        match self.eval(e) {
            Ok(v) => Ok(v),
            Err(Interrupt::Fail(e)) => Err(e),
            Err(Interrupt::Exit) => {
                Err(EvalError::Internal("`exit` during variable initialization".into()))
            }
        }
    }

    fn exec(&mut self, s: &RStmt) -> EResult<Signal> {
        self.burn()?;
        match s {
            RStmt::Var(slot, init) => {
                self.frame[*slot] = match init {
                    Init::Expr(e, coerce) => coerce.apply(self.initializer(e)?),
                    Init::Zero(zero) => zero.clone(),
                };
                Ok(Signal::Cont)
            }
            RStmt::Block(stmts) => {
                for st in stmts.iter() {
                    match self.exec(st)? {
                        Signal::Cont => {}
                        sig => return Ok(sig),
                    }
                }
                Ok(Signal::Cont)
            }
            RStmt::If(cond, then_branch, else_branch) => match self.eval(cond)? {
                Value::Bool(true) => self.exec(then_branch),
                Value::Bool(false) => match else_branch {
                    Some(els) => self.exec(els),
                    None => Ok(Signal::Cont),
                },
                other => fail(format!("non-bool guard `{other}`")),
            },
            RStmt::Assign(place, rhs) => {
                self.locate(place)?;
                let v = self.eval(rhs)?;
                self.write(place, v);
                Ok(Signal::Cont)
            }
            RStmt::Exit => Ok(Signal::Exit),
            RStmt::Return(value) => {
                let v = match value {
                    None => Value::Unit,
                    Some(e) => self.eval(e)?,
                };
                Ok(Signal::Return(v))
            }
            RStmt::Call(call) => {
                self.burn()?;
                self.call(call, &[])?;
                Ok(Signal::Cont)
            }
            RStmt::Apply(table) => {
                self.burn()?;
                let code = self.code;
                self.apply_table(&code.tables[*table])?;
                Ok(Signal::Cont)
            }
        }
    }

    fn eval(&mut self, e: &RExpr) -> EResult<Value> {
        self.burn()?;
        match e {
            RExpr::Const(v) => Ok(v.clone()),
            RExpr::Var(slot) => Ok(self.frame[*slot].clone()),
            RExpr::Field(recv, field) => match self.eval(recv)?.field(*field) {
                Some(v) => Ok(v.clone()),
                None => fail(format!("missing field `{field}`")),
            },
            RExpr::Index(recv, index) => {
                let r = self.eval(recv)?;
                let i = self.eval(index)?;
                let Value::Stack(elems) = &r else {
                    return fail("indexing a non-stack value");
                };
                match elems.get(position(&i)) {
                    Some(v) => Ok(v.clone()),
                    // havoc(τ): deterministic zero of the element shape.
                    None => match elems.first() {
                        Some(proto) => Ok(zeroed(proto)),
                        None => fail("indexing an empty stack"),
                    },
                }
            }
            RExpr::Binary(op, lhs, rhs) => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                eval_binop(*op, l, r).or_else(|e| fail(e.to_string()))
            }
            RExpr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                eval_unop(*op, v).or_else(|e| fail(e.to_string()))
            }
            RExpr::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (sym, value) in fields.iter() {
                    out.push((*sym, self.eval(value)?));
                }
                Ok(Value::Record(out))
            }
            RExpr::Call(call) => {
                self.burn()?;
                self.call(call, &[])
            }
        }
    }

    // ------------------------------------------------------------------
    // L-values (Appendices F and G)
    // ------------------------------------------------------------------

    /// Evaluates the index expressions of an l-value, base outwards, into
    /// their slots (they may have side effects through calls).
    fn locate(&mut self, place: &RPlace) -> EResult<()> {
        for step in place.path.iter() {
            if let RStep::Index(index, at) = step {
                let i = self.eval(index)?;
                self.frame[*at] = i;
            }
        }
        Ok(())
    }

    /// Reads a located l-value; out-of-bounds indices read as the
    /// deterministic havoc value.
    fn read(&self, place: &RPlace) -> Value {
        read_path(&self.frame, &self.frame[place.base], &place.path)
    }

    /// Writes through a located l-value (`⇓write`, Appendix G), coercing
    /// to the shape of the slot written. An out-of-bounds index makes the
    /// whole write a no-op.
    fn write(&mut self, place: &RPlace, value: Value) {
        let mut base = std::mem::replace(&mut self.frame[place.base], Value::Unit);
        write_path(&self.frame, &mut base, &place.path, value);
        self.frame[place.base] = base;
    }

    // ------------------------------------------------------------------
    // Calls (Appendix H: copy-in / copy-out)
    // ------------------------------------------------------------------

    /// Calls a body. The call's arguments are evaluated left to right;
    /// `extra` are the pre-evaluated control-plane arguments that fill the
    /// remaining parameters.
    fn call(&mut self, call: &RCall, extra: &[Value]) -> EResult<Value> {
        self.burn()?;
        let code = self.code;
        let body = &code.bodies[call.body];

        // Copy-in: evaluate the arguments left to right, then bind them.
        for (i, arg) in call.args.iter().enumerate() {
            let v = match arg {
                RArg::In(e) => self.eval(e)?,
                RArg::InOut(place) => {
                    self.locate(place)?;
                    self.read(place)
                }
            };
            self.frame[call.temps + i] = v;
        }
        for (i, param) in body.params.iter().take(call.args.len()).enumerate() {
            let v = std::mem::replace(&mut self.frame[call.temps + i], Value::Unit);
            self.frame[param.slot] = param.coerce.apply(v);
        }
        for (param, v) in body.params[call.args.len()..].iter().zip(extra) {
            self.frame[param.slot] = param.coerce.apply(v.clone());
        }

        // Run the body.
        let mut signal = Signal::Cont;
        for s in body.stmts.iter() {
            match self.exec(s) {
                Ok(Signal::Cont) => {}
                Ok(sig) => {
                    signal = sig;
                    break;
                }
                Err(Interrupt::Exit) => {
                    signal = Signal::Exit;
                    break;
                }
                Err(fail) => return Err(fail),
            }
        }

        // Copy-out happens regardless of how the body finished (P4 spec
        // §6.8; exits still flush inout parameters).
        for (param, arg) in body.params.iter().zip(call.args.iter()) {
            if let RArg::InOut(place) = arg {
                let v = self.frame[param.slot].clone();
                self.write(place, v);
            }
        }

        match signal {
            Signal::Return(v) => Ok(body.ret.apply(v)),
            Signal::Cont => Ok(Value::Unit),
            Signal::Exit => Err(Interrupt::Exit),
        }
    }

    // ------------------------------------------------------------------
    // Table application
    // ------------------------------------------------------------------

    fn apply_table(&mut self, table: &RTable<'_>) -> EResult<()> {
        // Evaluate the keys into their slots.
        for (i, key) in table.keys.iter().enumerate() {
            let v = self.eval(key)?;
            self.frame[table.keys_at + i] = v;
        }
        let keys = &self.frame[table.keys_at..table.keys_at + table.keys.len()];

        // Ask the control plane; fall back to the default on a miss.
        let invoke = match table.config.and_then(|c| c.best_entry(keys)) {
            Some(ix) => &table.entries[ix],
            None => match &table.miss {
                Some(miss) => miss,
                None => return Ok(()), // no entry, no default: no-op
            },
        };
        let invoke = invoke.as_ref().map_err(|e| Interrupt::Fail(e.clone()))?;
        self.call(&table.actions[invoke.action], &invoke.args)?;
        Ok(())
    }
}

/// Reads `path` inside `cur`, taking index values from `frame`.
fn read_path(frame: &[Value], cur: &Value, path: &[RStep]) -> Value {
    let Some((step, rest)) = path.split_first() else {
        return cur.clone();
    };
    match step {
        RStep::Field(f) => match cur.field(*f) {
            Some(v) => read_path(frame, v, rest),
            None => Value::Unit,
        },
        RStep::Index(_, at) => match cur {
            Value::Stack(elems) => match elems.get(position(&frame[*at])) {
                Some(v) => read_path(frame, v, rest),
                None => match elems.first() {
                    Some(proto) => read_path(frame, &zeroed(proto), rest),
                    None => Value::Unit,
                },
            },
            _ => Value::Unit,
        },
    }
}

/// Writes `value` into the slot addressed by `path` inside `slot`, taking
/// index values from `frame`. Returns `false` (no-op) when an index is
/// out of bounds.
fn write_path(frame: &[Value], slot: &mut Value, path: &[RStep], value: Value) -> bool {
    match path.split_first() {
        None => {
            let coerced = value.coerce_to_shape(slot);
            *slot = coerced;
            true
        }
        Some((RStep::Field(f), rest)) => match slot.field_mut(*f) {
            Some(inner) => write_path(frame, inner, rest, value),
            None => false,
        },
        Some((RStep::Index(_, at), rest)) => match slot {
            Value::Stack(elems) => match elems.get_mut(position(&frame[*at])) {
                Some(inner) => write_path(frame, inner, rest, value),
                None => false, // OOB write: no-op
            },
            _ => false,
        },
    }
}

/// Whether a runtime value's variant matches a structural type's — the
/// control-plane argument shape check, without constructing a zero value.
/// Mirrors the `Value::init` variant mapping (closure types zero to
/// `Unit`).
fn value_fits_kind(v: &Value, kind: &Ty) -> bool {
    matches!(
        (kind, v),
        (Ty::Bool, Value::Bool(_))
            | (Ty::Int, Value::Int(_))
            | (Ty::Bit(_), Value::Bit { .. })
            | (Ty::Unit, Value::Unit)
            | (Ty::Record(_), Value::Record(_))
            | (Ty::Header(_), Value::Header { .. })
            | (Ty::Stack(..), Value::Stack(_))
            | (Ty::MatchKind, Value::MatchKind(_))
            | (Ty::Table(_) | Ty::Function(_), Value::Unit)
    )
}

/// Deterministic `havoc(τ)`: the same shape with all scalars zeroed.
fn zeroed(proto: &Value) -> Value {
    match proto {
        Value::Bool(_) => Value::Bool(false),
        Value::Int(_) => Value::Int(0),
        Value::Bit { width, .. } => Value::bit(*width, 0),
        Value::Unit => Value::Unit,
        Value::Record(fs) => Value::Record(fs.iter().map(|(n, v)| (*n, zeroed(v))).collect()),
        Value::Header { fields, .. } => Value::Header {
            valid: true,
            fields: fields.iter().map(|(n, v)| (*n, zeroed(v))).collect(),
        },
        Value::Stack(vs) => Value::Stack(vs.iter().map(zeroed).collect()),
        Value::MatchKind(k) => Value::MatchKind(*k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_ast::intern::Interner;

    #[test]
    fn zeroed_preserves_shape() {
        let mut syms = Interner::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let v = Value::Record(vec![(a, Value::bit(8, 99)), (b, Value::Bool(true))]);
        assert_eq!(zeroed(&v), Value::Record(vec![(a, Value::bit(8, 0)), (b, Value::Bool(false))]));
    }

    #[test]
    fn write_path_oob_is_noop() {
        // The index values live in the frame: slot 0 holds 5, slot 1 holds 1.
        let frame = [Value::Int(5), Value::Int(1)];
        let at = |slot| [RStep::Index(RExpr::Const(Value::Unit), slot)];
        let mut v = Value::Stack(vec![Value::bit(8, 1), Value::bit(8, 2)]);
        assert!(!write_path(&frame, &mut v, &at(0), Value::bit(8, 9)));
        assert_eq!(v, Value::Stack(vec![Value::bit(8, 1), Value::bit(8, 2)]));
        assert!(write_path(&frame, &mut v, &at(1), Value::bit(8, 9)));
        assert_eq!(v, Value::Stack(vec![Value::bit(8, 1), Value::bit(8, 9)]));
    }

    #[test]
    fn write_path_coerces_at_leaf() {
        let mut v = Value::bit(8, 0);
        assert!(write_path(&[], &mut v, &[], Value::Int(300)));
        assert_eq!(v, Value::bit(8, 44));
    }
}
