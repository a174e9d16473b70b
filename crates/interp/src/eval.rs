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
//! judgements of a control once: it resolves every declaration's types
//! and names (a `Decl`), declares the global functions and actions,
//! allocates the parameter cells and declares the control's own
//! declarations, giving a [`PreparedControl`] image of μ and ε.
//! [`PreparedControl::run`] clones the image, writes the packet into the
//! parameter cells, replays what could not be declared ahead, and
//! evaluates `apply` on a fresh `Machine`, the evaluator of one
//! execution. What is replayed is the first control-level `var` with an
//! initializer and every declaration after it: the initializer reads the
//! packet and may allocate (a function it calls may declare a local on
//! one branch only), so the locations of what follows it are known only
//! at run time. Replaying keeps the from-scratch allocation order, and
//! since declarations burn no fuel while initializers burn exactly what
//! they always did, every run's outcome, error and fuel use are those of
//! an unprepared execution.
//!
//! Names are resolved against the typed program's shared interner: the
//! per-occurrence cost of a variable or field access is one interner probe
//! (a hash of the string) followed by symbol-indexed lookups; values,
//! environments, and l-value paths are all keyed by [`Symbol`]. String
//! comparison survives only at the control-plane boundary (the action
//! name a controller's entry names is compared with the table's declared
//! names, with no interner probe) and in diagnostics.
//!
//! Out-of-bounds stack reads produce the deterministic `havoc(τ)` (a
//! zeroed value of the element shape) and out-of-bounds writes are no-ops,
//! matching the `Eval 1 error` rules in Appendix I case 8 and keeping the
//! evaluator total.

use crate::control_plane::ControlPlane;
use crate::store::{Env, Loc, Store};
use crate::value::{eval_binop, eval_unop, Closure, TableAction, TableValue, Value};
use p4bid_ast::intern::Symbol;
use p4bid_ast::sectype::{FnParam, SecTy};
use p4bid_ast::surface::*;
use p4bid_typeck::{TypedControl, TypedProgram};
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
    /// returned as passed).
    pub params: Vec<(String, Value)>,
    /// Whether the control terminated via `exit`.
    pub exited: bool,
}

impl ControlOutcome {
    /// Looks up a final parameter value by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
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

/// An l-value: a base location plus a path of field/index steps
/// (Appendix F: `lval ::= x | lval.f | lval[n]`, with
/// `lval_base(lval) ∈ dom(ε)`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct LValueRef {
    base: Loc,
    path: Vec<PathSeg>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathSeg {
    Field(Symbol),
    Index(usize),
}

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

/// An argument prepared for copy-in.
enum PreArg {
    /// Already-evaluated value (`in` and control-plane positions).
    Val(Value),
    /// L-value plus its current value (`inout` positions; the l-value is
    /// written back at copy-out).
    Lv(LValueRef, Value),
}

/// The ambient `C` and Δ of an execution, plus its fuel budget: the
/// builder that prepares controls.
///
/// The shared [`TyCtx`](p4bid_ast::pool::TyCtx) of the typed program is
/// borrowed per leaf operation and never across an evaluation step, so
/// interleaving interpretation with further checking on the owning session
/// is safe.
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
    /// declares the top-level functions and actions, allocates the
    /// parameter cells and declares the control's own declarations into a
    /// store-and-environment image (see [`PreparedControl`]).
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownControl`] when the program has no such control;
    /// `Internal` if a declaration's type does not resolve (unreachable on
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
        let mut m = Machine { typed, cp: self.cp, store: Store::new(), fuel: self.fuel };

        // Global scope: prelude and top-level functions/actions.
        let mut env = Env::new();
        for item in typed.program.items() {
            let d = match item {
                Item::Function(f) => m.function_decl(f)?,
                Item::Action(a) => m.action_decl(a)?,
                _ => continue,
            };
            m.declare(&mut env, &d)?;
        }

        // The parameter cells; each run writes its packet into them.
        let mut params = Vec::with_capacity(ctrl.params.len());
        for param in &ctrl.params {
            let loc = m.store.alloc(Value::Unit);
            env.bind(param.sym, loc);
            params.push(loc);
        }

        // Control-body declarations, in order. The first `var` with an
        // initializer, and everything after it, is left for each run.
        let mut replay = Vec::new();
        for d in &decl.decls {
            let d = match d {
                CtrlDecl::Var(v) => Decl::Var {
                    sym: m.intern(&v.name.node),
                    ty: m.resolve(&v.ty)?,
                    init: v.init.as_ref(),
                },
                CtrlDecl::Action(a) => m.action_decl(a)?,
                CtrlDecl::Function(f) => m.function_decl(f)?,
                CtrlDecl::Table(t) => m.table_decl(t),
            };
            if replay.is_empty() && !matches!(d, Decl::Var { init: Some(_), .. }) {
                m.declare(&mut env, &d)?;
            } else {
                replay.push(d);
            }
        }

        Ok(PreparedControl {
            typed,
            cp: self.cp,
            fuel: self.fuel,
            ctrl,
            apply: &decl.apply,
            store: m.store,
            env,
            params,
            replay,
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

/// A control block ready to run: the store μ and environment ε as they
/// stand once its declarations are made, plus whatever must be redone on
/// every run.
///
/// [`run`](Self::run) clones the image (closures and tables are `Rc`
/// bumps), writes the coerced arguments into the parameter cells, replays
/// the declarations that could not be made ahead, and evaluates `apply`.
/// A control-level `var` with an initializer has to be evaluated on each
/// run, and evaluating it may allocate, so it and every declaration after
/// it are replayed, in order, from their pre-resolved parts. Locations are
/// therefore allocated in the same order as a from-scratch execution, and
/// since declarations burn no fuel, each run has the full budget.
pub struct PreparedControl<'a> {
    typed: &'a TypedProgram,
    cp: &'a ControlPlane,
    fuel: u64,
    ctrl: &'a TypedControl,
    apply: &'a [Stmt],
    /// μ after the prepared declarations; the parameter cells hold `Unit`.
    store: Store,
    /// ε after the prepared declarations.
    env: Env,
    /// The parameter cells, in declaration order.
    params: Vec<Loc>,
    /// The declarations each run makes, in order.
    replay: Vec<Decl<'a>>,
}

impl<'a> PreparedControl<'a> {
    /// The checked control this image runs.
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
        let mut m =
            Machine { typed: self.typed, cp: self.cp, store: self.store.clone(), fuel: self.fuel };

        // Copy the packet into the parameter cells.
        for ((param, &loc), arg) in self.ctrl.params.iter().zip(&self.params).zip(args) {
            let v = m.coerce(arg.clone(), param.ty);
            m.store.write(loc, v);
        }

        let mut env = self.env.clone();
        for d in &self.replay {
            m.declare(&mut env, d)?;
        }

        // The apply block.
        let mut exited = false;
        for s in self.apply {
            match m.eval_stmt(&mut env, s) {
                Ok(Signal::Cont) => {}
                Ok(Signal::Exit) | Err(Interrupt::Exit) => {
                    exited = true;
                    break;
                }
                Ok(Signal::Return(_)) => {
                    return Err(EvalError::Internal(
                        "`return` escaped to the control level".into(),
                    ));
                }
                Err(Interrupt::Fail(e)) => return Err(e),
            }
        }

        let params = self
            .ctrl
            .params
            .iter()
            .zip(&self.params)
            .map(|(param, &loc)| (param.name.clone(), m.store.read(loc).clone()))
            .collect();
        Ok(ControlOutcome { params, exited })
    }
}

/// A declaration with its names interned and its types resolved: what
/// [`Machine::declare`] binds. Closures and tables are held without their
/// environment, which is captured at the point of declaration.
enum Decl<'a> {
    /// A `var`; the initializer, if any, is evaluated at declaration.
    Var { sym: Symbol, ty: SecTy, init: Option<&'a Expr> },
    /// A function or action.
    Closure(Symbol, Closure),
    /// A table.
    Table(Symbol, TableValue),
}

/// One execution in progress: the store μ, the ambient `C` and Δ, and the
/// remaining fuel.
struct Machine<'a> {
    typed: &'a TypedProgram,
    cp: &'a ControlPlane,
    store: Store,
    fuel: u64,
}

impl Machine<'_> {
    fn burn(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn internal<T>(&self, msg: impl Into<String>) -> EResult<T> {
        Err(Interrupt::Fail(EvalError::Internal(msg.into())))
    }

    /// Probes the shared interner: the symbol of `name`, if the checker
    /// ever saw it (a name it never saw cannot be bound).
    fn sym(&self, name: &str) -> Option<Symbol> {
        self.typed.sym(name)
    }

    /// Interns `name` (declaration sites; idempotent).
    fn intern(&self, name: &str) -> Symbol {
        self.typed.intern(name)
    }

    /// Resolves a symbol to its name (diagnostics boundary).
    fn sym_name(&self, sym: Symbol) -> String {
        self.typed.sym_name(sym)
    }

    /// `init_Δ τ` through the shared pool.
    fn init_value(&self, ty: SecTy) -> Value {
        Value::init(&self.typed.ctx.borrow().types, ty)
    }

    /// Coerces a value to a resolved type through the shared pool.
    fn coerce(&self, v: Value, ty: SecTy) -> Value {
        v.coerce_to_type(&self.typed.ctx.borrow().types, ty)
    }

    /// Resolves a surface annotation through Δ. Infallible on typechecked
    /// programs.
    fn resolve(&self, ann: &AnnType) -> Result<SecTy, EvalError> {
        let mut ctx = self.typed.ctx.borrow_mut();
        self.typed
            .defs
            .resolve(ann, &self.typed.lattice, &mut ctx.types)
            .map_err(|d| EvalError::Internal(format!("type resolution at runtime: {d}")))
    }

    fn resolve_fn_params(
        &self,
        params: &[Param],
        is_action: bool,
    ) -> Result<Rc<[FnParam]>, EvalError> {
        params
            .iter()
            .map(|p| {
                Ok(FnParam {
                    name: self.intern(&p.name.node),
                    direction: p.direction.unwrap_or(Direction::In),
                    ty: self.resolve(&p.ty)?,
                    control_plane: is_action && p.direction.is_none(),
                })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Declarations
    // ------------------------------------------------------------------

    fn action_decl(&self, a: &ActionDecl) -> Result<Decl<'static>, EvalError> {
        let clos = Closure {
            name: a.name.node.as_str().into(),
            env: Env::new(),
            params: self.resolve_fn_params(&a.params, true)?,
            ret: SecTy::unit(&self.typed.lattice),
            body: a.body.as_slice().into(),
            is_action: true,
        };
        Ok(Decl::Closure(self.intern(&a.name.node), clos))
    }

    fn function_decl(&self, f: &FunctionDecl) -> Result<Decl<'static>, EvalError> {
        let clos = Closure {
            name: f.name.node.as_str().into(),
            env: Env::new(),
            params: self.resolve_fn_params(&f.params, false)?,
            ret: self.resolve(&f.ret)?,
            body: f.body.as_slice().into(),
            is_action: false,
        };
        Ok(Decl::Closure(self.intern(&f.name.node), clos))
    }

    fn table_decl(&self, t: &TableDecl) -> Decl<'static> {
        let tv = TableValue {
            name: t.name.node.as_str().into(),
            env: Env::new(),
            keys: t
                .keys
                .iter()
                .map(|k| (k.expr.clone(), self.intern(&k.match_kind.node)))
                .collect(),
            actions: t
                .actions
                .iter()
                .map(|a| TableAction {
                    name: a.name.node.as_str().into(),
                    sym: self.intern(&a.name.node),
                    args: a.args.clone(),
                })
                .collect(),
            default_action: t.default_action.as_ref().map(|d| self.intern(&d.node)),
        };
        Decl::Table(self.intern(&t.name.node), tv)
    }

    /// Makes a declaration: evaluates a `var`'s initial value or captures
    /// the current environment in a closure or table, allocates its
    /// location and binds the name.
    fn declare(&mut self, env: &mut Env, d: &Decl<'_>) -> Result<(), EvalError> {
        let (sym, value) = match d {
            Decl::Var { sym, ty, init } => {
                let value = match init {
                    None => self.init_value(*ty),
                    Some(init) => match self.eval_expr(env, init) {
                        Ok(v) => self.coerce(v, *ty),
                        Err(Interrupt::Fail(e)) => return Err(e),
                        Err(Interrupt::Exit) => {
                            return Err(EvalError::Internal(
                                "`exit` during variable initialization".into(),
                            ));
                        }
                    },
                };
                (*sym, value)
            }
            Decl::Closure(sym, template) => {
                let clos = Closure { env: env.clone(), ..template.clone() };
                (*sym, Value::Closure(Rc::new(clos)))
            }
            Decl::Table(sym, template) => {
                let tv = TableValue { env: env.clone(), ..template.clone() };
                (*sym, Value::Table(Rc::new(tv)))
            }
        };
        let loc = self.store.alloc(value);
        env.bind(sym, loc);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn eval_stmt(&mut self, env: &mut Env, s: &Stmt) -> EResult<Signal> {
        self.burn()?;
        match &s.kind {
            StmtKind::VarDecl(v) => {
                let d = Decl::Var {
                    sym: self.intern(&v.name.node),
                    ty: self.resolve(&v.ty)?,
                    init: v.init.as_ref(),
                };
                self.declare(env, &d)?;
                Ok(Signal::Cont)
            }
            StmtKind::Block(stmts) => {
                // Lexical scoping: declarations inside the block do not
                // escape (ε is restored, only μ persists).
                let mut inner = env.clone();
                for st in stmts {
                    match self.eval_stmt(&mut inner, st)? {
                        Signal::Cont => {}
                        sig => return Ok(sig),
                    }
                }
                Ok(Signal::Cont)
            }
            StmtKind::If(cond, then_branch, else_branch) => {
                let c = self.eval_expr(env, cond)?;
                let taken = match c {
                    Value::Bool(b) => b,
                    other => return self.internal(format!("non-bool guard `{other}`")),
                };
                let mut inner = env.clone();
                if taken {
                    self.eval_stmt(&mut inner, then_branch)
                } else if let Some(els) = else_branch {
                    self.eval_stmt(&mut inner, els)
                } else {
                    Ok(Signal::Cont)
                }
            }
            StmtKind::Assign(lhs, rhs) => {
                let lv = self.eval_lvalue(env, lhs)?;
                let v = self.eval_expr(env, rhs)?;
                self.write_lvalue(&lv, v);
                Ok(Signal::Cont)
            }
            StmtKind::Exit => Ok(Signal::Exit),
            StmtKind::Return(value) => {
                let v = match value {
                    None => Value::Unit,
                    Some(e) => self.eval_expr(env, e)?,
                };
                Ok(Signal::Return(v))
            }
            StmtKind::Call(e) => {
                let ExprKind::Call(callee, args) = &e.kind else {
                    return self.internal("malformed call statement");
                };
                let cv = self.eval_expr(env, callee)?;
                match cv {
                    Value::Table(tv) => {
                        self.apply_table(&tv)?;
                        Ok(Signal::Cont)
                    }
                    Value::Closure(clos) => {
                        self.call_closure(&clos, env, args, Vec::new())?;
                        Ok(Signal::Cont)
                    }
                    other => self.internal(format!("`{other}` is not callable")),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn eval_expr(&mut self, env: &Env, e: &Expr) -> EResult<Value> {
        self.burn()?;
        match &e.kind {
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Int { value, width } => Ok(match width {
                Some(w) => Value::bit(*w, *value),
                None => Value::Int(*value as i128),
            }),
            ExprKind::Var(name) => match self.sym(name).and_then(|s| env.lookup(s)) {
                Some(loc) => Ok(self.store.read(loc).clone()),
                None => self.internal(format!("unbound variable `{name}`")),
            },
            ExprKind::Field(recv, field) => {
                let r = self.eval_expr(env, recv)?;
                match self.sym(&field.node).and_then(|s| r.field(s).cloned()) {
                    Some(v) => Ok(v),
                    None => self.internal(format!("missing field `{}`", field.node)),
                }
            }
            ExprKind::Index(recv, index) => {
                let r = self.eval_expr(env, recv)?;
                let i = self.eval_expr(env, index)?;
                let Value::Stack(elems) = &r else {
                    return self.internal("indexing a non-stack value");
                };
                let ix = i.as_u128().unwrap_or(u128::MAX);
                match elems.get(usize::try_from(ix).unwrap_or(usize::MAX)) {
                    Some(v) => Ok(v.clone()),
                    // havoc(τ): deterministic zero of the element shape.
                    None => match elems.first() {
                        Some(proto) => Ok(zeroed(proto)),
                        None => self.internal("indexing an empty stack"),
                    },
                }
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.eval_expr(env, lhs)?;
                let r = self.eval_expr(env, rhs)?;
                eval_binop(*op, l, r)
                    .map_err(|e| Interrupt::Fail(EvalError::Internal(e.to_string())))
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval_expr(env, inner)?;
                eval_unop(*op, v).map_err(|e| Interrupt::Fail(EvalError::Internal(e.to_string())))
            }
            ExprKind::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, value) in fields {
                    let sym = self.intern(&name.node);
                    out.push((sym, self.eval_expr(env, value)?));
                }
                Ok(Value::Record(out))
            }
            ExprKind::Call(callee, args) => {
                let cv = self.eval_expr(env, callee)?;
                match cv {
                    Value::Closure(clos) => self.call_closure(&clos, env, args, Vec::new()),
                    other => self.internal(format!("`{other}` is not callable")),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // L-values (Appendices F and G)
    // ------------------------------------------------------------------

    fn eval_lvalue(&mut self, env: &Env, e: &Expr) -> EResult<LValueRef> {
        match &e.kind {
            ExprKind::Var(name) => match self.sym(name).and_then(|s| env.lookup(s)) {
                Some(loc) => Ok(LValueRef { base: loc, path: Vec::new() }),
                None => self.internal(format!("unbound l-value `{name}`")),
            },
            ExprKind::Field(recv, field) => {
                let mut lv = self.eval_lvalue(env, recv)?;
                let Some(sym) = self.sym(&field.node) else {
                    return self.internal(format!("missing field `{}`", field.node));
                };
                lv.path.push(PathSeg::Field(sym));
                Ok(lv)
            }
            ExprKind::Index(recv, index) => {
                let mut lv = self.eval_lvalue(env, recv)?;
                // The index expression is evaluated eagerly (it may have
                // side effects through calls).
                let i = self.eval_expr(env, index)?;
                let ix = usize::try_from(i.as_u128().unwrap_or(u128::MAX)).unwrap_or(usize::MAX);
                lv.path.push(PathSeg::Index(ix));
                Ok(lv)
            }
            _ => self.internal("expression is not an l-value"),
        }
    }

    /// Reads through an l-value path; out-of-bounds indices read as the
    /// deterministic havoc value.
    fn read_lvalue(&self, lv: &LValueRef) -> Value {
        let mut cur = self.store.read(lv.base).clone();
        for seg in &lv.path {
            cur = match seg {
                PathSeg::Field(f) => match cur.field(*f) {
                    Some(v) => v.clone(),
                    None => return Value::Unit,
                },
                PathSeg::Index(ix) => match &cur {
                    Value::Stack(elems) => match elems.get(*ix) {
                        Some(v) => v.clone(),
                        None => match elems.first() {
                            Some(proto) => zeroed(proto),
                            None => Value::Unit,
                        },
                    },
                    _ => return Value::Unit,
                },
            };
        }
        cur
    }

    /// Writes through an l-value path (`⇓write`, Appendix G): reads the
    /// base value, updates the nested slot, and writes the base back.
    /// Out-of-bounds indices make the whole write a no-op.
    fn write_lvalue(&mut self, lv: &LValueRef, value: Value) {
        let mut base = self.store.read(lv.base).clone();
        if write_path(&mut base, &lv.path, value) {
            self.store.write(lv.base, base);
        }
    }

    // ------------------------------------------------------------------
    // Calls (Appendix H: copy-in / copy-out)
    // ------------------------------------------------------------------

    /// Calls a closure. `args` are the data-plane argument expressions
    /// (evaluated in `caller_env`); `extra_values` are pre-evaluated
    /// values for the remaining parameters (the control-plane arguments a
    /// table match supplies).
    fn call_closure(
        &mut self,
        clos: &Closure,
        caller_env: &Env,
        args: &[Expr],
        extra_values: Vec<Value>,
    ) -> EResult<Value> {
        self.burn()?;
        let supplied = args.len() + extra_values.len();
        if supplied != clos.params.len() {
            return self.internal(format!(
                "call of `{}` with {supplied} argument(s), expected {}",
                clos.name,
                clos.params.len()
            ));
        }

        // Copy-in: evaluate arguments left to right.
        let mut preargs = Vec::with_capacity(clos.params.len());
        for (param, arg) in clos.params.iter().zip(args) {
            match param.direction {
                Direction::In => {
                    let v = self.eval_expr(caller_env, arg)?;
                    preargs.push(PreArg::Val(v));
                }
                Direction::InOut => {
                    let lv = self.eval_lvalue(caller_env, arg)?;
                    let v = self.read_lvalue(&lv);
                    preargs.push(PreArg::Lv(lv, v));
                }
            }
        }
        preargs.extend(extra_values.into_iter().map(PreArg::Val));

        // Bind parameters to fresh locations in the closure environment.
        let mut callee_env = clos.env.clone();
        let mut copy_outs: Vec<(LValueRef, Loc)> = Vec::new();
        for (param, prearg) in clos.params.iter().zip(preargs) {
            let (value, lv) = match prearg {
                PreArg::Val(v) => (v, None),
                PreArg::Lv(lv, v) => (v, Some(lv)),
            };
            let coerced = self.coerce(value, param.ty);
            let loc = self.store.alloc(coerced);
            callee_env.bind(param.name, loc);
            if let Some(lv) = lv {
                copy_outs.push((lv, loc));
            }
        }

        // Run the body.
        let mut signal = Signal::Cont;
        for s in clos.body.iter() {
            match self.eval_stmt(&mut callee_env, s) {
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
        for (lv, loc) in copy_outs {
            let v = self.store.read(loc).clone();
            self.write_lvalue(&lv, v);
        }

        match signal {
            Signal::Return(v) => Ok(self.coerce(v, clos.ret)),
            Signal::Cont => Ok(Value::Unit),
            Signal::Exit => Err(Interrupt::Exit),
        }
    }

    // ------------------------------------------------------------------
    // Table application
    // ------------------------------------------------------------------

    fn apply_table(&mut self, tv: &TableValue) -> EResult<()> {
        // Evaluate the keys in the table's captured environment.
        let mut keys = Vec::with_capacity(tv.keys.len());
        for (expr, _kind) in tv.keys.iter() {
            keys.push(self.eval_expr(&tv.env, expr)?);
        }

        // Ask the control plane; fall back to the declared default. The
        // controller speaks strings, compared with the declared action
        // names; the invoked action must be one the table declared.
        let unknown = |action: String| {
            Interrupt::Fail(EvalError::UnknownEntryAction { table: tv.name.to_string(), action })
        };
        let (action, cp_args, from_controller) = match self.cp.lookup(&tv.name, &keys) {
            Some((name, args)) => match tv.actions.iter().find(|a| *a.name == *name) {
                Some(action) => (action, args, true),
                None => return Err(unknown(name.to_string())),
            },
            None => match tv.default_action {
                Some(sym) => match tv.actions.iter().find(|a| a.sym == sym) {
                    Some(action) => (action, &[][..], false),
                    None => return Err(unknown(self.sym_name(sym))),
                },
                None => return Ok(()), // no entry, no default: no-op
            },
        };

        let clos = match tv.env.lookup(action.sym) {
            Some(loc) => match self.store.read(loc) {
                Value::Closure(c) => Rc::clone(c),
                other => {
                    let msg = format!("table action `{}` is `{other}`, not a closure", action.name);
                    return self.internal(msg);
                }
            },
            None => return self.internal(format!("table action `{}` not in scope", action.name)),
        };

        // Control-plane arguments fill the directionless parameter suffix;
        // validate and coerce them (the paper assumes the controller
        // installs well-typed arguments — we enforce it).
        let ctrl_params = || clos.params.iter().filter(|p| p.control_plane);
        let cp_args = if from_controller || !cp_args.is_empty() {
            let expected = ctrl_params().count();
            if cp_args.len() != expected {
                return Err(Interrupt::Fail(EvalError::EntryArgMismatch {
                    table: tv.name.to_string(),
                    action: action.name.to_string(),
                    detail: format!(
                        "expected {expected} control-plane argument(s), got {}",
                        cp_args.len()
                    ),
                }));
            }
            let mut coerced = Vec::with_capacity(cp_args.len());
            for (param, value) in ctrl_params().zip(cp_args) {
                let v = self.coerce(value.clone(), param.ty);
                let fits = {
                    let ctx = self.typed.ctx.borrow();
                    value_fits_kind(&v, ctx.types.kind(param.ty.ty))
                };
                if !fits {
                    return Err(Interrupt::Fail(EvalError::EntryArgMismatch {
                        table: tv.name.to_string(),
                        action: action.name.to_string(),
                        detail: format!(
                            "argument `{}` does not fit parameter `{}`",
                            v.display_with(&self.typed.ctx.borrow().syms),
                            self.sym_name(param.name)
                        ),
                    }));
                }
                coerced.push(v);
            }
            coerced
        } else {
            // Declared default action run with zero-initialized
            // control-plane arguments.
            ctrl_params().map(|p| self.init_value(p.ty)).collect()
        };

        self.call_closure(&clos, &tv.env, &action.args, cp_args)?;
        Ok(())
    }
}

/// Whether a runtime value's variant matches a structural type's — the
/// control-plane argument shape check, without constructing a zero value.
/// Mirrors the `Value::init` variant mapping (closure types zero to
/// `Unit`).
fn value_fits_kind(v: &Value, kind: &p4bid_ast::sectype::Ty) -> bool {
    use p4bid_ast::sectype::Ty;
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
        Value::Closure(_) | Value::Table(_) => proto.clone(),
    }
}

/// Writes `value` into the slot addressed by `path` inside `slot`.
/// Returns `false` (no-op) when an index is out of bounds.
fn write_path(slot: &mut Value, path: &[PathSeg], value: Value) -> bool {
    match path.split_first() {
        None => {
            let coerced = value.coerce_to_shape(slot);
            *slot = coerced;
            true
        }
        Some((PathSeg::Field(f), rest)) => match slot.field_mut(*f) {
            Some(inner) => write_path(inner, rest, value),
            None => false,
        },
        Some((PathSeg::Index(ix), rest)) => match slot {
            Value::Stack(elems) => match elems.get_mut(*ix) {
                Some(inner) => write_path(inner, rest, value),
                None => false, // OOB write: no-op
            },
            _ => false,
        },
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
        let mut v = Value::Stack(vec![Value::bit(8, 1), Value::bit(8, 2)]);
        assert!(!write_path(&mut v, &[PathSeg::Index(5)], Value::bit(8, 9)));
        assert_eq!(v, Value::Stack(vec![Value::bit(8, 1), Value::bit(8, 2)]));
        assert!(write_path(&mut v, &[PathSeg::Index(1)], Value::bit(8, 9)));
        assert_eq!(v, Value::Stack(vec![Value::bit(8, 1), Value::bit(8, 9)]));
    }

    #[test]
    fn write_path_coerces_at_leaf() {
        let mut v = Value::bit(8, 0);
        assert!(write_path(&mut v, &[], Value::Int(300)));
        assert_eq!(v, Value::bit(8, 44));
    }
}
