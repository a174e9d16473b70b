//! Big-step operational semantics for the Core P4 fragment of P4BID
//! (§3.2 and Appendices F–H of the paper).
//!
//! The paper's non-interference theorem is a statement about the petr4
//! evaluation judgements; this crate implements those judgements so the
//! theorem can be *tested*: run a typechecked program twice on
//! low-equivalent inputs and compare the observable outputs (see the
//! `p4bid-ni` crate).
//!
//! * [`Value`] — runtime values (masked bit-vectors, records, valid
//!   headers, stacks, closures, tables) with the deterministic evaluation
//!   oracle for operators;
//! * [`Store`]/[`Env`] — the memory store μ and environment ε;
//! * [`ControlPlane`] — installed table entries (`C`), with `exact`,
//!   `lpm`, and `ternary` matching;
//! * [`Interp::prepare`] / [`PreparedControl::run`] — evaluate one
//!   control block on packets (copy-in/copy-out of the control
//!   parameters, signals, table application); [`run_control`] is one
//!   prepare plus one run.
//!
//! # Prepare once, run many
//!
//! Preparing a control looks it up, declares the prelude and top-level
//! functions and actions, allocates its parameter cells and declares its
//! actions, functions and tables, all into one store-and-environment
//! image. Each run clones that image (closures and tables are `Rc`
//! bumps), writes the coerced packet into the parameter cells and
//! evaluates `apply`. A control-level `var` with an initializer, and
//! every declaration after it, is replayed on each run from pre-resolved
//! parts, because evaluating the initializer depends on the packet and
//! may allocate. Locations are therefore allocated in the same order as
//! a from-scratch execution and declarations burn no fuel, so a run's
//! outcome and fuel use are exactly those of a fresh [`run_control`].
//! The non-interference harness prepares once per check and runs every
//! pair on the one image.
//!
//! # Examples
//!
//! ```
//! use p4bid_typeck::{check_source, CheckOptions};
//! use p4bid_interp::{run_control, ControlPlane, ControlOutcome, Value};
//!
//! let typed = check_source(r#"
//!     control Swap(inout bit<8> a, inout bit<8> b) {
//!         apply { bit<8> t = a; a = b; b = t; }
//!     }
//! "#, &CheckOptions::ifc()).unwrap();
//! let out = run_control(
//!     &typed,
//!     &ControlPlane::new(),
//!     "Swap",
//!     vec![Value::bit(8, 1), Value::bit(8, 2)],
//! ).unwrap();
//! assert_eq!(out.param("a"), Some(&Value::bit(8, 2)));
//! assert_eq!(out.param("b"), Some(&Value::bit(8, 1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control_plane;
pub mod eval;
pub mod store;
pub mod value;

pub use control_plane::{ControlPlane, KeyPattern, TableConfig, TableEntry};
pub use eval::{
    run_control, ControlOutcome, EvalError, Interp, PreparedControl, Signal, DEFAULT_FUEL,
};
pub use store::{Env, Loc, Store};
pub use value::{Closure, TableAction, TableValue, Value};
