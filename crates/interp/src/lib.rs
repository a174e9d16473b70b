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
//!   headers, stacks) with the deterministic evaluation oracle for
//!   operators;
//! * [`ControlPlane`] — installed table entries (`C`), with `exact`,
//!   `lpm`, and `ternary` matching;
//! * [`Interp::prepare`] / [`PreparedControl::run`] — evaluate one
//!   control block on packets (copy-in/copy-out of the control
//!   parameters, signals, table application); [`run_control`] is one
//!   prepare plus one run.
//!
//! # Prepare once, run many
//!
//! Preparing a control makes its declarations and lowers every body a run
//! can reach — `apply`, the functions and actions it calls, control-level
//! initializers, table keys and bound action arguments — into a private
//! slot-indexed form. The environment ε exists only while preparing:
//! each variable reference becomes a slot of one frame, each field a
//! symbol, each type the coercion or zero value it stands for, and each
//! call or table application a pointer to lowered code. Core P4 has no
//! recursion, so every declaration site owns a fixed slot, and each
//! table's control-plane entries are resolved to an action and checked
//! arguments (or the error a match raises) once.
//!
//! A run resets the control-level `var`s, writes the coerced packet into
//! the parameter slots, evaluates the control-level initializers and runs
//! `apply` by indexing: no name lookup, no use of the type context, and
//! no allocation but the outcome and the values the program builds. Fuel
//! is burned at the points of the semantics (each statement, expression
//! and call), so a run's outcome, error and fuel use are those of a fresh
//! [`run_control`]. The non-interference harness prepares once per check
//! and runs every pair on the one prepared control.
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
pub mod value;

pub use control_plane::{ControlPlane, KeyPattern, TableConfig, TableEntry};
pub use eval::{
    run_control, ControlOutcome, EvalError, Interp, PreparedControl, Signal, DEFAULT_FUEL,
};
pub use value::Value;
