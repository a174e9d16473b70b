//! Abstract syntax for the security-annotated Core P4 fragment of P4BID.
//!
//! The P4BID paper (PLDI 2022) formalizes its information-flow control type
//! system over the fragment of Core P4 shown in its Figure 1, with security
//! types `⟨τ, χ⟩` (Figure 4) labeling every piece of data with an element of
//! a security lattice. This crate contains:
//!
//! * [`surface`] — the parser-facing AST: expressions, statements,
//!   declarations, control blocks, and *named* security annotations
//!   (`<bit<32>, high>`) exactly as written in the paper's listings;
//! * [`sectype`] — the resolved security types used by the typechecker and
//!   interpreter, with annotations resolved to [`p4bid_lattice::Label`]s and
//!   typedefs unfolded; types are hash-consed into a [`pool::TyPool`] and
//!   handled by copyable [`sectype::TyId`]s;
//! * [`pool`] — the hash-consing type pool and the shared
//!   interner-plus-pool context ([`pool::TyCtx`]);
//! * [`span`] — source spans and line/column rendering for diagnostics;
//! * [`pretty`] — a pretty-printer inverse to the parser;
//! * [`intern`] — string interning ([`intern::Symbol`]/[`intern::Interner`])
//!   backing the typechecker's `Vec`-indexed environments;
//! * [`hash`] — the workspace's two 64-bit hashes: FNV-1a, for hashes
//!   that decide alone or whose values are pinned, and a word-at-a-time
//!   content hash for locators whose every hit is re-verified (the verdict
//!   cache and the item memo).
//!
//! # Examples
//!
//! Building a tiny expression by hand:
//!
//! ```
//! use p4bid_ast::span::Span;
//! use p4bid_ast::surface::{Expr, ExprKind, BinOp};
//!
//! let sp = Span::dummy();
//! let one = Expr::new(ExprKind::Int { value: 1, width: Some(8) }, sp);
//! let x = Expr::var("x", sp);
//! let sum = Expr::new(ExprKind::Binary(BinOp::Add, Box::new(x), Box::new(one)), sp);
//! assert_eq!(p4bid_ast::pretty::expr_to_string(&sum), "x + 8w1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod intern;
pub mod pool;
pub mod pretty;
pub mod sectype;
pub mod span;
pub mod surface;

pub use intern::{Interner, Symbol};
pub use pool::{CtxOverlay, FrozenTyCtx, SharedTyCtx, TyCtx, TyPool};
pub use sectype::{SecTy, TyId};
pub use span::{Span, Spanned};
