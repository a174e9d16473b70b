//! Lexer and parser for the security-annotated Core P4 fragment of P4BID.
//!
//! P4BID programs are written in P4₁₆ concrete syntax with security
//! annotations `<T, label>` on types, exactly as in the paper's listings:
//!
//! ```text
//! header ipv4_t   { <bit<8>, low>  ttl; … }
//! header local_t  { <bit<8>, high> phys_ttl; … }
//! control Ingress(inout headers hdr) {
//!     action update(<bit<8>, high> t) { hdr.local.phys_ttl = t; }
//!     table topo { key = { hdr.ipv4.dst: exact; } actions = { update; } }
//!     apply { topo.apply(); }
//! }
//! ```
//!
//! The entry point is [`parse`]; see [`parser`] for the accepted grammar and
//! [`lexer`] for token-level details.
//!
//! # Examples
//!
//! ```
//! let prog = p4bid_syntax::parse(
//!     "control C(inout bit<8> x) { apply { x = x + 8w1; } }",
//! ).unwrap();
//! assert_eq!(prog.controls().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use p4bid_ast::span::Span;
use std::error::Error;
use std::fmt;

pub mod lexer;
pub mod parser;
pub mod slice;

pub use lexer::{lex, lex_range, Token, TokenKind};
pub use parser::{parse, parse_tokens};
pub use slice::{
    first_changed_item, item_chains, item_segments, split_items, ByteItem, ItemHead, ItemSeg,
};

/// A lexical or syntactic error with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    span: Span,
}

impl ParseError {
    /// Builds a parse error.
    #[must_use]
    pub fn new(message: String, span: Span) -> Self {
        ParseError { message, span }
    }

    /// The error message, without location information.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source span the error points at.
    #[must_use]
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_accessors() {
        let e = ParseError::new("boom".into(), Span::new(3, 5));
        assert_eq!(e.message(), "boom");
        assert_eq!(e.span(), Span::new(3, 5));
        assert_eq!(e.to_string(), "boom");
    }
}
