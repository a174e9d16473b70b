//! Lexer for the security-annotated Core P4 surface syntax.
//!
//! Tokenizes the concrete syntax of the paper's listings: P4-style
//! declarations, `<T, label>` security annotations, width-annotated integer
//! literals (`8w255`, `32w0xFF`), hexadecimal literals, and both `//` and
//! `/* */` comments.
//!
//! Tokens are `Copy`: identifier tokens carry no text of their own — the
//! parser slices the name out of the source via the token's span — so
//! lexing a program performs no per-token heap allocation.

use crate::ParseError;
use p4bid_ast::span::Span;
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are resolved by the parser so that
    /// context-sensitive words like `key` stay usable as identifiers; the
    /// text is the source slice under the token's span).
    Ident,
    /// Integer literal with optional width (`8w255` ⇒ width 8).
    Int {
        /// Literal value, masked to the width if one is given.
        value: u128,
        /// Optional `bit<w>` width prefix.
        width: Option<u16>,
    },
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `~`
    Tilde,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `@`
    At,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Short printable name used in "expected X, found Y" errors.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident => "an identifier".into(),
            TokenKind::Int { value, width: None } => format!("`{value}`"),
            TokenKind::Int { value, width: Some(w) } => format!("`{w}w{value}`"),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::LBracket => "`[`".into(),
            TokenKind::RBracket => "`]`".into(),
            TokenKind::Lt => "`<`".into(),
            TokenKind::Gt => "`>`".into(),
            TokenKind::Le => "`<=`".into(),
            TokenKind::Ge => "`>=`".into(),
            TokenKind::EqEq => "`==`".into(),
            TokenKind::NotEq => "`!=`".into(),
            TokenKind::Assign => "`=`".into(),
            TokenKind::Plus => "`+`".into(),
            TokenKind::Minus => "`-`".into(),
            TokenKind::Star => "`*`".into(),
            TokenKind::Amp => "`&`".into(),
            TokenKind::Pipe => "`|`".into(),
            TokenKind::Caret => "`^`".into(),
            TokenKind::Shl => "`<<`".into(),
            TokenKind::Shr => "`>>`".into(),
            TokenKind::AndAnd => "`&&`".into(),
            TokenKind::OrOr => "`||`".into(),
            TokenKind::Bang => "`!`".into(),
            TokenKind::Tilde => "`~`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::At => "`@`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it was lexed.
    pub span: Span,
}

/// Tokenizes `source`, appending an [`TokenKind::Eof`] sentinel.
///
/// # Errors
///
/// Returns a [`ParseError`] on unterminated block comments, malformed
/// numeric literals, or unexpected characters.
pub fn lex(source: &str) -> Result<Vec<Token>, ParseError> {
    Lexer { src: source.as_bytes(), pos: 0 }.run()
}

/// Tokenizes `source[range]` with spans that stay absolute into `source`,
/// appending an [`TokenKind::Eof`] sentinel at `range.end`, so the tokens
/// of a run of items parse against the whole text with
/// [`parse_tokens`](crate::parse_tokens). `range` must lie on trivia or
/// token boundaries, as the item ranges of
/// [`split_items`](crate::split_items) do.
///
/// # Errors
///
/// As [`lex`], for the bytes in `range`.
///
/// # Panics
///
/// If `range.end` lies past the end of `source`.
pub fn lex_range(source: &str, range: std::ops::Range<usize>) -> Result<Vec<Token>, ParseError> {
    Lexer { src: &source.as_bytes()[..range.end], pos: range.start }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Lexer<'_> {
    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        // P4 source averages well above three bytes per token; one
        // pre-sized allocation covers the whole stream.
        let mut tokens = Vec::with_capacity(self.src.len().saturating_sub(self.pos) / 3 + 8);
        loop {
            self.skip_trivia()?;
            let start = self.pos as u32;
            let Some(&c) = self.src.get(self.pos) else {
                tokens.push(Token { kind: TokenKind::Eof, span: Span::new(start, start) });
                return Ok(tokens);
            };
            let kind = match c {
                b'(' => self.one(TokenKind::LParen),
                b')' => self.one(TokenKind::RParen),
                b'{' => self.one(TokenKind::LBrace),
                b'}' => self.one(TokenKind::RBrace),
                b'[' => self.one(TokenKind::LBracket),
                b']' => self.one(TokenKind::RBracket),
                b',' => self.one(TokenKind::Comma),
                b';' => self.one(TokenKind::Semi),
                b':' => self.one(TokenKind::Colon),
                b'.' => self.one(TokenKind::Dot),
                b'@' => self.one(TokenKind::At),
                b'+' => self.one(TokenKind::Plus),
                b'-' => self.one(TokenKind::Minus),
                b'*' => self.one(TokenKind::Star),
                b'^' => self.one(TokenKind::Caret),
                b'~' => self.one(TokenKind::Tilde),
                b'&' => self.one_or_two(b'&', TokenKind::Amp, TokenKind::AndAnd),
                b'|' => self.one_or_two(b'|', TokenKind::Pipe, TokenKind::OrOr),
                b'=' => self.one_or_two(b'=', TokenKind::Assign, TokenKind::EqEq),
                b'!' => self.one_or_two(b'=', TokenKind::Bang, TokenKind::NotEq),
                b'<' => match self.peek(1) {
                    Some(b'=') => self.two(TokenKind::Le),
                    Some(b'<') => self.two(TokenKind::Shl),
                    _ => self.one(TokenKind::Lt),
                },
                b'>' => match self.peek(1) {
                    Some(b'=') => self.two(TokenKind::Ge),
                    Some(b'>') => self.two(TokenKind::Shr),
                    _ => self.one(TokenKind::Gt),
                },
                b'0'..=b'9' => self.number()?,
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                other => {
                    return Err(ParseError::new(
                        format!("unexpected character `{}`", other as char),
                        Span::new(start, start + 1),
                    ));
                }
            };
            tokens.push(Token { kind, span: Span::new(start, self.pos as u32) });
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn one(&mut self, kind: TokenKind) -> TokenKind {
        self.pos += 1;
        kind
    }

    fn two(&mut self, kind: TokenKind) -> TokenKind {
        self.pos += 2;
        kind
    }

    fn one_or_two(&mut self, second: u8, one: TokenKind, two: TokenKind) -> TokenKind {
        if self.peek(1) == Some(second) {
            self.two(two)
        } else {
            self.one(one)
        }
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match (self.peek(0), self.peek(1)) {
                (Some(c), _) if c.is_ascii_whitespace() => self.pos += 1,
                (Some(b'/'), Some(b'/')) => {
                    while let Some(c) = self.peek(0) {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                (Some(b'/'), Some(b'*')) => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    loop {
                        match (self.peek(0), self.peek(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(ParseError::new(
                                    "unterminated block comment".to_string(),
                                    Span::new(start, self.pos as u32),
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self) -> TokenKind {
        while let Some(c) = self.peek(0) {
            if c == b'_' || c.is_ascii_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        TokenKind::Ident
    }

    /// Lexes `123`, `0x1F`, `8w255`, `8w0xFF`.
    fn number(&mut self) -> Result<TokenKind, ParseError> {
        let start = self.pos;
        let first = self.read_uint()?;
        // A width prefix: digits 'w' digits.
        if self.peek(0) == Some(b'w') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1; // consume 'w'
            let value = self.read_uint()?;
            let width = u16::try_from(first).ok().filter(|&w| (1..=128).contains(&w));
            let Some(width) = width else {
                return Err(ParseError::new(
                    format!("bit width {first} out of range 1..=128"),
                    Span::new(start as u32, self.pos as u32),
                ));
            };
            let masked = if width == 128 { value } else { value & ((1u128 << width) - 1) };
            return Ok(TokenKind::Int { value: masked, width: Some(width) });
        }
        Ok(TokenKind::Int { value: first, width: None })
    }

    fn read_uint(&mut self) -> Result<u128, ParseError> {
        let start = self.pos;
        let radix = if self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x') | Some(b'X'))
        {
            self.pos += 2;
            16
        } else {
            10
        };
        let digits_start = self.pos;
        while let Some(c) = self.peek(0) {
            let ok = match radix {
                16 => c.is_ascii_hexdigit() || c == b'_',
                _ => c.is_ascii_digit() || c == b'_',
            };
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        let digits = &self.src[digits_start..self.pos];
        let mut value: u128 = 0;
        let mut any = false;
        for &c in digits {
            if c == b'_' {
                continue;
            }
            any = true;
            let d = u128::from((c as char).to_digit(radix).expect("digit by construction"));
            match value.checked_mul(u128::from(radix)).and_then(|v| v.checked_add(d)) {
                Some(v) => value = v,
                None => {
                    let text: String =
                        digits.iter().map(|&c| c as char).filter(|&c| c != '_').collect();
                    return Err(ParseError::new(
                        format!("integer literal `{text}` does not fit in 128 bits"),
                        Span::new(start as u32, self.pos as u32),
                    ));
                }
            }
        }
        if !any {
            return Err(ParseError::new(
                "malformed numeric literal".to_string(),
                Span::new(start as u32, self.pos as u32),
            ));
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_punctuation() {
        let ks = kinds("control C(inout headers h) { }");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::LParen,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::Ident,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int { value: 42, width: None });
        assert_eq!(kinds("0xFF")[0], TokenKind::Int { value: 255, width: None });
        assert_eq!(kinds("8w255")[0], TokenKind::Int { value: 255, width: Some(8) });
        assert_eq!(kinds("8w0x1F")[0], TokenKind::Int { value: 31, width: Some(8) });
        assert_eq!(kinds("1_000")[0], TokenKind::Int { value: 1000, width: None });
    }

    #[test]
    fn width_masks_value() {
        assert_eq!(kinds("4w255")[0], TokenKind::Int { value: 15, width: Some(4) });
        assert_eq!(kinds("128w1")[0], TokenKind::Int { value: 1, width: Some(128) });
    }

    #[test]
    fn width_out_of_range() {
        assert!(lex("129w0").is_err());
        assert!(lex("0w0").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a << 2 >> 3 <= >= == != && || ! ~"),
            vec![
                TokenKind::Ident,
                TokenKind::Shl,
                TokenKind::Int { value: 2, width: None },
                TokenKind::Shr,
                TokenKind::Int { value: 3, width: None },
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Tilde,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn annotation_brackets() {
        // `<bit<8>, high>` lexes as Lt Ident Lt Int Gt Comma Ident Gt.
        let ks = kinds("<bit<8>, high>");
        assert_eq!(
            ks,
            vec![
                TokenKind::Lt,
                TokenKind::Ident,
                TokenKind::Lt,
                TokenKind::Int { value: 8, width: None },
                TokenKind::Gt,
                TokenKind::Comma,
                TokenKind::Ident,
                TokenKind::Gt,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments() {
        let ks = kinds("a // line comment\n b /* block\ncomment */ c");
        assert_eq!(ks, vec![TokenKind::Ident, TokenKind::Ident, TokenKind::Ident, TokenKind::Eof,]);
    }

    #[test]
    fn unterminated_block_comment() {
        let err = lex("/* oops").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn unexpected_character() {
        let err = lex("a $ b").unwrap_err();
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn spans_are_correct() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::new(5, 5)); // EOF
    }

    #[test]
    fn huge_literal_rejected() {
        assert!(lex("340282366920938463463374607431768211456").is_err()); // 2^128
    }
}
