//! Recursive-descent parser for the security-annotated Core P4 fragment.
//!
//! The accepted grammar is the paper's Figure 1 dressed in P4₁₆ concrete
//! syntax (as used in Listings 1–7), plus:
//!
//! * security annotations `<T, label>` on any type position;
//! * an optional `lattice { a < b; … }` declaration;
//! * an optional `@pc(label)` attribute on `control` declarations (§5.4);
//! * `t.apply()` sugar for table application (desugared to a call of the
//!   table value, as in Core P4).

use crate::lexer::{lex, Token, TokenKind};
use crate::ParseError;
use p4bid_ast::span::{Span, Spanned};
use p4bid_ast::surface::*;

/// Parses a whole program.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, with a source
/// span.
///
/// # Examples
///
/// ```
/// let src = r#"
///     header h_t { <bit<8>, high> secret; bit<8> public; }
///     control C(inout h_t h) {
///         action a() { h.public = 8w1; }
///         apply { a(); }
///     }
/// "#;
/// let prog = p4bid_syntax::parse(src).unwrap();
/// assert_eq!(prog.controls().count(), 1);
/// ```
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    parse_tokens(source, &tokens)
}

/// Parses an already-lexed token stream against its source text (the
/// tokens must have been produced by [`lex`] on exactly `source`, which
/// identifier tokens slice their names out of by span).
///
/// This is the reuse entry point for callers that check the same text many
/// times — e.g. the standard prelude, whose `Copy` token slice is lexed
/// once per process and shared across every checker session and worker.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors.
pub fn parse_tokens(source: &str, tokens: &[Token]) -> Result<Program, ParseError> {
    let mut p = Parser { tokens, pos: 0, source, depth: 0 };
    p.program()
}

/// Maximum nesting depth of statements and expressions. The parser is
/// recursive-descent, so without a cap a pathological input like ten
/// thousand `(`s or `if(c)`s overflows the thread stack — an abort no
/// `catch_unwind` isolation can contain. Real P4 programs nest a handful
/// of levels; 200 is far above anything legitimate and far below what
/// would threaten the default 8 MiB stack.
const MAX_DEPTH: u32 = 200;

struct Parser<'s> {
    /// The (possibly borrowed, pre-lexed) token stream.
    tokens: &'s [Token],
    pos: usize,
    /// The source text; identifier tokens carry no payload, their names
    /// are sliced out of here by span.
    source: &'s str,
    /// Current statement/expression nesting depth, guarded against
    /// [`MAX_DEPTH`] in [`Parser::stmt`] and [`Parser::unary`] (every
    /// recursion path passes through one of the two).
    depth: u32,
}

impl Parser<'_> {
    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, ahead: usize) -> &TokenKind {
        let ix = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[ix].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    /// The source text under the current token (meaningful for `Ident`).
    fn cur_text(&self) -> &str {
        let sp = self.span();
        &self.source[sp.start as usize..sp.end as usize]
    }

    /// Renders the current token for an error message, quoting identifier
    /// text from the source.
    fn describe_current(&self) -> String {
        match self.peek() {
            TokenKind::Ident => format!("`{}`", self.cur_text()),
            other => other.describe(),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident) && self.cur_text() == kw
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span, ParseError> {
        if self.at(kind) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&kind.describe()))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span, ParseError> {
        if self.at_kw(kw) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    fn ident(&mut self) -> Result<Spanned<String>, ParseError> {
        match self.peek() {
            TokenKind::Ident => {
                let text = self.cur_text().to_string();
                let span = self.bump().span;
                Ok(Spanned::new(text, span))
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::new(
            format!("expected {expected}, found {}", self.describe_current()),
            self.span(),
        )
    }

    /// Enters one nesting level; the matching `self.depth -= 1` lives in
    /// the two wrapper methods ([`Parser::stmt`], [`Parser::unary`]). On
    /// an `Err` the whole parse is abandoned, so the counter need not
    /// unwind precisely there.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(ParseError::new(
                format!("nesting too deep (more than {MAX_DEPTH} levels)"),
                self.span(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while !self.at(&TokenKind::Eof) {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if self.at_kw("lattice") {
            return Ok(Item::Lattice(self.lattice_decl()?));
        }
        if self.at_kw("typedef") {
            return Ok(Item::Type(self.typedef_decl()?));
        }
        if self.at_kw("header") {
            return Ok(Item::Type(self.header_or_struct(true)?));
        }
        if self.at_kw("struct") {
            return Ok(Item::Type(self.header_or_struct(false)?));
        }
        if self.at_kw("match_kind") {
            return Ok(Item::Type(self.match_kind_decl()?));
        }
        if self.at_kw("function") {
            return Ok(Item::Function(self.function_decl()?));
        }
        if self.at_kw("action") {
            return Ok(Item::Action(self.action_decl()?));
        }
        if self.at_kw("control") || self.at(&TokenKind::At) {
            return Ok(Item::Control(self.control_decl()?));
        }
        Err(self.unexpected(
            "a declaration (`lattice`, `typedef`, `header`, `struct`, `match_kind`, \
             `function`, `action`, or `control`)",
        ))
    }

    fn lattice_decl(&mut self) -> Result<LatticeDecl, ParseError> {
        let start = self.expect_kw("lattice")?;
        self.expect(&TokenKind::LBrace)?;
        let mut order = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            let lo = self.ident()?;
            self.expect(&TokenKind::Lt)?;
            let hi = self.ident()?;
            self.expect(&TokenKind::Semi)?;
            order.push((lo, hi));
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(LatticeDecl { order, span: start.to(end) })
    }

    fn typedef_decl(&mut self) -> Result<TypeDecl, ParseError> {
        self.expect_kw("typedef")?;
        let ty = self.ann_type()?;
        let name = self.ident()?;
        self.expect(&TokenKind::Semi)?;
        Ok(TypeDecl::Typedef { ty, name })
    }

    fn header_or_struct(&mut self, is_header: bool) -> Result<TypeDecl, ParseError> {
        self.bump(); // `header` / `struct`
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            let ty = self.ann_type()?;
            let fname = self.ident()?;
            self.expect(&TokenKind::Semi)?;
            fields.push((fname, ty));
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(if is_header {
            TypeDecl::Header { name, fields }
        } else {
            TypeDecl::Struct { name, fields }
        })
    }

    fn match_kind_decl(&mut self) -> Result<TypeDecl, ParseError> {
        self.expect_kw("match_kind")?;
        self.expect(&TokenKind::LBrace)?;
        let mut kinds = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            kinds.push(self.ident()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        self.eat(&TokenKind::Semi);
        Ok(TypeDecl::MatchKind { kinds })
    }

    fn control_decl(&mut self) -> Result<ControlDecl, ParseError> {
        let mut pc = None;
        let start = self.span();
        if self.eat(&TokenKind::At) {
            self.expect_kw("pc")?;
            self.expect(&TokenKind::LParen)?;
            pc = Some(self.ident()?);
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw("control")?;
        let name = self.ident()?;
        let params = self.params()?;
        self.expect(&TokenKind::LBrace)?;
        let mut decls = Vec::new();
        while !self.at_kw("apply") {
            if self.at(&TokenKind::RBrace) || self.at(&TokenKind::Eof) {
                return Err(self.unexpected("`apply { … }` before the end of the control"));
            }
            decls.push(self.ctrl_decl()?);
        }
        self.expect_kw("apply")?;
        let apply = self.block_stmts()?;
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(ControlDecl { name, params, decls, apply, pc, span: start.to(end) })
    }

    fn ctrl_decl(&mut self) -> Result<CtrlDecl, ParseError> {
        if self.at_kw("action") {
            return Ok(CtrlDecl::Action(self.action_decl()?));
        }
        if self.at_kw("function") {
            return Ok(CtrlDecl::Function(self.function_decl()?));
        }
        if self.at_kw("table") {
            return Ok(CtrlDecl::Table(self.table_decl()?));
        }
        Ok(CtrlDecl::Var(self.var_decl()?))
    }

    fn action_decl(&mut self) -> Result<ActionDecl, ParseError> {
        let start = self.expect_kw("action")?;
        let name = self.ident()?;
        let params = self.params()?;
        let body = self.braced_stmts()?;
        Ok(ActionDecl { name, params, body, span: start.to(self.prev_span()) })
    }

    fn function_decl(&mut self) -> Result<FunctionDecl, ParseError> {
        let start = self.expect_kw("function")?;
        let ret = self.ann_type()?;
        let name = self.ident()?;
        let params = self.params()?;
        let body = self.braced_stmts()?;
        Ok(FunctionDecl { name, ret, params, body, span: start.to(self.prev_span()) })
    }

    fn table_decl(&mut self) -> Result<TableDecl, ParseError> {
        let start = self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut keys = Vec::new();
        let mut actions = Vec::new();
        let mut default_action = None;
        while !self.at(&TokenKind::RBrace) {
            if self.eat_kw("key") {
                self.expect(&TokenKind::Assign)?;
                self.expect(&TokenKind::LBrace)?;
                while !self.at(&TokenKind::RBrace) {
                    let expr = self.expr()?;
                    self.expect(&TokenKind::Colon)?;
                    let match_kind = self.ident()?;
                    self.expect(&TokenKind::Semi)?;
                    keys.push(KeyEntry { expr, match_kind });
                }
                self.expect(&TokenKind::RBrace)?;
            } else if self.eat_kw("actions") {
                self.expect(&TokenKind::Assign)?;
                self.expect(&TokenKind::LBrace)?;
                while !self.at(&TokenKind::RBrace) {
                    let aname = self.ident()?;
                    let mut args = Vec::new();
                    let astart = aname.span;
                    if self.eat(&TokenKind::LParen) {
                        while !self.at(&TokenKind::RParen) {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                    }
                    self.expect(&TokenKind::Semi)?;
                    actions.push(ActionRef {
                        name: aname,
                        args,
                        span: astart.to(self.prev_span()),
                    });
                }
                self.expect(&TokenKind::RBrace)?;
            } else if self.eat_kw("default_action") {
                self.expect(&TokenKind::Assign)?;
                let dname = self.ident()?;
                if self.eat(&TokenKind::LParen) {
                    self.expect(&TokenKind::RParen)?;
                }
                self.expect(&TokenKind::Semi)?;
                default_action = Some(dname);
            } else {
                return Err(self.unexpected("`key`, `actions`, or `default_action`"));
            }
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(TableDecl { name, keys, actions, default_action, span: start.to(end) })
    }

    fn params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.at(&TokenKind::RParen) {
            let direction = if self.eat_kw("in") {
                Some(Direction::In)
            } else if self.eat_kw("inout") {
                Some(Direction::InOut)
            } else {
                None
            };
            let ty = self.ann_type()?;
            let name = self.ident()?;
            params.push(Param { direction, name, ty });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(params)
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    /// `ann_type := ('<' type ',' label '>' | type) ('[' INT ']')*`
    fn ann_type(&mut self) -> Result<AnnType, ParseError> {
        let start = self.span();
        let mut ann = if self.at(&TokenKind::Lt) {
            self.bump();
            let ty = self.type_expr()?;
            self.expect(&TokenKind::Comma)?;
            let label = self.ident()?;
            let end = self.expect(&TokenKind::Gt)?;
            AnnType { ty, label: Some(label), span: start.to(end) }
        } else {
            let ty = self.type_expr()?;
            AnnType { ty, label: None, span: start.to(self.prev_span()) }
        };
        // Stack suffixes wrap the (possibly annotated) element type.
        while self.at(&TokenKind::LBracket) {
            self.bump();
            let size = match *self.peek() {
                TokenKind::Int { value, width: None } => {
                    self.bump();
                    u32::try_from(value).ok().filter(|&n| n >= 1).ok_or_else(|| {
                        ParseError::new(
                            "stack size must be between 1 and 2^32-1".into(),
                            self.prev_span(),
                        )
                    })?
                }
                _ => return Err(self.unexpected("a stack size literal")),
            };
            let end = self.expect(&TokenKind::RBracket)?;
            let span = start.to(end);
            ann = AnnType { ty: TypeExpr::Stack(Box::new(ann), size), label: None, span };
        }
        Ok(ann)
    }

    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        if self.eat_kw("bool") {
            return Ok(TypeExpr::Bool);
        }
        if self.eat_kw("int") {
            return Ok(TypeExpr::Int);
        }
        if self.eat_kw("void") {
            return Ok(TypeExpr::Void);
        }
        if self.at_kw("bit") {
            self.bump();
            self.expect(&TokenKind::Lt)?;
            let width = match *self.peek() {
                TokenKind::Int { value, width: None } => {
                    self.bump();
                    u16::try_from(value).ok().filter(|&w| (1..=128).contains(&w)).ok_or_else(
                        || {
                            ParseError::new(
                                format!("bit width {value} out of range 1..=128"),
                                self.prev_span(),
                            )
                        },
                    )?
                }
                _ => return Err(self.unexpected("a bit width")),
            };
            self.expect(&TokenKind::Gt)?;
            return Ok(TypeExpr::Bit(width));
        }
        let name = self.ident()?;
        Ok(TypeExpr::Named(name.node))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn braced_stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let stmts = self.stmts_until_rbrace()?;
        self.expect(&TokenKind::RBrace)?;
        Ok(stmts)
    }

    /// Like [`Self::braced_stmts`] but used for `apply { … }` where the
    /// closing brace of the control follows.
    fn block_stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.braced_stmts()
    }

    fn stmts_until_rbrace(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            if self.at(&TokenKind::Eof) {
                return Err(self.unexpected("`}`"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let r = self.stmt_inner();
        self.depth -= 1;
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        if self.at(&TokenKind::LBrace) {
            let stmts = self.braced_stmts()?;
            return Ok(Stmt::new(StmtKind::Block(stmts), start.to(self.prev_span())));
        }
        if self.eat_kw("if") {
            self.expect(&TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let then = Box::new(self.stmt()?);
            let els = if self.eat_kw("else") { Some(Box::new(self.stmt()?)) } else { None };
            return Ok(Stmt::new(StmtKind::If(cond, then, els), start.to(self.prev_span())));
        }
        if self.eat_kw("exit") {
            let end = self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Exit, start.to(end)));
        }
        if self.eat_kw("return") {
            let value = if self.at(&TokenKind::Semi) { None } else { Some(self.expr()?) };
            let end = self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Return(value), start.to(end)));
        }
        if self.starts_var_decl() {
            let decl = self.var_decl()?;
            let span = decl.span;
            return Ok(Stmt::new(StmtKind::VarDecl(decl), span));
        }
        // Expression statement: call or assignment.
        let lhs = self.expr()?;
        if self.eat(&TokenKind::Assign) {
            let rhs = self.expr()?;
            let end = self.expect(&TokenKind::Semi)?;
            return Ok(Stmt::new(StmtKind::Assign(lhs, rhs), start.to(end)));
        }
        let end = self.expect(&TokenKind::Semi)?;
        match &lhs.kind {
            ExprKind::Call(..) => Ok(Stmt::new(StmtKind::Call(lhs), start.to(end))),
            _ => Err(ParseError::new(
                "expected a call or an assignment statement".to_string(),
                lhs.span,
            )),
        }
    }

    /// A statement starts a variable declaration if it begins with a type:
    /// `<` (annotation), a builtin type keyword, or `IDENT IDENT`.
    fn starts_var_decl(&self) -> bool {
        match self.peek() {
            TokenKind::Lt => true,
            TokenKind::Ident => {
                matches!(self.cur_text(), "bool" | "int" | "bit" | "void")
                    || matches!(self.peek_at(1), TokenKind::Ident)
            }
            _ => false,
        }
    }

    fn var_decl(&mut self) -> Result<VarDecl, ParseError> {
        let start = self.span();
        let ty = self.ann_type()?;
        let name = self.ident()?;
        let init = if self.eat(&TokenKind::Assign) { Some(self.expr()?) } else { None };
        let end = self.expect(&TokenKind::Semi)?;
        Ok(VarDecl { ty, name, init, span: start.to(end) })
    }

    // ------------------------------------------------------------------
    // Expressions (Pratt)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.expr_bp(0)
    }

    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, lbp, rbp)) = self.peek_binop() {
            if lbp < min_bp {
                break;
            }
            self.bump();
            let rhs = self.expr_bp(rbp)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    /// Binding powers; higher binds tighter. Returns `(op, left_bp, right_bp)`.
    fn peek_binop(&self) -> Option<(BinOp, u8, u8)> {
        let (op, bp) = match self.peek() {
            TokenKind::OrOr => (BinOp::Or, 1),
            TokenKind::AndAnd => (BinOp::And, 2),
            TokenKind::EqEq => (BinOp::Eq, 3),
            TokenKind::NotEq => (BinOp::Ne, 3),
            TokenKind::Lt => (BinOp::Lt, 4),
            TokenKind::Le => (BinOp::Le, 4),
            TokenKind::Gt => (BinOp::Gt, 4),
            TokenKind::Ge => (BinOp::Ge, 4),
            TokenKind::Pipe => (BinOp::BitOr, 5),
            TokenKind::Caret => (BinOp::BitXor, 6),
            TokenKind::Amp => (BinOp::BitAnd, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            _ => return None,
        };
        Some((op, bp, bp + 1))
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let r = self.unary_inner();
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.unary()?;
            let span = start.to(inner.span);
            return Ok(Expr::new(ExprKind::Unary(op, Box::new(inner)), span));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    let span = e.span.to(field.span);
                    e = Expr::new(ExprKind::Field(Box::new(e), field), span);
                }
                TokenKind::LBracket => {
                    self.bump();
                    let ix = self.expr()?;
                    let end = self.expect(&TokenKind::RBracket)?;
                    let span = e.span.to(end);
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(ix)), span);
                }
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    while !self.at(&TokenKind::RParen) {
                        args.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(&TokenKind::RParen)?;
                    let span = e.span.to(end);
                    // Desugar `t.apply()` to a direct application of the
                    // table value, as in Core P4's `t()`.
                    e = match e.kind {
                        ExprKind::Field(recv, f) if f.node == "apply" && args.is_empty() => {
                            Expr::new(ExprKind::Call(recv, vec![]), span)
                        }
                        _ => Expr::new(ExprKind::Call(Box::new(e), args), span),
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match *self.peek() {
            TokenKind::Int { value, width } => {
                self.bump();
                Ok(Expr::new(ExprKind::Int { value, width }, start))
            }
            TokenKind::Ident => {
                let e = match self.cur_text() {
                    "true" => ExprKind::Bool(true),
                    "false" => ExprKind::Bool(false),
                    name => ExprKind::Var(name.to_string()),
                };
                self.bump();
                Ok(Expr::new(e, start))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBrace => {
                // Record literal `{ f = e, … }`.
                self.bump();
                let mut fields = Vec::new();
                while !self.at(&TokenKind::RBrace) {
                    let name = self.ident()?;
                    self.expect(&TokenKind::Assign)?;
                    let value = self.expr()?;
                    fields.push((name, value));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                let end = self.expect(&TokenKind::RBrace)?;
                Ok(Expr::new(ExprKind::Record(fields), start.to(end)))
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_ast::pretty;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse error: {e} in\n{src}"),
        }
    }

    #[test]
    fn parses_listing1_style_program() {
        let src = r#"
            header local_hdr_t {
                <bit<32>, high> phys_dstAddr;
                <bit<8>, high> phys_ttl;
                <bit<48>, high> next_hop_MAC_addr;
            }
            header ipv4_t {
                <bit<8>, low> ttl;
                bit<8> protocol;
                bit<32> srcAddr;
                bit<32> dstAddr;
            }
            struct headers {
                ipv4_t ipv4;
                local_hdr_t local_hdr;
            }
            control Obfuscate_Ingress(inout headers hdr) {
                action update_to_phys(<bit<32>, high> phys_dstAddr, <bit<8>, high> phys_ttl) {
                    hdr.local_hdr.phys_dstAddr = phys_dstAddr;
                    hdr.local_hdr.phys_ttl = phys_ttl;
                }
                table virtual2phys_topology {
                    key = { hdr.ipv4.dstAddr: exact; }
                    actions = { update_to_phys; }
                }
                apply {
                    virtual2phys_topology.apply();
                }
            }
        "#;
        let p = parse_ok(src);
        assert_eq!(p.type_decls().count(), 3);
        let c = p.controls().next().unwrap();
        assert_eq!(c.name.node, "Obfuscate_Ingress");
        assert_eq!(c.decls.len(), 2);
        assert_eq!(c.apply.len(), 1);
        // Table application desugars to a call of the table variable.
        match &c.apply[0].kind {
            StmtKind::Call(e) => match &e.kind {
                ExprKind::Call(f, args) => {
                    assert!(args.is_empty());
                    assert!(matches!(&f.kind, ExprKind::Var(n) if n == "virtual2phys_topology"));
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected call stmt, got {other:?}"),
        }
    }

    #[test]
    fn parses_pc_annotation_and_lattice() {
        let src = r#"
            lattice { bot < A; bot < B; A < top; B < top; }
            header h_t { <bit<8>, A> alice; <bit<8>, B> bob; }
            @pc(A) control Alice(inout h_t h) {
                action set_a() { h.alice = 8w1; }
                apply { set_a(); }
            }
        "#;
        let p = parse_ok(src);
        let lat = p.lattice_decl().unwrap();
        assert_eq!(lat.element_names(), vec!["bot", "A", "B", "top"]);
        let c = p.controls().next().unwrap();
        assert_eq!(c.pc.as_ref().unwrap().node, "A");
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let src = r#"
            control C(inout bool g) {
                bit<8> x = 1 + 2 * 3;
                bool b = 1 + 2 == 3 && true || false;
                bit<8> y = (1 + 2) * 3;
                bit<8> z = ~x & x << 2 | x >> 1;
                apply { }
            }
        "#;
        let p = parse_ok(src);
        let c = p.controls().next().unwrap();
        let CtrlDecl::Var(v) = &c.decls[0] else { panic!() };
        // 1 + (2 * 3)
        assert_eq!(pretty::expr_to_string(v.init.as_ref().unwrap()), "1 + (2 * 3)");
        let CtrlDecl::Var(v1) = &c.decls[1] else { panic!() };
        assert_eq!(
            pretty::expr_to_string(v1.init.as_ref().unwrap()),
            "(((1 + 2) == 3) && true) || false",
        );
        let CtrlDecl::Var(v2) = &c.decls[2] else { panic!() };
        assert_eq!(pretty::expr_to_string(v2.init.as_ref().unwrap()), "(1 + 2) * 3");
    }

    #[test]
    fn parses_stacks_and_indexing() {
        let src = r#"
            header b_t { bit<8> v; }
            struct hs { b_t[4] stack; }
            control C(inout hs h) {
                <bit<8>, high>[4] arr;
                apply {
                    h.stack[0].v = h.stack[1].v;
                    arr[2] = 8w7;
                }
            }
        "#;
        let p = parse_ok(src);
        let c = p.controls().next().unwrap();
        let CtrlDecl::Var(v) = &c.decls[0] else { panic!() };
        match &v.ty.ty {
            TypeExpr::Stack(elem, 4) => {
                assert_eq!(elem.label.as_ref().unwrap().node, "high");
            }
            other => panic!("expected stack, got {other:?}"),
        }
    }

    #[test]
    fn parses_functions_and_returns() {
        let src = r#"
            function <bit<32>, low> popcnt(in bit<32> x) {
                bit<32> v = x;
                v = (v & 0x55555555) + ((v >> 1) & 0x55555555);
                return v;
            }
            control C(inout bit<32> y) {
                apply { y = popcnt(y); }
            }
        "#;
        let p = parse_ok(src);
        assert!(matches!(p.items[0], Item::Function(_)));
    }

    #[test]
    fn parses_table_with_default_action_and_bound_args() {
        let src = r#"
            control C(inout bit<32> x) {
                <bit<32>, high> failures = x;
                action forwarding(in <bit<32>, high> f) { }
                action NoActionLocal() { }
                table forward {
                    key = { x: exact; }
                    actions = { forwarding(failures); NoActionLocal; }
                    default_action = NoActionLocal;
                }
                apply { forward.apply(); }
            }
        "#;
        let p = parse_ok(src);
        let c = p.controls().next().unwrap();
        let CtrlDecl::Table(t) = &c.decls[3] else { panic!("decls: {:?}", c.decls.len()) };
        assert_eq!(t.actions.len(), 2);
        assert_eq!(t.actions[0].args.len(), 1);
        assert_eq!(t.default_action.as_ref().unwrap().node, "NoActionLocal");
    }

    #[test]
    fn record_literals() {
        let src = r#"
            control C(inout bit<8> x) {
                apply { x = { a = 1, b = 2 }.a; }
            }
        "#;
        let p = parse_ok(src);
        let c = p.controls().next().unwrap();
        match &c.apply[0].kind {
            StmtKind::Assign(_, rhs) => {
                assert!(matches!(&rhs.kind, ExprKind::Field(inner, f)
                    if f.node == "a" && matches!(inner.kind, ExprKind::Record(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_on_missing_apply() {
        let err = parse("control C(inout bit<8> x) { }").unwrap_err();
        assert!(err.to_string().contains("apply"), "{err}");
    }

    #[test]
    fn error_on_bare_expression_statement() {
        let err = parse("control C(inout bit<8> x) { apply { x; } }").unwrap_err();
        assert!(err.to_string().contains("call or an assignment"), "{err}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Expressions: thousands of parens would previously recurse once
        // per paren and blow the stack — an abort no worker isolation can
        // catch. Now it is an ordinary parse error.
        let deep_expr = format!(
            "control C(inout bit<8> x) {{ apply {{ x = {}x{}; }} }}",
            "(".repeat(10_000),
            ")".repeat(10_000),
        );
        let err = parse(&deep_expr).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");

        // Statements: the same for a tower of `if`s.
        let deep_stmt = format!(
            "control C(inout bool g) {{ apply {{ {} g = true; }} }}",
            "if (g)".repeat(10_000),
        );
        let err = parse(&deep_stmt).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");

        // Unary operator chains recurse through `unary` as well.
        let deep_unary =
            format!("control C(inout bit<8> x) {{ apply {{ x = {}x; }} }}", "~".repeat(10_000),);
        let err = parse(&deep_unary).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");

        // Reasonable nesting stays well inside the cap.
        let fine = format!(
            "control C(inout bit<8> x) {{ apply {{ x = {}x{}; }} }}",
            "(".repeat(50),
            ")".repeat(50),
        );
        parse_ok(&fine);
    }

    #[test]
    fn error_reports_unexpected_token() {
        let err = parse("header H { bit<8> }").unwrap_err();
        assert!(err.to_string().contains("identifier"), "{err}");
    }

    #[test]
    fn if_else_chains() {
        let src = r#"
            control C(inout bit<8> x) {
                apply {
                    if (x == 0) { x = 1; }
                    else if (x == 1) { x = 2; }
                    else { exit; }
                    return;
                }
            }
        "#;
        let p = parse_ok(src);
        let c = p.controls().next().unwrap();
        assert_eq!(c.apply.len(), 2);
        let StmtKind::If(_, _, Some(els)) = &c.apply[0].kind else { panic!() };
        assert!(matches!(els.kind, StmtKind::If(..)));
    }

    #[test]
    fn pretty_parse_roundtrip() {
        let src = r#"
            header h_t { <bit<8>, high> s; bit<8> p; }
            control C(inout h_t h) {
                bit<8> tmp = 8w3;
                action a(in <bit<8>, high> v) { h.s = v; }
                table t {
                    key = { h.p: exact; }
                    actions = { a(tmp); }
                }
                apply {
                    if (h.p == 8w0) { t.apply(); } else { h.p = h.p + 8w1; }
                }
            }
        "#;
        let p1 = parse_ok(src);
        let printed = pretty::program(&p1);
        let p2 = parse_ok(&printed);
        let printed2 = pretty::program(&p2);
        assert_eq!(printed, printed2, "pretty ∘ parse should be idempotent");
    }
}
