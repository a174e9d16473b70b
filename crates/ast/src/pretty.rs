//! Pretty-printer for surface programs.
//!
//! Emits the same annotated-P4 concrete syntax the parser accepts, so that
//! `parse ∘ pretty` is the identity up to spans. Used by the synthetic
//! program generator and by round-trip tests.

use crate::span::Spanned;
use crate::surface::*;

/// Pretty-prints a whole program.
#[must_use]
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    let mut pr = Printer::new(&mut out);
    for item in &p.items {
        pr.item(item);
        pr.newline();
    }
    out
}

/// Pretty-prints a single expression (mainly for diagnostics).
#[must_use]
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    let mut pr = Printer::new(&mut out);
    pr.expr(e);
    out
}

struct Printer<'a> {
    out: &'a mut String,
    indent: usize,
}

impl<'a> Printer<'a> {
    fn new(out: &'a mut String) -> Self {
        Printer { out, indent: 0 }
    }

    fn write(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Type(t) => self.type_decl(t),
            Item::Lattice(l) => self.lattice_decl(l),
            Item::Function(f) => self.function_decl(f),
            Item::Action(a) => self.action_decl(a),
            Item::Control(c) => self.control_decl(c),
        }
    }

    fn lattice_decl(&mut self, l: &LatticeDecl) {
        self.write("lattice {");
        self.indent += 1;
        for (lo, hi) in &l.order {
            self.newline();
            self.write(&format!("{} < {};", lo.node, hi.node));
        }
        self.indent -= 1;
        self.newline();
        self.write("}");
        self.newline();
    }

    fn type_decl(&mut self, t: &TypeDecl) {
        match t {
            TypeDecl::Typedef { ty, name } => {
                self.write("typedef ");
                self.ann_type(ty);
                self.write(&format!(" {};", name.node));
                self.newline();
            }
            TypeDecl::Header { name, fields } => {
                self.write(&format!("header {} {{", name.node));
                self.fields(fields);
                self.write("}");
                self.newline();
            }
            TypeDecl::Struct { name, fields } => {
                self.write(&format!("struct {} {{", name.node));
                self.fields(fields);
                self.write("}");
                self.newline();
            }
            TypeDecl::MatchKind { kinds } => {
                self.write("match_kind { ");
                for (i, k) in kinds.iter().enumerate() {
                    if i > 0 {
                        self.write(", ");
                    }
                    self.write(&k.node);
                }
                self.write(" }");
                self.newline();
            }
        }
    }

    fn fields(&mut self, fields: &[(Spanned<String>, AnnType)]) {
        self.indent += 1;
        for (name, ty) in fields {
            self.newline();
            self.ann_type(ty);
            self.write(&format!(" {};", name.node));
        }
        self.indent -= 1;
        self.newline();
    }

    fn ann_type(&mut self, t: &AnnType) {
        match &t.label {
            Some(l) => self.write(&format!("<{}, {}>", t.ty, l.node)),
            None => self.write(&t.ty.to_string()),
        }
    }

    fn params(&mut self, params: &[Param]) {
        self.write("(");
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.write(", ");
            }
            if let Some(d) = p.direction {
                self.write(&format!("{d} "));
            }
            self.ann_type(&p.ty);
            self.write(&format!(" {}", p.name.node));
        }
        self.write(")");
    }

    fn action_decl(&mut self, a: &ActionDecl) {
        self.write(&format!("action {}", a.name.node));
        self.params(&a.params);
        self.block(&a.body);
        self.newline();
    }

    fn function_decl(&mut self, f: &FunctionDecl) {
        self.write("function ");
        self.ann_type(&f.ret);
        self.write(&format!(" {}", f.name.node));
        self.params(&f.params);
        self.block(&f.body);
        self.newline();
    }

    fn control_decl(&mut self, c: &ControlDecl) {
        if let Some(pc) = &c.pc {
            self.write(&format!("@pc({}) ", pc.node));
        }
        self.write(&format!("control {}", c.name.node));
        self.params(&c.params);
        self.write(" {");
        self.indent += 1;
        for d in &c.decls {
            self.newline();
            self.ctrl_decl(d);
        }
        self.newline();
        self.write("apply");
        self.block(&c.apply);
        self.indent -= 1;
        self.newline();
        self.write("}");
        self.newline();
    }

    fn ctrl_decl(&mut self, d: &CtrlDecl) {
        match d {
            CtrlDecl::Var(v) => self.var_decl(v),
            CtrlDecl::Action(a) => self.action_decl(a),
            CtrlDecl::Function(f) => self.function_decl(f),
            CtrlDecl::Table(t) => self.table_decl(t),
        }
    }

    fn table_decl(&mut self, t: &TableDecl) {
        self.write(&format!("table {} {{", t.name.node));
        self.indent += 1;
        if !t.keys.is_empty() {
            self.newline();
            self.write("key = { ");
            for (i, k) in t.keys.iter().enumerate() {
                if i > 0 {
                    self.write(" ");
                }
                self.expr(&k.expr);
                self.write(&format!(": {};", k.match_kind.node));
            }
            self.write(" }");
        }
        self.newline();
        self.write("actions = { ");
        for (i, a) in t.actions.iter().enumerate() {
            if i > 0 {
                self.write(" ");
            }
            self.write(&a.name.node);
            if !a.args.is_empty() {
                self.write("(");
                for (j, arg) in a.args.iter().enumerate() {
                    if j > 0 {
                        self.write(", ");
                    }
                    self.expr(arg);
                }
                self.write(")");
            }
            self.write(";");
        }
        self.write(" }");
        if let Some(d) = &t.default_action {
            self.newline();
            self.write(&format!("default_action = {};", d.node));
        }
        self.indent -= 1;
        self.newline();
        self.write("}");
        self.newline();
    }

    fn var_decl(&mut self, v: &VarDecl) {
        self.ann_type(&v.ty);
        self.write(&format!(" {}", v.name.node));
        if let Some(init) = &v.init {
            self.write(" = ");
            self.expr(init);
        }
        self.write(";");
    }

    fn block(&mut self, stmts: &[Stmt]) {
        self.write(" {");
        self.indent += 1;
        for s in stmts {
            self.newline();
            self.stmt(s);
        }
        self.indent -= 1;
        self.newline();
        self.write("}");
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Call(e) => {
                // Re-sugar zero-argument calls on table names as `.apply()`:
                // the parser accepts both, but `t.apply()` is idiomatic P4.
                self.expr(e);
                self.write(";");
            }
            StmtKind::Assign(lhs, rhs) => {
                self.expr(lhs);
                self.write(" = ");
                self.expr(rhs);
                self.write(";");
            }
            StmtKind::If(c, t, e) => {
                self.write("if (");
                self.expr(c);
                self.write(") ");
                self.stmt_as_block(t);
                if let Some(e) = e {
                    self.write(" else ");
                    self.stmt_as_block(e);
                }
            }
            StmtKind::Block(ss) => {
                self.write("{");
                self.indent += 1;
                for s in ss {
                    self.newline();
                    self.stmt(s);
                }
                self.indent -= 1;
                self.newline();
                self.write("}");
            }
            StmtKind::Exit => self.write("exit;"),
            StmtKind::Return(None) => self.write("return;"),
            StmtKind::Return(Some(e)) => {
                self.write("return ");
                self.expr(e);
                self.write(";");
            }
            StmtKind::VarDecl(v) => self.var_decl(v),
        }
    }

    fn stmt_as_block(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block(_) => self.stmt(s),
            _ => {
                self.write("{");
                self.indent += 1;
                self.newline();
                self.stmt(s);
                self.indent -= 1;
                self.newline();
                self.write("}");
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Bool(b) => self.write(if *b { "true" } else { "false" }),
            ExprKind::Int { value, width } => match width {
                Some(w) => self.write(&format!("{w}w{value}")),
                None => self.write(&value.to_string()),
            },
            ExprKind::Var(x) => self.write(x),
            ExprKind::Index(a, i) => {
                self.atom(a);
                self.write("[");
                self.expr(i);
                self.write("]");
            }
            ExprKind::Binary(op, a, b) => {
                self.atom(a);
                self.write(&format!(" {op} "));
                self.atom(b);
            }
            ExprKind::Unary(op, a) => {
                self.write(&op.to_string());
                self.atom(a);
            }
            ExprKind::Record(fields) => {
                self.write("{ ");
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.write(", ");
                    }
                    self.write(&format!("{} = ", n.node));
                    self.expr(v);
                }
                self.write(" }");
            }
            ExprKind::Field(a, f) => {
                self.atom(a);
                self.write(&format!(".{}", f.node));
            }
            ExprKind::Call(f, args) => {
                self.atom(f);
                self.write("(");
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.write(", ");
                    }
                    self.expr(a);
                }
                self.write(")");
            }
        }
    }

    /// Prints an expression, parenthesizing compound forms so the output
    /// never depends on precedence subtleties.
    fn atom(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Binary(..) | ExprKind::Unary(..) => {
                self.write("(");
                self.expr(e);
                self.write(")");
            }
            _ => self.expr(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, Spanned};

    fn sp() -> Span {
        Span::dummy()
    }

    fn s(n: &str) -> Spanned<String> {
        Spanned::new(n.to_string(), sp())
    }

    #[test]
    fn expr_printing() {
        let e = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::var("x", sp())),
                Box::new(Expr::new(ExprKind::Int { value: 5, width: Some(8) }, sp())),
            ),
            sp(),
        );
        assert_eq!(expr_to_string(&e), "x + 8w5");
    }

    #[test]
    fn nested_exprs_parenthesized() {
        let inner = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::var("a", sp())),
                Box::new(Expr::var("b", sp())),
            ),
            sp(),
        );
        let outer = Expr::new(
            ExprKind::Binary(BinOp::Mul, Box::new(inner), Box::new(Expr::var("c", sp()))),
            sp(),
        );
        assert_eq!(expr_to_string(&outer), "(a + b) * c");
    }

    #[test]
    fn stmt_printing() {
        let st = Stmt::new(
            StmtKind::Assign(
                Expr::new(ExprKind::Field(Box::new(Expr::var("hdr", sp())), s("ttl")), sp()),
                Expr::new(ExprKind::Int { value: 64, width: None }, sp()),
            ),
            sp(),
        );
        let mut out = String::new();
        Printer::new(&mut out).stmt(&st);
        assert_eq!(out, "hdr.ttl = 64;");
    }

    #[test]
    fn header_printing() {
        let mut p = Program::default();
        p.items.push(Item::Type(TypeDecl::Header {
            name: s("ipv4_t"),
            fields: vec![(
                s("ttl"),
                AnnType { ty: TypeExpr::Bit(8), label: Some(s("high")), span: sp() },
            )],
        }));
        let out = program(&p);
        assert!(out.contains("header ipv4_t {"), "got: {out}");
        assert!(out.contains("<bit<8>, high> ttl;"), "got: {out}");
    }

    #[test]
    fn record_and_call_printing() {
        let rec = Expr::new(
            ExprKind::Record(vec![(s("f"), Expr::new(ExprKind::Bool(true), sp()))]),
            sp(),
        );
        assert_eq!(expr_to_string(&rec), "{ f = true }");
        let call = Expr::new(
            ExprKind::Call(Box::new(Expr::var("act", sp())), vec![Expr::var("x", sp())]),
            sp(),
        );
        assert_eq!(expr_to_string(&call), "act(x)");
    }
}
