//! Typing contexts: the type-definition context Δ and the typing context Γ.
//!
//! Δ ([`TypeDefs`]) maps type names (typedefs, headers, structs) to resolved
//! security types and implements the unfolding judgement `Δ ⊢ τ ⇝ τ'`
//! together with label resolution. Γ ([`ScopedEnv`]) maps variables to their
//! security types plus a writability flag (the algorithmic residue of the
//! `goes in / goes inout` direction annotation on T-Var).
//!
//! Both contexts are keyed by interned [`Symbol`]s and backed by
//! `Vec`-indexed tables, so the hot path of the checker (declare/lookup on
//! every expression) costs an array index instead of a `String`-keyed
//! hash-map probe. Resolved types are hash-consed [`SecTy`] handles
//! (`Copy`), so a Γ entry is a few machine words and lookups copy instead
//! of cloning. Name-based entry points remain for cold callers (the
//! interpreter resolves the occasional annotation at runtime) and resolve
//! through a linear scan over the — always small — definition list.

use crate::diag::{DiagCode, Diagnostic};
use p4bid_ast::intern::{Interner, Symbol};
use p4bid_ast::pool::TyPool;
use p4bid_ast::sectype::{SecTy, TyId};
use p4bid_ast::span::Span;
use p4bid_ast::surface::{AnnType, TypeExpr};
use p4bid_lattice::{Label, Lattice};

/// Memoized security-label resolution: lattice element names interned once,
/// then resolved by symbol index.
///
/// [`Lattice::label`] is a linear scan over the element names; inside the
/// checker that scan would run once per annotation. This table interns every
/// element name up front so a label occurrence costs one interner probe and
/// one `Vec` index.
#[derive(Debug, Clone, Default)]
pub struct LabelTable {
    by_sym: Vec<Option<Label>>,
}

impl LabelTable {
    /// Builds the table for a lattice, interning every element name.
    #[must_use]
    pub fn new(lat: &Lattice, syms: &mut Interner) -> Self {
        let mut by_sym = Vec::new();
        for label in lat.labels() {
            let sym = syms.intern(lat.name(label));
            if by_sym.len() <= sym.index() {
                by_sym.resize(sym.index() + 1, None);
            }
            by_sym[sym.index()] = Some(label);
        }
        LabelTable { by_sym }
    }

    /// The label an interned symbol names, if any.
    #[must_use]
    pub fn get(&self, sym: Symbol) -> Option<Label> {
        self.by_sym.get(sym.index()).copied().flatten()
    }

    /// Resolves a label by name via an interner probe (never allocates:
    /// a name that was never interned cannot be a lattice element).
    #[must_use]
    pub fn resolve(&self, name: &str, syms: &Interner) -> Option<Label> {
        syms.lookup(name).and_then(|s| self.get(s))
    }
}

/// The type-definition context Δ plus the declared match kinds.
#[derive(Debug, Clone, Default)]
pub struct TypeDefs {
    /// Definitions in declaration order; names kept for the name-based
    /// (cold) lookup path and for diagnostics.
    entries: Vec<(String, SecTy)>,
    /// `by_sym[sym] = index into entries`.
    by_sym: Vec<Option<u32>>,
    match_kinds: Vec<Symbol>,
}

impl TypeDefs {
    /// An empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named type (typedef / header / struct) under its
    /// interned symbol.
    ///
    /// Returns `false` (and leaves the old definition) if the name was
    /// already defined.
    pub fn define(&mut self, sym: Symbol, name: &str, ty: SecTy) -> bool {
        if self.by_sym.len() <= sym.index() {
            self.by_sym.resize(sym.index() + 1, None);
        }
        if self.by_sym[sym.index()].is_some() {
            return false;
        }
        self.by_sym[sym.index()] = Some(self.entries.len() as u32);
        self.entries.push((name.to_string(), ty));
        true
    }

    /// Looks up a named type by symbol (the checker's fast path).
    #[must_use]
    pub fn lookup(&self, sym: Symbol) -> Option<SecTy> {
        let ix = self.by_sym.get(sym.index()).copied().flatten()?;
        Some(self.entries[ix as usize].1)
    }

    /// Looks up a named type by name (cold path: linear scan).
    #[must_use]
    pub fn lookup_name(&self, name: &str) -> Option<SecTy> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }

    /// Registers a match kind (from a `match_kind { … }` declaration).
    pub fn add_match_kind(&mut self, sym: Symbol) {
        if !self.match_kinds.contains(&sym) {
            self.match_kinds.push(sym);
        }
    }

    /// Whether `sym` names a declared match kind.
    #[must_use]
    pub fn is_match_kind(&self, sym: Symbol) -> bool {
        self.match_kinds.contains(&sym)
    }

    /// Whether every handle in Δ lies below the given tier boundaries —
    /// i.e. the table references only entities of the shared frozen
    /// segment, making it valid in (and publishable to) any session
    /// layered over the same base. Pass `usize::MAX` boundaries for
    /// root-tier sessions, whose handles are only session-local anyway.
    #[must_use]
    pub fn within_tiers(&self, max_sym: usize, max_ty: usize) -> bool {
        self.entries.iter().all(|(_, t)| t.ty.index() < max_ty)
            && self.match_kinds.iter().all(|s| s.index() < max_sym)
            && self.by_sym.iter().enumerate().all(|(ix, e)| e.is_none() || ix < max_sym)
    }

    /// Resolves a surface type annotation to a security type:
    /// `Δ ⊢ τ ⇝ τ'` plus label-name resolution, constructing any new
    /// structural nodes through the pool.
    ///
    /// Labels on *base* types become the outer label. A label on a
    /// compound type (e.g. `<alice_t, A>` in Listing 6, where `alice_t` is
    /// a header) is *pushed down*: it is joined onto every nested base-field
    /// label, and the compound keeps its `⊥` outer label as required by
    /// Figure 4.
    ///
    /// This is the name-based entry point (used by the interpreter for the
    /// occasional runtime annotation); the checker goes through
    /// [`resolve_interned`](Self::resolve_interned).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] on unknown type names or labels.
    pub fn resolve(
        &self,
        ann: &AnnType,
        lat: &Lattice,
        pool: &mut TyPool,
    ) -> Result<SecTy, Diagnostic> {
        self.resolve_via(ann, lat, pool, &|name| lat.label(name), &|defs, name| {
            defs.lookup_name(name)
        })
    }

    /// Resolves a surface type annotation through the interner: labels via
    /// the [`LabelTable`], type names via symbol probes. Semantics are
    /// identical to [`resolve`](Self::resolve).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] on unknown type names or labels.
    pub fn resolve_interned(
        &self,
        ann: &AnnType,
        lat: &Lattice,
        pool: &mut TyPool,
        labels: &LabelTable,
        syms: &Interner,
    ) -> Result<SecTy, Diagnostic> {
        self.resolve_via(ann, lat, pool, &|name| labels.resolve(name, syms), &|defs, name| {
            syms.lookup(name).and_then(|s| defs.lookup(s))
        })
    }

    fn resolve_via(
        &self,
        ann: &AnnType,
        lat: &Lattice,
        pool: &mut TyPool,
        label_of: &dyn Fn(&str) -> Option<Label>,
        type_of: &dyn Fn(&Self, &str) -> Option<SecTy>,
    ) -> Result<SecTy, Diagnostic> {
        let label = match &ann.label {
            None => lat.bottom(),
            Some(name) => label_of(&name.node).ok_or_else(|| {
                Diagnostic::new(
                    DiagCode::UnknownLabel,
                    format!("unknown security label `{}`; the active lattice is {lat}", name.node),
                    name.span,
                )
            })?,
        };
        let base = self.resolve_unlabeled(&ann.ty, ann.span, lat, pool, label_of, type_of)?;
        Ok(pool.push_label(base, label, lat))
    }

    /// Resolves the structural part, with `⊥` everywhere an annotation is
    /// absent.
    fn resolve_unlabeled(
        &self,
        ty: &TypeExpr,
        span: Span,
        lat: &Lattice,
        pool: &mut TyPool,
        label_of: &dyn Fn(&str) -> Option<Label>,
        type_of: &dyn Fn(&Self, &str) -> Option<SecTy>,
    ) -> Result<SecTy, Diagnostic> {
        let t = match ty {
            TypeExpr::Bool => SecTy::bottom(TyId::BOOL, lat),
            TypeExpr::Int => SecTy::bottom(TyId::INT, lat),
            TypeExpr::Bit(n) => SecTy::bottom(pool.bit(*n), lat),
            TypeExpr::Void => SecTy::bottom(TyId::UNIT, lat),
            TypeExpr::Named(name) => type_of(self, name).ok_or_else(|| {
                Diagnostic::new(DiagCode::UnknownType, format!("unknown type `{name}`"), span)
            })?,
            TypeExpr::Stack(elem, n) => {
                let elem = self.resolve_via(elem, lat, pool, label_of, type_of)?;
                SecTy::bottom(pool.stack(elem, *n), lat)
            }
        };
        Ok(t)
    }
}

/// One Γ entry: the variable's security type plus whether it may be
/// written (`goes inout`) or only read (`in` parameters, closures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarInfo {
    /// Resolved security type.
    pub ty: SecTy,
    /// Whether assignment to (any part of) the variable is allowed.
    pub writable: bool,
}

/// The typing context Γ, as a stack of lexical scopes.
///
/// Bindings live in `slots`, a `Vec` indexed by [`Symbol`]: each slot holds
/// the stack of live bindings for that name (outermost first), tagged with
/// the scope depth that introduced them. Lookup is an array index plus a
/// `last()`; opening a scope is a `Vec` push; closing one pops exactly the
/// symbols that scope declared.
#[derive(Debug, Clone)]
pub struct ScopedEnv {
    /// `slots[sym] = [(scope_depth, binding), …]`, innermost last.
    slots: Vec<Vec<(u32, VarInfo)>>,
    /// Per-scope undo log: the symbols each open scope declared.
    scopes: Vec<Vec<Symbol>>,
}

impl Default for ScopedEnv {
    fn default() -> Self {
        Self::new()
    }
}

impl ScopedEnv {
    /// An environment with a single (global) scope.
    #[must_use]
    pub fn new() -> Self {
        ScopedEnv { slots: Vec::new(), scopes: vec![Vec::new()] }
    }

    /// Opens a nested scope.
    pub fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    /// Closes the innermost scope, dropping its bindings.
    ///
    /// # Panics
    ///
    /// Panics if only the global scope remains (checker bug).
    pub fn pop_scope(&mut self) {
        assert!(self.scopes.len() > 1, "cannot pop the global scope");
        let declared = self.scopes.pop().expect("non-empty scope stack");
        for sym in declared {
            self.slots[sym.index()].pop();
        }
    }

    /// Declares a variable in the innermost scope. Shadowing an outer
    /// binding is allowed (Core P4 declarations extend ε); redeclaring
    /// within the *same* scope returns `false`.
    pub fn declare(&mut self, sym: Symbol, info: VarInfo) -> bool {
        if self.slots.len() <= sym.index() {
            self.slots.resize_with(sym.index() + 1, Vec::new);
        }
        let depth = (self.scopes.len() - 1) as u32;
        let stack = &mut self.slots[sym.index()];
        if stack.last().is_some_and(|(d, _)| *d == depth) {
            return false;
        }
        stack.push((depth, info));
        self.scopes.last_mut().expect("at least the global scope").push(sym);
        true
    }

    /// Looks a symbol up: the innermost live binding, if any.
    #[must_use]
    pub fn lookup(&self, sym: Symbol) -> Option<VarInfo> {
        self.slots.get(sym.index())?.last().map(|&(_, info)| info)
    }

    /// Runs `f` inside a fresh scope.
    pub fn scoped<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope();
        let r = f(self);
        self.pop_scope();
        r
    }

    /// Whether only the global scope is live and every binding's symbol
    /// index and type id lie below the given tier boundaries (see
    /// [`TypeDefs::within_tiers`]). At item boundaries the checker has
    /// popped every nested scope, so the first conjunct always holds for
    /// a checked-prelude state — it is asserted, not assumed.
    #[must_use]
    pub fn within_tiers(&self, max_sym: usize, max_ty: usize) -> bool {
        self.scopes.len() == 1
            && self.slots.iter().enumerate().all(|(ix, stack)| {
                stack.is_empty()
                    || (ix < max_sym && stack.iter().all(|(_, v)| v.ty.ty.index() < max_ty))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_ast::sectype::{FieldList, Ty};
    use p4bid_ast::span::Spanned;

    fn ann(ty: TypeExpr, label: Option<&str>) -> AnnType {
        AnnType {
            ty,
            label: label.map(|l| Spanned::new(l.to_string(), Span::dummy())),
            span: Span::dummy(),
        }
    }

    #[test]
    fn resolve_base_types() {
        let lat = Lattice::two_point();
        let mut pool = TyPool::new();
        let defs = TypeDefs::new();
        let t = defs.resolve(&ann(TypeExpr::Bit(8), Some("high")), &lat, &mut pool).unwrap();
        assert_eq!(t, SecTy::new(pool.bit(8), lat.top()));
        let t = defs.resolve(&ann(TypeExpr::Bool, None), &lat, &mut pool).unwrap();
        assert_eq!(t, SecTy::bottom(TyId::BOOL, &lat));
    }

    #[test]
    fn resolve_interned_matches_name_based() {
        let lat = Lattice::diamond();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let labels = LabelTable::new(&lat, &mut syms);
        let mut defs = TypeDefs::new();
        let h = syms.intern("h_t");
        let bit16 = pool.bit(16);
        defs.define(h, "h_t", SecTy::bottom(bit16, &lat));
        for a in [
            ann(TypeExpr::Bit(8), Some("A")),
            ann(TypeExpr::Named("h_t".into()), Some("B")),
            ann(TypeExpr::Bool, None),
        ] {
            let by_name = defs.resolve(&a, &lat, &mut pool).unwrap();
            let by_sym = defs.resolve_interned(&a, &lat, &mut pool, &labels, &syms).unwrap();
            assert_eq!(by_name, by_sym);
        }
    }

    #[test]
    fn resolve_unknown_label() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let labels = LabelTable::new(&lat, &mut syms);
        let defs = TypeDefs::new();
        let a = ann(TypeExpr::Bit(8), Some("secret"));
        let err = defs.resolve(&a, &lat, &mut pool).unwrap_err();
        assert_eq!(err.code, DiagCode::UnknownLabel);
        assert!(err.message.contains("secret"));
        let err = defs.resolve_interned(&a, &lat, &mut pool, &labels, &syms).unwrap_err();
        assert_eq!(err.code, DiagCode::UnknownLabel);
    }

    #[test]
    fn resolve_unknown_type() {
        let lat = Lattice::two_point();
        let mut pool = TyPool::new();
        let defs = TypeDefs::new();
        let err = defs
            .resolve(&ann(TypeExpr::Named("ipv4_t".into()), None), &lat, &mut pool)
            .unwrap_err();
        assert_eq!(err.code, DiagCode::UnknownType);
    }

    #[test]
    fn labels_push_into_compounds() {
        let lat = Lattice::diamond();
        let a = lat.label("A").unwrap();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let mut defs = TypeDefs::new();
        let x = syms.intern("x");
        let y = syms.intern("y");
        let bit8 = pool.bit(8);
        let hdr_ty = pool.header(FieldList::new(vec![
            (x, SecTy::bottom(bit8, &lat)),
            (y, SecTy::new(bit8, lat.label("B").unwrap())),
        ]));
        let alice = syms.intern("alice_t");
        defs.define(alice, "alice_t", SecTy::bottom(hdr_ty, &lat));
        let t = defs
            .resolve(&ann(TypeExpr::Named("alice_t".into()), Some("A")), &lat, &mut pool)
            .unwrap();
        // Outer label stays ⊥, fields get joined with A.
        assert_eq!(t.label, lat.bottom());
        let fields = pool.fields(t.ty).unwrap().as_slice().to_vec();
        assert_eq!(fields[0].1.label, a);
        assert_eq!(fields[1].1.label, lat.top(), "B ⊔ A = ⊤");
    }

    #[test]
    fn stack_resolution() {
        let lat = Lattice::two_point();
        let mut pool = TyPool::new();
        let defs = TypeDefs::new();
        let elem = ann(TypeExpr::Bit(8), Some("high"));
        let stack =
            AnnType { ty: TypeExpr::Stack(Box::new(elem), 4), label: None, span: Span::dummy() };
        let t = defs.resolve(&stack, &lat, &mut pool).unwrap();
        let Ty::Stack(e, 4) = pool.kind(t.ty) else { panic!("{t:?}") };
        assert_eq!(e.label, lat.top());
        assert_eq!(t.label, lat.bottom());
    }

    #[test]
    fn define_rejects_duplicates() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut defs = TypeDefs::new();
        let t = syms.intern("t");
        assert!(defs.define(t, "t", SecTy::bottom(TyId::BOOL, &lat)));
        assert!(!defs.define(t, "t", SecTy::bottom(TyId::INT, &lat)));
        assert_eq!(defs.lookup(t).unwrap().ty, TyId::BOOL);
        assert_eq!(defs.lookup_name("t").unwrap().ty, TyId::BOOL);
    }

    #[test]
    fn match_kinds() {
        let mut syms = Interner::new();
        let mut defs = TypeDefs::new();
        let exact = syms.intern("exact");
        assert!(!defs.is_match_kind(exact));
        defs.add_match_kind(exact);
        defs.add_match_kind(exact);
        assert!(defs.is_match_kind(exact));
    }

    #[test]
    fn label_table_resolves_every_element() {
        let lat = Lattice::diamond();
        let mut syms = Interner::new();
        let labels = LabelTable::new(&lat, &mut syms);
        for l in lat.labels() {
            assert_eq!(labels.resolve(lat.name(l), &syms), Some(l));
        }
        assert_eq!(labels.resolve("nosuch", &syms), None);
    }

    #[test]
    fn scoped_env_shadowing() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut env = ScopedEnv::new();
        let x = syms.intern("x");
        let y = syms.intern("y");
        let low = VarInfo { ty: SecTy::bottom(TyId::BOOL, &lat), writable: true };
        let high = VarInfo { ty: SecTy::new(TyId::BOOL, lat.top()), writable: false };
        assert!(env.declare(x, low));
        assert!(!env.declare(x, high), "same-scope redeclaration rejected");
        env.scoped(|env| {
            assert!(env.declare(x, high), "shadowing in inner scope allowed");
            assert_eq!(env.lookup(x).unwrap().ty.label, lat.top());
        });
        assert_eq!(env.lookup(x).unwrap().ty.label, lat.bottom());
        assert!(env.lookup(y).is_none());
    }

    #[test]
    fn pop_scope_only_drops_that_scopes_bindings() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut env = ScopedEnv::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let info = VarInfo { ty: SecTy::bottom(TyId::BOOL, &lat), writable: true };
        env.declare(a, info);
        env.push_scope();
        env.declare(b, info);
        env.push_scope();
        env.declare(a, VarInfo { ty: SecTy::new(TyId::BOOL, lat.top()), writable: false });
        assert!(!env.lookup(a).unwrap().writable);
        env.pop_scope();
        assert!(env.lookup(a).unwrap().writable, "outer binding restored");
        assert!(env.lookup(b).is_some());
        env.pop_scope();
        assert!(env.lookup(b).is_none());
    }
}
