//! The hash-consing type pool: structurally equal security types are
//! allocated once and compared by id — with an immutable, shareable
//! *frozen* tier for cross-worker reuse.
//!
//! Every resolved structural type [`Ty`] the checker or interpreter
//! constructs goes through [`TyPool::intern`], which returns a copyable
//! [`TyId`] handle. Children of compound types are themselves pooled
//! (`Record`/`Header` fields and `Stack` elements hold `SecTy = (TyId,
//! Label)` pairs), so interning is bottom-up and the pool maintains the
//! invariant:
//!
//! > within one pool, `a == b` (as [`TyId`]s) **iff** the denoted types are
//! > structurally equal.
//!
//! That turns the τ-equality side conditions of T-Assign / T-Call — deep
//! recursive walks in the naive representation — into id comparisons on the
//! hot path, with a slow path only for the `int` ↔ `bit<n>` literal
//! coercion (which genuinely relates *distinct* types).
//!
//! The pool comes in **two tiers**: a root-tier [`TyPool`] can be
//! [`freeze`](TyPool::freeze)d into an immutable, `Send + Sync`
//! [`FrozenPool`] that many worker threads share via `Arc`, each layering a
//! private overlay pool on top ([`TyPool::with_base`]). Overlay ids carry
//! the [`TIER_BIT`]; their
//! [`index`](TyId::index) continues after the frozen segment, so ids stay
//! globally dense and id equality stays O(1) across tiers (a frozen and an
//! overlay id are never equal, and structurally equal types interned
//! through one pool always resolve to one id, frozen tier first).
//!
//! A frozen segment grows by *refreezing* ([`FrozenTyCtx::refreeze`]): the
//! names, types and push-memo entries workers interned in their overlays
//! are merged into a new segment that keeps every old frozen id. That is
//! all a refreeze promotes; state holding overlay ids is rebuilt over the
//! new segment, never translated.
//!
//! A [`TyCtx`] bundles the pool with the string [`Interner`] whose
//! [`Symbol`]s key record/header fields; checker sessions share one
//! `TyCtx` across every program they check (via [`SharedTyCtx`]), so
//! prelude types are pooled exactly once per session — and, after
//! [`TyCtx::freeze`], exactly once per *fleet* of sessions.
//!
//! # Examples
//!
//! ```
//! use p4bid_ast::pool::TyPool;
//! use p4bid_ast::sectype::{FieldList, SecTy, TyId};
//! use p4bid_lattice::Lattice;
//!
//! let lat = Lattice::two_point();
//! let mut pool = TyPool::new();
//! let bit8 = pool.bit(8);
//! let mut syms = p4bid_ast::intern::Interner::new();
//! let ttl = syms.intern("ttl");
//! let h1 = pool.header(FieldList::new(vec![(ttl, SecTy::bottom(bit8, &lat))]));
//! let h2 = pool.header(FieldList::new(vec![(ttl, SecTy::bottom(bit8, &lat))]));
//! assert_eq!(h1, h2, "hash-consed: one allocation, O(1) equality");
//! assert_ne!(h1, TyId::BOOL);
//!
//! // Freeze the pool; overlays resolve frozen types without re-interning.
//! let frozen = std::sync::Arc::new(pool.freeze());
//! let mut overlay = TyPool::with_base(std::sync::Arc::clone(&frozen));
//! let h3 = overlay.header(FieldList::new(vec![(ttl, SecTy::bottom(bit8, &lat))]));
//! assert_eq!(h3, h1, "frozen types keep their ids in every overlay");
//! ```

use crate::intern::{FrozenInterner, Interner, Symbol};
use crate::sectype::{FieldList, FnParam, FnTy, SecTy, Ty, TyId, TIER_BIT};
use p4bid_lattice::{Label, Lattice};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// An immutable, `Send + Sync` pool segment produced by [`TyPool::freeze`].
///
/// Shared across worker threads via `Arc`; workers extend it through
/// private [`TyPool`] overlays. Also carries the frozen part of the
/// label-push memo table so annotated compound types resolved while
/// warming the segment stay O(1) for every worker.
#[derive(Debug)]
pub struct FrozenPool {
    nodes: Vec<Ty>,
    map: HashMap<Ty, TyId>,
    /// Lattices the push memo was warmed under; memo keys carry an index
    /// into this registry (labels are lattice-relative, see
    /// [`TyPool::push_label`]).
    lattices: Vec<Lattice>,
    push_cache: HashMap<(u32, TyId, Label), TyId>,
}

impl FrozenPool {
    /// The structural node a frozen id stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a frozen-tier id of this segment.
    #[must_use]
    pub fn kind(&self, id: TyId) -> &Ty {
        &self.nodes[id.index()]
    }

    /// Number of types in the frozen segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the segment is empty (never true for segments frozen from
    /// [`TyPool::new`], which pre-interns the primitives).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Thaws the frozen segment back into a mutable *root-tier* pool with
    /// every id preserved: the thawed pool resolves exactly the ids this
    /// segment handed out, and new nodes continue the dense index sequence
    /// without a tier bit. The hash-cons map, lattice registry, and push
    /// memo all carry over. Cheap — compound nodes are `Arc`-backed, so
    /// the tables clone by refcount.
    ///
    /// First half of a *refreeze* (see [`FrozenTyCtx::refreeze`]): thaw,
    /// absorb per-worker overlay tables, freeze again into a fatter root.
    #[must_use]
    pub fn thaw(&self) -> TyPool {
        TyPool {
            base: None,
            base_len: 0,
            nodes: self.nodes.clone(),
            map: self.map.clone(),
            lattices: self.lattices.clone(),
            push_cache: self.push_cache.clone(),
            frozen_hits: 0,
            intern_calls: 0,
            push_hits: 0,
        }
    }
}

/// A hash-consing pool of structural type nodes.
///
/// Append-only: ids stay valid for the lifetime of the pool, so snapshots
/// (e.g. a checker session's per-lattice prelude state) can hold plain
/// [`TyId`]s across later interning. Optionally layered over a shared
/// immutable [`FrozenPool`] base segment (see
/// [`with_base`](TyPool::with_base)): interning probes the frozen map
/// first, and only genuinely new types grow the private overlay.
#[derive(Debug, Clone)]
pub struct TyPool {
    /// The shared immutable base segment, if any.
    base: Option<Arc<FrozenPool>>,
    /// `base.len()`, cached (0 without a base).
    base_len: u32,
    /// Overlay nodes; global index = `base_len + local index`.
    nodes: Vec<Ty>,
    map: HashMap<Ty, TyId>,
    /// Lattices the overlay push memo was warmed under (memo keys index
    /// into this registry — labels are lattice-relative, and one pool
    /// serves programs under many lattices).
    lattices: Vec<Lattice>,
    /// Label-push memo: `(lattice, compound id, pushed label) → pushed
    /// compound id` (overlay part; the frozen part lives in the base
    /// segment, keyed by the base's own lattice registry).
    push_cache: HashMap<(u32, TyId, Label), TyId>,
    /// `intern` calls answered by the frozen segment.
    frozen_hits: u64,
    /// Total `intern` calls.
    intern_calls: u64,
    /// `push_label` calls answered by either memo tier.
    push_hits: u64,
}

impl Default for TyPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TyPool {
    /// A root-tier pool with the label-free primitives pre-interned at
    /// their fixed ids ([`TyId::BOOL`], [`TyId::INT`], [`TyId::UNIT`],
    /// [`TyId::MATCH_KIND`]).
    #[must_use]
    pub fn new() -> Self {
        let mut pool = TyPool {
            base: None,
            base_len: 0,
            nodes: Vec::new(),
            map: HashMap::new(),
            lattices: Vec::new(),
            push_cache: HashMap::new(),
            frozen_hits: 0,
            intern_calls: 0,
            push_hits: 0,
        };
        assert_eq!(pool.intern(Ty::Bool), TyId::BOOL);
        assert_eq!(pool.intern(Ty::Int), TyId::INT);
        assert_eq!(pool.intern(Ty::Unit), TyId::UNIT);
        assert_eq!(pool.intern(Ty::MatchKind), TyId::MATCH_KIND);
        pool
    }

    /// A pool layered over a frozen base segment: types already in the
    /// base resolve to their frozen ids (the fixed primitive ids included,
    /// since every root-tier pool pre-interns them); new types go into a
    /// private overlay whose ids carry the tier bit.
    #[must_use]
    pub fn with_base(base: Arc<FrozenPool>) -> Self {
        let base_len = u32::try_from(base.len()).expect("frozen pool fits u32");
        debug_assert_eq!(base.kind(TyId::BOOL), &Ty::Bool, "base was frozen from TyPool::new");
        TyPool {
            base_len,
            base: Some(base),
            nodes: Vec::new(),
            map: HashMap::new(),
            lattices: Vec::new(),
            push_cache: HashMap::new(),
            frozen_hits: 0,
            intern_calls: 0,
            push_hits: 0,
        }
    }

    /// Interns a structural node, returning its id. Idempotent: equal
    /// nodes (whose children were interned in this pool) share one id,
    /// with frozen-tier ids winning when the node is in the base segment.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX / 2` distinct types are interned
    /// (unreachable for real programs).
    pub fn intern(&mut self, ty: Ty) -> TyId {
        self.intern_calls += 1;
        if let Some(base) = &self.base {
            if let Some(&id) = base.map.get(&ty) {
                self.frozen_hits += 1;
                return id;
            }
        }
        if let Some(&id) = self.map.get(&ty) {
            return id;
        }
        let local = u32::try_from(self.nodes.len()).expect("type pool overflow");
        let ix = self.base_len.checked_add(local).expect("type pool overflow");
        assert!(ix < TIER_BIT, "type pool overflow");
        let raw = if self.base.is_some() { ix | TIER_BIT } else { ix };
        let id = TyId(raw);
        self.nodes.push(ty.clone());
        self.map.insert(ty, id);
        id
    }

    /// The structural node an id stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different pool and is out of range.
    #[must_use]
    pub fn kind(&self, id: TyId) -> &Ty {
        let ix = id.index();
        match &self.base {
            Some(base) if ix < self.base_len as usize => base.kind(id),
            _ => &self.nodes[ix - self.base_len as usize],
        }
    }

    /// Number of distinct pooled types across both tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base_len as usize + self.nodes.len()
    }

    /// Whether no types are pooled in either tier. Never true in practice
    /// (`new` pre-interns four nodes); provided for API symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes a root-tier pool into an immutable, shareable segment,
    /// carrying the hash-cons map and the label-push memo along.
    /// Zero-copy: the node tables move, nothing is re-hashed.
    ///
    /// # Panics
    ///
    /// Panics if this pool is itself an overlay over a frozen base (tiers
    /// do not stack).
    #[must_use]
    pub fn freeze(self) -> FrozenPool {
        assert!(self.base.is_none(), "cannot freeze an overlay pool (tiers do not stack)");
        FrozenPool {
            nodes: self.nodes,
            map: self.map,
            lattices: self.lattices,
            push_cache: self.push_cache,
        }
    }

    /// `(frozen segment size, overlay size)` of this pool.
    #[must_use]
    pub fn tier_sizes(&self) -> (usize, usize) {
        (self.base_len as usize, self.nodes.len())
    }

    /// `(intern calls answered by the frozen segment, total intern calls)`
    /// since construction.
    #[must_use]
    pub fn frozen_hit_stats(&self) -> (u64, u64) {
        (self.frozen_hits, self.intern_calls)
    }

    /// Number of [`push_label`](TyPool::push_label) calls answered by the
    /// `(TyId, Label)` memo (either tier) since construction.
    #[must_use]
    pub fn push_cache_hits(&self) -> u64 {
        self.push_hits
    }

    // ------------------------------------------------------------------
    // Construction shorthands
    // ------------------------------------------------------------------

    /// Interns `bit<width>`.
    pub fn bit(&mut self, width: u16) -> TyId {
        self.intern(Ty::Bit(width))
    }

    /// Interns a record (struct) type.
    pub fn record(&mut self, fields: FieldList) -> TyId {
        self.intern(Ty::Record(Arc::new(fields)))
    }

    /// Interns a header type.
    pub fn header(&mut self, fields: FieldList) -> TyId {
        self.intern(Ty::Header(Arc::new(fields)))
    }

    /// Interns a stack type.
    pub fn stack(&mut self, elem: SecTy, len: u32) -> TyId {
        self.intern(Ty::Stack(elem, len))
    }

    /// Interns a table type with application bound `pc_tbl`.
    pub fn table(&mut self, pc_tbl: Label) -> TyId {
        self.intern(Ty::Table(pc_tbl))
    }

    /// Interns a function/action type.
    pub fn function(&mut self, fnty: FnTy) -> TyId {
        self.intern(Ty::Function(Arc::new(fnty)))
    }

    // ------------------------------------------------------------------
    // Label pushing (memoized)
    // ------------------------------------------------------------------

    /// Joins `label` onto a resolved type: onto the outer label for base
    /// scalars, recursively onto fields/elements for compounds (whose
    /// outer label stays `⊥`, Figure 4). New compound nodes are interned
    /// through the pool; pushing `⊥` is the identity and allocates
    /// nothing.
    ///
    /// Compound pushes are memoized per `(lattice, TyId, Label)` — first
    /// in the frozen segment's memo, then in the overlay's — so an
    /// annotated compound type (e.g. `<alice_t, A>`) resolves O(1) after
    /// its first use anywhere in the pool's lifetime. The lattice is part
    /// of the key because labels are lattice-relative indices while the
    /// pool dedups structurally equal types *across* lattices: the same
    /// `(TyId, Label)` pair can denote different joins under different
    /// lattices, and a cross-lattice memo hit would return wrongly-labeled
    /// fields (an information-flow soundness hole).
    #[must_use]
    pub fn push_label(&mut self, ty: SecTy, label: Label, lat: &Lattice) -> SecTy {
        if lat.is_bottom(label) {
            return ty;
        }
        match self.kind(ty.ty) {
            // Base scalars join the label directly; nothing to memoize.
            Ty::Bool | Ty::Int | Ty::Bit(_) => SecTy::new(ty.ty, lat.join(ty.label, label)),
            // Unit, match kinds, tables, functions are unaffected.
            Ty::Unit | Ty::MatchKind | Ty::Table(_) | Ty::Function(_) => ty,
            Ty::Record(_) | Ty::Header(_) | Ty::Stack(..) => {
                if let Some(base) = &self.base {
                    if let Some(ix) = lattice_ix(&base.lattices, lat) {
                        if let Some(&pushed) = base.push_cache.get(&(ix, ty.ty, label)) {
                            self.push_hits += 1;
                            return SecTy::new(pushed, ty.label);
                        }
                    }
                }
                let local_ix = register_lattice(&mut self.lattices, lat);
                if let Some(&pushed) = self.push_cache.get(&(local_ix, ty.ty, label)) {
                    self.push_hits += 1;
                    return SecTy::new(pushed, ty.label);
                }
                let pushed = match self.kind(ty.ty).clone() {
                    Ty::Record(fields) => {
                        let pushed = FieldList::new(
                            fields
                                .iter()
                                .map(|&(n, t)| (n, self.push_label(t, label, lat)))
                                .collect(),
                        );
                        self.record(pushed)
                    }
                    Ty::Header(fields) => {
                        let pushed = FieldList::new(
                            fields
                                .iter()
                                .map(|&(n, t)| (n, self.push_label(t, label, lat)))
                                .collect(),
                        );
                        self.header(pushed)
                    }
                    Ty::Stack(elem, n) => {
                        let pushed = self.push_label(elem, label, lat);
                        self.stack(pushed, n)
                    }
                    _ => unreachable!("guarded by the outer match"),
                };
                self.push_cache.insert((local_ix, ty.ty, label), pushed);
                SecTy::new(pushed, ty.label)
            }
        }
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Whether `id` is a base scalar (`bool`, `int`, `bit<n>`).
    #[must_use]
    pub fn is_base_scalar(&self, id: TyId) -> bool {
        self.kind(id).is_base_scalar()
    }

    /// The record/header field list of `id`, if any.
    #[must_use]
    pub fn fields(&self, id: TyId) -> Option<&FieldList> {
        self.kind(id).fields()
    }

    /// Looks a record/header field up by symbol.
    #[must_use]
    pub fn field(&self, id: TyId, name: Symbol) -> Option<SecTy> {
        self.kind(id).field(name)
    }

    // ------------------------------------------------------------------
    // Equality / compatibility
    // ------------------------------------------------------------------

    /// Structural compatibility for the τ-equality side conditions,
    /// admitting the `int` literal ↔ `bit<n>` coercion in either
    /// direction (recursively through record/header fields and stack
    /// elements, whose labels must agree exactly).
    ///
    /// Fast path: hash-consing makes `a == b` equivalent to structural
    /// equality, so the recursion only runs when a coercion could relate
    /// two *distinct* types.
    #[must_use]
    pub fn compatible(&self, a: TyId, b: TyId) -> bool {
        if a == b {
            return true;
        }
        match (self.kind(a), self.kind(b)) {
            (Ty::Int, Ty::Bit(_)) | (Ty::Bit(_), Ty::Int) => true,
            (Ty::Record(x), Ty::Record(y)) | (Ty::Header(x), Ty::Header(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y.iter()).all(|((nx, tx), (ny, ty))| {
                        nx == ny && tx.label == ty.label && self.compatible(tx.ty, ty.ty)
                    })
            }
            (Ty::Stack(x, n), Ty::Stack(y, m)) => {
                n == m && x.label == y.label && self.compatible(x.ty, y.ty)
            }
            // Distinct ids of any other shape are structurally different
            // by the hash-consing invariant.
            _ => false,
        }
    }

    /// Whether two security types describe the same data layout and labels
    /// up to implicit `int → bit<n>` literal coercion. Outer labels are
    /// *not* compared; use this for the τ-equality side conditions of
    /// T-Assign / T-Call.
    #[must_use]
    pub fn same_shape(&self, a: SecTy, b: SecTy) -> bool {
        self.compatible(a.ty, b.ty)
    }

    // ------------------------------------------------------------------
    // Rendering (diagnostics boundary)
    // ------------------------------------------------------------------

    /// Renders the structural type for diagnostics (`bit<8>`,
    /// `struct { f: … }`, …). Field names resolve through `syms`.
    #[must_use]
    pub fn display(&self, id: TyId, syms: &Interner) -> String {
        let mut out = String::new();
        self.write_ty(&mut out, id, syms);
        out
    }

    fn write_ty(&self, out: &mut String, id: TyId, syms: &Interner) {
        match self.kind(id) {
            Ty::Bool => out.push_str("bool"),
            Ty::Int => out.push_str("int"),
            Ty::Bit(n) => {
                let _ = write!(out, "bit<{n}>");
            }
            Ty::Unit => out.push_str("unit"),
            Ty::Record(fs) | Ty::Header(fs) => {
                out.push_str(if matches!(self.kind(id), Ty::Record(_)) {
                    "struct { "
                } else {
                    "header { "
                });
                for (i, (n, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{}: ", syms.resolve(*n));
                    self.write_ty(out, t.ty, syms);
                }
                out.push_str(" }");
            }
            Ty::Stack(t, n) => {
                self.write_ty(out, t.ty, syms);
                let _ = write!(out, "[{n}]");
            }
            Ty::MatchKind => out.push_str("match_kind"),
            Ty::Table(_) => out.push_str("table"),
            Ty::Function(ft) => {
                let _ = write!(out, "{}(…)", if ft.is_action { "action" } else { "function" });
            }
        }
    }
}

/// Index of `lat` in a push-memo lattice registry, if present (registries
/// hold the one-or-two lattices a workload actually uses, so a linear scan
/// of full `Lattice` equality is cheaper than any hashing scheme).
fn lattice_ix(lattices: &[Lattice], lat: &Lattice) -> Option<u32> {
    lattices.iter().position(|l| l == lat).map(|ix| ix as u32)
}

/// Index of `lat` in a push-memo lattice registry, registering it if new.
fn register_lattice(lattices: &mut Vec<Lattice>, lat: &Lattice) -> u32 {
    match lattice_ix(lattices, lat) {
        Some(ix) => ix,
        None => {
            let ix = u32::try_from(lattices.len()).expect("lattice registry");
            lattices.push(lat.clone());
            ix
        }
    }
}

/// The harvested overlay tables of one worker's [`TyCtx`]: everything the
/// worker interned *above* its frozen base, in append (id) order, plus the
/// overlay push-memo. Produced by [`TyCtx::into_overlay`], consumed by
/// [`FrozenTyCtx::refreeze`]. `Send`, so per-thread overlays can be
/// collected on a driver thread after the workers return.
#[derive(Debug)]
pub struct CtxOverlay {
    /// Overlay strings in symbol-index (append) order.
    syms: Vec<Arc<str>>,
    /// Overlay type nodes in id (append) order — children always precede
    /// parents, because interning is bottom-up.
    types: Vec<Ty>,
    /// The overlay push-memo lattice registry.
    lattices: Vec<Lattice>,
    /// Overlay push-memo entries; the `u32` indexes `lattices`.
    push_cache: Vec<((u32, TyId, Label), TyId)>,
}

/// Rebuilds an overlay node with its child handles translated: frozen-tier
/// handles are kept, overlay handles resolve through the partial maps
/// (complete for all children — append order puts children first).
fn translate_node(
    node: &Ty,
    sym_map: &[Symbol],
    ty_map: &[TyId],
    base_syms: u32,
    base_types: u32,
) -> Ty {
    let sym = |s: Symbol| {
        if s.is_overlay() {
            sym_map[s.index() - base_syms as usize]
        } else {
            s
        }
    };
    let ty = |t: TyId| {
        if t.is_overlay() {
            ty_map[t.index() - base_types as usize]
        } else {
            t
        }
    };
    let secty = |t: SecTy| SecTy { ty: ty(t.ty), label: t.label };
    match node {
        Ty::Bool | Ty::Int | Ty::Bit(_) | Ty::Unit | Ty::MatchKind | Ty::Table(_) => node.clone(),
        Ty::Record(fs) => Ty::Record(Arc::new(FieldList::new(
            fs.iter().map(|&(n, t)| (sym(n), secty(t))).collect(),
        ))),
        Ty::Header(fs) => Ty::Header(Arc::new(FieldList::new(
            fs.iter().map(|&(n, t)| (sym(n), secty(t))).collect(),
        ))),
        Ty::Stack(elem, n) => Ty::Stack(secty(*elem), *n),
        Ty::Function(ft) => Ty::Function(Arc::new(FnTy {
            params: ft
                .params
                .iter()
                .map(|p| FnParam { name: sym(p.name), ty: secty(p.ty), ..*p })
                .collect(),
            pc_fn: ft.pc_fn,
            ret: secty(ft.ret),
            is_action: ft.is_action,
        })),
    }
}

/// The shared naming/typing context: the string interner plus the type
/// pool. One per checker session; handed to every [`TypedProgram`] the
/// session produces (via [`SharedTyCtx`]) so the interpreter and the NI
/// harness can resolve symbols and type ids without copying tables.
///
/// [`TypedProgram`]: ../../p4bid_typeck/struct.TypedProgram.html
#[derive(Debug, Clone)]
pub struct TyCtx {
    /// Interned names (variables, fields, actions, labels, …); symbol 0
    /// is always the reserved empty-string sentinel.
    pub syms: Interner,
    /// Hash-consed structural types.
    pub types: TyPool,
}

impl Default for TyCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl TyCtx {
    /// A fresh root-tier context with a primitives-only pool. The interner
    /// starts with the empty string reserved at symbol 0 — the sentinel
    /// match-kind symbol `Value::init`-style zero values use — so slot 0
    /// never aliases a real name.
    #[must_use]
    pub fn new() -> Self {
        let mut syms = Interner::new();
        let sentinel = syms.intern("");
        debug_assert_eq!(sentinel.index(), 0);
        TyCtx { syms, types: TyPool::new() }
    }

    /// A context layered over a shared frozen segment: symbols and type
    /// ids from the segment stay valid, new ones go into private
    /// overlays.
    #[must_use]
    pub fn with_base(base: &Arc<FrozenTyCtx>) -> Self {
        TyCtx {
            syms: Interner::with_base(Arc::clone(&base.syms)),
            types: TyPool::with_base(Arc::clone(&base.types)),
        }
    }

    /// Freezes a root-tier context into an immutable, `Send + Sync`
    /// segment shareable across worker threads.
    ///
    /// # Panics
    ///
    /// Panics if the context is itself layered over a frozen base (tiers
    /// do not stack).
    #[must_use]
    pub fn freeze(self) -> FrozenTyCtx {
        FrozenTyCtx { syms: Arc::new(self.syms.freeze()), types: Arc::new(self.types.freeze()) }
    }

    /// Wraps a fresh root-tier context for sharing.
    #[must_use]
    pub fn shared() -> SharedTyCtx {
        Rc::new(RefCell::new(TyCtx::new()))
    }

    /// Wraps an overlay context over a frozen segment for sharing.
    #[must_use]
    pub fn shared_with_base(base: &Arc<FrozenTyCtx>) -> SharedTyCtx {
        Rc::new(RefCell::new(TyCtx::with_base(base)))
    }

    /// Harvests the overlay tables of a context layered over a frozen
    /// base, consuming it. `None` for a root-tier context (there is no
    /// base to merge the tables back into).
    #[must_use]
    pub fn into_overlay(self) -> Option<CtxOverlay> {
        let syms = self.syms.into_overlay_strings()?;
        let TyPool { base, nodes, lattices, push_cache, .. } = self.types;
        // `with_base` sets both tiers together; be defensive anyway.
        base.as_ref()?;
        Some(CtxOverlay {
            syms,
            types: nodes,
            lattices,
            push_cache: push_cache.into_iter().collect(),
        })
    }
}

/// The frozen tier of a [`TyCtx`]: an immutable interner segment plus an
/// immutable pool segment, both `Send + Sync` and shared across worker
/// threads via `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenTyCtx {
    /// The frozen interner segment.
    pub syms: Arc<FrozenInterner>,
    /// The frozen pool segment.
    pub types: Arc<FrozenPool>,
}

impl FrozenTyCtx {
    /// Merges harvested per-worker overlay tables into a fatter frozen
    /// root: thaw both segments, re-intern each overlay's strings and type
    /// nodes with child handles translated through the tables built so far
    /// (append order guarantees children precede parents), import the
    /// translated push-memo entries, freeze again.
    ///
    /// Every id of the *old* frozen generation is preserved verbatim in
    /// the new root, so state built against the old generation in
    /// frozen-pure form stays valid unchanged. Names and types only an
    /// overlay held now resolve to frozen ids; entities duplicated across
    /// overlays dedup by hash-consing, so N workers that each interned
    /// the same program-local types contribute one copy. Nothing else is
    /// carried over: state that holds overlay ids is rebuilt against the
    /// new root, never translated.
    ///
    /// Every overlay must have been layered over *this* frozen generation;
    /// handles from any other generation would translate to garbage.
    #[must_use]
    pub fn refreeze(&self, overlays: &[CtxOverlay]) -> FrozenTyCtx {
        let base_syms = u32::try_from(self.syms.len()).expect("frozen interner fits u32");
        let base_types = u32::try_from(self.types.len()).expect("frozen pool fits u32");
        let mut syms = self.syms.thaw();
        let mut types = self.types.thaw();
        for ov in overlays {
            let sym_map: Vec<Symbol> = ov.syms.iter().map(|s| syms.intern(s)).collect();
            let mut ty_map: Vec<TyId> = Vec::with_capacity(ov.types.len());
            for node in &ov.types {
                let translated = translate_node(node, &sym_map, &ty_map, base_syms, base_types);
                ty_map.push(types.intern(translated));
            }
            let ty =
                |t: TyId| if t.is_overlay() { ty_map[t.index() - base_types as usize] } else { t };
            // Register the overlay's lattices first, in the overlay's own
            // (deterministic) order, so the root registry order does not
            // depend on memo-entry iteration order.
            for lat in &ov.lattices {
                let _ = register_lattice(&mut types.lattices, lat);
            }
            for &((lat_ix, from, label), pushed) in &ov.push_cache {
                let root_ix = register_lattice(&mut types.lattices, &ov.lattices[lat_ix as usize]);
                // Push results are a pure function of (lattice, type,
                // label), so colliding imports agree and insertion order
                // cannot matter.
                types.push_cache.insert((root_ix, ty(from), label), ty(pushed));
            }
        }
        FrozenTyCtx { syms: Arc::new(syms.freeze()), types: Arc::new(types.freeze()) }
    }
}

/// A shareable, interiorly mutable [`TyCtx`].
///
/// Both structures inside are append-only, so `Symbol`s and `TyId`s handed
/// out earlier stay valid while later programs grow the tables. Borrows are
/// taken once per coarse operation (one `check`, one interpreter step
/// group), never held across them. The `Rc` handle is deliberately
/// thread-local; cross-thread sharing happens through the frozen tier
/// ([`FrozenTyCtx`]), never through this handle.
pub type SharedTyCtx = Rc<RefCell<TyCtx>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Direction;
    use p4bid_lattice::Lattice;

    #[test]
    fn primitives_have_fixed_ids() {
        let pool = TyPool::new();
        assert_eq!(pool.kind(TyId::BOOL), &Ty::Bool);
        assert_eq!(pool.kind(TyId::INT), &Ty::Int);
        assert_eq!(pool.kind(TyId::UNIT), &Ty::Unit);
        assert_eq!(pool.kind(TyId::MATCH_KIND), &Ty::MatchKind);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut pool = TyPool::new();
        let a = pool.bit(8);
        let b = pool.bit(8);
        let c = pool.bit(9);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 6);
    }

    #[test]
    fn nested_types_cons_to_one_id() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let f = syms.intern("f");
        let g = syms.intern("g");
        let bit8 = pool.bit(8);
        let mk = |pool: &mut TyPool| {
            let inner = pool.record(FieldList::new(vec![(f, SecTy::new(bit8, lat.top()))]));
            pool.record(FieldList::new(vec![(g, SecTy::bottom(inner, &lat))]))
        };
        let a = mk(&mut pool);
        let before = pool.len();
        let b = mk(&mut pool);
        assert_eq!(a, b);
        assert_eq!(pool.len(), before, "re-interning allocates nothing");
    }

    #[test]
    fn compatible_is_reflexive_and_coercive() {
        let lat = Lattice::two_point();
        let mut pool = TyPool::new();
        let bit8 = pool.bit(8);
        let bit16 = pool.bit(16);
        assert!(pool.compatible(bit8, bit8));
        assert!(pool.compatible(bit8, TyId::INT));
        assert!(pool.compatible(TyId::INT, bit16));
        assert!(!pool.compatible(bit8, bit16));
        assert!(!pool.compatible(TyId::BOOL, bit8));
        let _ = lat;
    }

    #[test]
    fn nested_int_coercion_recurses() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let f = syms.intern("f");
        let bit8 = pool.bit(8);
        let rec_bit = pool.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let rec_int = pool.record(FieldList::new(vec![(f, SecTy::bottom(TyId::INT, &lat))]));
        assert_ne!(rec_bit, rec_int);
        assert!(pool.compatible(rec_bit, rec_int), "int field coerces to bit field");
    }

    #[test]
    fn table_types_distinct_by_label() {
        let lat = Lattice::two_point();
        let mut pool = TyPool::new();
        let lo = pool.table(lat.bottom());
        let hi = pool.table(lat.top());
        assert_ne!(lo, hi);
        assert!(!pool.compatible(lo, hi));
        assert_eq!(pool.table(lat.bottom()), lo);
    }

    #[test]
    fn display_matches_surface_syntax() {
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let lat = Lattice::two_point();
        let bit8 = pool.bit(8);
        assert_eq!(pool.display(bit8, &syms), "bit<8>");
        assert_eq!(pool.display(TyId::BOOL, &syms), "bool");
        let f = syms.intern("f");
        let rec = pool.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        assert_eq!(pool.display(rec, &syms), "struct { f: bit<8> }");
        let stack = pool.stack(SecTy::bottom(bit8, &lat), 4);
        assert_eq!(pool.display(stack, &syms), "bit<8>[4]");
    }

    #[test]
    fn shared_ctx_is_append_only_across_borrows() {
        let ctx = TyCtx::shared();
        let (a, bit8) = {
            let mut c = ctx.borrow_mut();
            let a = c.syms.intern("a");
            let bit8 = c.types.bit(8);
            (a, bit8)
        };
        {
            let mut c = ctx.borrow_mut();
            c.syms.intern("b");
            c.types.bit(16);
        }
        let c = ctx.borrow();
        assert_eq!(c.syms.resolve(a), "a");
        assert_eq!(c.types.kind(bit8), &Ty::Bit(8));
    }

    #[test]
    fn frozen_pool_is_shared_and_overlay_extends_it() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut root = TyPool::new();
        let f = syms.intern("f");
        let bit8 = root.bit(8);
        let rec = root.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let frozen = Arc::new(root.freeze());

        let mut a = TyPool::with_base(Arc::clone(&frozen));
        let mut b = TyPool::with_base(Arc::clone(&frozen));
        // Frozen types (primitives included) keep their ids in overlays.
        assert_eq!(a.bit(8), bit8);
        assert_eq!(a.intern(Ty::Bool), TyId::BOOL);
        assert_eq!(b.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))])), rec);
        // New types are tier-tagged, densely indexed, and structurally
        // consistent within each overlay.
        let w16a = a.bit(16);
        let w16b = b.bit(16);
        assert!(w16a.is_overlay() && w16b.is_overlay());
        assert_eq!(w16a, w16b, "same overlay growth order, same id");
        assert_eq!(w16a.index(), frozen.len());
        assert_eq!(a.kind(w16a), &Ty::Bit(16));
        assert!(a.compatible(w16a, TyId::INT));
        assert_eq!(a.tier_sizes(), (frozen.len(), 1));
        let (hits, calls) = a.frozen_hit_stats();
        assert_eq!(calls, 3);
        assert_eq!(hits, 2, "bit8 and Bool were frozen hits");
    }

    #[test]
    fn overlay_compounds_over_frozen_children_dedup() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut root = TyPool::new();
        let f = syms.intern("f");
        let bit8 = root.bit(8);
        let frozen = Arc::new(root.freeze());
        let mut overlay = TyPool::with_base(frozen);
        // A compound built in the overlay from frozen children is interned
        // once and found again on re-interning.
        let r1 = overlay.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let r2 = overlay.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        assert_eq!(r1, r2);
        assert!(r1.is_overlay());
        assert_eq!(overlay.tier_sizes().1, 1);
    }

    #[test]
    fn push_label_memoizes_compounds() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let f = syms.intern("f");
        let bit8 = pool.bit(8);
        let rec = pool.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let t = SecTy::bottom(rec, &lat);

        let first = pool.push_label(t, lat.top(), &lat);
        assert_eq!(pool.push_cache_hits(), 0);
        let second = pool.push_label(t, lat.top(), &lat);
        assert_eq!(pool.push_cache_hits(), 1, "second push is a memo hit");
        assert_eq!(first.ty, second.ty, "cache hits return identical TyIds");
        assert_eq!(first, second);
        // The pushed field label is joined with ⊤.
        assert_eq!(pool.field(first.ty, f).unwrap().label, lat.top());
        // Pushing ⊥ is the identity and never touches the memo.
        assert_eq!(pool.push_label(t, lat.bottom(), &lat), t);
        assert_eq!(pool.push_cache_hits(), 1);
    }

    #[test]
    fn push_cache_survives_freezing() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut root = TyPool::new();
        let f = syms.intern("f");
        let bit8 = root.bit(8);
        let rec = root.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let t = SecTy::bottom(rec, &lat);
        let warmed = root.push_label(t, lat.top(), &lat);
        let frozen = Arc::new(root.freeze());

        let mut overlay = TyPool::with_base(frozen);
        let via_overlay = overlay.push_label(t, lat.top(), &lat);
        assert_eq!(via_overlay, warmed, "frozen memo serves the overlay");
        assert_eq!(overlay.push_cache_hits(), 1);
        assert_eq!(overlay.tier_sizes().1, 0, "no overlay allocation at all");
    }

    #[test]
    #[should_panic(expected = "tiers do not stack")]
    fn freezing_an_overlay_panics() {
        let root = TyPool::new();
        let overlay = TyPool::with_base(Arc::new(root.freeze()));
        let _ = overlay.freeze();
    }

    #[test]
    fn push_memo_never_crosses_lattices() {
        // One pool serves programs under many lattices, and labels are
        // lattice-relative indices: the same (TyId, Label) pair denotes
        // different joins under different lattices. The memo must key on
        // the lattice too, or a chain-lattice warm-up would poison the
        // diamond-lattice result (soundness regression).
        let names = ["bot", "A", "B", "top"];
        let chain = Lattice::from_order(&names, &[("bot", "A"), ("A", "B"), ("B", "top")]).unwrap();
        let diamond =
            Lattice::from_order(&names, &[("bot", "A"), ("bot", "B"), ("A", "top"), ("B", "top")])
                .unwrap();
        let (a_c, b_c) = (chain.label("A").unwrap(), chain.label("B").unwrap());
        let (a_d, b_d) = (diamond.label("A").unwrap(), diamond.label("B").unwrap());
        // Same element names in the same order: the raw label indices
        // alias across the two lattices — exactly the dangerous case.
        assert_eq!(a_c, a_d);
        assert_eq!(b_c, b_d);

        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let f = syms.intern("f");
        let bit8 = pool.bit(8);
        let hdr = pool.header(FieldList::new(vec![(f, SecTy::new(bit8, a_c))]));
        let t = SecTy::new(hdr, chain.bottom());

        // Chain: A ⊔ B = B. Warm the memo under the chain lattice.
        let chained = pool.push_label(t, b_c, &chain);
        assert_eq!(pool.field(chained.ty, f).unwrap().label, b_c);
        // Diamond: A ⊔ B = ⊤ — the chain memo entry must not be reused.
        let diamonded = pool.push_label(t, b_d, &diamond);
        assert_eq!(pool.field(diamonded.ty, f).unwrap().label, diamond.top());
        // Both entries are now memoized under their own lattice.
        assert_eq!(pool.push_label(t, b_c, &chain), chained);
        assert_eq!(pool.push_label(t, b_d, &diamond), diamonded);
        assert_eq!(pool.push_cache_hits(), 2);
    }

    #[test]
    fn frozen_ctx_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenPool>();
        assert_send_sync::<FrozenTyCtx>();
        fn assert_send<T: Send>() {}
        assert_send::<CtxOverlay>();
    }

    #[test]
    fn pool_thaw_preserves_ids_and_reopens_the_root_tier() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut root = TyPool::new();
        let f = syms.intern("f");
        let bit8 = root.bit(8);
        let rec = root.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let frozen = root.freeze();
        let mut thawed = frozen.thaw();
        assert_eq!(thawed.len(), frozen.len());
        assert_eq!(thawed.bit(8), bit8, "thawed ids are the frozen ids");
        assert_eq!(thawed.record(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))])), rec);
        let bit16 = thawed.bit(16);
        assert!(!bit16.is_overlay(), "thawed pool is root tier");
        assert_eq!(bit16.index(), frozen.len(), "new ids continue the dense sequence");
        // And it freezes again.
        let refrozen = thawed.freeze();
        assert_eq!(refrozen.kind(bit16), &Ty::Bit(16));
    }

    #[test]
    fn refreeze_merges_overlays_and_preserves_frozen_ids() {
        let lat = Lattice::two_point();
        let mut root = TyCtx::new();
        let f = root.syms.intern("f");
        let bit8 = root.types.bit(8);
        let frozen = Arc::new(root.freeze());

        // Two workers intern the same program-local name and type.
        let mk = || {
            let mut ctx = TyCtx::with_base(&frozen);
            let g = ctx.syms.intern("g");
            let hdr = ctx.types.header(FieldList::new(vec![(g, SecTy::new(bit8, lat.top()))]));
            assert!(g.is_overlay() && hdr.is_overlay());
            ctx.into_overlay().unwrap()
        };
        let refrozen = Arc::new(frozen.refreeze(&[mk(), mk()]));

        // Old frozen ids are preserved verbatim.
        assert_eq!(refrozen.syms.lookup("f"), Some(f));
        assert_eq!(refrozen.types.kind(bit8), &Ty::Bit(8));

        // The overlay entities merged once (cross-overlay dedup)…
        assert_eq!(refrozen.syms.len(), frozen.syms.len() + 1);
        assert_eq!(refrozen.types.len(), frozen.types.len() + 1);

        // …and a fresh overlay over the new root resolves them to frozen
        // ids without allocating.
        let mut worker = TyCtx::with_base(&refrozen);
        let g = worker.syms.intern("g");
        assert!(!g.is_overlay());
        assert_eq!(refrozen.syms.resolve(g), "g");
        let hdr = worker.types.header(FieldList::new(vec![(g, SecTy::new(bit8, lat.top()))]));
        assert!(!hdr.is_overlay());
        assert_eq!(worker.syms.tier_sizes().1, 0);
        assert_eq!(worker.types.tier_sizes().1, 0);
        // The merged node's field is keyed by the promoted symbol.
        let field = refrozen.types.kind(hdr).field(g).expect("field survived the merge");
        assert_eq!(field, SecTy::new(bit8, lat.top()));
    }

    #[test]
    fn refreeze_remaps_nested_children_and_function_types() {
        let lat = Lattice::two_point();
        let root = TyCtx::new();
        let frozen = Arc::new(root.freeze());

        let fn_of = |x, stack| FnTy {
            params: vec![FnParam {
                name: x,
                direction: Direction::In,
                ty: SecTy::bottom(stack, &lat),
                control_plane: false,
            }],
            pc_fn: lat.top(),
            ret: SecTy::unit(&lat),
            is_action: false,
        };
        let mut ctx = TyCtx::with_base(&frozen);
        let x = ctx.syms.intern("x");
        let bit16 = ctx.types.bit(16); // overlay child
        let stack = ctx.types.stack(SecTy::bottom(bit16, &lat), 4); // overlay parent
        let fnid = ctx.types.function(fn_of(x, stack));
        assert!(fnid.is_overlay());

        let refrozen = Arc::new(frozen.refreeze(&[ctx.into_overlay().unwrap()]));
        // Rebuilding the same types over the new root finds every one of
        // them frozen, children and parents alike.
        let mut worker = TyCtx::with_base(&refrozen);
        let x = worker.syms.intern("x");
        let bit16 = worker.types.bit(16);
        let stack = worker.types.stack(SecTy::bottom(bit16, &lat), 4);
        let fnid = worker.types.function(fn_of(x, stack));
        assert!(![bit16, stack, fnid].iter().any(|t| t.is_overlay()));
        assert_eq!(worker.types.tier_sizes().1, 0);
        assert_eq!(
            refrozen.types.kind(stack),
            &Ty::Stack(SecTy::bottom(bit16, &lat), 4),
            "stack element translated to the promoted child id"
        );
        match refrozen.types.kind(fnid) {
            Ty::Function(ft) => {
                assert_eq!(refrozen.syms.resolve(ft.params[0].name), "x");
                assert_eq!(ft.params[0].ty, SecTy::bottom(stack, &lat));
                assert_eq!(ft.pc_fn, lat.top());
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn refreeze_imports_the_push_memo() {
        let lat = Lattice::two_point();
        let mut root = TyCtx::new();
        let f = root.syms.intern("f");
        let bit8 = root.types.bit(8);
        let frozen = Arc::new(root.freeze());

        let hdr_of =
            |pool: &mut TyPool| pool.header(FieldList::new(vec![(f, SecTy::bottom(bit8, &lat))]));
        let mut ctx = TyCtx::with_base(&frozen);
        let hdr = hdr_of(&mut ctx.types);
        let pushed = ctx.types.push_label(SecTy::bottom(hdr, &lat), lat.top(), &lat);
        assert!(hdr.is_overlay() && pushed.ty.is_overlay());

        let refrozen = frozen.refreeze(&[ctx.into_overlay().unwrap()]);
        let mut worker = TyPool::with_base(Arc::clone(&refrozen.types));
        let hdr = hdr_of(&mut worker);
        assert!(!hdr.is_overlay());
        let out = worker.push_label(SecTy::bottom(hdr, &lat), lat.top(), &lat);
        assert_eq!(worker.push_cache_hits(), 1, "refrozen memo serves fresh overlays");
        assert!(!out.ty.is_overlay());
        assert_eq!(worker.field(out.ty, f).unwrap().label, lat.top());
        assert_eq!(worker.tier_sizes().1, 0, "no overlay allocation at all");
    }

    #[test]
    fn empty_overlay_refreezes_to_identity() {
        let mut root = TyCtx::new();
        let f = root.syms.intern("f");
        let bit8 = root.types.bit(8);
        let frozen = Arc::new(root.freeze());
        assert!(root_ctx_overlay_is_none(), "root-tier contexts have nothing to harvest");
        let ov = TyCtx::with_base(&frozen).into_overlay().unwrap();
        let refrozen = frozen.refreeze(&[ov]);
        assert_eq!(refrozen.syms.len(), frozen.syms.len());
        assert_eq!(refrozen.types.len(), frozen.types.len());
        assert_eq!(refrozen.syms.lookup("f"), Some(f));
        assert_eq!(refrozen.types.kind(bit8), &Ty::Bit(8));
        assert_eq!(refrozen.types.push_cache.len(), frozen.types.push_cache.len());
    }

    fn root_ctx_overlay_is_none() -> bool {
        TyCtx::new().into_overlay().is_none()
    }

    #[test]
    fn ctx_with_base_keeps_sentinel_and_primitives() {
        let root = TyCtx::new();
        let frozen = Arc::new(root.freeze());
        let mut ctx = TyCtx::with_base(&frozen);
        assert_eq!(ctx.syms.lookup("").map(|s| s.index()), Some(0));
        assert_eq!(ctx.types.intern(Ty::Bool), TyId::BOOL);
        assert_eq!(ctx.types.kind(TyId::INT), &Ty::Int);
    }
}
