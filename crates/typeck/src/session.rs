//! Reusable checker sessions for throughput-oriented workloads, and the
//! shared frozen core that lets a fleet of sessions skip warm-up entirely.
//!
//! [`check_source`](crate::check_source) is convenient but pays fixed costs
//! on every call: the standard prelude is re-checked, a fresh interner is
//! grown from nothing, and the lattice label table is rebuilt. A
//! [`CheckerSession`] pays those costs once and then checks any number of
//! programs against the shared state — the shape the `p4bid batch` driver
//! and any long-running checking service want.
//!
//! A session is deliberately *not* `Sync`: parallel drivers give each
//! worker thread its own session, which keeps every structure lock-free.
//! What *is* shared across threads is a [`SharedSessionCore`]: an
//! immutable, `Send + Sync` snapshot of a fully warmed session — frozen
//! interner/pool segments, the parsed prelude, and the per-lattice
//! checked-prelude states — produced by [`CheckerSession::freeze`] and
//! turned back into per-worker sessions by [`SharedSessionCore::session`]
//! at the cost of a few table clones (no prelude re-lex, re-parse, or
//! re-check; the regression suite counts those builds). Results are
//! identical to the one-shot entry points and to cold sessions (the
//! conformance and determinism suites assert this).
//!
//! # Examples
//!
//! ```
//! use p4bid_typeck::{CheckerSession, CheckOptions, DiagCode, SharedSessionCore};
//!
//! // One warmed, frozen core…
//! let core = SharedSessionCore::new(CheckOptions::ifc());
//! // …many cheap per-worker sessions.
//! let mut session = core.session();
//! for _ in 0..3 {
//!     let ok = session.check("control C(inout bit<8> x) { apply { x = x + 8w1; } }");
//!     assert!(ok.is_ok());
//!     let leak = session.check(
//!         "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
//!     );
//!     assert!(leak.unwrap_err().iter().any(|d| d.code == DiagCode::ExplicitFlow));
//! }
//! ```

use crate::checker::{
    check_items, check_items_run, control_within_tiers, lattice_from_decl, resolve_default_pc,
    resolve_lattice, CheckOptions, CheckerState, ProgramView, ResumeSeed, TypedProgram,
};
use crate::diag::{DiagCode, Diagnostic};
use crate::prefix::{PrefixCache, PrefixEntry};
use crate::prelude_arc;
use p4bid_ast::pool::{CtxOverlay, FrozenTyCtx, SharedTyCtx, TyCtx};
use p4bid_ast::surface::Program;
use p4bid_lattice::Lattice;
use p4bid_syntax::{ItemSeg, Token, TokenKind};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on the shared prefix-snapshot cache (entries, across all
/// sessions of one core), which also sizes its sighting table.
/// Overridden by `--prefix-cache-cap`; `0` disables prefix snapshotting
/// entirely.
pub const DEFAULT_PREFIX_CACHE_CAP: usize = 1024;

/// Locks a mutex, riding through poisoning: the protected caches are
/// always structurally valid (a poisoned run simply never inserted), and
/// panic-isolated drivers keep other workers running after a crash.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by every session of one core (and carried across
/// refreezes, whose id-stability keeps the contents valid): the prefix
/// snapshot cache with its sighting table, and the publish-once table of
/// checked-prelude states for program-supplied lattices.
#[derive(Debug)]
struct CoreShared {
    /// Prefix cache bound (`0` disables; fixed at construction).
    prefix_cap: usize,
    prefix: Mutex<PrefixCache>,
    /// Checked-prelude states for lattices first seen after the freeze,
    /// published once by whichever worker builds them first (only
    /// frozen-pure states are publishable; the rest stay session-local
    /// until a refreeze promotes their ids).
    lattice_states: Mutex<Vec<(Lattice, Arc<CheckerState>)>>,
}

impl CoreShared {
    fn new(cap: usize) -> Self {
        CoreShared {
            prefix_cap: cap,
            prefix: Mutex::new(PrefixCache::new(cap)),
            lattice_states: Mutex::new(Vec::new()),
        }
    }
}

/// A reusable checking session: prelude, interner, and per-lattice checked
/// prelude state are built once and shared across [`check`] calls.
///
/// The session is pinned to one [`CheckOptions`] (mode, lattice override,
/// ambient pc); programs may still bring their own `lattice { … }`
/// declarations — the session caches one checked-prelude snapshot per
/// distinct lattice it encounters.
///
/// Sessions come in two flavors: *cold* ([`CheckerSession::new`]), which
/// type-checks the prelude itself on first use, and *shared-core*
/// ([`SharedSessionCore::session`]), which clones pre-checked state off an
/// immutable frozen segment and layers a private overlay on top for
/// program-local symbols and types.
///
/// [`check`]: CheckerSession::check
#[derive(Debug)]
pub struct CheckerSession {
    opts: CheckOptions,
    /// The shared interner + hash-consing type pool. Grown across checks
    /// (append-only); every [`TypedProgram`] this session produces holds a
    /// reference to it, so prelude types are pooled exactly once and keyed
    /// by `TyId` in the per-lattice snapshots. For shared-core sessions
    /// this is an overlay over the core's frozen segment.
    ctx: SharedTyCtx,
    /// A one-shot deadline for the *next* check (see
    /// [`set_deadline`](CheckerSession::set_deadline)); consumed by that
    /// check. When absent, each check derives its own deadline from
    /// `opts.check_timeout_ms`.
    deadline: Option<std::time::Instant>,
    /// The prelude, parsed once per process and shared by handle.
    prelude: Arc<Program>,
    /// Checked-prelude snapshots, keyed by the lattice they were checked
    /// under and shared by handle (snapshots are immutable once built, so
    /// cloning a session off a core is a handful of `Arc` bumps). Real
    /// workloads use one lattice (or a handful), so a linear scan over
    /// `Lattice` equality is fine.
    states: Vec<(Lattice, Arc<CheckerState>)>,
    /// How many leading `states` entries came from the shared core; the
    /// rest were built by this session and are harvestable
    /// ([`into_harvest`](CheckerSession::into_harvest)).
    core_states: usize,
    /// The cross-session shared caches (private to this session when
    /// cold; shared with every sibling on the shared-core path).
    shared: Arc<CoreShared>,
    /// Prefix-snapshot counters (per session, summed by
    /// [`SessionStats::absorb`]).
    prefix_hits: u64,
    prefix_misses: u64,
    prefix_inserts: u64,
    prefix_items_saved: u64,
    /// Publish-once lattice-state counters.
    lattice_state_hits: u64,
    lattice_states_published: u64,
    /// Times this session type-checked the prelude.
    prelude_checks: u64,
}

impl CheckerSession {
    /// Builds a cold (root-tier) session.
    #[must_use]
    pub fn new(opts: CheckOptions) -> Self {
        CheckerSession {
            opts,
            ctx: TyCtx::shared(),
            prelude: prelude_arc(),
            states: Vec::new(),
            deadline: None,
            core_states: 0,
            shared: Arc::new(CoreShared::new(DEFAULT_PREFIX_CACHE_CAP)),
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_inserts: 0,
            prefix_items_saved: 0,
            lattice_state_hits: 0,
            lattice_states_published: 0,
            prelude_checks: 0,
        }
    }

    /// Replaces the session's prefix-snapshot cache with a fresh one of
    /// the given bound (`0` disables prefix snapshotting), builder-style.
    /// Call before any checking: the cache starts empty.
    #[must_use]
    pub fn with_prefix_cache_cap(mut self, cap: usize) -> Self {
        self.shared = Arc::new(CoreShared::new(cap));
        self
    }

    /// The options this session checks under.
    #[must_use]
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// Arms an explicit wall-clock deadline for the *next* check (it is
    /// consumed by that check). Drivers that do per-program work *before*
    /// calling [`check`](CheckerSession::check) — e.g. the batch workers,
    /// which may sleep under fault injection — use this so the budget
    /// covers the whole program, not just the checking half. When no
    /// explicit deadline is armed, each check derives one from
    /// `opts.check_timeout_ms` on entry.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// The default lattice of this session's options: the override if one
    /// is set, else the two-point lattice (a program without a `lattice`
    /// declaration resolves to exactly this).
    fn default_lattice(&self) -> Lattice {
        self.opts.lattice.clone().unwrap_or_else(Lattice::two_point)
    }

    /// Builds the checked-prelude snapshot for the session's default
    /// lattice if it does not exist yet. [`freeze`](CheckerSession::freeze)
    /// calls this so every worker cloned off the core starts warm; exposed
    /// so benchmarks can isolate session-build cost.
    ///
    /// Warming can legitimately fail on user input — e.g. an ambient
    /// `--pc` label that is not in the lattice. The error is *not*
    /// surfaced here: every [`check`](CheckerSession::check) re-resolves
    /// the same state and reports the diagnostic per program, exactly as a
    /// cold session would.
    pub fn warm(&mut self) {
        let lattice = self.default_lattice();
        let _ = self.prelude_state(&lattice);
    }

    /// Freezes this session into an immutable, `Send + Sync`
    /// [`SharedSessionCore`] that any number of worker threads can clone
    /// cheap sessions off. The default-lattice prelude snapshot is built
    /// first (if missing), so cloned sessions start fully warm.
    ///
    /// # Panics
    ///
    /// Panics if the session's context is still referenced by live
    /// [`TypedProgram`]s (freeze requires sole ownership), or if the
    /// session itself came from a shared core (tiers do not stack).
    #[must_use]
    pub fn freeze(mut self) -> SharedSessionCore {
        self.warm();
        let ctx = Rc::try_unwrap(self.ctx)
            .expect(
                "freeze requires sole ownership of the session context; drop TypedPrograms first",
            )
            .into_inner();
        SharedSessionCore {
            opts: self.opts,
            ctx: Arc::new(ctx.freeze()),
            prelude: self.prelude,
            states: self.states,
            // Carried over: root-tier ids become frozen ids verbatim, so
            // any prefix snapshots this session took stay valid.
            shared: self.shared,
        }
    }

    /// Consumes the session, harvesting its overlay interner/pool tables
    /// and locally built checked-prelude states for
    /// [`SharedSessionCore::refreeze`]. Returns `None` when the context
    /// is still referenced by live [`TypedProgram`]s or the session is
    /// root-tier (nothing to merge back).
    #[must_use]
    pub fn into_harvest(self) -> Option<SessionHarvest> {
        let core_states = self.core_states;
        let states = self.states;
        let ctx = Rc::try_unwrap(self.ctx).ok()?.into_inner();
        let overlay = ctx.into_overlay()?;
        let new_states = states
            .into_iter()
            .skip(core_states)
            .map(|(l, s)| (l, CheckerState::clone(&s)))
            .collect();
        Some(SessionHarvest { overlay, new_states })
    }

    /// Tier sizes and frozen-segment hit counters of this session's
    /// interner and pool.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let ctx = self.ctx.borrow();
        let (frozen_syms, overlay_syms) = ctx.syms.tier_sizes();
        let (sym_frozen_hits, sym_intern_calls) = ctx.syms.frozen_hit_stats();
        let (frozen_types, overlay_types) = ctx.types.tier_sizes();
        let (ty_frozen_hits, ty_intern_calls) = ctx.types.frozen_hit_stats();
        SessionStats {
            frozen_syms,
            overlay_syms,
            frozen_types,
            overlay_types,
            sym_frozen_hits,
            sym_intern_calls,
            ty_frozen_hits,
            ty_intern_calls,
            push_cache_hits: ctx.types.push_cache_hits(),
            prefix_hits: self.prefix_hits,
            prefix_misses: self.prefix_misses,
            prefix_inserts: self.prefix_inserts,
            prefix_items_saved: self.prefix_items_saved,
            lattice_state_hits: self.lattice_state_hits,
            lattice_states_published: self.lattice_states_published,
            prelude_checks: self.prelude_checks,
        }
    }

    /// Parses and checks one program, with the prelude available — the
    /// session-reuse equivalent of [`check_source`](crate::check_source).
    ///
    /// # Errors
    ///
    /// Returns parser errors (as a single [`DiagCode::Malformed`]
    /// diagnostic), a single [`DiagCode::Oversized`] diagnostic when the
    /// source exceeds `opts.max_source_bytes`, or the full list of
    /// type/flow errors.
    pub fn check(&mut self, source: &str) -> Result<TypedProgram, Vec<Diagnostic>> {
        if let Some(d) = crate::oversized_diag(source, &self.opts) {
            self.deadline = None;
            return Err(vec![d]);
        }
        let malformed = |e: &p4bid_syntax::ParseError| {
            vec![Diagnostic::new(DiagCode::Malformed, e.message().to_string(), e.span())]
        };
        if self.shared.prefix_cap == 0 {
            // Prefix snapshotting off: the classic lex+parse+check path.
            let user = match p4bid_syntax::parse(source) {
                Ok(user) => user,
                Err(e) => {
                    // An armed deadline is per-check: don't leak it into
                    // the next program when this one dies in the parser.
                    self.deadline = None;
                    return Err(malformed(&e));
                }
            };
            return self.check_cold(user, source, &[], &[]);
        }
        let tokens = match p4bid_syntax::lex(source) {
            Ok(t) => t,
            Err(e) => {
                self.deadline = None;
                return Err(malformed(&e));
            }
        };
        let segs = p4bid_syntax::item_segments(source, &tokens);
        let sighted = match self.probe(source, &tokens, &segs) {
            Ok((lattice, entry)) => {
                return self.resume_with(source, &tokens, &segs, lattice, entry)
            }
            Err(sighted) => sighted,
        };
        self.prefix_misses += 1;
        let user = match p4bid_syntax::parse_tokens(source, &tokens) {
            Ok(user) => user,
            Err(e) => {
                self.deadline = None;
                return Err(malformed(&e));
            }
        };
        self.check_cold(user, source, &segs, &sighted)
    }

    /// Checks an already-parsed user program against the session prelude.
    /// (No prefix snapshots are taken or used on this path: the chain
    /// hash is derived from source bytes, which a pre-parsed program no
    /// longer has.)
    ///
    /// # Errors
    ///
    /// Returns the full list of type/flow errors.
    pub fn check_parsed(&mut self, user: Program) -> Result<TypedProgram, Vec<Diagnostic>> {
        self.check_cold(user, "", &[], &[])
    }

    /// The cold check path: full run over all user items. It collects a
    /// checkpoint at item boundary `d` only if `sighted[d]` — the
    /// boundary's chain was sighted before this check, so the prefix is
    /// being reused — and only when the splitter's segmentation aligns
    /// with the parse (one segment per item). A program seen for the
    /// first time clones no state and renders no flow log.
    fn check_cold(
        &mut self,
        user: Program,
        source: &str,
        segs: &[ItemSeg],
        sighted: &[bool],
    ) -> Result<TypedProgram, Vec<Diagnostic>> {
        let deadline = self.deadline.take().or_else(|| self.opts.deadline_from_now());
        let lattice = resolve_lattice(&user, &self.opts)?;
        let default_pc = resolve_default_pc(&lattice, &self.opts)?;
        let state = CheckerState::clone(&*self.prelude_state(&lattice)?);
        let collect = if segs.len() == user.items.len() { sighted } else { &[] };

        let out = {
            let mut ctx = self.ctx.borrow_mut();
            check_items_run(
                &user.items,
                &lattice,
                &self.opts,
                default_pc,
                &mut ctx,
                state,
                deadline,
                None,
                collect,
            )?
        };

        // The interpreter needs the prelude definitions in the program
        // body, exactly as `check_source` includes them; the view shares
        // them (and the user items) instead of deep-copying.
        let (items, controls) = if let Some(seed) = out.seed_edges {
            let items = Arc::new(user.items);
            let controls = Arc::new(out.controls);
            let seed = Arc::new(seed);
            self.insert_checkpoints(
                source,
                segs,
                &lattice,
                &items,
                &controls,
                &seed,
                out.checkpoints,
            );
            (items, (*controls).clone())
        } else {
            (Arc::new(user.items), out.controls)
        };
        let items_len = items.len();
        Ok(TypedProgram {
            lattice,
            defs: out.state.defs,
            controls,
            program: ProgramView::new(Arc::clone(&self.prelude), items, items_len, Vec::new()),
            ctx: Rc::clone(&self.ctx),
            lineage: out.lineage,
        })
    }

    /// Probes for the deepest matching prefix snapshot. On a miss it
    /// sights every boundary's chain under the same lock and returns, per
    /// boundary, whether that chain had been sighted before — the set of
    /// boundaries the cold check should snapshot. The probe itself is
    /// skipped when the lattice cannot be pre-resolved conservatively.
    fn probe(
        &mut self,
        source: &str,
        tokens: &[Token],
        segs: &[ItemSeg],
    ) -> Result<(Lattice, PrefixEntry), Vec<bool>> {
        if segs.is_empty() {
            return Err(Vec::new());
        }
        let lattice = self.quick_lattice(source, tokens, segs);
        let mut cache = lock(&self.shared.prefix);
        let entry = lattice.as_ref().and_then(|lattice| {
            (0..segs.len()).rev().find_map(|d| {
                cache.probe(
                    segs[d].chain,
                    lattice,
                    &source[..segs[d].byte_end as usize],
                    (d + 1) as u32,
                )
            })
        });
        match (lattice, entry) {
            (Some(lattice), Some(entry)) => {
                drop(cache);
                self.prefix_hits += 1;
                self.prefix_items_saved += u64::from(entry.items);
                Ok((lattice, entry))
            }
            _ => Err(segs.iter().map(|s| cache.sight(s.chain)).collect()),
        }
    }

    /// Completes a snapshot hit: parses and checks only the suffix past
    /// the snapshot's item boundary, seeding the run with the snapshot's
    /// state, controls, and rendered flow log so verdicts, diagnostics,
    /// and lineage come out byte-identical to a cold check.
    fn resume_with(
        &mut self,
        source: &str,
        tokens: &[Token],
        segs: &[ItemSeg],
        lattice: Lattice,
        entry: PrefixEntry,
    ) -> Result<TypedProgram, Vec<Diagnostic>> {
        let seg = &segs[entry.items as usize - 1];
        // Item boundaries are statement boundaries of a known-parseable
        // prefix, and the parser carries no cross-item state, so parsing
        // the suffix tokens reproduces the tail of a full parse exactly
        // (spans are absolute into the same `source`).
        let suffix = match p4bid_syntax::parse_tokens(source, &tokens[seg.token_end as usize..]) {
            Ok(p) => p,
            Err(e) => {
                self.deadline = None;
                return Err(vec![Diagnostic::new(
                    DiagCode::Malformed,
                    e.message().to_string(),
                    e.span(),
                )]);
            }
        };
        let deadline = self.deadline.take().or_else(|| self.opts.deadline_from_now());
        let default_pc = resolve_default_pc(&lattice, &self.opts)?;
        let resume = ResumeSeed {
            seed: Arc::clone(&entry.seed),
            edges_len: entry.edges_len,
            controls: Arc::clone(&entry.controls),
            controls_len: entry.controls_len,
        };
        let out = {
            let mut ctx = self.ctx.borrow_mut();
            check_items_run(
                &suffix.items,
                &lattice,
                &self.opts,
                default_pc,
                &mut ctx,
                entry.state,
                deadline,
                Some(resume),
                &[],
            )?
        };
        // O(suffix) assembly: the prefix AST is the snapshot's `Arc`,
        // never deep-copied — the point of resuming.
        Ok(TypedProgram {
            lattice,
            defs: out.state.defs,
            controls: out.controls,
            program: ProgramView::new(
                Arc::clone(&self.prelude),
                Arc::clone(&entry.items_ast),
                entry.items as usize,
                suffix.items,
            ),
            ctx: Rc::clone(&self.ctx),
            lineage: out.lineage,
        })
    }

    /// Conservatively resolves the lattice a submission will check under
    /// *without parsing it* — the prefix-cache key needs it up front.
    /// Mirrors [`resolve_lattice`]: the options override wins; otherwise
    /// a `lattice { … }` declaration can only be a top-level item, so the
    /// first token of the first segment decides. Any situation the quick
    /// scan cannot settle byte-for-byte (a declaration past the first
    /// item, a malformed declaration) returns `None` and the cold path
    /// decides.
    fn quick_lattice(&self, source: &str, tokens: &[Token], segs: &[ItemSeg]) -> Option<Lattice> {
        if let Some(l) = &self.opts.lattice {
            return Some(l.clone());
        }
        let word_at = |tok_ix: usize| -> &str {
            let t = &tokens[tok_ix];
            if matches!(t.kind, TokenKind::Ident) {
                &source[t.span.start as usize..t.span.end as usize]
            } else {
                ""
            }
        };
        for i in 1..segs.len() {
            if word_at(segs[i - 1].token_end as usize) == "lattice" {
                return None;
            }
        }
        if word_at(0) == "lattice" {
            let decl = p4bid_syntax::parse_lattice_decl(source, tokens).ok()?;
            lattice_from_decl(&decl).ok()
        } else {
            Some(Lattice::two_point())
        }
    }

    /// The tier boundaries a snapshot's handles must lie below to be
    /// valid beyond this session: the frozen segment sizes on the
    /// shared-core path, unbounded for a root-tier session (whose cache
    /// is private, and whose ids survive [`freeze`](CheckerSession::freeze)
    /// verbatim).
    fn tier_limits(&self) -> (usize, usize) {
        let ctx = self.ctx.borrow();
        let (frozen_syms, _) = ctx.syms.tier_sizes();
        let (frozen_types, _) = ctx.types.tier_sizes();
        if frozen_syms == 0 {
            (usize::MAX, usize::MAX)
        } else {
            (frozen_syms, frozen_types)
        }
    }

    /// Records the checkpoints of a clean, aligned cold run — one per
    /// boundary whose chain was sighted before — into the shared prefix
    /// cache. Only tier-pure checkpoints are inserted (state append-only
    /// ⟹ purity is prefix-monotone, so the scan stops at the first
    /// impure one); failed and timed-out runs never reach here, which is
    /// what keeps panics and transient verdicts from poisoning the
    /// snapshot tree.
    #[allow(clippy::too_many_arguments)]
    fn insert_checkpoints(
        &mut self,
        source: &str,
        segs: &[ItemSeg],
        lattice: &Lattice,
        items: &Arc<Vec<p4bid_ast::surface::Item>>,
        controls: &Arc<Vec<crate::TypedControl>>,
        seed: &Arc<crate::prefix::SeedEdges>,
        checkpoints: Vec<crate::checker::RunCheckpoint>,
    ) {
        let (max_sym, max_ty) = self.tier_limits();
        let mut cache = lock(&self.shared.prefix);
        for cp in checkpoints {
            if !cp.state.within_tiers(max_sym, max_ty)
                || !controls[..cp.controls_len as usize]
                    .iter()
                    .all(|c| control_within_tiers(c, max_sym, max_ty))
            {
                break;
            }
            let seg = &segs[cp.items_done as usize - 1];
            cache.insert(
                seg.chain,
                PrefixEntry::new(
                    lattice.clone(),
                    source[..seg.byte_end as usize].into(),
                    cp.items_done,
                    cp.state,
                    Arc::clone(items),
                    Arc::clone(controls),
                    cp.controls_len,
                    Arc::clone(seed),
                    cp.edges_len,
                ),
            );
            self.prefix_inserts += 1;
        }
    }

    /// The checked-prelude snapshot for a lattice, built on first use.
    ///
    /// Program-supplied lattices go through a publish-once side table on
    /// the shared core: the table lock is held across the build, so N
    /// workers racing on the same new lattice build its state exactly
    /// once (the `lattice_states_published` counter proves it). Only
    /// tier-pure states are published; impure ones stay session-local
    /// and are promoted by the next refreeze instead.
    fn prelude_state(&mut self, lattice: &Lattice) -> Result<Arc<CheckerState>, Vec<Diagnostic>> {
        if let Some(ix) = self.states.iter().position(|(l, _)| l == lattice) {
            return Ok(Arc::clone(&self.states[ix].1));
        }
        let shared = Arc::clone(&self.shared);
        let mut table = lock(&shared.lattice_states);
        if let Some((_, state)) = table.iter().find(|(l, _)| l == lattice) {
            self.lattice_state_hits += 1;
            let state = Arc::clone(state);
            self.states.push((lattice.clone(), Arc::clone(&state)));
            return Ok(state);
        }
        let default_pc = resolve_default_pc(lattice, &self.opts)?;
        self.prelude_checks += 1;
        let (_, state, _) = {
            let mut ctx = self.ctx.borrow_mut();
            // The prelude is trusted input and its snapshot is shared by
            // every later program — it never runs under a deadline.
            check_items(
                &self.prelude.items,
                lattice,
                &self.opts,
                default_pc,
                &mut ctx,
                CheckerState::empty(),
                None,
            )
            .map_err(|diags| {
                // Unreachable for the shipped prelude (it is unannotated and
                // well-typed under every lattice); surfaced defensively.
                debug_assert!(false, "prelude failed to check: {diags:?}");
                diags
            })?
        };
        let state = Arc::new(state);
        self.states.push((lattice.clone(), Arc::clone(&state)));
        let (max_sym, max_ty) = self.tier_limits();
        if state.within_tiers(max_sym, max_ty) {
            table.push((lattice.clone(), Arc::clone(&state)));
            self.lattice_states_published += 1;
        }
        Ok(state)
    }
}

/// What one worker session learned, harvested by
/// [`CheckerSession::into_harvest`] for [`SharedSessionCore::refreeze`]:
/// the overlay interner/pool tables plus any checked-prelude states the
/// session built for program-supplied lattices.
#[derive(Debug)]
pub struct SessionHarvest {
    pub(crate) overlay: CtxOverlay,
    pub(crate) new_states: Vec<(Lattice, CheckerState)>,
}

/// An immutable, `Send + Sync` snapshot of a warmed [`CheckerSession`]:
/// the frozen interner/pool segments, the parsed prelude, and the
/// per-lattice checked-prelude states.
///
/// Built once (via [`SharedSessionCore::new`] or
/// [`CheckerSession::freeze`]) and shared across worker threads via `Arc`;
/// each worker calls [`session`](SharedSessionCore::session) to get a
/// private overlay session that starts fully warm — no prelude re-lex,
/// re-parse, or re-check, ever.
#[derive(Debug, Clone)]
pub struct SharedSessionCore {
    opts: CheckOptions,
    /// The frozen interner + pool segment every worker overlays.
    ctx: Arc<FrozenTyCtx>,
    /// The parsed prelude (shared by handle with each worker session).
    prelude: Arc<Program>,
    /// Checked-prelude snapshots frozen with the core, shared by handle.
    /// Every `Symbol` and `TyId` inside points into the frozen segment.
    states: Vec<(Lattice, Arc<CheckerState>)>,
    /// The cross-session caches (prefix snapshots, publish-once lattice
    /// states), shared by every session of this core and carried across
    /// refreezes.
    shared: Arc<CoreShared>,
}

impl SharedSessionCore {
    /// Builds and freezes a warmed session in one step.
    #[must_use]
    pub fn new(opts: CheckOptions) -> Self {
        CheckerSession::new(opts).freeze()
    }

    /// Builds a core whose shared prefix-snapshot cache holds at most
    /// `cap` entries (`0` disables prefix snapshotting).
    #[must_use]
    pub fn with_prefix_cache_cap(opts: CheckOptions, cap: usize) -> Self {
        CheckerSession::new(opts).with_prefix_cache_cap(cap).freeze()
    }

    /// The bound of this core's shared prefix-snapshot cache.
    #[must_use]
    pub fn prefix_cache_cap(&self) -> usize {
        self.shared.prefix_cap
    }

    /// Number of prefix snapshots currently held by this core's cache.
    #[must_use]
    pub fn prefix_cache_len(&self) -> usize {
        lock(&self.shared.prefix).len()
    }

    /// The options every session cloned off this core checks under.
    #[must_use]
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// The frozen `(symbol, type)` segment sizes of this core.
    #[must_use]
    pub fn frozen_sizes(&self) -> (usize, usize) {
        (self.ctx.syms.len(), self.ctx.types.len())
    }

    /// A fresh per-worker session: a private overlay over the frozen
    /// segment, with the prelude program and the per-lattice
    /// checked-prelude snapshots cloned in. Costs a few table clones —
    /// roughly 10–100× cheaper than a cold [`CheckerSession::new`] +
    /// prelude check.
    #[must_use]
    pub fn session(&self) -> CheckerSession {
        CheckerSession {
            opts: self.opts.clone(),
            ctx: TyCtx::shared_with_base(&self.ctx),
            prelude: self.prelude.clone(),
            core_states: self.states.len(),
            states: self.states.clone(),
            deadline: None,
            shared: Arc::clone(&self.shared),
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_inserts: 0,
            prefix_items_saved: 0,
            lattice_state_hits: 0,
            lattice_states_published: 0,
            prelude_checks: 0,
        }
    }

    /// Merges harvested per-worker overlays into a fatter frozen root:
    /// overlay symbols, types, lattices, and push-memo entries are
    /// re-interned into the new frozen segment (children before parents,
    /// ids remapped), and harvested checked-prelude states for new
    /// lattices are remapped and adopted (first harvest wins per
    /// lattice). Existing frozen ids are preserved verbatim, so the
    /// shared caches — prefix snapshots included — stay valid and are
    /// carried over: frequently seen program-local symbols and types now
    /// start warm in every worker, and snapshots taken by one worker
    /// serve them all.
    #[must_use]
    pub fn refreeze(&self, harvests: Vec<SessionHarvest>) -> SharedSessionCore {
        let mut overlays = Vec::with_capacity(harvests.len());
        let mut state_lists = Vec::with_capacity(harvests.len());
        for h in harvests {
            overlays.push(h.overlay);
            state_lists.push(h.new_states);
        }
        let (ctx, remaps) = self.ctx.refreeze(&overlays);
        let mut states = self.states.clone();
        for (new_states, remap) in state_lists.iter().zip(&remaps) {
            for (lat, st) in new_states {
                if !states.iter().any(|(l, _)| l == lat) {
                    states.push((lat.clone(), Arc::new(st.remap(remap))));
                }
            }
        }
        SharedSessionCore {
            opts: self.opts.clone(),
            ctx: Arc::new(ctx),
            prelude: Arc::clone(&self.prelude),
            states,
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Tier sizes and frozen-segment hit counters of one session (see
/// [`CheckerSession::stats`]); batch drivers aggregate one per worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Interner frozen-segment size (0 for cold sessions).
    pub frozen_syms: usize,
    /// Interner overlay size (names first seen by this session).
    pub overlay_syms: usize,
    /// Pool frozen-segment size (0 for cold sessions).
    pub frozen_types: usize,
    /// Pool overlay size (types first built by this session).
    pub overlay_types: usize,
    /// Symbol intern calls answered by the frozen segment.
    pub sym_frozen_hits: u64,
    /// Total symbol intern calls.
    pub sym_intern_calls: u64,
    /// Type intern calls answered by the frozen segment.
    pub ty_frozen_hits: u64,
    /// Total type intern calls.
    pub ty_intern_calls: u64,
    /// `push_label` calls answered by the `(TyId, Label)` memo.
    pub push_cache_hits: u64,
    /// Checks served from a prefix snapshot (suffix-only re-check).
    pub prefix_hits: u64,
    /// Checks that consulted the prefix cache and fell through cold.
    pub prefix_misses: u64,
    /// Prefix snapshots recorded by this session's clean cold runs.
    pub prefix_inserts: u64,
    /// Top-level items whose re-check a prefix snapshot skipped.
    pub prefix_items_saved: u64,
    /// Program-lattice prelude states adopted from the publish-once
    /// shared table instead of being rebuilt.
    pub lattice_state_hits: u64,
    /// Program-lattice prelude states this session built *and* published
    /// to the shared table (pure states only).
    pub lattice_states_published: u64,
    /// Times the session type-checked the prelude: once per lattice on a
    /// cold session, never for a lattice its shared core froze.
    pub prelude_checks: u64,
}

impl SessionStats {
    /// Accumulates another worker's counters into this one (tier sizes
    /// take the maximum — the frozen segment is shared, overlays are
    /// summed).
    pub fn absorb(&mut self, other: &SessionStats) {
        self.frozen_syms = self.frozen_syms.max(other.frozen_syms);
        self.frozen_types = self.frozen_types.max(other.frozen_types);
        self.overlay_syms += other.overlay_syms;
        self.overlay_types += other.overlay_types;
        self.sym_frozen_hits += other.sym_frozen_hits;
        self.sym_intern_calls += other.sym_intern_calls;
        self.ty_frozen_hits += other.ty_frozen_hits;
        self.ty_intern_calls += other.ty_intern_calls;
        self.push_cache_hits += other.push_cache_hits;
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.prefix_inserts += other.prefix_inserts;
        self.prefix_items_saved += other.prefix_items_saved;
        self.lattice_state_hits += other.lattice_state_hits;
        self.lattice_states_published += other.lattice_states_published;
        self.prelude_checks += other.prelude_checks;
    }

    /// Fraction of symbol intern calls served by the frozen segment.
    #[must_use]
    pub fn sym_hit_rate(&self) -> f64 {
        if self.sym_intern_calls == 0 {
            0.0
        } else {
            self.sym_frozen_hits as f64 / self.sym_intern_calls as f64
        }
    }

    /// Fraction of type intern calls served by the frozen segment.
    #[must_use]
    pub fn ty_hit_rate(&self) -> f64 {
        if self.ty_intern_calls == 0 {
            0.0
        } else {
            self.ty_frozen_hits as f64 / self.ty_intern_calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_source, Mode, PRELUDE};

    #[test]
    fn session_matches_one_shot_results() {
        let sources = [
            "control C(inout bit<8> x) { apply { x = x + 8w1; } }",
            "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
            "lattice { bot < A; bot < B; A < top; B < top; }\n\
             control C(inout <bit<8>, A> a, inout <bit<8>, B> b) { apply { a = b; } }",
            "control C(inout bit<8> x) { apply { mark_to_drop_missing(); } }",
        ];
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let mut cold = CheckerSession::new(CheckOptions::ifc());
        let mut shared = core.session();
        for _ in 0..2 {
            for src in sources {
                let one_shot = check_source(src, &CheckOptions::ifc());
                for session in [&mut cold, &mut shared] {
                    let via_session = session.check(src);
                    match (&one_shot, via_session) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.controls.len(), b.controls.len());
                            assert_eq!(a.lattice, b.lattice);
                            assert_eq!(a.program, b.program);
                        }
                        (Err(a), Err(b)) => {
                            let codes =
                                |ds: &[Diagnostic]| ds.iter().map(|d| d.code).collect::<Vec<_>>();
                            assert_eq!(codes(a), codes(&b), "{src}");
                            let spans =
                                |ds: &[Diagnostic]| ds.iter().map(|d| d.span).collect::<Vec<_>>();
                            assert_eq!(spans(a), spans(&b), "{src}");
                        }
                        (a, b) => panic!("verdicts diverge on {src}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn session_caches_one_state_per_lattice() {
        let mut session = CheckerSession::new(CheckOptions::ifc());
        let two_point = "control C(inout <bit<8>, high> h) { apply { h = 8w1; } }";
        let diamond = "lattice { bot < A; bot < B; A < top; B < top; }\n\
                       control C(inout <bit<8>, A> a) { apply { a = 8w1; } }";
        for _ in 0..3 {
            session.check(two_point).expect("accepts");
            session.check(diamond).expect("accepts");
        }
        assert_eq!(session.states.len(), 2, "one snapshot per distinct lattice");
    }

    #[test]
    fn session_parse_errors_are_malformed_diags() {
        let mut session = CheckerSession::new(CheckOptions::ifc());
        let errs = session.check("control {").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].code, DiagCode::Malformed);
        // The session survives a parse error and keeps checking.
        assert!(session.check("control C(inout bit<8> x) { apply { } }").is_ok());
    }

    #[test]
    fn base_mode_session_accepts_leaks() {
        let mut session = CheckerSession::new(CheckOptions::base());
        assert_eq!(session.options().mode, Mode::Base);
        let leak = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }";
        session.check(leak).expect("base mode ignores labels");
    }

    #[test]
    fn session_respects_ambient_pc() {
        let mut session = CheckerSession::new(CheckOptions::ifc().with_pc("high"));
        let errs =
            session.check("control C(inout <bit<8>, low> l) { apply { l = 8w1; } }").unwrap_err();
        assert!(errs.iter().any(|d| d.code == DiagCode::ImplicitFlow), "{errs:?}");
    }

    #[test]
    fn prelude_text_is_nonempty() {
        assert!(PRELUDE.contains("standard_metadata_t"));
    }

    #[test]
    fn shared_core_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedSessionCore>();
    }

    #[test]
    fn core_sessions_start_warm_and_stay_private() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let (frozen_syms, frozen_types) = core.frozen_sizes();
        assert!(frozen_syms > 0 && frozen_types > 4, "core froze the prelude universe");

        let mut a = core.session();
        let mut b = core.session();
        let stats = a.stats();
        assert_eq!(stats.frozen_syms, frozen_syms);
        assert_eq!(stats.frozen_types, frozen_types);
        assert_eq!((stats.overlay_syms, stats.overlay_types), (0, 0), "born with empty overlays");
        assert_eq!(a.states.len(), 1, "default-lattice snapshot cloned in");

        // `bit<32>` and `num_bits_set` live in the frozen prelude segment.
        a.check("control C(inout bit<32> x) { apply { x = num_bits_set(x); } }").expect("accepts");
        let sa = a.stats();
        assert!(sa.sym_frozen_hits > 0, "prelude names served frozen: {sa:?}");
        assert!(sa.ty_frozen_hits > 0, "prelude types served frozen: {sa:?}");
        // b's overlay is untouched by a's checking.
        assert_eq!(b.stats().overlay_syms, 0);
        b.check("control D(inout bit<16> y) { apply { y = y + 16w1; } }").expect("accepts");
    }

    #[test]
    fn core_sessions_handle_new_lattices_locally() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let mut session = core.session();
        let diamond = "lattice { bot < A; bot < B; A < top; B < top; }\n\
                       control C(inout <bit<8>, A> a) { apply { a = 8w1; } }";
        session.check(diamond).expect("accepts");
        assert_eq!(session.states.len(), 2, "new lattice snapshot built in the overlay");
    }

    #[test]
    #[should_panic(expected = "tiers do not stack")]
    fn refreezing_a_core_session_panics() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let _ = core.session().freeze();
    }

    #[test]
    fn bad_ambient_pc_is_a_diagnostic_not_a_panic() {
        // An unknown `--pc` label must surface per check (as it does on
        // the cold path), not blow up core construction / warming.
        let core = SharedSessionCore::new(CheckOptions::ifc().with_pc("bogus"));
        let mut session = core.session();
        let errs = session.check("control C(inout bit<8> x) { apply { } }").unwrap_err();
        assert!(errs.iter().any(|d| d.code == DiagCode::UnknownLabel), "{errs:?}");
    }

    /// Cold sessions are root-tier, so every snapshot is tier-pure and
    /// the private prefix cache engages immediately: handy for pinning
    /// resume ≡ cold equivalence without a refreeze in the loop.
    #[test]
    fn prefix_resume_matches_cold_check_bytes() {
        let base = "typedef bit<8> octet;\n\
                    header h_t { <octet, high> secret; <octet, low> public; }\n\
                    function octet idf(in octet x) { return x; }\n\
                    control C(inout h_t h) { apply { h.public = idf(h.public); } }\n";
        // One accepting and one leaking final control, plus an edited
        // middle item (which invalidates deeper snapshots).
        let tails = [
            "control D(inout h_t h) { apply { h.public = h.public + 8w1; } }",
            "control D(inout h_t h) { apply { h.public = h.secret; } }",
            "control D(inout h_t h, inout <bit<8>, low> out_b) { apply { out_b = idf(h.secret); } }",
        ];
        let mut warm = CheckerSession::new(CheckOptions::ifc());
        let first = format!("{base}{}", tails[0]);
        // Snapshots are pay-on-reuse: the first check only sights the
        // chains, the second snapshots every boundary.
        warm.check(&first).expect("accepts");
        warm.check(&first).expect("accepts");
        assert!(warm.stats().prefix_inserts >= 4, "sighted run snapshots every item boundary");
        for tail in tails {
            let src = format!("{base}{tail}");
            let mut cold = CheckerSession::new(CheckOptions::ifc()).with_prefix_cache_cap(0);
            let a = warm.check(&src);
            let b = cold.check(&src);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.program, b.program, "{tail}");
                    assert_eq!(a.controls, b.controls, "{tail}");
                    assert_eq!(format!("{:?}", a.lineage), format!("{:?}", b.lineage), "{tail}");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{tail}");
                }
                (a, b) => panic!("verdicts diverge on {tail}: {a:?} vs {b:?}"),
            }
        }
        let stats = warm.stats();
        assert!(stats.prefix_hits >= 3, "every resubmission resumed: {stats:?}");
        // Each resumed check skipped the 4 unchanged prefix items.
        assert!(stats.prefix_items_saved >= 12, "{stats:?}");
    }

    #[test]
    fn prefix_resume_replays_lineage_seed_edges() {
        // The violation's origin lies in the *prefix* (the `h.secret`
        // read flows through `tmp`), so the explanation path of the
        // resumed run must replay seeded edges byte-identically.
        let prefix = "control C(inout <bit<8>, high> h, inout <bit<8>, low> l) {\n\
                      apply { }\n\
                      }\n";
        let leak = "control D(inout <bit<8>, high> h2, inout <bit<8>, low> l2) {\n\
                    apply { l2 = h2; }\n\
                    }";
        let src = format!("{prefix}{leak}");
        let mut warm = CheckerSession::new(CheckOptions::ifc());
        let ok = format!("{prefix}control D(inout bit<8> x) {{ apply {{ }} }}");
        // The first check sights the prefix, the second snapshots it.
        warm.check(&ok).expect("accepts");
        warm.check(&ok).expect("accepts");
        let resumed = warm.check(&src).unwrap_err();
        assert_eq!(warm.stats().prefix_hits, 1);
        let cold = CheckerSession::new(CheckOptions::ifc())
            .with_prefix_cache_cap(0)
            .check(&src)
            .unwrap_err();
        assert_eq!(format!("{resumed:?}"), format!("{cold:?}"));
    }

    /// Asserts that `got` matches a check of `src` with prefix snapshots
    /// disabled: same program, lineage, controls and diagnostics (the
    /// controls by their id-free fields, so sessions on different tiers
    /// compare).
    fn assert_same_as_cold(got: Result<TypedProgram, Vec<Diagnostic>>, src: &str) {
        let cold = CheckerSession::new(CheckOptions::ifc()).with_prefix_cache_cap(0).check(src);
        let controls = |p: &TypedProgram| {
            p.controls.iter().map(|c| (c.name.clone(), c.pc, c.tables.clone())).collect::<Vec<_>>()
        };
        match (got, cold) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.program, b.program, "{src}");
                assert_eq!(controls(&a), controls(&b), "{src}");
                assert_eq!(format!("{:?}", a.lineage), format!("{:?}", b.lineage), "{src}");
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{src}"),
            (a, b) => panic!("verdicts diverge on {src}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn snapshots_are_paid_for_on_reuse() {
        let src = "typedef bit<8> octet;\n\
                   header h_t { <octet, high> secret; <octet, low> public; }\n\
                   function octet idf(in octet x) { return x; }\n\
                   control C(inout h_t h) { apply { h.public = idf(h.public); } }";
        let mut s = CheckerSession::new(CheckOptions::ifc());
        s.check(src).expect("accepts");
        let first = s.stats();
        assert_eq!((first.prefix_misses, first.prefix_inserts), (1, 0), "unseen: {first:?}");
        assert_eq!(lock(&s.shared.prefix).len(), 0);
        s.check(src).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 4, "one snapshot per sighted boundary");
        let resumed = s.check(src);
        let third = s.stats();
        assert_eq!((third.prefix_hits, third.prefix_items_saved, third.prefix_inserts), (1, 4, 4));
        assert_same_as_cold(resumed, src);
    }

    #[test]
    fn a_run_renders_its_seed_only_with_a_checkpoint() {
        let src = "header h_t { <bit<8>, high> f; }\n\
                   control C(inout h_t h, inout <bit<8>, high> g) { apply { g = h.f; } }";
        let user = p4bid_syntax::parse(src).expect("parses");
        let mut s = CheckerSession::new(CheckOptions::ifc());
        let lattice = Lattice::two_point();
        let default_pc = resolve_default_pc(&lattice, &s.opts).expect("default pc");
        let state = s.prelude_state(&lattice).expect("prelude checks");
        for (collect, taken) in [(&[][..], 0), (&[false, false], 0), (&[false, true], 1)] {
            let out = check_items_run(
                &user.items,
                &lattice,
                &s.opts,
                default_pc,
                &mut s.ctx.borrow_mut(),
                CheckerState::clone(&state),
                None,
                None,
                collect,
            )
            .expect("accepts");
            assert_eq!(out.checkpoints.len(), taken, "{collect:?}");
            assert_eq!(out.seed_edges.is_some(), taken > 0, "{collect:?}");
            assert!(!out.lineage.edges().is_empty(), "the run has flow edges to render");
        }
    }

    #[test]
    fn a_source_sighted_before_a_refreeze_snapshots_after_it() {
        let src = "typedef bit<8> octet;\ncontrol C(inout octet x) { apply { x = x + 8w1; } }";
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let mut s = core.session();
        s.check(src).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 0);
        let core2 = core.refreeze(vec![s.into_harvest().expect("harvests")]);
        // A copy whose chain differs from byte 0 was never sighted, so it
        // snapshots nothing yet, though all its names are frozen now…
        let mut fresh = core2.session();
        let spaced = format!(" {src}");
        fresh.check(&spaced).expect("accepts");
        assert_eq!(fresh.stats().prefix_inserts, 0, "{:?}", fresh.stats());
        fresh.check(&spaced).expect("accepts");
        assert_eq!(fresh.stats().prefix_inserts, 2, "its own second check snapshots");
        // …while the source sighted before the refreeze snapshots now.
        let mut s2 = core2.session();
        s2.check(src).expect("accepts");
        assert_eq!(s2.stats().prefix_inserts, 2, "{:?}", s2.stats());
        let mut s3 = core2.session();
        let resumed = s3.check(src);
        assert_eq!(s3.stats().prefix_hits, 1);
        assert_same_as_cold(resumed, src);
    }

    #[test]
    fn a_full_sighting_bucket_only_delays_the_snapshot() {
        // Cap 1: a single bucket of four sightings, so four other programs
        // push `a`'s sighting out.
        assert_eq!(crate::prefix::sighting_slots(1), 4);
        let a = "control A(inout bit<8> x) { apply { x = x + 8w1; } }";
        let mut s = CheckerSession::new(CheckOptions::ifc()).with_prefix_cache_cap(1);
        s.check(a).expect("accepts");
        for i in 0..4 {
            s.check(&format!("control B{i}(inout bit<8> x) {{ apply {{ }} }}")).expect("accepts");
        }
        s.check(a).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 0, "a's sighting was pushed out");
        s.check(a).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 1, "one submission later, a snapshots");
        let resumed = s.check(a);
        assert_eq!(s.stats().prefix_hits, 1);
        assert_same_as_cold(resumed, a);
    }

    #[test]
    fn timed_out_runs_never_insert_snapshots() {
        let src = "typedef bit<8> octet;\ncontrol C(inout octet x) { apply { x = x + 8w1; } }";
        let mut session = CheckerSession::new(CheckOptions::ifc());
        session.set_deadline(Some(std::time::Instant::now() - std::time::Duration::from_millis(1)));
        let errs = session.check(src).unwrap_err();
        assert!(errs.iter().any(|d| d.code == DiagCode::Timeout));
        assert_eq!(session.stats().prefix_inserts, 0, "transient runs are refused");
        // The resubmission finds nothing to resume from…
        session.check(src).expect("accepts unguarded");
        assert_eq!(session.stats().prefix_hits, 0);
        // …but inserts now, so a third round resumes.
        session.check(src).expect("accepts");
        assert_eq!(session.stats().prefix_hits, 1);
    }

    #[test]
    fn failing_runs_never_insert_snapshots() {
        let mut session = CheckerSession::new(CheckOptions::ifc());
        let leak = "typedef bit<8> octet;\n\
                    control C(inout <octet, low> l, inout <octet, high> h) { apply { l = h; } }";
        session.check(leak).unwrap_err();
        assert_eq!(session.stats().prefix_inserts, 0, "failed runs leave no snapshots");
    }

    #[test]
    fn core_sessions_insert_only_tier_pure_snapshots() {
        // A fresh core's frozen segment knows nothing about the user
        // program's names, so its snapshots are impure and refused…
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let src = "typedef bit<8> octet;\ncontrol C(inout octet x) { apply { x = x + 8w1; } }";
        let mut s = core.session();
        s.check(src).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 0, "overlay handles are not publishable");
        // …until a refreeze promotes those names into the frozen segment.
        let harvest = s.into_harvest().expect("sole owner harvests");
        let core2 = core.refreeze(vec![harvest]);
        let mut s2 = core2.session();
        s2.check(src).expect("accepts");
        let stats = s2.stats();
        assert!(stats.prefix_inserts >= 2, "promoted names snapshot cleanly: {stats:?}");
        assert_eq!((stats.overlay_syms, stats.overlay_types), (0, 0), "fully warm resubmission");
        // A sibling session of the same core resumes from s2's snapshots.
        let mut s3 = core2.session();
        let edited = src.replace("x + 8w1", "x + 8w2");
        s3.check(&edited).expect("accepts");
        let stats3 = s3.stats();
        assert_eq!(stats3.prefix_hits, 1, "cross-session snapshot hit: {stats3:?}");
        assert_eq!(stats3.prefix_items_saved, 1);
    }

    #[test]
    fn pure_lattice_states_publish_once_across_siblings() {
        // A renamed two-point chain reuses every frozen type (its label
        // *indices* coincide with the warm lattice's), so its prelude
        // state is tier-pure and publishable: the first worker builds
        // it, every sibling adopts it from the shared table. The prefix
        // cache is disabled so the table is exercised in isolation (a
        // snapshot hit past the lattice decl would otherwise subsume it).
        let core = SharedSessionCore::with_prefix_cache_cap(CheckOptions::ifc(), 0);
        let chain = "lattice { lo < hi; }\n\
                     control C(inout <bit<8>, hi> a) { apply { a = a + 8w1; } }";
        let mut s = core.session();
        s.check(chain).expect("accepts");
        let stats = s.stats();
        assert_eq!(stats.lattice_states_published, 1, "{stats:?}");
        let mut sibling = core.session();
        sibling.check(chain).expect("accepts");
        let sib = sibling.stats();
        assert_eq!(sib.lattice_state_hits, 1, "publish-once table hit: {sib:?}");
        assert_eq!(sib.lattice_states_published, 0);
    }

    #[test]
    fn refreeze_adopts_harvested_lattice_states() {
        // The diamond's prelude state is *impure* (its inferred `pc_fn`
        // labels differ from the warm lattice's, so the prelude's
        // Function nodes are overlay-tier). It cannot be published to
        // the side table — a refreeze promotes it instead, so the next
        // generation's sessions are born with it.
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let diamond = "lattice { bot < A; bot < B; A < top; B < top; }\n\
                       control C(inout <bit<8>, A> a) { apply { a = 8w1; } }";
        let mut s = core.session();
        s.check(diamond).expect("accepts");
        assert_eq!(s.stats().lattice_states_published, 0, "impure state stays local");
        let core2 = core.refreeze(vec![s.into_harvest().expect("harvests")]);
        let mut s2 = core2.session();
        assert_eq!(s2.states.len(), 2, "born with the remapped diamond state");
        s2.check(diamond).expect("accepts");
        // The adopted state answered: nothing was rebuilt or re-pushed.
        assert_eq!(s2.states.len(), 2);
        assert_eq!(s2.stats().lattice_state_hits, 0);
    }

    #[test]
    fn prefix_cache_cap_zero_disables() {
        let core = SharedSessionCore::with_prefix_cache_cap(CheckOptions::ifc(), 0);
        assert_eq!(core.prefix_cache_cap(), 0);
        let mut s = core.session();
        let src = "control C(inout bit<8> x) { apply { } }";
        s.check(src).expect("accepts");
        s.check(src).expect("accepts");
        let stats = s.stats();
        assert_eq!((stats.prefix_hits, stats.prefix_misses, stats.prefix_inserts), (0, 0, 0));
        assert_eq!(core.prefix_cache_len(), 0);
        assert_eq!(lock(&core.shared.prefix).sighting_len(), 0, "cap 0 sights nothing");
    }

    #[test]
    fn the_sighting_table_is_allocated_on_first_use() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        assert_eq!(lock(&core.shared.prefix).sighting_len(), 0, "building a core allocates none");
        core.session().check("control C(inout bit<8> x) { apply { } }").expect("accepts");
        let slots = crate::prefix::sighting_slots(DEFAULT_PREFIX_CACHE_CAP);
        assert_eq!(lock(&core.shared.prefix).sighting_len(), slots);
    }

    #[test]
    fn push_memo_is_lattice_scoped_across_programs() {
        // Soundness regression: the same header checked under a *chain*
        // lattice (where A ⊔ B = B) and then under a *diamond* lattice
        // with the same element names (where A ⊔ B = ⊤) shares one pool —
        // the chain's label-push memo must not leak into the diamond
        // program, or the explicit flow below would be accepted.
        let chain_ok = "lattice { bot < A; A < B; B < top; }\n\
                        header h_t { <bit<8>, A> f; }\n\
                        control C(inout <h_t, B> x, inout <bit<8>, B> sink) {\n\
                            apply { sink = x.f; }\n\
                        }";
        let diamond_leak = "lattice { bot < A; bot < B; A < top; B < top; }\n\
                            header h_t { <bit<8>, A> f; }\n\
                            control C(inout <h_t, B> x, inout <bit<8>, B> sink) {\n\
                                apply { sink = x.f; }\n\
                            }";
        for warm_chain_first in [false, true] {
            let mut session = SharedSessionCore::new(CheckOptions::ifc()).session();
            if warm_chain_first {
                session.check(chain_ok).expect("chain program accepts: A ⊔ B = B flows to B");
            }
            let errs = session.check(diamond_leak).unwrap_err();
            assert!(
                errs.iter().any(|d| d.code == DiagCode::ExplicitFlow),
                "diamond leak must be rejected (warm_chain_first={warm_chain_first}): {errs:?}"
            );
        }
    }
}
