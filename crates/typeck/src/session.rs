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
//! A long-lived driver can fold what its workers interned back into the
//! core with [`SharedSessionCore::refreeze`]: the names, types and
//! push-memo entries of the harvested overlays join a new frozen segment,
//! so later workers find them warm. A refreeze promotes those tables and
//! nothing else. A checked-prelude state a worker built with overlay ids
//! is not carried across; the first session after the refreeze that needs
//! it rebuilds it once, over the now-frozen types, and publishes it to its
//! siblings.
//!
//! Every session of a core also shares the core's *item memo* (the
//! `prefix` module): each `control`'s diagnostics, keyed by the
//! declarations before it and its own bytes. [`CheckerSession::verdict`],
//! the entry the batch, serve and topo drivers use, answers controls seen
//! before from the memo, so an edit re-checks only the items it touched
//! (and the memo's guide table lets it split the new version of a file by
//! scanning only those items);
//! [`CheckerSession::check`] is the cold reference that returns the typed
//! program, and feeds the memo without reading it.
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
    check_items, resolve_default_pc, resolve_lattice, walk_items, CheckOptions, CheckerState,
    ProgramView, Step, TypedProgram, Walk,
};
use crate::diag::{DiagCode, Diagnostic};
use crate::prefix::{Guide, ItemMemo, Submission, GUIDE_BYTES};
use crate::prelude_arc;
use p4bid_ast::pool::{CtxOverlay, FrozenTyCtx, SharedTyCtx, TyCtx};
use p4bid_ast::surface::{Item, Program};
use p4bid_lattice::Lattice;
use p4bid_syntax::{ByteItem, ItemHead};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default bound on the shared item memo (entries, across all sessions of
/// one core), which also sizes its sighting table. Overridden by
/// `--prefix-cache-cap`; `0` disables the memo entirely.
pub const DEFAULT_PREFIX_CACHE_CAP: usize = 1024;

/// Locks a mutex, riding through poisoning: the protected caches are
/// always structurally valid (a poisoned run simply never recorded), and
/// panic-isolated drivers keep other workers running after a crash.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bound on the publish-once table of program-lattice prelude states (per
/// core). Past it, a new lattice's state stays local to the session that
/// built it, so a stream of ever-new lattices neither grows the table nor
/// lengthens its scan under the core-wide lock.
const LATTICE_STATE_CAP: usize = 64;

/// State shared by every session of one core (and carried across
/// refreezes): the item memo with its sighting table, which holds no
/// interner ids, and the publish-once table of checked-prelude states for
/// program-supplied lattices, whose frozen ids a refreeze keeps stable.
#[derive(Debug)]
struct CoreShared {
    /// Item memo bound (`0` disables; fixed at construction).
    memo_cap: usize,
    memo: Mutex<ItemMemo>,
    /// Checked-prelude states for lattices first seen after the freeze,
    /// published once by whichever core-tier session builds them first, at
    /// most [`LATTICE_STATE_CAP`] of them. Only frozen-pure states are
    /// publishable; the rest stay session-local.
    lattice_states: Mutex<Vec<(Lattice, Arc<CheckerState>)>>,
}

impl CoreShared {
    fn new(cap: usize) -> Self {
        CoreShared {
            memo_cap: cap,
            memo: Mutex::new(ItemMemo::new(cap)),
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
    /// The cross-session shared caches (private to this session when
    /// cold; shared with every sibling on the shared-core path).
    shared: Arc<CoreShared>,
    /// Item-memo counters (per session, summed by
    /// [`SessionStats::absorb`]).
    prefix_hits: u64,
    prefix_misses: u64,
    prefix_inserts: u64,
    prefix_items_saved: u64,
    /// Splits guided by an earlier version of the source.
    guided_splits: u64,
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
            shared: Arc::new(CoreShared::new(DEFAULT_PREFIX_CACHE_CAP)),
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_inserts: 0,
            prefix_items_saved: 0,
            guided_splits: 0,
            lattice_state_hits: 0,
            lattice_states_published: 0,
            prelude_checks: 0,
        }
    }

    /// Replaces the session's item memo with a fresh one of the given
    /// bound (`0` disables it), builder-style. Call before any checking:
    /// the memo starts empty.
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
            // Carried over: the memo and its guide table hold no ids. A
            // root-tier session publishes no lattice state (its own
            // `states` become the core's), so that table starts empty.
            shared: self.shared,
        }
    }

    /// Consumes the session, harvesting its overlay interner/pool tables
    /// for [`SharedSessionCore::refreeze`]. Returns `None` when the
    /// context is still referenced by live [`TypedProgram`]s or the
    /// session is root-tier (nothing to merge back).
    #[must_use]
    pub fn into_harvest(self) -> Option<SessionHarvest> {
        let ctx = Rc::try_unwrap(self.ctx).ok()?.into_inner();
        Some(SessionHarvest { overlay: ctx.into_overlay()? })
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
            guided_splits: self.guided_splits,
            lattice_state_hits: self.lattice_state_hits,
            lattice_states_published: self.lattice_states_published,
            prelude_checks: self.prelude_checks,
        }
    }

    /// Parses and checks one program, with the prelude available — the
    /// session-reuse equivalent of [`check_source`](crate::check_source).
    ///
    /// This is the cold reference path: it checks every item and returns
    /// the typed program. It never reads the item memo, but it sights and
    /// records its controls exactly as a [`verdict`](CheckerSession::verdict)
    /// that missed every item would.
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
        let mut plan = self.plan(source);
        if let Some(plan) = &mut plan {
            let mut memo = lock(&self.shared.memo);
            for (record, key) in plan.record.iter_mut().zip(&plan.sub.keys) {
                if let Some((key, _)) = key {
                    *record = memo.sight(*key);
                    self.prefix_misses += 1;
                }
            }
        }
        self.check_whole(source, plan)
    }

    /// Checks one program for its verdict alone: the entry the batch,
    /// serve, watch and topo drivers use, which report diagnostics and
    /// never look at a [`TypedProgram`].
    ///
    /// Controls the item memo has seen under the same state before are
    /// answered from it without being lexed, parsed or checked; every
    /// other item is, one lex and parse per run of consecutive misses.
    /// Whenever the byte split of the source is in doubt — it does not
    /// split, a run does not parse, or a run's parse disagrees with the
    /// split — the whole source goes down the [`check`](CheckerSession::check)
    /// path instead. The verdict and diagnostics are byte-identical to
    /// `check`'s either way.
    ///
    /// # Errors
    ///
    /// As [`check`](CheckerSession::check).
    pub fn verdict(&mut self, source: &str) -> Result<(), Vec<Diagnostic>> {
        if let Some(d) = crate::oversized_diag(source, &self.opts) {
            self.deadline = None;
            return Err(vec![d]);
        }
        let Some(mut plan) = self.plan(source) else {
            return self.check_whole(source, None).map(drop);
        };
        let mut reused: Vec<Option<Vec<Diagnostic>>> = Vec::with_capacity(plan.items.len());
        {
            let mut memo = lock(&self.shared.memo);
            for ((item, key), record) in plan.items.iter().zip(&plan.sub.keys).zip(&mut plan.record)
            {
                let hit = key.and_then(|(key, len)| {
                    let bytes = &source[item.start as usize..item.end as usize];
                    let hit = memo.probe(key, &plan.sub.state[..len as usize], bytes, item.start);
                    if hit.is_none() {
                        *record = memo.sight(key);
                    }
                    hit
                });
                reused.push(hit);
            }
        }
        let controls = plan.sub.keys.iter().flatten().count() as u64;
        let Some(parsed) = parse_misses(source, &plan.items, &reused) else {
            self.prefix_misses += controls;
            return self.check_whole(source, Some(plan)).map(drop);
        };
        let hits = reused.iter().flatten().count() as u64;
        self.prefix_hits += hits;
        self.prefix_items_saved += hits;
        self.prefix_misses += controls - hits;

        let deadline = self.deadline.take().or_else(|| self.opts.deadline_from_now());
        let lattice = resolve_lattice(&parsed, &self.opts)?;
        let default_pc = resolve_default_pc(&lattice, &self.opts)?;
        let state = CheckerState::clone(&*self.prelude_state(&lattice)?);
        let mut misses = parsed.items.iter();
        let steps = reused.into_iter().map(|hit| match hit {
            Some(diags) => Step::Reuse(diags),
            None => Step::Check(misses.next().expect("one parsed item per miss")),
        });
        let walk = {
            let mut ctx = self.ctx.borrow_mut();
            walk_items(steps, &lattice, &self.opts, default_pc, &mut ctx, state, deadline)
        };
        self.record(source, &plan, &walk);
        if walk.diags.is_empty() {
            Ok(())
        } else {
            Err(walk.diags)
        }
    }

    /// Checks an already-parsed user program against the session prelude.
    /// (The item memo is neither read nor fed on this path: its keys are
    /// source bytes, which a pre-parsed program no longer has.)
    ///
    /// # Errors
    ///
    /// Returns the full list of type/flow errors.
    pub fn check_parsed(&mut self, user: Program) -> Result<TypedProgram, Vec<Diagnostic>> {
        self.check_user(user, "", None)
    }

    /// The memo's plan for a source: its byte-split items and their keys,
    /// or `None` when the memo is disabled or the source does not split.
    /// When the guide table holds an earlier version of the source, the
    /// split scans only the items that changed since; the memo lock is
    /// held only to take the guide out and to put it back, not across the
    /// split.
    fn plan(&mut self, source: &str) -> Option<Plan> {
        if self.shared.memo_cap == 0 {
            return None;
        }
        let guide = lock(&self.shared.memo).guides.take(source);
        let split = match &guide {
            Some(g) => {
                self.guided_splits += 1;
                let split = p4bid_syntax::split_items_like(&g.source, &g.items, source);
                split.map(|(items, origins)| {
                    let sub = Submission::new(source, &items, Some((g, &origins)));
                    (items, sub)
                })
            }
            None => p4bid_syntax::split_items(source).map(|items| {
                let sub = Submission::new(source, &items, None);
                (items, sub)
            }),
        };
        self.remember(source, split.as_ref(), guide);
        let (items, sub) = split?;
        let record = vec![false; items.len()];
        Some(Plan { items, sub, record })
    }

    /// Puts the guide a split took back into the guide table, overwritten
    /// with this version of the source if it split. An unguided source
    /// that split is kept only if its first item had been sighted before.
    fn remember(
        &self,
        source: &str,
        split: Option<&(Vec<ByteItem>, Submission)>,
        guide: Option<Guide>,
    ) {
        let Some((items, sub)) = split else {
            if let Some(guide) = guide {
                lock(&self.shared.memo).guides.put(guide);
            }
            return;
        };
        let mut guide = match guide {
            Some(guide) => guide,
            None => {
                let Some(first) = items.first() else { return };
                let first = &source[..first.end as usize];
                if source.len() > GUIDE_BYTES || !lock(&self.shared.memo).guides.sight(first) {
                    return;
                }
                Guide::default()
            }
        };
        guide.set(source, items, sub);
        lock(&self.shared.memo).guides.put(guide);
    }

    /// Parses and checks the whole source, then records the controls
    /// `plan` marks if the parse agrees with its split.
    fn check_whole(
        &mut self,
        source: &str,
        plan: Option<Plan>,
    ) -> Result<TypedProgram, Vec<Diagnostic>> {
        match p4bid_syntax::parse(source) {
            Ok(user) => self.check_user(user, source, plan),
            Err(e) => {
                // An armed deadline is per-check: don't leak it into the
                // next program when this one dies in the parser.
                self.deadline = None;
                Err(vec![malformed(&e)])
            }
        }
    }

    /// The cold check path: walks every user item and assembles the typed
    /// program.
    fn check_user(
        &mut self,
        user: Program,
        source: &str,
        plan: Option<Plan>,
    ) -> Result<TypedProgram, Vec<Diagnostic>> {
        let deadline = self.deadline.take().or_else(|| self.opts.deadline_from_now());
        let lattice = resolve_lattice(&user, &self.opts)?;
        let default_pc = resolve_default_pc(&lattice, &self.opts)?;
        let state = CheckerState::clone(&*self.prelude_state(&lattice)?);
        let walk = {
            let mut ctx = self.ctx.borrow_mut();
            let steps = user.items.iter().map(Step::Check);
            walk_items(steps, &lattice, &self.opts, default_pc, &mut ctx, state, deadline)
        };
        if let Some(plan) = plan.filter(|p| aligned(&p.items, &user.items)) {
            self.record(source, &plan, &walk);
        }
        if !walk.diags.is_empty() {
            return Err(walk.diags);
        }
        // The interpreter needs the prelude definitions in the program
        // body, exactly as `check_source` includes them; the view shares
        // them instead of deep-copying.
        Ok(TypedProgram {
            lattice,
            defs: walk.state.defs,
            controls: walk.controls,
            program: ProgramView::new(Arc::clone(&self.prelude), user.items),
            ctx: Rc::clone(&self.ctx),
            lineage: walk.lineage,
        })
    }

    /// Records the controls `plan` marks (missed, and sighted before this
    /// check) with the diagnostics the walk gave them. A walk cut by its
    /// deadline records nothing.
    fn record(&mut self, source: &str, plan: &Plan, walk: &Walk) {
        if walk.timed_out || !plan.record.contains(&true) {
            return;
        }
        let mut memo = lock(&self.shared.memo);
        for (i, item) in plan.items.iter().enumerate() {
            let Some((key, len)) = plan.sub.keys[i].filter(|_| plan.record[i]) else { continue };
            let diags = &walk.diags[if i == 0 { 0 } else { walk.ends[i - 1] }..walk.ends[i]];
            if memo.record(key, (&plan.sub.state, len), source, (item.start, item.end), diags) {
                self.prefix_inserts += 1;
            }
        }
    }

    /// The frozen `(symbol, type)` segment sizes a lattice state's handles
    /// must lie below to be publishable to the core, or `None` for a
    /// root-tier session. That one publishes nothing: it finds its own
    /// states in `states` first, and [`freeze`](CheckerSession::freeze)
    /// makes them the core's.
    fn frozen_tiers(&self) -> Option<(usize, usize)> {
        let ctx = self.ctx.borrow();
        let (frozen_syms, _) = ctx.syms.tier_sizes();
        let (frozen_types, _) = ctx.types.tier_sizes();
        (frozen_syms > 0).then_some((frozen_syms, frozen_types))
    }

    /// The checked-prelude snapshot for a lattice, built on first use.
    ///
    /// Program-supplied lattices go through a publish-once side table on
    /// the shared core: the table lock is held across the build, so N
    /// workers racing on the same new lattice build its state exactly
    /// once (the `lattice_states_published` counter proves it). Only
    /// tier-pure states built by core-tier sessions are published, and
    /// only while the table is under [`LATTICE_STATE_CAP`]; the rest stay
    /// session-local. An impure state turns pure once a refreeze has
    /// frozen its types, so the first session after that rebuilds and
    /// publishes it.
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
        let publishable =
            self.frozen_tiers().is_some_and(|(syms, types)| state.within_tiers(syms, types));
        if table.len() < LATTICE_STATE_CAP && publishable {
            table.push((lattice.clone(), Arc::clone(&state)));
            self.lattice_states_published += 1;
        }
        Ok(state)
    }
}

/// The item memo's view of one submission (see [`CheckerSession::verdict`]).
struct Plan {
    items: Vec<ByteItem>,
    sub: Submission,
    /// Per item: record it after the walk (a control that missed and
    /// whose key had been sighted before).
    record: Vec<bool>,
}

/// The single diagnostic a parse error becomes.
fn malformed(e: &p4bid_syntax::ParseError) -> Diagnostic {
    Diagnostic::new(DiagCode::Malformed, e.message().to_string(), e.span())
}

/// Lexes and parses each run of consecutive items without a memo answer,
/// returning their items in order, or `None` when a run does not lex,
/// does not parse, or parses into items other than the split's.
fn parse_misses(
    source: &str,
    items: &[ByteItem],
    reused: &[Option<Vec<Diagnostic>>],
) -> Option<Program> {
    let mut parsed = Vec::new();
    let mut i = 0;
    while i < items.len() {
        if reused[i].is_some() {
            i += 1;
            continue;
        }
        let run = i;
        while i < items.len() && reused[i].is_none() {
            i += 1;
        }
        let range = items[run].start as usize..items[i - 1].end as usize;
        let tokens = p4bid_syntax::lex_range(source, range).ok()?;
        let program = p4bid_syntax::parse_tokens(source, &tokens).ok()?;
        if !aligned(&items[run..i], &program.items) {
            return None;
        }
        parsed.extend(program.items);
    }
    Some(Program { items: parsed })
}

/// Whether parsed items coincide with byte-split ones: as many, the same
/// ones controls, and ending where the split ends them (for the items
/// whose AST records a span).
fn aligned(split: &[ByteItem], parsed: &[Item]) -> bool {
    split.len() == parsed.len()
        && split.iter().zip(parsed).all(|(s, p)| {
            let end = match p {
                Item::Lattice(l) => Some(l.span.end),
                Item::Function(f) => Some(f.span.end),
                Item::Action(a) => Some(a.span.end),
                Item::Control(c) => Some(c.span.end),
                Item::Type(_) => None,
            };
            (s.head == ItemHead::Control) == matches!(p, Item::Control(_))
                && end.is_none_or(|end| end == s.end)
        })
}

/// What one worker session learned, harvested by
/// [`CheckerSession::into_harvest`] for [`SharedSessionCore::refreeze`]:
/// the overlay interner/pool tables.
#[derive(Debug)]
pub struct SessionHarvest {
    pub(crate) overlay: CtxOverlay,
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
    /// The cross-session caches (the item memo, publish-once lattice
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

    /// Builds a core whose shared item memo holds at most `cap` entries
    /// (`0` disables it).
    #[must_use]
    pub fn with_prefix_cache_cap(opts: CheckOptions, cap: usize) -> Self {
        CheckerSession::new(opts).with_prefix_cache_cap(cap).freeze()
    }

    /// The bound of this core's shared item memo.
    #[must_use]
    pub fn prefix_cache_cap(&self) -> usize {
        self.shared.memo_cap
    }

    /// Number of controls currently held by this core's item memo.
    #[must_use]
    pub fn prefix_cache_len(&self) -> usize {
        lock(&self.shared.memo).len()
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
            states: self.states.clone(),
            deadline: None,
            shared: Arc::clone(&self.shared),
            prefix_hits: 0,
            prefix_misses: 0,
            prefix_inserts: 0,
            prefix_items_saved: 0,
            guided_splits: 0,
            lattice_state_hits: 0,
            lattice_states_published: 0,
            prelude_checks: 0,
        }
    }

    /// Merges harvested per-worker overlays into a fatter frozen root:
    /// overlay symbols, types, lattices, and push-memo entries are
    /// re-interned into the new frozen segment (children before parents),
    /// so frequently seen program-local names and types start warm in
    /// every later worker. Nothing else is promoted. Existing frozen ids
    /// are preserved verbatim, so the core's own states and the published
    /// lattice states stay valid, and the item memo (which holds no ids)
    /// is carried over as it is. A state a worker built with overlay ids
    /// is dropped with its harvest: the next session that needs it
    /// rebuilds it with one prelude check and publishes it.
    #[must_use]
    pub fn refreeze(&self, harvests: Vec<SessionHarvest>) -> SharedSessionCore {
        let overlays: Vec<CtxOverlay> = harvests.into_iter().map(|h| h.overlay).collect();
        SharedSessionCore {
            opts: self.opts.clone(),
            ctx: Arc::new(self.ctx.refreeze(&overlays)),
            prelude: Arc::clone(&self.prelude),
            states: self.states.clone(),
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
    /// `control` items the item memo answered (not lexed, parsed or
    /// checked).
    pub prefix_hits: u64,
    /// `control` items the memo could not answer, so they were checked
    /// (every control of a [`CheckerSession::check`], which never reads
    /// the memo).
    pub prefix_misses: u64,
    /// Controls recorded into the memo by this session's checks.
    pub prefix_inserts: u64,
    /// Top-level items whose lex, parse and check the memo skipped. Only
    /// controls are memoized, so this equals `prefix_hits`; it stays for
    /// the ledgers that read it.
    pub prefix_items_saved: u64,
    /// Byte splits guided by an earlier version of the same file, which
    /// scan only the items that changed (not rendered by `--stats-json`).
    pub guided_splits: u64,
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
        self.guided_splits += other.guided_splits;
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

    /// Checks `src` twice (the first check sights its controls, the
    /// second records them) so later submissions can reuse them.
    fn record_twice(session: &mut CheckerSession, src: &str) {
        let _ = session.check(src);
        let _ = session.check(src);
    }

    /// Asserts that a verdict matches a check of `src` with the memo
    /// disabled: same acceptance, same diagnostics byte for byte.
    fn assert_same_as_cold(got: Result<(), Vec<Diagnostic>>, src: &str) {
        let cold = CheckerSession::new(CheckOptions::ifc()).with_prefix_cache_cap(0).check(src);
        match (got, cold) {
            (Ok(()), Ok(_)) => {}
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{src}"),
            (a, b) => panic!("verdicts diverge on {src}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn prefix_resume_matches_cold_check_bytes() {
        let base = "typedef bit<8> octet;\n\
                    header h_t { <octet, high> secret; <octet, low> public; }\n\
                    function octet idf(in octet x) { return x; }\n\
                    control C(inout h_t h) { apply { h.public = idf(h.public); } }\n";
        // One accepting and two leaking final controls: `C` is reused
        // every time, `D` only when its bytes were recorded.
        let tails = [
            "control D(inout h_t h) { apply { h.public = h.public + 8w1; } }",
            "control D(inout h_t h) { apply { h.public = h.secret; } }",
            "control D(inout h_t h, inout <bit<8>, low> out_b) { apply { out_b = idf(h.secret); } }",
        ];
        let mut warm = CheckerSession::new(CheckOptions::ifc());
        record_twice(&mut warm, &format!("{base}{}", tails[0]));
        assert_eq!(warm.stats().prefix_inserts, 2, "both controls recorded");
        for tail in tails {
            let src = format!("{base}{tail}");
            assert_same_as_cold(warm.verdict(&src), &src);
        }
        let stats = warm.stats();
        assert_eq!((stats.prefix_hits, stats.prefix_items_saved), (4, 4), "{stats:?}");
        // The two unseen tails missed, and were sighted for next time.
        assert_eq!(stats.prefix_misses, 4 + 2, "{stats:?}");
    }

    #[test]
    fn prefix_resume_replays_lineage_seed_edges() {
        // Both controls' diagnostics come from the memo once recorded.
        // `D`'s explanation path is its own flows only (a trace never
        // reaches into an earlier item), so the reused lineage lands at
        // the rebased positions byte-identically to a cold check.
        let src = "control C(inout <bit<8>, high> h, inout <bit<8>, low> l) {\n\
                   apply { <bit<8>, high> t = h; h = t; }\n\
                   }\n\
                   control D(inout <bit<8>, high> h, inout <bit<8>, low> l) {\n\
                   apply { <bit<8>, high> t = h; l = t; }\n\
                   }";
        let mut warm = CheckerSession::new(CheckOptions::ifc());
        record_twice(&mut warm, src);
        let moved = format!("// moved down\n\n{src}");
        let reused = warm.verdict(&moved);
        assert_eq!(warm.stats().prefix_hits, 2);
        let errs = reused.clone().unwrap_err();
        assert_eq!(errs[0].lineage.len(), 2, "`h` --init--> `t` --assign--> `l`: {errs:?}");
        assert_same_as_cold(reused, &moved);
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
        assert_eq!(lock(&s.shared.memo).len(), 0);
        s.check(src).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 1, "the control is recorded on its second sighting");
        let reused = s.verdict(src);
        let third = s.stats();
        assert_eq!((third.prefix_hits, third.prefix_items_saved, third.prefix_inserts), (1, 1, 1));
        assert_same_as_cold(reused, src);
    }

    #[test]
    fn a_source_sighted_before_a_refreeze_snapshots_after_it() {
        let src = "typedef bit<8> octet;\ncontrol C(inout octet x) { apply { x = x + 8w1; } }";
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let mut s = core.session();
        s.check(src).expect("accepts");
        assert_eq!(s.stats().prefix_inserts, 0);
        let core2 = core.refreeze(vec![s.into_harvest().expect("harvests")]);
        // The memo and its sightings survive the refreeze…
        let mut s2 = core2.session();
        s2.check(src).expect("accepts");
        assert_eq!(s2.stats().prefix_inserts, 1, "{:?}", s2.stats());
        // …and a sibling reuses the control, at whatever position.
        let mut s3 = core2.session();
        let spaced = format!("\n\n  {src}");
        let reused = s3.verdict(&spaced);
        assert_eq!(s3.stats().prefix_hits, 1);
        assert_same_as_cold(reused, &spaced);
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
        assert_eq!(s.stats().prefix_inserts, 1, "one submission later, a is recorded");
        let reused = s.verdict(a);
        assert_eq!(s.stats().prefix_hits, 1);
        assert_same_as_cold(reused, a);
    }

    #[test]
    fn timed_out_runs_never_insert_snapshots() {
        let src = "typedef bit<8> octet;\ncontrol C(inout octet x) { apply { x = x + 8w1; } }";
        let expired = || Some(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let mut session = CheckerSession::new(CheckOptions::ifc());
        session.check(src).expect("accepts");
        // The second sighting would record, but the run timed out.
        session.set_deadline(expired());
        let errs = session.verdict(src).unwrap_err();
        assert!(errs.iter().any(|d| d.code == DiagCode::Timeout));
        assert_eq!(session.stats().prefix_inserts, 0, "transient runs are refused");
        // The resubmission finds nothing to reuse, but records…
        session.verdict(src).expect("accepts unguarded");
        assert_eq!((session.stats().prefix_hits, session.stats().prefix_inserts), (0, 1));
        // …so a third round reuses it.
        session.verdict(src).expect("accepts");
        assert_eq!(session.stats().prefix_hits, 1);
    }

    #[test]
    fn failing_runs_never_insert_snapshots() {
        // A leak is a verdict like any other: its control is recorded
        // with its diagnostic. A run that does not parse records nothing,
        // though its well-formed control was sighted twice.
        let mut session = CheckerSession::new(CheckOptions::ifc());
        let leak = "typedef bit<8> octet;\n\
                    control C(inout <octet, low> l, inout <octet, high> h) { apply { l = h; } }";
        record_twice(&mut session, leak);
        assert_eq!(session.stats().prefix_inserts, 1);
        let broken = format!("{leak}\ncontrol D(inout octet x) {{ apply {{ x = ; }} }}");
        record_twice(&mut session, &broken);
        session.verdict(&broken).unwrap_err();
        let stats = session.stats();
        assert_eq!(stats.prefix_inserts, 1, "the malformed runs recorded nothing: {stats:?}");
        assert_eq!(stats.prefix_hits, 0, "a hit before a malformed item is not taken: {stats:?}");
        assert_same_as_cold(session.verdict(&broken), &broken);
    }

    #[test]
    fn core_sessions_share_memo_entries_without_a_refreeze() {
        // The memo holds no interner ids, so a fresh core's sessions
        // record user controls at once, and siblings reuse them.
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let src = "typedef bit<8> octet;\n\
                   control C(inout octet x) { apply { x = x + 8w1; } }\n\
                   control D(inout octet x) { apply { x = x + 8w2; } }";
        let mut s = core.session();
        record_twice(&mut s, src);
        assert_eq!(s.stats().prefix_inserts, 2, "{:?}", s.stats());
        assert_eq!(core.prefix_cache_len(), 2);
        let mut s3 = core.session();
        let edited = src.replace("x + 8w2", "x + 8w3");
        s3.verdict(&edited).expect("accepts");
        let stats3 = s3.stats();
        assert_eq!((stats3.prefix_hits, stats3.prefix_misses), (1, 1), "{stats3:?}");
        assert_eq!(stats3.prefix_items_saved, 1);
    }

    #[test]
    fn the_memo_stays_within_its_cap_over_a_long_edit_stream() {
        let core = SharedSessionCore::with_prefix_cache_cap(CheckOptions::ifc(), 8);
        let mut s = core.session();
        for edit in 0..200 {
            let src = format!(
                "header h_t {{ <bit<8>, low> f; }}\n\
                 control Keep(inout h_t h) {{ apply {{ h.f = h.f + 8w1; }} }}\n\
                 control Edit(inout h_t h) {{ apply {{ h.f = h.f + 8w{}; }} }}",
                edit % 256
            );
            record_twice(&mut s, &src);
            assert_same_as_cold(s.verdict(&src), &src);
            assert!(core.prefix_cache_len() <= 8, "edit {edit}: {}", core.prefix_cache_len());
        }
        let stats = s.stats();
        assert_eq!(stats.prefix_hits, 2 * 200, "both controls of every edit reused: {stats:?}");
        assert_eq!(core.prefix_cache_len(), 8);
    }

    #[test]
    fn pure_lattice_states_publish_once_across_siblings() {
        // A renamed two-point chain reuses every frozen type (its label
        // *indices* coincide with the warm lattice's), so its prelude
        // state is tier-pure and publishable: the first worker builds
        // it, every sibling adopts it from the shared table. The prefix
        // memo is disabled so the table is exercised in isolation.
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
    fn a_refreeze_rebuilds_impure_lattice_states_once() {
        // The diamond's prelude state is *impure* (its inferred `pc_fn`
        // labels differ from the warm lattice's, so the prelude's
        // Function nodes are overlay-tier). It cannot be published to
        // the side table. A refreeze promotes its types but not the
        // state: the first session after it rebuilds the state, now
        // tier-pure, and publishes it for every sibling.
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let diamond = "lattice { bot < A; bot < B; A < top; B < top; }\n\
                       control C(inout <bit<8>, A> a, inout <bit<8>, B> b) { apply { a = b; } }";
        let mut s = core.session();
        let before = s.verdict(diamond);
        let st = s.stats();
        assert_eq!((st.prelude_checks, st.lattice_states_published), (1, 0), "{st:?}");
        assert_same_as_cold(before, diamond);
        let core2 = core.refreeze(vec![s.into_harvest().expect("harvests")]);
        let mut s2 = core2.session();
        assert_eq!(s2.states.len(), 1, "born with the core's own state only");
        let first = s2.verdict(diamond);
        let st2 = s2.stats();
        assert_eq!((st2.prelude_checks, st2.lattice_states_published), (1, 1), "{st2:?}");
        assert_same_as_cold(first, diamond);
        let mut sibling = core2.session();
        let second = sibling.verdict(diamond);
        let sib = sibling.stats();
        assert_eq!((sib.prelude_checks, sib.lattice_state_hits), (0, 1), "{sib:?}");
        assert_same_as_cold(second, diamond);
    }

    #[test]
    fn the_lattice_state_table_stays_within_its_cap() {
        // Renamed two-point chains give tier-pure states, so each new
        // one is publishable until the table is full; the rest stay
        // session-local. Every verdict matches a cold check either way.
        let core = SharedSessionCore::with_prefix_cache_cap(CheckOptions::ifc(), 0);
        let mut published = 0;
        for i in 0..300 {
            let flow = if i % 2 == 0 { "a = b" } else { "b = a" };
            let src = format!(
                "lattice {{ lo{i} < hi{i}; }}\n\
                 control C(inout <bit<8>, hi{i}> a, inout <bit<8>, lo{i}> b) {{ apply {{ {flow}; }} }}"
            );
            let mut s = core.session();
            assert_same_as_cold(s.verdict(&src), &src);
            assert_eq!(s.stats().prelude_checks, 1);
            published += s.stats().lattice_states_published;
        }
        assert_eq!(lock(&core.shared.lattice_states).len(), LATTICE_STATE_CAP);
        // Warming the core published nothing (its own states hold the
        // default lattice's), so every slot went to a program lattice.
        assert_eq!(published, LATTICE_STATE_CAP as u64);
    }

    #[test]
    fn prefix_cache_cap_zero_disables() {
        let core = SharedSessionCore::with_prefix_cache_cap(CheckOptions::ifc(), 0);
        assert_eq!(core.prefix_cache_cap(), 0);
        let mut s = core.session();
        let src = "control C(inout bit<8> x) { apply { } }";
        s.check(src).expect("accepts");
        s.check(src).expect("accepts");
        s.verdict(src).expect("accepts");
        let stats = s.stats();
        assert_eq!((stats.prefix_hits, stats.prefix_misses, stats.prefix_inserts), (0, 0, 0));
        assert_eq!(stats.guided_splits, 0, "cap 0 splits nothing against a guide");
        assert_eq!(core.prefix_cache_len(), 0);
        let memo = lock(&core.shared.memo);
        assert_eq!(memo.sighting_len(), 0, "cap 0 sights nothing");
        assert_eq!(memo.guides.size(), (0, 0), "cap 0 keeps no guide");
    }

    #[test]
    fn edits_of_a_file_are_split_against_its_last_version() {
        let version = |at: usize, n: usize| {
            let mut src = String::from("header h_t { <bit<8>, high> s; <bit<8>, low> p; }\n");
            for c in 0..6 {
                let rhs = if c == at { format!("h.p + 8w{n}") } else { "h.p".to_string() };
                src.push_str(&format!(
                    "control C{c}(inout h_t h) {{ apply {{ h.p = {rhs}; }} }}\n"
                ));
            }
            src
        };
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let mut s = core.session();
        // The first version sights the first item, the second is kept,
        // and every later one is split against the one before it.
        let mut guided = Vec::new();
        for (n, at) in [0, 3, 5, 1, 4, 2, 0].into_iter().enumerate() {
            let src = version(at, n);
            assert_same_as_cold(s.verdict(&src), &src);
            guided.push(s.stats().guided_splits);
        }
        assert_eq!(guided, [0, 0, 1, 2, 3, 4, 5]);
        // A control inserted and one deleted, a leak, and a sibling
        // session: the table is the core's.
        let grown = version(2, 9)
            .replace("control C3", "control New(inout h_t h) { apply { } }\ncontrol C3");
        let shrunk =
            version(2, 9).replace("control C4(inout h_t h) { apply { h.p = h.p; } }\n", "");
        let leak =
            version(2, 9).replace("h.p = h.p; } }\ncontrol C5", "h.p = h.s; } }\ncontrol C5");
        let mut sibling = core.session();
        for src in [&grown, &shrunk, &leak] {
            assert_same_as_cold(sibling.verdict(src), src);
        }
        assert_eq!(sibling.stats().guided_splits, 3);
        assert_eq!(lock(&core.shared.memo).guides.size().0, 1, "one file, one entry");
        // The table carries across a refreeze with the memo.
        let core2 = core.refreeze(vec![s.into_harvest().expect("harvests")]);
        let mut after = core2.session();
        assert_same_as_cold(after.verdict(&version(1, 1)), &version(1, 1));
        assert_eq!(after.stats().guided_splits, 1);
    }

    #[test]
    fn the_sighting_table_is_allocated_on_first_use() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        assert_eq!(lock(&core.shared.memo).sighting_len(), 0, "building a core allocates none");
        core.session().check("control C(inout bit<8> x) { apply { } }").expect("accepts");
        let slots = crate::prefix::sighting_slots(DEFAULT_PREFIX_CACHE_CAP);
        assert_eq!(lock(&core.shared.memo).sighting_len(), slots);
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
