//! The check engine under `batch --policy`, `serve`/`watch` and `topo`.
//!
//! Every driver runs the same pipeline: pick each program's options, check
//! it against a [`SharedSessionCore`] for those options, answer repeats from
//! a verdict cache, and merge the verdicts by input index. This module owns
//! that pipeline once; the drivers only decide which options each program
//! checks under.
//!
//! * **Cells.** One cell per distinct [`CheckOptions`] value (compared
//!   with `==`), in first-appearance order: a shared core built on first
//!   use with the engine's prefix-cache cap, plus the worker harvests it
//!   has gathered since its last [`refreeze`](CheckEngine::refreeze).
//! * **Verdict cache.** A bounded LRU keyed by `(content hash, cell)`. A
//!   hit is re-verified against the stored body, a body repeated within
//!   one call is checked once, and transient verdicts
//!   ([`DiagCode::TRANSIENT`]) are never stored.
//! * **Merge.** Checked programs fan out per cell over the work-stealing
//!   pool and come back by input index, so a report is byte-identical to
//!   a plain [`check_batch_with_core`](crate::batch::check_batch_with_core)
//!   run of the same inputs.

use crate::batch::{
    run_batch, BatchDiagnostic, BatchInput, BatchReport, BatchStats, ProgramReport,
};
use p4bid_typeck::{CheckOptions, DiagCode, SessionHarvest, SharedSessionCore};
use std::collections::HashMap;

/// Index of one cell of a [`CheckEngine`].
pub(crate) type CellId = usize;

/// The cell [`CheckEngine::new`] seeds with the caller's base core.
pub(crate) const BASE_CELL: CellId = 0;

/// One program handed to [`CheckEngine::check`]: its name and source, and
/// the cell (resolved options) it checks under.
#[derive(Debug)]
pub(crate) struct Submission<'a> {
    pub name: &'a str,
    pub source: &'a str,
    pub cell: CellId,
}

/// One options set's long-lived core.
#[derive(Debug)]
struct Cell {
    core: SharedSessionCore,
    /// Worker-session harvests since the last refreeze (only gathered
    /// while harvesting is on).
    harvests: Vec<SessionHarvest>,
}

/// The options → core cells, the verdict cache, and the merge.
#[derive(Debug)]
pub(crate) struct CheckEngine {
    cells: Vec<Cell>,
    prefix_cap: usize,
    harvest: bool,
    cache: VerdictCache,
}

impl CheckEngine {
    /// An engine whose [`BASE_CELL`] is `base`; later cells copy its
    /// prefix-cache cap.
    pub(crate) fn new(base: SharedSessionCore) -> Self {
        let mut engine = Self::empty(base.prefix_cache_cap());
        engine.cells.push(Cell { core: base, harvests: Vec::new() });
        engine
    }

    /// An engine with no cells yet; each is built on first use with a
    /// `prefix_cap`-entry item memo. The verdict cache starts disabled.
    pub(crate) fn empty(prefix_cap: usize) -> Self {
        CheckEngine { cells: Vec::new(), prefix_cap, harvest: false, cache: VerdictCache::new(0) }
    }

    /// Bounds the verdict cache at `cap` entries, evicting the least
    /// recently used past it; `0` disables it.
    pub(crate) fn set_cache_cap(&mut self, cap: usize) {
        self.cache.set_cap(cap);
    }

    /// Whether every check harvests its worker sessions for the next
    /// [`refreeze`](CheckEngine::refreeze).
    pub(crate) fn set_harvest(&mut self, on: bool) {
        self.harvest = on;
    }

    pub(crate) fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// The options of the [`BASE_CELL`].
    pub(crate) fn base_options(&self) -> &CheckOptions {
        self.cells[BASE_CELL].core.options()
    }

    /// The cell checking under `opts`, built on first appearance.
    pub(crate) fn cell(&mut self, opts: &CheckOptions) -> CellId {
        if let Some(id) = self.cells.iter().position(|c| c.core.options() == opts) {
            return id;
        }
        let core = SharedSessionCore::with_prefix_cache_cap(opts.clone(), self.prefix_cap);
        self.cells.push(Cell { core, harvests: Vec::new() });
        self.cells.len() - 1
    }

    /// Folds every cell's harvests into a fatter frozen root
    /// ([`SharedSessionCore::refreeze`]). Verdicts are unaffected.
    pub(crate) fn refreeze(&mut self) {
        for cell in &mut self.cells {
            cell.core = cell.core.refreeze(std::mem::take(&mut cell.harvests));
        }
    }

    /// Checks `subs` and returns the report in submission order, plus how
    /// many submissions were not answered from the cache.
    ///
    /// With the cache on, every body is hashed once and looked up under its
    /// cell; the misses (one check per distinct body and cell) run per
    /// cell, in first-appearance order, and their non-transient verdicts
    /// are stored. The report's `jobs` is the widest cell run (1 when
    /// nothing ran) and its stats sum the cell runs.
    pub(crate) fn check(&mut self, subs: &[Submission<'_>], jobs: usize) -> (BatchReport, u64) {
        // Per cell run: the cell and the inputs it checks.
        let mut runs: Vec<(CellId, Vec<BatchInput>)> = Vec::new();
        // Per submission: its cache key (cache on) and where its verdict
        // comes from.
        let mut slots: Vec<(Option<VerdictKey>, Answer)> = Vec::with_capacity(subs.len());
        let mut pending: HashMap<VerdictKey, (usize, usize)> = HashMap::new();
        let mut checked = 0;
        for s in subs {
            let key = self.cache.enabled().then(|| VerdictKey {
                content: p4bid_ast::hash::content(0, s.source.as_bytes()),
                cell: s.cell,
            });
            if let Some(key) = key {
                if let Some(hit) = self.cache.lookup(key, s.source) {
                    slots.push((Some(key), Answer::Hit(hit.accepted, hit.diagnostics.clone())));
                    continue;
                }
            }
            checked += 1;
            // A repeat of a pending body shares its check; a colliding body
            // (same key, other text) gets its own.
            let dup = key
                .and_then(|k| pending.get(&k).copied())
                .filter(|&(r, p)| runs[r].1[p].source == s.source);
            let at = dup.unwrap_or_else(|| {
                let r = match runs.iter().position(|(c, _)| *c == s.cell) {
                    Some(r) => r,
                    None => {
                        runs.push((s.cell, Vec::new()));
                        runs.len() - 1
                    }
                };
                runs[r].1.push(BatchInput::new(s.name, s.source));
                (r, runs[r].1.len() - 1)
            });
            if let Some(k) = key {
                pending.insert(k, at);
            }
            slots.push((key, Answer::Run(at.0, at.1)));
        }
        let mut stats = BatchStats::default();
        let mut report_jobs = 1;
        let mut results: Vec<Vec<ProgramReport>> = Vec::with_capacity(runs.len());
        for (cell, inputs) in &runs {
            let cell = &mut self.cells[*cell];
            let core = &cell.core;
            let (sub, harvests) = run_batch(inputs, jobs, &|| core.session(), self.harvest);
            cell.harvests.extend(harvests);
            report_jobs = report_jobs.max(sub.jobs);
            stats.merge(&sub.stats);
            results.push(sub.programs);
        }
        let programs = slots
            .into_iter()
            .zip(subs)
            .enumerate()
            .map(|(index, ((key, slot), s))| {
                let (accepted, diagnostics) = match slot {
                    Answer::Hit(accepted, diagnostics) => (accepted, diagnostics),
                    Answer::Run(r, p) => {
                        let p = &results[r][p];
                        if let Some(key) = key.filter(|_| !is_transient(&p.diagnostics)) {
                            self.cache.insert(
                                key,
                                CachedVerdict {
                                    source: s.source.to_string(),
                                    accepted: p.accepted,
                                    diagnostics: p.diagnostics.clone(),
                                },
                            );
                        }
                        (p.accepted, p.diagnostics.clone())
                    }
                };
                ProgramReport { index, name: s.name.to_string(), accepted, diagnostics }
            })
            .collect();
        (BatchReport { programs, jobs: report_jobs, stats }, checked)
    }
}

/// Where one submission's verdict comes from.
enum Answer {
    /// The verdict cache: `accepted` and the diagnostics.
    Hit(bool, Vec<BatchDiagnostic>),
    /// Position `.1` of cell run `.0`.
    Run(usize, usize),
}

/// Whether a verdict is transient: it carries a [`DiagCode::TRANSIENT`]
/// code, a property of the run rather than of the program. A transient
/// verdict is never cached: a retry of the same body may well succeed.
pub(crate) fn is_transient(diagnostics: &[BatchDiagnostic]) -> bool {
    diagnostics.iter().any(|d| DiagCode::TRANSIENT.iter().any(|c| d.code == c.ident()))
}

/// Key of one verdict-cache entry: the content hash
/// ([`p4bid_ast::hash::content`], seed 0) of the program text plus the
/// cell it was checked in. The cache belongs to its engine, whose cell ids
/// never change, so the cell is an exact key; the 64-bit content hash is
/// only a *locator*: every hit re-verifies the stored body byte-for-byte,
/// so a collision costs one miss, never a replayed wrong verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct VerdictKey {
    pub content: u64,
    pub cell: CellId,
}

/// One cached verdict: everything content-determined in a
/// [`ProgramReport`], plus the body it was computed from. Index and name
/// are re-attached per hit, so a hit renders byte-identically to a fresh
/// check under the same name.
#[derive(Debug, Clone)]
pub(crate) struct CachedVerdict {
    pub source: String,
    pub accepted: bool,
    pub diagnostics: Vec<BatchDiagnostic>,
}

/// A bounded verdict cache with least-recently-used eviction and hit/miss
/// counters. `cap == 0` disables it.
///
/// Recency is a monotonic stamp per entry, refreshed on hit: O(1) on the
/// hit path, with an O(n) minimum scan only on eviction. Insertion-order
/// eviction would evict the *hottest* entry under churn.
#[derive(Debug, Default)]
pub(crate) struct VerdictCache {
    map: HashMap<VerdictKey, (u64, CachedVerdict)>,
    cap: usize,
    /// Monotonic recency clock; bumped on every hit and insert.
    clock: u64,
    pub hits: u64,
    pub misses: u64,
}

impl VerdictCache {
    pub(crate) fn new(cap: usize) -> Self {
        VerdictCache { cap, ..Default::default() }
    }

    fn enabled(&self) -> bool {
        self.cap > 0
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks up `key`, verifying the stored body equals `source`: a
    /// colliding body is a miss (and will overwrite the slot on insert),
    /// never a replayed verdict. Hits refresh the entry's recency.
    pub(crate) fn lookup(&mut self, key: VerdictKey, source: &str) -> Option<&CachedVerdict> {
        match self.map.get_mut(&key) {
            Some((stamp, verdict)) if verdict.source == source => {
                self.clock += 1;
                *stamp = self.clock;
                self.hits += 1;
                Some(verdict)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    pub(crate) fn insert(&mut self, key: VerdictKey, verdict: CachedVerdict) {
        self.clock += 1;
        self.map.insert(key, (self.clock, verdict));
        self.evict_past_cap();
    }

    fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
        self.evict_past_cap();
    }

    /// Evicts least-recently-used entries until the cap holds (stamps are
    /// unique, so the victim — and thus the cache state — is
    /// deterministic).
    fn evict_past_cap(&mut self) {
        while self.map.len() > self.cap {
            let lru = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| *k);
            self.map.remove(&lru.expect("an over-cap cache is non-empty"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyPack;
    use p4bid_lattice::Lattice;
    use p4bid_typeck::Mode;

    const LEAK: &str =
        "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }";

    fn engine(cache_cap: usize) -> CheckEngine {
        let mut engine = CheckEngine::new(SharedSessionCore::new(CheckOptions::ifc()));
        engine.set_cache_cap(cache_cap);
        engine
    }

    /// Applies the one rule of `pack` to the engine's base options.
    fn resolved(engine: &CheckEngine, pack: &str) -> CheckOptions {
        PolicyPack::parse(pack).unwrap().resolve("p", engine.base_options())
    }

    #[test]
    fn every_options_field_names_its_own_cell() {
        let base = CheckOptions::ifc();
        // Naming every field keeps the table whole: a new field fails to
        // compile here until it has a row below.
        let CheckOptions {
            mode: _,
            lattice: _,
            pc: _,
            record_lineage: _,
            allow_declassify: _,
            max_source_bytes: _,
            check_timeout_ms: _,
            pc_floor: _,
        } = &base;
        let rows = [
            ("mode", CheckOptions { mode: Mode::Permissive, ..base.clone() }),
            ("lattice", CheckOptions { lattice: Some(Lattice::diamond()), ..base.clone() }),
            ("pc", base.clone().with_pc("high")),
            ("record_lineage", CheckOptions { record_lineage: false, ..base.clone() }),
            ("allow_declassify", CheckOptions { allow_declassify: true, ..base.clone() }),
            ("max_source_bytes", base.clone().with_max_source_bytes(8)),
            ("check_timeout_ms", base.clone().with_check_timeout_ms(60_000)),
            ("pc_floor", CheckOptions { pc_floor: true, ..base.clone() }),
        ];
        for (field, opts) in rows {
            let mut engine = engine(8);
            let cell = engine.cell(&opts);
            assert_ne!(cell, BASE_CELL, "{field}");
            assert_eq!(engine.cell(&opts), cell, "{field}: the same set, the same cell");
            let subs = [
                Submission { name: "a", source: LEAK, cell: BASE_CELL },
                Submission { name: "b", source: LEAK, cell },
            ];
            let mut counts = || {
                let (_, checked) = engine.check(&subs, 1);
                let cache = engine.cache();
                (checked, cache.misses, cache.hits, cache.len())
            };
            assert_eq!(counts(), (2, 2, 0, 2), "{field}: one body, two keys");
            assert_eq!(counts(), (0, 2, 2, 2), "{field}: each cell answers its own");
        }
    }

    #[test]
    fn equal_options_built_apart_share_a_cell() {
        let mut engine = engine(0);
        // A catch-all rule whose overrides restate the base.
        let restated = resolved(&engine, "[*]\ndeclassify = false\nlineage = true\n");
        assert_eq!(engine.cell(&restated), BASE_CELL);
        assert_eq!(engine.cell(&CheckOptions::default()), BASE_CELL);
        // A lattice compares by its names and order, not by how it was
        // written down.
        let named = resolved(&engine, "[*]\nlattice = \"two-point\"\n");
        let spelled = resolved(&engine, "[*]\nlattice = \"low < high\"\n");
        let cell = engine.cell(&named);
        assert_ne!(cell, BASE_CELL, "an explicit lattice is a set of its own");
        assert_eq!(engine.cell(&spelled), cell);
    }
}
