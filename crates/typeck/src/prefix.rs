//! Item-granular prefix snapshots: content-hashed checkpoints of the
//! checker's carried state after each top-level item.
//!
//! Every item boundary of a submission has an FNV chain hash of the
//! source up to it (see [`p4bid_syntax::item_segments`]). Snapshots are
//! pay-on-reuse: a clean cold check records a [`PrefixEntry`] at a
//! boundary only if that boundary's chain was *sighted* before by the
//! same cache, and every cold check sights all of its chains. So the
//! first submission of a prefix costs one table write per boundary, the
//! second snapshots it, and the third resumes from it. When a program is
//! resubmitted with an edit near the end, the session probes the deepest
//! matching boundary and re-checks only the suffix — an edit to the last
//! control of a 64-item program re-checks one item, not 64. A program
//! seen once, the common case of a compile loop, never pays for a
//! snapshot.
//!
//! The sighting table is a fixed array of chains, allocated on first use
//! and sized from the cache bound; a cap of zero disables it along with
//! the cache. It is four-way set-associative (bucket = chain % buckets)
//! rather than direct-mapped: with four slots per cache entry, a
//! direct-mapped table loses about one chain in eight to a slot
//! collision while a cache's worth of chains is live, and a four-way
//! table loses well under one in a hundred. A full bucket
//! forgets its oldest sighting, which only delays a snapshot by one
//! submission.
//!
//! # Soundness
//!
//! Sightings only decide whether a snapshot is *taken*. Whether one is
//! *used* is decided by three rules, which keep a snapshot hit
//! byte-identical to a cold check:
//!
//! * **Byte re-verification.** The chain hash is only a locator; a probe
//!   compares the stored prefix bytes against the submitted source, so a
//!   64-bit collision can cause a miss, never a wrong resume.
//! * **Lattice pinning.** Entries store the lattice they were checked
//!   under and only match a submission resolving to an equal lattice.
//!   The session resolves the lattice *conservatively* before probing
//!   (`quick_lattice`); any doubt falls back to the cold path.
//! * **Tier purity.** Entries are only inserted when every interner/pool
//!   handle in the snapshot lies in the shared frozen segment
//!   ([`CheckerState::within_tiers`](crate::checker::CheckerState)), so a
//!   snapshot taken by one worker is valid in every session over the
//!   same frozen base — and survives an overlay refreeze, which keeps
//!   frozen ids stable by construction.
//!
//! Failed runs never insert (mirroring the serve verdict cache's refusal
//! of transient verdicts): checkpoints at sighted boundaries are
//! collected during the run but discarded unless the run ends with zero
//! diagnostics, so a panic or timeout mid-check cannot poison the
//! snapshot tree.

use std::collections::HashMap;
use std::sync::Arc;

use p4bid_ast::span::Span;
use p4bid_ast::surface::Item;
use p4bid_lattice::{Label, Lattice};

use crate::checker::{CheckerState, TypedControl};
use crate::lineage::{FlowOp, LineageEdge};

/// One replayed lineage edge: the rendered, owned form of a
/// `PendingEdge`, carried inside prefix snapshots so resumed runs can
/// still explain violations whose origins lie in the (un-re-checked)
/// prefix. Labels stay as lattice indices — the entry's pinned lattice
/// resolves them to names at render time.
#[derive(Debug, Clone)]
pub(crate) struct OwnedEdge {
    pub(crate) op: FlowOp,
    pub(crate) src_text: Box<str>,
    pub(crate) src_label: Label,
    pub(crate) src_span: Span,
    pub(crate) sink_text: Box<str>,
    pub(crate) sink_label: Label,
    pub(crate) sink_span: Span,
}

impl OwnedEdge {
    pub(crate) fn lineage_edge(&self) -> LineageEdge {
        LineageEdge {
            op: self.op,
            src_span: self.src_span,
            src_label: self.src_label,
            sink_span: self.sink_span,
            sink_label: self.sink_label,
        }
    }
}

/// The full flow log of one clean cold run, rendered to owned edges with
/// its structural trace keys intact. Every checkpoint of that run shares
/// one `Arc<SeedEdges>` and remembers how many leading edges belong to
/// its prefix (`edges_len`), so storage stays linear in the run.
#[derive(Debug, Default)]
pub(crate) struct SeedEdges {
    pub(crate) edges: Vec<OwnedEdge>,
    pub(crate) sink_keys: Vec<u64>,
    pub(crate) src_keys: Vec<u64>,
    pub(crate) src_ranges: Vec<(u32, u32)>,
}

impl SeedEdges {
    pub(crate) fn src_keys_of(&self, ix: usize) -> &[u64] {
        let (start, len) = self.src_ranges[ix];
        &self.src_keys[start as usize..(start as usize + len as usize)]
    }
}

/// One prefix checkpoint: everything needed to restart a check after
/// `items` top-level items as if they had just been checked.
#[derive(Debug, Clone)]
pub(crate) struct PrefixEntry {
    /// The lattice the prefix was checked under (equality-matched).
    pub(crate) lattice: Lattice,
    /// The exact prefix bytes (chain hashes only locate; bytes decide).
    pub(crate) prefix: Arc<str>,
    /// Number of top-level items the snapshot covers.
    pub(crate) items: u32,
    /// Δ/Γ/signatures after those items.
    pub(crate) state: CheckerState,
    /// The prefix's surface AST (shared across the run's checkpoints),
    /// re-used to assemble the resumed `TypedProgram` without re-parsing.
    pub(crate) items_ast: Arc<Vec<Item>>,
    /// The run's checked controls; the first `controls_len` belong to
    /// this prefix.
    pub(crate) controls: Arc<Vec<TypedControl>>,
    pub(crate) controls_len: u32,
    /// The run's rendered flow log; the first `edges_len` edges belong
    /// to this prefix and seed the resumed run's lineage.
    pub(crate) seed: Arc<SeedEdges>,
    pub(crate) edges_len: u32,
    /// LRU stamp (touched on hit).
    stamp: u64,
}

impl PrefixEntry {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        lattice: Lattice,
        prefix: Arc<str>,
        items: u32,
        state: CheckerState,
        items_ast: Arc<Vec<Item>>,
        controls: Arc<Vec<TypedControl>>,
        controls_len: u32,
        seed: Arc<SeedEdges>,
        edges_len: u32,
    ) -> Self {
        PrefixEntry {
            lattice,
            prefix,
            items,
            state,
            items_ast,
            controls,
            controls_len,
            seed,
            edges_len,
            stamp: 0,
        }
    }
}

/// Slots of the sighting table of a cache bounded at `cap` entries: four
/// per entry, at most 8192 (64 KB of chains).
pub(crate) fn sighting_slots(cap: usize) -> usize {
    cap.saturating_mul(SIGHTING_WAYS).min(8192)
}

/// Slots per sighting-table bucket.
const SIGHTING_WAYS: usize = 4;

/// Bounded chain-hash-keyed store of [`PrefixEntry`]s with touch-on-hit
/// LRU eviction (O(n) min-scan, like the serve verdict cache), plus the
/// sighting table that gates what is worth storing. A cap of zero
/// disables both.
#[derive(Debug)]
pub(crate) struct PrefixCache {
    cap: usize,
    len: usize,
    clock: u64,
    map: HashMap<u64, Vec<PrefixEntry>>,
    /// Sighted chains in buckets of `SIGHTING_WAYS`, newest first;
    /// empty until the first sighting. A zero slot reads as a sighting
    /// of chain 0, which at worst snapshots one prefix early.
    sighted: Vec<u64>,
}

impl PrefixCache {
    pub(crate) fn new(cap: usize) -> Self {
        PrefixCache { cap, len: 0, clock: 0, map: HashMap::new(), sighted: Vec::new() }
    }

    /// Records `chain` as sighted and says whether it was already: the
    /// pay-on-reuse rule snapshots a boundary only on a `true`. Always
    /// `false` (and allocation-free) when the cache is disabled.
    pub(crate) fn sight(&mut self, chain: u64) -> bool {
        if self.cap == 0 {
            return false;
        }
        if self.sighted.is_empty() {
            self.sighted = vec![0; sighting_slots(self.cap)];
        }
        let buckets = (self.sighted.len() / SIGHTING_WAYS) as u64;
        let start = (chain % buckets) as usize * SIGHTING_WAYS;
        let bucket = &mut self.sighted[start..start + SIGHTING_WAYS];
        if bucket.contains(&chain) {
            return true;
        }
        bucket.copy_within(..SIGHTING_WAYS - 1, 1);
        bucket[0] = chain;
        false
    }

    /// Looks up a snapshot for the given chain hash covering exactly
    /// `items` top-level items, verifying the lattice and the prefix
    /// bytes. Touches the entry's LRU stamp and clones it out (cheap:
    /// pooled ids and `Arc` bumps).
    pub(crate) fn probe(
        &mut self,
        chain: u64,
        lattice: &Lattice,
        prefix: &str,
        items: u32,
    ) -> Option<PrefixEntry> {
        if self.cap == 0 {
            return None;
        }
        self.clock += 1;
        let bucket = self.map.get_mut(&chain)?;
        let entry = bucket
            .iter_mut()
            .find(|e| e.items == items && e.lattice == *lattice && *e.prefix == *prefix)?;
        entry.stamp = self.clock;
        Some(entry.clone())
    }

    /// Inserts a snapshot under its chain hash, replacing any entry with
    /// the same identity and evicting the least-recently-used entry when
    /// over capacity. Callers enforce the soundness rules (tier purity,
    /// clean-run-only) *before* inserting.
    pub(crate) fn insert(&mut self, chain: u64, mut entry: PrefixEntry) {
        if self.cap == 0 {
            return;
        }
        self.clock += 1;
        entry.stamp = self.clock;
        let bucket = self.map.entry(chain).or_default();
        if let Some(old) = bucket.iter_mut().find(|e| {
            e.items == entry.items && e.lattice == entry.lattice && e.prefix == entry.prefix
        }) {
            *old = entry;
            return;
        }
        bucket.push(entry);
        self.len += 1;
        if self.len > self.cap {
            self.evict_lru();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots the sighting table holds (0 until its first use).
    #[cfg(test)]
    pub(crate) fn sighting_len(&self) -> usize {
        self.sighted.len()
    }

    fn evict_lru(&mut self) {
        let oldest = self
            .map
            .iter()
            .flat_map(|(chain, bucket)| bucket.iter().map(|e| (e.stamp, *chain)))
            .min()
            .map(|(_, chain)| chain);
        let Some(chain) = oldest else { return };
        let bucket = self.map.get_mut(&chain).expect("bucket of the LRU entry exists");
        let ix = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(ix, _)| ix)
            .expect("LRU bucket is non-empty");
        bucket.remove(ix);
        if bucket.is_empty() {
            self.map.remove(&chain);
        }
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lat: Lattice, prefix: &str, items: u32) -> PrefixEntry {
        PrefixEntry::new(
            lat,
            prefix.into(),
            items,
            CheckerState::empty(),
            Arc::new(Vec::new()),
            Arc::new(Vec::new()),
            0,
            Arc::new(SeedEdges::default()),
            0,
        )
    }

    #[test]
    fn probe_verifies_bytes_lattice_and_depth() {
        let mut c = PrefixCache::new(8);
        let lat = Lattice::two_point();
        c.insert(7, entry(lat.clone(), "typedef bit<8> t;", 1));
        assert!(c.probe(7, &lat, "typedef bit<8> t;", 1).is_some());
        // Same chain, different bytes: a collision misses instead of lying.
        assert!(c.probe(7, &lat, "typedef bit<9> u;", 1).is_none());
        // Different depth under the same chain misses.
        assert!(c.probe(7, &lat, "typedef bit<8> t;", 2).is_none());
        // Different lattice misses.
        let diamond = Lattice::from_order(&["bot", "top"], &[("bot", "top")]).unwrap();
        assert!(c.probe(7, &diamond, "typedef bit<8> t;", 1).is_none());
        // Unknown chain misses.
        assert!(c.probe(8, &lat, "typedef bit<8> t;", 1).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = PrefixCache::new(2);
        let lat = Lattice::two_point();
        c.insert(1, entry(lat.clone(), "a", 1));
        c.insert(2, entry(lat.clone(), "b", 1));
        // Touch 1 so 2 is coldest, then overflow.
        assert!(c.probe(1, &lat, "a", 1).is_some());
        c.insert(3, entry(lat.clone(), "c", 1));
        assert_eq!(c.len(), 2);
        assert!(c.probe(2, &lat, "b", 1).is_none(), "coldest entry was evicted");
        assert!(c.probe(1, &lat, "a", 1).is_some());
        assert!(c.probe(3, &lat, "c", 1).is_some());
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = PrefixCache::new(4);
        let lat = Lattice::two_point();
        c.insert(1, entry(lat.clone(), "a", 1));
        c.insert(1, entry(lat.clone(), "a", 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cap_zero_disables() {
        let mut c = PrefixCache::new(0);
        let lat = Lattice::two_point();
        c.insert(1, entry(lat.clone(), "a", 1));
        assert_eq!(c.len(), 0);
        assert!(c.probe(1, &lat, "a", 1).is_none());
        // Cap 0 sights nothing and never allocates the table.
        assert!(!c.sight(9));
        assert!(!c.sight(9));
        assert_eq!(c.sighting_len(), 0);
    }

    #[test]
    fn sighting_table_stays_fixed_and_bounded() {
        let mut c = PrefixCache::new(2);
        assert_eq!(c.sighting_len(), 0, "allocated on first use, not at construction");
        assert!(!c.sight(42));
        assert!(c.sight(42), "sighted from its second appearance");
        for chain in 1..=1000 {
            c.sight(chain);
        }
        assert_eq!(c.sighting_len(), sighting_slots(2), "more chains than slots: no growth");
        assert_eq!(sighting_slots(2), 8);
        assert_eq!(sighting_slots(crate::session::DEFAULT_PREFIX_CACHE_CAP), 4096);
        assert_eq!(sighting_slots(usize::MAX), 8192, "never above 64 KB");
    }

    #[test]
    fn a_full_bucket_only_delays_a_sighting() {
        // Cap 2: two buckets of four, so even chains share bucket 0.
        let mut c = PrefixCache::new(2);
        assert!(!c.sight(2));
        for other in [4, 6, 8] {
            assert!(!c.sight(other));
        }
        assert!(c.sight(2), "four chains fit one bucket");
        assert!(!c.sight(1), "the odd bucket is separate");
        // A fifth chain in the bucket pushes out the oldest, 2…
        assert!(!c.sight(10));
        // …so 2's next appearance counts as a first one, and the one
        // after that is sighted again.
        assert!(!c.sight(2));
        assert!(c.sight(2));
    }
}
