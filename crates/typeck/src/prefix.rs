//! The item memo: each `control`'s verdict, keyed by the checker state
//! before it and its own bytes, so an edit re-checks only what it touched.
//!
//! A `control` leaves Δ/Γ/the signatures exactly as it found them
//! (`control_decl` pops its scopes and truncates the signature log), and
//! its lineage traces stop at its own first flow edge. So its diagnostics
//! are a function of two things: the state the items before it built, and
//! its own text. The state is in turn a function of the core's options,
//! the program's `lattice` declarations and the bytes of every earlier
//! non-control item (controls in between change nothing). A
//! [`Submission`] collects those bytes into one *state text*; each control
//! is keyed by the hash of the state text before it and of its own bytes.
//! The keys use the word-at-a-time content hash
//! ([`p4bid_ast::hash::content`]), chained item by item, so keying a
//! submission costs one pass at eight bytes per multiply. They are
//! locators only, which is what that hash is for: a probe decides by
//! comparing bytes.
//!
//! An entry stores the control's bytes, the state text it was checked
//! under, and its diagnostics with every span made relative to the item's
//! first byte. A probe compares both texts, so a 64-bit key collision can
//! cause a miss, never a wrong verdict; a hit rebases the spans with one
//! add each. The memo holds no interner or pool ids, so an entry recorded
//! by one session serves every session of the core, before and after any
//! refreeze.
//!
//! Entries are pay-on-reuse. Every check *sights* the keys of the controls
//! it checks, and records a control only if its key had been sighted
//! before: the first submission of a control costs one table write, the
//! second records it, the third reuses it. The sighting table is a fixed
//! array, allocated on first use and sized from the memo bound; a bound of
//! zero disables it along with the memo. It is four-way set-associative
//! (bucket = key % buckets) rather than direct-mapped: with four slots per
//! entry, a direct-mapped table loses about one key in eight to a slot
//! collision while a memo's worth of keys is live, and a four-way table
//! loses well under one in a hundred. A full bucket forgets its oldest
//! sighting, which only delays a record by one submission.
//!
//! Two more rules keep a hit byte-identical to a cold check: a run cut by
//! its deadline (or one that panicked, which never reaches the recording
//! step) records nothing, and neither does a control with a diagnostic
//! span outside its own bytes (a dummy span, say), which a rebase could
//! not move.

use std::collections::HashMap;
use std::sync::Arc;

use p4bid_ast::hash;
use p4bid_ast::span::Span;
use p4bid_syntax::{ByteItem, ItemHead};

use crate::diag::Diagnostic;

/// The memo's view of one submission: per item, its memo key and the
/// length of the state text before it (controls only).
#[derive(Debug)]
pub(crate) struct Submission {
    /// The bytes of every `lattice` item, then of every non-control item
    /// in order, each followed by a NUL (which no item that checks can
    /// contain, so the concatenation is unambiguous).
    pub(crate) state: Arc<str>,
    /// Per item: `Some((key, state_len))` for a control.
    pub(crate) keys: Vec<Option<(u64, u32)>>,
}

impl Submission {
    /// Keys the items of `source` (as split by
    /// [`split_items`](p4bid_syntax::split_items)).
    pub(crate) fn new(source: &str, items: &[ByteItem]) -> Self {
        let bytes_of = |item: &ByteItem| &source[item.start as usize..item.end as usize];
        let mut state = String::new();
        // A lattice declaration anywhere sets the lattice of every item.
        for item in items.iter().filter(|i| i.head == ItemHead::Lattice) {
            state.push_str(bytes_of(item));
            state.push('\0');
        }
        state.push('\0');
        let mut state_hash = hash::content(0, state.as_bytes());
        let keys = items
            .iter()
            .map(|item| {
                let text = bytes_of(item);
                if item.head == ItemHead::Control {
                    let key = hash::content(hash::byte(state_hash, 0xff), text.as_bytes());
                    Some((key, state.len() as u32))
                } else {
                    state.push_str(text);
                    state.push('\0');
                    state_hash = hash::byte(hash::content(state_hash, text.as_bytes()), 0);
                    None
                }
            })
            .collect();
        Submission { state: state.into(), keys }
    }
}

/// One recorded control.
#[derive(Debug)]
struct Entry {
    /// The state text of the submission it was recorded from; the first
    /// `state_len` bytes are the state before the control.
    state: Arc<str>,
    state_len: u32,
    /// The control's exact bytes (keys only locate; bytes decide).
    bytes: Box<str>,
    /// Its diagnostics, spans relative to the item's first byte.
    diags: Vec<Diagnostic>,
    /// LRU stamp (touched on hit).
    stamp: u64,
}

/// Slots of the sighting table of a memo bounded at `cap` entries: four
/// per entry, at most 8192 (64 KB of keys).
pub(crate) fn sighting_slots(cap: usize) -> usize {
    cap.saturating_mul(SIGHTING_WAYS).min(8192)
}

/// Slots per sighting-table bucket.
const SIGHTING_WAYS: usize = 4;

/// Bounded store of recorded controls with touch-on-hit LRU eviction
/// (O(n) min-scan, like the serve verdict cache), plus the sighting table
/// that gates what is worth recording. A cap of zero disables both.
#[derive(Debug)]
pub(crate) struct ItemMemo {
    cap: usize,
    clock: u64,
    map: HashMap<u64, Entry>,
    /// Sighted keys in buckets of `SIGHTING_WAYS`, newest first; empty
    /// until the first sighting. A zero slot reads as a sighting of key
    /// 0, which at worst records one control a submission early.
    sighted: Vec<u64>,
}

impl ItemMemo {
    pub(crate) fn new(cap: usize) -> Self {
        ItemMemo { cap, clock: 0, map: HashMap::new(), sighted: Vec::new() }
    }

    /// Records `key` as sighted and says whether it was already: the
    /// pay-on-reuse rule records a control only on a `true`. Always
    /// `false` (and allocation-free) when the memo is disabled.
    pub(crate) fn sight(&mut self, key: u64) -> bool {
        if self.cap == 0 {
            return false;
        }
        if self.sighted.is_empty() {
            self.sighted = vec![0; sighting_slots(self.cap)];
        }
        let buckets = (self.sighted.len() / SIGHTING_WAYS) as u64;
        let start = (key % buckets) as usize * SIGHTING_WAYS;
        let bucket = &mut self.sighted[start..start + SIGHTING_WAYS];
        if bucket.contains(&key) {
            return true;
        }
        bucket.copy_within(..SIGHTING_WAYS - 1, 1);
        bucket[0] = key;
        false
    }

    /// The diagnostics recorded for a control with these bytes under this
    /// state text, rebased to start at byte `at`. Touches the entry.
    pub(crate) fn probe(
        &mut self,
        key: u64,
        state: &str,
        bytes: &str,
        at: u32,
    ) -> Option<Vec<Diagnostic>> {
        if self.cap == 0 {
            return None;
        }
        self.clock += 1;
        let entry = self.map.get_mut(&key)?;
        if *entry.bytes != *bytes || entry.state[..entry.state_len as usize] != *state {
            return None;
        }
        entry.stamp = self.clock;
        Some(
            entry
                .diags
                .iter()
                .map(|d| rebase(d, |s| Span::new(s.start + at, s.end + at)))
                .collect(),
        )
    }

    /// Records a control checked under `state[..state_len]` at bytes
    /// `start..end` of `source`, unless a diagnostic points outside it.
    /// Replaces any entry under the same key and evicts the least recently
    /// used past the cap. Returns whether it recorded.
    pub(crate) fn record(
        &mut self,
        key: u64,
        (state, state_len): (&Arc<str>, u32),
        source: &str,
        (start, end): (u32, u32),
        diags: &[Diagnostic],
    ) -> bool {
        let inside = |s: &Span| !s.is_dummy() && s.start >= start && s.end <= end;
        let all_inside = diags.iter().all(|d| {
            inside(&d.span)
                && d.lineage.iter().all(|e| inside(&e.source.span) && inside(&e.sink.span))
        });
        if self.cap == 0 || !all_inside {
            return false;
        }
        self.clock += 1;
        let entry = Entry {
            state: Arc::clone(state),
            state_len,
            bytes: source[start as usize..end as usize].into(),
            diags: diags
                .iter()
                .map(|d| rebase(d, |s| Span::new(s.start - start, s.end - start)))
                .collect(),
            stamp: self.clock,
        };
        if self.map.insert(key, entry).is_none() && self.map.len() > self.cap {
            self.evict_lru();
        }
        true
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Slots the sighting table holds (0 until its first use).
    #[cfg(test)]
    pub(crate) fn sighting_len(&self) -> usize {
        self.sighted.len()
    }

    fn evict_lru(&mut self) {
        let oldest = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(key, _)| *key);
        if let Some(key) = oldest {
            self.map.remove(&key);
        }
    }
}

/// A copy of `d` with every span (its own and its lineage path's) moved.
fn rebase(d: &Diagnostic, by: impl Fn(Span) -> Span) -> Diagnostic {
    let mut d = d.clone();
    d.span = by(d.span);
    for edge in &mut d.lineage {
        edge.source.span = by(edge.source.span);
        edge.sink.span = by(edge.sink.span);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagCode;

    const STATE: &str = "lattice { lo < hi; }\0\0typedef bit<8> t;\0";

    fn record(m: &mut ItemMemo, key: u64, bytes: &str) -> bool {
        let state: Arc<str> = STATE.into();
        let diag = Diagnostic::new(DiagCode::ExplicitFlow, "leak", Span::new(10, 11));
        let source = format!("{:10}{bytes}", "");
        m.record(key, (&state, STATE.len() as u32), &source, (10, source.len() as u32), &[diag])
    }

    #[test]
    fn probe_verifies_bytes_lattice_and_depth() {
        let mut m = ItemMemo::new(8);
        assert!(record(&mut m, 7, "control C() { apply { } }"));
        let hit = m.probe(7, STATE, "control C() { apply { } }", 100).expect("hit");
        assert_eq!(hit[0].span, Span::new(100, 101), "spans rebase to the new position");
        // Same key, different bytes: a collision misses instead of lying.
        assert!(m.probe(7, STATE, "control D() { apply { } }", 100).is_none());
        // A shorter state (an item fewer before it) misses.
        assert!(m.probe(7, &STATE[..STATE.len() - 1], "control C() { apply { } }", 0).is_none());
        // A different lattice declaration misses.
        let other = STATE.replace("lo < hi", "a < b");
        assert!(m.probe(7, &other, "control C() { apply { } }", 0).is_none());
        // An unknown key misses.
        assert!(m.probe(8, STATE, "control C() { apply { } }", 0).is_none());
    }

    #[test]
    fn spans_outside_the_item_are_never_recorded() {
        let mut m = ItemMemo::new(8);
        let state: Arc<str> = STATE.into();
        let len = STATE.len() as u32;
        let src = "typedef bit<8> t; control C() { apply { } }";
        let at = |span| [Diagnostic::new(DiagCode::Timeout, "late", span)];
        assert!(!m.record(1, (&state, len), src, (18, 43), &at(Span::dummy())));
        assert!(!m.record(1, (&state, len), src, (18, 43), &at(Span::new(0, 7))));
        assert!(m.record(1, (&state, len), src, (18, 43), &at(Span::new(18, 25))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut m = ItemMemo::new(2);
        record(&mut m, 1, "a");
        record(&mut m, 2, "b");
        // Touch 1 so 2 is coldest, then overflow.
        assert!(m.probe(1, STATE, "a", 0).is_some());
        record(&mut m, 3, "c");
        assert_eq!(m.len(), 2);
        assert!(m.probe(2, STATE, "b", 0).is_none(), "coldest entry was evicted");
        assert!(m.probe(1, STATE, "a", 0).is_some());
        assert!(m.probe(3, STATE, "c", 0).is_some());
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut m = ItemMemo::new(4);
        record(&mut m, 1, "a");
        record(&mut m, 1, "a");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn cap_zero_disables() {
        let mut m = ItemMemo::new(0);
        assert!(!record(&mut m, 1, "a"));
        assert_eq!(m.len(), 0);
        assert!(m.probe(1, STATE, "a", 0).is_none());
        // Cap 0 sights nothing and never allocates the table.
        assert!(!m.sight(9));
        assert!(!m.sight(9));
        assert_eq!(m.sighting_len(), 0);
    }

    #[test]
    fn sighting_table_stays_fixed_and_bounded() {
        let mut m = ItemMemo::new(2);
        assert_eq!(m.sighting_len(), 0, "allocated on first use, not at construction");
        assert!(!m.sight(42));
        assert!(m.sight(42), "sighted from its second appearance");
        for key in 1..=1000 {
            m.sight(key);
        }
        assert_eq!(m.sighting_len(), sighting_slots(2), "more keys than slots: no growth");
        assert_eq!(sighting_slots(2), 8);
        assert_eq!(sighting_slots(crate::session::DEFAULT_PREFIX_CACHE_CAP), 4096);
        assert_eq!(sighting_slots(usize::MAX), 8192, "never above 64 KB");
    }

    #[test]
    fn a_full_bucket_only_delays_a_sighting() {
        // Cap 2: two buckets of four, so even keys share bucket 0.
        let mut m = ItemMemo::new(2);
        assert!(!m.sight(2));
        for other in [4, 6, 8] {
            assert!(!m.sight(other));
        }
        assert!(m.sight(2), "four keys fit one bucket");
        assert!(!m.sight(1), "the odd bucket is separate");
        // A fifth key in the bucket pushes out the oldest, 2…
        assert!(!m.sight(10));
        // …so 2's next appearance counts as a first one, and the one
        // after that is sighted again.
        assert!(!m.sight(2));
        assert!(m.sight(2));
    }

    #[test]
    fn controls_key_by_the_state_before_them_and_their_bytes() {
        let keyed = |src: &str| {
            let items = p4bid_syntax::split_items(src).expect("splits");
            Submission::new(src, &items)
        };
        let a =
            keyed("header h { bit<8> f; }\ncontrol A() { apply { } }\ncontrol B() { apply { } }");
        // Moving the controls or editing one leaves the other's key alone.
        let b = keyed(
            "header h { bit<8> f; }\n\n\ncontrol A() { apply { } }\ncontrol B() { apply { } }",
        );
        let c = keyed(
            "header h { bit<8> f; }\ncontrol A() { apply { x; } }\ncontrol B() { apply { } }",
        );
        assert_eq!(a.keys[2], b.keys[2]);
        assert_eq!(a.keys[2], c.keys[2]);
        assert_ne!(a.keys[1], c.keys[1]);
        assert_eq!(a.keys[0], None, "only controls are keyed");
        // A changed header, or a lattice declared after the controls,
        // changes every control's key.
        let d =
            keyed("header h { bit<9> f; }\ncontrol A() { apply { } }\ncontrol B() { apply { } }");
        let e = keyed("header h { bit<8> f; }\ncontrol A() { apply { } }\ncontrol B() { apply { } }\nlattice { a < b; }");
        for other in [&d, &e] {
            assert_ne!(a.keys[1], other.keys[1]);
            assert_ne!(a.keys[2], other.keys[2]);
        }
        assert_eq!(&a.state[..], "\0header h { bit<8> f; }\0");
    }

    /// The sighting table buckets keys by their low bits. Keys of 4096
    /// controls that differ in one constant, bucketed as the default-cap
    /// table does (1024 buckets of four), must spread like uniformly
    /// random keys: in 1000 draws of 4096 random keys the worst bucket
    /// held 10 to 17 (at most 13 in 92% of draws), and the odds of one
    /// above 16 are about 1 in 900.
    ///
    /// The FNV-1a keys the memo used before are pinned beside them. Their
    /// worst bucket (9) beats chance: a multiply carries only upward, so
    /// FNV-1a's low ten bits are a map mod 1024 of its state and bytes,
    /// and on keys that differ in a few digits that map spreads more
    /// evenly than random. A hash that avalanches gives that up; the
    /// table's four ways are sized for random keys.
    #[test]
    fn control_keys_spread_over_the_default_sighting_table() {
        let buckets =
            (sighting_slots(crate::session::DEFAULT_PREFIX_CACHE_CAP) / SIGHTING_WAYS) as u64;
        assert_eq!(buckets, 1024);
        let header = "header h { bit<32> f; }";
        let worst = |keys: &[u64]| {
            let mut load = vec![0u32; buckets as usize];
            for key in keys {
                load[(key % buckets) as usize] += 1;
            }
            load.into_iter().max().unwrap()
        };
        let (mut content_keys, mut fnv_keys) = (Vec::new(), Vec::new());
        for i in 0..4096 {
            let control = format!("control C(inout h x) {{ apply {{ x.f = 32w{i}; }} }}");
            let src = format!("{header}\n{control}");
            let items = p4bid_syntax::split_items(&src).expect("splits");
            let key = Submission::new(&src, &items).keys[1].expect("a control").0;
            // The chained form `Submission::new` computes.
            let state = hash::byte(hash::content(hash::content(0, b"\0"), header.as_bytes()), 0);
            assert_eq!(key, hash::content(hash::byte(state, 0xff), control.as_bytes()));
            content_keys.push(key);
            // The FNV-1a keys of the same state text and control.
            let state = hash::fnv1a(format!("\0{header}\0").as_bytes());
            fnv_keys.push(hash::bytes(hash::byte(state, 0xff), control.as_bytes()));
        }
        let (content_worst, fnv_worst) = (worst(&content_keys), worst(&fnv_keys));
        assert!(content_worst <= 16, "worse than random keys: {content_worst}");
        assert_eq!((content_worst, fnv_worst), (13, 9));
    }
}
