//! The workspace's two 64-bit hashes: FNV-1a, and a word-at-a-time
//! content hash for long bodies.
//!
//! * **FNV-1a** ([`OFFSET`], [`PRIME`], [`byte`], [`bytes`], [`fnv1a`])
//!   folds one byte per dependent multiply. Its values are pinned by the
//!   unit tests below and by the tests of its callers.
//! * **The content hash** ([`content`]) folds eight bytes, read
//!   little-endian, per multiply, mixes in the length so that a
//!   zero-padded tail cannot alias, and ends with an avalanche so its low
//!   bits are as good as its high ones. Over a 20.2 KB program it takes
//!   5 µs where FNV-1a takes 32–35 µs (best of 400, 2 vCPUs).
//!
//! # Which hash a caller uses
//!
//! **The content hash is for locators whose every hit is re-verified
//! against stored bytes.** A collision there costs one miss, never a
//! wrong answer, so its values may change freely. Its callers:
//!
//! * the serve verdict cache's key (`VerdictKey::content` in `p4bid`),
//!   whose hits compare the whole stored body;
//! * the item memo's keys (`Submission::new` in `p4bid_typeck`), whose
//!   hits compare the control's bytes and the state text before it. The
//!   memo's sighting table buckets these keys by `key % buckets`, the low
//!   bits the avalanche spreads.
//!
//! **FNV-1a stays wherever a hash decides alone or its value is pinned:**
//!
//! * fault-plan keys (`p4bid::faults`, and the directory scanner's
//!   `scan-eio` key), which decide which program a planned fault hits and
//!   which the chaos tests pin by count;
//! * the flow-lineage structural trace keys (`p4bid_typeck`), which match
//!   an edge's source to earlier sinks with no byte comparison;
//! * the directory scanner's change hash (`p4bid::serve`), which decides
//!   whether a file changed;
//! * `item_chains` and `item_segments` (`p4bid_syntax`), whose chain
//!   hashes attribute a change to an item and are pinned equal to each
//!   other;
//! * the topology watch fingerprint (`p4bid::topo`), which decides
//!   whether to reload a manifest.
//!
//! # Examples
//!
//! ```
//! use p4bid_ast::hash;
//!
//! assert_eq!(hash::fnv1a(b""), hash::OFFSET);
//! assert_eq!(hash::fnv1a(b"ab"), hash::byte(hash::byte(hash::OFFSET, b'a'), b'b'));
//! assert_ne!(hash::content(0, b"ab"), hash::content(0, b"ab\0"));
//! ```

/// The FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0100_0000_01b3;

/// Folds one byte into a running FNV-1a hash.
#[inline]
#[must_use]
pub fn byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(PRIME)
}

/// Folds a byte slice into a running FNV-1a hash.
#[inline]
#[must_use]
pub fn bytes(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h = byte(h, b);
    }
    h
}

/// FNV-1a of a byte slice, from the offset basis.
#[inline]
#[must_use]
pub fn fnv1a(data: &[u8]) -> u64 {
    bytes(OFFSET, data)
}

/// The content hash's multiplier: odd, its bits spread evenly (2^64/φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One content-hash round: a bijection of `h` for a fixed `word`.
#[inline]
fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(26) ^ word).wrapping_mul(K)
}

/// The content hash of `data` under `seed`: the length, then each
/// eight-byte little-endian word (the last one zero-padded), one multiply
/// each, then murmur3's 64-bit finalizer. For locators only (see the
/// module doc).
#[must_use]
pub fn content(seed: u64, data: &[u8]) -> u64 {
    let mut h = fold(seed ^ K, data.len() as u64);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        h = fold(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact FNV-1a values are part of the workspace's compatibility
    /// surface: fault-plan keys, scanner fingerprints and lineage trace
    /// keys all derive from them. Vectors cross-checked against the
    /// published FNV-1a test suite.
    #[test]
    fn pinned_hash_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(b"hello"), 0xa430_d846_80aa_bd0b);
        assert_eq!(fnv1a(b"control C() {}"), 0x0596_44ef_431b_a254);
    }

    #[test]
    fn incremental_folding_matches_one_shot() {
        let data = b"control C(inout bit<8> x) { apply { } }";
        let mut h = OFFSET;
        for &b in data.iter() {
            h = byte(h, b);
        }
        assert_eq!(h, fnv1a(data));
        let (head, tail) = data.split_at(7);
        assert_eq!(bytes(bytes(OFFSET, head), tail), fnv1a(data));
    }

    #[test]
    fn constants_are_the_published_fnv1a_64_parameters() {
        assert_eq!(OFFSET, 14_695_981_039_346_656_037);
        assert_eq!(PRIME, 1_099_511_628_211);
    }

    /// The content hash's values are not a compatibility surface (every
    /// caller re-verifies its hits), but pinning them keeps the function
    /// from changing by accident, on any platform: the words are read
    /// little-endian whatever the host's byte order.
    #[test]
    fn pinned_content_values() {
        assert_eq!(content(0, b""), 0x5c6e_5b8c_2b69_0fb6);
        assert_eq!(content(0, b"a"), 0x0716_c25f_3fc1_e313);
        assert_eq!(content(0, b"foobar"), 0x343e_e7e2_880c_7047);
        assert_eq!(content(0, b"control C() {}"), 0x802a_7425_4eae_42f6);
        assert_eq!(content(OFFSET, b"control C() {}"), 0x1f3e_5fbe_1d21_d472);
        assert_eq!(content(0, b"0123456789abcdef0123456789abcdef"), 0xb087_4e4d_842e_8f69);
    }

    #[test]
    fn a_trailing_nul_never_aliases() {
        let data = b"abcdefghijklmnopqrstuvwx";
        for len in 0..=data.len() {
            let mut padded = data[..len].to_vec();
            padded.push(0);
            assert_ne!(content(0, &data[..len]), content(0, &padded), "length {len}");
            assert_ne!(content(0, &vec![0; len]), content(0, &vec![0; len + 1]), "zeros {len}");
        }
    }

    #[test]
    fn the_seed_changes_every_value() {
        let data = b"control C(inout bit<8> x) { apply { x = x + 8w1; } }";
        for len in [0, 1, 7, 8, 9, data.len()] {
            let seeds = [0, 1, OFFSET, u64::MAX];
            let values: Vec<u64> = seeds.iter().map(|&s| content(s, &data[..len])).collect();
            for (i, a) in values.iter().enumerate() {
                assert!(!values[i + 1..].contains(a), "length {len}: {values:x?}");
            }
        }
    }

    /// The item memo chains the hash: the state hash seeds each next
    /// item's hash, with one FNV-1a separator byte between them. The
    /// chain must tell apart where one item ends and the next begins.
    #[test]
    fn chained_form_depends_on_every_part_and_the_boundary() {
        let chain = |a: &[u8], b: &[u8]| content(byte(content(0, a), 0), b);
        let base = chain(b"typedef bit<8> t;", b"control C() { apply { } }");
        assert_ne!(base, chain(b"typedef bit<8> u;", b"control C() { apply { } }"));
        assert_ne!(base, chain(b"typedef bit<8> t;", b"control D() { apply { } }"));
        assert_ne!(base, chain(b"typedef bit<8> t; ", b"control C() { apply { } }"));
        assert_ne!(base, chain(b"typedef bit<8> t;c", b"ontrol C() { apply { } }"));
        assert_ne!(base, content(0, b"typedef bit<8> t;\0control C() { apply { } }"));
        assert_eq!(base, chain(b"typedef bit<8> t;", b"control C() { apply { } }"));
    }
}
