//! Slicing a program into top-level items: token-level segments with the
//! content chain-hash watch mode attributes edits by, and a byte-level
//! splitter that finds the same items without lexing.
//!
//! A P4BID program is a sequence of top-level items. At the token level an
//! item ends at the first `;` at bracket depth 0 (`typedef`) or at the `}`
//! that closes the outermost brace group (`lattice`, `header`, `struct`,
//! `match_kind`, `function`, `action`, `control` — including a preceding
//! `@pc(…)` attribute, which opens no group of its own). This boundary rule
//! is exactly the grammar's: whenever a token stream parses as a
//! [`Program`](p4bid_ast::surface::Program), the segments produced here
//! coincide one-for-one with the parsed items (the conformance tests pin
//! this down). On input that does *not* parse, segmentation still
//! terminates and is deterministic — trailing tokens that never reach a
//! boundary are simply not emitted as a segment.
//!
//! [`split_items`] applies the same rule to bytes. The only lexical
//! structure it must respect is trivia: brackets and `;` inside a `//` or
//! `/* */` comment are not code (the language has no string or character
//! literals). It refuses input whose brackets do not balance or
//! that ends inside an item or a comment, so a caller can fall back to a
//! full parse whenever the split is in doubt.
//!
//! [`split_items_like`] gives the same split of a file's new version in
//! time proportional to what changed: it walks the new text against the
//! split of an old version, takes every old item whose bytes (with the
//! trivia before it) recur at the cursor without scanning it, and scans
//! only the rest. Both share one per-item scanner, so they cannot drift.
//! It also reports which old item each new one is, so a caller can carry
//! what it derived from the old items' bytes over to the new.
//!
//! Each segment carries a *chain hash*: the FNV-1a hash of every source
//! byte from the start of the program through the segment's last token —
//! gaps (whitespace, comments) included. Chain equality therefore implies
//! (modulo a 64-bit collision) that two programs are *byte-identical* up to
//! and including that item.

use crate::lexer::{Token, TokenKind};
use p4bid_ast::hash;

/// One top-level item segment of a token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemSeg {
    /// Index one past the item's last token in the lexed token slice
    /// (i.e. the index of the next item's first token, or of `Eof`).
    pub token_end: u32,
    /// Byte offset one past the item's last token in the source text.
    pub byte_end: u32,
    /// FNV-1a hash of `source[..byte_end]` — the whole program prefix
    /// through this item, gaps included.
    pub chain: u64,
}

/// Splits a lexed token stream into top-level item segments with
/// cumulative prefix chain-hashes. `tokens` must have been produced by
/// [`lex`](crate::lex) on exactly `source`.
#[must_use]
pub fn item_segments(source: &str, tokens: &[Token]) -> Vec<ItemSeg> {
    let bytes = source.as_bytes();
    let mut segs = Vec::new();
    let mut depth: u32 = 0;
    let mut chain = hash::OFFSET;
    let mut prev_end: usize = 0;
    for (ix, tok) in tokens.iter().enumerate() {
        let boundary = match tok.kind {
            TokenKind::Eof => break,
            TokenKind::LBrace | TokenKind::LParen | TokenKind::LBracket => {
                depth += 1;
                false
            }
            TokenKind::RBrace => {
                let closes = depth <= 1;
                depth = depth.saturating_sub(1);
                closes
            }
            TokenKind::RParen | TokenKind::RBracket => {
                depth = depth.saturating_sub(1);
                false
            }
            TokenKind::Semi => depth == 0,
            _ => false,
        };
        if boundary {
            let byte_end = tok.span.end as usize;
            chain = hash::bytes(chain, &bytes[prev_end..byte_end]);
            prev_end = byte_end;
            segs.push(ItemSeg { token_end: (ix + 1) as u32, byte_end: byte_end as u32, chain });
        }
    }
    segs
}

/// What a top-level item declares, read from its first word (the parser
/// dispatches on the same word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemHead {
    /// A `control` block, with or without a leading `@pc(…)` attribute.
    Control,
    /// A `lattice { … }` declaration.
    Lattice,
    /// Any other item: a type, function, action, or something malformed.
    Other,
}

/// One top-level item found by [`split_items`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteItem {
    /// Byte offset of the item's first byte (the trivia before it is not
    /// part of the item).
    pub start: u32,
    /// Byte offset one past the item's closing `;` or `}`.
    pub end: u32,
    /// What the item declares.
    pub head: ItemHead,
}

/// Splits a source text into its top-level items without lexing it, by
/// the token-level boundary rule of [`item_segments`]. Returns `None` when
/// the split is in doubt: a closing bracket with nothing open, or input
/// that ends inside an item or a block comment. On any source that parses,
/// the items coincide one-for-one with the parsed items.
#[must_use]
pub fn split_items(source: &str) -> Option<Vec<ByteItem>> {
    let bytes = source.as_bytes();
    let mut items = Vec::new();
    let mut pos = 0;
    while let Some(item) = scan_item(bytes, pos)? {
        pos = item.end as usize;
        items.push(item);
    }
    Some(items)
}

/// [`split_items`] of `source`, guided by `prev_items`, the split of an
/// earlier version `prev` of the same file. Wherever the next bytes of
/// `source` equal an old item together with the trivia before it, that
/// item is taken without scanning; every other item is scanned. The items
/// are always exactly `split_items(source)`'s. Beside them comes, per
/// item, the index in `prev_items` of the old item it was taken from
/// (`None` for a scanned item); the indices rise along the split.
///
/// Taking an old item unscanned is sound because the scan of one item is
/// a function of the bytes from the end of the item before it through the
/// item's own last byte: it starts between items at depth zero, and it
/// never reads past the item's closing `;` or `}` (a comment inside trivia
/// or an item closes before that byte, or the old split would not have
/// ended the item there). After a scanned item, the walk resyncs on a
/// one-item edit: the old item after the one it expected (the scanned item
/// replaced that one), the expected item itself (the scanned item was
/// inserted), or the item after those two (the expected one was deleted).
/// If none of them follows, it keeps scanning, so an unrelated `prev`
/// costs a full scan plus a few failed comparisons per item.
#[must_use]
pub fn split_items_like(
    prev: &str,
    prev_items: &[ByteItem],
    source: &str,
) -> Option<(Vec<ByteItem>, Vec<Option<u32>>)> {
    let (old, bytes) = (prev.as_bytes(), source.as_bytes());
    // Old item `k` with the trivia before it, as a byte range of `prev`.
    let chunk = |k: usize| {
        let from = if k == 0 { 0 } else { prev_items[k - 1].end as usize };
        from..prev_items[k].end as usize
    };
    let follows =
        |k: usize, pos: usize| k < prev_items.len() && bytes[pos..].starts_with(&old[chunk(k)]);
    let mut items = Vec::with_capacity(prev_items.len());
    let mut origins = Vec::with_capacity(prev_items.len());
    // `next`: the old item expected at `pos`.
    let (mut pos, mut next) = (0, 0);
    loop {
        if follows(next, pos) {
            let (from, old_item) = (chunk(next).start, prev_items[next]);
            let start = pos + (old_item.start as usize - from);
            pos += old_item.end as usize - from;
            items.push(ByteItem { start: start as u32, end: pos as u32, head: old_item.head });
            origins.push(Some(next as u32));
            next += 1;
            continue;
        }
        let Some(item) = scan_item(bytes, pos)? else { break };
        pos = item.end as usize;
        items.push(item);
        origins.push(None);
        next =
            [next + 1, next, next + 2].into_iter().find(|&k| follows(k, pos)).unwrap_or(next + 1);
    }
    Some((items, origins))
}

/// Scans the first item at or after `pos`, which must lie between items.
/// `Some(None)` when only trivia is left; `None` when the split is in
/// doubt (see [`split_items`]). Reads nothing past the item's last byte.
fn scan_item(bytes: &[u8], mut pos: usize) -> Option<Option<ByteItem>> {
    let mut depth: u32 = 0;
    let mut start: Option<usize> = None;
    while pos < bytes.len() {
        if start.is_some() {
            // Inside an item only brackets, `;` and comment openers matter.
            let skip = bytes[pos..].iter().position(|&b| ITEM_BYTES[usize::from(b)]);
            pos += skip.unwrap_or(bytes.len() - pos);
        }
        let Some(&b) = bytes.get(pos) else { break };
        match (b, bytes.get(pos + 1)) {
            (b'/', Some(b'/')) => {
                pos =
                    bytes[pos..].iter().position(|&c| c == b'\n').map_or(bytes.len(), |n| pos + n);
                continue;
            }
            (b'/', Some(b'*')) => {
                let close = bytes[pos + 2..].windows(2).position(|w| w == b"*/")?;
                pos += close + 4;
                continue;
            }
            _ if b.is_ascii_whitespace() => {
                pos += 1;
                continue;
            }
            _ => {}
        }
        let item_start = *start.get_or_insert(pos);
        let ends = match b {
            b'(' | b'[' | b'{' => {
                depth += 1;
                false
            }
            b')' | b']' | b'}' => {
                depth = depth.checked_sub(1)?;
                b == b'}' && depth == 0
            }
            b';' => depth == 0,
            _ => false,
        };
        pos += 1;
        if ends {
            let head = item_head(&bytes[item_start..pos]);
            return Some(Some(ByteItem { start: item_start as u32, end: pos as u32, head }));
        }
    }
    start.is_none().then_some(None)
}

/// The bytes [`split_items`] must look at inside an item.
const ITEM_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    let marks = b"/()[]{};";
    while i < marks.len() {
        table[marks[i] as usize] = true;
        i += 1;
    }
    table
};

/// Reads an item's [`ItemHead`] off its first word.
fn item_head(item: &[u8]) -> ItemHead {
    let word_len = item.iter().take_while(|c| c.is_ascii_alphanumeric() || **c == b'_').count();
    match &item[..word_len] {
        _ if item[0] == b'@' => ItemHead::Control,
        b"control" => ItemHead::Control,
        b"lattice" => ItemHead::Lattice,
        _ => ItemHead::Other,
    }
}

/// The per-item chain hashes of a source text, or an empty vector when
/// [`split_items`] cannot split it. This is the fingerprint watch mode
/// keeps per file to attribute a change to the first item it touches;
/// it reads bytes only, never tokens.
#[must_use]
pub fn item_chains(source: &str) -> Vec<u64> {
    let Some(items) = split_items(source) else { return Vec::new() };
    let mut chain = hash::OFFSET;
    let mut prev_end = 0;
    items
        .iter()
        .map(|item| {
            chain = hash::bytes(chain, &source.as_bytes()[prev_end..item.end as usize]);
            prev_end = item.end as usize;
            chain
        })
        .collect()
}

/// The index of the first item whose chain hash differs between two chain
/// vectors (an appended or removed tail counts as a change at the first
/// index past the shorter vector). `None` when the vectors are identical
/// or either side has no item-level fingerprint (empty).
#[must_use]
pub fn first_changed_item(old: &[u64], new: &[u64]) -> Option<usize> {
    if old.is_empty() || new.is_empty() {
        return None;
    }
    if let Some(ix) = old.iter().zip(new.iter()).position(|(a, b)| a != b) {
        return Some(ix);
    }
    (old.len() != new.len()).then(|| old.len().min(new.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;
    use p4bid_ast::surface::Item;

    fn segs(src: &str) -> Vec<ItemSeg> {
        item_segments(src, &lex(src).unwrap())
    }

    /// Segment boundaries must coincide with parsed item boundaries on any
    /// program that parses.
    fn assert_aligned(src: &str) {
        let program = crate::parse(src).expect("test program parses");
        let segs = segs(src);
        assert_eq!(segs.len(), program.items.len(), "segment/item count on {src:?}");
        // Where the AST records an item-level span, its end must be the
        // segment's byte end.
        for (seg, item) in segs.iter().zip(program.items.iter()) {
            let end = match item {
                Item::Lattice(l) => Some(l.span.end),
                Item::Function(f) => Some(f.span.end),
                Item::Action(a) => Some(a.span.end),
                Item::Control(c) => Some(c.span.end),
                Item::Type(_) => None,
            };
            if let Some(end) = end {
                assert_eq!(seg.byte_end, end, "span alignment on {src:?}");
            }
        }
    }

    #[test]
    fn segments_align_with_parsed_items() {
        assert_aligned("control C(inout bit<8> x) { apply { x = x + 8w1; } }");
        assert_aligned(
            "lattice { bot < A; bot < B; A < top; B < top; }\n\
             typedef <bit<8>, A> key_t;\n\
             header h_t { key_t f; bit<8> g; }\n\
             struct s_t { h_t h; }\n\
             match_kind { range }\n\
             function bit<8> id(in bit<8> x) { return x; }\n\
             action set(inout bit<8> y) { y = 8w3; }\n\
             @pc(A) control C(inout s_t s) {\n\
                 table t { key = { s.h.f: exact; } actions = { set; } }\n\
                 apply { if (s.h.g == 8w0) { t.apply(); } }\n\
             }",
        );
    }

    #[test]
    fn chains_are_prefix_sensitive() {
        let a = segs("typedef bit<8> a_t;\ncontrol C(inout a_t x) { apply { } }");
        let b = segs("typedef bit<8> a_t;\ncontrol D(inout a_t x) { apply { } }");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(a[0].chain, b[0].chain, "shared prefix, same chain");
        assert_ne!(a[1].chain, b[1].chain, "divergent suffix, different chain");
    }

    #[test]
    fn chains_include_gaps() {
        // Same token content, different trivia between items: the second
        // chain must differ, because spans downstream of the gap shift.
        let a = segs("typedef bit<8> a_t;\ncontrol C(inout a_t x) { apply { } }");
        let b = segs("typedef bit<8> a_t;\n\ncontrol C(inout a_t x) { apply { } }");
        assert_eq!(a[0].chain, b[0].chain);
        assert_ne!(a[1].chain, b[1].chain);
    }

    #[test]
    fn trailing_garbage_is_not_a_segment() {
        let src = "typedef bit<8> a_t;\ncontrol C(inout";
        let s = segs(src);
        assert_eq!(s.len(), 1, "only the complete typedef is a segment");
        assert_eq!(s[0].byte_end, 19);
    }

    #[test]
    fn stray_closers_terminate() {
        // Unbalanced input must not loop or underflow.
        assert_eq!(segs("} } ;").len(), 3);
    }

    #[test]
    fn byte_split_matches_token_segments() {
        let src = "lattice { bot < A; A < top; }\n\
                   // a comment with } and ; and {\n\
                   typedef <bit<8>, A> key_t; /* { */\n\
                   header h_t { key_t f; bit<8> g; }\n\
                   @pc(A) control C(inout h_t h) { apply { h.g = 8w1; } }\n\
                   control D(inout h_t h) { apply { } }\n";
        let items = split_items(src).expect("splits");
        let ends: Vec<u32> = segs(src).iter().map(|s| s.byte_end).collect();
        assert_eq!(items.iter().map(|i| i.end).collect::<Vec<_>>(), ends);
        let heads: Vec<ItemHead> = items.iter().map(|i| i.head).collect();
        use ItemHead::{Control, Lattice, Other};
        assert_eq!(heads, [Lattice, Other, Other, Control, Control]);
        assert!(src[items[1].start as usize..].starts_with("typedef"), "trivia is not the item's");
        assert_eq!(item_chains(src), segs(src).iter().map(|s| s.chain).collect::<Vec<_>>());
        // A run of items lexed on its own parses to the same items.
        let run = crate::lex_range(src, items[1].start as usize..items[3].end as usize).unwrap();
        let whole = crate::parse(src).unwrap();
        assert_eq!(crate::parse_tokens(src, &run).unwrap().items, whole.items[1..4]);
    }

    #[test]
    fn byte_split_refuses_what_it_cannot_split() {
        assert_eq!(split_items(""), Some(Vec::new()));
        assert_eq!(split_items("  // only trivia\n/* */"), Some(Vec::new()));
        assert_eq!(split_items("typedef bit<8> a_t;\ncontrol C(inout"), None, "ends in an item");
        assert_eq!(split_items("} } ;"), None, "a closer with nothing open");
        assert_eq!(split_items("typedef bit<8> a_t; /* open"), None, "ends in a comment");
        assert_eq!(item_chains("control C() { apply { }"), Vec::<u64>::new());
    }

    #[test]
    fn first_changed_item_attribution() {
        let base = item_chains("typedef bit<8> a_t;\ncontrol C(inout a_t x) { apply { } }");
        assert_eq!(base.len(), 2);
        let edited =
            item_chains("typedef bit<8> a_t;\ncontrol C(inout a_t x) { apply { x = 8w1; } }");
        assert_eq!(first_changed_item(&base, &edited), Some(1));
        let retyped = item_chains("typedef bit<4> a_t;\ncontrol C(inout a_t x) { apply { } }");
        assert_eq!(first_changed_item(&base, &retyped), Some(0));
        assert_eq!(first_changed_item(&base, &base), None);
        let grown = item_chains(
            "typedef bit<8> a_t;\ncontrol C(inout a_t x) { apply { } }\naction a() { }",
        );
        assert_eq!(first_changed_item(&base, &grown), Some(2));
        assert_eq!(first_changed_item(&[], &base), None);
    }
}
