//! The guided item split must be the plain split: for any earlier version
//! `a` of a file and any new version `b`, the items of
//! `split_items_like(a, &split_items(a)?, b)` are `split_items(b)`,
//! refusals (`None`) included. Every item it says it took from `a` must be
//! that old item byte for byte, in `a`'s order.
//!
//! The versions are the checker's golden programs and synthetic programs
//! shaped like an editor's buffer (a header, a struct, many controls,
//! comments between them), each edited by a few random mutations: item
//! replacements, insertions and deletions, raw byte edits, and injected
//! comment openers, comment closers and stray brackets, which move item
//! boundaries far from where they were made. Every pair is checked in both
//! directions.

use p4bid_syntax::{split_items, split_items_like, ByteItem};
use proptest::collection::vec;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The `.p4` programs under the checker's testdata, read once.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(read_corpus)
}

fn read_corpus() -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../typeck/testdata");
    let mut programs = Vec::new();
    for dir in ["accept", "reject"] {
        let entries = std::fs::read_dir(format!("{root}/{dir}")).expect("testdata is readable");
        let mut paths: Vec<_> = entries.map(|e| e.expect("a directory entry").path()).collect();
        paths.sort();
        for path in paths.into_iter().filter(|p| p.extension().is_some_and(|e| e == "p4")) {
            programs.push(std::fs::read_to_string(path).expect("a UTF-8 program"));
        }
    }
    assert!(programs.len() >= 20, "testdata holds the golden programs");
    programs
}

/// A program shaped like an edited file: a header and a struct, then
/// `controls` controls, some with a comment before them.
fn synthetic(controls: usize, salt: u64) -> String {
    let mut src = String::from(
        "header h_t { <bit<32>, high> sec; <bit<32>, low> pub; }\nstruct hs { h_t f; }\n",
    );
    for c in 0..controls {
        match (salt + c as u64) % 5 {
            0 => src.push_str("// a note about the next control\n"),
            1 => src.push_str("/* { block } ; */\n"),
            _ => {}
        }
        let _ = writeln!(src, "control C{c}(inout hs h) {{\n    apply {{");
        for j in 0..3 {
            let _ = writeln!(src, "        h.f.pub = (h.f.pub + 32w{j}) ^ 32w{};", salt % 97 + j);
        }
        src.push_str("    }\n}\n");
    }
    src
}

/// Snippets a mutation inserts: whole items, trivia, and the bytes that
/// move item boundaries.
const INSERTS: [&str; 14] = [
    "\ncontrol New(inout hs h) { apply { h.f.pub = 32w1; } }\n",
    "action nop() { }\n",
    "typedef bit<8> octet;\n",
    "// ",
    "/*",
    "*/",
    "/* } */",
    "{",
    "}",
    "(",
    ")",
    ";",
    "\n",
    "  ",
];

/// Byte offset `at` (taken modulo the length) moved back to a character
/// boundary, so edits keep the text UTF-8.
fn boundary(src: &str, at: usize) -> usize {
    let mut at = at % (src.len() + 1);
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// The byte range of item `pick` (modulo the item count) with the trivia
/// before it, or `None` when `src` does not split into any item.
fn item_range(src: &str, pick: usize) -> Option<(usize, usize)> {
    let items = split_items(src).filter(|items| !items.is_empty())?;
    let k = pick % items.len();
    let start = if k == 0 { 0 } else { items[k - 1].end as usize };
    Some((start, items[k].end as usize))
}

/// Applies mutation `kind` to `src`: `pick` chooses the item or snippet,
/// `at` the byte offset (or the offset from an item's end).
fn mutate(src: &str, kind: usize, at: usize, pick: usize) -> String {
    let splice = |from: usize, to: usize, text: &str| {
        let (from, to) = (boundary(src, from), boundary(src, to));
        format!("{}{text}{}", &src[..from], &src[to.max(from)..])
    };
    let snippet = INSERTS[pick % INSERTS.len()];
    let Some((start, end)) = item_range(src, pick) else {
        return splice(at, at, snippet);
    };
    match kind {
        // Replace an item's body text, keeping its boundaries.
        0 => {
            let text = src[start..end].replacen("32w", "32w7", 1).replacen("{ }", "{ ; }", 1);
            splice(start, end, &text)
        }
        // Delete an item with its leading trivia.
        1 => splice(start, end, ""),
        // Duplicate an item in place.
        2 => splice(end, end, &src[start..end]),
        // Delete one to three bytes anywhere, or ending at an item's end
        // (its closing `;` or `}` included).
        3 => splice(at, at + 1 + pick % 3, ""),
        4 => splice(end.saturating_sub(1 + at % 3), end, ""),
        // Insert a snippet anywhere, just before an item's end, or where
        // an item's trivia begins.
        5 => splice(at, at, snippet),
        6 => splice(end.saturating_sub(at % 3), end.saturating_sub(at % 3), snippet),
        _ => splice(start, start, snippet),
    }
}

/// Asserts the guided split of `b` against `a` equals the plain split of
/// `b` (when `a` splits at all), and that each item taken from `a` is the
/// old item it names.
fn agrees(a: &str, b: &str) -> Result<(), TestCaseError> {
    let Some(a_items) = split_items(a) else { return Ok(()) };
    let guided = split_items_like(a, &a_items, b);
    let items = guided.as_ref().map(|(items, _)| items.clone());
    prop_assert_eq!(items, split_items(b), "{:?} -> {:?}", a, b);
    let Some((items, origins)) = guided else { return Ok(()) };
    let text = |src: &str, i: &ByteItem| src[i.start as usize..i.end as usize].to_string();
    let mut last = None;
    for (item, origin) in items.iter().zip(origins) {
        let Some(k) = origin else { continue };
        prop_assert_eq!(text(b, item), text(a, &a_items[k as usize]));
        prop_assert!(last < Some(k), "origins rise: {:?} then {}", last, k);
        last = Some(k);
    }
    Ok(())
}

proptest! {
    /// Corpus and synthetic programs, mutated one to three times, split
    /// the same way guided (in either direction) as unguided.
    #[test]
    fn guided_split_equals_plain_split(
        base in (0usize..64, 1usize..24, any::<u64>()),
        edits in vec((0usize..8, any::<usize>(), any::<usize>()), 1..4),
        chain in vec((0usize..8, any::<usize>(), any::<usize>()), 0..3),
    ) {
        let corpus = corpus();
        let (which, controls, salt) = base;
        let a = if which < corpus.len() {
            corpus[which].clone()
        } else {
            synthetic(controls, salt)
        };
        let mut b = a.clone();
        for (kind, at, pick) in edits {
            b = mutate(&b, kind, at, pick);
        }
        agrees(&a, &b)?;
        agrees(&b, &a)?;
        // A file edited again and again: each version guided by the last.
        let mut c = b.clone();
        for (kind, at, pick) in chain {
            let next = mutate(&c, kind, at, pick);
            agrees(&c, &next)?;
            c = next;
        }
    }

    /// Two unrelated programs: the guide never matches past its first
    /// mismatch, and the answer is still the plain split.
    #[test]
    fn an_unrelated_guide_changes_nothing(
        a in (1usize..16, any::<u64>()),
        b in (1usize..16, any::<u64>()),
    ) {
        let (a, b) = (synthetic(a.0, a.1), synthetic(b.0, b.1));
        agrees(&a, &b)?;
        agrees(&b, &a)?;
    }
}
