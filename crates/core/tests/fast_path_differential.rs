//! Fast-path differential: every shortcut the checker takes must answer
//! exactly as a cold check does.
//!
//! Each case is a generated program — synthetic, a paper case study, or
//! a random fuzz program — plus a relative of it and one-item edits of
//! it. The case is
//! submitted round after round to four serve engines:
//!
//! * **warm** — the verdict cache on, so resubmissions skip the checker;
//! * **resumed** — `--cache-cap 0 --refresh-every 2`: every submission
//!   reaches the checker, and controls seen before under the same
//!   declarations are answered from the item memo;
//! * **refrozen** — `--cache-cap 0 --refresh-every 1`: a refreeze before
//!   every epoch after the first;
//! * **cold** — `--cache-cap 0 --prefix-cache-cap 0`: no shortcut at all.
//!
//! Every epoch's NDJSON report must be byte-identical across the four.
//! The seeds are fixed here, so the cases are the same on every run, and
//! the test also asserts that the cache and the item memo really
//! answered, so it cannot pass by never taking a fast path.
//!
//! A second test drives hand-written edits of one program through the
//! memo: edits that keep every other item's verdict reusable (early
//! cutoff), edits that must invalidate every control after them, and
//! malformed ones.
//!
//! A third interleaves versions of several files, each moving its edit
//! to another control, so every engine but the cold one splits each new
//! version against the file's last one (the guide table of the item
//! memo), and asserts that it did.

use p4bid::batch::BatchInput;
use p4bid::corpus::case_studies;
use p4bid::ni::{random_program, GenConfig};
use p4bid::serve::ServeEngine;
use p4bid::synth::synth_program;
use p4bid::{CheckOptions, SharedSessionCore};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed case seeds.
const SEEDS: std::ops::Range<u64> = 1..41;

/// Times each program of a case is submitted to every engine.
const ROUNDS: usize = 4;

/// The base program of a case, from `(kind, pick)`, and a relative of it
/// that shares most of its items: a leak appended to a synthetic program,
/// a case study's insecure variant (the paper's one-line bug), or a fuzz
/// program's renamed twin.
fn base_program(kind: usize, pick: u64) -> (String, String) {
    match kind {
        0 => {
            let base = synth_program(pick as usize % 8 + 1, !pick.is_multiple_of(3));
            let leak = format!(
                "{base}control Leak(inout headers hdr) {{ apply {{ hdr.st.pub0 = hdr.st.sec0; }} }}\n"
            );
            (base, leak)
        }
        1 => {
            let studies = case_studies();
            let study = &studies[pick as usize % studies.len()];
            (study.secure.to_string(), study.insecure.to_string())
        }
        _ => {
            let base = random_program(pick, &GenConfig::default()).source;
            let twin = base.replacen("control Fuzz", "control Twin", 1);
            (base, twin)
        }
    }
}

/// The byte range of each top-level item, gaps before it included.
fn item_ranges(src: &str) -> Vec<(usize, usize)> {
    let tokens = p4bid_syntax::lex(src).expect("generated programs lex");
    let mut start = 0;
    p4bid_syntax::item_segments(src, &tokens)
        .iter()
        .map(|seg| {
            let range = (start, seg.byte_end as usize);
            start = seg.byte_end as usize;
            range
        })
        .collect()
}

/// Applies one-item edit `kind` to the item `pick` selects.
fn edit_one_item(src: &str, kind: usize, pick: usize, n: usize) -> String {
    let ranges = item_ranges(src);
    let (start, end) = ranges[pick % ranges.len()];
    let item = &src[start..end];
    let replaced = match kind {
        // A new control leaking high into low: a rejection with lineage.
        0 => format!(
            "\ncontrol Edit{n}(inout <bit<8>, low> l, inout <bit<8>, high> h) {{ apply {{ l = h; }} }}"
        ),
        // A new accepted control.
        1 => format!("\ncontrol Edit{n}(inout bit<8> x) {{ apply {{ x = x + 8w{n}; }} }}"),
        // Extra lines before the item: same verdict, shifted positions.
        2 => format!("\n// edit {n}\n{item}"),
        // The item deleted: later references to it may break.
        3 => String::new(),
        // The item duplicated: a redefinition unless it is a control.
        _ => format!("{item}{item}"),
    };
    format!("{}{replaced}{}", &src[..start], &src[end..])
}

/// One generated case: a base program, its relative and its one-item
/// edits.
fn case(seed: u64) -> Vec<String> {
    let strategy = (0usize..3, any::<u64>(), vec((0usize..5, any::<usize>()), 2..4));
    let (kind, pick, edits) = strategy.generate(&mut StdRng::seed_from_u64(seed));
    let (base, relative) = base_program(kind, pick);
    let mut programs = vec![base.clone(), relative];
    for (n, (edit, item)) in edits.into_iter().enumerate() {
        programs.push(edit_one_item(&base, edit, item, n + 1));
    }
    programs
}

/// The four engines, in the order the module doc lists them.
fn engines(jobs: usize) -> [ServeEngine; 4] {
    let opts = CheckOptions::ifc();
    [
        ServeEngine::new(opts.clone(), jobs).with_cache(1024),
        ServeEngine::new(opts.clone(), jobs).with_refresh_every(Some(2)),
        ServeEngine::new(opts.clone(), jobs).with_refresh_every(Some(1)),
        ServeEngine::with_core(SharedSessionCore::with_prefix_cache_cap(opts, 0), jobs),
    ]
}

#[test]
fn every_fast_path_matches_the_cold_check_byte_for_byte() {
    const NAMES: [&str; 4] = ["warm", "resumed", "refrozen", "cold"];
    let (mut cache_hits, mut resumed_hits, mut refrozen_hits) = (0, 0, 0);
    for seed in SEEDS {
        let programs = case(seed);
        let jobs = 1 + (seed % 2) as usize;
        let mut engines = engines(jobs);
        for round in 0..ROUNDS {
            // Rotate the order, so each program meets the others' snapshots.
            let inputs: Vec<BatchInput> = (0..programs.len())
                .map(|i| (i + round) % programs.len())
                .map(|i| BatchInput::new(format!("p{i}"), programs[i].clone()))
                .collect();
            let reports: Vec<String> =
                engines.iter_mut().map(|e| e.run_epoch(&inputs).to_ndjson()).collect();
            for (name, report) in NAMES.iter().zip(&reports).take(3) {
                assert_eq!(
                    report, &reports[3],
                    "seed {seed}, round {round}: the {name} engine differs from the cold one\n\
                     programs: {programs:#?}"
                );
            }
        }
        let [warm, resumed, refrozen, cold] = &engines;
        cache_hits += warm.ops().cache_hits;
        resumed_hits += resumed.cumulative_stats().sessions.prefix_hits;
        refrozen_hits += refrozen.cumulative_stats().sessions.prefix_hits;
        assert_eq!(cold.cumulative_stats().sessions.prefix_hits, 0, "seed {seed}");
    }
    assert!(cache_hits > 0, "the verdict cache never answered");
    assert!(resumed_hits > 0, "the memo never answered on the refresh-every-2 engine");
    assert!(refrozen_hits > 0, "the memo never answered on the refresh-every-1 engine");
}

/// Files an editor keeps open at once in [`interleaved_files_are_split_against_their_last_version`].
const FILES: usize = 3;

/// Controls per file in that test.
const FILE_CONTROLS: usize = 10;

/// Version `v` of file `f`, shaped like the `edit-stream` benchmark's
/// programs: a header and a struct, then controls, with control
/// `edit(v)` edited. Every fifth version leaks instead; version 3 inserts
/// a control and version 6 deletes one.
fn file_version(f: usize, v: usize) -> String {
    let edit = (v * 3) % FILE_CONTROLS;
    let mut src = format!(
        "header it{f}_t {{ <bit<32>, high> sec; <bit<32>, low> pub; }}\nstruct ih{f} {{ it{f}_t f; }}\n"
    );
    for c in 0..FILE_CONTROLS {
        if v == 6 && c == 4 {
            continue;
        }
        if v == 3 && c == 7 {
            src.push_str(&format!("control Ins{f}(inout ih{f} h) {{ apply {{ }} }}\n"));
        }
        src.push_str(&format!("control C{f}_{c}(inout ih{f} h) {{\n    apply {{\n"));
        for j in 0..3 {
            let salt = if c == edit && j == 0 { 1000 + v } else { f * 100 + c * 10 + j };
            src.push_str(&format!("        h.f.pub = (h.f.pub + 32w{j}) ^ 32w{salt};\n"));
        }
        if c == edit && v % 5 == 4 {
            src.push_str("        h.f.pub = h.f.sec;\n");
        }
        src.push_str("    }\n}\n");
    }
    src
}

#[test]
fn interleaved_files_are_split_against_their_last_version() {
    const NAMES: [&str; 4] = ["warm", "resumed", "refrozen", "cold"];
    let mut engines = engines(1);
    for v in 0..12 {
        for f in 0..FILES {
            let src = file_version(f, v);
            let input = [BatchInput::new(format!("file{f}.p4"), src.clone())];
            let reports: Vec<String> =
                engines.iter_mut().map(|e| e.run_epoch(&input).to_ndjson()).collect();
            for (name, report) in NAMES.iter().zip(&reports).take(3) {
                assert_eq!(report, &reports[3], "version {v} of file {f}: {name} differs\n{src}");
            }
        }
    }
    let guided = |e: &ServeEngine| e.cumulative_stats().sessions.guided_splits;
    let [warm, resumed, refrozen, cold] = &engines;
    // Each file's first version sights its first item and its second is
    // kept, so the other ten of its versions are split guided.
    for (name, engine) in NAMES.iter().zip([warm, resumed, refrozen]) {
        assert_eq!(guided(engine), (FILES * 10) as u64, "{name}");
    }
    assert_eq!(guided(cold), 0, "the cold engine keeps no guide");
    assert!(resumed.cumulative_stats().sessions.prefix_hits > 0);
}

/// The early-cutoff base: declarations, then five controls. `Local`
/// interns a name (`scratch`) that only it declares, `Uses` reads that
/// name (an unknown variable), and `Leak` is rejected with a two-edge
/// lineage path.
const CUTOFF_BASE: &str = "\
lattice { low < high; }
typedef bit<8> octet;
header h_t { <octet, high> sec; <octet, low> pub; }
struct hs { h_t h; }
function octet idf(in octet x) { return x; }
control C0(inout hs s) {
    apply { s.h.pub = idf(s.h.pub); }
}
control Local(inout hs s) {
    <octet, low> scratch = 8w0;
    apply { scratch = s.h.pub; s.h.pub = scratch + 8w1; }
}
control Leak(inout hs s) {
    apply {
        <octet, high> t = s.h.sec;
        s.h.pub = t;
    }
}
control Uses(inout hs s) {
    apply { s.h.pub = scratch; }
}
control Tail(inout hs s) {
    apply { s.h.sec = s.h.sec + 8w2; }
}
";

/// One edit of [`CUTOFF_BASE`]: what it does, the edited program, and how
/// many of the five controls the memo answers when it is first submitted.
fn cutoff_edits() -> Vec<(&'static str, String, u64)> {
    let edit = |from: &str, to: &str| {
        assert!(CUTOFF_BASE.contains(from), "{from}");
        CUTOFF_BASE.replacen(from, to, 1)
    };
    vec![
        ("a body-only edit that lengthens C0", edit("idf(s.h.pub);", "idf(s.h.pub) + 8w0;"), 4),
        ("a same-length edit of the last control", edit("8w2", "8w3"), 4),
        ("a body-only edit that shortens Local", edit(" s.h.pub = scratch + 8w1;", ""), 4),
        ("lines added above everything", format!("// moved\n\n{CUTOFF_BASE}"), 5),
        ("a header field's label", edit("<octet, low> pub", "<octet, high> pub"), 0),
        ("a typedef", edit("typedef bit<8> octet", "typedef bit<16> octet"), 0),
        ("a function's signature", edit("idf(in octet x)", "idf(in <octet, high> x)"), 0),
        ("the lattice", edit("lattice { low < high; }", "lattice { low < mid; mid < high; }"), 0),
        ("an action added before Leak", edit("control Leak", "action nop() { }\ncontrol Leak"), 2),
        ("a malformed control", edit("s.h.sec + 8w2", "s.h.sec + "), 0),
        ("a malformed declaration", edit("struct hs { h_t h; }", "struct hs { h_t h }"), 0),
        (
            "an unbalanced brace",
            edit("apply { s.h.pub = scratch; }", "apply { s.h.pub = scratch;"),
            0,
        ),
    ]
}

#[test]
fn early_cutoff_edits_match_the_cold_check_byte_for_byte() {
    let opts = CheckOptions::ifc();
    let mut memo = ServeEngine::new(opts.clone(), 1);
    let mut cold = ServeEngine::with_core(SharedSessionCore::with_prefix_cache_cap(opts, 0), 1);
    let hits = |e: &ServeEngine| e.cumulative_stats().sessions.prefix_hits;
    let mut submit = |src: &str, what: &str| {
        let before = hits(&memo);
        let input = [BatchInput::new("p", src)];
        let got = memo.run_epoch(&input).to_ndjson();
        assert_eq!(got, cold.run_epoch(&input).to_ndjson(), "{what}:\n{src}");
        hits(&memo) - before
    };
    // The first submission sights the controls, the second records them.
    assert_eq!(submit(CUTOFF_BASE, "base"), 0);
    assert_eq!(submit(CUTOFF_BASE, "base"), 0);
    assert_eq!(submit(CUTOFF_BASE, "base"), 5, "every control answered from the memo");
    for (what, src, reused) in cutoff_edits() {
        assert_eq!(submit(&src, what), reused, "{what}");
        // Twice more: the edit's own controls are recorded, then reused.
        submit(&src, what);
        submit(&src, what);
        assert_eq!(submit(CUTOFF_BASE, what), 5, "{what}: the base is still recorded");
    }
    let stats = memo.cumulative_stats().sessions;
    assert!(stats.prefix_items_saved > 0, "{stats:?}");
    assert_eq!(cold.cumulative_stats().sessions.prefix_items_saved, 0);
}
