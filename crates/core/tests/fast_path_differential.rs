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
//!   reaches the checker, and once the core has refrozen the sighted
//!   prefixes are snapshotted and later submissions resume from them;
//! * **refrozen** — `--cache-cap 0 --refresh-every 1`: a refreeze before
//!   every epoch after the first;
//! * **cold** — `--cache-cap 0 --prefix-cache-cap 0`: no shortcut at all.
//!
//! Every epoch's NDJSON report must be byte-identical across the four.
//! The seeds are fixed here, so the cases are the same on every run, and
//! the test also asserts that the cache and the prefix snapshots really
//! answered, so it cannot pass by never taking a fast path.

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
/// whose rejection explains itself through the base's own flows: a leak
/// appended to a synthetic program, a case study's insecure variant (the
/// paper's one-line bug), or a fuzz program's renamed twin.
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
    assert!(resumed_hits > 0, "no check resumed on the refresh-every-2 engine");
    assert!(refrozen_hits > 0, "no check resumed on the refresh-every-1 engine");
}
