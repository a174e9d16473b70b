//! Pinned leak witnesses: what the paired-execution harness reports on a
//! fixed range of leaky generated programs.
//!
//! The programs are admitted by the permissive checker (labels kept,
//! flows unenforced), so many of them leak. For every seed the table
//! below records, per leak found, the pair index, both runs' exit flags
//! and the paths of the observable differences. The interpreter and the
//! harness must reproduce every line exactly: a change that moves a leak
//! to another pair, flips an exit flag or drops a difference shows here.

use p4bid_ni::{check_non_interference, random_program, GenConfig, NiConfig, NiOutcome};
use p4bid_typeck::{check_source, CheckOptions};

/// `seed run_index exited_a exited_b paths` for every leak found on
/// seeds `0..SEEDS`.
const PINNED: &[&str] = &[
    "2 0 false false l0",
    "5 0 false false l0",
    "8 0 false false l0",
    "9 0 false false l1",
    "12 0 false false l0,l1",
    "15 0 false false l0",
    "16 0 false false l0",
    "17 0 true true l1",
    "19 1 true true l0",
    "21 0 true true l1",
    "26 14 false false l0,l1",
    "29 28 false false l1",
    "33 0 false false l1",
    "35 0 false false l0",
    "37 0 true false ",
    "39 0 true true l0",
    "42 0 false false l0",
    "45 0 false false l1",
    "46 10 true true l0",
    "47 3 false false l1",
    "49 0 false false l0,l1",
    "50 0 true true l1",
    "52 0 false false l0",
    "53 0 true true l0",
    "56 0 false false l0",
    "57 0 false false l0",
    "58 0 false false l0",
    "59 0 false false l0,l1",
    "60 0 false false l0",
    "62 0 false false l0",
    "63 0 false false l0,l1",
    "64 1 true true l0",
    "65 0 true true l0",
    "67 0 false false l0,l1",
    "70 0 false false l1",
    "71 0 false false l0,l1",
    "73 0 false false l0",
    "75 0 false false l0",
    "77 0 false false l1",
    "78 0 true true l1",
    "83 0 false false l0",
    "86 0 false false l1",
    "94 0 true true l0",
    "95 0 false false l0",
    "96 0 false false l1",
    "97 0 false false l0,l1",
    "98 0 false false l0",
    "99 0 true true l0",
    "100 0 true true l1",
    "103 7 false false l1",
    "104 0 false false l0",
    "105 0 false false l0",
    "110 0 false false l0",
    "112 8 false false l1",
    "114 0 false false l1",
    "117 1 true true l0",
    "120 0 false false l0",
    "123 0 true true l1",
    "124 7 false false l0",
    "126 16 true true l0",
    "127 0 false false l0",
    "128 0 true true l1",
    "129 0 false false l1",
    "130 0 false false l0,l1",
    "131 0 false false l0,l1",
    "136 0 false false l0",
    "137 0 true true l1",
    "138 4 false false l1",
    "139 1 false false l0",
    "140 0 false false l1",
    "141 19 false false l0,l1",
    "142 0 false false l1",
    "146 0 false false l0",
    "148 0 false false l0",
    "149 0 false false l0",
    "150 0 false true l1",
    "156 0 true true l0,l1",
    "157 0 false false l1",
];

const SEEDS: u64 = 160;

fn leak_lines() -> (Vec<String>, usize) {
    let cfg = GenConfig::default().with_safe_bias(0.0);
    let ni = NiConfig::default().with_runs(30).with_seed(0x5EED);
    let mut lines = Vec::new();
    let mut checked = 0;
    for seed in 0..SEEDS {
        let gp = random_program(seed, &cfg);
        let Ok(typed) = check_source(&gp.source, &CheckOptions::permissive()) else { continue };
        checked += 1;
        match check_non_interference(&typed, &gp.control_plane, "Fuzz", &ni) {
            NiOutcome::Leak(w) => {
                let paths: Vec<&str> = w.differences.iter().map(|d| d.path.as_str()).collect();
                lines.push(format!(
                    "{seed} {} {} {} {}",
                    w.run_index,
                    w.exited.0,
                    w.exited.1,
                    paths.join(",")
                ));
            }
            NiOutcome::Holds { .. } => {}
            NiOutcome::Error(e) => panic!("seed {seed}: {e}"),
        }
    }
    (lines, checked)
}

#[test]
fn leak_witnesses_match_the_pinned_table() {
    let (lines, checked) = leak_lines();
    assert_eq!(checked, SEEDS as usize, "every seed passes the permissive checker");
    assert_eq!(lines.len(), 78, "leaks found on seeds 0..{SEEDS}");
    assert_eq!(lines, PINNED, "actual table:\n{}", lines.join("\n"));
}
