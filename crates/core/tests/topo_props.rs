//! Property-based tests for the topology fixpoint driver.
//!
//! Random topologies — DAGs, rings, self-loops, tangles — over a small
//! program pool, on boundary lattices of two and three labels, with
//! declared egresses, declassify gateways, `pc` floors and per-switch
//! lattice overrides, must uphold the driver's contract whatever shape
//! they take:
//!
//! * reports byte-identical across `--jobs` settings and repeated runs,
//!   round counts inside the derived `n * |lattice| + 2` bound, and
//!   final ingress labels monotone over their declared seeds;
//! * a second engine epoch that re-checks nothing and reproduces the
//!   same verdicts;
//! * labels, verdicts and violations equal to a brute-force oracle's,
//!   which searches every label assignment and checks each switch cold;
//! * a long-lived engine driven through edits and overrides that reports
//!   after every epoch exactly what a fresh check of the same topology
//!   reports, both when every epoch re-parses the manifest and when every
//!   epoch resolves one parsed manifest.

use p4bid::batch::{check_batch, BatchDiagnostic, BatchInput};
use p4bid::lattice::Label;
use p4bid::topo::{check_topology, TopoEngine, TopoManifest, TopoReport, Topology};
use p4bid::CheckOptions;
use proptest::prelude::*;
use std::ops::Range;

/// The program pool: an accept-anywhere forwarder, a public writer that
/// rejects under a secret seed, and an unconditional explicit flow.
const POOL: [&str; 3] = [
    "control Fwd(inout <bit<8>, high> x) { apply { x = x + 8w1; } }",
    "control Ctr(inout <bit<8>, low> y) { apply { y = y + 8w1; } }",
    "control Leak(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
];

/// The boundary lattices the oracle and the watch differential draw
/// from: every lattice of at most three labels is a chain.
const CHAINS: [&[&str]; 2] = [&["low", "high"], &["low", "mid", "high"]];

/// Programs for drawn switches: the three of [`POOL`], a `mid` writer
/// (its label only resolves under a three-label program lattice), and a
/// declassifier (only typechecks where `declassify` is granted).
fn program(kind: usize) -> &'static str {
    match kind % 5 {
        k @ 0..=2 => POOL[k],
        3 => "control Mid(inout <bit<8>, mid> m) { apply { m = m + 8w1; } }",
        _ => {
            "control Rel(inout <bit<8>, low> l, inout <bit<8>, high> h) \
              { apply { l = declassify(h); } }"
        }
    }
}

/// One drawn switch. Labels are indices into the boundary chain, taken
/// modulo its length.
#[derive(Debug, Clone)]
struct SwitchSpec {
    /// Name suffix, so a rename is an edit.
    tag: usize,
    source: String,
    ingress: Option<usize>,
    egress: Option<usize>,
    pc: Option<usize>,
    declassify: Option<bool>,
    /// Whether the switch checks its program under the boundary chain
    /// (otherwise under the default two-point lattice).
    lattice: bool,
}

/// A drawn topology, kept as plain values so a test can edit it and
/// re-render the manifest.
#[derive(Debug, Clone)]
struct Spec {
    chain: usize,
    switches: Vec<SwitchSpec>,
    /// `(from, to, contract)`, endpoints taken modulo the switch count.
    links: Vec<(usize, usize, Option<usize>)>,
}

fn opt_label(x: usize) -> Option<usize> {
    x.checked_sub(1)
}

fn opt_bool(x: usize) -> Option<bool> {
    [None, Some(false), Some(true)][x % 3]
}

/// One switch's drawn knobs: program, ingress, egress, pc, declassify,
/// lattice override.
type Knobs = (usize, usize, usize, usize, usize, usize);

/// Knobs for `switches` switches.
fn knobs(switches: Range<usize>) -> impl Strategy<Value = Vec<Knobs>> {
    proptest::collection::vec(
        (0usize..5, 0usize..4, 0usize..4, 0usize..4, 0usize..3, 0usize..2),
        switches,
    )
}

/// `count` links as `(from, to, contract)`.
fn links(count: Range<usize>) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..5, 0usize..5, 0usize..4), count)
}

impl Spec {
    /// Builds a spec from drawn knobs. Every spec renders a structurally
    /// valid manifest: names are distinct, ports are globally unique, and
    /// labels come from the boundary lattice.
    fn draw(chain: usize, knobs: &[Knobs], links: &[(usize, usize, usize)]) -> Self {
        Spec {
            chain: chain % CHAINS.len(),
            switches: knobs
                .iter()
                .map(|&(prog, ingress, egress, pc, declassify, lattice)| SwitchSpec {
                    tag: 0,
                    source: program(prog).to_string(),
                    ingress: opt_label(ingress),
                    egress: opt_label(egress),
                    pc: opt_label(pc),
                    declassify: opt_bool(declassify),
                    lattice: lattice == 1,
                })
                .collect(),
            links: links.iter().map(|&(a, b, c)| (a, b, opt_label(c))).collect(),
        }
    }

    fn chain(&self) -> &'static [&'static str] {
        CHAINS[self.chain]
    }

    fn label(&self, ix: usize) -> &'static str {
        self.chain()[ix % self.chain().len()]
    }

    /// Renders the manifest and assembles it; switch `i` reads program
    /// `p{i}.p4`.
    fn topology(&self) -> Topology {
        self.resolve(&self.manifest())
    }

    /// Renders and parses the manifest.
    fn manifest(&self) -> TopoManifest {
        let order: Vec<String> =
            self.chain().windows(2).map(|w| format!("{} < {}", w[0], w[1])).collect();
        let order = order.join("; ");
        let mut m = format!("lattice = \"{order}\"\n");
        let n = self.switches.len();
        for (i, sw) in self.switches.iter().enumerate() {
            m.push_str(&format!("\n[switch s{i}_{}]\nprogram = \"p{i}.p4\"\n", sw.tag));
            for (key, label) in [("ingress", sw.ingress), ("egress", sw.egress), ("pc", sw.pc)] {
                if let Some(l) = label {
                    m.push_str(&format!("{key} = \"{}\"\n", self.label(l)));
                }
            }
            if let Some(d) = sw.declassify {
                m.push_str(&format!("declassify = {d}\n"));
            }
            if sw.lattice {
                m.push_str(&format!("lattice = \"{order}\"\n"));
            }
        }
        for (k, &(a, b, contract)) in self.links.iter().enumerate() {
            m.push_str(&format!("\n[link s{}_{}:o{k} -> ", a % n, self.switches[a % n].tag));
            m.push_str(&format!("s{}_{}:i{k}]\n", b % n, self.switches[b % n].tag));
            if let Some(c) = contract {
                m.push_str(&format!("contract = \"{}\"\n", self.label(c)));
            }
        }
        TopoManifest::parse(&m).expect("drawn manifest parses")
    }

    /// Resolves `manifest` against the current sources.
    fn resolve(&self, manifest: &TopoManifest) -> Topology {
        manifest
            .resolve_with(|path| {
                let i: usize = path[1..path.len() - 3].parse().expect("drawn path");
                Ok(self.switches[i].source.clone())
            })
            .expect("drawn topology assembles")
    }
}

/// One switch's verdict as comparable plain data.
type Verdict = (String, bool, Vec<BatchDiagnostic>);

/// What the brute-force oracle expects of a topology.
#[derive(Debug, PartialEq)]
struct Expected {
    /// Per switch: final ingress and egress label names.
    labels: Vec<(String, String)>,
    verdicts: Vec<Verdict>,
    /// `(kind, at, label, bound)`: contract breaches in link order, then
    /// refused downgrades in switch order.
    violations: Vec<(&'static str, String, String, String)>,
}

/// The topology semantics restated as a search, sharing no code with the
/// fixpoint driver: enumerate every ingress assignment, keep those that
/// respect the seeds and carry every link's egress label into its
/// downstream ingress, take the least of them, and check each switch cold
/// at its label.
fn oracle(topo: &Topology, base: &CheckOptions) -> Expected {
    let lat = topo.lattice();
    let sws = topo.switches();
    let n = sws.len();
    let labels: Vec<Label> = lat.labels().collect();
    let grant = |i: usize| sws[i].declassify.unwrap_or(base.allow_declassify);
    let egress = |i: usize, in_: Label| match sws[i].egress {
        Some(eg) if lat.leq(in_, eg) || grant(i) => eg,
        _ => in_,
    };
    let mut solutions: Vec<Vec<Label>> = Vec::new();
    for code in 0..labels.len().pow(n as u32) {
        let assign: Vec<Label> =
            (0..n).map(|i| labels[code / labels.len().pow(i as u32) % labels.len()]).collect();
        let seeded = (0..n).all(|i| lat.leq(sws[i].ingress, assign[i]));
        let carried =
            topo.links().iter().all(|l| lat.leq(egress(l.from, assign[l.from]), assign[l.to]));
        if seeded && carried {
            solutions.push(assign);
        }
    }
    let below = |a: &[Label], b: &[Label]| a.iter().zip(b).all(|(&x, &y)| lat.leq(x, y));
    let least = solutions
        .iter()
        .find(|a| solutions.iter().all(|b| below(a, b)))
        .expect("the satisfying assignments have a least element");
    let verdicts = (0..n)
        .map(|i| {
            let sw = &sws[i];
            let mut opts = base.clone().with_pc_floor(true);
            if let Some(l) = &sw.lattice {
                opts.lattice = Some(l.clone());
            }
            opts.allow_declassify = grant(i);
            let seed = sw.pc.map_or(least[i], |pc| lat.join(least[i], pc));
            if !lat.is_bottom(seed) {
                opts.pc = Some(lat.name(seed).to_string());
            }
            let cold = check_batch(
                &[BatchInput::new(sw.name.clone(), topo.sources()[i].clone())],
                &opts,
                1,
            );
            let p = &cold.programs[0];
            (p.name.clone(), p.accepted, p.diagnostics.clone())
        })
        .collect();
    let mut violations = Vec::new();
    for l in topo.links() {
        let carried = egress(l.from, least[l.from]);
        if !lat.leq(carried, l.contract) {
            violations.push((
                "contract",
                format!("{}:{} -> {}:{}", sws[l.from].name, l.from_port, sws[l.to].name, l.to_port),
                lat.name(carried).to_string(),
                lat.name(l.contract).to_string(),
            ));
        }
    }
    for (i, sw) in sws.iter().enumerate() {
        if let Some(eg) = sw.egress {
            if !lat.leq(least[i], eg) && !grant(i) {
                violations.push((
                    "downgrade",
                    sw.name.clone(),
                    lat.name(least[i]).to_string(),
                    lat.name(eg).to_string(),
                ));
            }
        }
    }
    Expected {
        labels: (0..n)
            .map(|i| (lat.name(least[i]).to_string(), lat.name(egress(i, least[i])).to_string()))
            .collect(),
        verdicts,
        violations,
    }
}

/// A fixpoint report in the oracle's terms.
fn observed(report: &TopoReport) -> Expected {
    Expected {
        labels: report.switches.iter().map(|s| (s.ingress.clone(), s.egress.clone())).collect(),
        verdicts: report
            .switches
            .iter()
            .map(|s| (s.verdict.name.clone(), s.verdict.accepted, s.verdict.diagnostics.clone()))
            .collect(),
        violations: report
            .violations
            .iter()
            .map(|v| (v.kind.ident(), v.at.clone(), v.label.clone(), v.bound.clone()))
            .collect(),
    }
}

/// A report's JSON without its `switch_rechecks` line: everything a fast
/// path must reproduce byte for byte.
fn without_rechecks(report: &TopoReport) -> String {
    report.to_json().lines().filter(|l| !l.contains("\"switch_rechecks\"")).collect()
}

/// A report's table without the recheck count that ends its summary line.
fn table_without_rechecks(report: &TopoReport) -> String {
    let table = report.render_table();
    let cut = table.rfind(", ").expect("the summary line names the rechecks");
    table[..cut].to_string()
}

proptest! {
    /// The determinism contract and the round bound, over arbitrary
    /// topology shapes.
    #[test]
    fn fixpoint_is_deterministic_bounded_and_monotone(
        chain in 0usize..2,
        knobs in knobs(1..5),
        links in links(0..8),
    ) {
        let topo = Spec::draw(chain, &knobs, &links).topology();
        let opts = CheckOptions::ifc();

        let reference = check_topology(&topo, &opts, 1);
        for jobs in [2usize, 8] {
            let r = check_topology(&topo, &opts, jobs);
            prop_assert_eq!(
                r.to_json(), reference.to_json(),
                "report differs at jobs={}", jobs
            );
        }
        let again = check_topology(&topo, &opts, 2);
        prop_assert_eq!(again.to_json(), reference.to_json(), "report differs across runs");

        // Termination bound: every round past the first must raise at
        // least one of the n labels, and each can only climb
        // |lattice| - 1 times; n * |lattice| + 2 over-approximates that
        // with slack for the seed and quiescence rounds.
        let lat = topo.lattice();
        let bound = (topo.switches().len() * lat.len() + 2) as u64;
        prop_assert!(reference.rounds <= bound, "rounds {} > bound {}", reference.rounds, bound);

        // Monotonicity: no switch's final ingress dropped below its
        // declared seed.
        for (sw, rep) in topo.switches().iter().zip(&reference.switches) {
            let final_in = lat.label(&rep.ingress).expect("report label in lattice");
            prop_assert!(
                lat.leq(sw.ingress, final_in),
                "switch {} final ingress `{}` below its seed", sw.name, rep.ingress
            );
        }
    }

    /// A second epoch over an unchanged topology re-checks nothing and
    /// reproduces the same verdicts.
    #[test]
    fn unchanged_second_epoch_is_all_cache_hits(
        chain in 0usize..2,
        knobs in knobs(1..4),
        links in links(0..6),
    ) {
        let topo = Spec::draw(chain, &knobs, &links).topology();
        let mut engine = TopoEngine::new(topo, CheckOptions::ifc(), 2);
        let first = engine.run_epoch();
        let second = engine.run_epoch();
        prop_assert_eq!(second.switch_rechecks, 0, "cached epoch re-checked a switch");
        prop_assert_eq!(
            second.as_batch_report().to_json(),
            first.as_batch_report().to_json(),
            "cached epoch changed verdicts"
        );
    }

    /// The fixpoint driver agrees with the brute-force oracle on labels,
    /// verdicts and violations, over cycles, declared egresses, declassify
    /// gateways and `pc` floors on lattices of up to three labels.
    #[test]
    fn fixpoint_matches_the_brute_force_oracle(
        chain in 0usize..2,
        knobs in knobs(1..6),
        links in links(0..9),
    ) {
        let topo = Spec::draw(chain, &knobs, &links).topology();
        let opts = CheckOptions::ifc();
        let report = TopoEngine::new(topo.clone(), opts.clone(), 2).run_epoch();
        prop_assert_eq!(observed(&report), oracle(&topo, &opts));
    }

    /// Every epoch resolved from one parsed manifest shares its layout, so
    /// the engine compares only sources. Driven through program edits,
    /// leaks and reverts, such an engine reports after every epoch what a
    /// fresh `check_topology` reports, and re-checks at most the one
    /// switch each step edited.
    #[test]
    fn one_manifest_epochs_match_a_fresh_check(
        chain in 0usize..2,
        knobs in knobs(1..5),
        links in links(0..7),
        ops in proptest::collection::vec((0usize..3, 0usize..4, 0usize..12), 1..16),
    ) {
        let mut spec = Spec::draw(chain, &knobs, &links);
        let manifest = spec.manifest();
        let opts = CheckOptions::ifc();
        let mut engine = TopoEngine::new(spec.resolve(&manifest), opts.clone(), 2);
        engine.run_epoch();
        // Leaked switches and the source each one replaced.
        let mut undo: Vec<(usize, String)> = Vec::new();
        for (step, &(op, sw, x)) in ops.iter().enumerate() {
            let i = sw % spec.switches.len();
            match op {
                0 => spec.switches[i].source = format!("// edit {step}\n{}", program(x)),
                1 => {
                    let leak = POOL[2].to_string();
                    undo.push((i, std::mem::replace(&mut spec.switches[i].source, leak)));
                }
                _ => {
                    if let Some((j, old)) = undo.pop() {
                        spec.switches[j].source = old;
                    }
                }
            }
            let topo = spec.resolve(&manifest);
            engine.set_topology(topo.clone());
            let warm = engine.run_epoch();
            let cold = check_topology(&topo, &opts, 1);
            prop_assert_eq!(without_rechecks(&warm), without_rechecks(&cold), "step {}", step);
            prop_assert_eq!(
                table_without_rechecks(&warm), table_without_rechecks(&cold), "step {}", step
            );
            prop_assert!(
                warm.switch_rechecks <= 1,
                "step {}: one edited switch, {} rechecks", step, warm.switch_rechecks
            );
        }
    }

    /// One long-lived engine, driven through edits, leaks, reverts,
    /// renames, option overrides, boundary-lattice flips and switch-count
    /// changes, reports after every epoch exactly what a fresh
    /// `check_topology` reports; only `switch_rechecks` may differ, and
    /// never upward.
    #[test]
    fn watch_epochs_match_a_fresh_check(
        chain in 0usize..2,
        knobs in knobs(1..5),
        links in links(0..7),
        ops in proptest::collection::vec((0usize..8, 0usize..4, 0usize..12), 1..16),
    ) {
        let mut spec = Spec::draw(chain, &knobs, &links);
        let opts = CheckOptions::ifc();
        let mut engine = TopoEngine::new(spec.topology(), opts.clone(), 2);
        engine.run_epoch();
        // Leaked switches and the source each one replaced.
        let mut undo: Vec<(usize, String)> = Vec::new();
        for (step, &(op, sw, x)) in ops.iter().enumerate() {
            let i = sw % spec.switches.len();
            let s = &mut spec.switches[i];
            match op {
                0 => s.source = format!("// edit {step}\n{}", program(x)),
                1 => undo.push((i, std::mem::replace(&mut s.source, POOL[2].to_string()))),
                2 => {
                    if let Some((j, old)) = undo.pop() {
                        if j < spec.switches.len() {
                            spec.switches[j].source = old;
                        }
                    }
                }
                3 => match x % 4 {
                    0 => s.pc = opt_label(x / 4),
                    1 => s.egress = opt_label(x / 4),
                    2 => s.ingress = opt_label(x / 4),
                    _ => s.declassify = opt_bool(x / 4),
                },
                4 => s.lattice = !s.lattice,
                5 => s.tag += 1,
                6 => spec.chain = 1 - spec.chain,
                _ => {
                    if x % 2 == 0 && spec.switches.len() > 1 {
                        spec.switches.pop();
                    } else if spec.switches.len() < 5 {
                        let mut fresh = spec.switches[i].clone();
                        fresh.tag += 1;
                        spec.switches.push(fresh);
                    }
                }
            }
            let topo = spec.topology();
            engine.set_topology(topo.clone());
            let warm = engine.run_epoch();
            let cold = check_topology(&topo, &opts, 1);
            prop_assert_eq!(without_rechecks(&warm), without_rechecks(&cold), "step {}", step);
            prop_assert!(
                warm.switch_rechecks <= cold.switch_rechecks,
                "step {}: {} warm rechecks > {} cold", step, warm.switch_rechecks,
                cold.switch_rechecks
            );
        }
    }
}
