//! `topo-watch`: `p4bid topo --watch` on a 48-switch chain-plus-fan-out
//! topology, one switch edit per op.
//!
//! Why: the topology fixpoint loop dominates. The edge switch's ingress
//! is seeded `high`, so every epoch climbs the chain one hop per round,
//! and each round re-hashes every dirty switch's source for the verdict
//! cache; `typeck` re-checks only the edited switch (at its seed and its
//! final ingress label).
//!
//! Inputs: a seeded topology (a chain from the edge switch, with one
//! fan-out switch hanging off each chain node in a seeded pairing, every
//! link contracted `high`) and one seeded program per switch with
//! all-`high` state, accepted by construction. An op edits one switch: a
//! benign edit (fresh nonce, accepted), a leak that assigns a `high` field
//! to the `low` one (that switch alone is rejected with
//! `E-EXPLICIT-FLOW`), or the revert of that leak on the next op (all
//! accepted, answered from the verdict cache). An episode is [`PASSES`]
//! passes, each over every switch once in a seeded order; a switch leaks
//! in one pass out of [`LEAK_EVERY`], by a seeded turn. So every seed
//! makes the same edits, each switch as often; the seed picks the
//! pairing, the programs' constants and the order.
//!
//! An op (and a latency sample) is `resolve_with` of the manifest with the
//! edited program, `set_topology`, one `run_epoch` and `to_json`.

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::util::{line_col, Rng, Template, NONCE_MARK};
use crate::{Outcome, Workload};
use p4bid::topo::{TopoEngine, TopoManifest, TopoReport};
use p4bid::{CheckOptions, SharedSessionCore};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Switches in the topology. Fixed rather than drawn from 32–64: an
/// epoch's cost grows with the square of the chain length, so a seeded
/// size would swamp every other difference between seeds.
const SWITCHES: usize = 48;

/// Passes over every switch per episode: over 1024 ops, so at least ten
/// lie beyond the p99.
const PASSES: usize = 20;

/// A switch leaks in one pass out of this many.
const LEAK_EVERY: usize = 5;

/// What one op does to its switch.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A benign edit.
    Edit,
    /// A leak.
    Leak,
    /// The revert of the leak the op before injected.
    Revert,
}

/// The prepared workload.
#[derive(Debug)]
pub struct TopoWatch {
    manifest: String,
    /// Per switch: the benign template, the leak template, and the leak
    /// statement's `(line, col)`.
    programs: Vec<(Template, Template, (u32, u32))>,
    /// An episode's ops: the switch each edits, and how.
    schedule: Vec<(usize, Step)>,
}

/// The set-up: the parsed manifest and an engine after its first epoch.
pub struct State {
    manifest: TopoManifest,
    engine: TopoEngine,
    sources: Vec<String>,
}

/// The program of switch `k`: `actions` table/action pairs over
/// all-`high` state, plus a `low` field only a leak writes. The leak
/// statement, when present, is the last line of the `apply` block.
fn switch_program(k: usize, actions: usize, salt: u64, leak: bool) -> String {
    let mut src = format!(
        "header sw{k}_t {{ <bit<32>, high> a; <bit<32>, high> b; <bit<32>, low> p; }}\n\
         struct sh{k} {{ sw{k}_t s; }}\ncontrol Sw{k}(inout sh{k} h) {{\n"
    );
    for i in 0..actions {
        let _ = writeln!(
            src,
            "    action fwd{k}_{i}(<bit<32>, high> v) {{ h.s.a = h.s.b + v; h.s.b = h.s.a ^ 32w{}; }}",
            salt + i as u64
        );
        let _ = writeln!(
            src,
            "    table tb{k}_{i} {{ key = {{ h.s.a: exact; }} actions = {{ fwd{k}_{i}; NoAction; }} \
             default_action = NoAction; }}"
        );
    }
    let _ = writeln!(src, "    apply {{\n        h.s.a = h.s.a + 32w{NONCE_MARK};");
    for i in 0..actions {
        if i == 0 {
            let _ = writeln!(src, "        tb{k}_{i}.apply();");
        } else {
            let _ = writeln!(src, "        if (h.s.b == 32w{i}) {{ tb{k}_{i}.apply(); }}");
        }
    }
    if leak {
        src.push_str("        h.s.p = h.s.a;\n");
    }
    src.push_str("    }\n}\n");
    src
}

impl TopoWatch {
    /// Builds the topology and switch programs for `seed`.
    #[must_use]
    pub fn prepare(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 21);
        let switches = SWITCHES;
        let chain = switches / 2;
        let mut manifest = String::from("lattice = \"low < high\"\n\n");
        let mut programs = Vec::with_capacity(switches);
        for k in 0..switches {
            let _ = writeln!(manifest, "[switch sw{k}]\nprogram = \"sw{k}.p4\"");
            if k == 0 {
                manifest.push_str("ingress = \"high\"\n");
            }
            manifest.push('\n');
            let actions = k % 4 + 1;
            let salt = rng.next_u64() % 1000;
            let leaky = switch_program(k, actions, salt, true);
            let at = leaky.rfind("h.s.p = h.s.a;").expect("the leak statement is present");
            let (line, col) = line_col(&leaky, at);
            programs.push((
                Template::new(switch_program(k, actions, salt, false)),
                Template::new(leaky),
                (line as u32, col as u32),
            ));
        }
        let mut out_ports = vec![0usize; switches];
        let mut pairing: Vec<usize> = (0..chain).collect();
        rng.shuffle(&mut pairing);
        for k in 1..switches {
            let from = if k < chain { k - 1 } else { pairing[k - chain] };
            let _ = writeln!(
                manifest,
                "[link sw{from}:o{} -> sw{k}:i0]\ncontract = \"high\"\n",
                out_ports[from]
            );
            out_ports[from] += 1;
        }
        let mut turn: Vec<usize> = (0..switches).map(|k| k % LEAK_EVERY).collect();
        rng.shuffle(&mut turn);
        let mut schedule = Vec::new();
        for pass in 0..PASSES {
            let mut order: Vec<usize> = (0..switches).collect();
            rng.shuffle(&mut order);
            for k in order {
                if turn[k] == pass % LEAK_EVERY {
                    schedule.extend([(k, Step::Leak), (k, Step::Revert)]);
                } else {
                    schedule.push((k, Step::Edit));
                }
            }
        }
        TopoWatch { manifest, programs, schedule }
    }

    fn switches(&self) -> usize {
        self.programs.len()
    }
}

/// `resolve_with` over the current sources (program path `swK.p4`).
fn resolve(tr: &mut Tracer, manifest: &TopoManifest, sources: &[String]) -> p4bid::topo::Topology {
    tr.time("topo.resolve_with", || {
        manifest.resolve_with(|path| {
            path.strip_prefix("sw")
                .and_then(|p| p.strip_suffix(".p4"))
                .and_then(|k| k.parse::<usize>().ok())
                .and_then(|k| sources.get(k).cloned())
                .ok_or_else(|| format!("no program `{path}`"))
        })
    })
    .expect("the generated manifest resolves")
}

/// `None` when the report matches the known answer: no topology-level
/// violation, and every switch accepted except the leaking one. That
/// switch ends at ingress `high`, so its `low` write breaks both the
/// explicit-flow rule (`high` data) and the pc rule (`high` context):
/// exactly `E-EXPLICIT-FLOW` then `E-IMPLICIT-FLOW` at the statement.
fn check_report(report: &TopoReport, leak: Option<(usize, (u32, u32))>) -> Option<String> {
    if !report.violations.is_empty() {
        return Some(format!("unexpected violations {:?}", report.violations));
    }
    for (i, sw) in report.switches.iter().enumerate() {
        let ok = match leak {
            Some((k, at)) if k == i => {
                let found: Vec<(&str, (u32, u32))> = sw
                    .verdict
                    .diagnostics
                    .iter()
                    .map(|d| (d.code.as_str(), (d.line, d.col)))
                    .collect();
                !sw.verdict.accepted && found == [("E-EXPLICIT-FLOW", at), ("E-IMPLICIT-FLOW", at)]
            }
            _ => sw.verdict.accepted,
        };
        if !ok {
            return Some(format!(
                "switch {i} (leak {leak:?}): {}",
                crate::util::codes(&sw.verdict)
            ));
        }
    }
    None
}

impl Workload for TopoWatch {
    type State = State;

    fn setup(&self, tr: &mut Tracer) -> State {
        let root = tr.begin("setup");
        let manifest = tr
            .time("topo.TopoManifest::parse", || TopoManifest::parse(&self.manifest))
            .expect("the generated manifest parses");
        let sources: Vec<String> = self.programs.iter().map(|(t, _, _)| t.with_nonce(0)).collect();
        let topo = resolve(tr, &manifest, &sources);
        let mut engine = TopoEngine::new(topo, CheckOptions::ifc(), 0);
        let report = tr.time("topo.run_epoch", || engine.run_epoch());
        assert!(check_report(&report, None).is_none(), "the generated topology is accepted");
        tr.end(root);
        State { manifest, engine, sources }
    }

    fn run(&self, st: &mut State, ops: u64, tr: &mut Tracer) -> Outcome {
        let mut next = self.schedule.iter().cycle();
        // Re-checked sources to probe once the timed ops are done.
        let mut to_probe: Vec<(u64, String)> = Vec::new();
        let mut out = Outcome::default();
        // The source of the switch carrying a leak, before the leak.
        let mut before: Option<String> = None;
        let (mut rounds, mut rechecks) = (0u64, 0u64);
        while out.ops < ops {
            let nonce = out.ops + 1;
            let &(k, step) = next.next().expect("the schedule cycles");
            let leak = match step {
                Step::Edit => {
                    st.sources[k] = self.programs[k].0.with_nonce(nonce);
                    None
                }
                Step::Leak => {
                    let leaky = self.programs[k].1.with_nonce(nonce);
                    before = Some(std::mem::replace(&mut st.sources[k], leaky));
                    Some((k, self.programs[k].2))
                }
                Step::Revert => {
                    if let Some(src) = before.take() {
                        st.sources[k] = src;
                    }
                    None
                }
            };
            tr.set_op(out.ops);
            let t = Instant::now();
            let cpu = crate::util::cpu_us(false);
            let root = tr.begin("op");
            let topo = resolve(tr, &st.manifest, &st.sources);
            tr.time("topo.set_topology", || st.engine.set_topology(topo));
            let report = tr.time("topo.run_epoch", || st.engine.run_epoch());
            black_box(tr.time("topo.to_json", || report.to_json()));
            tr.end(root);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            let us = crate::util::cpu_us(false) - cpu;
            out.sample(us, wall_us, 1);
            if let Some(why) = check_report(&report, leak) {
                out.fail(format!("op {}: {why}", out.ops));
            }
            rounds += report.rounds;
            rechecks += report.switch_rechecks;
            if tr.is_on() {
                for _ in 0..report.switch_rechecks {
                    to_probe.push((out.ops, st.sources[k].clone()));
                }
            }
            out.ops += 1;
        }
        out.count("topo.rounds_total", rounds as f64);
        out.count("topo.rechecks_total", rechecks as f64);
        let n = out.ops.max(1) as f64;
        // Every non-edge switch starts at `low` and rises to `high` once,
        // so an epoch visits each switch once plus each non-edge switch
        // once more.
        let visits = (2 * self.switches() - 1) as f64 * n;
        out.layer.insert("topo.rounds", rounds as f64 / n);
        out.layer.insert("topo.switch_rechecks", rechecks as f64 / n);
        out.layer.insert("topo.recheck_share", rechecks as f64 / visits);
        if tr.is_on() {
            let mut probe = Probe::new();
            let cold = SharedSessionCore::new(CheckOptions::ifc());
            for (op, source) in to_probe {
                tr.set_op(op);
                probe.run(tr, &source, &cold);
            }
            probe.report(&mut out);
        }
        out.count_prefix(&st.engine.cumulative_stats().sessions);
        out
    }

    fn digest(&self) -> u64 {
        let programs = self.programs.iter().flat_map(|(a, b, _)| [a.text(), b.text()]);
        crate::util::digest(std::iter::once(self.manifest.as_str()).chain(programs))
    }

    fn episode_ops(&self) -> u64 {
        self.schedule.len() as u64
    }
}
