//! `edit-stream`: an editor-like closed loop with one client against a
//! `ServeEngine` configured like `p4bid serve --refresh-every 512` with the
//! default verdict cache (1024) and prefix cache.
//!
//! Why: the mirror image of `corpus-cold` for the prefix layer. About 80%
//! of requests edit one item of a 64-item program, so snapshot reads
//! (resume at the edited item) and the verdict cache do the work; about
//! 20% resubmit the previous request unchanged and are verdict-cache
//! hits. `syntax` still lexes and segments the whole ~15 KB program on
//! every edit.
//!
//! Inputs: [`BASES`] seeded 64-item programs, and per program a small
//! pool of edit templates at items spread evenly over its controls. Benign
//! edits are accepted by construction; a leak edit assigns the `high`
//! field to the `low` one, a known `E-EXPLICIT-FLOW` at a known line and
//! column. Every edit gets a fresh nonce, so it misses the verdict cache
//! while sharing the unedited prefix with its base program.
//!
//! The request stream is [`CYCLES`] cycles. A cycle edits every base with
//! each benign template once and with [`LEAKS_PER_CYCLE`] leak templates
//! (taking turns across cycles), in a seeded order, and resubmits a seeded
//! fifth of those edits right after them. So every seed sends the same
//! mix of edits; the seed picks the programs' constants and the order.
//!
//! An op (and a latency sample) is one request: `parse_request`, one
//! `run_epoch`, and `to_ndjson`.

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::util::{json_string, line_col, Rng, Template, NONCE_MARK};
use crate::{Outcome, Workload};
use p4bid::batch::BatchInput;
use p4bid::serve::{parse_request, RequestBody, ServeEngine, ServeRequest};
use p4bid::{CheckOptions, SharedSessionCore};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Base programs.
const BASES: usize = 4;
/// Top-level items per base program: header, struct, 61 controls, tail.
pub const ITEMS: usize = 64;
/// Benign edit templates per base program.
const EDITS_PER_BASE: usize = 16;
/// Leak edit templates per base program.
const LEAKS_PER_BASE: usize = 8;
/// Leak edits per base program in one cycle: a tenth of the edits.
const LEAKS_PER_CYCLE: usize = 2;
/// Edits per cycle.
const CYCLE_EDITS: usize = BASES * (EDITS_PER_BASE + LEAKS_PER_CYCLE);
/// Edits per cycle resubmitted unchanged: a fifth of the cycle's requests.
const CYCLE_RESUBMITS: usize = CYCLE_EDITS / 4;
/// Cycles per episode: every leak template three times, and over 1024
/// requests, so at least ten lie beyond the p99.
const CYCLES: usize = 3 * LEAKS_PER_BASE / LEAKS_PER_CYCLE;
/// `--refresh-every` of the engine: two refreezes per episode, so
/// refreezes are well under 1% of requests and the p99 sits in the edits'
/// own tail.
const REFRESH_EVERY: u64 = 512;
/// `--cache-cap` of the engine (the CLI default).
const CACHE_CAP: usize = 1024;
/// Statements per control body. Six keep a request near half a
/// millisecond, so a run holds about fifty episodes and every request is
/// timed often enough to meet a quiet stretch of the host.
const STMTS: usize = 6;

/// One edit template and its known answer.
#[derive(Debug)]
struct Edit {
    /// The request line, nonce field zeroed.
    line: Template,
    /// `Some((line, col))` of the injected leak.
    leak: Option<(u32, u32)>,
}

/// The prepared workload.
#[derive(Debug)]
pub struct EditStream {
    /// Base program sources.
    bases: Vec<String>,
    /// Last-item edits of each base, checked once at set-up to lay down
    /// the base program's snapshot chain.
    primers: Vec<String>,
    /// Edit templates, per base: benign ones, then leaks.
    edits: Vec<Vec<Edit>>,
    /// An episode's requests: an edit `(base, template)`, or `None` for a
    /// resubmission of the request before.
    schedule: Vec<Option<(usize, usize)>>,
}

/// The set-up: a primed engine.
pub struct State {
    engine: ServeEngine,
}

/// What the editor changes in one control.
#[derive(Clone, Copy)]
enum Change {
    None,
    /// The first statement's constant becomes the nonce.
    Nonce,
    /// As `Nonce`, and the second statement becomes a leak.
    Leak,
}

/// One base program, with `change` applied to item `at`. Returns the
/// source and the byte offset of the leak statement, if any.
fn program(b: usize, salts: &[u32], at: usize, change: Change) -> (String, Option<usize>) {
    let mut src = format!(
        "header it{b}_t {{ <bit<32>, high> sec; <bit<32>, low> pub; }}\nstruct ih{b} {{ it{b}_t f; }}\n"
    );
    let mut leak = None;
    for (item, &salt) in salts.iter().enumerate().skip(2) {
        let (name, field) = if item + 1 == ITEMS {
            (format!("T{b}"), "sec")
        } else {
            (format!("C{b}_{item}"), "pub")
        };
        let _ = writeln!(src, "control {name}(inout ih{b} h) {{\n    apply {{");
        for j in 0..STMTS {
            let change = if item == at { change } else { Change::None };
            match (j, change) {
                (0, Change::Nonce | Change::Leak) => {
                    let _ = writeln!(
                        src,
                        "        h.f.{field} = (h.f.{field} + 32w{j}) ^ 32w{NONCE_MARK};"
                    );
                }
                (1, Change::Leak) => {
                    src.push_str("        ");
                    leak = Some(src.len());
                    src.push_str("h.f.pub = h.f.sec;\n");
                }
                _ => {
                    let salt = salt + j as u32;
                    let _ =
                        writeln!(src, "        h.f.{field} = (h.f.{field} + 32w{j}) ^ 32w{salt};");
                }
            }
        }
        src.push_str("    }\n}\n");
    }
    (src, leak)
}

fn request_line(b: usize, source: &str) -> String {
    format!("{{\"id\": \"base{b}.p4\", \"source\": {}}}", json_string(source))
}

impl EditStream {
    /// Builds the programs and edit pool for `seed`.
    #[must_use]
    pub fn prepare(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 11);
        let (mut bases, mut primers, mut edits) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..BASES {
            let salts: Vec<u32> = (0..ITEMS).map(|_| (rng.next_u64() % 1000) as u32).collect();
            bases.push(program(b, &salts, 0, Change::None).0);
            primers.push(program(b, &salts, ITEMS - 1, Change::Nonce).0);
            let mut pool = Vec::new();
            for e in 0..EDITS_PER_BASE + LEAKS_PER_BASE {
                // Each template edits the middle of its own slice of the
                // 62 controls, so the edits' depths (the checker's work)
                // are the same for every seed.
                let (change, slot, slots) = if e < EDITS_PER_BASE {
                    (Change::Nonce, e, EDITS_PER_BASE)
                } else {
                    (Change::Leak, e - EDITS_PER_BASE, LEAKS_PER_BASE)
                };
                let item = 2 + (2 * slot + 1) * (ITEMS - 2) / (2 * slots);
                let (src, leak) = program(b, &salts, item, change);
                let leak = leak.map(|at| {
                    let (l, c) = line_col(&src, at);
                    (l as u32, c as u32)
                });
                pool.push(Edit { line: Template::new(request_line(b, &src)), leak });
            }
            edits.push(pool);
        }
        let mut schedule = Vec::with_capacity(CYCLES * (CYCLE_EDITS + CYCLE_RESUBMITS));
        for c in 0..CYCLES {
            let mut cycle: Vec<(usize, usize)> = Vec::with_capacity(CYCLE_EDITS);
            for b in 0..BASES {
                cycle.extend((0..EDITS_PER_BASE).map(|e| (b, e)));
                cycle.extend(
                    (0..LEAKS_PER_CYCLE)
                        .map(|l| (b, EDITS_PER_BASE + (c * LEAKS_PER_CYCLE + l) % LEAKS_PER_BASE)),
                );
            }
            rng.shuffle(&mut cycle);
            let mut again: Vec<bool> = (0..CYCLE_EDITS).map(|i| i < CYCLE_RESUBMITS).collect();
            rng.shuffle(&mut again);
            for (edit, again) in cycle.into_iter().zip(again) {
                schedule.push(Some(edit));
                if again {
                    schedule.push(None);
                }
            }
        }
        EditStream { bases, primers, edits, schedule }
    }

    /// A core primed the way a long-running `p4bid serve --refresh-every`
    /// converges to: the base programs' names are refrozen into the frozen
    /// tier, and each base's snapshot chain is laid down.
    fn primed_core(&self, tr: &mut Tracer) -> SharedSessionCore {
        let core = tr
            .time("typeck.SharedSessionCore::new", || SharedSessionCore::new(CheckOptions::ifc()));
        let mut session = tr.time("typeck.session", || core.session());
        for base in &self.bases {
            black_box(tr.time("typeck.check", || session.check(base)).is_ok());
        }
        let harvest = session.into_harvest().expect("a core session harvests");
        let core = tr.time("typeck.refreeze", || core.refreeze(vec![harvest]));
        let mut session = tr.time("typeck.session", || core.session());
        for primer in &self.primers {
            black_box(tr.time("typeck.check", || session.check(primer)).is_ok());
        }
        core
    }
}

impl Workload for EditStream {
    type State = State;

    fn setup(&self, tr: &mut Tracer) -> State {
        let root = tr.begin("setup");
        let core = self.primed_core(tr);
        let engine = ServeEngine::with_core(core, 0)
            .with_refresh_every(Some(REFRESH_EVERY))
            .with_cache(CACHE_CAP);
        tr.end(root);
        State { engine }
    }

    fn run(&self, st: &mut State, ops: u64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut next = self.schedule.iter().cycle();
        // Edits to probe once the timed ops are done: (op, edit, nonce).
        let mut to_probe: Vec<(u64, &Edit, u64)> = Vec::new();
        // The previous request: its line and its known answer.
        let mut prev: Option<(String, Option<(u32, u32)>)> = None;
        while out.ops < ops {
            // `fresh` is the edit and nonce of a new request (not a resubmission).
            let step = *next.next().expect("the schedule cycles");
            let (line, leak, fresh) = match (step, prev.take()) {
                (None, Some((line, leak))) => (line, leak, None),
                (Some((b, e)), _) => {
                    let edit = &self.edits[b][e];
                    (edit.line.with_nonce(out.ops + 1), edit.leak, Some((edit, out.ops + 1)))
                }
                (None, None) => unreachable!("a resubmission follows an edit"),
            };
            let hits_before = st.engine.ops().cache_hits;
            tr.set_op(out.ops);
            let t = Instant::now();
            let cpu = crate::util::cpu_us(false);
            let root = tr.begin("op");
            let request = tr.time("serve.parse_request", || parse_request(&line));
            let Ok(ServeRequest { id, body: RequestBody::Source(source) }) = request else {
                tr.end(root);
                out.fail(format!("request {} did not parse", out.ops));
                prev = Some((line, leak));
                out.ops += 1;
                continue;
            };
            let epoch =
                tr.time("serve.run_epoch", || st.engine.run_epoch(&[BatchInput::new(id, source)]));
            black_box(tr.time("serve.to_ndjson", || epoch.to_ndjson()));
            tr.end(root);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            let us = crate::util::cpu_us(false) - cpu;
            out.sample(us, wall_us, 1);
            let p = &epoch.report.programs[0];
            let ok = match leak {
                None => p.accepted,
                Some((l, c)) => {
                    !p.accepted
                        && p.diagnostics.len() == 1
                        && p.diagnostics[0].code == "E-EXPLICIT-FLOW"
                        && (p.diagnostics[0].line, p.diagnostics[0].col) == (l, c)
                }
            };
            if !ok {
                out.fail(format!(
                    "request {}: leak {leak:?} expected, got {}",
                    out.ops,
                    crate::util::codes(p)
                ));
            }
            // Verdict-cache hits never reach the checker; probe the rest.
            if let Some((edit, nonce)) = fresh.filter(|_| tr.is_on()) {
                if st.engine.ops().cache_hits == hits_before {
                    to_probe.push((out.ops, edit, nonce));
                }
            }
            prev = Some((line, leak));
            out.ops += 1;
        }
        let ops = st.engine.ops();
        out.count("serve.cache_hits", ops.cache_hits as f64);
        out.count("serve.cache_misses", ops.cache_misses as f64);
        out.count("serve.refreezes", ops.refreezes as f64);
        out.count_prefix(&st.engine.cumulative_stats().sessions);
        if tr.is_on() {
            let mut probe = Probe::new();
            let mirror = self.primed_core(&mut Tracer::new(false));
            for (op, edit, nonce) in to_probe {
                if let Ok(ServeRequest { body: RequestBody::Source(src), .. }) =
                    parse_request(&edit.line.with_nonce(nonce))
                {
                    tr.set_op(op);
                    probe.run(tr, &src, &mirror);
                }
            }
            probe.report(&mut out);
        }
        out
    }

    fn digest(&self) -> u64 {
        crate::util::digest(self.edits.iter().flatten().map(|e| e.line.text()))
    }

    fn episode_ops(&self) -> u64 {
        self.schedule.len() as u64
    }
}
