//! `corpus-cold`: `p4bid batch --jobs 1` over programs it has never seen.
//!
//! Why: every program is new, so the front end (`syntax`) and the IFC
//! check (`typeck`) do nearly all the work, and prefix snapshots are
//! collected on every clean check but never read — the workload where the
//! snapshot tax shows. Verdict and snapshot reuse are idle.
//!
//! Inputs: a seeded pool of renamed synthetic programs (1–24 table/action
//! pairs, accepted by construction), the six case studies (secure:
//! accepted; insecure: their `expected_codes`), and the `accept`/`reject`
//! test data of the typechecker (reject answers from the `.expected`
//! sidecars). An episode submits every template [`REPEATS`] times in a
//! seeded order, dealt into batches by size rank, so the mix of program
//! sizes and of batch sizes is the same for every seed.
//! Each submission prepends a header declaration carrying a fresh nonce,
//! so every program differs from its first item on and no two submissions
//! share a snapshot key.
//!
//! An op is one program. Programs go to `check_batch_with_core` in
//! batches of [`BATCH`] on [`JOBS`] worker; a latency sample is one batch
//! call. Small batches keep a sample short (a few hundred µs), so a quiet
//! stretch of the host covers it more often, and give over a thousand
//! samples per episode, so at least ten lie beyond the p99. One worker
//! rather than the default `nproc`: two workers on a 2-vCPU host contend
//! with each other for its cores and caches, and how much depends on how
//! the host places them, which made the figures of two workers swing by
//! more than a quarter between runs of the same code.

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::util::{rename_numbered, Rng, Template, NONCE_MARK};
use crate::{Outcome, Workload};
use p4bid::batch::{check_batch_with_core, BatchInput, ProgramReport};
use p4bid::{CheckOptions, SharedSessionCore};
use std::path::Path;
use std::time::Instant;

/// Programs per `check_batch_with_core` call.
pub const BATCH: usize = 2;

/// Worker threads per `check_batch_with_core` call.
pub const JOBS: usize = 1;

/// Times an episode submits each template.
const REPEATS: usize = 8;

/// Synthetic templates in the pool (ten of each size).
const SYNTH_TEMPLATES: usize = 240;

/// The nonce item prepended on line 1, so line numbers do not move.
fn nonce_prefix() -> String {
    format!("header n{NONCE_MARK}_t {{ bit<8> f; }} ")
}

/// The known answer for one template.
#[derive(Debug, Clone)]
enum Expect {
    /// Accepted.
    Accept,
    /// Rejected, with every listed code among the diagnostics (the case
    /// studies' `expected_codes`: classes the insecure variant must
    /// trigger).
    Codes(Vec<&'static str>),
    /// Rejected with exactly these `(code, line, col)` diagnostics (the
    /// `.expected` sidecars).
    Golden(Vec<(String, u32, u32)>),
}

#[derive(Debug, Clone)]
struct Entry {
    name: String,
    template: Template,
    expect: Expect,
}

/// The prepared workload.
#[derive(Debug)]
pub struct CorpusCold {
    /// Synthetic templates, then the hand-written corpus.
    entries: Vec<Entry>,
    /// An episode's submissions, as indices into `entries`.
    order: Vec<usize>,
}

/// The set-up: one shared core, as `p4bid batch` builds.
pub struct State {
    core: SharedSessionCore,
}

impl CorpusCold {
    /// Builds the template pool for `seed`.
    ///
    /// # Errors
    ///
    /// The typechecker's test data cannot be read.
    pub fn prepare(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 1);
        let mut entries: Vec<Entry> = (0..SYNTH_TEMPLATES)
            .map(|i| {
                // Sizes cycle over 1–24 pairs, so the mean program size
                // is the same for every seed; the seed picks the names.
                let pairs = i % 24 + 1;
                let tag = rng.next_u64() % 100_000;
                let src = renamed_synth(pairs, tag);
                Entry {
                    name: format!("synth-{i}-{pairs}"),
                    template: Template::new(nonce_prefix() + &src),
                    expect: Expect::Accept,
                }
            })
            .collect();
        for cs in p4bid::corpus::case_studies() {
            entries.push(Entry {
                name: format!("{}-secure", cs.name),
                template: Template::new(nonce_prefix() + cs.secure),
                expect: Expect::Accept,
            });
            entries.push(Entry {
                name: format!("{}-insecure", cs.name),
                template: Template::new(nonce_prefix() + cs.insecure),
                expect: Expect::Codes(cs.expected_codes.iter().map(|c| c.ident()).collect()),
            });
        }
        let testdata = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/typeck/testdata");
        for sub in ["accept", "reject"] {
            for (path, src) in p4_files(&testdata.join(sub))? {
                if needs_options(&src) {
                    continue;
                }
                let expect = if sub == "accept" {
                    Expect::Accept
                } else {
                    let sidecar = path.with_extension("expected");
                    let golden = std::fs::read_to_string(&sidecar)
                        .map_err(|e| format!("cannot read {}: {e}", sidecar.display()))?;
                    Expect::Golden(parse_golden(&golden, nonce_prefix().len() as u32))
                };
                let name =
                    path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into());
                entries.push(Entry {
                    name,
                    template: Template::new(nonce_prefix() + &src),
                    expect,
                });
            }
        }
        // Every template REPEATS times (the hand-written corpus is then
        // about 16% of the submissions), shuffled, cut to whole batches.
        let mut subs: Vec<usize> =
            (0..entries.len() * REPEATS).map(|i| i % entries.len()).collect();
        rng.shuffle(&mut subs);
        subs.truncate(subs.len() / BATCH * BATCH);
        // Dealt into batches by size rank: batch b holds the b-th program of
        // each of BATCH size strata. The calls' costs, and so the p99, are
        // then the same for every seed; the seed picks which programs of a
        // size fill a slot, and the order.
        subs.sort_by_key(|&i| entries[i].template.text().len());
        let batches = subs.len() / BATCH;
        let mut order = Vec::with_capacity(subs.len());
        for b in 0..batches {
            let mut batch: Vec<usize> = (0..BATCH).map(|s| subs[s * batches + b]).collect();
            rng.shuffle(&mut batch);
            order.extend(batch);
        }
        Ok(CorpusCold { entries, order })
    }
}

/// A synthetic program with `pairs` table/action pairs whose names all
/// carry `tag`, so its symbols are new to the core.
fn renamed_synth(pairs: usize, tag: u64) -> String {
    let src = p4bid::synth::synth_program(pairs, true)
        .replace("state_t", &format!("st{tag}_t"))
        .replace("headers", &format!("hd{tag}"))
        .replace("Synth", &format!("Synth{tag}"));
    let src = rename_numbered(&src, "act", &format!("a{tag}x"));
    rename_numbered(&src, "tbl", &format!("t{tag}x"))
}

/// Corpus files that set checker options through directive comments are
/// left out: one batch checks everything under the same options.
fn needs_options(src: &str) -> bool {
    src.lines().any(|l| {
        let l = l.trim_start();
        ["// pc:", "// declassify:", "// mode:"].iter().any(|d| l.starts_with(d))
    })
}

fn p4_files(dir: &Path) -> Result<Vec<(std::path::PathBuf, String)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "p4"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            Ok((p, src))
        })
        .collect()
}

/// `(code, line, col)` of each sidecar line (`E-CODE @ line:col …`),
/// shifting line-1 columns by the prepended nonce item.
fn parse_golden(text: &str, shift: u32) -> Vec<(String, u32, u32)> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let (code, rest) = l.split_once(" @ ")?;
            let pos = rest.split(' ').next()?;
            let (line, col) = pos.split_once(':')?;
            let (line, mut col): (u32, u32) = (line.parse().ok()?, col.parse().ok()?);
            if line == 1 {
                col += shift;
            }
            Some((code.to_string(), line, col))
        })
        .collect()
}

fn verdict_matches(p: &ProgramReport, expect: &Expect) -> bool {
    match expect {
        Expect::Accept => p.accepted,
        Expect::Codes(codes) => {
            !p.accepted && codes.iter().all(|c| p.diagnostics.iter().any(|d| d.code == *c))
        }
        Expect::Golden(lines) => {
            !p.accepted
                && p.diagnostics.len() == lines.len()
                && p.diagnostics.iter().zip(lines).all(|(d, (code, line, col))| {
                    d.code == *code && d.line == *line && d.col == *col
                })
        }
    }
}

impl Workload for CorpusCold {
    type State = State;

    fn setup(&self, tr: &mut Tracer) -> State {
        let core = tr
            .time("typeck.SharedSessionCore::new", || SharedSessionCore::new(CheckOptions::ifc()));
        State { core }
    }

    fn run(&self, st: &mut State, ops: u64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut next = self.order.iter().cycle();
        // Programs to probe once the timed ops are done: (op, entry, nonce).
        let mut to_probe: Vec<(u64, &Entry, u64)> = Vec::new();
        while out.ops < ops {
            let picks: Vec<&Entry> = next.by_ref().take(BATCH).map(|&i| &self.entries[i]).collect();
            let inputs: Vec<BatchInput> = picks
                .iter()
                .enumerate()
                .map(|(j, e)| {
                    BatchInput::new(e.name.clone(), e.template.with_nonce(out.ops + j as u64 + 1))
                })
                .collect();
            tr.set_op(out.ops);
            let t = Instant::now();
            let cpu = crate::util::cpu_us(true);
            let root = tr.begin("op");
            let report = tr.time("batch.check_batch_with_core", || {
                check_batch_with_core(&inputs, &st.core, JOBS)
            });
            tr.end(root);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            let us = crate::util::cpu_us(true) - cpu;
            out.sample(us, wall_us, BATCH as u64);
            out.jobs = report.jobs;
            for ((p, e), input) in report.programs.iter().zip(&picks).zip(&inputs) {
                if !verdict_matches(p, &e.expect) {
                    out.fail(format!(
                        "{}: {:?} expected, got {}",
                        input.name,
                        e.expect,
                        crate::util::codes(p)
                    ));
                }
            }
            out.count_prefix(&report.stats.sessions);
            if tr.is_on() {
                to_probe.extend(
                    picks.iter().enumerate().map(|(j, e)| (out.ops, *e, out.ops + j as u64 + 1)),
                );
            }
            out.ops += BATCH as u64;
        }
        let cpu_us: f64 = out.samples.iter().map(|s| s.us).sum();
        out.efficiency = Some(cpu_us / out.samples.iter().map(|s| s.wall_us).sum::<f64>());
        if tr.is_on() {
            let mut probe = Probe::new();
            let cold = SharedSessionCore::new(CheckOptions::ifc());
            for (op, e, nonce) in to_probe {
                tr.set_op(op);
                probe.run(tr, &e.template.with_nonce(nonce), &cold);
            }
            probe.report(&mut out);
        }
        out
    }

    fn digest(&self) -> u64 {
        crate::util::digest(self.entries.iter().map(|e| e.template.text()))
    }

    fn episode_ops(&self) -> u64 {
        self.order.len() as u64
    }
}
