//! The P4BID benchmark: four seeded workloads that each stress a different
//! layer of the checker, an end-to-end metric set measured with tracing
//! off, and a traced run that splits each op's time over the layers.
//!
//! A run is `perfbench --workload NAME --seed N --seconds S --trace 0|1`.
//! It prints human-readable notes, then one JSON object as its last line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! Work is done in *episodes*: a fresh set-up followed by a fixed stream
//! of ops generated from the seed, so every episode of a run does the
//! same work and every count it reports repeats exactly.
//!
//! * `--trace 0` runs short episodes (each with its own set-up) until `S`
//!   seconds have gone. Every workload runs its ops on one thread. Each
//!   op's time is its fastest over the episodes; throughput is the
//!   episode's ops over the sum of those times, and p50 and p99 latency
//!   are taken over them. `setup_s` is the fastest set-up, and peak RSS is
//!   the process's after its first episodes.
//!   Times are service times: the CPU time the op's thread spent on it.
//!   On a host shared with other tenants, their load can make the same
//!   episode take 20–70% more CPU time for stretches of 0.1 s to minutes
//!   (measured on a 2-vCPU container); it only ever adds time.
//!   Wall-clock figures are in the notes.
//! * `--trace 1` alternates untraced and traced episodes until `S`
//!   seconds have gone, reports each layer's time as the median over the
//!   traced episodes, the tracing overhead as traced over untraced op
//!   time, and checks that the counts of every traced episode are
//!   identical. The spans of the first traced episode are written to
//!   `.bench_out/spans-NAME.tsv` at the repository root.
//!
//! Every op's verdict is compared with an answer known by construction or
//! from a hand-written file, never from the checker under test; a
//! mismatch counts as a failed op.

pub mod corpus_cold;
pub mod edit_stream;
pub mod ni_fuzz;
pub mod probe;
pub mod topo_watch;
pub mod trace;
pub mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["corpus-cold", "edit-stream", "topo-watch", "ni-fuzz"];

/// How many times a traced run sets its workload up before its episodes;
/// `typeck.core_build_us` is the median core build.
const SETUP_REPS: usize = 15;

/// The most untraced/traced episode pairs one traced run makes.
const MAX_TRACE_PAIRS: usize = 16;

/// The per-layer metrics a traced run reports, with their units. Every
/// workload reports all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("self.syntax_us", "us"),
    ("self.typeck_us", "us"),
    ("self.batch_us", "us"),
    ("self.serve_us", "us"),
    ("self.topo_us", "us"),
    ("self.ni_us", "us"),
    ("self.unattributed_us", "us"),
    ("syntax.lex_us", "us"),
    ("syntax.segment_us", "us"),
    ("syntax.parse_us", "us"),
    ("syntax.bytes_per_op", "bytes"),
    ("typeck.ifc_us", "us"),
    ("typeck.lineage_us", "us"),
    ("typeck.check_us", "us"),
    ("typeck.snapshot_us", "us"),
    ("typeck.prefix_hits", "count"),
    ("typeck.prefix_misses", "count"),
    ("typeck.prefix_inserts", "count"),
    ("typeck.prefix_items_saved", "count"),
    ("typeck.allocs_per_op", "count"),
    ("typeck.core_build_us", "us"),
    ("batch.driver_us", "us"),
    ("batch.parallel_efficiency", "ratio"),
    ("serve.parse_request_us", "us"),
    ("serve.epoch_us", "us"),
    ("serve.render_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.refreezes", "count"),
    ("topo.manifest_us", "us"),
    ("topo.epoch_us", "us"),
    ("topo.render_us", "us"),
    ("topo.rounds", "count"),
    ("topo.switch_rechecks", "count"),
    ("topo.recheck_share", "ratio"),
    ("ni.gen_us", "us"),
    ("ni.harness_us", "us"),
    ("ni.accept_share", "ratio"),
    ("ni.executions", "count"),
    ("trace.ops", "count"),
    ("trace.op_us", "us"),
    ("trace.untraced_op_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// What one episode of a workload did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose verdict differed from the known answer.
    pub failed: u64,
    /// One entry per latency sample, in op order (see the workload's docs
    /// for what one sample covers). Every episode of a run takes the same
    /// samples of the same ops.
    pub samples: Vec<Sample>,
    /// Worker threads a batch call spreads its programs over (0 or 1:
    /// the calling thread).
    pub jobs: usize,
    /// Counts that must repeat exactly for a seed and op count.
    pub counts: BTreeMap<&'static str, f64>,
    /// Workload-specific per-layer values (traced episodes only).
    pub layer: BTreeMap<&'static str, f64>,
    /// For workloads that hand their ops to batch workers: the workers'
    /// summed CPU time ÷ (wall time × workers). Service times cannot see a
    /// worker that sits idle, blocked or without a CPU; this can.
    pub efficiency: Option<f64>,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

/// One latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its service time: the CPU time the op's thread spent on it.
    pub us: f64,
    /// Its wall-clock time.
    pub wall_us: f64,
    /// Ops it covered.
    pub ops: u64,
}

impl Outcome {
    /// Records a sample of `ops` ops.
    pub fn sample(&mut self, us: f64, wall_us: f64, ops: u64) {
        self.samples.push(Sample { us, wall_us, ops });
    }

    /// Total sampled wall-clock time over ops, in µs per op.
    #[must_use]
    pub fn wall_us_per_op(&self) -> f64 {
        self.samples.iter().map(|s| s.wall_us).sum::<f64>() / self.ops.max(1) as f64
    }

    /// Records one failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Adds `v` to count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Adds a session's prefix-snapshot counters.
    pub fn count_prefix(&mut self, s: &p4bid::SessionStats) {
        self.count("typeck.prefix_hits", s.prefix_hits as f64);
        self.count("typeck.prefix_misses", s.prefix_misses as f64);
        self.count("typeck.prefix_inserts", s.prefix_inserts as f64);
        self.count("typeck.prefix_items_saved", s.prefix_items_saved as f64);
    }
}

/// One workload: inputs built from the seed up front, a timed set-up,
/// and an episode of ops from that set-up.
pub trait Workload {
    /// Everything the set-up builds and the ops use.
    type State;

    /// Builds cores, engines and caches up to the point where the first
    /// op is ready (timed as `setup_s`; input generation is not).
    fn setup(&self, tr: &mut Tracer) -> Self::State;

    /// Runs `ops` ops, checking every verdict.
    fn run(&self, st: &mut Self::State, ops: u64, tr: &mut Tracer) -> Outcome;

    /// Ops in one episode: a quarter of a second to a second of work, and
    /// for the closed loops at least 1024 ops, so that at least ten of an
    /// episode's ops lie beyond its p99.
    fn episode_ops(&self) -> u64;

    /// A digest of the inputs generated from the seed.
    fn digest(&self) -> u64;
}

/// The result line of a run.
#[derive(Debug)]
pub struct Report {
    /// Every op matched its known answer (and, traced, every count
    /// repeated).
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `+ 0.0` turns a negative zero into `0`.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or inputs that cannot be built (the
/// repository's test data is missing).
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    match workload {
        "corpus-cold" => {
            Ok(drive(&corpus_cold::CorpusCold::prepare(seed)?, workload, seconds, trace))
        }
        "edit-stream" => {
            Ok(drive(&edit_stream::EditStream::prepare(seed), workload, seconds, trace))
        }
        "topo-watch" => Ok(drive(&topo_watch::TopoWatch::prepare(seed), workload, seconds, trace)),
        "ni-fuzz" => Ok(drive(&ni_fuzz::NiFuzz::prepare(seed), workload, seconds, trace)),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

/// What [`traced_episode`] reports.
#[derive(Debug)]
pub struct EpisodeCounts {
    /// The counts that must repeat exactly for a seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose verdict differed from the known answer.
    pub failed: u64,
    /// Digest of the generated inputs.
    pub digest: u64,
}

/// One traced episode of `ops` ops of `workload` from a fresh set-up:
/// the determinism check of the benchmark's tests.
///
/// # Errors
///
/// As [`run`].
pub fn traced_episode(workload: &str, seed: u64, ops: u64) -> Result<EpisodeCounts, String> {
    fn episode<W: Workload>(w: &W, ops: u64) -> EpisodeCounts {
        trace::count_allocs(true);
        let mut st = w.setup(&mut Tracer::new(false));
        let out = w.run(&mut st, ops, &mut Tracer::new(true));
        EpisodeCounts { counts: out.counts, ops: out.ops, failed: out.failed, digest: w.digest() }
    }
    match workload {
        "corpus-cold" => Ok(episode(&corpus_cold::CorpusCold::prepare(seed)?, ops)),
        "edit-stream" => Ok(episode(&edit_stream::EditStream::prepare(seed), ops)),
        "topo-watch" => Ok(episode(&topo_watch::TopoWatch::prepare(seed), ops)),
        "ni-fuzz" => Ok(episode(&ni_fuzz::NiFuzz::prepare(seed), ops)),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

fn drive<W: Workload>(w: &W, name: &str, seconds: u64, trace: bool) -> Report {
    if trace {
        drive_traced(w, name, seconds)
    } else {
        drive_timed(w, seconds)
    }
}

/// The fewest episodes a timed run makes, whatever `--seconds` says.
const MIN_EPISODES: usize = 16;

fn drive_timed<W: Workload>(w: &W, seconds: u64) -> Report {
    let mut off = Tracer::new(false);
    let n = w.episode_ops();
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    // Peak RSS after the first MIN_EPISODES episodes, so the samples
    // that later episodes keep (more of them on a faster host) do not
    // count.
    let mut peak_mb = 0.0;
    while episodes.len() < MIN_EPISODES || start.elapsed() < Duration::from_secs(seconds) {
        // The set-up after an untimed one, so every timed set-up finds the
        // heap as the one before left it, not as an episode did.
        drop(w.setup(&mut off));
        let t = Instant::now();
        let cpu = util::cpu_us(true);
        let mut st = w.setup(&mut off);
        setups.push((util::cpu_us(true) - cpu) / 1e6);
        setups_wall.push(t.elapsed().as_secs_f64());
        let out = w.run(&mut st, n, &mut off);
        drop(st);
        attempted += out.ops;
        failed += out.failed;
        failures.extend(out.failures.iter().map(|f| format!("FAILED: {f}")));
        episodes.push(Episode::of(out));
        if episodes.len() == MIN_EPISODES {
            peak_mb = peak_rss_mb();
        }
    }
    // Each sample's time is its fastest over the episodes. Every episode
    // runs the same ops in the same order, so each op is timed once per
    // episode. Host load only ever adds CPU time to the op's thread
    // (another tenant on the same core, cache pollution), in stretches of
    // 0.1 s to minutes that fall anywhere in a run; an op's fastest time
    // is its cost in the run's quiet stretches, the program's own cost,
    // which a change to the program moves as it moves every other time.
    // Taken per op, a quiet stretch counts wherever it falls, not only
    // when it covers a whole episode.
    let per_op = |f: fn(&Sample) -> f64| -> Vec<f64> {
        let len = episodes.iter().map(|e| e.samples.len()).min().unwrap_or(0);
        (0..len)
            .map(|i| episodes.iter().map(|e| f(&e.samples[i])).fold(f64::MAX, f64::min))
            .collect()
    };
    let ops: u64 = episodes.first().map_or(0, |e| e.samples.iter().map(|s| s.ops).sum());
    let mut lat = per_op(|s| s.us);
    let mut wall = per_op(|s| s.wall_us);
    let throughput = ops as f64 / (lat.iter().sum::<f64>() / 1e6);
    let wall_throughput = ops as f64 / (wall.iter().sum::<f64>() / 1e6);
    let p50 = util::quantile(&mut lat, 0.50);
    let p99 = util::quantile(&mut lat, 0.99);
    let all: Vec<f64> = episodes.iter().map(|e| e.throughput).collect();
    let mut notes = vec![
        format!(
            "{} episodes of {n} ops: {attempted} ops, {failed} failed; each latency sample is \
             one op's fastest time over the episodes: {} samples, {} beyond p99",
            episodes.len(),
            lat.len(),
            lat.iter().filter(|&&x| x > p99).count(),
        ),
        format!(
            "per-episode throughput: median {:.1}/s; in run order {all:.0?}",
            util::median(&mut all.clone()),
        ),
        format!(
            "wall clock: throughput {wall_throughput:.1}/s, p50 {:.1} us, p99 {:.1} us, \
             set-up {:.6} s; median set-up {:.6} s (CPU)",
            util::quantile(&mut wall, 0.50),
            util::quantile(&mut wall, 0.99),
            setups_wall.iter().copied().fold(f64::MAX, f64::min),
            util::median(&mut setups.clone()),
        ),
    ];
    if episodes.iter().all(|e| e.efficiency.is_some()) {
        let mut eff: Vec<f64> = episodes.iter().map(|e| e.efficiency.unwrap_or(0.0)).collect();
        notes.push(format!(
            "batch worker CPU / (wall x workers): {:.3}, median over the episodes",
            util::median(&mut eff),
        ));
    }
    notes.extend(failures.into_iter().take(5));
    Report {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: vec![
            ("throughput_per_s", throughput, "1/s"),
            ("latency_p50_us", p50, "us"),
            ("latency_p99_us", p99, "us"),
            ("setup_s", setups.iter().copied().fold(f64::MAX, f64::min), "s"),
            ("peak_rss_mb", peak_mb, "MB"),
        ],
        notes,
    }
}

/// One timed episode: its throughput on service time (CPU time, see
/// [`Sample::us`]), for the notes, and its latency samples.
#[derive(Debug)]
struct Episode {
    throughput: f64,
    efficiency: Option<f64>,
    samples: Vec<Sample>,
}

impl Episode {
    fn of(out: Outcome) -> Self {
        let ops = out.samples.iter().map(|s| s.ops).sum::<u64>() as f64;
        Episode {
            throughput: ops / (out.samples.iter().map(|s| s.us).sum::<f64>() / 1e6),
            efficiency: out.efficiency,
            samples: out.samples,
        }
    }
}

fn drive_traced<W: Workload>(w: &W, name: &str, seconds: u64) -> Report {
    let start = Instant::now();
    let mut setup_tr = Tracer::new(true);
    for _ in 0..SETUP_REPS {
        drop(w.setup(&mut setup_tr));
    }
    let mut builds: Vec<f64> = setup_tr
        .spans
        .iter()
        .filter(|s| s.name == "typeck.SharedSessionCore::new")
        .map(trace::Span::us)
        .collect();
    let core_build_us = util::median(&mut builds);

    let n = w.episode_ops();
    let mut off = Tracer::new(false);
    let mut per_pair: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_counts: Option<BTreeMap<&'static str, f64>> = None;
    let (mut attempted, mut failed, mut pairs) = (0, 0, 0);
    let mut notes = Vec::new();
    let mut repeatable = true;
    while pairs == 0 || (pairs < MAX_TRACE_PAIRS && start.elapsed().as_secs() < seconds) {
        // The untraced episode runs as a timed run does: no spans, no
        // allocation counting.
        trace::count_allocs(false);
        let mut st = w.setup(&mut off);
        let untraced = w.run(&mut st, n, &mut off);
        drop(st);
        trace::count_allocs(true);
        let mut st = w.setup(&mut off);
        let mut tr = Tracer::new(true);
        let traced = w.run(&mut st, n, &mut tr);
        drop(st);
        attempted += untraced.ops + traced.ops;
        failed += untraced.failed + traced.failed;
        notes.extend(
            untraced.failures.iter().chain(&traced.failures).map(|f| format!("FAILED: {f}")),
        );
        match &first_counts {
            None => {
                let path = spans_path(name);
                match tr.write_tsv(&path) {
                    Ok(()) => {
                        notes.push(format!("spans: {} ({} spans)", path.display(), tr.spans.len()))
                    }
                    Err(e) => notes.push(format!("spans not written to {}: {e}", path.display())),
                }
                first_counts = Some(traced.counts.clone());
            }
            Some(first) if *first != traced.counts => {
                repeatable = false;
                notes.push(format!(
                    "COUNTS DIFFER between episodes: {first:?} vs {:?}",
                    traced.counts
                ));
            }
            Some(_) => {}
        }
        for (k, v) in layer_metrics(&traced, &tr, &untraced) {
            per_pair.entry(k).or_default().push(v);
        }
        pairs += 1;
    }
    notes.push(format!(
        "traced run: {pairs} pair(s) of {n}-op episodes; times are medians over the traced episodes"
    ));
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(metric, unit) in PER_LAYER {
        let value = match metric {
            "typeck.core_build_us" => core_build_us,
            _ => per_pair.get_mut(metric).map_or(0.0, |v| util::median(v)),
        };
        metrics.push((metric, value, unit));
    }
    let ledger: Vec<String> = metrics
        .iter()
        .filter(|(m, _, _)| m.starts_with("self.") || m.starts_with("trace."))
        .map(|(m, v, u)| format!("{m}={v:.3}{u}"))
        .collect();
    notes.push(format!("per-op self time by layer: {}", ledger.join(" ")));
    Report { correct: failed == 0 && repeatable, attempted, failed, metrics, notes }
}

/// The generic half of a traced episode's per-layer metrics; the workload
/// adds its own through [`Outcome::layer`] and [`Outcome::counts`].
///
/// The `self.*` ledger attributes each op's time to layers. Spans are
/// recorded only around the calls the benchmark makes, so the layers
/// nested inside an outer call come from the probe: `syntax` is the
/// probe's lex + segment + parse, `typeck` is the probe's full check
/// minus `syntax`, and the outer layer (`batch`, `serve`, `topo` or `ni`)
/// keeps the rest of its calls' time, with the nested work divided by the
/// worker count when the outer call runs it on parallel workers.
/// `self.unattributed_us` is the op's time outside every recorded call.
fn layer_metrics(t: &Outcome, tr: &Tracer, untraced: &Outcome) -> BTreeMap<&'static str, f64> {
    let ops = t.ops.max(1) as f64;
    let ledger = tr.ledger();
    let total = |root: &str, name: &str| ledger.get(&(root, name)).map_or(0.0, |e| e.0) / ops;
    let in_op = |layer: &str| {
        ledger
            .iter()
            .filter(|((root, name), _)| *root == "op" && name.split('.').next() == Some(layer))
            .map(|(_, e)| e.0)
            .fold(0.0, |a, b| a + b)
            / ops
    };
    let lex = total("probe", "syntax.lex");
    let seg = total("probe", "syntax.item_segments");
    let parse = total("probe", "syntax.parse_tokens");
    let ifc = total("probe", "typeck.check_parsed");
    let check = total("probe", "typeck.check");
    let syntax = lex + seg + parse;
    let typeck = check - syntax;
    let mut m = BTreeMap::new();
    // Nested work the outer call spreads over parallel workers takes a
    // 1/jobs share of the op's wall time.
    let share = 1.0 / t.jobs.max(1) as f64;
    m.insert("self.syntax_us", syntax * share);
    m.insert("self.typeck_us", typeck * share);
    for (layer, name) in [
        ("batch", "self.batch_us"),
        ("serve", "self.serve_us"),
        ("topo", "self.topo_us"),
        ("ni", "self.ni_us"),
    ] {
        let inside = in_op(layer);
        m.insert(name, if inside > 0.0 { inside - (syntax + typeck) * share } else { 0.0 });
    }
    if let Some(e) = untraced.efficiency {
        m.insert("batch.parallel_efficiency", e);
    }
    if in_op("batch") > 0.0 {
        // Worker time the batch calls took beyond the checks themselves.
        m.insert("batch.driver_us", in_op("batch") * t.jobs.max(1) as f64 - check);
    }
    m.insert("self.unattributed_us", ledger.get(&("op", "op")).map_or(0.0, |e| e.1) / ops);
    for (metric, span) in [
        ("serve.parse_request_us", "serve.parse_request"),
        ("serve.epoch_us", "serve.run_epoch"),
        ("serve.render_us", "serve.to_ndjson"),
        ("topo.manifest_us", "topo.resolve_with"),
        ("topo.epoch_us", "topo.run_epoch"),
        ("topo.render_us", "topo.to_json"),
    ] {
        m.insert(metric, total("op", span));
    }
    m.insert("ni.gen_us", total("probe", "ni.random_program"));
    m.insert("ni.harness_us", total("probe", "ni.check_non_interference"));
    m.insert("syntax.lex_us", lex);
    m.insert("syntax.segment_us", seg);
    m.insert("syntax.parse_us", parse);
    m.insert("typeck.ifc_us", ifc);
    m.insert("typeck.lineage_us", ifc - total("probe", "typeck.check_parsed_no_lineage"));
    m.insert("typeck.check_us", check);
    m.insert("typeck.snapshot_us", check - syntax - ifc);
    let op_us = t.wall_us_per_op();
    let untraced_us = untraced.wall_us_per_op();
    m.insert("trace.ops", t.ops as f64);
    m.insert("trace.op_us", op_us);
    m.insert("trace.untraced_op_us", untraced_us);
    m.insert("trace.overhead_pct", (op_us / untraced_us - 1.0) * 100.0);
    m.extend(t.layer.iter().map(|(k, v)| (*k, *v)));
    m.extend(
        t.counts
            .iter()
            .filter(|(k, _)| PER_LAYER.iter().any(|(n, _)| n == *k))
            .map(|(k, v)| (*k, *v)),
    );
    m
}

/// Where a traced run writes its spans: `.bench_out/` at the repository
/// root (next to `perfbench/`).
fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_out")
        .join(format!("spans-{workload}.tsv"))
}

/// The process's peak resident set (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
