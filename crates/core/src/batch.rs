//! Parallel batch checking: fan a corpus of programs out across cores,
//! collect per-program diagnostics deterministically, and render reports.
//!
//! The driver builds one [`SharedSessionCore`] — the prelude lexed, parsed,
//! checked, and its interner/pool frozen exactly once — and hands every
//! worker of the crate's work-stealing pool a cheap overlay
//! [`CheckerSession`] cloned off it (see "The worker pool" in
//! `docs/ARCHITECTURE.md`). Results are merged **by input index**, never
//! by completion order, so the rendered reports are byte-identical run
//! over run, across `--jobs` settings, and across the shared-core vs
//! cold-session paths — the contract the determinism regression suite
//! pins down ([`check_batch_cold`] keeps the per-worker cold-session path
//! alive exactly for that comparison).
//!
//! # Examples
//!
//! ```
//! use p4bid::batch::{check_batch, BatchInput};
//! use p4bid::CheckOptions;
//!
//! let inputs = vec![
//!     BatchInput::new("ok", "control C(inout bit<8> x) { apply { x = x + 8w1; } }"),
//!     BatchInput::new(
//!         "leak",
//!         "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
//!     ),
//! ];
//! let report = check_batch(&inputs, &CheckOptions::ifc(), 2);
//! assert_eq!(report.accepted(), 1);
//! assert_eq!(report.rejected(), 1);
//! assert_eq!(report.programs[1].diagnostics[0].code, "E-EXPLICIT-FLOW");
//! ```

use crate::engine::{CheckEngine, Submission};
use crate::policy::PolicyPack;
use crate::synth::synth_program;
use p4bid_ast::span::span_line_col;
use p4bid_typeck::{
    CheckOptions, CheckerSession, DiagCode, Diagnostic, FlowNode, SessionHarvest, SessionStats,
    SharedSessionCore,
};
use std::fmt::Write as _;

/// One program in a batch: a display name plus its source text.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Display name (file name, or `synth-NNNN` for generated corpora).
    pub name: String,
    /// P4 source text.
    pub source: String,
}

impl BatchInput {
    /// Builds an input.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        BatchInput { name: name.into(), source: source.into() }
    }
}

/// One endpoint of a reported lineage step: rendered expression, label
/// name, and its 1-based position in the program source (`0:0` for spans
/// outside it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageNode {
    /// Rendered expression or l-value.
    pub expr: String,
    /// Label name against the active lattice.
    pub label: String,
    /// 1-based line, or 0 for spans outside the source.
    pub line: u32,
    /// 1-based column, or 0 for spans outside the source.
    pub col: u32,
}

impl LineageNode {
    fn from_flow(n: &FlowNode, source: &str) -> Self {
        let (line, col) = span_line_col(source, n.span).map_or((0, 0), |lc| (lc.line, lc.col));
        LineageNode { expr: n.what.clone(), label: n.label.clone(), line, col }
    }
}

/// One step of a diagnostic's flow-lineage path, flattened for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageStep {
    /// Flow-operation ident (`assign`, `guard-pc`, `table`, …).
    pub op: String,
    /// Where the data came from.
    pub source: LineageNode,
    /// Where the data went.
    pub sink: LineageNode,
}

/// A diagnostic flattened for reporting: stable code, 1-based position in
/// the program's own source (`0:0` when the span does not fall inside it),
/// the human message, and the flow-lineage path explaining the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDiagnostic {
    /// Stable diagnostic ident, e.g. `E-EXPLICIT-FLOW`.
    pub code: String,
    /// 1-based line, or 0 for spans outside the source (prelude/dummy).
    pub line: u32,
    /// 1-based column, or 0 for spans outside the source.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
    /// The source → sink flow path, oldest step first with the violating
    /// step last; empty for diagnostics with no flow to explain or when
    /// lineage recording is off.
    pub lineage: Vec<LineageStep>,
}

impl BatchDiagnostic {
    fn from_diagnostic(d: &Diagnostic, source: &str) -> Self {
        let (line, col) = span_line_col(source, d.span).map_or((0, 0), |lc| (lc.line, lc.col));
        let lineage = d
            .lineage
            .iter()
            .map(|e| LineageStep {
                op: e.op.ident().to_string(),
                source: LineageNode::from_flow(&e.source, source),
                sink: LineageNode::from_flow(&e.sink, source),
            })
            .collect();
        BatchDiagnostic {
            code: d.code.ident().to_string(),
            line,
            col,
            message: d.message.clone(),
            lineage,
        }
    }
}

/// The verdict for one program of the batch.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Position in the input list (reports are always sorted by this).
    pub index: usize,
    /// Input name.
    pub name: String,
    /// Whether the checker accepted the program.
    pub accepted: bool,
    /// Diagnostics for rejected programs (empty on accept).
    pub diagnostics: Vec<BatchDiagnostic>,
}

/// A whole-batch report, ordered by input index.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-program verdicts, sorted by input index.
    pub programs: Vec<ProgramReport>,
    /// Worker count the batch ran with (reporting only; excluded from the
    /// JSON form so reports are identical across `--jobs` settings).
    pub jobs: usize,
    /// Aggregated interner/pool tier statistics across the workers
    /// (reporting only — overlay sizes depend on work-stealing order, so
    /// these are excluded from the JSON form and from `render_table`;
    /// `p4bid batch --stats` prints them via
    /// [`render_text`](BatchStats::render_text)).
    pub stats: BatchStats,
}

/// Aggregated type-universe statistics for one batch run: the shared
/// frozen-segment sizes, the summed per-worker overlay sizes, the
/// frozen-segment hit counters, and the failure-domain counters (the
/// `p4bid-stats/3` additions).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Per-worker session counters, merged (frozen sizes are shared and
    /// taken once; overlay sizes and hit counters are summed).
    pub sessions: SessionStats,
    /// Number of worker sessions the counters were merged from.
    pub workers: usize,
    /// Programs whose check panicked inside an isolated worker
    /// (`E-INTERNAL` verdicts).
    pub panics: u64,
    /// Programs whose check hit the `--check-timeout-ms` wall-clock
    /// budget (`E-TIMEOUT` verdicts).
    pub timeouts: u64,
    /// Programs rejected by the `--max-source-bytes` cap (`E-OVERSIZED`
    /// verdicts).
    pub oversized: u64,
    /// Requests checked in a final drain epoch after SIGTERM/SIGINT
    /// (serve/watch only; always 0 for plain batches).
    pub drained: u64,
    /// Topology fixpoint rounds until label stabilization (`p4bid topo`
    /// only; always 0 for plain batches — the `p4bid-stats/5` additions).
    pub topo_rounds: u64,
    /// Real per-switch program checks at the topology fixpoint's final
    /// labels, memo and cache hits excluded (`p4bid topo` only; always 0
    /// for plain batches).
    pub switch_rechecks: u64,
}

impl BatchStats {
    pub(crate) fn absorb(&mut self, s: &SessionStats) {
        self.sessions.absorb(s);
        self.workers += 1;
    }

    /// Accumulates a whole batch's counters into this one — the shape a
    /// long-lived serve loop wants, tracking cumulative tier/hit-rate
    /// statistics across epochs.
    pub fn merge(&mut self, other: &BatchStats) {
        self.sessions.absorb(&other.sessions);
        self.workers += other.workers;
        self.panics += other.panics;
        self.timeouts += other.timeouts;
        self.oversized += other.oversized;
        self.drained += other.drained;
        self.topo_rounds += other.topo_rounds;
        self.switch_rechecks += other.switch_rechecks;
    }

    /// Derives the failure-domain counters from a finished report by
    /// scanning its diagnostic codes — counting the *merged* report (not
    /// per-worker tallies) keeps the counters independent of
    /// work-stealing order.
    pub(crate) fn count_failure_domains(&mut self, programs: &[ProgramReport]) {
        for p in programs {
            for d in &p.diagnostics {
                match d.code.as_str() {
                    c if c == DiagCode::InternalError.ident() => self.panics += 1,
                    c if c == DiagCode::Timeout.ident() => self.timeouts += 1,
                    c if c == DiagCode::Oversized.ident() => self.oversized += 1,
                    _ => {}
                }
            }
        }
    }

    /// Human-readable tier/hit-rate statistics block (`--stats`). Overlay
    /// sizes and hit counts depend on which worker checked which program,
    /// so this block is intentionally not part of the deterministic
    /// table/JSON report renderings.
    #[must_use]
    pub fn render_text(&self) -> String {
        let s = &self.sessions;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "type universe: frozen {} symbols / {} types; overlay +{} symbols / +{} types \
             across {} worker session(s)",
            s.frozen_syms, s.frozen_types, s.overlay_syms, s.overlay_types, self.workers,
        );
        let _ = writeln!(
            out,
            "frozen-segment hit rate: symbols {:.1}% ({}/{}), types {:.1}% ({}/{}), \
             push-cache hits {}",
            s.sym_hit_rate() * 100.0,
            s.sym_frozen_hits,
            s.sym_intern_calls,
            s.ty_hit_rate() * 100.0,
            s.ty_frozen_hits,
            s.ty_intern_calls,
            s.push_cache_hits,
        );
        let _ = writeln!(
            out,
            "incremental: prefix hits {} / misses {} (items saved {}), snapshots inserted {}, \
             lattice-state hits {} / published {}",
            s.prefix_hits,
            s.prefix_misses,
            s.prefix_items_saved,
            s.prefix_inserts,
            s.lattice_state_hits,
            s.lattice_states_published,
        );
        let _ = writeln!(
            out,
            "failure domains: panics {}, timeouts {}, oversized {}, drained {}",
            self.panics, self.timeouts, self.oversized, self.drained,
        );
        let _ = writeln!(
            out,
            "topology: fixpoint rounds {}, switch rechecks {}",
            self.topo_rounds, self.switch_rechecks,
        );
        out
    }

    /// Machine-readable statistics (`--stats-json`): one JSON document per
    /// line, schema `p4bid-stats/5`, emitted on **stderr** so the
    /// deterministic report schemas on stdout are never polluted —
    /// everything in here (overlay sizes, hit counters) legitimately
    /// varies with work-stealing order. `epochs` is present only for
    /// `serve`/`watch`, where the counters are cumulative across epochs;
    /// `ops` (the serve front-door and verdict-cache counters — the `/2`
    /// additions) likewise. The `/3` revision added the failure-domain
    /// counters (`panics`, `timeouts`, `oversized`, `drained`); `/4` added
    /// the incremental-checking counters (`prefix_hits`, `prefix_misses`,
    /// `prefix_inserts`, `prefix_items_saved`, `lattice_state_hits`,
    /// `lattice_states_published`, and `refreezes` in the `ops` block);
    /// `/5` added the topology fixpoint counters (`topo_rounds`,
    /// `switch_rechecks`).
    #[must_use]
    pub fn render_json(
        &self,
        command: &str,
        epochs: Option<u64>,
        ops: Option<&crate::serve::ServeOps>,
    ) -> String {
        let s = &self.sessions;
        let mut out = String::from("{");
        let _ = write!(out, "\"schema\": \"p4bid-stats/5\"");
        let _ = write!(out, ", \"command\": {}", json_string(command));
        if let Some(epochs) = epochs {
            let _ = write!(out, ", \"epochs\": {epochs}");
        }
        let _ = write!(out, ", \"workers\": {}", self.workers);
        let _ = write!(out, ", \"frozen_syms\": {}", s.frozen_syms);
        let _ = write!(out, ", \"overlay_syms\": {}", s.overlay_syms);
        let _ = write!(out, ", \"frozen_types\": {}", s.frozen_types);
        let _ = write!(out, ", \"overlay_types\": {}", s.overlay_types);
        let _ = write!(out, ", \"sym_frozen_hits\": {}", s.sym_frozen_hits);
        let _ = write!(out, ", \"sym_intern_calls\": {}", s.sym_intern_calls);
        let _ = write!(out, ", \"sym_hit_rate\": {:.4}", s.sym_hit_rate());
        let _ = write!(out, ", \"ty_frozen_hits\": {}", s.ty_frozen_hits);
        let _ = write!(out, ", \"ty_intern_calls\": {}", s.ty_intern_calls);
        let _ = write!(out, ", \"ty_hit_rate\": {:.4}", s.ty_hit_rate());
        let _ = write!(out, ", \"push_cache_hits\": {}", s.push_cache_hits);
        let _ = write!(out, ", \"prefix_hits\": {}", s.prefix_hits);
        let _ = write!(out, ", \"prefix_misses\": {}", s.prefix_misses);
        let _ = write!(out, ", \"prefix_inserts\": {}", s.prefix_inserts);
        let _ = write!(out, ", \"prefix_items_saved\": {}", s.prefix_items_saved);
        let _ = write!(out, ", \"lattice_state_hits\": {}", s.lattice_state_hits);
        let _ = write!(out, ", \"lattice_states_published\": {}", s.lattice_states_published);
        let _ = write!(out, ", \"panics\": {}", self.panics);
        let _ = write!(out, ", \"timeouts\": {}", self.timeouts);
        let _ = write!(out, ", \"oversized\": {}", self.oversized);
        let _ = write!(out, ", \"drained\": {}", self.drained);
        let _ = write!(out, ", \"topo_rounds\": {}", self.topo_rounds);
        let _ = write!(out, ", \"switch_rechecks\": {}", self.switch_rechecks);
        if let Some(o) = ops {
            let _ = write!(out, ", \"connections\": {}", o.connections);
            let _ = write!(out, ", \"conn_errors\": {}", o.conn_errors);
            let _ = write!(out, ", \"shed\": {}", o.shed);
            let _ = write!(out, ", \"peak_pending\": {}", o.peak_pending);
            let _ = write!(out, ", \"cache_hits\": {}", o.cache_hits);
            let _ = write!(out, ", \"cache_misses\": {}", o.cache_misses);
            let _ = write!(out, ", \"cache_size\": {}", o.cache_size);
            let _ = write!(out, ", \"refreezes\": {}", o.refreezes);
        }
        out.push_str("}\n");
        out
    }
}

impl BatchReport {
    /// Number of accepted programs.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.programs.iter().filter(|p| p.accepted).count()
    }

    /// Number of rejected programs.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.programs.len() - self.accepted()
    }

    /// Whether every program was accepted.
    #[must_use]
    pub fn all_accepted(&self) -> bool {
        self.rejected() == 0
    }

    /// Machine-readable JSON form (schema `p4bid-batch-report/2`; the `/2`
    /// revision added the per-diagnostic `lineage` array).
    ///
    /// Deliberately timing-free: two runs over the same inputs produce
    /// byte-identical JSON regardless of scheduling or worker count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"p4bid-batch-report/2\",\n");
        out.push_str("  \"programs\": [\n");
        for (i, p) in self.programs.iter().enumerate() {
            out.push_str("    ");
            program_json_into(&mut out, p);
            out.push_str(if i + 1 == self.programs.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"summary\": {}", self.summary_json());
        out.push_str("}\n");
        out
    }

    /// The `{"total": …, "accepted": …, "rejected": …}` summary object
    /// shared by the batch and serve report schemas.
    pub(crate) fn summary_json(&self) -> String {
        format!(
            "{{\"total\": {}, \"accepted\": {}, \"rejected\": {}}}",
            self.programs.len(),
            self.accepted(),
            self.rejected(),
        )
    }

    /// Human-readable table, one row per program plus a summary line.
    #[must_use]
    pub fn render_table(&self) -> String {
        let name_w = self.programs.iter().map(|p| p.name.len()).max().unwrap_or(4).clamp(4, 40);
        let mut out = String::new();
        let _ = writeln!(out, "{:>5}  {:<name_w$}  {:<8}  diagnostics", "#", "name", "status");
        for p in &self.programs {
            let diag = match p.diagnostics.first() {
                None => String::new(),
                Some(d) => {
                    let more = p.diagnostics.len() - 1;
                    let suffix = if more > 0 { format!(" (+{more} more)") } else { String::new() };
                    format!("{} @ {}:{}{suffix}", d.code, d.line, d.col)
                }
            };
            let status = if p.accepted { "accept" } else { "REJECT" };
            let _ = writeln!(out, "{:>5}  {:<name_w$}  {:<8}  {diag}", p.index, p.name, status);
        }
        let _ = writeln!(
            out,
            "{} program(s): {} accepted, {} rejected",
            self.programs.len(),
            self.accepted(),
            self.rejected(),
        );
        out
    }
}

/// Appends one program's verdict as a JSON object to `out` — the exact
/// bytes the `p4bid-batch-report/2` schema embeds, reused verbatim by the
/// `p4bid-serve-report/2` epoch documents and the `p4bid-topo-report/1`
/// switch rows so the schemas can never drift apart per program.
pub(crate) fn program_json_into(out: &mut String, p: &ProgramReport) {
    let _ = write!(out, "{{\"index\": {}, \"name\": ", p.index);
    json_string_into(out, &p.name);
    out.push_str(if p.accepted { ", \"status\": \"accept\"" } else { ", \"status\": \"reject\"" });
    out.push_str(", \"diagnostics\": [");
    for (j, d) in p.diagnostics.iter().enumerate() {
        out.push_str(if j == 0 { "{\"code\": " } else { ", {\"code\": " });
        json_string_into(out, &d.code);
        let _ = write!(out, ", \"line\": {}, \"col\": {}, \"message\": ", d.line, d.col);
        json_string_into(out, &d.message);
        out.push_str(", \"lineage\": [");
        for (k, step) in d.lineage.iter().enumerate() {
            out.push_str(if k == 0 { "{\"op\": " } else { ", {\"op\": " });
            json_string_into(out, &step.op);
            out.push_str(", \"source\": ");
            lineage_node_json_into(out, &step.source);
            out.push_str(", \"sink\": ");
            lineage_node_json_into(out, &step.sink);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Appends one lineage endpoint, as the report schemas render it, to
/// `out`.
fn lineage_node_json_into(out: &mut String, n: &LineageNode) {
    out.push_str("{\"expr\": ");
    json_string_into(out, &n.expr);
    out.push_str(", \"label\": ");
    json_string_into(out, &n.label);
    let _ = write!(out, ", \"line\": {}, \"col\": {}}}", n.line, n.col);
}

/// Escapes `s` as a JSON string literal (shared by the batch, serve, topo
/// and stats renderers — every schema in this crate is hand-rendered so
/// the byte-identical-report contract never depends on a serializer's
/// formatting choices).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    json_string_into(&mut out, s);
    out
}

/// [`json_string`], appended to `out`. The text between escapes goes in
/// with one `push_str` per run, so a string with nothing to escape is one
/// copy. Every escaped byte is ASCII, so a run never splits a character.
pub(crate) fn json_string_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Checks every input against one freshly frozen [`SharedSessionCore`]
/// and returns the ordered report.
///
/// `jobs == 0` means "one worker per available core". The prelude is
/// lexed, parsed, and checked exactly once (when the core is frozen); each
/// worker owns a private overlay [`CheckerSession`] cloned off the core.
/// Verdicts are merged by input index so the report (and its JSON/table
/// renderings) is deterministic.
#[must_use]
pub fn check_batch(inputs: &[BatchInput], opts: &CheckOptions, jobs: usize) -> BatchReport {
    let core = SharedSessionCore::new(opts.clone());
    check_batch_with_core(inputs, &core, jobs)
}

/// [`check_batch`] against an existing shared core — the entry point for
/// long-lived services that keep one core across many batches.
#[must_use]
pub fn check_batch_with_core(
    inputs: &[BatchInput],
    core: &SharedSessionCore,
    jobs: usize,
) -> BatchReport {
    run_batch(inputs, jobs, &|| core.session(), false).0
}

/// [`check_batch`] on the pre-shared-core path: every worker builds its
/// own cold session (prelude re-checked per worker). Kept so the
/// determinism suite can assert the shared-core reports are byte-identical
/// to the historical per-worker-session output.
#[must_use]
pub fn check_batch_cold(inputs: &[BatchInput], opts: &CheckOptions, jobs: usize) -> BatchReport {
    run_batch(inputs, jobs, &|| CheckerSession::new(opts.clone()), false).0
}

/// Checks a batch under a policy pack: each input's options are resolved
/// from its *name* against `base`'s options, and the crate's check engine
/// runs every distinct option set over its own shared core (built with
/// `base`'s prefix-cache cap), re-merging by input index — a pack that
/// resolves every name to the base options produces exactly
/// [`check_batch_with_core`]'s output.
#[must_use]
pub fn check_batch_with_policy(
    inputs: &[BatchInput],
    base: &SharedSessionCore,
    pack: &PolicyPack,
    jobs: usize,
) -> BatchReport {
    if pack.is_empty() {
        return check_batch_with_core(inputs, base, jobs);
    }
    let mut engine = CheckEngine::new(base.clone());
    let subs: Vec<Submission<'_>> = inputs
        .iter()
        .map(|inp| Submission {
            name: &inp.name,
            source: &inp.source,
            cell: engine.cell(&pack.resolve(&inp.name, base.options())),
        })
        .collect();
    engine.check(&subs, jobs).0
}

/// The shared driver: checks `inputs` on the crate's worker pool, each
/// worker owning one session produced by `make_session`. A panicking check
/// becomes that program's `E-INTERNAL` verdict. When `harvest` is set,
/// every worker's final session is harvested (see [`crate::pool::run`]).
pub(crate) fn run_batch(
    inputs: &[BatchInput],
    jobs: usize,
    make_session: &(impl Fn() -> CheckerSession + Sync),
    harvest: bool,
) -> (BatchReport, Vec<SessionHarvest>) {
    let run = crate::pool::run(
        inputs.len(),
        jobs,
        make_session,
        harvest,
        &|session, i| check_one(session, i, &inputs[i]),
        &|i| internal_error_report(i, &inputs[i]),
        &|_| false,
    );
    let mut stats = run.stats;
    stats.count_failure_domains(&run.results);
    (BatchReport { programs: run.results, jobs: run.workers, stats }, run.harvests)
}

/// The deterministic verdict a caught worker panic turns into. The
/// message deliberately carries no panic payload or location — payloads
/// can differ across runs, and the byte-identical-report contract covers
/// faulting programs too.
pub(crate) fn internal_error_report(index: usize, input: &BatchInput) -> ProgramReport {
    ProgramReport {
        index,
        name: input.name.clone(),
        accepted: false,
        diagnostics: vec![BatchDiagnostic {
            code: DiagCode::InternalError.ident().to_string(),
            line: 0,
            col: 0,
            message: "internal error: the checker panicked on this program".to_string(),
            lineage: Vec::new(),
        }],
    }
}

fn check_one(session: &mut CheckerSession, index: usize, input: &BatchInput) -> ProgramReport {
    // Arm the wall-clock deadline before the fault hook so injected
    // slowness (`P4BID_FAULTS=…:slow=…`) deterministically exercises the
    // `--check-timeout-ms` path; key injected faults on the program's
    // FNV-1a hash so the same program faults identically regardless of
    // which worker picks it up.
    let deadline = session.options().deadline_from_now();
    session.set_deadline(deadline);
    crate::faults::check_faults(&input.source);
    match session.verdict(&input.source) {
        Ok(()) => ProgramReport {
            index,
            name: input.name.clone(),
            accepted: true,
            diagnostics: Vec::new(),
        },
        Err(diags) => ProgramReport {
            index,
            name: input.name.clone(),
            accepted: false,
            diagnostics: diags
                .iter()
                .map(|d| BatchDiagnostic::from_diagnostic(d, &input.source))
                .collect(),
        },
    }
}

/// A deterministic synthetic corpus of `n` well-typed annotated programs
/// (sizes cycling over 1–8 table/action pairs), for scale testing and the
/// `batch` bench. Every program is accepted by the IFC checker.
#[must_use]
pub fn synthetic_corpus(n: usize) -> Vec<BatchInput> {
    (0..n)
        .map(|i| BatchInput::new(format!("synth-{i:04}"), synth_program(i % 8 + 1, true)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_inputs() -> Vec<BatchInput> {
        let mut inputs = synthetic_corpus(6);
        inputs.insert(
            2,
            BatchInput::new(
                "leak",
                "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
            ),
        );
        inputs.insert(5, BatchInput::new("syntax-error", "control {"));
        inputs
    }

    #[test]
    fn verdicts_are_input_ordered_and_correct() {
        let report = check_batch(&mixed_inputs(), &CheckOptions::ifc(), 4);
        assert_eq!(report.programs.len(), 8);
        for (i, p) in report.programs.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(report.rejected(), 2);
        assert!(!report.programs[2].accepted);
        assert_eq!(report.programs[2].diagnostics[0].code, "E-EXPLICIT-FLOW");
        assert!(!report.programs[5].accepted);
        assert_eq!(report.programs[5].diagnostics[0].code, "E-MALFORMED");
    }

    #[test]
    fn reports_identical_across_job_counts() {
        let inputs = mixed_inputs();
        let opts = CheckOptions::ifc();
        let one = check_batch(&inputs, &opts, 1);
        for jobs in [2, 3, 8] {
            let par = check_batch(&inputs, &opts, jobs);
            assert_eq!(one.to_json(), par.to_json(), "jobs={jobs}");
            assert_eq!(one.render_table(), par.render_table(), "jobs={jobs}");
        }
    }

    #[test]
    fn json_is_schema_tagged_and_escaped() {
        let inputs = vec![BatchInput::new("we\"ird\nname", "control {")];
        let report = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"p4bid-batch-report/2\""), "{json}");
        assert!(json.contains("we\\\"ird\\nname"), "{json}");
        assert!(json.contains("\"summary\": {\"total\": 1, \"accepted\": 0, \"rejected\": 1}"));
    }

    /// The exact escaping of every schema string: `"`, `\` and the three
    /// named controls get their short forms, every other byte below 0x20
    /// a lowercase `\u00xx`, and everything else (DEL and non-ASCII
    /// included) passes through unchanged.
    #[test]
    fn json_string_escapes_exactly_these_bytes() {
        for b in 0u8..0x80 {
            let expected = match b {
                b'"' => "\\\"".to_string(),
                b'\\' => "\\\\".to_string(),
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                0..=0x1f => format!("\\u{b:04x}"),
                _ => char::from(b).to_string(),
            };
            let s = char::from(b).to_string();
            assert_eq!(json_string(&s), format!("\"{expected}\""), "byte {b:#04x}");
        }
        let pinned = [
            ("", "\"\""),
            ("\0", "\"\\u0000\""),
            ("\u{8}\u{c}", "\"\\u0008\\u000c\""),
            ("\u{1b}[0m", "\"\\u001b[0m\""),
            ("\u{1f}", "\"\\u001f\""),
            ("\u{7f}", "\"\u{7f}\""),
            ("caf\u{e9} \u{2192} \u{1f980}", "\"caf\u{e9} \u{2192} \u{1f980}\""),
            ("already \\n escaped \\\"", "\"already \\\\n escaped \\\\\\\"\""),
            ("say \"hi\"\n", "\"say \\\"hi\\\"\\n\""),
            ("a\\b", "\"a\\\\b\""),
            ("plain text with no escapes", "\"plain text with no escapes\""),
        ];
        for (raw, json) in pinned {
            assert_eq!(json_string(raw), json, "{raw:?}");
        }
    }

    #[test]
    fn diagnostics_carry_positions_in_their_own_source() {
        let src =
            "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {\n    apply { l = h; }\n}\n";
        let report = check_batch(&[BatchInput::new("leak", src)], &CheckOptions::ifc(), 1);
        let d = &report.programs[0].diagnostics[0];
        assert_eq!((d.line, d.col), (2, 13), "{d:?}");
    }

    #[test]
    fn empty_batch_is_all_accepted() {
        let report = check_batch(&[], &CheckOptions::ifc(), 0);
        assert!(report.all_accepted());
        assert_eq!(report.programs.len(), 0);
        assert!(report.to_json().contains("\"total\": 0"));
    }

    #[test]
    fn synthetic_corpus_is_accepted_at_scale() {
        let inputs = synthetic_corpus(64);
        let report = check_batch(&inputs, &CheckOptions::ifc(), 0);
        assert!(report.all_accepted(), "{}", report.render_table());
    }

    #[test]
    fn shared_core_and_cold_paths_render_identically() {
        let inputs = mixed_inputs();
        let opts = CheckOptions::ifc();
        let cold = check_batch_cold(&inputs, &opts, 1);
        for jobs in [1, 2, 8] {
            let shared = check_batch(&inputs, &opts, jobs);
            assert_eq!(cold.to_json(), shared.to_json(), "jobs={jobs}");
            assert_eq!(cold.render_table(), shared.render_table(), "jobs={jobs}");
        }
    }

    #[test]
    fn one_core_serves_many_batches() {
        let core = SharedSessionCore::new(CheckOptions::ifc());
        let inputs = mixed_inputs();
        let first = check_batch_with_core(&inputs, &core, 2);
        let second = check_batch_with_core(&inputs, &core, 4);
        assert_eq!(first.to_json(), second.to_json());
    }

    #[test]
    fn lineage_rides_the_json_report() {
        let inputs = vec![BatchInput::new(
            "leak",
            "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
        )];
        let report = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let d = &report.programs[0].diagnostics[0];
        assert_eq!(d.lineage.len(), 1, "{d:?}");
        assert_eq!(d.lineage[0].op, "assign");
        assert_eq!(d.lineage[0].source.expr, "h");
        assert_eq!(d.lineage[0].source.label, "high");
        assert_eq!(d.lineage[0].sink.expr, "l");
        assert_eq!(d.lineage[0].sink.label, "low");
        let json = report.to_json();
        assert!(json.contains("\"lineage\": [{\"op\": \"assign\""), "{json}");
        // Lineage off: the array is present but empty.
        let off = check_batch(&inputs, &CheckOptions::ifc().with_lineage(false), 1);
        assert!(off.to_json().contains("\"lineage\": []"), "{}", off.to_json());
    }

    #[test]
    fn policy_batches_resolve_per_program_options() {
        let pack = PolicyPack::parse(
            "[declass-*]\ndeclassify = true\n\n[strict-*]\nlattice = \"lo < mid; mid < hi\"\n",
        )
        .unwrap();
        let declassifying = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
             { apply { l = declassify(h); } }";
        let inputs = vec![
            BatchInput::new("declass-a.p4", declassifying),
            BatchInput::new("plain-b.p4", declassifying),
            BatchInput::new(
                "strict-c.p4",
                "control C(inout <bit<8>, lo> l, inout <bit<8>, hi> h) { apply { l = h; } }",
            ),
        ];
        let base = SharedSessionCore::new(CheckOptions::ifc());
        let report = check_batch_with_policy(&inputs, &base, &pack, 2);
        // Same source, different verdicts: the policy granted declassify
        // only to the first name.
        assert!(report.programs[0].accepted, "{}", report.render_table());
        assert!(!report.programs[1].accepted);
        assert_eq!(report.programs[1].diagnostics[0].code, "E-DECLASSIFY-FORBIDDEN");
        // The third program only typechecks under the rule's lattice.
        assert!(!report.programs[2].accepted);
        assert_eq!(report.programs[2].diagnostics[0].code, "E-EXPLICIT-FLOW");
        assert!(report.programs[2].diagnostics[0].message.contains("`hi`"));
        // Deterministic across job counts, like plain batches.
        let one = check_batch_with_policy(&inputs, &base, &pack, 1);
        let eight = check_batch_with_policy(&inputs, &base, &pack, 8);
        assert_eq!(one.to_json(), report.to_json());
        assert_eq!(one.to_json(), eight.to_json());
        // An empty pack is exactly the plain path.
        let empty = PolicyPack::parse("").unwrap();
        let plain = check_batch(&inputs, &CheckOptions::ifc(), 1);
        let via_policy = check_batch_with_policy(&inputs, &base, &empty, 1);
        assert_eq!(plain.to_json(), via_policy.to_json());
    }

    #[test]
    fn oversized_inputs_become_verdicts_and_counters() {
        let mut inputs = synthetic_corpus(3);
        inputs.push(BatchInput::new("big", "control C(inout bit<8> x) { apply { } }"));
        let opts = CheckOptions::ifc().with_max_source_bytes(30);
        let report = check_batch(&inputs, &opts, 2);
        // The synthetic programs are well over 30 bytes too — every input
        // is rejected as oversized, none is parsed.
        assert_eq!(report.rejected(), 4, "{}", report.render_table());
        for p in &report.programs {
            assert_eq!(p.diagnostics[0].code, "E-OVERSIZED", "{p:?}");
        }
        assert_eq!(report.stats.oversized, 4);
        assert_eq!(report.stats.panics, 0);
        let json = report.stats.render_json("batch", None, None);
        assert!(json.contains("\"oversized\": 4"), "{json}");
        assert!(json.contains("\"schema\": \"p4bid-stats/5\""), "{json}");
        assert!(json.contains("\"prefix_hits\": "), "{json}");
        let text = report.stats.render_text();
        assert!(text.contains("failure domains: panics 0, timeouts 0, oversized 4"), "{text}");
    }

    #[test]
    fn internal_error_verdicts_are_deterministic_and_counted() {
        // The verdict a caught worker panic turns into (real injection is
        // exercised end-to-end by the chaos suite via P4BID_FAULTS).
        let input = BatchInput::new("boom", "control C(inout bit<8> x) { apply { } }");
        let report = internal_error_report(7, &input);
        assert_eq!(report.index, 7);
        assert!(!report.accepted);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, "E-INTERNAL");
        assert_eq!(
            report.diagnostics[0].message,
            "internal error: the checker panicked on this program",
        );
        assert_eq!((report.diagnostics[0].line, report.diagnostics[0].col), (0, 0));
        let mut stats = BatchStats::default();
        stats.count_failure_domains(&[report]);
        assert_eq!((stats.panics, stats.timeouts, stats.oversized), (1, 0, 0));
    }

    #[test]
    fn stats_report_frozen_segment_reuse() {
        let report = check_batch(&synthetic_corpus(8), &CheckOptions::ifc(), 2);
        let s = report.stats.sessions;
        assert!(s.frozen_syms > 0 && s.frozen_types > 0, "{s:?}");
        assert!(s.sym_frozen_hits > 0, "prelude names must be served frozen: {s:?}");
        let rendered = report.stats.render_text();
        assert!(rendered.contains("frozen-segment hit rate"), "{rendered}");
        assert!(rendered.contains("type universe"), "{rendered}");
        // The cold path reports empty frozen segments.
        let cold = check_batch_cold(&synthetic_corpus(2), &CheckOptions::ifc(), 1);
        assert_eq!(cold.stats.sessions.frozen_syms, 0);
        assert_eq!(cold.stats.sessions.sym_frozen_hits, 0);
    }
}
