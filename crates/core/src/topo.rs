//! Topology-scale checking: fixpoint composition of per-switch verdicts.
//!
//! P4BID checks one program at a time, but the property a network operator
//! cares about is end-to-end: data labeled `high` at one switch must not
//! reach a port another switch exports as `low`. This module lifts the
//! program checker to a *network* checker. A flat manifest (`p4bid.topo`
//! by convention) declares switches (name → program path, plus optional
//! per-switch option overrides), directed links (`sw1:p2 -> sw2:p1`), and
//! per-link label *contracts* — the highest label the wire is allowed to
//! carry.
//!
//! The driver computes, for every switch `s`, an **ingress label**
//! `in(s)`: the join of its declared external seed with the egress labels
//! of every upstream switch feeding it. Each switch's program is then
//! checked with its ambient `pc` seeded to `in(s)` (and
//! [`CheckOptions::pc_floor`] on, so a control cannot understate its own
//! `@pc` below the real upstream influence). Because labels only ever
//! move *up* the (finite) lattice via joins, the propagation is monotone
//! and the fixpoint terminates in at most `|switches| · |lattice|`
//! rounds. Egress labels default to `in(s)` — a switch accepted at
//! ambient `pc = in(s)` cannot have written below that context, so the
//! taint view is sound — and a manifest may declare a lower egress only
//! when the switch is allowed to declassify; otherwise the downgrade is
//! refused (the conservative `in(s)` propagates) and reported.
//!
//! Egress labels depend only on `in(s)` and the manifest, never on a
//! verdict, so the fixpoint runs on labels alone and each switch is then
//! checked once, at its final `in(s)`. Determinism is the same contract
//! the batch layer pins: the label rounds are sequential and walk the
//! manifest's link order, and the one check fans out over the
//! work-stealing pool (grouped by distinct resolved option sets, in
//! first-appearance order) and merges by switch index. Reports are
//! byte-identical across `--jobs` settings and repeated runs.
//!
//! A watch epoch pays for what changed, not for what exists.
//! [`TopoManifest::parse`] validates the manifest once, into a shared
//! layout (boundary lattice, resolved labels, links as switch indices);
//! a [`Topology`] is that layout plus its program sources, so resolving
//! again only loads programs. The engine's memo and every report share
//! each verdict through an `Arc`, and [`TopoReport::to_json`] writes the
//! whole document into one buffer.
//!
//! `p4bid topo --watch` ([`run_topo_watch`]) has no poller of its own: it
//! runs on the serve layer's [`DirScanner`], pointed at the manifest and
//! the programs it names, and on the poll loop `p4bid watch` uses. A tick
//! with any change reloads the topology and runs one epoch.
//!
//! # Examples
//!
//! ```
//! use p4bid::topo::{check_topology, TopoManifest};
//! use p4bid::CheckOptions;
//!
//! let manifest = TopoManifest::parse(
//!     r#"
//!     lattice = "low < high"
//!
//!     [switch edge]
//!     program = "edge.p4"
//!     ingress = "high"
//!
//!     [link edge:p1 -> core:p1]
//!     contract = "low"
//!
//!     [switch core]
//!     program = "core.p4"
//!     "#,
//! )
//! .unwrap();
//! let fwd = "control C(inout <bit<8>, high> x) { apply { x = x + 8w1; } }";
//! let topo = manifest
//!     .resolve_with(|path| Ok(format!("// {path}\n{fwd}")))
//!     .unwrap();
//! let report = check_topology(&topo, &CheckOptions::ifc(), 2);
//! // Both programs check, but the edge switch's `high` ingress crosses a
//! // `low`-contracted wire: the topology is rejected.
//! assert_eq!(report.accepted(), 2);
//! assert_eq!(report.violations.len(), 1);
//! assert!(!report.all_ok());
//! ```

use crate::batch::{json_string_into, program_json_into, BatchReport, BatchStats, ProgramReport};
use crate::engine::{is_transient, CheckEngine, Submission};
use crate::policy::{parse_bool, parse_lattice, read_flat, FlatLine};
use crate::serve::{DirScanner, ScanDelta, ServeSummary};
use p4bid_lattice::{Label, Lattice};
use p4bid_typeck::{CheckOptions, DEFAULT_PREFIX_CACHE_CAP};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A topology-manifest load error, pointing at the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoError {
    /// 1-based line in the manifest (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TopoError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        TopoError { line, message: message.into() }
    }
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "topology error: {}", self.message)
        } else {
            write!(f, "topology error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TopoError {}

/// One `[switch NAME]` section of a manifest, before validation.
#[derive(Debug)]
struct SwitchDecl {
    name: String,
    program: String,
    ingress: Option<String>,
    egress: Option<String>,
    pc: Option<String>,
    declassify: Option<bool>,
    lattice: Option<Lattice>,
    /// 1-based manifest line of the section header.
    line: usize,
}

/// One `[link sw:port -> sw:port]` section of a manifest, before
/// validation.
#[derive(Debug)]
struct LinkDecl {
    /// Upstream endpoint (switch name, port name).
    from: (String, String),
    /// Downstream endpoint (switch name, port name).
    to: (String, String),
    contract: Option<String>,
    /// 1-based manifest line of the section header.
    line: usize,
}

/// A manifest's sections as read, before validation.
#[derive(Debug, Default)]
struct Sections {
    lattice: Option<Lattice>,
    switches: Vec<SwitchDecl>,
    links: Vec<LinkDecl>,
}

/// A parsed topology manifest: its validated structure, ready to resolve
/// against program sources.
///
/// The format is the crate's usual flat, line-based style: section
/// headers, `key = value` lines, `#` comments. Two section forms exist —
/// `[switch NAME]` (keys `program`, `ingress`, `egress`, `pc`,
/// `declassify`, `lattice`) and `[link sw:port -> sw:port]` (key
/// `contract`) — plus one topology-level key, `lattice`, accepted before
/// the first section: the *boundary* lattice that ingress/egress/contract
/// labels resolve against (`"two-point"`, `"diamond"`, or a `lo < hi; …`
/// order expression; default two-point). Loading is fail-fast with
/// 1-based line numbers, exactly like [`crate::policy::PolicyPack`].
///
/// Parsing also validates the structure, once, into a shared layout:
/// every [`Topology`] resolved from one manifest holds the same layout
/// and owns only its program sources.
#[derive(Debug, Clone)]
pub struct TopoManifest {
    /// Per switch, in file order: its program path and the line of its
    /// section — what [`TopoManifest::resolve_with`] loads.
    programs: Vec<(String, usize)>,
    /// The validated layout, or its first structural mistake, which
    /// resolving reports only after every program loaded.
    layout: Result<Arc<Layout>, TopoError>,
}

/// Which section the manifest parser is currently filling.
enum Section {
    Preamble,
    Switch(usize),
    Link(usize),
}

impl TopoManifest {
    /// Parses a manifest from its text form.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (fail-fast: a topology manifest is
    /// a security boundary and never degrades to defaults silently).
    /// Structural mistakes in well-formed lines (duplicate switches,
    /// dangling links, unknown labels) surface when the manifest is
    /// resolved.
    pub fn parse(text: &str) -> Result<Self, TopoError> {
        let mut m = Sections::default();
        let mut section = Section::Preamble;
        read_flat(text, TopoError::at, |lineno, line| {
            let (key, value) = match line {
                FlatLine::Section(header) => {
                    section = m.open(header, lineno)?;
                    return Ok(());
                }
                FlatLine::Entry(key, value) => (key, value),
            };
            match &section {
                Section::Preamble => match key {
                    "lattice" => m.lattice = Some(parse_lattice(value)?),
                    other => {
                        return Err(format!(
                            "unknown topology key `{other}` before the first section \
                             (expected `lattice`)"
                        ));
                    }
                },
                Section::Switch(i) => {
                    let sw = &mut m.switches[*i];
                    match key {
                        "program" => sw.program = value.to_string(),
                        "ingress" => sw.ingress = Some(value.to_string()),
                        "egress" => sw.egress = Some(value.to_string()),
                        "pc" => sw.pc = Some(value.to_string()),
                        "declassify" => sw.declassify = Some(parse_bool(value)?),
                        "lattice" => sw.lattice = Some(parse_lattice(value)?),
                        other => {
                            return Err(format!(
                                "unknown switch key `{other}` (expected `program`, \
                                 `ingress`, `egress`, `pc`, `declassify`, or `lattice`)"
                            ));
                        }
                    }
                }
                Section::Link(i) => match key {
                    "contract" => m.links[*i].contract = Some(value.to_string()),
                    other => {
                        return Err(format!("unknown link key `{other}` (expected `contract`)"));
                    }
                },
            }
            Ok(())
        })?;
        for sw in &m.switches {
            if sw.program.is_empty() {
                return Err(TopoError::at(
                    sw.line,
                    format!("switch `{}` declares no `program`", sw.name),
                ));
            }
        }
        let programs = m.switches.iter().map(|sw| (sw.program.clone(), sw.line)).collect();
        Ok(TopoManifest { programs, layout: Layout::validate(m).map(Arc::new) })
    }

    /// Loads and parses a manifest file.
    ///
    /// # Errors
    ///
    /// I/O failures and parse errors both surface as [`TopoError`].
    pub fn load(path: &Path) -> Result<Self, TopoError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| TopoError::at(0, format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Resolves the manifest into a checkable [`Topology`], reading each
    /// switch's program from `base_dir` (normally the manifest's parent
    /// directory).
    ///
    /// # Errors
    ///
    /// Unreadable program files, then the manifest's first structural
    /// mistake: an empty topology, duplicate switch names, links naming
    /// undeclared switches (dangling ports), endpoints wired twice, and
    /// ingress/egress/pc/contract labels that do not resolve in the
    /// boundary lattice — each with its declaring line.
    pub fn resolve(&self, base_dir: &Path) -> Result<Topology, TopoError> {
        self.resolve_with(|program| {
            std::fs::read_to_string(base_dir.join(program))
                .map_err(|e| format!("cannot read {}: {e}", base_dir.join(program).display()))
        })
    }

    /// [`TopoManifest::resolve`] with a caller-supplied program loader —
    /// the hook examples, tests, and property suites use to assemble
    /// in-memory topologies without touching the filesystem.
    ///
    /// # Errors
    ///
    /// Loader failures are reported at the declaring switch's line; the
    /// rest as for [`TopoManifest::resolve`].
    pub fn resolve_with(
        &self,
        mut load: impl FnMut(&str) -> Result<String, String>,
    ) -> Result<Topology, TopoError> {
        let mut sources = Vec::with_capacity(self.programs.len());
        for (program, line) in &self.programs {
            sources.push(load(program).map_err(|e| TopoError::at(*line, e))?);
        }
        Ok(Topology { layout: self.layout.clone()?, sources })
    }
}

impl Sections {
    /// Starts the `[switch NAME]` or `[link sw:port -> sw:port]` section
    /// declared on line `lineno`.
    fn open(&mut self, header: &str, lineno: usize) -> Result<Section, String> {
        if let Some(name) = header.strip_prefix("switch ") {
            let name = name.trim();
            if name.is_empty() {
                return Err("empty switch name".into());
            }
            self.switches.push(SwitchDecl {
                name: name.to_string(),
                program: String::new(),
                ingress: None,
                egress: None,
                pc: None,
                declassify: None,
                lattice: None,
                line: lineno,
            });
            Ok(Section::Switch(self.switches.len() - 1))
        } else if let Some(spec) = header.strip_prefix("link ") {
            let Some((from, to)) = spec.split_once("->") else {
                return Err(format!("expected `[link sw:port -> sw:port]`, found `[{header}]`"));
            };
            self.links.push(LinkDecl {
                from: parse_endpoint(from)?,
                to: parse_endpoint(to)?,
                contract: None,
                line: lineno,
            });
            Ok(Section::Link(self.links.len() - 1))
        } else {
            Err(format!("unknown section `[{header}]` (expected `switch` or `link`)"))
        }
    }
}

/// Splits one `sw:port` endpoint.
fn parse_endpoint(s: &str) -> Result<(String, String), String> {
    let s = s.trim();
    match s.split_once(':').map(|(sw, port)| (sw.trim(), port.trim())) {
        Some((sw, port)) if !sw.is_empty() && !port.is_empty() => {
            Ok((sw.to_string(), port.to_string()))
        }
        _ => Err(format!("expected `switch:port`, found `{s}`")),
    }
}

/// One switch of a [`Topology`]: its declaration with the boundary labels
/// resolved against the boundary lattice. Its program source is
/// [`Topology::sources`] at the same index.
#[derive(Debug, Clone)]
pub struct TopoSwitch {
    /// Switch name.
    pub name: String,
    /// Program display path (the manifest's `program` value).
    pub program: String,
    /// External ingress seed (lattice bottom unless declared).
    pub ingress: Label,
    /// Declared egress label, if any.
    pub egress: Option<Label>,
    /// Declared extra `pc` floor, if any.
    pub pc: Option<Label>,
    /// Per-switch `declassify` override, if any.
    pub declassify: Option<bool>,
    /// Per-switch program-check lattice override, if any.
    pub lattice: Option<Lattice>,
}

/// One directed link of a resolved [`Topology`].
#[derive(Debug, Clone)]
pub struct TopoLink {
    /// Upstream switch index.
    pub from: usize,
    /// Upstream port name.
    pub from_port: String,
    /// Downstream switch index.
    pub to: usize,
    /// Downstream port name.
    pub to_port: String,
    /// Wire contract (lattice top unless declared).
    pub contract: Label,
}

/// A manifest's validated structure: the boundary lattice, the switches
/// with their labels resolved, and the links with their endpoints as
/// switch indices. Everything in a topology except its sources.
#[derive(Debug)]
struct Layout {
    lattice: Lattice,
    switches: Vec<TopoSwitch>,
    links: Vec<TopoLink>,
}

impl Layout {
    /// Validates a manifest's sections, reporting the first mistake in a
    /// fixed order: an empty topology; then per switch, in order, a
    /// duplicate name and its ingress, egress and `pc` labels; then per
    /// link, in order, its upstream and downstream switches, its contract
    /// label, and the earliest earlier link wired to the same egress or
    /// ingress port (egress first when one link shares both).
    fn validate(m: Sections) -> Result<Self, TopoError> {
        if m.switches.is_empty() {
            return Err(TopoError::at(0, "a topology needs at least one `[switch NAME]`"));
        }
        let lattice = m.lattice.unwrap_or_else(Lattice::two_point);
        let resolve = |name: &str, what: &str, line: usize| {
            lattice.label(name).ok_or_else(|| {
                TopoError::at(line, format!("{what} label `{name}` is not in the boundary lattice"))
            })
        };
        let mut index: HashMap<&str, usize> = HashMap::with_capacity(m.switches.len());
        let mut switches = Vec::with_capacity(m.switches.len());
        for sw in &m.switches {
            if index.insert(&sw.name, switches.len()).is_some() {
                return Err(TopoError::at(sw.line, format!("duplicate switch `{}`", sw.name)));
            }
            let label = |name: &Option<String>, what| {
                name.as_deref().map(|n| resolve(n, what, sw.line)).transpose()
            };
            switches.push(TopoSwitch {
                name: sw.name.clone(),
                program: sw.program.clone(),
                ingress: label(&sw.ingress, "ingress")?.unwrap_or_else(|| lattice.bottom()),
                egress: label(&sw.egress, "egress")?,
                pc: label(&sw.pc, "pc")?,
                declassify: sw.declassify,
                lattice: sw.lattice.clone(),
            });
        }
        let index_of = |name: &str, line: usize| {
            index.get(name).copied().ok_or_else(|| {
                TopoError::at(line, format!("link references unknown switch `{name}`"))
            })
        };
        // The link wired to each `(switch, port)` endpoint so far.
        let mut egress: HashMap<(usize, &str), usize> = HashMap::with_capacity(m.links.len());
        let mut ingress: HashMap<(usize, &str), usize> = HashMap::with_capacity(m.links.len());
        let mut links = Vec::with_capacity(m.links.len());
        for (li, l) in m.links.iter().enumerate() {
            let link = TopoLink {
                from: index_of(&l.from.0, l.line)?,
                from_port: l.from.1.clone(),
                to: index_of(&l.to.0, l.line)?,
                to_port: l.to.1.clone(),
                contract: match &l.contract {
                    Some(n) => resolve(n, "contract", l.line)?,
                    None => lattice.top(),
                },
            };
            let wired = |(sw, port): &(String, String), dir: &str| {
                TopoError::at(l.line, format!("{dir} port `{sw}:{port}` is already wired"))
            };
            match (egress.get(&(link.from, &l.from.1)), ingress.get(&(link.to, &l.to.1))) {
                (Some(e), Some(i)) if i < e => return Err(wired(&l.to, "ingress")),
                (Some(_), _) => return Err(wired(&l.from, "egress")),
                (None, Some(_)) => return Err(wired(&l.to, "ingress")),
                (None, None) => {}
            }
            egress.insert((link.from, &l.from.1), li);
            ingress.insert((link.to, &l.to.1), li);
            links.push(link);
        }
        Ok(Layout { lattice, switches, links })
    }
}

/// A validated, checkable network: the manifest's shared layout (the
/// boundary lattice, the switches and the directed links between them)
/// plus the switches' program sources.
#[derive(Debug, Clone)]
pub struct Topology {
    layout: Arc<Layout>,
    /// Per switch index: its program source.
    sources: Vec<String>,
}

impl Topology {
    /// Loads, parses, and resolves a manifest file in one step, reading
    /// program paths relative to the manifest's parent directory.
    ///
    /// # Errors
    ///
    /// As for [`TopoManifest::load`] and [`TopoManifest::resolve`].
    pub fn load(path: &Path) -> Result<Self, TopoError> {
        let manifest = TopoManifest::load(path)?;
        manifest.resolve(path.parent().unwrap_or_else(|| Path::new(".")))
    }

    /// The boundary lattice.
    #[must_use]
    pub fn lattice(&self) -> &Lattice {
        &self.layout.lattice
    }

    /// The switches, in manifest order.
    #[must_use]
    pub fn switches(&self) -> &[TopoSwitch] {
        &self.layout.switches
    }

    /// The switches' program sources, in manifest order.
    #[must_use]
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// The links, in manifest order.
    #[must_use]
    pub fn links(&self) -> &[TopoLink] {
        &self.layout.links
    }
}

/// What a [`TopoViolation`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A link carrying a label above its declared contract.
    Contract,
    /// A switch declaring an egress below its computed ingress without a
    /// declassify grant.
    Downgrade,
}

impl ViolationKind {
    /// Stable ident for reports (`contract` / `downgrade`).
    #[must_use]
    pub fn ident(self) -> &'static str {
        match self {
            ViolationKind::Contract => "contract",
            ViolationKind::Downgrade => "downgrade",
        }
    }
}

/// One topology-level violation: a wire over its contract, or a refused
/// egress downgrade. Carries a cross-switch lineage chain tracing where
/// the offending label came from.
#[derive(Debug, Clone)]
pub struct TopoViolation {
    /// What was violated.
    pub kind: ViolationKind,
    /// Where: `sw:port -> sw:port` for contracts, the switch name for
    /// downgrades.
    pub at: String,
    /// The label actually carried.
    pub label: String,
    /// The bound it violated (the contract, or the declared egress).
    pub bound: String,
    /// The provenance chain, e.g. `` `edge` (high) --egress p1--> `core`
    /// (contract low) ``.
    pub chain: String,
}

/// The fixpoint verdict for one switch.
#[derive(Debug, Clone)]
pub struct SwitchReport {
    /// The program verdict, exactly as the batch layer reports it
    /// (`index` is the switch's manifest position, `name` the switch
    /// name) — byte-compatible with `p4bid-batch-report/2`. Shared with
    /// the engine's memo, so an unchanged switch's verdict is not copied.
    pub verdict: Arc<ProgramReport>,
    /// Program display path.
    pub program: String,
    /// Final computed ingress label name.
    pub ingress: String,
    /// Final computed egress label name.
    pub egress: String,
}

/// A whole-topology fixpoint report.
#[derive(Debug, Clone)]
pub struct TopoReport {
    /// Per-switch verdicts, in manifest order.
    pub switches: Vec<SwitchReport>,
    /// Topology-level violations: contract breaches in link order, then
    /// refused downgrades in switch order.
    pub violations: Vec<TopoViolation>,
    /// Fixpoint rounds until stabilization.
    pub rounds: u64,
    /// Real checks at final labels: switches answered by neither the
    /// engine's memo of the last epoch nor the verdict cache. At most one
    /// per switch.
    pub switch_rechecks: u64,
    /// Worker count the fixpoint ran with (reporting only; excluded from
    /// the JSON form).
    pub jobs: usize,
    /// Aggregated session statistics (reporting only; varies with
    /// work-stealing order, so never part of the deterministic renderings).
    pub stats: BatchStats,
}

impl TopoReport {
    /// Number of switches whose program the checker accepted.
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.switches.iter().filter(|s| s.verdict.accepted).count()
    }

    /// Number of switches whose program was rejected.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.switches.len() - self.accepted()
    }

    /// Whether every switch was accepted **and** no topology-level
    /// violation was found.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.rejected() == 0 && self.violations.is_empty()
    }

    /// The per-switch verdicts repackaged as a [`BatchReport`] — for a
    /// single-switch topology with trivial contracts, its JSON and table
    /// renderings are byte-identical to `p4bid batch` on the same
    /// program (the differential suite pins this).
    #[must_use]
    pub fn as_batch_report(&self) -> BatchReport {
        BatchReport {
            programs: self.switches.iter().map(|s| ProgramReport::clone(&s.verdict)).collect(),
            jobs: self.jobs,
            stats: self.stats,
        }
    }

    /// Machine-readable JSON form (schema `p4bid-topo-report/1`).
    ///
    /// Deliberately timing-free: byte-identical across `--jobs` settings
    /// and repeated runs. Each switch's `verdict` object is rendered by
    /// the exact code path the batch schema uses, so the two can never
    /// drift apart per program.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 * (self.switches.len() + self.violations.len()));
        out.push_str("{\n  \"schema\": \"p4bid-topo-report/1\",\n");
        let _ = writeln!(out, "  \"rounds\": {},", self.rounds);
        let _ = writeln!(out, "  \"switch_rechecks\": {},", self.switch_rechecks);
        out.push_str("  \"switches\": [\n");
        for (i, s) in self.switches.iter().enumerate() {
            out.push_str("    {\"switch\": ");
            json_string_into(&mut out, &s.verdict.name);
            out.push_str(", \"program\": ");
            json_string_into(&mut out, &s.program);
            out.push_str(", \"ingress\": ");
            json_string_into(&mut out, &s.ingress);
            out.push_str(", \"egress\": ");
            json_string_into(&mut out, &s.egress);
            out.push_str(", \"verdict\": ");
            program_json_into(&mut out, &s.verdict);
            out.push_str(if i + 1 == self.switches.len() { "}\n" } else { "},\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str("    {\"kind\": ");
            json_string_into(&mut out, v.kind.ident());
            out.push_str(", \"at\": ");
            json_string_into(&mut out, &v.at);
            out.push_str(", \"label\": ");
            json_string_into(&mut out, &v.label);
            out.push_str(", \"bound\": ");
            json_string_into(&mut out, &v.bound);
            out.push_str(", \"chain\": ");
            json_string_into(&mut out, &v.chain);
            out.push_str(if i + 1 == self.violations.len() { "}\n" } else { "},\n" });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"summary\": {{\"switches\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"violations\": {}}}",
            self.switches.len(),
            self.accepted(),
            self.rejected(),
            self.violations.len(),
        );
        out.push_str("}\n");
        out
    }

    /// Human-readable table: one row per switch, the violation list, and
    /// a summary line. Deterministic, like [`TopoReport::to_json`].
    #[must_use]
    pub fn render_table(&self) -> String {
        let name_w =
            self.switches.iter().map(|s| s.verdict.name.len()).max().unwrap_or(6).clamp(6, 40);
        let lab_w = self
            .switches
            .iter()
            .map(|s| s.ingress.len() + s.egress.len() + 4)
            .max()
            .unwrap_or(6)
            .clamp(6, 40);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5}  {:<name_w$}  {:<8}  {:<lab_w$}  diagnostics",
            "#", "switch", "status", "labels"
        );
        for s in &self.switches {
            let diag = match s.verdict.diagnostics.first() {
                None => String::new(),
                Some(d) => {
                    let more = s.verdict.diagnostics.len() - 1;
                    let suffix = if more > 0 { format!(" (+{more} more)") } else { String::new() };
                    format!("{} @ {}:{}{suffix}", d.code, d.line, d.col)
                }
            };
            let status = if s.verdict.accepted { "accept" } else { "REJECT" };
            let labels = format!("{} -> {}", s.ingress, s.egress);
            let _ = writeln!(
                out,
                "{:>5}  {:<name_w$}  {:<8}  {:<lab_w$}  {diag}",
                s.verdict.index, s.verdict.name, status, labels
            );
        }
        for v in &self.violations {
            let _ = writeln!(
                out,
                "{}: {} carries `{}` over `{}`",
                v.kind.ident(),
                v.at,
                v.label,
                v.bound
            );
            let _ = writeln!(out, "  flow: {}", v.chain);
        }
        let _ = writeln!(
            out,
            "{} switch(es): {} accepted, {} rejected; {} violation(s); \
             fixpoint: {} round(s), {} recheck(s)",
            self.switches.len(),
            self.accepted(),
            self.rejected(),
            self.violations.len(),
            self.rounds,
            self.switch_rechecks,
        );
        out
    }
}

/// The reusable fixpoint driver: a topology plus the crate's check engine
/// — one shared core per distinct resolved option set (so re-checks keep
/// their frozen prelude *and* the item memo), and a verdict
/// cache, bounded by the topology's size, that lets an epoch skip every
/// `(source, ingress)` pair it has recently decided — plus a memo of each
/// switch's last verdict and the final ingress label it was checked at.
/// Watch mode holds one engine across edits: after a single-switch edit,
/// only the switches whose source or final label changed reach the engine.
#[derive(Debug)]
pub struct TopoEngine {
    topo: Topology,
    base: CheckOptions,
    jobs: usize,
    engine: CheckEngine,
    /// Per switch index: the last epoch's final ingress label and the
    /// verdict checked at it, shared with the reports that carry it.
    /// Never holds a transient verdict.
    memo: Vec<Option<(Label, Arc<ProgramReport>)>>,
    epochs: u64,
    cumulative: BatchStats,
}

/// The verdict-cache bound for a topology: two epochs' worth of
/// `(source, ingress)` pairs. One epoch checks each switch once, at its
/// final ingress label, so an epoch is `|switches|` pairs; twice that keeps
/// the previous epoch's verdicts alive through the current one (an edit
/// and its revert both stay hits).
fn cache_bound(topo: &Topology) -> usize {
    2 * topo.sources.len()
}

impl TopoEngine {
    /// Builds an engine over a topology. `jobs == 0` means "one worker
    /// per available core" (resolved here, so reports display the real
    /// worker count).
    #[must_use]
    pub fn new(topo: Topology, base: CheckOptions, jobs: usize) -> Self {
        // Unclamped: every epoch's checks are clamped again by the pool.
        let jobs = crate::pool::workers(jobs, usize::MAX);
        let mut engine = CheckEngine::empty(DEFAULT_PREFIX_CACHE_CAP);
        engine.set_cache_cap(cache_bound(&topo));
        let memo = vec![None; topo.sources.len()];
        TopoEngine { topo, base, jobs, engine, memo, epochs: 0, cumulative: BatchStats::default() }
    }

    /// The current topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Swaps in a re-resolved topology (a watch-mode reload), keeping the
    /// session cores and the verdict cache (re-bounded for the new
    /// topology) — unchanged switches stay cache hits. A switch keeps its
    /// memo slot only if its name, source, `pc`, `declassify` and `lattice`
    /// override are all unchanged; a new switch count or boundary lattice
    /// clears every slot.
    pub fn set_topology(&mut self, topo: Topology) {
        self.engine.set_cache_cap(cache_bound(&topo));
        let (old, new) = (&self.topo, &topo);
        if new.sources.len() != old.sources.len() || new.lattice() != old.lattice() {
            self.memo = vec![None; new.sources.len()];
        } else {
            let (old_sw, new_sw) = (old.switches().iter(), new.switches().iter());
            let pairs = old_sw.zip(&old.sources).zip(new_sw.zip(&new.sources));
            for (slot, ((a, a_src), (b, b_src))) in self.memo.iter_mut().zip(pairs) {
                let same = a.name == b.name
                    && a_src == b_src
                    && a.pc == b.pc
                    && a.declassify == b.declassify
                    && a.lattice == b.lattice;
                if !same {
                    *slot = None;
                }
            }
        }
        self.topo = topo;
    }

    /// Epochs run so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Counters accumulated across every epoch (the shape `--stats`
    /// reporting wants for a long-lived watch).
    #[must_use]
    pub fn cumulative_stats(&self) -> BatchStats {
        self.cumulative
    }

    /// The effective check options for switch `i` at ingress label
    /// `in_label`: the engine's base options with the ambient `pc` seeded
    /// to `join(in_label, declared pc)` (left untouched at lattice bottom,
    /// so a seed-free check is bit-for-bit a batch check), `pc_floor` on,
    /// and the per-switch `declassify`/`lattice` overrides applied.
    fn effective_options(&self, i: usize, in_label: Label) -> CheckOptions {
        let sw = &self.topo.switches()[i];
        let lat = self.topo.lattice();
        let mut opts = self.base.clone();
        opts.pc_floor = true;
        if let Some(l) = &sw.lattice {
            opts.lattice = Some(l.clone());
        }
        if let Some(d) = sw.declassify {
            opts.allow_declassify = d;
        }
        let seed = match sw.pc {
            Some(floor) => lat.join(in_label, floor),
            None => in_label,
        };
        if !lat.is_bottom(seed) {
            opts.pc = Some(lat.name(seed).to_string());
        }
        opts
    }

    /// Whether switch `i` may declassify (its override, else the base).
    fn declassify_allowed(&self, i: usize) -> bool {
        self.topo.switches()[i].declassify.unwrap_or(self.base.allow_declassify)
    }

    /// Runs the fixpoint to stabilization and reports.
    ///
    /// Two phases. **Labels first:** every switch starts dirty at its
    /// declared seed; each round recomputes the dirty switches' egress
    /// labels and propagates joins along the links in manifest order.
    /// Egress labels depend only on `in(s)` and the manifest, never on a
    /// verdict, and labels only rise, so the loop ends — in at most
    /// `|switches| · |lattice|` rounds — with every label stable. **One
    /// check:** then each switch is checked once, at its final `in(s)`
    /// (grouped by distinct resolved options over the work-stealing pool,
    /// merged by switch index). A switch whose memo slot holds a verdict
    /// at that same label skips the engine; the rest go through the
    /// verdict cache.
    pub fn run_epoch(&mut self) -> TopoReport {
        // A refcount, so the label work borrows the layout while the
        // check below borrows the engine.
        let layout = Arc::clone(&self.topo.layout);
        let (lat, sws) = (&layout.lattice, &layout.switches);
        let n = sws.len();
        let mut inl: Vec<Label> = sws.iter().map(|s| s.ingress).collect();
        let mut outl: Vec<Label> = inl.clone();
        // For each switch, the link whose propagation last *raised* its
        // ingress label — the provenance edge violation chains walk.
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut dirty: Vec<bool> = vec![true; n];
        let mut rounds: u64 = 0;
        // Monotone joins over a finite lattice cannot climb forever; the
        // cap is unreachable and exists purely as a correctness backstop.
        let round_cap = (n as u64) * (lat.len() as u64) + 2;
        while dirty.iter().any(|&d| d) && rounds < round_cap {
            rounds += 1;
            // Egress labels: the conservative taint `in(s)` unless the
            // manifest declares one — raises are free, lowering needs the
            // declassify grant (a refusal is reported post-fixpoint).
            for i in 0..n {
                if std::mem::take(&mut dirty[i]) {
                    outl[i] = match sws[i].egress {
                        Some(eg) if lat.leq(inl[i], eg) || self.declassify_allowed(i) => eg,
                        _ => inl[i],
                    };
                }
            }
            // Propagate joins downstream, in manifest link order.
            for (li, link) in layout.links.iter().enumerate() {
                let joined = lat.join(inl[link.to], outl[link.from]);
                if joined != inl[link.to] {
                    inl[link.to] = joined;
                    pred[link.to] = Some(li);
                    dirty[link.to] = true;
                }
            }
        }
        let (verdicts, rechecks, mut stats) = self.check_at(&inl);
        // Topology-level violations, from the *final* labels only (round
        // structure never leaks into the report): contract breaches in
        // link order, refused downgrades in switch order.
        let mut violations = Vec::new();
        for (li, link) in layout.links.iter().enumerate() {
            if !lat.leq(outl[link.from], link.contract) {
                violations.push(TopoViolation {
                    kind: ViolationKind::Contract,
                    at: format!(
                        "{}:{} -> {}:{}",
                        sws[link.from].name, link.from_port, sws[link.to].name, link.to_port,
                    ),
                    label: lat.name(outl[link.from]).to_string(),
                    bound: lat.name(link.contract).to_string(),
                    chain: self.render_chain(&pred, &outl, li),
                });
            }
        }
        for (i, sw) in sws.iter().enumerate() {
            if let Some(eg) = sw.egress {
                if !lat.leq(inl[i], eg) && !self.declassify_allowed(i) {
                    violations.push(TopoViolation {
                        kind: ViolationKind::Downgrade,
                        at: sw.name.clone(),
                        label: lat.name(inl[i]).to_string(),
                        bound: lat.name(eg).to_string(),
                        chain: self.render_downgrade_chain(&pred, &outl, i),
                    });
                }
            }
        }
        let switches = verdicts
            .into_iter()
            .enumerate()
            .map(|(i, verdict)| SwitchReport {
                verdict,
                program: sws[i].program.clone(),
                ingress: lat.name(inl[i]).to_string(),
                egress: lat.name(outl[i]).to_string(),
            })
            .collect();
        self.epochs += 1;
        stats.topo_rounds = rounds;
        stats.switch_rechecks = rechecks;
        self.cumulative.merge(&stats);
        TopoReport {
            switches,
            violations,
            rounds,
            switch_rechecks: rechecks,
            jobs: self.jobs,
            stats,
        }
    }

    /// Checks every switch once, at its final ingress label `inl[i]`, and
    /// returns the verdicts in switch order, the number of real checks, and
    /// the checks' stats. A switch whose memo slot holds a verdict at the
    /// same label is answered from it; the rest go to the engine in one
    /// call, and their non-transient verdicts refill the memo.
    fn check_at(&mut self, inl: &[Label]) -> (Vec<Arc<ProgramReport>>, u64, BatchStats) {
        let work: Vec<usize> = (0..inl.len())
            .filter(|&i| !matches!(&self.memo[i], Some((l, _)) if *l == inl[i]))
            .collect();
        let mut subs = Vec::with_capacity(work.len());
        for &i in &work {
            let opts = self.effective_options(i, inl[i]);
            let name = &self.topo.switches()[i].name;
            let cell = self.engine.cell(&opts);
            subs.push(Submission { name, source: &self.topo.sources[i], cell });
        }
        let (report, checked) = self.engine.check(&subs, self.jobs);
        let mut fresh = work.iter().zip(report.programs).peekable();
        let verdicts = (0..inl.len())
            .map(|i| match fresh.next_if(|&(&j, _)| j == i) {
                Some((_, mut p)) => {
                    p.index = i;
                    let p = Arc::new(p);
                    self.memo[i] =
                        (!is_transient(&p.diagnostics)).then(|| (inl[i], Arc::clone(&p)));
                    p
                }
                None => {
                    Arc::clone(&self.memo[i].as_ref().expect("an unchecked switch is memoized").1)
                }
            })
            .collect();
        (verdicts, checked, report.stats)
    }

    /// The provenance hops into `start_switch`: the links (oldest first)
    /// that successively raised its ingress label, capped at 8 hops.
    fn provenance(&self, pred: &[Option<usize>], start_switch: usize) -> Vec<usize> {
        let mut hops = Vec::new();
        let mut cur = start_switch;
        while let Some(li) = pred[cur] {
            if hops.len() >= 8 {
                break;
            }
            hops.push(li);
            cur = self.topo.links()[li].from;
        }
        hops.reverse();
        hops
    }

    /// Renders a cross-switch lineage chain ending at link `last`: e.g.
    /// `` `edge` (high) --egress p1--> `core` (contract low) ``, with the
    /// provenance hops that raised the upstream label prepended.
    fn render_chain(&self, pred: &[Option<usize>], outl: &[Label], last: usize) -> String {
        let lat = self.topo.lattice();
        let mut hops = self.provenance(pred, self.topo.links()[last].from);
        hops.push(last);
        let mut out = String::new();
        for (k, &li) in hops.iter().enumerate() {
            let link = &self.topo.links()[li];
            if k == 0 {
                let _ = write!(
                    out,
                    "`{}` ({})",
                    self.topo.switches()[link.from].name,
                    lat.name(outl[link.from]),
                );
            }
            let _ = write!(out, " --egress {}--> ", link.from_port);
            if li == last {
                let _ = write!(
                    out,
                    "`{}` (contract {})",
                    self.topo.switches()[link.to].name,
                    lat.name(link.contract),
                );
            } else {
                let _ = write!(
                    out,
                    "`{}` ({})",
                    self.topo.switches()[link.to].name,
                    lat.name(outl[link.to]),
                );
            }
        }
        out
    }

    /// Renders the chain for a refused downgrade at switch `i`: the
    /// provenance that raised its ingress, ending in the refused egress
    /// declaration.
    fn render_downgrade_chain(&self, pred: &[Option<usize>], outl: &[Label], i: usize) -> String {
        let lat = self.topo.lattice();
        let sw = &self.topo.switches()[i];
        let mut out = String::new();
        for (k, &li) in self.provenance(pred, i).iter().enumerate() {
            let link = &self.topo.links()[li];
            if k == 0 {
                let _ = write!(
                    out,
                    "`{}` ({})",
                    self.topo.switches()[link.from].name,
                    lat.name(outl[link.from]),
                );
            }
            let _ = write!(
                out,
                " --egress {}--> `{}` ({})",
                link.from_port,
                self.topo.switches()[link.to].name,
                lat.name(outl[link.to]),
            );
        }
        if out.is_empty() {
            let _ = write!(out, "`{}` ({})", sw.name, lat.name(outl[i]));
        }
        let _ = write!(
            out,
            " --declared egress--> `{}` (needs declassify)",
            lat.name(sw.egress.expect("downgrade violations only at declared egresses")),
        );
        out
    }
}

/// One-shot fixpoint check: builds a throwaway [`TopoEngine`] and runs a
/// single epoch. `jobs == 0` means "one worker per available core".
#[must_use]
pub fn check_topology(topo: &Topology, base: &CheckOptions, jobs: usize) -> TopoReport {
    TopoEngine::new(topo.clone(), base.clone(), jobs).run_epoch()
}

/// The `p4bid topo --watch` driver on [`crate::serve::run_watch`]'s poll
/// loop, with a [`DirScanner`] over the manifest and the programs it
/// names. The first tick and every tick with a change reload the topology
/// into the persistent engine and run one epoch. A reload parses the
/// manifest, points the scanner at the programs it now names and scans
/// them, then resolves the topology. Every file is checked as the scanner
/// last read it, never read a second time: each fingerprint then matches
/// the content checked, no edit goes unchecked, and adding a switch is one
/// epoch. A reload fails when the manifest or a program it names is
/// unreadable or removed; the failure is logged and the last good topology
/// stays live. `any_rejected` marks an epoch with a rejected switch or a
/// violation.
///
/// # Errors
///
/// Only `out` write failures abort the loop; everything else degrades to
/// log lines.
pub fn run_topo_watch(
    engine: &mut TopoEngine,
    manifest_path: &Path,
    out: &mut dyn std::io::Write,
    log: &mut dyn std::io::Write,
    json: bool,
    max_epochs: Option<u64>,
    interval: std::time::Duration,
) -> std::io::Result<ServeSummary> {
    let base_dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
    let mut scanner = DirScanner::new(base_dir);
    scanner.set_files([manifest_path.to_path_buf()]);
    let mut contents = WatchedContents::default();
    crate::serve::watch_loop(
        &mut scanner,
        log,
        max_epochs,
        interval,
        |delta, scanner, log, summary| {
            contents.take(delta);
            let reload = contents.reload(manifest_path, base_dir, scanner, log);
            match reload {
                Ok(topo) => engine.set_topology(topo),
                Err(e) => {
                    // The security stance a live checker must take: a
                    // broken edit never silently disables checking — the
                    // last good topology stays live and the error is
                    // surfaced every time the content changes.
                    let _ = writeln!(log, "cannot reload {}: {e}", manifest_path.display());
                    return Ok(());
                }
            }
            let start = std::time::Instant::now();
            let report = engine.run_epoch();
            if json {
                out.write_all(report.to_json().as_bytes())?;
            } else {
                out.write_all(report.render_table().as_bytes())?;
            }
            out.flush()?;
            let _ = writeln!(
                log,
                "epoch {}: {} switch(es), {} round(s), {} recheck(s) in {:.1} ms on {} worker(s)",
                engine.epochs(),
                report.switches.len(),
                report.rounds,
                report.switch_rechecks,
                start.elapsed().as_secs_f64() * 1e3,
                report.jobs,
            );
            summary.epochs += 1;
            summary.any_rejected |= !report.all_ok();
            Ok(())
        },
    )
}

/// The last content the `topo --watch` scanner read of each watched path,
/// keyed by the scanner's name for it. A path it could not read, or found
/// removed, has no entry, so a reload that needs it fails.
#[derive(Default)]
struct WatchedContents(BTreeMap<String, String>);

impl WatchedContents {
    /// Takes in one scan tick's reads, removals and read failures.
    fn take(&mut self, delta: ScanDelta) {
        for name in delta.removed.into_iter().chain(delta.unreadable) {
            self.0.remove(&name);
        }
        self.0.extend(delta.changed.into_iter().map(|input| (input.name, input.source)));
    }

    /// The content of `path`, as the scanner names it.
    fn get(&self, path: &Path) -> Result<&String, String> {
        self.0
            .get(&path.display().to_string())
            .ok_or_else(|| format!("cannot read {}", path.display()))
    }

    /// Parses the manifest, points `scanner` at it and the programs it
    /// names, scans them (logging the tick) and resolves the topology, all
    /// from the content read.
    fn reload(
        &mut self,
        manifest_path: &Path,
        base_dir: &Path,
        scanner: &mut DirScanner,
        log: &mut dyn std::io::Write,
    ) -> Result<Topology, TopoError> {
        let manifest =
            TopoManifest::parse(self.get(manifest_path).map_err(|e| TopoError::at(0, e))?)?;
        let files: BTreeSet<PathBuf> = std::iter::once(manifest_path.to_path_buf())
            .chain(manifest.programs.iter().map(|(program, _)| base_dir.join(program)))
            .collect();
        let names: BTreeSet<String> = files.iter().map(|p| p.display().to_string()).collect();
        self.0.retain(|name, _| names.contains(name));
        scanner.set_files(files);
        // Scan before resolving: newly named programs are taken in now
        // rather than as a second epoch on the next tick.
        if let Ok(delta) = scanner.scan() {
            crate::serve::log_delta(log, &delta);
            self.take(delta);
        }
        manifest.resolve_with(|program| self.get(&base_dir.join(program)).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchInput;
    use p4bid_typeck::CheckOptions;

    /// A pass-through program writing only its `high` field: accepted at
    /// any two-point ambient pc.
    const FWD: &str = "control F(inout <bit<8>, high> x) { apply { x = x + 8w1; } }";
    /// A program writing a `low` field: accepted at ambient bottom,
    /// rejected (implicit flow) once the seed climbs to `high`.
    const LOW_WRITER: &str = "control L(inout <bit<8>, low> y) { apply { y = y + 8w1; } }";

    fn topo_from(manifest: &str, progs: &[(&str, &str)]) -> Topology {
        TopoManifest::parse(manifest)
            .unwrap()
            .resolve_with(|path| {
                progs
                    .iter()
                    .find(|(p, _)| *p == path)
                    .map(|(_, src)| (*src).to_string())
                    .ok_or_else(|| format!("no such program {path}"))
            })
            .unwrap()
    }

    #[test]
    fn manifest_parses_switches_links_and_labels() {
        let m = TopoManifest::parse(
            r#"
            lattice = "low < high"

            [switch a]
            program = "a.p4"
            ingress = "high"
            declassify = true

            [link a:p1 -> b:p1]
            contract = "low"

            [switch b]
            program = "b.p4"
            pc = "low"
            "#,
        )
        .unwrap();
        let layout = m.layout.as_ref().unwrap();
        let lat = &layout.lattice;
        assert_eq!(m.programs, [("a.p4".to_string(), 4), ("b.p4".to_string(), 12)]);
        assert_eq!(layout.switches.len(), 2);
        assert_eq!(layout.links.len(), 1);
        assert_eq!(layout.switches[0].ingress, lat.label("high").unwrap());
        assert_eq!(layout.switches[0].declassify, Some(true));
        assert_eq!(layout.switches[1].pc, lat.label("low"));
        let link = &layout.links[0];
        assert_eq!((link.from, link.from_port.as_str(), link.to), (0, "p1", 1));
        assert_eq!(link.contract, lat.label("low").unwrap());
    }

    #[test]
    fn manifest_errors_carry_line_numbers() {
        let e = TopoManifest::parse("[switch a\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unterminated"), "{e}");
        let e = TopoManifest::parse("[frob a]\n").unwrap_err();
        assert!(e.message.contains("unknown section"), "{e}");
        let e = TopoManifest::parse("[link a -> b]\n").unwrap_err();
        assert!(e.message.contains("switch:port"), "{e}");
        let e = TopoManifest::parse("[switch a]\nprogram = \"a.p4\"\nfrob = 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown switch key"), "{e}");
        let e = TopoManifest::parse("pc = \"high\"\n").unwrap_err();
        assert!(e.message.contains("before the first section"), "{e}");
        let e = TopoManifest::parse("[switch a]\n").unwrap_err();
        assert!(e.message.contains("no `program`"), "{e}");
        let e =
            TopoManifest::parse("[switch a]\nprogram = \"a.p4\"\ndeclassify = yes\n").unwrap_err();
        assert!(e.message.contains("true"), "{e}");
    }

    #[test]
    fn assembly_rejects_structural_mistakes() {
        // Dangling port: the link names an undeclared switch.
        let m = TopoManifest::parse("[switch a]\nprogram = \"a.p4\"\n[link a:p1 -> ghost:p1]\n")
            .unwrap();
        let e = m.resolve_with(|_| Ok(FWD.to_string())).unwrap_err();
        assert!(e.message.contains("unknown switch `ghost`"), "{e}");
        // Duplicate switch.
        let m =
            TopoManifest::parse("[switch a]\nprogram = \"a.p4\"\n[switch a]\nprogram = \"b.p4\"\n")
                .unwrap();
        let e = m.resolve_with(|_| Ok(FWD.to_string())).unwrap_err();
        assert!(e.message.contains("duplicate switch"), "{e}");
        // Unknown boundary label.
        let m = TopoManifest::parse("[switch a]\nprogram = \"a.p4\"\ningress = \"mid\"\n").unwrap();
        let e = m.resolve_with(|_| Ok(FWD.to_string())).unwrap_err();
        assert!(e.message.contains("not in the boundary lattice"), "{e}");
        // Double-wired ingress port.
        let m = TopoManifest::parse(
            "[switch a]\nprogram = \"a.p4\"\n[switch b]\nprogram = \"b.p4\"\n\
             [link a:p1 -> b:p1]\n[link a:p2 -> b:p1]\n",
        )
        .unwrap();
        let e = m.resolve_with(|_| Ok(FWD.to_string())).unwrap_err();
        assert!(e.message.contains("already wired"), "{e}");
    }

    /// Which structural mistake a manifest reports when it holds several:
    /// loader failures first, then an empty topology, then the switches in
    /// order (a duplicate name, then the ingress, egress and `pc` labels),
    /// then the links in order (the upstream switch, the downstream
    /// switch, the contract label, then the earliest earlier link sharing
    /// a port, its egress port before its ingress port).
    #[test]
    fn structural_errors_keep_their_order() {
        let first_error = |manifest: &str, fail: &str| {
            TopoManifest::parse(manifest)
                .unwrap()
                .resolve_with(|path| {
                    if path == fail {
                        Err(format!("cannot read {path}"))
                    } else {
                        Ok(FWD.to_string())
                    }
                })
                .unwrap_err()
        };
        let err = |line, message: &str| TopoError::at(line, message);
        let switches = "[switch a]\nprogram = \"a.p4\"\n\
                        [switch b]\nprogram = \"b.p4\"\n\
                        [switch c]\nprogram = \"c.p4\"\n";
        // Lines 7-9: a link sharing its ingress port with one earlier link
        // and its egress port with another. The earliest such link wins.
        let ingress_first = format!("{switches}[link c:p1 -> b:p1]\n[link a:p1 -> c:p1]\n");
        assert_eq!(
            first_error(&format!("{ingress_first}[link a:p1 -> b:p1]\n"), ""),
            err(9, "ingress port `b:p1` is already wired")
        );
        let egress_first = format!("{switches}[link a:p1 -> c:p1]\n[link c:p1 -> b:p1]\n");
        assert_eq!(
            first_error(&format!("{egress_first}[link a:p1 -> b:p1]\n"), ""),
            err(9, "egress port `a:p1` is already wired")
        );
        // One earlier link sharing both ports: egress before ingress.
        assert_eq!(
            first_error(&format!("{switches}[link a:p1 -> b:p1]\n[link a:p1 -> b:p1]\n"), ""),
            err(8, "egress port `a:p1` is already wired")
        );
        // Every switch is validated before any link, whatever the file
        // order.
        let dup_then_dangling =
            format!("{switches}[switch a]\nprogram = \"d.p4\"\n[link a:p1 -> ghost:p1]\n");
        assert_eq!(first_error(&dup_then_dangling, ""), err(7, "duplicate switch `a`"));
        let dangling_then_dup =
            format!("[link a:p1 -> ghost:p1]\n{switches}[switch a]\nprogram = \"d.p4\"\n");
        assert_eq!(first_error(&dangling_then_dup, ""), err(8, "duplicate switch `a`"));
        // A loader failure comes before any structural mistake, and the
        // first failing switch is the one reported.
        assert_eq!(first_error(&dup_then_dangling, "b.p4"), err(3, "cannot read b.p4"));
        assert_eq!(first_error(&dup_then_dangling, "d.p4"), err(7, "cannot read d.p4"));
        // Within a switch: its name, then ingress, egress, pc.
        let labels =
            "[switch a]\nprogram = \"a.p4\"\npc = \"x\"\negress = \"y\"\ningress = \"z\"\n\
                      [switch a]\nprogram = \"b.p4\"\n";
        assert_eq!(
            first_error(labels, ""),
            err(1, "ingress label `z` is not in the boundary lattice")
        );
        let labels = "[switch a]\nprogram = \"a.p4\"\npc = \"x\"\negress = \"y\"\n";
        assert_eq!(
            first_error(labels, ""),
            err(1, "egress label `y` is not in the boundary lattice")
        );
        // Within a link: upstream, downstream, contract, then ports.
        let link = format!("{switches}[link a:p1 -> b:p1]\n[link ghost:p1 -> phantom:p1]\n");
        assert_eq!(first_error(&link, ""), err(8, "link references unknown switch `ghost`"));
        let link = format!("{switches}[link a:p1 -> b:p1]\n[link a:p1 -> phantom:p1]\n");
        assert_eq!(first_error(&link, ""), err(8, "link references unknown switch `phantom`"));
        let link =
            format!("{switches}[link a:p1 -> b:p1]\n[link a:p1 -> b:p1]\ncontract = \"mid\"\n");
        assert_eq!(
            first_error(&link, ""),
            err(8, "contract label `mid` is not in the boundary lattice")
        );
        // An empty topology, even after a loader that never ran.
        assert_eq!(
            first_error("lattice = \"low < high\"\n", ""),
            err(0, "a topology needs at least one `[switch NAME]`")
        );
    }

    #[test]
    fn labels_propagate_downstream_and_reject_low_writers() {
        // a (ingress high) -> b: b's low write becomes an implicit flow
        // under the seeded pc.
        let topo = topo_from(
            "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\n\
             [switch b]\nprogram = \"b.p4\"\n[link a:p1 -> b:p1]\n",
            &[("a.p4", FWD), ("b.p4", LOW_WRITER)],
        );
        let report = check_topology(&topo, &CheckOptions::ifc(), 2);
        assert!(report.switches[0].verdict.accepted);
        assert!(!report.switches[1].verdict.accepted, "{}", report.render_table());
        assert_eq!(report.switches[1].verdict.diagnostics[0].code, "E-IMPLICIT-FLOW");
        assert_eq!(report.switches[1].ingress, "high");
        assert_eq!(report.rounds, 2);
        // Without the seed, the same program is fine.
        let calm = topo_from(
            "[switch a]\nprogram = \"a.p4\"\n\
             [switch b]\nprogram = \"b.p4\"\n[link a:p1 -> b:p1]\n",
            &[("a.p4", FWD), ("b.p4", LOW_WRITER)],
        );
        assert!(check_topology(&calm, &CheckOptions::ifc(), 2).all_ok());
    }

    #[test]
    fn contract_breaches_carry_cross_switch_chains() {
        let topo = topo_from(
            "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\n\
             [switch b]\nprogram = \"b.p4\"\n\
             [switch c]\nprogram = \"c.p4\"\n\
             [link a:p1 -> b:p1]\n[link b:p2 -> c:p1]\ncontract = \"low\"\n",
            &[("a.p4", FWD), ("b.p4", FWD), ("c.p4", FWD)],
        );
        let report = check_topology(&topo, &CheckOptions::ifc(), 1);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::Contract);
        assert_eq!(v.at, "b:p2 -> c:p1");
        assert_eq!(v.label, "high");
        assert_eq!(v.bound, "low");
        assert_eq!(
            v.chain,
            "`a` (high) --egress p1--> `b` (high) --egress p2--> `c` (contract low)"
        );
        assert!(!report.all_ok());
    }

    #[test]
    fn egress_downgrades_need_the_declassify_grant() {
        let manifest = |declassify: &str| {
            format!(
                "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\negress = \"low\"\n{declassify}\
                 [switch b]\nprogram = \"b.p4\"\n[link a:p1 -> b:p1]\ncontract = \"low\"\n"
            )
        };
        // Without the grant: refused downgrade, conservative label
        // propagates, and both the downgrade and the contract report.
        let topo = topo_from(&manifest(""), &[("a.p4", FWD), ("b.p4", LOW_WRITER)]);
        let report = check_topology(&topo, &CheckOptions::ifc(), 2);
        assert_eq!(report.switches[0].egress, "high");
        let kinds: Vec<_> = report.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::Contract), "{kinds:?}");
        assert!(kinds.contains(&ViolationKind::Downgrade), "{kinds:?}");
        let down = report.violations.iter().find(|v| v.kind == ViolationKind::Downgrade).unwrap();
        assert_eq!(down.chain, "`a` (high) --declared egress--> `low` (needs declassify)");
        // With the grant: the declared egress holds and the wire is clean.
        let topo =
            topo_from(&manifest("declassify = true\n"), &[("a.p4", FWD), ("b.p4", LOW_WRITER)]);
        let report = check_topology(&topo, &CheckOptions::ifc(), 2);
        assert_eq!(report.switches[0].egress, "low");
        assert!(report.all_ok(), "{}", report.render_table());
    }

    #[test]
    fn cycles_stabilize_within_the_round_bound() {
        let topo = topo_from(
            "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\n\
             [switch b]\nprogram = \"b.p4\"\n\
             [link a:p1 -> b:p1]\n[link b:p2 -> a:p1]\n",
            &[("a.p4", FWD), ("b.p4", FWD)],
        );
        let report = check_topology(&topo, &CheckOptions::ifc(), 2);
        assert!(report.rounds <= 2 * topo.lattice().len() as u64 + 2);
        assert_eq!(report.switches[0].ingress, "high");
        assert_eq!(report.switches[1].ingress, "high");
        assert!(report.all_ok());
    }

    #[test]
    fn pc_floor_rejects_understated_annotations() {
        let annotated = "@pc(low) control L(inout <bit<8>, low> y) { apply { y = y + 8w1; } }";
        let topo = topo_from(
            "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\n\
             [switch b]\nprogram = \"b.p4\"\n[link a:p1 -> b:p1]\n",
            &[("a.p4", FWD), ("b.p4", annotated)],
        );
        let report = check_topology(&topo, &CheckOptions::ifc(), 1);
        assert!(!report.switches[1].verdict.accepted);
        assert_eq!(report.switches[1].verdict.diagnostics[0].code, "E-PC-FLOOR");
    }

    #[test]
    fn reports_are_byte_identical_across_jobs_and_runs() {
        let topo = topo_from(
            "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\negress = \"low\"\n\
             [switch b]\nprogram = \"b.p4\"\n\
             [switch c]\nprogram = \"c.p4\"\n\
             [link a:p1 -> b:p1]\ncontract = \"low\"\n[link b:p2 -> c:p1]\n",
            &[("a.p4", FWD), ("b.p4", LOW_WRITER), ("c.p4", LOW_WRITER)],
        );
        let baseline = check_topology(&topo, &CheckOptions::ifc(), 1);
        for jobs in [1, 2, 8] {
            let r = check_topology(&topo, &CheckOptions::ifc(), jobs);
            assert_eq!(r.to_json(), baseline.to_json(), "jobs={jobs}");
            assert_eq!(r.render_table(), baseline.render_table(), "jobs={jobs}");
        }
    }

    #[test]
    fn second_epoch_is_all_cache_hits() {
        let topo = topo_from(
            "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\n\
             [switch b]\nprogram = \"b.p4\"\n[link a:p1 -> b:p1]\n",
            &[("a.p4", FWD), ("b.p4", FWD)],
        );
        let mut engine = TopoEngine::new(topo, CheckOptions::ifc(), 2);
        let first = engine.run_epoch();
        assert!(first.switch_rechecks > 0);
        let second = engine.run_epoch();
        assert_eq!(second.switch_rechecks, 0, "unchanged topology re-checks nothing");
        assert_eq!(second.rounds, first.rounds);
        // Verdicts and labels replay bit-for-bit; only the recheck
        // counter records that the cache did the work.
        assert_eq!(second.as_batch_report().to_json(), first.as_batch_report().to_json());
        assert_eq!(engine.epochs(), 2);
    }

    #[test]
    fn edited_switch_rechecks_only_its_downstream_cone() {
        let manifest = "[switch a]\nprogram = \"a.p4\"\n\
                        [switch b]\nprogram = \"b.p4\"\ningress = \"high\"\n\
                        [switch c]\nprogram = \"c.p4\"\n\
                        [link b:p1 -> c:p1]\n";
        let progs = [("a.p4", FWD), ("b.p4", FWD), ("c.p4", FWD)];
        let mut engine = TopoEngine::new(topo_from(manifest, &progs), CheckOptions::ifc(), 2);
        engine.run_epoch();
        // Edit only `a` (no downstream links): exactly one recheck.
        let edited = [
            ("a.p4", "control F(inout <bit<8>, high> x) { apply { x = x + 8w2; } }"),
            ("b.p4", FWD),
            ("c.p4", FWD),
        ];
        engine.set_topology(topo_from(manifest, &edited));
        let report = engine.run_epoch();
        assert_eq!(report.switch_rechecks, 1, "only the edited switch re-checks");
    }

    #[test]
    fn verdict_cache_stays_within_its_topology_bound() {
        // A long watch session: 1000 single-switch edits (each a fresh
        // body), with a leak-then-revert pair every 100 edits. The cache
        // must never outgrow two epochs' worth of (source, ingress) pairs,
        // and that bound must still keep every revert a pure cache replay.
        let manifest = "[switch a]\nprogram = \"a.p4\"\ningress = \"high\"\n\
                        [switch b]\nprogram = \"b.p4\"\n\
                        [switch c]\nprogram = \"c.p4\"\n\
                        [switch d]\nprogram = \"d.p4\"\n\
                        [link a:p1 -> b:p1]\n[link b:p2 -> c:p1]\n";
        let fwd = |n: usize| {
            format!("control F(inout <bit<32>, high> x) {{ apply {{ x = x + 32w{n}; }} }}")
        };
        let leak =
            "control L(inout <bit<32>, low> l, inout <bit<32>, high> h) { apply { l = h; } }";
        let topo_of = |progs: &[String]| {
            let named: Vec<(&str, &str)> = ["a.p4", "b.p4", "c.p4", "d.p4"]
                .into_iter()
                .zip(progs.iter().map(String::as_str))
                .collect();
            topo_from(manifest, &named)
        };
        let mut progs: Vec<String> = (0..4).map(fwd).collect();
        let mut engine = TopoEngine::new(topo_of(&progs), CheckOptions::ifc(), 1);
        let bound = cache_bound(engine.topology());
        // An epoch checks each of the 4 switches once, at its final
        // ingress label: two epochs' worth is 2 x 4 pairs.
        assert_eq!(bound, 2 * 4, "2 x switches");
        engine.run_epoch();
        let mut reverts = 0;
        for edit in 0..1000 {
            let sw = edit % 4;
            if edit % 100 == 50 {
                let kept = std::mem::replace(&mut progs[sw], leak.to_string());
                engine.set_topology(topo_of(&progs));
                let leaked = engine.run_epoch();
                assert!(!leaked.switches[sw].verdict.accepted, "edit {edit}");
                assert!(engine.engine.cache().len() <= bound, "edit {edit}");
                progs[sw] = kept;
                engine.set_topology(topo_of(&progs));
                let reverted = engine.run_epoch();
                assert!(reverted.all_ok(), "edit {edit}");
                assert_eq!(
                    reverted.switch_rechecks, 0,
                    "the revert at edit {edit} re-checks nothing"
                );
                reverts += 1;
            } else {
                progs[sw] = fwd(4 + edit);
                engine.set_topology(topo_of(&progs));
                assert!(engine.run_epoch().switch_rechecks >= 1, "edit {edit}");
            }
            assert!(engine.engine.cache().len() <= bound, "edit {edit}");
        }
        assert_eq!(reverts, 10);
        assert_eq!(engine.engine.cache().len(), bound, "the cache filled and evicted");
    }

    #[test]
    fn single_switch_report_matches_batch_bytes() {
        let topo = topo_from(
            "[switch leak.p4]\nprogram = \"leak.p4\"\n",
            &[(
                "leak.p4",
                "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
            )],
        );
        let report = check_topology(&topo, &CheckOptions::ifc(), 2);
        let inputs = vec![BatchInput::new("leak.p4", topo.sources()[0].clone())];
        let batch = crate::batch::check_batch(&inputs, &CheckOptions::ifc(), 2);
        assert_eq!(report.as_batch_report().to_json(), batch.to_json());
        assert_eq!(report.as_batch_report().render_table(), batch.render_table());
    }

    #[test]
    fn doc_shapes_render() {
        let topo = topo_from("[switch a]\nprogram = \"a.p4\"\n", &[("a.p4", FWD)]);
        let report = check_topology(&topo, &CheckOptions::ifc(), 1);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"p4bid-topo-report/1\""), "{json}");
        assert!(json.contains("\"rounds\": 1"), "{json}");
        assert!(json.contains("\"violations\""), "{json}");
        let table = report.render_table();
        assert!(table.contains("1 switch(es): 1 accepted, 0 rejected"), "{table}");
        assert!(table.contains("fixpoint: 1 round(s), 1 recheck(s)"), "{table}");
    }
}
