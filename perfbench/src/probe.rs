//! The per-program layer probe of the traced run. It re-runs one op's
//! program through each layer's public function in turn — `lex`,
//! `item_segments`, `parse_tokens`, `check_parsed` with lineage on and
//! off, and the full `CheckerSession::check` — each inside its own span,
//! under a `probe` root that is kept apart from the op's own time.

use crate::trace::{thread_allocs, Tracer};
use p4bid::{CheckOptions, SharedSessionCore};
use std::hint::black_box;

/// Cores the probe checks through, plus what it has counted.
pub struct Probe {
    /// `check_parsed` with lineage on (the default options).
    ifc: SharedSessionCore,
    /// `check_parsed` with lineage off; the difference is lineage cost.
    no_lineage: SharedSessionCore,
    /// Source bytes probed.
    pub bytes: u64,
    /// Allocations made by the probed full checks.
    pub allocs: u64,
    /// Programs probed.
    pub programs: u64,
}

impl Probe {
    /// A probe with its own cold cores.
    #[must_use]
    pub fn new() -> Self {
        Probe {
            ifc: SharedSessionCore::new(CheckOptions::ifc()),
            no_lineage: SharedSessionCore::new(CheckOptions::ifc().with_lineage(false)),
            bytes: 0,
            allocs: 0,
            programs: 0,
        }
    }

    /// Probes `source`. The full check runs on a fresh session of
    /// `check_core`, the core whose prefix-snapshot state matches the op's
    /// (a cold core for fresh programs, a primed one for edits).
    pub fn run(&mut self, tr: &mut Tracer, source: &str, check_core: &SharedSessionCore) {
        let root = tr.begin("probe");
        let Ok(tokens) = tr.time("syntax.lex", || p4bid_syntax::lex(source)) else {
            tr.end(root);
            return;
        };
        black_box(tr.time("syntax.item_segments", || p4bid_syntax::item_segments(source, &tokens)));
        let Ok(program) =
            tr.time("syntax.parse_tokens", || p4bid_syntax::parse_tokens(source, &tokens))
        else {
            tr.end(root);
            return;
        };
        let again = program.clone();
        let mut session = self.ifc.session();
        black_box(tr.time("typeck.check_parsed", || session.check_parsed(program)).is_ok());
        let mut session = self.no_lineage.session();
        black_box(
            tr.time("typeck.check_parsed_no_lineage", || session.check_parsed(again)).is_ok(),
        );
        let mut session = check_core.session();
        let id = tr.begin("typeck.check");
        let before = thread_allocs();
        black_box(session.check(source).is_ok());
        self.allocs += thread_allocs() - before;
        tr.end(id);
        self.bytes += source.len() as u64;
        self.programs += 1;
        tr.end(root);
    }
}

impl Probe {
    /// Adds the probe's counts to an episode's outcome, per op.
    pub fn report(&self, out: &mut crate::Outcome) {
        let ops = out.ops.max(1) as f64;
        out.count("typeck.allocs", self.allocs as f64);
        out.layer.insert("typeck.allocs_per_op", self.allocs as f64 / ops);
        out.layer.insert("syntax.bytes_per_op", self.bytes as f64 / ops);
    }
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}
