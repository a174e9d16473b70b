//! Evaluation reports: Table 1 (typechecking times) and the case-study
//! accept/reject matrix of §5.
//!
//! [`measure_table1`] is the one Table 1 measurement; `p4bid table1`
//! prints it next to the paper's figures, and `p4bid matrix` prints the
//! case-study matrix. Every timed program is asserted to typecheck, so
//! the reported numbers always come from programs that actually parse and
//! check.

use crate::corpus::{case_studies, CaseStudy};
use crate::strip::strip_annotations_source;
use p4bid_typeck::{check_source, CheckOptions, DiagCode};
use std::time::Instant;

/// One row of Table 1: typechecking time for the unannotated program under
/// the baseline checker vs the annotated program under P4BID.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Program name.
    pub program: String,
    /// Baseline ("unannotated, p4c") time in milliseconds.
    pub base_ms: f64,
    /// P4BID ("annotated") time in milliseconds.
    pub ifc_ms: f64,
    /// Baseline checker on the *annotated* source, in milliseconds.
    /// Comparing this against `ifc_ms` isolates the cost of the IFC
    /// analysis from source-length effects (the paper's two columns, like
    /// ours, parse different texts).
    pub base_on_annotated_ms: f64,
}

impl Table1Row {
    /// Relative overhead of the IFC checker over the baseline, in percent
    /// (the paper's comparison: different sources, different checkers).
    #[must_use]
    pub fn overhead_percent(&self) -> f64 {
        if self.base_ms == 0.0 {
            0.0
        } else {
            (self.ifc_ms - self.base_ms) / self.base_ms * 100.0
        }
    }

    /// Relative cost of the IFC analysis on identical input, in percent
    /// (same annotated source, baseline vs IFC mode).
    #[must_use]
    pub fn isolated_overhead_percent(&self) -> f64 {
        if self.base_on_annotated_ms == 0.0 {
            0.0
        } else {
            (self.ifc_ms - self.base_on_annotated_ms) / self.base_on_annotated_ms * 100.0
        }
    }
}

/// The unannotated baseline source of a case study (derived mechanically
/// from the secure annotated form).
///
/// # Panics
///
/// Panics if the corpus source does not parse (corpus bug, covered by
/// tests).
#[must_use]
pub fn unannotated_source(cs: &CaseStudy) -> String {
    let program = p4bid_syntax::parse(cs.secure).expect("corpus programs parse");
    strip_annotations_source(&program)
}

/// Parse+check time of `source` under `opts`, in milliseconds.
fn time_check(source: &str, opts: &CheckOptions) -> f64 {
    let start = Instant::now();
    let result = check_source(source, opts);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    assert!(result.is_ok(), "timed program must typecheck");
    elapsed
}

/// Measures Table 1: for each of the five paper programs, `iters` rounds
/// (at least one) that each time, back to back, the unannotated source
/// under the baseline checker, the annotated (secure) source under the IFC
/// checker, and the annotated source under the baseline checker. Each
/// column keeps its minimum. Interleaving the three puts host noise on
/// all of them alike, and the minimum discards it.
#[must_use]
pub fn measure_table1(iters: u64) -> Vec<Table1Row> {
    let (base, ifc) = (CheckOptions::base(), CheckOptions::ifc());
    let mut rows = Vec::new();
    for cs in case_studies().iter().filter(|c| c.name != "NetChain") {
        let plain = unannotated_source(cs);
        let mut row = Table1Row {
            program: cs.name.to_string(),
            base_ms: f64::INFINITY,
            ifc_ms: f64::INFINITY,
            base_on_annotated_ms: f64::INFINITY,
        };
        for _ in 0..iters.max(1) {
            row.base_ms = row.base_ms.min(time_check(&plain, &base));
            row.ifc_ms = row.ifc_ms.min(time_check(cs.secure, &ifc));
            row.base_on_annotated_ms = row.base_on_annotated_ms.min(time_check(cs.secure, &base));
        }
        rows.push(row);
    }
    let n = rows.len() as f64;
    rows.push(Table1Row {
        program: "Average".to_string(),
        base_ms: rows.iter().map(|r| r.base_ms).sum::<f64>() / n,
        ifc_ms: rows.iter().map(|r| r.ifc_ms).sum::<f64>() / n,
        base_on_annotated_ms: rows.iter().map(|r| r.base_on_annotated_ms).sum::<f64>() / n,
    });
    rows
}

/// The paper's Table 1: milliseconds for stock p4c on the unannotated
/// program and for the authors' patched p4c on the annotated one, on the
/// authors' machine.
const PAPER_TABLE1: &[(&str, f64, f64)] = &[
    ("D2R", 534.0, 599.0),
    ("App", 593.0, 600.0),
    ("Lattice", 495.0, 527.0),
    ("Topology", 554.0, 591.0),
    ("Cache", 538.0, 550.0),
    ("Average", 543.0, 573.0),
];

/// Renders Table 1 in the paper's layout, with the paper's own overhead
/// for each row in the last column.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 1. Typechecking time in milliseconds.\n");
    out.push_str(&format!(
        "{:<10} {:>18} {:>18} {:>10} {:>10} {:>10}\n",
        "Program", "Unannotated, base", "Annotated, P4BID", "Overhead", "IFC-only", "Paper"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>18.3} {:>18.3} {:>9.1}% {:>9.1}%",
            r.program,
            r.base_ms,
            r.ifc_ms,
            r.overhead_percent(),
            r.isolated_overhead_percent(),
        ));
        if let Some((_, base, ifc)) = PAPER_TABLE1.iter().find(|(name, ..)| *name == r.program) {
            out.push_str(&format!(" {:>9.1}%", (ifc - base) / base * 100.0));
        }
        out.push('\n');
    }
    out
}

/// One row of the case-study accept/reject matrix (the qualitative results
/// of §5: every secure variant typechecks, every insecure variant is
/// rejected with the expected diagnostic class).
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Case-study name.
    pub name: String,
    /// Paper section.
    pub section: String,
    /// Whether the secure variant was accepted.
    pub secure_accepted: bool,
    /// Whether the insecure variant was rejected.
    pub insecure_rejected: bool,
    /// Diagnostic classes the insecure variant produced.
    pub codes: Vec<DiagCode>,
    /// Whether every expected class appeared.
    pub codes_match: bool,
}

impl MatrixRow {
    /// Whether this row reproduces the paper's result.
    #[must_use]
    pub fn reproduced(&self) -> bool {
        self.secure_accepted && self.insecure_rejected && self.codes_match
    }
}

/// Checks every corpus program in both variants and reports the matrix.
#[must_use]
pub fn case_study_matrix() -> Vec<MatrixRow> {
    case_studies()
        .iter()
        .map(|cs| {
            let secure_accepted = check_source(cs.secure, &CheckOptions::ifc()).is_ok();
            let codes: Vec<DiagCode> = match check_source(cs.insecure, &CheckOptions::ifc()) {
                Ok(_) => Vec::new(),
                Err(diags) => {
                    let mut cs: Vec<DiagCode> = diags.iter().map(|d| d.code).collect();
                    cs.dedup();
                    cs
                }
            };
            let insecure_rejected = !codes.is_empty();
            let codes_match = cs.expected_codes.iter().all(|c| codes.contains(c));
            MatrixRow {
                name: cs.name.to_string(),
                section: cs.section.to_string(),
                secure_accepted,
                insecure_rejected,
                codes,
                codes_match,
            }
        })
        .collect()
}

/// Renders the case-study matrix.
#[must_use]
pub fn render_matrix(rows: &[MatrixRow]) -> String {
    let mut out = String::new();
    out.push_str("Case studies (§5): secure accepted / insecure rejected.\n");
    out.push_str(&format!(
        "{:<10} {:<28} {:>8} {:>9}  {}\n",
        "Program", "Section", "Secure", "Insecure", "Diagnostics"
    ));
    for r in rows {
        let codes = r.codes.iter().map(|c| c.ident().to_string()).collect::<Vec<_>>().join(", ");
        out.push_str(&format!(
            "{:<10} {:<28} {:>8} {:>9}  {}\n",
            r.name,
            r.section,
            if r.secure_accepted { "ok" } else { "FAIL" },
            if r.insecure_rejected { "rejected" } else { "MISSED" },
            codes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_reproduces_every_case_study() {
        for row in case_study_matrix() {
            assert!(
                row.reproduced(),
                "{} not reproduced: secure_accepted={}, insecure_rejected={}, codes={:?}",
                row.name,
                row.secure_accepted,
                row.insecure_rejected,
                row.codes
            );
        }
    }

    #[test]
    fn table1_has_the_papers_rows() {
        let rows = measure_table1(3);
        let names: Vec<&str> = rows.iter().map(|r| r.program.as_str()).collect();
        assert_eq!(names, ["D2R", "App", "Lattice", "Topology", "Cache", "Average"]);
        for r in &rows {
            assert!(r.base_ms > 0.0 && r.ifc_ms > 0.0, "{r:?}");
        }
        let rendered = render_table1(&rows);
        assert!(rendered.contains("Average"));
        assert!(rendered.contains("P4BID"));
    }

    #[test]
    fn unannotated_sources_base_check() {
        for cs in case_studies() {
            let plain = unannotated_source(&cs);
            assert!(!plain.contains("high"), "{}: {plain}", cs.name);
            check_source(&plain, &CheckOptions::base())
                .unwrap_or_else(|e| panic!("{}: {e:?}\n{plain}", cs.name));
        }
    }

    #[test]
    fn overhead_percent_math() {
        let r = Table1Row {
            program: "x".into(),
            base_ms: 100.0,
            ifc_ms: 105.0,
            base_on_annotated_ms: 101.0,
        };
        assert!((r.overhead_percent() - 5.0).abs() < 1e-9);
        assert!((r.isolated_overhead_percent() - 400.0 / 101.0).abs() < 1e-9);
        let z = Table1Row {
            program: "x".into(),
            base_ms: 0.0,
            ifc_ms: 105.0,
            base_on_annotated_ms: 0.0,
        };
        assert_eq!(z.overhead_percent(), 0.0);
        assert_eq!(z.isolated_overhead_percent(), 0.0);
    }
}
