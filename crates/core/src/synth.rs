//! Synthetic program generation: programs with `n` match-action
//! table/action pairs, in annotated and unannotated forms, all accepted
//! by both checkers. They feed `p4bid batch --synthetic`, the
//! `corpus-cold` benchmark workload and the differential tests.

use std::fmt::Write as _;

/// Generates a well-typed program with `n` tables (and `n` actions, plus a
/// pipeline applying them all). With `annotated = true` the fields carry a
/// low/high split and the actions exercise the flow rules; with `false`
/// the program is the plain baseline form.
#[must_use]
pub fn synth_program(n: usize, annotated: bool) -> String {
    let mut src = String::new();
    let (lo, hi) =
        if annotated { ("<bit<32>, low> ", "<bit<32>, high> ") } else { ("bit<32> ", "bit<32> ") };

    src.push_str("header state_t {\n");
    let _ = writeln!(src, "    {lo}pub0;");
    let _ = writeln!(src, "    {lo}pub1;");
    let _ = writeln!(src, "    {hi}sec0;");
    let _ = writeln!(src, "    {hi}sec1;");
    src.push_str("}\nstruct headers { state_t st; }\n");

    src.push_str("control Synth(inout headers hdr, inout standard_metadata_t meta) {\n");
    for i in 0..n {
        // Even actions shuffle public state; odd actions fold public data
        // into secret state (always legal: low ⊑ high).
        if i % 2 == 0 {
            let arg = if annotated { "<bit<32>, low> v" } else { "bit<32> v" };
            let _ = writeln!(
                src,
                "    action act{i}({arg}) {{\n        hdr.st.pub0 = hdr.st.pub1 + v;\n        hdr.st.pub1 = hdr.st.pub0 ^ 32w{i};\n    }}"
            );
        } else {
            let arg = if annotated { "<bit<32>, high> v" } else { "bit<32> v" };
            let _ = writeln!(
                src,
                "    action act{i}({arg}) {{\n        hdr.st.sec0 = hdr.st.sec1 + v;\n        hdr.st.sec1 = (hdr.st.sec0 ^ hdr.st.pub0) + 32w{i};\n    }}"
            );
        }
        let _ = writeln!(
            src,
            "    table tbl{i} {{\n        key = {{ hdr.st.pub0: exact; }}\n        actions = {{ act{i}; NoAction; }}\n        default_action = NoAction;\n    }}"
        );
    }
    src.push_str("    apply {\n");
    for i in 0..n {
        if i % 3 == 0 {
            let _ = writeln!(src, "        tbl{i}.apply();");
        } else {
            let _ = writeln!(src, "        if (hdr.st.pub1 == 32w{i}) {{ tbl{i}.apply(); }}");
        }
    }
    src.push_str("    }\n}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_typeck::{check_source, CheckOptions};

    #[test]
    fn synthetic_programs_check_in_both_modes() {
        for n in [0, 1, 2, 7, 16] {
            let annotated = synth_program(n, true);
            check_source(&annotated, &CheckOptions::ifc())
                .unwrap_or_else(|e| panic!("ifc n={n}: {e:?}\n{annotated}"));
            let plain = synth_program(n, false);
            check_source(&plain, &CheckOptions::base())
                .unwrap_or_else(|e| panic!("base n={n}: {e:?}\n{plain}"));
        }
    }

    #[test]
    fn size_scales_with_n() {
        let small = synth_program(2, true);
        let large = synth_program(64, true);
        assert!(large.len() > 10 * small.len());
    }

    #[test]
    fn annotated_and_plain_differ_only_in_labels() {
        let a = synth_program(3, true);
        let p = synth_program(3, false);
        assert!(a.contains("high"));
        assert!(!p.contains("high"));
    }
}
