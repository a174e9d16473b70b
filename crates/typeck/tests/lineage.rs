//! Flow-lineage "explain" diagnostics: every security rejection carries
//! the source→sink path the checker walked, rendered as a chain, and
//! accepted programs keep their full lineage graph for auditing.

use p4bid_typeck::{check_source, CheckOptions, DiagCode, FlowOp};

const LEAK: &str = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
                    { apply { l = h; } }";

#[test]
fn explicit_flows_explain_the_offending_edge() {
    let errs = check_source(LEAK, &CheckOptions::ifc()).unwrap_err();
    let d = &errs[0];
    assert_eq!(d.code, DiagCode::ExplicitFlow);
    assert_eq!(d.lineage.len(), 1);
    let edge = &d.lineage[0];
    assert_eq!(edge.op, FlowOp::Assign);
    assert_eq!(edge.source.what, "h");
    assert_eq!(edge.sink.what, "l");
    let chain = d.lineage_chain().unwrap();
    assert_eq!(chain, "`h` (high) --assign--> `l` (low)");
    assert!(d.to_string().contains("flow: `h` (high) --assign--> `l` (low)"), "{d}");
}

#[test]
fn multi_hop_chains_name_every_intermediate() {
    let src = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {\n\
               \x20   apply {\n\
               \x20       <bit<8>, high> x = h;\n\
               \x20       <bit<8>, high> y = x;\n\
               \x20       l = y;\n\
               \x20   }\n\
               }\n";
    let errs = check_source(src, &CheckOptions::ifc()).unwrap_err();
    let chain = errs[0].lineage_chain().unwrap();
    assert_eq!(chain, "`h` (high) --init--> `x` (high) --init--> `y` (high) --assign--> `l` (low)");
}

#[test]
fn implicit_flows_blame_the_guard() {
    let src = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) {\n\
               \x20   apply {\n\
               \x20       if (h == 8w0) {\n\
               \x20           l = 8w1;\n\
               \x20       }\n\
               \x20   }\n\
               }\n";
    let errs = check_source(src, &CheckOptions::ifc()).unwrap_err();
    assert_eq!(errs[0].code, DiagCode::ImplicitFlow);
    let chain = errs[0].lineage_chain().unwrap();
    assert_eq!(chain, "`h == 8w0` (high) --guard-pc--> `l` (low)");
}

#[test]
fn declassify_is_forbidden_by_default_and_granted_by_options() {
    let src = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
               { apply { l = declassify(h); } }";
    let errs = check_source(src, &CheckOptions::ifc()).unwrap_err();
    assert_eq!(errs[0].code, DiagCode::DeclassifyForbidden);
    assert_eq!(errs[0].lineage[0].op, FlowOp::Declassify);

    let typed = check_source(src, &CheckOptions::ifc().with_declassify(true)).unwrap();
    // The grant keeps the audit trail: the declassification edge is in
    // the program's lineage graph even though nothing was rejected.
    assert!(typed.lineage.edges().iter().any(|e| e.op == FlowOp::Declassify));
}

#[test]
fn user_definitions_shadow_the_declassify_builtin() {
    // A user function named `declassify` is an ordinary call, with
    // ordinary label propagation — so the leak is an explicit flow, not
    // a declassification.
    let src = "function bit<8> declassify(in bit<8> x) { return x; }\n\
               control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
               { apply { l = declassify(h); } }";
    let errs = check_source(src, &CheckOptions::ifc()).unwrap_err();
    assert_eq!(errs[0].code, DiagCode::ExplicitFlow);
}

#[test]
fn lineage_off_leaves_diagnostics_bare() {
    let errs = check_source(LEAK, &CheckOptions::ifc().with_lineage(false)).unwrap_err();
    assert_eq!(errs[0].code, DiagCode::ExplicitFlow);
    assert!(errs[0].lineage.is_empty());
    assert!(errs[0].lineage_chain().is_none());
    assert!(!errs[0].to_string().contains("\n  flow:"));
}

#[test]
fn accepted_programs_keep_their_lineage_graph() {
    let src = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
               { apply { h = l; } }";
    let typed = check_source(src, &CheckOptions::ifc()).unwrap();
    let low = typed.lattice.label("low").unwrap();
    let high = typed.lattice.label("high").unwrap();
    let edges = typed.lineage.edges();
    assert!(
        edges.iter().any(|e| e.op == FlowOp::Assign && e.src_label == low && e.sink_label == high),
        "{edges:?}"
    );
    // Base mode never records: there are no labels to explain.
    let base = check_source(src, &CheckOptions::base()).unwrap();
    assert!(base.lineage.edges().is_empty());
}

#[test]
fn lineage_never_crosses_a_control_boundary() {
    // `A` writes its own parameter `s`; `B`'s `s` is another variable, so
    // `B`'s leak must not be explained through `A`'s assignment.
    let src = "header h_t { <bit<8>, high> f; <bit<8>, low> g; }\n\
               struct hs { h_t h; }\n\
               control A(inout hs s) { apply { s.h.f = s.h.f + 8w1; } }\n\
               control B(inout hs s) { apply { s.h.g = s.h.f; } }";
    let errs = check_source(src, &CheckOptions::ifc()).unwrap_err();
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].code, DiagCode::ExplicitFlow);
    assert_eq!(errs[0].lineage_chain().unwrap(), "`s.h.f` (high) --assign--> `s.h.g` (low)");
}
