//! Integration tests for the `p4bid` command-line tool: exit codes,
//! diagnostics on stderr, and the subcommand surface.

use std::io::Write as _;
use std::process::{Command, Output};

fn p4bid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_p4bid")).args(args).output().expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("p4bid-cli-{name}-{}.p4", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

#[test]
fn no_args_prints_usage() {
    let out = p4bid(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn check_accepts_secure_program() {
    let path = write_temp("secure", p4bid::corpus::CACHE.secure);
    let out = p4bid(&["check", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok:"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_rejects_insecure_program_with_diagnostics() {
    let path = write_temp("insecure", p4bid::corpus::CACHE.insecure);
    let out = p4bid(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E-TABLE-KEY-FLOW"), "{stderr}");
    assert!(stderr.contains('^'), "caret rendering expected: {stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_base_mode_accepts_the_leak() {
    let path = write_temp("base", p4bid::corpus::CACHE.insecure);
    let out = p4bid(&["check", path.to_str().unwrap(), "--base"]);
    assert!(out.status.success());
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_with_pc_flag() {
    let src = r#"
        lattice { bot < A; bot < B; A < top; B < top; }
        control Alice(inout <bit<32>, B> bob) { apply { bob = 32w1; } }
    "#;
    let path = write_temp("pc", src);
    let ok = p4bid(&["check", path.to_str().unwrap()]);
    assert!(ok.status.success(), "fine at the default pc = bot");
    let bad = p4bid(&["check", path.to_str().unwrap(), "--pc", "A"]);
    assert_eq!(bad.status.code(), Some(1), "rejected at pc = A");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_missing_file_is_usage_error() {
    let out = p4bid(&["check", "/nonexistent/ghost.p4"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn matrix_reports_all_six_studies() {
    let out = p4bid(&["matrix"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["D2R", "App", "Lattice", "Topology", "Cache", "NetChain"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    let rejected_rows = stdout.lines().filter(|l| l.contains("  rejected  ")).count();
    assert_eq!(rejected_rows, 6, "{stdout}");
    assert!(!stdout.contains("MISSED"));
    assert!(!stdout.contains("FAIL"));
}

#[test]
fn corpus_listing_and_variants() {
    let list = p4bid(&["corpus"]);
    assert!(list.status.success());
    assert!(String::from_utf8_lossy(&list.stdout).contains("Cache"));

    let secure = p4bid(&["corpus", "cache"]);
    assert!(
        String::from_utf8_lossy(&secure.stdout).contains("high> hit")
            || String::from_utf8_lossy(&secure.stdout).contains("high> query")
    );

    let plain = p4bid(&["corpus", "cache", "--unannotated"]);
    assert!(!String::from_utf8_lossy(&plain.stdout).contains("high"));

    let unknown = p4bid(&["corpus", "nothere"]);
    assert_eq!(unknown.status.code(), Some(2));
}

#[test]
fn ni_finds_leak_and_clean_bill() {
    // A self-contained leaky program (no table, so the empty control
    // plane in `p4bid ni` is fine).
    let leaky = write_temp(
        "ni-leak",
        "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }",
    );
    let out = p4bid(&["ni", leaky.to_str().unwrap(), "--runs", "50"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("non-interference violated"));
    let _ = std::fs::remove_file(leaky);

    let clean = write_temp(
        "ni-clean",
        "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { h = l; } }",
    );
    let out = p4bid(&["ni", clean.to_str().unwrap(), "--runs", "50"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("held"));
    let _ = std::fs::remove_file(clean);
}

#[test]
fn fuzz_subcommand_reports_counts() {
    let out = p4bid(&["fuzz", "30"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fuzzed 30 programs"), "{stdout}");
}

// ---------------------------------------------------------------------
// `p4bid batch`: exit codes, report shapes, and error handling.
// ---------------------------------------------------------------------

/// A scratch directory seeded with the given (name, source) programs.
fn batch_dir(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("p4bid-batch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create batch dir");
    for (name, source) in files {
        std::fs::write(dir.join(name), source).expect("write corpus file");
    }
    dir
}

const BATCH_OK: &str = "control C(inout bit<8> x) { apply { x = x + 8w1; } }";
const BATCH_LEAK: &str =
    "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }";

#[test]
fn batch_all_accept_exits_zero() {
    let dir = batch_dir("ok", &[("a.p4", BATCH_OK), ("b.p4", BATCH_OK)]);
    let out = p4bid(&["batch", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 program(s): 2 accepted, 0 rejected"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checked 2 program(s)"), "timing on stderr: {stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_any_reject_exits_one_with_located_diagnostics() {
    let dir = batch_dir("mixed", &[("a.p4", BATCH_OK), ("z-leak.p4", BATCH_LEAK)]);
    let out = p4bid(&["batch", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REJECT"), "{stdout}");
    assert!(stdout.contains("E-EXPLICIT-FLOW @ 1:68"), "{stdout}");
    assert!(stdout.contains("1 accepted, 1 rejected"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_stats_flag_prints_tier_sizes_and_hit_rate() {
    let out = p4bid(&["batch", "--synthetic", "12", "--jobs", "2", "--stats"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("12 program(s): 12 accepted, 0 rejected"), "{stdout}");
    // The stats block goes to stderr (like timing): it depends on
    // work-stealing order, and stdout must stay exactly the report.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("type universe: frozen"), "{stderr}");
    assert!(stderr.contains("overlay +"), "{stderr}");
    assert!(stderr.contains("frozen-segment hit rate: symbols"), "{stderr}");
    assert!(stderr.contains("push-cache hits"), "{stderr}");
    assert!(!stdout.contains("frozen-segment hit rate"), "{stdout}");
    // --json --stats: stdout parses as one JSON document, stats on stderr.
    let json = p4bid(&["batch", "--synthetic", "12", "--json", "--stats"]);
    let json_stdout = String::from_utf8_lossy(&json.stdout);
    assert!(json_stdout.trim_end().ends_with('}'), "{json_stdout}");
    assert!(!json_stdout.contains("frozen-segment hit rate"), "{json_stdout}");
    assert!(
        String::from_utf8_lossy(&json.stderr).contains("frozen-segment hit rate"),
        "{}",
        String::from_utf8_lossy(&json.stderr)
    );
    // Without the flag, no stats on either stream.
    let plain = p4bid(&["batch", "--synthetic", "12", "--jobs", "2"]);
    assert!(!String::from_utf8_lossy(&plain.stderr).contains("frozen-segment hit rate"));
}

#[test]
fn batch_and_fuzz_stats_json_schema() {
    // `--stats-json` emits one `p4bid-stats/5` document on stderr; the
    // deterministic report on stdout is untouched.
    let out = p4bid(&["batch", "--synthetic", "8", "--jobs", "2", "--stats-json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stats_line = stderr
        .lines()
        .find(|l| l.starts_with("{\"schema\": \"p4bid-stats/5\""))
        .unwrap_or_else(|| panic!("no stats document on stderr: {stderr}"));
    for needle in [
        "\"command\": \"batch\"",
        "\"workers\": ",
        "\"frozen_syms\": ",
        "\"overlay_types\": ",
        "\"sym_hit_rate\": ",
        "\"ty_intern_calls\": ",
        "\"push_cache_hits\": ",
    ] {
        assert!(stats_line.contains(needle), "{needle} missing from {stats_line}");
    }
    assert!(!stats_line.contains("\"epochs\""), "epochs is serve-only: {stats_line}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("p4bid-stats"), "stdout stays clean");

    let fuzz = p4bid(&["fuzz", "20", "--jobs", "2", "--stats-json"]);
    assert!(fuzz.status.success(), "{}", String::from_utf8_lossy(&fuzz.stderr));
    let stderr = String::from_utf8_lossy(&fuzz.stderr);
    assert!(stderr.contains("{\"schema\": \"p4bid-stats/5\", \"command\": \"fuzz\", "), "{stderr}");
}

#[test]
fn batch_json_report_schema() {
    let dir = batch_dir("json", &[("a.p4", BATCH_OK), ("z-leak.p4", BATCH_LEAK)]);
    let out = p4bid(&["batch", dir.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).expect("utf-8 JSON");
    // Schema snapshot: stable tag, per-program rows keyed by input index,
    // diagnostics with code/position/message, and the summary object.
    assert!(json.contains("\"schema\": \"p4bid-batch-report/2\""), "{json}");
    assert!(
        json.contains(
            "{\"index\": 0, \"name\": \"a.p4\", \"status\": \"accept\", \"diagnostics\": []}"
        ),
        "{json}"
    );
    assert!(
        json.contains("\"index\": 1, \"name\": \"z-leak.p4\", \"status\": \"reject\""),
        "{json}"
    );
    assert!(json.contains("\"code\": \"E-EXPLICIT-FLOW\", \"line\": 1, \"col\": 68"), "{json}");
    // `/2`: every diagnostic carries its machine-readable flow path.
    assert!(
        json.contains(
            "\"lineage\": [{\"op\": \"assign\", \
             \"source\": {\"expr\": \"h\", \"label\": \"high\", \"line\": 1, \"col\": 72}, \
             \"sink\": {\"expr\": \"l\", \"label\": \"low\", \"line\": 1, \"col\": 68}}]"
        ),
        "{json}"
    );
    assert!(
        json.contains("\"summary\": {\"total\": 2, \"accepted\": 1, \"rejected\": 1}"),
        "{json}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_policy_resolves_per_program_options() {
    let declassifying = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
                         { apply { l = declassify(h); } }";
    let dir =
        batch_dir("policy", &[("declass-a.p4", declassifying), ("plain-b.p4", declassifying)]);
    let policy = dir.join("p4bid.policy");
    std::fs::write(
        &policy,
        "# audit-approved programs may declassify\n[declass-*]\ndeclassify = true\n",
    )
    .unwrap();
    let out =
        p4bid(&["batch", dir.to_str().unwrap(), "--policy", policy.to_str().unwrap(), "--json"]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert!(json.contains("\"name\": \"declass-a.p4\", \"status\": \"accept\""), "{json}");
    assert!(json.contains("\"name\": \"plain-b.p4\", \"status\": \"reject\""), "{json}");
    assert!(json.contains("\"code\": \"E-DECLASSIFY-FORBIDDEN\""), "{json}");
    // Determinism across worker counts survives the partitioned check.
    let rerun = |jobs: &str| {
        let out = p4bid(&[
            "batch",
            dir.to_str().unwrap(),
            "--policy",
            policy.to_str().unwrap(),
            "--json",
            "--jobs",
            jobs,
        ]);
        String::from_utf8(out.stdout).expect("utf-8 JSON")
    };
    assert_eq!(rerun("1"), json);
    assert_eq!(rerun("8"), json);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_policy_honours_the_prefix_cache_cap() {
    // Ten identical programs at one worker: the first sights the control,
    // the second records it, and the other eight reuse it from the item
    // memo — unless the cap disables it.
    let src = "lattice { lo < hi; }\ncontrol C(inout <bit<8>, lo> x) { apply { x = x + 8w1; } }\n";
    let files: Vec<(String, &str)> = (0..10).map(|i| (format!("p{i}.p4"), src)).collect();
    let files: Vec<(&str, &str)> = files.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let dir = batch_dir("policy-cap", &files);
    let policy = dir.join("all.policy");
    std::fs::write(&policy, "[*]\ndeclassify = true\n").unwrap();
    let dir = dir.to_str().unwrap();
    let base = ["batch", dir, "--jobs", "1", "--stats-json"];
    for extra in [&[][..], &["--policy", policy.to_str().unwrap()][..]] {
        for (cap, hits, inserts) in [(&["--prefix-cache-cap", "0"][..], 0, 0), (&[][..], 8, 1)] {
            let out = p4bid(&[&base[..], extra, cap].concat());
            assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let pin = |field: &str, n: u64| format!("\"{field}\": {n},");
            assert!(stderr.contains(&pin("prefix_hits", hits)), "{extra:?} {cap:?}: {stderr}");
            assert!(
                stderr.contains(&pin("prefix_inserts", inserts)),
                "{extra:?} {cap:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_rejects_malformed_policy_packs() {
    let dir = batch_dir("bad-policy", &[("a.p4", BATCH_OK)]);
    let policy = dir.join("p4bid.policy");
    std::fs::write(&policy, "[declass-*]\ndeclassify = maybe\n").unwrap();
    let out = p4bid(&["batch", dir.to_str().unwrap(), "--policy", policy.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load policy"), "{stderr}");
    assert!(stderr.contains("line 2"), "malformed line is named: {stderr}");
    let missing = p4bid(&["batch", dir.to_str().unwrap(), "--policy", "/nonexistent/p.policy"]);
    assert_eq!(missing.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_base_mode_accepts_the_leak() {
    let dir = batch_dir("base", &[("leak.p4", BATCH_LEAK)]);
    let out = p4bid(&["batch", dir.to_str().unwrap(), "--base"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_empty_dir_is_usage_error() {
    let dir = batch_dir("empty", &[]);
    let out = p4bid(&["batch", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no .p4 files"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_invalid_dir_is_usage_error() {
    let out = p4bid(&["batch", "/nonexistent/ghost-dir"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read directory"));
}

#[test]
fn batch_accepts_flags_before_the_directory() {
    // Flag values must not be mistaken for the positional argument.
    let dir = batch_dir("flags-first", &[("a.p4", BATCH_OK)]);
    let out = p4bid(&["batch", "--jobs", "1", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn batch_rejects_bad_flag_values() {
    let no_input = p4bid(&["batch"]);
    assert_eq!(no_input.status.code(), Some(2));
    let bad_jobs = p4bid(&["batch", "--synthetic", "4", "--jobs", "0"]);
    assert_eq!(bad_jobs.status.code(), Some(2));
    let bad_synth = p4bid(&["batch", "--synthetic", "many"]);
    assert_eq!(bad_synth.status.code(), Some(2));
}

#[test]
fn batch_checks_a_thousand_synthetic_programs() {
    let out = p4bid(&["batch", "--synthetic", "1000", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"summary\": {\"total\": 1000, \"accepted\": 1000, \"rejected\": 0}"));
    assert!(json.contains("\"name\": \"synth-0999\""), "input-ordered to the last program");
}

// ---------------------------------------------------------------------
// End-to-end corpus coverage: the paper's Topology case study (Listings
// 1 and 2) through the real binary — exit codes and diagnostic output.
// ---------------------------------------------------------------------

#[test]
fn check_accepts_topology_listing2_fix() {
    let path = write_temp("topology-secure", p4bid::corpus::TOPOLOGY.secure);
    let out = p4bid(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok:"), "{stdout}");
    assert!(stdout.contains("low < high"), "reports the active lattice: {stdout}");
    assert!(out.stderr.is_empty(), "no diagnostics on success");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_rejects_topology_listing1_bug_with_located_diagnostics() {
    let path = write_temp("topology-insecure", p4bid::corpus::TOPOLOGY.insecure);
    let out = p4bid(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "diagnostics go to stderr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E-EXPLICIT-FLOW"), "the Listing 1 leak class: {stderr}");
    // Rendered diagnostics carry a line:col location, the offending
    // source line, a caret, and a final error count.
    let has_location = stderr.lines().any(|l| {
        let mut parts = l.splitn(3, ':');
        matches!((parts.next(), parts.next()), (Some(line), Some(col))
            if !line.is_empty() && line.chars().all(|c| c.is_ascii_digit())
                && !col.is_empty() && col.chars().all(|c| c.is_ascii_digit()))
    });
    assert!(has_location, "diagnostics carry a line:col location: {stderr}");
    assert!(stderr.contains('^'), "caret rendering: {stderr}");
    assert!(stderr.contains("error(s)"), "summary count: {stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_permissive_mode_accepts_the_topology_bug() {
    // Permissive resolves labels but does not enforce flows, so the
    // interpreter (and `p4bid ni`) can run the buggy program.
    let path = write_temp("topology-permissive", p4bid::corpus::TOPOLOGY.insecure);
    let out = p4bid(&["check", path.to_str().unwrap(), "--permissive"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(path);
}

#[test]
fn corpus_output_round_trips_through_check() {
    // `p4bid corpus NAME` output is itself a checkable program: feed the
    // printed secure variant back through `p4bid check`.
    let listing = p4bid(&["corpus", "topology"]);
    assert!(listing.status.success());
    let source = String::from_utf8(listing.stdout).expect("utf-8 corpus source");
    let path = write_temp("corpus-roundtrip", &source);
    let out = p4bid(&["check", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(path);
}

// ---------------------------------------------------------------------
// The flag table: every subcommand takes exactly the flags its row
// declares, and anything else exits 2 before any work, with nothing on
// stdout and one `error:` line naming the subcommand and the argument.
// ---------------------------------------------------------------------

/// Asserts the refusal shape: exit 2, empty stdout, and an `error:`
/// line naming the subcommand and each of `names`.
fn refused(args: &[&str], names: &[&str]) {
    let out = p4bid(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
    let line = stderr.lines().find(|l| l.starts_with("error: ")).unwrap_or_else(|| {
        panic!("{args:?}: no error line in {stderr}");
    });
    let subcommand = format!("`p4bid {}`", args[0]);
    for name in std::iter::once(subcommand.as_str()).chain(names.iter().copied()) {
        assert!(line.contains(name), "{args:?}: {name} missing from {line}");
    }
}

/// A program with a `low` write in its body: accepted at the default
/// `pc`, rejected with `E-IMPLICIT-FLOW` at `pc = high`.
const LOW_WRITE: &str = "control C(inout <bit<8>, low> l) { apply { l = 8w1; } }";

#[test]
fn flag_a_subcommand_does_not_take_is_refused() {
    let path = write_temp("undeclared", LOW_WRITE);
    let file = path.to_str().unwrap();
    refused(&["check", file, "--pc=high"], &["`--pc=high`"]);
    refused(&["topo", file, "--policy", "p.policy"], &["`--policy`"]);
    refused(&["batch", "--synthetic", "2", "--polcy", "p.policy"], &["`--polcy`"]);
    refused(&["matrix", "--json"], &["`--json`"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn value_flag_without_its_value_is_refused() {
    let path = write_temp("no-value", LOW_WRITE);
    let file = path.to_str().unwrap();
    refused(&["check", file, "--pc"], &["`--pc`"]);
    refused(&["check", file, "--pc", "--base"], &["`--pc`"]);
    refused(&["batch", "--synthetic"], &["`--synthetic`"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn unparsable_numbers_are_refused_not_defaulted() {
    let path = write_temp("bad-number", LOW_WRITE);
    let file = path.to_str().unwrap();
    refused(&["table1", "abc"], &["ITERS", "`abc`"]);
    refused(&["fuzz", "abc"], &["N", "`abc`"]);
    refused(&["ni", file, "--runs", "lots"], &["`--runs`", "`lots`"]);
    refused(&["fuzz", "--safe-bias", "high"], &["`--safe-bias`", "`high`"]);
    refused(&["serve", "--max-line", "-1"], &["`--max-line`", "`-1`"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn two_flags_of_one_group_are_refused() {
    let path = write_temp("group", LOW_WRITE);
    let file = path.to_str().unwrap();
    refused(&["check", file, "--base", "--permissive"], &["`--base`", "`--permissive`"]);
    refused(&["corpus", "cache", "--unannotated", "--insecure"], &["`--insecure`"]);
    refused(&["fuzz", "5", "--stats", "--stats-json"], &["`--stats-json`"]);
    refused(&["batch", "--synthetic", "2", "--jobs", "1", "--jobs", "2"], &["`--jobs`"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_second_positional_is_refused() {
    let path = write_temp("second", LOW_WRITE);
    let file = path.to_str().unwrap();
    refused(&["check", file, file], &["FILE"]);
    refused(&["fuzz", "5", "6"], &["`6`"]);
    refused(&["serve", "stray"], &["`stray`"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn dir_together_with_synthetic_is_refused() {
    let dir = batch_dir("dir-and-synthetic", &[("a.p4", BATCH_OK)]);
    refused(&["batch", dir.to_str().unwrap(), "--synthetic", "3"], &["DIR", "`--synthetic`"]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn misspelled_policy_flag_no_longer_accepts_a_quarantined_leak() {
    // `--polcy` used to be dropped without a word, so the quarantine rule
    // never applied and the run exited 0.
    let dir = batch_dir("polcy", &[("quarantine-1.p4", LOW_WRITE)]);
    let policy = dir.join("quarantine.policy");
    std::fs::write(&policy, "[quarantine-*]\npc = \"high\"\n").unwrap();
    let (dir_s, policy_s) = (dir.to_str().unwrap(), policy.to_str().unwrap());
    let applied = p4bid(&["batch", dir_s, "--policy", policy_s]);
    assert_eq!(applied.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&applied.stdout).contains("E-IMPLICIT-FLOW"));
    refused(&["batch", dir_s, "--polcy", policy_s], &["`--polcy`"]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn pc_equals_form_no_longer_checks_at_bottom() {
    // `--pc=high` used to be dropped, checking at ⊥ and exiting 0.
    let path = write_temp("pc-equals", LOW_WRITE);
    let file = path.to_str().unwrap();
    let applied = p4bid(&["check", file, "--pc", "high"]);
    assert_eq!(applied.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&applied.stderr).contains("E-IMPLICIT-FLOW"));
    refused(&["check", file, "--pc=high"], &["`--pc=high`"]);
    let _ = std::fs::remove_file(path);
}

#[test]
fn docs_synopsis_is_the_generated_usage() {
    let docs = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/CLI.md"))
        .expect("docs/CLI.md");
    let fence = docs.split("```text\n").nth(1).and_then(|s| s.split("```").next()).unwrap();
    let out = p4bid(&[]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    let usage: String = stderr
        .strip_prefix("usage:\n")
        .unwrap_or_else(|| panic!("usage header: {stderr}"))
        .lines()
        .map(|l| format!("{}\n", l.strip_prefix("  ").unwrap_or(l)))
        .collect();
    assert_eq!(fence, usage, "regenerate the synopsis in docs/CLI.md from `p4bid`");
}
