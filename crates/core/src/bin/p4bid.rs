//! The `p4bid` command-line tool.
//!
//! ```text
//! p4bid check FILE [--base|--permissive] [--pc LABEL]   typecheck a program
//! p4bid batch DIR|--synthetic N [--jobs J] [--json] [--policy FILE] [--stats|--stats-json]
//!                                                       check a whole corpus in parallel
//! p4bid serve [--socket PATH] [--jobs J] [--json] [--policy FILE] [--max-epochs N]
//!             [--refresh-every N] [--max-epoch N] [--max-pending N] [--shed]
//!             [--max-line BYTES] [--cache-cap N] [--prefix-cache-cap N]
//!                                                       streaming ingest daemon (NDJSON feed)
//! p4bid watch DIR [--interval-ms MS] [--jobs J] [--json] [--policy FILE] [--max-epochs N]
//!                                                       watch a directory, re-check on change
//! p4bid topo MANIFEST [--jobs J] [--json] [--watch] [--interval-ms MS] [--max-epochs N]
//!                                                       fixpoint-check a switch topology
//!
//! `check`/`batch`/`serve`/`watch`/`topo` all take the resource guards
//! `--max-source-bytes N` and `--check-timeout-ms MS`; `serve`/`watch`
//! drain gracefully on SIGTERM/SIGINT.
//! p4bid matrix                                          §5 case-study accept/reject matrix
//! p4bid table1 [ITERS]                                  regenerate Table 1 (default 20 iterations)
//! p4bid ni FILE --control NAME [--runs N] [--observe L] empirical non-interference check
//! p4bid corpus [NAME] [--insecure|--unannotated]        list or print corpus programs
//! p4bid fuzz [N] [--safe-bias F] [--jobs J] [--stats|--stats-json]
//!                                                       soundness fuzzing over N random programs
//! ```
//!
//! See `docs/CLI.md` for the full reference (exit codes, report schemas,
//! environment knobs).

use p4bid::batch::{check_batch_with_policy, synthetic_corpus, BatchInput, BatchStats};
use p4bid::fuzz::{run_fuzz, SeedOutcome};
use p4bid::ni::{check_non_interference, GenConfig, NiConfig, NiOutcome};
use p4bid::report::{
    case_study_matrix, measure_table1, render_matrix, render_table1, unannotated_source,
};
use p4bid::serve::{run_feed, run_watch, DirScanner, IngestLimits, ServeEngine, ServeSummary};
use p4bid::{check, render_diagnostics, CheckOptions, PolicyPack};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("topo") => cmd_topo(&args[1..]),
        Some("matrix") => {
            print!("{}", render_matrix(&case_study_matrix()));
            ExitCode::SUCCESS
        }
        Some("table1") => {
            let iters = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20u32);
            print!("{}", render_table1(&measure_table1(iters)));
            ExitCode::SUCCESS
        }
        Some("ni") => cmd_ni(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  p4bid check FILE [--base|--permissive] [--pc LABEL] [--max-source-bytes N] [--check-timeout-ms MS]\n  \
                 p4bid batch DIR|--synthetic N [--jobs J] [--json] [--policy FILE] [--stats|--stats-json] [--base|--permissive] [--pc LABEL] [--prefix-cache-cap N] [--max-source-bytes N] [--check-timeout-ms MS]\n  \
                 p4bid serve [--socket PATH] [--jobs J] [--json] [--policy FILE] [--stats|--stats-json] [--max-epochs N] [--refresh-every N] [--max-epoch N] [--max-pending N] [--shed] [--max-line BYTES] [--cache-cap N] [--prefix-cache-cap N] [--max-source-bytes N] [--check-timeout-ms MS]\n  \
                 p4bid watch DIR [--interval-ms MS] [--jobs J] [--json] [--policy FILE] [--stats|--stats-json] [--max-epochs N] [--refresh-every N] [--cache-cap N] [--prefix-cache-cap N] [--max-source-bytes N] [--check-timeout-ms MS]\n  \
                 p4bid topo MANIFEST [--jobs J] [--json] [--stats|--stats-json] [--watch] [--interval-ms MS] [--max-epochs N] [--base|--permissive] [--max-source-bytes N] [--check-timeout-ms MS]\n  \
                 p4bid matrix\n  p4bid table1 [ITERS]\n  \
                 p4bid ni FILE --control NAME [--runs N] [--observe LABEL]\n  \
                 p4bid corpus [NAME] [--insecure|--unannotated]\n  \
                 p4bid fuzz [N] [--safe-bias F] [--jobs J] [--stats|--stats-json]"
            );
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Every flag that consumes the following argument as its value, across
/// all subcommands. Needed to tell a positional argument apart from a
/// flag value (`p4bid batch --jobs 2 DIR` must find `DIR`, not `2`).
const VALUE_FLAGS: [&str; 19] = [
    "--pc",
    "--policy",
    "--jobs",
    "--synthetic",
    "--runs",
    "--observe",
    "--control",
    "--safe-bias",
    "--socket",
    "--max-epochs",
    "--refresh-every",
    "--interval-ms",
    "--max-epoch",
    "--max-pending",
    "--max-line",
    "--cache-cap",
    "--prefix-cache-cap",
    "--max-source-bytes",
    "--check-timeout-ms",
];

/// The first positional (non-flag, non-flag-value) argument.
fn positional(args: &[String]) -> Option<&str> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = VALUE_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

fn read_source(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read `{path}`: {e}");
        ExitCode::from(2)
    })
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("error: `p4bid check` needs a file");
        return ExitCode::from(2);
    };
    let source = match read_source(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let Ok(opts) = check_options(args) else {
        return ExitCode::from(2);
    };
    match check(&source, &opts) {
        Ok(typed) => {
            println!(
                "ok: {} control block(s) typecheck under lattice {}",
                typed.controls.len(),
                typed.lattice
            );
            ExitCode::SUCCESS
        }
        Err(diags) => {
            eprint!("{}", render_diagnostics(&source, &diags));
            eprintln!("{} error(s)", diags.len());
            ExitCode::FAILURE
        }
    }
}

/// Mode/pc and resource-guard flags shared by `check`, `batch`,
/// `serve`, and `watch`: `--max-source-bytes N` rejects larger programs
/// before parsing (E-OVERSIZED), `--check-timeout-ms MS` bounds each
/// program's wall-clock check (E-TIMEOUT); `0` disables either guard
/// (the default).
fn check_options(args: &[String]) -> Result<CheckOptions, ()> {
    let mut opts = if args.iter().any(|a| a == "--base") {
        CheckOptions::base()
    } else if args.iter().any(|a| a == "--permissive") {
        CheckOptions::permissive()
    } else {
        CheckOptions::ifc()
    };
    if let Some(pc) = flag_value(args, "--pc") {
        opts = opts.with_pc(pc);
    }
    if let Some(n) = u64_flag(args, "--max-source-bytes")? {
        opts = opts.with_max_source_bytes(n);
    }
    if let Some(n) = u64_flag(args, "--check-timeout-ms")? {
        opts = opts.with_check_timeout_ms(n);
    }
    Ok(opts)
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let inputs = if let Some(n) = flag_value(args, "--synthetic") {
        let Ok(n) = n.parse::<usize>() else {
            eprintln!("error: `--synthetic` needs a program count, got `{n}`");
            return ExitCode::from(2);
        };
        synthetic_corpus(n)
    } else {
        let Some(dir) = positional(args) else {
            eprintln!("error: `p4bid batch` needs a directory or `--synthetic N`");
            return ExitCode::from(2);
        };
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("error: cannot read directory `{dir}`: {e}");
                return ExitCode::from(2);
            }
        };
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "p4"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            eprintln!("error: no .p4 files in `{dir}`");
            return ExitCode::from(2);
        }
        let mut inputs = Vec::with_capacity(paths.len());
        for path in paths {
            let name = path
                .file_name()
                .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned());
            match std::fs::read_to_string(&path) {
                Ok(source) => inputs.push(BatchInput::new(name, source)),
                Err(e) => {
                    eprintln!("error: cannot read `{}`: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        inputs
    };

    let (Ok(jobs), Ok(policy), Ok(opts), Ok(prefix_cap)) =
        (parse_jobs(args), policy_pack(args), check_options(args), prefix_cache_cap(args))
    else {
        return ExitCode::from(2);
    };

    let start = std::time::Instant::now();
    let core = p4bid::SharedSessionCore::with_prefix_cache_cap(opts, prefix_cap);
    let report = match &policy {
        Some(pack) => check_batch_with_policy(&inputs, &core, pack, jobs),
        None => p4bid::batch::check_batch_with_core(&inputs, &core, jobs),
    };
    let elapsed = start.elapsed();
    if args.iter().any(|a| a == "--json") {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_table());
    }
    // Stats go to stderr like the timing line: tier sizes / hit rates
    // depend on work-stealing order, and stdout must stay exactly the
    // report (the `--json` form especially must parse as one JSON
    // document).
    print_stats(args, &report.stats, "batch", None, None);
    // Timing goes to stderr so stdout stays byte-identical across runs.
    eprintln!(
        "checked {} program(s) in {:.1} ms on {} worker(s)",
        report.programs.len(),
        elapsed.as_secs_f64() * 1e3,
        report.jobs,
    );
    if report.all_accepted() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--jobs J` shared by `batch`, `serve`, and `watch`: absent means one
/// worker per core, explicit values must be positive.
fn parse_jobs(args: &[String]) -> Result<usize, ()> {
    match flag_value(args, "--jobs") {
        None => Ok(0),
        Some(j) => match j.parse::<usize>() {
            Ok(j) if j >= 1 => Ok(j),
            _ => {
                eprintln!("error: `--jobs` needs a positive worker count, got `{j}`");
                Err(())
            }
        },
    }
}

/// An optional non-negative integer flag value.
fn u64_flag(args: &[String], flag: &str) -> Result<Option<u64>, ()> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => {
                eprintln!("error: `{flag}` needs a non-negative integer, got `{v}`");
                Err(())
            }
        },
    }
}

/// `--stats` / `--stats-json` on stderr, shared by `batch`, `serve`,
/// `watch`, and `fuzz`. `epochs` and `ops` (front-door/verdict-cache
/// counters) are set by the serve loops, whose counters are cumulative
/// across epochs.
fn print_stats(
    args: &[String],
    stats: &BatchStats,
    command: &str,
    epochs: Option<u64>,
    ops: Option<&p4bid::serve::ServeOps>,
) {
    if args.iter().any(|a| a == "--stats") {
        eprint!("{}", stats.render_text());
        if let Some(ops) = ops {
            eprint!("{}", ops.render_text());
        }
    }
    if args.iter().any(|a| a == "--stats-json") {
        eprint!("{}", stats.render_json(command, epochs, ops));
    }
}

/// Shared tail of `serve`/`watch`: stats, the final summary line, and the
/// exit code (0 all accepted, 1 any reject, 2 ingest error).
fn finish_serve(
    args: &[String],
    engine: &ServeEngine,
    result: std::io::Result<ServeSummary>,
    command: &str,
) -> ExitCode {
    // Stats first, even on an ingest error: a long-running daemon's
    // cumulative counters are exactly what the operator asked for with
    // `--stats`/`--stats-json`, and they survive the failure.
    print_stats(
        args,
        &engine.cumulative_stats(),
        command,
        Some(engine.epochs()),
        Some(&engine.ops()),
    );
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The extra segments appear only when nonzero, keeping the quiet
    // path's line stable for scripts that match on it.
    let mut line = format!(
        "served {} epoch(s): {} program(s) checked, {} request(s) skipped",
        summary.epochs, summary.requests, summary.skipped,
    );
    if summary.conn_errors > 0 {
        line.push_str(&format!(", {} connection error(s)", summary.conn_errors));
    }
    if summary.shed > 0 {
        line.push_str(&format!(", {} request(s) shed", summary.shed));
    }
    eprintln!("{line}");
    if summary.any_rejected {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The ingest-bound flags shared by the serve front door: `--max-epoch`
/// (epoch size), `--max-pending` + `--shed` (backpressure), `--max-line`
/// (request-line byte cap).
fn ingest_limits(args: &[String]) -> Result<IngestLimits, ()> {
    let mut limits = IngestLimits::default();
    if let Some(n) = u64_flag(args, "--max-epoch")? {
        limits.max_epoch = n as usize;
    }
    if let Some(n) = u64_flag(args, "--max-pending")? {
        limits.max_pending = n as usize;
    }
    if let Some(n) = u64_flag(args, "--max-line")? {
        if n == 0 {
            eprintln!("error: `--max-line` needs a positive byte count");
            return Err(());
        }
        limits.max_line = n as usize;
    }
    limits.shed = args.iter().any(|a| a == "--shed");
    Ok(limits)
}

/// `--cache-cap N`: verdict-cache capacity (default 1024, `0` disables).
fn cache_cap(args: &[String]) -> Result<usize, ()> {
    Ok(u64_flag(args, "--cache-cap")?.map_or(1024, |n| n as usize))
}

/// `--prefix-cache-cap N`: item-memo capacity shared by the engine's
/// worker sessions (default [`p4bid::DEFAULT_PREFIX_CACHE_CAP`], `0`
/// disables incremental re-checking); it also sizes the table of
/// sighted controls that decides which ones get recorded.
fn prefix_cache_cap(args: &[String]) -> Result<usize, ()> {
    Ok(u64_flag(args, "--prefix-cache-cap")?
        .map_or(p4bid::DEFAULT_PREFIX_CACHE_CAP, |n| n as usize))
}

/// `--policy FILE`: a per-program policy pack (see `docs/CLI.md`),
/// shared by `batch`, `serve`, and `watch`. A malformed or unreadable
/// pack is a usage error (exit 2).
fn policy_pack(args: &[String]) -> Result<Option<PolicyPack>, ()> {
    match flag_value(args, "--policy") {
        None => Ok(None),
        Some(path) => match PolicyPack::load(std::path::Path::new(path)) {
            Ok(pack) => Ok(Some(pack)),
            Err(e) => {
                eprintln!("error: cannot load policy `{path}`: {e}");
                Err(())
            }
        },
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let (Ok(jobs), Ok(max_epochs), Ok(refresh_every), Ok(limits), Ok(cache), Ok(policy), Ok(opts)) = (
        parse_jobs(args),
        u64_flag(args, "--max-epochs"),
        u64_flag(args, "--refresh-every"),
        ingest_limits(args),
        cache_cap(args),
        policy_pack(args),
        check_options(args),
    ) else {
        return ExitCode::from(2);
    };
    let Ok(prefix_cap) = prefix_cache_cap(args) else {
        return ExitCode::from(2);
    };
    let json = args.iter().any(|a| a == "--json");
    let core = p4bid::SharedSessionCore::with_prefix_cache_cap(opts, prefix_cap);
    let mut engine = ServeEngine::with_core(core, jobs)
        .with_refresh_every(refresh_every)
        .with_cache(cache)
        .with_policy(policy);
    // SIGTERM/SIGINT become a graceful drain: pending work is flushed as
    // the final epoch(s), stats and the summary line still print, and
    // the socket file is unlinked.
    p4bid::serve::install_drain_handler();
    let result = if let Some(socket) = flag_value(args, "--socket") {
        #[cfg(unix)]
        {
            // `Stderr` (not the lock) — the reader threads share it, and
            // `StderrLock` is not `Send`.
            p4bid::serve::run_socket(
                &mut engine,
                std::path::Path::new(socket),
                &mut std::io::stdout().lock(),
                &mut std::io::stderr(),
                json,
                max_epochs,
                &limits,
            )
        }
        #[cfg(not(unix))]
        {
            let _ = socket;
            eprintln!("error: `--socket` needs a Unix platform; use the stdin feed instead");
            return ExitCode::from(2);
        }
    } else {
        run_feed(
            &mut engine,
            &mut std::io::stdin().lock(),
            &mut std::io::stdout().lock(),
            &mut std::io::stderr().lock(),
            json,
            max_epochs,
            &limits,
        )
    };
    finish_serve(args, &engine, result, "serve")
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let Some(dir) = positional(args) else {
        eprintln!("error: `p4bid watch` needs a directory");
        return ExitCode::from(2);
    };
    let (
        Ok(jobs),
        Ok(max_epochs),
        Ok(refresh_every),
        Ok(interval_ms),
        Ok(cache),
        Ok(policy),
        Ok(opts),
    ) = (
        parse_jobs(args),
        u64_flag(args, "--max-epochs"),
        u64_flag(args, "--refresh-every"),
        u64_flag(args, "--interval-ms"),
        cache_cap(args),
        policy_pack(args),
        check_options(args),
    )
    else {
        return ExitCode::from(2);
    };
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("error: cannot watch `{dir}`: not a directory");
        return ExitCode::from(2);
    }
    let Ok(prefix_cap) = prefix_cache_cap(args) else {
        return ExitCode::from(2);
    };
    let json = args.iter().any(|a| a == "--json");
    let core = p4bid::SharedSessionCore::with_prefix_cache_cap(opts, prefix_cap);
    let mut engine = ServeEngine::with_core(core, jobs)
        .with_refresh_every(refresh_every)
        .with_cache(cache)
        .with_policy(policy);
    p4bid::serve::install_drain_handler();
    let mut scanner = DirScanner::new(dir);
    let result = run_watch(
        &mut engine,
        &mut scanner,
        &mut std::io::stdout().lock(),
        &mut std::io::stderr().lock(),
        json,
        max_epochs,
        std::time::Duration::from_millis(interval_ms.unwrap_or(500)),
    );
    finish_serve(args, &engine, result, "watch")
}

fn cmd_topo(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("error: `p4bid topo` needs a manifest file");
        return ExitCode::from(2);
    };
    let (Ok(jobs), Ok(opts), Ok(max_epochs), Ok(interval_ms)) = (
        parse_jobs(args),
        check_options(args),
        u64_flag(args, "--max-epochs"),
        u64_flag(args, "--interval-ms"),
    ) else {
        return ExitCode::from(2);
    };
    let manifest_path = std::path::Path::new(path);
    let topo = match p4bid::topo::Topology::load(manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let mut engine = p4bid::topo::TopoEngine::new(topo, opts, jobs);
    if args.iter().any(|a| a == "--watch") {
        p4bid::serve::install_drain_handler();
        let result = p4bid::topo::run_topo_watch(
            &mut engine,
            manifest_path,
            &mut std::io::stdout().lock(),
            &mut std::io::stderr().lock(),
            json,
            max_epochs,
            std::time::Duration::from_millis(interval_ms.unwrap_or(500)),
        );
        print_stats(args, &engine.cumulative_stats(), "topo", Some(engine.epochs()), None);
        match result {
            Ok(summary) => {
                eprintln!("watched {} epoch(s)", summary.epochs);
                if summary.any_bad {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        }
    } else {
        let start = std::time::Instant::now();
        let report = engine.run_epoch();
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{}", report.render_table());
        }
        print_stats(args, &report.stats, "topo", None, None);
        // Timing goes to stderr so stdout stays byte-identical across
        // runs and `--jobs` settings.
        eprintln!(
            "checked {} switch(es) in {:.1} ms on {} worker(s): {} round(s), {} recheck(s)",
            report.switches.len(),
            start.elapsed().as_secs_f64() * 1e3,
            report.jobs,
            report.rounds,
            report.switch_rechecks,
        );
        if report.all_ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn cmd_ni(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        eprintln!("error: `p4bid ni` needs a file");
        return ExitCode::from(2);
    };
    let source = match read_source(path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // Permissive so that leaky programs can be *run* and witnessed.
    let typed = match check(&source, &CheckOptions::permissive()) {
        Ok(t) => t,
        Err(diags) => {
            eprint!("{}", render_diagnostics(&source, &diags));
            return ExitCode::FAILURE;
        }
    };
    let control = match flag_value(args, "--control") {
        Some(c) => c.to_string(),
        None => match typed.controls.first() {
            Some(c) => c.name.clone(),
            None => {
                eprintln!("error: the program declares no control block");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut config = NiConfig::default();
    if let Some(runs) = flag_value(args, "--runs").and_then(|s| s.parse().ok()) {
        config = config.with_runs(runs);
    }
    if let Some(observe) = flag_value(args, "--observe") {
        config = config.observing(observe);
    }
    let cp = p4bid::interp::ControlPlane::new();
    match check_non_interference(&typed, &cp, &control, &config) {
        NiOutcome::Holds { runs } => {
            println!("non-interference held on {runs} random low-equivalent input pairs");
            ExitCode::SUCCESS
        }
        NiOutcome::Leak(witness) => {
            print!("{witness}");
            ExitCode::FAILURE
        }
        NiOutcome::Error(e) => {
            eprintln!("evaluation error: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_corpus(args: &[String]) -> ExitCode {
    let name = positional(args);
    match name {
        None => {
            for cs in p4bid::corpus::case_studies() {
                println!("{:<10} {:<28} {}", cs.name, cs.section, cs.description);
            }
            ExitCode::SUCCESS
        }
        Some(name) => match p4bid::corpus::case_study(name) {
            Some(cs) => {
                if args.iter().any(|a| a == "--insecure") {
                    print!("{}", cs.insecure);
                } else if args.iter().any(|a| a == "--unannotated") {
                    print!("{}", unannotated_source(&cs));
                } else {
                    print!("{}", cs.secure);
                }
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown case study `{name}`; try `p4bid corpus`");
                ExitCode::from(2)
            }
        },
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let n: u64 = positional(args).and_then(|s| s.parse().ok()).unwrap_or(200);
    let mut cfg = GenConfig::default();
    if let Some(bias) = flag_value(args, "--safe-bias").and_then(|s| s.parse().ok()) {
        cfg = cfg.with_safe_bias(bias);
    }
    let jobs = match flag_value(args, "--jobs") {
        None => 1, // serial remains the default; `--jobs 0` = one per core
        Some(j) => match j.parse::<usize>() {
            Ok(j) => j,
            Err(_) => {
                eprintln!("error: `--jobs` needs a worker count, got `{j}`");
                return ExitCode::from(2);
            }
        },
    };
    let ni_cfg = NiConfig::default().with_runs(30);
    let report = run_fuzz(n, &cfg, &ni_cfg, jobs);
    print_stats(args, &report.stats, "fuzz", None, None);
    if let Some((seed, SeedOutcome::Violation { source, witness })) = &report.violation {
        eprintln!("SOUNDNESS VIOLATION at seed {seed}:\n{source}\n{witness}");
        return ExitCode::FAILURE;
    }
    // The `panicked` segment appears only when nonzero (i.e. under
    // injected faults), keeping the quiet path's line stable for
    // scripts that match on it.
    let mut line = format!(
        "fuzzed {n} programs: {} accepted (all non-interfering), {} rejected",
        report.accepted, report.rejected
    );
    if report.panicked > 0 {
        line.push_str(&format!(", {} panicked", report.panicked));
    }
    println!("{line}");
    ExitCode::SUCCESS
}
