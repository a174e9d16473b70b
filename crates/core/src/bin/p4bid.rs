//! The `p4bid` command-line tool.
//!
//! Each subcommand's positional argument and flags are declared once, in
//! [`COMMANDS`]. One parser reads that table, and so does the usage text;
//! a flag a subcommand does not declare is refused (exit 2) before any
//! work. See `docs/CLI.md` for the synopsis and the full reference (exit
//! codes, report schemas, environment knobs).

use p4bid::batch::{check_batch_with_policy, synthetic_corpus, BatchInput, BatchStats};
use p4bid::fuzz::{run_fuzz, SeedOutcome};
use p4bid::ni::{check_non_interference, GenConfig, NiConfig, NiOutcome};
use p4bid::report::{
    case_study_matrix, measure_table1, render_matrix, render_table1, unannotated_source,
};
use p4bid::serve::{run_feed, run_watch, DirScanner, IngestLimits, ServeEngine, ServeSummary};
use p4bid::{check, render_diagnostics, CheckOptions, PolicyPack};
use std::ffi::OsString;
use std::process::ExitCode;

/// One subcommand: its name, its positional synopsis and its flags.
struct Command {
    name: &'static str,
    /// `FILE` is required, `[N]` optional, and `DIR|--synthetic N` takes
    /// either the positional or the flag; empty means no positional.
    args: &'static str,
    /// `--json` is a switch, `--jobs J` takes a value, and
    /// `--base|--permissive` names alternatives, at most one of them given.
    flags: &'static [&'static str],
    run: fn(&Args) -> ExitCode,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "check", args: "FILE", run: cmd_check, flags: &[
        "--base|--permissive", "--pc LABEL", "--max-source-bytes N", "--check-timeout-ms MS",
    ] },
    Command { name: "batch", args: "DIR|--synthetic N", run: cmd_batch, flags: &[
        "--jobs J", "--json", "--policy FILE", "--stats|--stats-json", "--base|--permissive",
        "--pc LABEL", "--prefix-cache-cap N", "--max-source-bytes N", "--check-timeout-ms MS",
    ] },
    Command { name: "serve", args: "", run: cmd_serve, flags: &[
        "--socket PATH", "--jobs J", "--json", "--policy FILE", "--stats|--stats-json",
        "--max-epochs N", "--refresh-every N", "--max-epoch N", "--max-pending N", "--shed",
        "--max-line BYTES", "--cache-cap N", "--prefix-cache-cap N", "--base|--permissive",
        "--pc LABEL", "--max-source-bytes N", "--check-timeout-ms MS",
    ] },
    Command { name: "watch", args: "DIR", run: cmd_watch, flags: &[
        "--interval-ms MS", "--jobs J", "--json", "--policy FILE", "--stats|--stats-json",
        "--max-epochs N", "--refresh-every N", "--cache-cap N", "--prefix-cache-cap N",
        "--base|--permissive", "--pc LABEL", "--max-source-bytes N", "--check-timeout-ms MS",
    ] },
    Command { name: "topo", args: "MANIFEST", run: cmd_topo, flags: &[
        "--jobs J", "--json", "--stats|--stats-json", "--watch", "--interval-ms MS",
        "--max-epochs N", "--base|--permissive", "--pc LABEL", "--max-source-bytes N",
        "--check-timeout-ms MS",
    ] },
    Command { name: "matrix", args: "", run: cmd_matrix, flags: &[] },
    Command { name: "table1", args: "[ITERS]", run: cmd_table1, flags: &[] },
    Command { name: "ni", args: "FILE", run: cmd_ni, flags: &[
        "--control NAME", "--runs N", "--observe LABEL",
    ] },
    Command { name: "corpus", args: "[NAME]", run: cmd_corpus, flags: &[
        "--insecure|--unannotated",
    ] },
    Command { name: "fuzz", args: "[N]", run: cmd_fuzz, flags: &[
        "--safe-bias F", "--jobs J", "--stats|--stats-json",
    ] },
];

fn main() -> ExitCode {
    let argv: Vec<String> = match std::env::args_os().skip(1).map(OsString::into_string).collect() {
        Ok(argv) => argv,
        Err(arg) => {
            eprintln!("error: argument `{}` is not UTF-8", arg.to_string_lossy());
            return ExitCode::from(2);
        }
    };
    let Some(cmd) = argv.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name)) else {
        if let Some(name) = argv.first() {
            eprintln!("error: unknown subcommand `{name}`");
        }
        eprintln!("usage:");
        for line in usage().lines() {
            eprintln!("  {line}");
        }
        return ExitCode::from(2);
    };
    match parse(cmd, &argv[1..]) {
        Ok(args) => (cmd.run)(&args),
        Err(e) => {
            eprintln!("error: `p4bid {}` {e}", cmd.name);
            ExitCode::from(2)
        }
    }
}

/// Every subcommand's synopsis, generated from [`COMMANDS`] and wrapped
/// at 72 columns; `docs/CLI.md` carries the same text.
fn usage() -> String {
    let mut out = String::new();
    for cmd in COMMANDS {
        let mut line = format!("p4bid {} {}", cmd.name, cmd.args).trim_end().to_string();
        for flag in cmd.flags {
            let piece = format!(" [{flag}]");
            if line.len() + piece.len() > 72 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(11);
            }
            line.push_str(&piece);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// A parsed command line: the positional argument, keyed by its
/// metavariable (`FILE`, `N`, …), and every flag given, keyed by name
/// (a switch's value is empty). Required positionals are always present,
/// and every numeric value parses.
struct Args(Vec<(&'static str, String)>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.value(key).is_some()
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.value(key).and_then(|v| v.parse().ok())
    }
}

/// Checks a value against its metavariable: counts, sizes and durations
/// are `u64`s, `F` is a number, anything else is text. Names what the
/// value should have been when it is not.
fn check_value(metavar: &str, value: &str) -> Result<(), &'static str> {
    match metavar {
        "N" | "J" | "MS" | "BYTES" | "ITERS" if value.parse::<u64>().is_err() => {
            Err("an integer from 0 to 18446744073709551615")
        }
        "F" if value.parse::<f64>().is_err() => Err("a number"),
        _ => Ok(()),
    }
}

/// Reads `argv` against `cmd`'s row of [`COMMANDS`], or says what is wrong
/// with it: an undeclared flag, a missing or malformed value, two flags of
/// one group, a second positional, or a missing required one.
fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, String> {
    // `DIR|--synthetic N`: the flag after the bar stands in for the positional.
    let (positional, alt) = match cmd.args.find("|--") {
        Some(i) => (&cmd.args[..i], Some(&cmd.args[i + 1..])),
        None => (cmd.args, None),
    };
    let metavar = positional.trim_start_matches('[').trim_end_matches(']');
    let mut args = Args(Vec::new());
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if metavar.is_empty() {
                return Err(format!("takes no positional argument, got `{arg}`"));
            }
            if args.has(metavar) {
                return Err(format!("takes one {metavar}, got a second one `{arg}`"));
            }
            check_value(metavar, arg)
                .map_err(|want| format!("needs {want} for {metavar}, got `{arg}`"))?;
            args.0.push((metavar, arg.clone()));
            continue;
        }
        let found = cmd.flags.iter().copied().chain(alt).find_map(|spec| {
            let (group, value) = spec.split_once(' ').map_or((spec, None), |(g, m)| (g, Some(m)));
            group.split('|').find(|f| *f == *arg).map(|flag| (group, flag, value))
        });
        let Some((group, flag, value_metavar)) = found else {
            return Err(format!("does not take `{arg}`"));
        };
        if let Some((prev, _)) = args.0.iter().find(|(k, _)| group.split('|').any(|f| f == *k)) {
            return Err(if *prev == flag {
                format!("takes `{flag}` once")
            } else {
                format!("takes `{prev}` or `{flag}`, not both")
            });
        }
        let value = match value_metavar {
            None => String::new(),
            Some(m) => {
                let Some(v) = rest.next().filter(|v| !v.starts_with("--")) else {
                    return Err(format!("needs a value {m} after `{flag}`"));
                };
                check_value(m, v)
                    .map_err(|want| format!("needs {want} for `{flag}`, got `{v}`"))?;
                v.clone()
            }
        };
        args.0.push((flag, value));
    }
    let alt_flag = alt.and_then(|a| a.split(' ').next()).filter(|f| args.has(f));
    if let Some(flag) = alt_flag.filter(|_| args.has(metavar)) {
        return Err(format!("takes {metavar} or `{flag}`, not both"));
    }
    // A bare positional (`FILE`, not `[N]`) is required.
    if positional.starts_with(char::is_uppercase) && alt_flag.is_none() && !args.has(metavar) {
        return Err(format!("needs {}", cmd.args));
    }
    Ok(args)
}

fn read_source(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read `{path}`: {e}");
        ExitCode::from(2)
    })
}

fn cmd_check(args: &Args) -> ExitCode {
    let source = match read_source(args.value("FILE").expect("parse requires FILE")) {
        Ok(s) => s,
        Err(code) => return code,
    };
    match check(&source, &check_options(args)) {
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

/// Mode/pc and resource-guard flags shared by `check`, `batch`, `serve`,
/// `watch`, and `topo`: `--max-source-bytes N` rejects larger programs
/// before parsing (E-OVERSIZED), `--check-timeout-ms MS` bounds each
/// program's wall-clock check (E-TIMEOUT); `0` disables either guard
/// (the default).
fn check_options(args: &Args) -> CheckOptions {
    let mode = if args.has("--base") {
        CheckOptions::base()
    } else if args.has("--permissive") {
        CheckOptions::permissive()
    } else {
        CheckOptions::ifc()
    };
    CheckOptions {
        pc: args.value("--pc").map(str::to_string),
        max_source_bytes: args.num("--max-source-bytes").unwrap_or(0),
        check_timeout_ms: args.num("--check-timeout-ms").unwrap_or(0),
        ..mode
    }
}

fn cmd_batch(args: &Args) -> ExitCode {
    let inputs = if let Some(n) = args.num("--synthetic") {
        synthetic_corpus(n)
    } else {
        let dir = args.value("DIR").expect("parse requires DIR");
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

    let (Ok(jobs), Ok(policy)) = (parse_jobs(args), policy_pack(args)) else {
        return ExitCode::from(2);
    };

    let start = std::time::Instant::now();
    let core = session_core(args);
    let report = match &policy {
        Some(pack) => check_batch_with_policy(&inputs, &core, pack, jobs),
        None => p4bid::batch::check_batch_with_core(&inputs, &core, jobs),
    };
    let elapsed = start.elapsed();
    if args.has("--json") {
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

/// `--jobs J` shared by `batch`, `serve`, `watch`, and `topo`: absent
/// means one worker per core, explicit values must be positive.
fn parse_jobs(args: &Args) -> Result<usize, ()> {
    match args.num("--jobs") {
        None => Ok(0),
        Some(j) if j >= 1 => Ok(j),
        Some(j) => {
            eprintln!("error: `--jobs` needs a positive worker count, got `{j}`");
            Err(())
        }
    }
}

/// `--stats` / `--stats-json` on stderr, shared by `batch`, `serve`,
/// `watch`, `topo`, and `fuzz`. `epochs` and `ops` (front-door/verdict-cache
/// counters) are set by the serve loops, whose counters are cumulative
/// across epochs.
fn print_stats(
    args: &Args,
    stats: &BatchStats,
    command: &str,
    epochs: Option<u64>,
    ops: Option<&p4bid::serve::ServeOps>,
) {
    if args.has("--stats") {
        eprint!("{}", stats.render_text());
        if let Some(ops) = ops {
            eprint!("{}", ops.render_text());
        }
    }
    if args.has("--stats-json") {
        eprint!("{}", stats.render_json(command, epochs, ops));
    }
}

/// Shared tail of `serve`/`watch`: stats, the final summary line, and the
/// exit code (0 all accepted, 1 any reject, 2 ingest error).
fn finish_serve(
    args: &Args,
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

/// The ingest-bound flags of the serve front door: `--max-epoch`
/// (epoch size), `--max-pending` + `--shed` (backpressure), `--max-line`
/// (request-line byte cap).
fn ingest_limits(args: &Args) -> Result<IngestLimits, ()> {
    let defaults = IngestLimits::default();
    let limits = IngestLimits {
        max_line: args.num("--max-line").unwrap_or(defaults.max_line),
        max_epoch: args.num("--max-epoch").unwrap_or(defaults.max_epoch),
        max_pending: args.num("--max-pending").unwrap_or(defaults.max_pending),
        shed: args.has("--shed"),
    };
    if limits.max_line == 0 {
        eprintln!("error: `--max-line` needs a positive byte count");
        return Err(());
    }
    Ok(limits)
}

/// The checker core of `batch`, `serve`, and `watch`: the checker options
/// and `--prefix-cache-cap N`, the item-memo capacity shared by the
/// worker sessions (default [`p4bid::DEFAULT_PREFIX_CACHE_CAP`], `0`
/// disables incremental re-checking); it also sizes the table of
/// sighted controls that decides which ones get recorded.
fn session_core(args: &Args) -> p4bid::SharedSessionCore {
    let cap = args.num("--prefix-cache-cap").unwrap_or(p4bid::DEFAULT_PREFIX_CACHE_CAP);
    p4bid::SharedSessionCore::with_prefix_cache_cap(check_options(args), cap)
}

/// `--policy FILE`: a per-program policy pack (see `docs/CLI.md`),
/// shared by `batch`, `serve`, and `watch`. A malformed or unreadable
/// pack is a usage error (exit 2).
fn policy_pack(args: &Args) -> Result<Option<PolicyPack>, ()> {
    match args.value("--policy") {
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

/// The engine `serve` and `watch` both run: `--jobs`, `--policy`, the
/// session core, `--refresh-every`, and `--cache-cap N` (verdict-cache
/// capacity, default 1024, `0` disables).
fn serve_engine(args: &Args) -> Result<ServeEngine, ()> {
    let (jobs, policy) = (parse_jobs(args)?, policy_pack(args)?);
    Ok(ServeEngine::with_core(session_core(args), jobs)
        .with_refresh_every(args.num("--refresh-every"))
        .with_cache(args.num("--cache-cap").unwrap_or(1024))
        .with_policy(policy))
}

fn cmd_serve(args: &Args) -> ExitCode {
    let (Ok(limits), Ok(mut engine)) = (ingest_limits(args), serve_engine(args)) else {
        return ExitCode::from(2);
    };
    let (json, max_epochs) = (args.has("--json"), args.num("--max-epochs"));
    // SIGTERM/SIGINT become a graceful drain: pending work is flushed as
    // the final epoch(s), stats and the summary line still print, and
    // the socket file is unlinked.
    p4bid::serve::install_drain_handler();
    let result = if let Some(socket) = args.value("--socket") {
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

fn cmd_watch(args: &Args) -> ExitCode {
    let Ok(mut engine) = serve_engine(args) else {
        return ExitCode::from(2);
    };
    let dir = args.value("DIR").expect("parse requires DIR");
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("error: cannot watch `{dir}`: not a directory");
        return ExitCode::from(2);
    }
    p4bid::serve::install_drain_handler();
    let mut scanner = DirScanner::new(dir);
    let result = run_watch(
        &mut engine,
        &mut scanner,
        &mut std::io::stdout().lock(),
        &mut std::io::stderr().lock(),
        args.has("--json"),
        args.num("--max-epochs"),
        std::time::Duration::from_millis(args.num("--interval-ms").unwrap_or(500)),
    );
    finish_serve(args, &engine, result, "watch")
}

fn cmd_topo(args: &Args) -> ExitCode {
    let Ok(jobs) = parse_jobs(args) else {
        return ExitCode::from(2);
    };
    let manifest_path =
        std::path::Path::new(args.value("MANIFEST").expect("parse requires MANIFEST"));
    let topo = match p4bid::topo::Topology::load(manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let json = args.has("--json");
    let mut engine = p4bid::topo::TopoEngine::new(topo, check_options(args), jobs);
    if args.has("--watch") {
        p4bid::serve::install_drain_handler();
        let result = p4bid::topo::run_topo_watch(
            &mut engine,
            manifest_path,
            &mut std::io::stdout().lock(),
            &mut std::io::stderr().lock(),
            json,
            args.num("--max-epochs"),
            std::time::Duration::from_millis(args.num("--interval-ms").unwrap_or(500)),
        );
        print_stats(args, &engine.cumulative_stats(), "topo", Some(engine.epochs()), None);
        match result {
            Ok(summary) => {
                eprintln!("watched {} epoch(s)", summary.epochs);
                if summary.any_rejected {
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

fn cmd_matrix(_: &Args) -> ExitCode {
    print!("{}", render_matrix(&case_study_matrix()));
    ExitCode::SUCCESS
}

fn cmd_table1(args: &Args) -> ExitCode {
    print!("{}", render_table1(&measure_table1(args.num("ITERS").unwrap_or(1000))));
    ExitCode::SUCCESS
}

fn cmd_ni(args: &Args) -> ExitCode {
    let source = match read_source(args.value("FILE").expect("parse requires FILE")) {
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
    let control = match args.value("--control") {
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
    if let Some(runs) = args.num("--runs") {
        config = config.with_runs(runs);
    }
    if let Some(observe) = args.value("--observe") {
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

fn cmd_corpus(args: &Args) -> ExitCode {
    match args.value("NAME") {
        None => {
            for cs in p4bid::corpus::case_studies() {
                println!("{:<10} {:<28} {}", cs.name, cs.section, cs.description);
            }
            ExitCode::SUCCESS
        }
        Some(name) => match p4bid::corpus::case_study(name) {
            Some(cs) => {
                if args.has("--insecure") {
                    print!("{}", cs.insecure);
                } else if args.has("--unannotated") {
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

fn cmd_fuzz(args: &Args) -> ExitCode {
    let n: u64 = args.num("N").unwrap_or(200);
    let mut cfg = GenConfig::default();
    if let Some(bias) = args.num("--safe-bias") {
        cfg = cfg.with_safe_bias(bias);
    }
    // Serial remains the default; `--jobs 0` = one per core.
    let jobs = args.num("--jobs").unwrap_or(1);
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
