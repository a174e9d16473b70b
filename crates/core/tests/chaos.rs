//! Chaos end-to-end tests: the real binary under deterministic fault
//! injection (`P4BID_FAULTS`) and signal-driven shutdown.
//!
//! Every scenario here pins a seed chosen so the splitmix decision is
//! known in advance — seed `9` at `panic=40` fires for exactly one of the
//! three corpus programs below (the FNV-1a hash of `VICTIM`), and seed
//! `2` at `sock-eio=50` fires for connection id 0 but not 1. The suite
//! asserts the failure-domain contract end to end: an injected panic
//! becomes a deterministic `E-INTERNAL` verdict (byte-identical across
//! `--jobs 1/2/8`, never cached), injected slowness trips the wall-clock
//! guard, a poisoned connection is absorbed, and SIGTERM drains a busy
//! socket daemon instead of dropping its pending work.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OK: &str = "control C(inout bit<8> x) { apply { x = x + 8w1; } }";
const LEAK: &str = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }";
/// The program whose FNV-1a hash fires `panic=40` under seed 9.
const VICTIM: &str = "control D(inout bit<16> y) { apply { y = y + 16w2; } }";

/// The pinned check-fault plan: panics `VICTIM`, leaves `OK`/`LEAK` alone.
const PANIC_FAULTS: &str = "9:panic=40";

fn p4bid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p4bid"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p4bid-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A three-program corpus: one clean accept, one genuine reject, one
/// panic victim — so a chaotic run still exercises the ordinary verdicts
/// around the contained fault.
fn corpus_dir(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    std::fs::write(dir.join("a.p4"), OK).unwrap();
    std::fs::write(dir.join("b.p4"), LEAK).unwrap();
    std::fs::write(dir.join("c.p4"), VICTIM).unwrap();
    dir
}

fn batch_with_faults(dir: &std::path::Path, faults: &str, extra: &[&str]) -> Output {
    p4bid()
        .arg("batch")
        .arg(dir)
        .args(extra)
        .env("P4BID_FAULTS", faults)
        .output()
        .expect("batch runs")
}

/// An injected worker panic becomes a deterministic `E-INTERNAL` verdict:
/// the process survives, exits with the ordinary reject code, reports the
/// other programs normally, and emits byte-identical output across
/// `--jobs 1/2/8` — while the same run without `P4BID_FAULTS` accepts the
/// victim, proving the panic was the injection and nothing else.
#[test]
fn injected_panic_is_contained_and_deterministic_across_jobs() {
    let dir = corpus_dir("panic");

    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let out = batch_with_faults(&dir, PANIC_FAULTS, &["--jobs", jobs, "--stats-json"]);
        assert_eq!(out.status.code(), Some(1), "reject exit, not a crash (jobs={jobs})");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        assert!(stdout.contains("E-INTERNAL @ 0:0"), "{stdout}");
        let victim_row = stdout.lines().find(|l| l.contains("c.p4")).expect("victim row");
        assert!(victim_row.contains("REJECT") && victim_row.contains("E-INTERNAL"), "{victim_row}");
        let leak_row = stdout.lines().find(|l| l.contains("b.p4")).expect("leak row");
        assert!(leak_row.contains("REJECT") && !leak_row.contains("E-INTERNAL"), "{leak_row}");
        assert!(stdout.contains("3 program(s): 1 accepted, 2 rejected"), "{stdout}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("\"schema\": \"p4bid-stats/5\""), "{stderr}");
        assert!(stderr.contains("\"panics\": 1"), "{stderr}");
        outputs.push(stdout);
    }
    assert_eq!(outputs[0], outputs[1], "jobs 1 vs 2");
    assert_eq!(outputs[0], outputs[2], "jobs 1 vs 8");

    // Control: without the fault plan the victim is a perfectly fine
    // program, and nothing is internal-errored.
    let clean = p4bid().arg("batch").arg(&dir).output().expect("batch runs");
    assert_eq!(clean.status.code(), Some(1), "the leak still rejects");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(!stdout.contains("E-INTERNAL"), "{stdout}");
    assert!(stdout.contains("3 program(s): 2 accepted, 1 rejected"), "{stdout}");

    let _ = std::fs::remove_dir_all(dir);
}

/// The fuzz driver shares batch's panic boundary: under seed 9 at
/// `panic=20`, 10 of 60 generated programs panic. Each becomes a
/// `panicked` seed, not a crash or a soundness violation, and the run
/// prints the same line at every worker count.
#[test]
fn injected_fuzz_panics_are_contained_and_deterministic_across_jobs() {
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let out = p4bid()
            .args(["fuzz", "60", "--jobs", jobs, "--stats-json"])
            .env("P4BID_FAULTS", "9:panic=20")
            .output()
            .expect("fuzz runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "jobs={jobs}: {stderr}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        assert!(stdout.contains(", 10 panicked"), "jobs={jobs}: {stdout}");
        assert!(stderr.contains("\"panics\": 10"), "jobs={jobs}: {stderr}");
        outputs.push(stdout);
    }
    assert_eq!(outputs[0], outputs[1], "jobs 1 vs 2");
    assert_eq!(outputs[0], outputs[2], "jobs 1 vs 8");
}

/// Injected slowness (`slow=100` at 250 ms) against a 25 ms wall-clock
/// budget trips the `E-TIMEOUT` guard on every program — the resource
/// guard path, exercised deterministically.
#[test]
fn injected_slowness_trips_the_wall_clock_guard() {
    let dir = corpus_dir("slow");
    let out = batch_with_faults(
        &dir,
        "9:slow=100,slow-ms=250",
        &["--jobs", "2", "--check-timeout-ms", "25", "--stats-json"],
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E-TIMEOUT"), "{stdout}");
    assert!(stdout.contains("3 program(s): 0 accepted, 3 rejected"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"timeouts\": 3"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

/// A panicking body is never answered from the verdict cache: across two
/// identical epochs the steady program hits the cache once, while the
/// victim misses both times and panics both times.
#[test]
fn panicking_bodies_are_never_cached() {
    let epoch = format!(
        "{{\"id\": \"victim\", \"source\": \"{}\"}}\n{{\"id\": \"steady\", \"source\": \"{}\"}}\n",
        VICTIM.replace('"', "\\\""),
        OK.replace('"', "\\\""),
    );
    let feed = format!("{epoch}\n{epoch}");
    let mut child = p4bid()
        .args(["serve", "--jobs", "2", "--cache-cap", "64", "--stats-json"])
        .env("P4BID_FAULTS", PANIC_FAULTS)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child.stdin.take().expect("stdin piped").write_all(feed.as_bytes()).expect("feed written");
    let out = child.wait_with_output().expect("serve exits");

    assert_eq!(out.status.code(), Some(1), "E-INTERNAL verdicts reject");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let internal_rows = stdout.lines().filter(|l| l.contains("E-INTERNAL")).count();
    assert_eq!(internal_rows, 2, "the victim re-panics in epoch 2: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"panics\": 2"), "{stderr}");
    // Epoch 2: `steady` is a cache hit, `victim` a miss again — its
    // transient verdict was refused at insert.
    assert!(stderr.contains("\"cache_hits\": 1"), "{stderr}");
    assert!(stderr.contains("\"cache_misses\": 3"), "{stderr}");
}

/// A panicking switch is never memoized by `topo --watch`: after an edit
/// to its neighbour, the victim's label is unchanged, yet it is checked
/// (and panics) again rather than replaying its `E-INTERNAL` verdict.
#[cfg(unix)]
#[test]
fn topo_watch_rechecks_a_panicking_switch_every_epoch() {
    let dir = scratch_dir("topo-watch");
    let manifest = dir.join("net.topo");
    std::fs::write(
        &manifest,
        "[switch victim]\nprogram = \"victim.p4\"\n[switch steady]\nprogram = \"steady.p4\"\n",
    )
    .unwrap();
    std::fs::write(dir.join("victim.p4"), VICTIM).unwrap();
    std::fs::write(dir.join("steady.p4"), OK).unwrap();
    let mut child = p4bid()
        .args(["topo", manifest.to_str().unwrap(), "--watch", "--max-epochs", "2"])
        .args(["--interval-ms", "20", "--jobs", "2"])
        .env("P4BID_FAULTS", PANIC_FAULTS)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("topo spawns");
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));
    stderr.wait_for("epoch 1: 2 switch(es), 1 round(s), 2 recheck(s)");
    std::fs::write(dir.join("steady.p4"), LEAK).unwrap();

    let out = wait_with_deadline(child, Duration::from_secs(30));
    assert_eq!(out.status.code(), Some(1), "{}", stderr.contents());
    let log = stderr.contents();
    // Epoch 2: `steady` changed, and `victim` is retried, not replayed.
    assert!(log.contains("epoch 2: 2 switch(es), 1 round(s), 2 recheck(s)"), "{log}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("E-INTERNAL").count(), 2, "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Waits for `child` to exit, killing it after `limit` so a wedged daemon
/// fails the test instead of hanging the suite.
fn wait_with_deadline(mut child: Child, limit: Duration) -> Output {
    let start = Instant::now();
    loop {
        match child.try_wait().expect("poll child") {
            Some(_) => return child.wait_with_output().expect("collect output"),
            None if start.elapsed() > limit => {
                let _ = child.kill();
                let out = child.wait_with_output().expect("collect output");
                panic!(
                    "daemon did not exit within {limit:?}; stderr so far: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Incremental reader over a child's stderr, for gating on daemon log
/// lines (same idiom as the serve e2e suite).
#[cfg(unix)]
struct Tail {
    seen: Arc<Mutex<Vec<u8>>>,
}

#[cfg(unix)]
impl Tail {
    fn new(mut from: impl std::io::Read + Send + 'static) -> Self {
        let seen = Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = Arc::clone(&seen);
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => sink.lock().expect("tail lock").extend_from_slice(&buf[..n]),
                }
            }
        });
        Tail { seen }
    }

    fn contents(&self) -> String {
        String::from_utf8_lossy(&self.seen.lock().expect("tail lock")).into_owned()
    }

    fn wait_for(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.contents().contains(needle) {
            assert!(
                Instant::now() < deadline,
                "never saw {needle:?} in stderr:\n{}",
                self.contents()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[cfg(unix)]
fn connect_retry(socket: &std::path::Path) -> std::os::unix::net::UnixStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match std::os::unix::net::UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(_) => {
                assert!(Instant::now() < deadline, "socket never came up");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// An injected `EIO` on a socket connection (seed 2 fires for connection
/// id 0 only) is absorbed: the error is logged and counted, and a second
/// connection's work completes normally.
#[cfg(unix)]
#[test]
fn injected_socket_eio_poisons_one_connection_not_the_daemon() {
    let dir = scratch_dir("sock-eio");
    let socket = dir.join("p4bid.sock");
    let mut child = p4bid()
        .args(["serve", "--socket", socket.to_str().unwrap(), "--max-epochs", "1", "--stats-json"])
        .env("P4BID_FAULTS", "2:sock-eio=50")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));

    let doomed = connect_retry(&socket);
    stderr.wait_for("connection 0 error: injected fault: EIO reading socket");
    drop(doomed);

    let mut ok = connect_retry(&socket);
    stderr.wait_for("connection 1: accepted");
    ok.write_all(
        format!("{{\"id\": \"survivor\", \"source\": \"{}\"}}\n", OK.replace('"', "\\\""))
            .as_bytes(),
    )
    .expect("request written");
    drop(ok); // close flushes the epoch; --max-epochs 1 ends the daemon

    let out = wait_with_deadline(child, Duration::from_secs(30));
    assert_eq!(out.status.code(), Some(0), "{}", stderr.contents());
    assert!(String::from_utf8_lossy(&out.stdout).contains("survivor"));
    let log = stderr.contents();
    assert!(log.contains("\"conn_errors\": 1"), "{log}");
    assert!(log.contains("\"connections\": 2"), "{log}");
    let _ = std::fs::remove_dir_all(dir);
}

/// SIGTERM on a busy socket daemon drains instead of drops: the pending
/// request (submitted on a connection that never closes) is still checked
/// and reported, the final stats document flushes with `drained` counted,
/// the socket file is unlinked, and the exit code is the ordinary verdict
/// code — not a signal death.
#[cfg(unix)]
#[test]
fn sigterm_drains_pending_work_and_unlinks_the_socket() {
    let dir = scratch_dir("drain");
    let socket = dir.join("p4bid.sock");
    let mut child = p4bid()
        .args(["serve", "--socket", socket.to_str().unwrap(), "--jobs", "2", "--stats-json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));

    let mut pending = connect_retry(&socket);
    stderr.wait_for("connection 0: accepted");
    pending
        .write_all(
            format!("{{\"id\": \"pending\", \"source\": \"{}\"}}\n", OK.replace('"', "\\\""))
                .as_bytes(),
        )
        .expect("request written");
    // The connection stays open: no epoch cut is coming. Give the
    // connection thread time to enqueue the line, then ask for shutdown.
    std::thread::sleep(Duration::from_millis(500));
    let kill =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(kill.success(), "SIGTERM delivered");

    let out = wait_with_deadline(child, Duration::from_secs(30));
    drop(pending);
    assert_eq!(out.status.code(), Some(0), "clean verdict exit, not a signal death");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pending") && stdout.contains("accept"), "{stdout}");
    let log = stderr.contents();
    assert!(log.contains("\"schema\": \"p4bid-stats/5\""), "final stats flushed: {log}");
    assert!(log.contains("\"drained\": 1"), "{log}");
    assert!(!socket.exists(), "socket file must be unlinked on drain");
    let _ = std::fs::remove_dir_all(dir);
}

/// SIGTERM stops every connection's reader, not only the acceptor: a
/// client that streams distinct requests, each flushed by a blank line,
/// as fast as it can cannot keep the daemon alive. Intake stops, what is
/// pending drains as the final epoch(s), the daemon exits with the
/// verdict code, and the socket file is gone. How much was drained
/// depends on timing, so it is not pinned.
#[cfg(unix)]
#[test]
fn sigterm_stops_a_streaming_connection_and_exits() {
    let dir = scratch_dir("drain-stream");
    let socket = dir.join("p4bid.sock");
    // stdout goes nowhere, so a full pipe can never stall the daemon.
    let mut child = p4bid()
        .args(["serve", "--socket", socket.to_str().unwrap(), "--jobs", "1", "--stats-json"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));

    let mut stream = connect_retry(&socket);
    let writer = std::thread::spawn(move || {
        for i in 0u64.. {
            let line = format!(
                "{{\"id\": \"r{i}\", \"source\": \"control C(inout bit<64> x) {{ apply {{ x = x + \
                 64w{i}; }} }}\"}}\n\n"
            );
            if stream.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
    });
    stderr.wait_for("epoch 1:");
    let kill =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(kill.success(), "SIGTERM delivered");

    let out = wait_with_deadline(child, Duration::from_secs(30));
    writer.join().expect("writer stops once the daemon is gone");
    assert_eq!(out.status.code(), Some(0), "clean verdict exit: {}", stderr.contents());
    let log = stderr.contents();
    assert!(log.contains("\"schema\": \"p4bid-stats/5\""), "final stats flushed: {log}");
    assert!(!socket.exists(), "socket file must be unlinked on drain");
    let _ = std::fs::remove_dir_all(dir);
}

/// A panicking check never poisons the item memo: three programs share a
/// two-item prefix, one of them is fault-picked to panic every epoch, and
/// with `--refresh-every 1` the surviving programs' recorded controls
/// serve later epochs — `E-INTERNAL` for the victim, correct memo-answered
/// verdicts for its prefix-sharing siblings, byte-identical across epochs
/// and `--jobs`.
#[test]
fn injected_panics_never_poison_the_snapshot_tree() {
    // The workspace's 64-bit FNV-1a (`p4bid_ast::hash::fnv1a`) — the key
    // the fault plan fires on.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
    let plan = p4bid::faults::FaultPlan::parse(PANIC_FAULTS).expect("pinned plan parses");
    let fires = |src: &str| plan.fires(p4bid::faults::Site::WorkerPanic, fnv(src.as_bytes()));
    // A comment tail tunes each body's FNV-1a hash without touching the
    // shared item prefix, so the fault decision is forced per program.
    let tune = |body: String, want: bool| {
        (0u32..20_000)
            .map(|i| format!("{body}// {i}\n"))
            .find(|s| fires(s) == want)
            .expect("a tuned body exists")
    };
    const SHARED: &str = "header sh_t { <bit<8>, high> f; }\nstruct shs { sh_t h; }\n";
    let clean = tune(
        format!("{SHARED}control A(inout shs s) {{ apply {{ s.h.f = s.h.f + 8w1; }} }}\n"),
        false,
    );
    let leak = tune(
        format!(
            "{SHARED}control L(inout shs s, inout <bit<8>, low> l) {{ apply {{ l = s.h.f; }} }}\n"
        ),
        false,
    );
    let victim = tune(
        format!("{SHARED}control V(inout shs s) {{ apply {{ s.h.f = s.h.f + 8w2; }} }}\n"),
        true,
    );

    // The victim goes first: a caught panic swaps the torn worker session
    // for a fresh one, discarding everything its overlay had accumulated,
    // so with `--jobs 1` the siblings must run *after* the swap for their
    // names to survive into the refreeze harvest.
    let epoch = format!(
        "{{\"id\": \"victim\", \"source\": \"{}\"}}\n\
         {{\"id\": \"clean\", \"source\": \"{}\"}}\n\
         {{\"id\": \"leak\", \"source\": \"{}\"}}\n",
        victim.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"),
        clean.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"),
        leak.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n"),
    );
    let feed = format!("{epoch}\n{epoch}\n{epoch}");

    let mut outputs = Vec::new();
    for jobs in ["1", "2"] {
        let mut child = p4bid()
            .args([
                "serve",
                "--jobs",
                jobs,
                "--cache-cap",
                "0",
                "--refresh-every",
                "1",
                "--json",
                "--stats-json",
            ])
            .env("P4BID_FAULTS", PANIC_FAULTS)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve spawns");
        child.stdin.take().expect("stdin piped").write_all(feed.as_bytes()).expect("feed written");
        let out = child.wait_with_output().expect("serve exits");
        assert_eq!(out.status.code(), Some(1), "rejects, never crashes (jobs={jobs})");

        let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
        let docs: Vec<&str> = stdout.lines().collect();
        assert_eq!(docs.len(), 3, "three epoch documents: {stdout}");
        // Identical verdicts every epoch: the victim's panic is contained
        // and its siblings reuse clean records only.
        let strip = |doc: &str| doc.split_once(", \"programs\"").expect("epoch doc").1.to_string();
        assert_eq!(strip(docs[0]), strip(docs[1]), "epoch 0 vs 1");
        assert_eq!(strip(docs[0]), strip(docs[2]), "epoch 0 vs 2");
        for doc in &docs {
            assert!(doc.contains("\"name\": \"clean\", \"status\": \"accept\""), "{doc}");
            assert!(doc.contains("E-EXPLICIT-FLOW"), "{doc}");
            assert!(doc.contains("E-INTERNAL"), "{doc}");
        }

        let stderr = String::from_utf8_lossy(&out.stderr);
        let stat = |field: &str| -> u64 {
            let tail = stderr.split(&format!("\"{field}\": ")).nth(1).unwrap_or_else(|| {
                panic!("stats field `{field}` present: {stderr}");
            });
            tail.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().expect(field)
        };
        assert_eq!(stat("panics"), 3, "the victim re-panics every epoch");
        assert_eq!(stat("refreezes"), 2, "one refreeze per epoch boundary");
        // The victim panics before its check, so only `A` and `L` reach
        // the memo: sighted in epoch 0, recorded in epoch 1, reused in 2.
        assert_eq!(stat("prefix_inserts"), 2, "the siblings are recorded once: {stderr}");
        assert_eq!(stat("prefix_hits"), 2, "epoch 2 reuses both siblings: {stderr}");
        outputs.push(stdout);
    }
    assert_eq!(outputs[0], outputs[1], "jobs 1 vs 2");
}
