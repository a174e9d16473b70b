//! End-to-end tests for the streaming ingest daemon (`p4bid serve` /
//! `p4bid watch`): the real binary, fed over stdin / a Unix socket / a
//! watched directory, with per-epoch stdout asserted **byte-identical**
//! to `p4bid batch` on the same inputs — the serve determinism contract,
//! across `--jobs 1/2/8`. `p4bid topo --watch` shares the watch loop, so
//! its edit-to-epoch contract is pinned here too.

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const OK: &str = "control C(inout bit<8> x) { apply { x = x + 8w1; } }";
const OK2: &str = "control D(inout bit<16> y) { apply { y = y + 16w2; } }";
const LEAK: &str = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) { apply { l = h; } }";

fn p4bid() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p4bid"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p4bid-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `p4bid batch DIR [--json]` stdout — the byte-level reference every
/// serve epoch is held to.
fn batch_stdout(dir: &std::path::Path, json: bool) -> String {
    let mut cmd = p4bid();
    cmd.arg("batch").arg(dir);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("batch runs");
    String::from_utf8(out.stdout).expect("utf-8 batch report")
}

/// Runs `p4bid serve` with `feed` on stdin and returns its output.
fn serve_with_feed(args: &[&str], feed: &str) -> Output {
    let mut child = p4bid()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child.stdin.take().expect("stdin piped").write_all(feed.as_bytes()).expect("feed written");
    // Dropping stdin closes the feed; EOF flushes the final epoch.
    child.wait_with_output().expect("serve exits")
}

/// Feed lines for every `.p4` file of `dir`, sorted by name — the same
/// input order `p4bid batch DIR` uses, so the reports must match. The
/// `id` is explicit (the basename, as `batch` reports it): a pathless
/// request would default to the *full path* and never match.
fn path_feed(dir: &std::path::Path) -> String {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "p4"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| {
            format!(
                "{{\"id\": \"{}\", \"path\": \"{}\"}}\n",
                p.file_name().expect("file name").to_string_lossy(),
                p.display()
            )
        })
        .collect()
}

#[test]
fn serve_epochs_are_byte_identical_to_batch_across_jobs() {
    let epoch1 = scratch_dir("feed-a");
    std::fs::write(epoch1.join("a.p4"), OK).unwrap();
    std::fs::write(epoch1.join("b.p4"), LEAK).unwrap();
    std::fs::write(epoch1.join("c.p4"), "control {").unwrap();
    let epoch2 = scratch_dir("feed-b");
    std::fs::write(epoch2.join("d.p4"), OK2).unwrap();
    std::fs::write(epoch2.join("e.p4"), OK).unwrap();

    // Two epochs: a blank line splits them, EOF flushes the second.
    let feed = format!("{}\n{}", path_feed(&epoch1), path_feed(&epoch2));
    let expected = format!("{}{}", batch_stdout(&epoch1, false), batch_stdout(&epoch2, false));
    for jobs in ["1", "2", "8"] {
        let out = serve_with_feed(&["--jobs", jobs], &feed);
        assert_eq!(out.status.code(), Some(1), "epoch 1 has rejects (jobs={jobs})");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "serve stdout must be the concatenated batch reports (jobs={jobs})"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("epoch 0: checked 3 program(s)"), "{stderr}");
        assert!(stderr.contains("epoch 1: checked 2 program(s)"), "{stderr}");
        assert!(stderr.contains("served 2 epoch(s): 5 program(s) checked"), "{stderr}");
    }

    let _ = std::fs::remove_dir_all(epoch1);
    let _ = std::fs::remove_dir_all(epoch2);
}

#[test]
fn serve_json_emits_one_epoch_document_per_line() {
    let dir = scratch_dir("feed-json");
    std::fs::write(dir.join("a.p4"), OK).unwrap();
    std::fs::write(dir.join("z.p4"), LEAK).unwrap();

    let feed = format!("{}\n{}", path_feed(&dir), path_feed(&dir));
    let out = serve_with_feed(&["--json", "--jobs", "2"], &feed);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "one NDJSON document per epoch: {stdout}");
    assert!(lines[0].starts_with("{\"schema\": \"p4bid-serve-report/2\", \"epoch\": 0, "));
    assert!(lines[1].starts_with("{\"schema\": \"p4bid-serve-report/2\", \"epoch\": 1, "));
    // Apart from the epoch number, the two epoch documents are identical —
    // and their program objects are the exact bytes `p4bid batch --json`
    // embeds for the same inputs.
    assert_eq!(lines[0].replace("\"epoch\": 0", "\"epoch\": 1"), lines[1]);
    let batch_json = batch_stdout(&dir, true);
    for program_line in batch_json.lines().filter(|l| l.trim_start().starts_with("{\"index\"")) {
        let object = program_line.trim().trim_end_matches(',');
        assert!(lines[0].contains(object), "{object} not embedded in {}", lines[0]);
    }

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn serve_inline_sources_stats_and_refresh() {
    let feed = format!(
        "{{\"id\": \"inline-ok\", \"source\": \"{}\"}}\n\n{{\"id\": \"inline-ok2\", \"source\": \"{}\"}}\n",
        OK.replace('"', "\\\""),
        OK2.replace('"', "\\\""),
    );
    let out = serve_with_feed(&["--jobs", "1", "--refresh-every", "1", "--stats-json"], &feed);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("inline-ok") && stdout.contains("inline-ok2"), "{stdout}");
    let epoch_summaries =
        stdout.lines().filter(|l| *l == "1 program(s): 1 accepted, 0 rejected").count();
    assert_eq!(epoch_summaries, 2, "two one-program epoch tables: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("{\"schema\": \"p4bid-stats/5\", \"command\": \"serve\", \"epochs\": 2, "),
        "{stderr}"
    );
    assert!(!stdout.contains("p4bid-stats"), "stats stay off stdout: {stdout}");
}

#[test]
fn serve_skips_malformed_lines_without_dying() {
    let feed = format!(
        "this is not json\n{{\"id\": \"ok\", \"source\": \"{}\"}}\n{{\"path\": \"/nonexistent/ghost.p4\"}}\n",
        OK.replace('"', "\\\"")
    );
    let out = serve_with_feed(&["--jobs", "1"], &feed);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skipped request:"), "{stderr}");
    assert!(
        stderr.contains("served 1 epoch(s): 1 program(s) checked, 2 request(s) skipped"),
        "{stderr}"
    );
}

#[test]
fn serve_usage_errors() {
    let bad_jobs = p4bid().args(["serve", "--jobs", "0"]).output().expect("runs");
    assert_eq!(bad_jobs.status.code(), Some(2));
    let bad_epochs = p4bid().args(["serve", "--max-epochs", "soon"]).output().expect("runs");
    assert_eq!(bad_epochs.status.code(), Some(2));
    let no_dir = p4bid().args(["watch"]).output().expect("runs");
    assert_eq!(no_dir.status.code(), Some(2));
    let not_a_dir = p4bid().args(["watch", "/nonexistent/ghost-dir"]).output().expect("runs");
    assert_eq!(not_a_dir.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&not_a_dir.stderr).contains("not a directory"));
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
                    "daemon did not exit within {limit:?}; stdout so far: {}",
                    String::from_utf8_lossy(&out.stdout)
                );
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn watch_daemon_serves_epochs_as_files_drop() {
    let dir = scratch_dir("watch");
    std::fs::write(dir.join("first.p4"), OK).unwrap();

    let mut child = p4bid()
        .args([
            "watch",
            dir.to_str().unwrap(),
            "--interval-ms",
            "25",
            "--max-epochs",
            "2",
            "--jobs",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("watch spawns");

    // Read the daemon's stdout incrementally so the second file is only
    // dropped once the initial full-scan epoch has been reported.
    let stdout = child.stdout.take().expect("stdout piped");
    let seen = Arc::new(Mutex::new(Vec::<u8>::new()));
    let seen2 = Arc::clone(&seen);
    let reader = std::thread::spawn(move || {
        let mut stdout = stdout;
        let mut buf = [0u8; 4096];
        loop {
            match stdout.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => seen2.lock().unwrap().extend_from_slice(&buf[..n]),
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if String::from_utf8_lossy(&seen.lock().unwrap()).contains("program(s):") {
            break;
        }
        assert!(Instant::now() < deadline, "first epoch never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Atomic drop (write then rename) so no scan tick can observe a
    // half-written file — the contract the scanner documents for writers.
    std::fs::write(dir.join("second.tmp"), LEAK).unwrap();
    std::fs::rename(dir.join("second.tmp"), dir.join("second.p4")).unwrap();

    let out = wait_with_deadline(child, Duration::from_secs(30));
    reader.join().unwrap();
    assert_eq!(out.status.code(), Some(1), "the dropped-in leak fails the run");

    // Epoch 0 is the full initial scan, epoch 1 exactly the changed file:
    // each byte-identical to `p4bid batch` over those inputs.
    let only_first = scratch_dir("watch-ref1");
    std::fs::write(only_first.join("first.p4"), OK).unwrap();
    let only_second = scratch_dir("watch-ref2");
    std::fs::write(only_second.join("second.p4"), LEAK).unwrap();
    let expected =
        format!("{}{}", batch_stdout(&only_first, false), batch_stdout(&only_second, false));
    assert_eq!(String::from_utf8_lossy(&seen.lock().unwrap()), expected);

    for d in [dir, only_first, only_second] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The watch log attributes an edit to the first changed top-level item:
/// rewriting only the last of three items logs `changed: … (first change
/// at item 3/3)`, while the initial sighting of the file (no previous
/// fingerprint to diff against) logs a bare `changed:` line.
#[test]
fn watch_log_attributes_the_first_changed_item() {
    const THREE_ITEMS_V1: &str = "header h_t { bit<8> f; }\n\
         control A(inout bit<8> x) { apply { x = x + 8w1; } }\n\
         control B(inout bit<8> y) { apply { y = y + 8w2; } }\n";
    const THREE_ITEMS_V2: &str = "header h_t { bit<8> f; }\n\
         control A(inout bit<8> x) { apply { x = x + 8w1; } }\n\
         control B(inout bit<8> y) { apply { y = y + 8w3; } }\n";

    let dir = scratch_dir("watch-attr");
    std::fs::write(dir.join("multi.p4"), THREE_ITEMS_V1).unwrap();

    let mut child = p4bid()
        .args(["watch", dir.to_str().unwrap(), "--interval-ms", "25", "--max-epochs", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("watch spawns");

    let stdout = child.stdout.take().expect("stdout piped");
    let seen = Arc::new(Mutex::new(Vec::<u8>::new()));
    let seen2 = Arc::clone(&seen);
    let reader = std::thread::spawn(move || {
        let mut stdout = stdout;
        let mut buf = [0u8; 4096];
        loop {
            match stdout.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => seen2.lock().unwrap().extend_from_slice(&buf[..n]),
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if String::from_utf8_lossy(&seen.lock().unwrap()).contains("program(s):") {
            break;
        }
        assert!(Instant::now() < deadline, "first epoch never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Atomic rewrite of the same file, touching only the last item.
    std::fs::write(dir.join("multi.tmp"), THREE_ITEMS_V2).unwrap();
    std::fs::rename(dir.join("multi.tmp"), dir.join("multi.p4")).unwrap();

    let out = wait_with_deadline(child, Duration::from_secs(30));
    reader.join().unwrap();
    assert_eq!(out.status.code(), Some(0), "both versions accept");
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("changed: multi.p4\n"), "initial sighting is unattributed: {log}");
    assert!(
        log.contains("changed: multi.p4 (first change at item 3/3)"),
        "the edit is pinned to the last item: {log}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `--max-epochs 0` means one thing on both watchers: no scan and no
/// epoch, so a rejecting program still exits 0 with an empty stdout.
#[test]
fn max_epochs_zero_runs_no_epoch_on_either_watcher() {
    let dir = scratch_dir("max-epochs-zero");
    std::fs::write(dir.join("leak.p4"), LEAK).unwrap();
    let manifest = dir.join("net.topo");
    std::fs::write(&manifest, "[switch s]\nprogram = \"leak.p4\"\n").unwrap();
    let watch = p4bid()
        .args(["watch", dir.to_str().unwrap(), "--max-epochs", "0"])
        .output()
        .expect("watch runs");
    let topo = p4bid()
        .args(["topo", manifest.to_str().unwrap(), "--watch", "--max-epochs", "0"])
        .output()
        .expect("topo runs");
    for (out, last) in [(watch, "served 0 epoch(s)"), (topo, "watched 0 epoch(s)")] {
        let log = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{log}");
        assert!(out.stdout.is_empty(), "{log}");
        assert!(log.contains(last) && !log.contains("epoch 1"), "{log}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `topo --watch` runs on the watch loop: an atomic manifest edit that
/// adds a switch (with a program the watch has not read yet) is exactly
/// one epoch, whose report matches a one-shot check of the edited
/// manifest byte for byte. Deleting a program is logged, runs no epoch
/// and keeps the last good topology; restoring it is one epoch, served
/// from that topology's memo.
#[cfg(unix)]
#[test]
fn topo_watch_runs_one_epoch_per_edit() {
    const FWD: &str = "control F(inout <bit<8>, high> x) { apply { x = x + 8w1; } }";
    const SEED: &str = "control S(inout <bit<8>, high> y) { apply { y = y + 8w2; } }";
    let dir = scratch_dir("topo-watch-edit");
    let (manifest, program) = (dir.join("net.topo"), dir.join("a.p4"));
    // Writes `text` to `path` in one rename, as an editor would.
    let replace = |path: &std::path::Path, text: &str| {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).unwrap();
        std::fs::rename(&tmp, path).unwrap();
    };
    std::fs::write(&program, FWD).unwrap();
    std::fs::write(&manifest, "[switch a]\nprogram = \"a.p4\"\n").unwrap();
    let mut child = p4bid()
        .args(["topo", manifest.to_str().unwrap(), "--watch", "--json"])
        .args(["--interval-ms", "20", "--max-epochs", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("topo spawns");
    let stdout = Tail::new(child.stdout.take().expect("stdout piped"));
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));
    let epochs = || stderr.contents().matches("epoch ").count();
    // Fifteen ticks: long enough for any follow-up epoch to show.
    let settle = || std::thread::sleep(Duration::from_millis(300));
    stderr.wait_for("epoch 1: 1 switch(es)");

    // A `high` seed upstream of `a`: both switches check anew.
    std::fs::write(dir.join("seed.p4"), SEED).unwrap();
    replace(
        &manifest,
        "[switch seed]\nprogram = \"seed.p4\"\ningress = \"high\"\n\
         [link seed:p1 -> a:p1]\n[switch a]\nprogram = \"a.p4\"\n",
    );
    stderr.wait_for("epoch 2: 2 switch(es)");
    settle();
    assert_eq!(epochs(), 2, "one manifest edit, one epoch: {}", stderr.contents());

    std::fs::remove_file(&program).unwrap();
    stderr.wait_for(&format!("removed: {}", program.display()));
    stderr.wait_for("cannot reload");
    settle();
    assert_eq!(epochs(), 2, "a failed reload runs no epoch: {}", stderr.contents());

    replace(&program, FWD);
    let out = wait_with_deadline(child, Duration::from_secs(30));
    let log = stderr.contents();
    assert_eq!(out.status.code(), Some(0), "{log}");
    assert_eq!(epochs(), 3, "{log}");
    assert!(log.contains("epoch 3: 2 switch(es), 2 round(s), 0 recheck(s)"), "{log}");

    let reports = stdout.contents();
    let reports: Vec<&str> = reports.split_inclusive("\n}\n").collect();
    assert_eq!(reports.len(), 3, "{reports:?}");
    let oneshot =
        p4bid().args(["topo", manifest.to_str().unwrap(), "--json"]).output().expect("topo runs");
    assert_eq!(reports[1], String::from_utf8_lossy(&oneshot.stdout));
    assert!(reports[1].contains("\"switch_rechecks\": 2,"), "{}", reports[1]);
    assert_eq!(
        reports[2],
        reports[1].replace("\"switch_rechecks\": 2,", "\"switch_rechecks\": 0,"),
        "the restored program meets the last good topology"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `topo --watch` checks each file as the scanner read it: when every
/// scanner read fails (the `scan-eio` fault), the manifest and program
/// are logged unreadable, the reload fails and no epoch runs, even
/// though both files are on disk.
#[test]
fn topo_watch_runs_no_epoch_on_content_the_scanner_could_not_read() {
    let dir = scratch_dir("topo-watch-eio");
    let manifest = dir.join("net.topo");
    std::fs::write(dir.join("fwd.p4"), OK).unwrap();
    std::fs::write(&manifest, "[switch a]\nprogram = \"fwd.p4\"\n").unwrap();
    let mut child = p4bid()
        .args(["topo", manifest.to_str().unwrap(), "--watch", "--max-epochs", "1"])
        .args(["--interval-ms", "20"])
        .env("P4BID_FAULTS", "1:scan-eio=100")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("topo spawns");
    let stdout = Tail::new(child.stdout.take().expect("stdout piped"));
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));
    stderr.wait_for(&format!("cannot read: {}", manifest.display()));
    stderr.wait_for("cannot reload");
    // Fifteen ticks: long enough for an epoch to show if one ran.
    std::thread::sleep(Duration::from_millis(300));
    let exited = child.try_wait().expect("poll child");
    let _ = child.kill();
    let _ = child.wait();
    let log = stderr.contents();
    assert!(exited.is_none(), "the watch stopped although no epoch ran: {log}");
    assert!(!log.contains("epoch 1"), "{log}");
    assert_eq!(stdout.contents(), "", "{log}");
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(unix)]
#[test]
fn serve_socket_accepts_a_connection() {
    use std::os::unix::net::UnixStream;

    let dir = scratch_dir("socket");
    let socket = dir.join("p4bid.sock");
    let child = p4bid()
        .args(["serve", "--socket", socket.to_str().unwrap(), "--json", "--max-epochs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(_) => {
                assert!(Instant::now() < deadline, "socket never came up");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    stream
        .write_all(
            format!("{{\"id\": \"s\", \"source\": \"{}\"}}\n", OK.replace('"', "\\\"")).as_bytes(),
        )
        .expect("request written");
    drop(stream); // connection close flushes the epoch

    let out = wait_with_deadline(child, Duration::from_secs(30));
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"schema\": \"p4bid-serve-report/2\", \"epoch\": 0, "),
        "{stdout}"
    );
    assert!(stdout.contains("\"name\": \"s\", \"status\": \"accept\""), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Incremental reader over a child's stderr: the socket-resilience tests
/// gate their scripted interleavings on daemon log lines.
struct Tail {
    seen: Arc<Mutex<Vec<u8>>>,
}

impl Tail {
    fn new(mut from: impl std::io::Read + Send + 'static) -> Self {
        let seen = Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = Arc::clone(&seen);
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => sink.lock().unwrap().extend_from_slice(&buf[..n]),
                }
            }
        });
        Tail { seen }
    }

    fn contents(&self) -> String {
        String::from_utf8_lossy(&self.seen.lock().unwrap()).into_owned()
    }

    fn wait_for(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.contents().contains(needle) {
            assert!(
                Instant::now() < deadline,
                "`{needle}` never appeared on stderr; saw: {}",
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

/// A client that vanishes mid-request is logged and counted — never fatal:
/// a second client's feed completes and the daemon exits cleanly.
#[cfg(unix)]
#[test]
fn serve_socket_survives_a_midline_disconnect() {
    let dir = scratch_dir("socket-torn");
    let socket = dir.join("p4bid.sock");
    let mut child = p4bid()
        .args(["serve", "--socket", socket.to_str().unwrap(), "--jobs", "1", "--max-epochs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));

    let mut torn = connect_retry(&socket);
    stderr.wait_for("connection 0: accepted");
    torn.write_all(b"{\"id\": \"torn\", \"sour").expect("half a request");
    drop(torn); // disconnect mid-line
    stderr.wait_for("connection 0: skipped request:");

    let mut ok = connect_retry(&socket);
    stderr.wait_for("connection 1: accepted");
    ok.write_all(
        format!("{{\"id\": \"survivor\", \"source\": \"{}\"}}\n", OK.replace('"', "\\\""))
            .as_bytes(),
    )
    .expect("full request");
    drop(ok); // close flushes the epoch

    let out = wait_with_deadline(child, Duration::from_secs(30));
    assert_eq!(out.status.code(), Some(0), "{}", stderr.contents());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("survivor"), "{stdout}");
    assert!(
        stderr.contents().contains("served 1 epoch(s): 1 program(s) checked, 1 request(s) skipped"),
        "{}",
        stderr.contents()
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A newline-free 10 MiB feed is dropped as it streams (never buffered),
/// counted as skipped, and the daemon resynchronizes at the next newline.
#[test]
fn serve_survives_a_10mib_newline_free_feed() {
    let mut feed = "x".repeat(10 * 1024 * 1024);
    feed.push('\n');
    feed.push_str(&format!("{{\"id\": \"after\", \"source\": \"{}\"}}\n", OK.replace('"', "\\\"")));
    let out = serve_with_feed(&["--jobs", "1"], &feed);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("after"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("10485760-byte line exceeds the 1048576-byte cap"), "{stderr}");
    assert!(stderr.contains("1 request(s) skipped"), "{stderr}");
}

/// One scripted four-producer run: producers connect sequentially (gated
/// on the daemon's `connection N: accepted` log lines, pinning connection
/// ids), each submits two requests, and all four stay connected so the
/// epoch cut is the 8th arrival tripping `--max-epoch 8` — the epoch's
/// content and order are then fixed by the `(connection id, arrival seq)`
/// sequencer no matter how the submissions interleave.
#[cfg(unix)]
fn deterministic_producer_run(jobs: &str, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let socket = dir.join("p4bid.sock");
    let mut child = p4bid()
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--json",
            "--jobs",
            jobs,
            "--max-epoch",
            "8",
            "--max-epochs",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = Tail::new(child.stderr.take().expect("stderr piped"));

    let mut producers = Vec::new();
    for i in 0..4 {
        let mut stream = connect_retry(&socket);
        stderr.wait_for(&format!("connection {i}: accepted"));
        for (j, body) in [OK, OK2].iter().enumerate() {
            stream
                .write_all(
                    format!(
                        "{{\"id\": \"p{i}-{j}\", \"source\": \"{}\"}}\n",
                        body.replace('"', "\\\"")
                    )
                    .as_bytes(),
                )
                .expect("request written");
        }
        producers.push(stream);
    }

    let out = wait_with_deadline(child, Duration::from_secs(30));
    drop(producers);
    assert_eq!(out.status.code(), Some(0), "{}", stderr.contents());
    let _ = std::fs::remove_dir_all(dir);
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The determinism-under-concurrency contract: with 4 concurrent
/// producers, epoch output is byte-identical across repeated runs of the
/// same scripted interleaving and across `--jobs 1/2/8`, and programs
/// appear in `(connection id, arrival seq)` order.
#[cfg(unix)]
#[test]
fn four_concurrent_producers_yield_deterministic_epoch_output() {
    let runs = [("j1", "1"), ("j2", "2"), ("j8", "8"), ("j2-again", "2")];
    let outputs: Vec<String> = runs
        .iter()
        .map(|(tag, jobs)| deterministic_producer_run(jobs, &format!("socket-4p-{tag}")))
        .collect();

    let first = &outputs[0];
    assert!(first.contains("\"total\": 8"), "one epoch over all 8 requests: {first}");
    let mut last = 0;
    for i in 0..4 {
        for j in 0..2 {
            let needle = format!("\"name\": \"p{i}-{j}\"");
            let pos =
                first.find(&needle).unwrap_or_else(|| panic!("{needle} missing from {first}"));
            assert!(pos > last, "sequencer order violated at {needle}: {first}");
            last = pos;
        }
    }
    for (run, out) in runs.iter().zip(&outputs).skip(1) {
        assert_eq!(out, first, "run {} diverged from run {}", run.0, runs[0].0);
    }
}

/// Resubmitting an epoch is answered from the verdict cache — and the
/// report is byte-identical to the fresh check, with the hit/miss/size
/// counters surfaced in the `p4bid-stats/5` document.
#[test]
fn repeat_submissions_hit_the_verdict_cache_byte_identically() {
    let epoch = format!(
        "{{\"id\": \"a\", \"source\": \"{}\"}}\n{{\"id\": \"b\", \"source\": \"{}\"}}\n",
        OK.replace('"', "\\\""),
        LEAK.replace('"', "\\\""),
    );
    let feed = format!("{epoch}\n{epoch}\n{epoch}");
    let out = serve_with_feed(&["--jobs", "2", "--json", "--stats-json"], &feed);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "three NDJSON epoch documents: {stdout}");
    assert_eq!(
        lines[0].replace("\"epoch\": 0", "\"epoch\": 1"),
        lines[1],
        "cache hits must render byte-identically"
    );
    assert_eq!(lines[0].replace("\"epoch\": 0", "\"epoch\": 2"), lines[2]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"cache_hits\": 4, \"cache_misses\": 2, \"cache_size\": 2"),
        "{stderr}"
    );
}

/// `--policy` resolves per-program options inside every epoch: the same
/// body is accepted under the granting rule and rejected without it, and
/// the partitioned epochs stay byte-identical across worker counts and
/// across cached resubmission.
#[test]
fn serve_policies_stay_deterministic_across_jobs() {
    let declassifying = "control C(inout <bit<8>, low> l, inout <bit<8>, high> h) \
                         { apply { l = declassify(h); } }";
    let dir = scratch_dir("policy");
    let policy = dir.join("p4bid.policy");
    std::fs::write(&policy, "[declass-*]\ndeclassify = true\n").unwrap();
    let epoch = format!(
        "{{\"id\": \"declass-a\", \"source\": \"{0}\"}}\n\
         {{\"id\": \"plain-b\", \"source\": \"{0}\"}}\n",
        declassifying.replace('"', "\\\""),
    );
    let feed = format!("{epoch}\n{epoch}");
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let out = serve_with_feed(
            &["--jobs", jobs, "--json", "--policy", policy.to_str().unwrap()],
            &feed,
        );
        assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 2, "{stdout}");
        assert!(lines[0].contains("\"name\": \"declass-a\", \"status\": \"accept\""), "{stdout}");
        assert!(lines[0].contains("\"name\": \"plain-b\", \"status\": \"reject\""), "{stdout}");
        assert!(lines[0].contains("\"code\": \"E-DECLASSIFY-FORBIDDEN\""), "{stdout}");
        // The second (all-hit, cached) epoch renders identically.
        assert_eq!(lines[0].replace("\"epoch\": 0", "\"epoch\": 1"), lines[1], "{stdout}");
        outputs.push(stdout);
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
    let _ = std::fs::remove_dir_all(dir);
}

/// A 64-item program: a header, a struct, 61 controls of a dozen
/// statements each, and a `Tail` control that alone carries `tweak`.
/// Two values of `tweak` share a 63-item prefix.
fn many_item_program(tweak: u32) -> String {
    use std::fmt::Write as _;
    let body = |src: &mut String, field: &str, salt: u32| {
        for j in 0..12 {
            let _ = writeln!(src, "        h.f.{field} = (h.f.{field} + 32w{j}) ^ 32w{salt};");
        }
    };
    let mut src = String::from(
        "header it_t { <bit<32>, high> sec; <bit<32>, low> pub; }\nstruct ih { it_t f; }\n",
    );
    for i in 0..61 {
        let _ = writeln!(src, "control C{i}(inout ih h) {{\n    apply {{");
        body(&mut src, "pub", i);
        src.push_str("    }\n}\n");
    }
    src.push_str("control Tail(inout ih h) {\n    apply {\n");
    body(&mut src, "sec", tweak);
    src.push_str("    }\n}\n");
    src
}

#[test]
fn last_item_edits_resume_from_a_refrozen_warm_core() {
    use p4bid::batch::BatchInput;
    use p4bid::serve::ServeEngine;
    use p4bid::{CheckOptions, SharedSessionCore};

    // The steady state `serve --refresh-every N` converges to: one cold
    // check sights every control and harvests the program's names into a
    // refreeze, and a second check records the 62 controls in the memo.
    let core = SharedSessionCore::new(CheckOptions::ifc());
    let mut session = core.session();
    let _ = session.check(&many_item_program(0));
    let core = core.refreeze(vec![session.into_harvest().expect("core sessions harvest")]);
    let _ = core.session().check(&many_item_program(0));

    let mut warm = ServeEngine::with_core(core, 1);
    let no_prefix = SharedSessionCore::with_prefix_cache_cap(CheckOptions::ifc(), 0);
    let mut cold = ServeEngine::with_core(no_prefix, 1);
    // Each edit reuses the 61 unedited controls; the header and struct
    // are checked every time, and so is `Tail`. Each tweak comes up
    // twice: its first submission sights the edited `Tail`, its second
    // records it (the verdict cache is off, so both reach the checker).
    let tweaks = [1, 2, 3, 4, 1, 2, 3, 4];
    for tweak in tweaks {
        let input = [BatchInput::new("edit", many_item_program(tweak))];
        let resumed = warm.run_epoch(&input).to_ndjson();
        assert_eq!(resumed, cold.run_epoch(&input).to_ndjson(), "tweak {tweak}");
    }
    let edits = tweaks.len() as u64;
    let sessions = warm.cumulative_stats().sessions;
    assert_eq!(sessions.prefix_misses, edits, "only the edited control is checked");
    assert_eq!(sessions.prefix_hits, 61 * edits);
    assert_eq!(sessions.prefix_items_saved, 61 * edits);
    assert_eq!(sessions.prefix_inserts, 4, "each tweak is recorded on its second sighting");
    assert_eq!(cold.cumulative_stats().sessions.prefix_hits, 0);
}
