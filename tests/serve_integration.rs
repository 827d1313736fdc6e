//! Integration test of the `nncps-serve` daemon: spawn the real binary on an
//! ephemeral socket, drive it over the line protocol, and hold it to the
//! service's two core promises:
//!
//! 1. **Determinism across transports** — the deterministic report a daemon
//!    streams back is byte-identical to an in-process cold
//!    [`run_sweep`](nncps::scenarios::run_sweep) over the same family, and
//!    identical again when served from the whole-outcome memo or replayed
//!    from the on-disk store by a *restarted* daemon.
//! 2. **Warm economics** — the second submission of the same family returns
//!    at least 3× faster than the cold one (generous tolerance below: a
//!    sub-quarter-second warm response passes outright, so a blazing
//!    machine cannot flake the ratio).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use nncps::scenarios::{builtin_families, run_sweep, Family, Json, SweepOptions};

/// A running daemon that is killed on drop (so a failing assertion never
/// leaks a listener process into the test environment).
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(store: &Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nncps-serve"))
        .args(["--store", store.to_str().unwrap(), "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("nncps-serve spawns");
    // The contract: the first stdout line is the scrapeable banner, flushed
    // before the first accept.
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut banner)
        .expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("nncps-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    Daemon { child, addr }
}

/// One request line in, all response lines out (until the terminal event of
/// the op).  Returns the parsed terminal event.
fn request(addr: &str, line: &str, terminal: &str) -> Json {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    writeln!(writer, "{line}").expect("send request");
    let reader = BufReader::new(stream);
    for reply in reader.lines() {
        let reply = reply.expect("read response line");
        let event = Json::parse(&reply).expect("responses are valid JSON");
        match event.get("event").and_then(Json::as_str) {
            Some("error") => panic!("server rejected {line:?}: {reply}"),
            Some(kind) if kind == terminal => return event,
            _ => {}
        }
    }
    panic!("connection closed before a `{terminal}` event for {line:?}");
}

/// Submits a family and returns the deterministic report text plus the
/// wall-clock seconds of the whole round trip.
fn submit(addr: &str, family: &str) -> (String, f64) {
    let start = Instant::now();
    let done = request(
        addr,
        &format!("{{\"op\": \"submit\", \"family\": \"{family}\"}}"),
        "done",
    );
    let report = done
        .get("report")
        .and_then(Json::as_str)
        .expect("done event carries the deterministic report")
        .to_string();
    (report, start.elapsed().as_secs_f64())
}

fn shutdown(addr: &str) {
    request(addr, "{\"op\": \"shutdown\"}", "bye");
}

/// A fresh store directory private to one test.  The tests of this file
/// run concurrently in one process, so the name carries the test's `tag`
/// as well as the pid: a shared directory would let one test delete the
/// store another is still warm-starting from.
fn scratch_store(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("nncps-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn daemon_reports_match_in_process_sweeps_and_warm_start_from_disk() {
    let store = scratch_store("sweeps");
    let families: Vec<Family> = builtin_families()
        .into_iter()
        .filter(|f| f.name() == "linear-ci-grid")
        .collect();
    assert_eq!(families.len(), 1, "the CI grid family is built in");

    let daemon = spawn_daemon(&store);
    let pong = request(&daemon.addr, "{\"op\": \"ping\"}", "pong");
    assert_eq!(
        pong.get("protocol").and_then(Json::as_str),
        Some("nncps-serve/v1")
    );

    // Cold submission: every member runs the pipeline.
    let (cold_report, cold_secs) = submit(&daemon.addr, "linear-ci-grid");

    // The daemon's deterministic report is byte-identical to an in-process
    // cold sweep — serving adds a transport, never a semantic difference.
    let in_process = run_sweep(
        &families,
        &SweepOptions {
            threads: 1,
            warm_start: false,
            ..SweepOptions::default()
        },
    )
    .expect("in-process sweep")
    .to_json(false);
    assert_eq!(cold_report, in_process, "daemon vs in-process cold sweep");

    // Warm submission to the same daemon: served from the whole-outcome
    // memo, byte-identical and ≥3× faster (a sub-250 ms response passes
    // outright so fast machines cannot flake the ratio).
    let (warm_report, warm_secs) = submit(&daemon.addr, "linear-ci-grid");
    assert_eq!(cold_report, warm_report, "cold vs memo-warm report");
    assert!(
        warm_secs * 3.0 <= cold_secs || warm_secs < 0.25,
        "warm submission should be >=3x faster: cold {cold_secs:.3}s, warm {warm_secs:.3}s"
    );

    let stats = request(&daemon.addr, "{\"op\": \"stats\"}", "stats");
    assert!(
        stats
            .get("outcome_hits")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 24.0,
        "24 memo hits expected: {stats:?}"
    );
    assert!(
        stats
            .get("store_writes")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "the cold run must persist outcomes: {stats:?}"
    );

    // Clean shutdown on request; the process exits successfully and the
    // store survives it.
    shutdown(&daemon.addr);
    drop(daemon);

    // A restarted daemon over the same store never re-runs the pipeline:
    // outcomes replay from disk, byte-identical, still ≥3× faster than cold.
    let daemon = spawn_daemon(&store);
    let (disk_report, disk_secs) = submit(&daemon.addr, "linear-ci-grid");
    assert_eq!(cold_report, disk_report, "cold vs disk-warm report");
    assert!(
        disk_secs * 3.0 <= cold_secs || disk_secs < 0.25,
        "disk-warm submission should be >=3x faster: cold {cold_secs:.3}s, disk {disk_secs:.3}s"
    );
    let stats = request(&daemon.addr, "{\"op\": \"stats\"}", "stats");
    assert!(
        stats
            .get("disk_outcome_hits")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 24.0,
        "the restarted daemon must replay from disk: {stats:?}"
    );
    shutdown(&daemon.addr);
    drop(daemon);
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn client_binary_round_trips_through_the_daemon() {
    // The nncps-batch --connect client: submit through the daemon, write the
    // deterministic report, ask for shutdown, and exit 0 (the grid family's
    // pinned counts hold).
    let store = scratch_store("client");
    let daemon = spawn_daemon(&store);
    let out =
        std::env::temp_dir().join(format!("nncps-serve-it-client-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_nncps-batch"))
        .args([
            "--connect",
            &daemon.addr,
            "--family",
            "linear-ci-grid",
            "--out-deterministic",
            out.to_str().unwrap(),
            "--quiet",
            "--shutdown",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("nncps-batch runs");
    assert!(status.success(), "client exit: {status:?}");
    let report = std::fs::read_to_string(&out).expect("client wrote the report");
    let families: Vec<Family> = builtin_families()
        .into_iter()
        .filter(|f| f.name() == "linear-ci-grid")
        .collect();
    let in_process = run_sweep(&families, &SweepOptions::default())
        .expect("in-process sweep")
        .to_json(false);
    assert_eq!(report, in_process, "client-written report vs in-process");
    std::fs::remove_file(&out).ok();
    std::fs::remove_dir_all(&store).ok();
}
