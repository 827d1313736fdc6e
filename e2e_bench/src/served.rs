//! The `served-families` workload: the `nncps-serve` daemon over loopback.
//!
//! Why: it is the only workload that exercises the warm-start layers shared
//! across family members, the session's outcome memo, `DiskStore` writes
//! and then reads, and the JSON line protocol.  The inputs are the builtin
//! family catalogue (254 members), so the seed changes nothing but the name
//! of the run's store directory.
//!
//! The daemon runs with `--threads 1`, pinned to one core of its own while
//! this process runs on the others, and one client connection drives it in
//! a closed loop: the next request goes out only after the previous `done`.
//! The pinning also makes the family members whose configs ask for
//! `threads = 0` simulate on one thread, since "one per available core"
//! counts the cores the affinity mask allows.  Every `_s` number is the
//! daemon's on-CPU time, read from its thread-group clock while this
//! process waits on the socket.  Each cycle:
//!
//! 1. start a daemon on a fresh `--store` and submit `family=all` cold;
//! 2. resubmit `family=all` to the same daemon (served by the outcome memo);
//! 3. restart the daemon on the populated store and resubmit once per
//!    restart (served by `DiskStore`).
//!
//! The cold submits stay under the 1% run-queue-wait flag.  The warm
//! resubmits exceed it even on an idle machine: each of their ~254 member
//! events hands over between the daemon's worker and connection threads,
//! and every wakeup spends some microseconds queued before it runs (1.5–3
//! ms in total against ~10 ms on CPU, measured on a 2-vCPU VM, whether or
//! not the connection thread shares the worker's core).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

use nncps::barrier::WarmStartStats;
use nncps::expr::Fingerprint;
use nncps::scenarios::{
    builtin_families, BatchReport, Json, PlantSpec, ScenarioResult, PROTOCOL_VERSION,
};
use nncps::sim::ExprDynamics;
use nncps::{ClosedLoopSystem, VerificationOutcome, VerificationRequest, WarmStart};

use crate::procfs::{
    allowed_cpus, cpu_mask, group_cpu_ns, peak_rss_mb, pin_to, CpuMask, PassCost, Sample,
};
use crate::replay::replay;
use crate::stats::median;
use crate::tally::Identity;
use crate::trace::{self_times, stage_table, Counters, Tracer};
use crate::{store_footprint, Run};

/// Cycles every run makes, however long they take.
const MIN_CYCLES: usize = 2;
/// Memo-warm resubmits and daemon restarts per cycle.
const RESUBMITS: usize = 20;
const RESTARTS: usize = 10;

/// A running `nncps-serve` with one client connection.  Dropping it kills
/// the process and waits for it.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pid: u32,
    /// On-CPU seconds from exec to the `pong` of the first `ping`.
    setup_s: f64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one `submit` looked like from the client.
struct Submit {
    cost: PassCost,
    /// Daemon on-CPU seconds from the request to the first `member` event.
    first_member_s: f64,
    /// Daemon on-CPU seconds from the last `member` event to `done`.
    report_s: f64,
    events: usize,
    bytes: usize,
    problems: Vec<String>,
    report: Option<String>,
}

impl Daemon {
    fn start(exe: &Path, store: &Path, cpu: Option<CpuMask>) -> Result<Daemon, String> {
        let mut command = Command::new(exe);
        if let Some(mask) = cpu {
            // SAFETY: the hook only makes the `sched_setaffinity` system
            // call, which is async-signal-safe.
            unsafe { command.pre_exec(move || pin_to(&mask)) };
        }
        let mut child = command
            .args(["--threads", "1", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let connected = (|| {
            let mut banner = String::new();
            stdout.read_line(&mut banner).map_err(|e| e.to_string())?;
            let addr = banner
                .trim()
                .strip_prefix("nncps-serve: listening on ")
                .ok_or_else(|| format!("unexpected banner {banner:?}"))?;
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            Ok::<_, String>((reader, stream))
        })();
        let (reader, writer) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not come up: {e}"));
            }
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            reader,
            writer,
            pid,
            setup_s: 0.0,
        };
        let pong = daemon.request("{\"op\": \"ping\"}")?;
        if pong.get("protocol").and_then(Json::as_str) != Some(PROTOCOL_VERSION) {
            return Err(format!("unexpected ping reply {}", pong.to_line()));
        }
        daemon.setup_s = group_cpu_ns(pid).map_err(|e| e.to_string())? as f64 * 1e-9;
        Ok(daemon)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("protocol: cannot send: {e}"))
    }

    fn read(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("protocol: daemon closed the connection".to_string()),
            Ok(_) if !line.ends_with('\n') => Err("protocol: torn line".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("protocol: {e}")),
        }
    }

    /// One request answered by one line.
    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        let reply = self.read()?;
        Json::parse(&reply).map_err(|e| format!("protocol: malformed reply: {e}"))
    }

    fn stats(&mut self) -> Result<Json, String> {
        let stats = self.request("{\"op\": \"stats\"}")?;
        match stats.get("event").and_then(Json::as_str) {
            Some("stats") => Ok(stats),
            _ => Err(format!(
                "protocol: unexpected stats reply {}",
                stats.to_line()
            )),
        }
    }

    /// `submit family=all`, read to its `done`.  Protocol failures end the
    /// run; wrong content is reported in `problems`.
    fn submit_all(&mut self, members: usize) -> Result<Submit, String> {
        let clock = |pid| group_cpu_ns(pid).map_err(|e| e.to_string());
        let begin = Sample::begin(self.pid).map_err(|e| e.to_string())?;
        self.send("{\"op\": \"submit\", \"family\": \"all\"}")?;
        let (mut first, mut last) = (None, begin.group_ns());
        let (mut events, mut bytes) = (0, 0);
        let mut problems = Vec::new();
        loop {
            let line = self.read()?;
            events += 1;
            bytes += line.len();
            let event =
                Json::parse(&line).map_err(|e| format!("protocol: malformed event: {e}"))?;
            match event.get("event").and_then(Json::as_str) {
                Some("member") => {
                    last = clock(self.pid)?;
                    first.get_or_insert(last);
                }
                Some("crash") => problems.push(format!("crash event {}", event.to_line())),
                Some("done") => {
                    let end = Sample::end(self.pid).map_err(|e| e.to_string())?;
                    let seconds = |ns: u64| ns as f64 * 1e-9;
                    let count = |key| event.get(key).and_then(Json::as_f64);
                    if count("members") != Some(members as f64) {
                        problems.push(format!(
                            "done reports {:?} members, expected {members}",
                            count("members")
                        ));
                    }
                    if count("crashed") != Some(0.0) {
                        problems.push(format!(
                            "done reports {:?} crashed members",
                            count("crashed")
                        ));
                    }
                    let report = event
                        .get("report")
                        .and_then(Json::as_str)
                        .map(str::to_string);
                    if report.is_none() {
                        problems.push("done has no report".to_string());
                    }
                    return Ok(Submit {
                        cost: begin.cost_until(&end),
                        first_member_s: seconds(first.unwrap_or(last) - begin.group_ns()),
                        report_s: seconds(end.group_ns() - last),
                        events,
                        bytes,
                        problems,
                        report,
                    });
                }
                _ => return Err(format!("protocol: unexpected event {}", event.to_line())),
            }
        }
    }
}

/// Checks a cold report: pinned family counts, no crashed member, and
/// byte-identity with the run's first cold report.
fn check_cold(submit: &mut Submit, first_cold: &Option<String>) {
    let Some(report) = &submit.report else { return };
    match BatchReport::from_json(report) {
        Ok(parsed) => {
            if let Err(findings) = parsed.check_family_counts() {
                submit.problems.extend(findings);
            }
        }
        Err(e) => submit.problems.push(format!("unparseable report: {e}")),
    }
    if first_cold.as_ref().is_some_and(|first| first != report) {
        submit
            .problems
            .push("cold report differs from the run's first".to_string());
    }
}

/// Checks that a resubmit's deterministic report is byte-identical to the
/// cold one.
fn check_resubmit(submit: &mut Submit, cold: &str) {
    if submit.report.as_deref().is_some_and(|r| r != cold) {
        submit
            .problems
            .push("report differs from the cold submit's".to_string());
    }
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// The daemon next to this executable (one build produces both).
fn daemon_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let daemon = exe.with_file_name("nncps-serve");
    if daemon.is_file() {
        Ok(daemon)
    } else {
        Err(format!("no daemon binary at {}", daemon.display()))
    }
}

/// Splits the allowed CPUs: the last one for the daemon, the rest for this
/// process.  `None` (no pinning) with a single allowed CPU.
fn split_cpus() -> Result<Option<CpuMask>, String> {
    let cpus = allowed_cpus().map_err(|e| format!("cannot read the CPU affinity: {e}"))?;
    let Some((&daemon, client)) = cpus.split_last().filter(|(_, rest)| !rest.is_empty()) else {
        return Ok(None);
    };
    pin_to(&cpu_mask(client)).map_err(|e| format!("cannot pin the client: {e}"))?;
    Ok(Some(cpu_mask(&[daemon])))
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let exe = daemon_exe()?;
    let daemon_cpu = split_cpus()?;
    let families = builtin_families();
    let members: usize = families.iter().map(|f| f.len()).sum();

    let mut setup = Vec::new();
    let mut verify = Vec::new();
    let mut resubmit = Vec::new();
    let mut restart = Vec::new();
    let mut peaks = Vec::new();
    let mut cycle_walls = Vec::new();
    let mut first_cold: Option<String> = None;
    // Per-layer observations (used by the traced run).
    let mut first_member = Vec::new();
    let mut report_s = Vec::new();
    let (mut bytes, mut events) = (0, 0);
    let mut cold_delta: Option<(Json, Json)> = None;
    let mut outcome_hits;
    let mut disk_outcome_hits = 0.0;
    let (mut disk_trace_hits, mut disk_candidate_hits) = (0.0, 0.0);
    let mut footprint;

    let (resubmits, restarts) = if run.trace {
        (11, 5)
    } else {
        (RESUBMITS, RESTARTS)
    };
    loop {
        let cycle_start = std::time::Instant::now();
        let store = run
            .out_dir
            .join(format!("served-store-{}-{}", run.seed, std::process::id()));
        let _ = std::fs::remove_dir_all(&store);

        let mut daemon = Daemon::start(&exe, &store, daemon_cpu)?;
        setup.push(daemon.setup_s);
        let before = daemon.stats()?;
        let mut cold = daemon.submit_all(members)?;
        let after = daemon.stats()?;
        check_cold(&mut cold, &first_cold);
        run.pass("cold-submit", cold.cost);
        run.tally
            .record("cold submit", std::mem::take(&mut cold.problems));
        verify.push(cold.cost.cpu_s);
        peaks.push(peak_rss_mb(daemon.pid).map_err(|e| e.to_string())?);
        let cold_report = cold.report.clone().unwrap_or_default();
        first_cold.get_or_insert_with(|| cold_report.clone());
        disk_trace_hits += counter(&after, "disk_trace_hits") - counter(&before, "disk_trace_hits");
        disk_candidate_hits +=
            counter(&after, "disk_candidate_hits") - counter(&before, "disk_candidate_hits");
        cold_delta.get_or_insert((before, after.clone()));

        for _ in 0..resubmits {
            let mut warm = daemon.submit_all(members)?;
            check_resubmit(&mut warm, &cold_report);
            run.pass("resubmit", warm.cost);
            run.tally
                .record("memo-warm resubmit", std::mem::take(&mut warm.problems));
            resubmit.push(warm.cost.cpu_s);
            first_member.push(warm.first_member_s);
            report_s.push(warm.report_s);
            (bytes, events) = (warm.bytes, warm.events);
        }
        let resubmitted = daemon.stats()?;
        outcome_hits = (counter(&resubmitted, "outcome_hits") - counter(&after, "outcome_hits"))
            / resubmits as f64;
        footprint = store_footprint(&store);
        drop(daemon);

        for _ in 0..restarts {
            let mut daemon = Daemon::start(&exe, &store, daemon_cpu)?;
            setup.push(daemon.setup_s);
            let before = daemon.stats()?;
            let mut warm = daemon.submit_all(members)?;
            let after = daemon.stats()?;
            check_resubmit(&mut warm, &cold_report);
            run.pass("restart-resubmit", warm.cost);
            run.tally
                .record("disk-warm resubmit", std::mem::take(&mut warm.problems));
            restart.push(warm.cost.cpu_s);
            disk_outcome_hits =
                counter(&after, "disk_outcome_hits") - counter(&before, "disk_outcome_hits");
            disk_trace_hits +=
                counter(&after, "disk_trace_hits") - counter(&before, "disk_trace_hits");
            disk_candidate_hits +=
                counter(&after, "disk_candidate_hits") - counter(&before, "disk_candidate_hits");
        }
        std::fs::remove_dir_all(&store).map_err(|e| format!("cannot remove store: {e}"))?;

        cycle_walls.push(cycle_start.elapsed().as_secs_f64());
        let cycle = median(&cycle_walls).expect("a cycle ran");
        if run.trace || (verify.len() >= MIN_CYCLES && run.remaining() < cycle + 1.0) {
            break;
        }
    }
    run.series("setup_s", &setup);
    run.series("verify_s", &verify);
    run.series("resubmit_s", &resubmit);
    run.series("restart_resubmit_s", &restart);

    if !run.trace {
        run.metric("setup_s", median(&setup).expect("daemon starts"), "s");
        run.metric("verify_s", median(&verify).expect("cold submits"), "s");
        run.metric("resubmit_s", median(&resubmit).expect("resubmits"), "s");
        run.metric(
            "restart_resubmit_s",
            median(&restart).expect("restarts"),
            "s",
        );
        run.metric("peak_rss_mb", median(&peaks).expect("cold submits"), "MB");
        return Ok(());
    }

    let cold_report = first_cold.expect("a cold submit ran");
    let warm = replay_families(run, &cold_report, verify[0])?;
    let (before, after) = cold_delta.expect("a cold submit ran");
    let hits = |key: &str| counter(&after, key) - counter(&before, key);
    let daemon_warm = WarmStartStats {
        formula_hits: hits("formula_hits") as usize,
        formula_misses: warm.formula_misses,
        trace_hits: hits("trace_hits") as usize,
        trace_misses: warm.trace_misses,
        candidate_hits: hits("candidate_hits") as usize,
        candidate_misses: warm.candidate_misses,
        disk_trace_hits: disk_trace_hits as usize,
        disk_candidate_hits: disk_candidate_hits as usize,
    };
    run.note(format!(
        "warm-start hits, daemon vs in-process replay: formula {} vs {}, trace {} vs {}, candidate {} vs {}",
        daemon_warm.formula_hits,
        warm.formula_hits,
        daemon_warm.trace_hits,
        warm.trace_hits,
        daemon_warm.candidate_hits,
        warm.candidate_hits
    ));
    crate::warm_metrics(run, &daemon_warm);
    run.metric("session.outcome_hits", outcome_hits, "count");
    run.metric("session.disk_outcome_hits", disk_outcome_hits, "count");
    run.metric("store.bytes", footprint.0 as f64, "bytes");
    run.metric("store.entries", footprint.1 as f64, "count");
    run.metric(
        "serve.first_member_s",
        median(&first_member).expect("resubmits"),
        "s",
    );
    run.metric("serve.report_s", median(&report_s).expect("resubmits"), "s");
    run.metric("serve.bytes", bytes as f64, "bytes");
    run.metric("serve.events", events as f64, "count");
    Ok(())
}

/// The traced replay of the cold submit, in process: every family member in
/// expansion order over one shared `WarmStart`, with the daemon's outcome
/// memo and per-plant dynamics sharing mirrored, checked member by member
/// against the daemon's cold report.  Returns the replay's warm-start
/// counters (the daemon's `stats` has no miss counts).
fn replay_families(
    run: &mut Run,
    cold_report: &str,
    untraced_s: f64,
) -> Result<WarmStartStats, String> {
    let reported = BatchReport::from_json(cold_report)?.results;
    let mut scenarios = Vec::new();
    for family in builtin_families() {
        scenarios.extend(family.expand().map_err(|e| e.to_string())?);
    }
    let warm = WarmStart::new();
    let mut plants: Vec<(PlantSpec, Arc<ExprDynamics>)> = Vec::new();
    let mut memo: HashMap<Fingerprint, VerificationOutcome> = HashMap::new();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let begin = Sample::begin(std::process::id()).map_err(|e| e.to_string())?;
    for (index, scenario) in scenarios.iter().enumerate() {
        tracer.set_member(index);
        tracer.enter("member");
        let system = tracer.span("build", || {
            let dynamics = match plants.iter().find(|(spec, _)| spec == scenario.plant()) {
                Some((_, found)) => Arc::clone(found),
                None => {
                    let built = Arc::new(scenario.plant().build_dynamics());
                    plants.push((scenario.plant().clone(), Arc::clone(&built)));
                    built
                }
            };
            ClosedLoopSystem::from_dynamics(&*dynamics, scenario.spec().clone())
        });
        let key = VerificationRequest::over(&system)
            .with_config(scenario.config().clone())
            .fingerprint();
        let outcome = match memo.get(&key) {
            Some(found) => found.clone(),
            None => {
                let outcome = replay(
                    &system,
                    scenario.config(),
                    Some(&warm),
                    &mut tracer,
                    &mut counters,
                );
                memo.insert(key, outcome.clone());
                outcome
            }
        };
        tracer.exit();
        let replayed = Identity::of(&ScenarioResult::from_outcome(scenario, &outcome, 0.0, 0.0));
        let problems = match reported.iter().find(|r| r.name == scenario.name()) {
            Some(daemon) => replayed.diff(&Identity::of(daemon)),
            None => vec!["member missing from the cold report".to_string()],
        };
        run.tally
            .record(&format!("replay of {}", scenario.name()), problems);
    }
    let cost = begin.cost_until(&Sample::end(std::process::id()).map_err(|e| e.to_string())?);
    run.pass("traced-replay", cost);
    let layers = self_times(tracer.spans());
    run.note(format!(
        "traced replay on-CPU {:.6} s without build, untraced cold submit {untraced_s:.6} s, \
         tracing overhead {:.6} s (the replay skips the protocol and the store)",
        cost.cpu_s - layers.get("build").copied().unwrap_or(0.0),
        cost.cpu_s - layers.get("build").copied().unwrap_or(0.0) - untraced_s
    ));
    run.note(format!(
        "stage table (in-process traced replay of the cold submit, {} members):\n{}",
        scenarios.len(),
        stage_table(&layers, &counters)
    ));
    run.spans = Some(crate::trace::spans_json(tracer.spans()));
    crate::layer_metrics(run, &layers, &counters);
    Ok(warm.stats())
}
