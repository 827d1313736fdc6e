//! `nncps-batch` — run the falsify→verify pipeline over a scenario registry
//! (or a generated scenario family) and emit a machine-readable JSON report.
//!
//! ```text
//! cargo run --release --bin nncps-batch                       # run + print report
//! cargo run --release --bin nncps-batch -- --list             # list scenarios
//! cargo run --release --bin nncps-batch -- --filter dubins    # name substring filter
//! cargo run --release --bin nncps-batch -- --manifest f.toml  # TOML registry
//! cargo run --release --bin nncps-batch -- --out report.json  # write full report
//! cargo run --release --bin nncps-batch -- --check SCENARIOS_expected.json
//! cargo run --release --bin nncps-batch -- --write-expected SCENARIOS_expected.json
//!
//! # Scenario-family sweeps (trace, candidate and outcome memos shared
//! # across members; pass --cold to disable them):
//! cargo run --release --bin nncps-batch -- --list-families
//! cargo run --release --bin nncps-batch -- --family linear-ci-grid
//! cargo run --release --bin nncps-batch -- --family all --out sweep.json
//!
//! # Resource governance (per member; see ARCHITECTURE.md):
//! cargo run --release --bin nncps-batch -- --fuel 100000       # deterministic
//! cargo run --release --bin nncps-batch -- --deadline-ms 5000  # wall clock
//! ```
//!
//! `--check` exits nonzero on any verdict or witness-fingerprint drift
//! against the baseline; it is the CI scenario-regression gate.  Family runs
//! additionally gate on each family's pinned verdict *counts* (e.g.
//! "12 certified / 12 inconclusive") and exit nonzero on count drift.
//!
//! Exit codes are machine-readable so CI can tell failure modes apart:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | clean run, no drift, no crashes |
//! | 1    | usage or I/O error (bad flag, malformed manifest, unreadable baseline) |
//! | 2    | verdict/fingerprint/count drift against the pinned expectations |
//! | 3    | one or more members crashed (panicked); takes precedence over drift |

use std::process::ExitCode;

use nncps_scenarios::{
    builtin_families, families_from_toml_str, run_batch, run_sweep, BatchOptions, BatchReport,
    Family, Json, Registry, SweepOptions,
};

/// Clean run: every member completed, no drift.
const EXIT_OK: u8 = 0;
/// Usage or I/O error before/while producing the report.
const EXIT_USAGE: u8 = 1;
/// Verdict, fingerprint, or family-count drift against pinned expectations.
const EXIT_DRIFT: u8 = 2;
/// At least one member crashed (panicked); takes precedence over drift.
const EXIT_CRASHED: u8 = 3;

#[derive(Debug)]
struct Args {
    manifest: Option<String>,
    filter: Option<String>,
    threads: usize,
    fuel: Option<u64>,
    deadline_ms: Option<u64>,
    out: Option<String>,
    out_deterministic: Option<String>,
    check: Option<String>,
    write_expected: Option<String>,
    family: Option<String>,
    cold: bool,
    list: bool,
    list_families: bool,
    quiet: bool,
    connect: Option<String>,
    shutdown: bool,
}

const USAGE: &str = "usage: nncps-batch [--manifest FILE.toml] [--filter SUBSTRING] \
                     [--threads N] [--fuel INSTRUCTIONS] [--deadline-ms MS] \
                     [--out REPORT.json] [--out-deterministic REPORT.json] \
                     [--check EXPECTED.json] [--write-expected EXPECTED.json] \
                     [--family NAME|all] [--cold] [--list] [--list-families] [--quiet] \
                     [--connect ADDR] [--shutdown]";

/// Parses the CLI; `Ok(None)` means `--help` was requested.
fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        manifest: None,
        filter: None,
        threads: 0,
        fuel: None,
        deadline_ms: None,
        out: None,
        out_deterministic: None,
        check: None,
        write_expected: None,
        family: None,
        cold: false,
        list: false,
        list_families: false,
        quiet: false,
        connect: None,
        shutdown: false,
    };
    let mut argv = argv;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--manifest" => args.manifest = Some(value("--manifest")?),
            "--filter" => args.filter = Some(value("--filter")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?
            }
            "--fuel" => {
                args.fuel = Some(
                    value("--fuel")?
                        .parse()
                        .map_err(|e| format!("invalid --fuel: {e}"))?,
                )
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("invalid --deadline-ms: {e}"))?,
                )
            }
            "--out" => args.out = Some(value("--out")?),
            "--out-deterministic" => args.out_deterministic = Some(value("--out-deterministic")?),
            "--check" => args.check = Some(value("--check")?),
            "--write-expected" => args.write_expected = Some(value("--write-expected")?),
            "--family" => args.family = Some(value("--family")?),
            "--cold" => args.cold = true,
            "--connect" => args.connect = Some(value("--connect")?),
            "--shutdown" => args.shutdown = true,
            "--list" => args.list = true,
            "--list-families" => args.list_families = true,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

/// The families visible to this invocation: the built-in declarations plus
/// any `[[family]]` tables of the manifest.
fn available_families(manifest: Option<&str>) -> Result<Vec<Family>, String> {
    let mut families = builtin_families();
    if let Some(path) = manifest {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read manifest {path}: {e}"))?;
        // A scenarios-only manifest contributes no families.
        families.extend(
            families_from_toml_str(&text, &Registry::builtin()).map_err(|e| e.to_string())?,
        );
    }
    Ok(families)
}

/// Prints the crashed-member rows and folds the crash exit code into the
/// final verdict: crashes dominate drift, drift dominates success.
fn finish(report: &nncps_scenarios::BatchReport, drifted: bool) -> u8 {
    for crash in &report.crashed {
        eprintln!(
            "nncps-batch: CRASHED: member `{}` panicked: {}",
            crash.scenario, crash.payload
        );
    }
    if report.has_crashes() {
        EXIT_CRASHED
    } else if drifted {
        EXIT_DRIFT
    } else {
        EXIT_OK
    }
}

/// Client mode: submit the family selection to a resident `nncps-serve`
/// daemon instead of verifying in-process, stream its member events, and
/// apply the same drift/crash gates to the returned report.
fn run_client(args: &Args) -> Result<u8, String> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let addr = args.connect.as_deref().expect("client mode has an address");
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone connection: {e}"))?;
    let mut reader = BufReader::new(stream);
    let read_event = |reader: &mut BufReader<TcpStream>| -> Result<Json, String> {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("connection to {addr} failed: {e}"))?;
        if n == 0 {
            return Err(format!(
                "server at {addr} closed the connection mid-request"
            ));
        }
        // The protocol is one event per '\n'-terminated line.  `read_line`
        // also returns a *partial* line when the connection dies mid-write;
        // parsing that prefix could silently accept a truncated event, so a
        // missing terminator is a hard protocol error.
        if !line.ends_with('\n') {
            return Err(format!(
                "torn protocol line from {addr} (connection lost after {n} bytes of an unterminated event)"
            ));
        }
        Json::parse(line.trim()).map_err(|e| format!("malformed server response: {e}"))
    };

    let mut code = EXIT_OK;
    if let Some(selection) = &args.family {
        let mut request = vec![
            ("op".to_string(), Json::from("submit")),
            ("family".to_string(), Json::from(selection.as_str())),
        ];
        if let Some(fuel) = args.fuel {
            request.push(("fuel".to_string(), Json::Number(fuel as f64)));
        }
        if let Some(ms) = args.deadline_ms {
            request.push(("deadline_ms".to_string(), Json::Number(ms as f64)));
        }
        writeln!(writer, "{}", Json::object(request).to_line())
            .map_err(|e| format!("cannot send request: {e}"))?;
        let report = loop {
            let event = read_event(&mut reader)?;
            match event.get("event").and_then(Json::as_str) {
                Some("member") if !args.quiet => {
                    eprintln!(
                        "  {:<24} {:<13} ({:.2}s)",
                        event.get("name").and_then(Json::as_str).unwrap_or("?"),
                        event.get("verdict").and_then(Json::as_str).unwrap_or("?"),
                        event
                            .get("wall_time_s")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0),
                    );
                }
                Some("crash") => eprintln!(
                    "nncps-batch: CRASHED: member `{}` panicked: {}",
                    event.get("name").and_then(Json::as_str).unwrap_or("?"),
                    event.get("payload").and_then(Json::as_str).unwrap_or(""),
                ),
                Some("error") => {
                    return Err(format!(
                        "server rejected the request: {}",
                        event.get("message").and_then(Json::as_str).unwrap_or("?")
                    ))
                }
                Some("done") => break event,
                // Unknown events from a newer server are skipped, matching
                // the warn-and-ignore stance of the baseline checker.
                _ => {}
            }
        };
        let deterministic = report
            .get("report")
            .and_then(Json::as_str)
            .ok_or("done event carries no report")?;
        let timed = report
            .get("report_timed")
            .and_then(Json::as_str)
            .unwrap_or(deterministic);
        if let Some(path) = &args.out_deterministic {
            std::fs::write(path, deterministic).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &args.out {
            std::fs::write(path, timed).map_err(|e| format!("cannot write {path}: {e}"))?;
        } else if !args.quiet && args.out_deterministic.is_none() {
            print!("{timed}");
        }
        // Re-apply the sweep gates locally: the daemon reports, the client
        // decides the exit code (same rules as an in-process sweep).
        let parsed = BatchReport::from_json(deterministic)
            .map_err(|e| format!("cannot parse server report: {e}"))?;
        let drifted = match parsed.check_family_counts() {
            Ok(()) => false,
            Err(findings) => {
                for finding in &findings {
                    eprintln!("nncps-batch: DRIFT: {finding}");
                }
                true
            }
        };
        code = finish(&parsed, drifted);
    }
    if args.shutdown {
        writeln!(
            writer,
            "{}",
            Json::object([("op".to_string(), Json::from("shutdown"))]).to_line()
        )
        .map_err(|e| format!("cannot send shutdown: {e}"))?;
        let event = read_event(&mut reader)?;
        if event.get("event").and_then(Json::as_str) != Some("bye") {
            return Err(format!("unexpected shutdown response: {event:?}"));
        }
        if !args.quiet {
            eprintln!("nncps-batch: server at {addr} acknowledged shutdown");
        }
    }
    Ok(code)
}

/// The whole run after argument parsing.  `Err` is a one-line diagnostic
/// reported by `main` with [`EXIT_USAGE`]; `Ok` carries the exit code.
fn run(args: &Args) -> Result<u8, String> {
    if args.connect.is_some() {
        // Server-side verification: only the sweep-shaped flags make sense.
        for (flag, given) in [
            ("--check", args.check.is_some()),
            ("--write-expected", args.write_expected.is_some()),
            ("--filter", args.filter.is_some()),
            ("--manifest", args.manifest.is_some()),
            ("--list", args.list),
            ("--list-families", args.list_families),
            ("--cold", args.cold),
        ] {
            if given {
                return Err(format!(
                    "{flag} does not apply to --connect (the server owns its \
                     catalogue and caches)\n{USAGE}"
                ));
            }
        }
        if args.family.is_none() && !args.shutdown {
            return Err(format!(
                "--connect needs --family NAME|all and/or --shutdown\n{USAGE}"
            ));
        }
        return run_client(args);
    }
    if args.shutdown {
        return Err(format!("--shutdown only applies with --connect\n{USAGE}"));
    }
    if args.list_families {
        let families = available_families(args.manifest.as_deref())?;
        for family in &families {
            let counts = match family.expected_counts() {
                Some(c) => format!(
                    "{} certified / {} inconclusive",
                    c.certified, c.inconclusive
                ),
                None => "counts unpinned".to_string(),
            };
            println!(
                "{:<24} {:>4} members  expect {:<32} {}",
                family.name(),
                family.len(),
                counts,
                family.description()
            );
        }
        return Ok(EXIT_OK);
    }

    // --- family sweep mode ------------------------------------------------
    if let Some(selection) = &args.family {
        // Registry-only flags would be silently ignored here; refuse them so
        // a CI invocation never loses a gate it asked for.
        for (flag, given) in [
            ("--check", args.check.is_some()),
            ("--write-expected", args.write_expected.is_some()),
            ("--filter", args.filter.is_some()),
            ("--list", args.list),
        ] {
            if given {
                return Err(format!(
                    "{flag} applies to registry runs, not --family sweeps \
                     (family runs gate on pinned verdict counts instead)\n{USAGE}"
                ));
            }
        }
        let families = available_families(args.manifest.as_deref())?;
        let selected: Vec<Family> = if selection == "all" {
            families
        } else {
            families
                .into_iter()
                .filter(|f| f.name() == selection)
                .collect()
        };
        if selected.is_empty() {
            return Err(format!(
                "no family named `{selection}` (use --list-families)"
            ));
        }
        let members: usize = selected.iter().map(Family::len).sum();
        if !args.quiet {
            eprintln!(
                "nncps-batch: sweeping {} famil{} ({} members, warm start {})...",
                selected.len(),
                if selected.len() == 1 { "y" } else { "ies" },
                members,
                if args.cold { "off" } else { "on" },
            );
        }
        let report = run_sweep(
            &selected,
            &SweepOptions {
                threads: args.threads,
                warm_start: !args.cold,
                fuel: args.fuel,
                deadline_ms: args.deadline_ms,
            },
        )
        .map_err(|e| e.to_string())?;
        if !args.quiet {
            for rollup in &report.families {
                eprintln!(
                    "  {:<24} {:>4} members: {} certified / {} inconclusive ({})",
                    rollup.name,
                    rollup.members,
                    rollup.certified,
                    rollup.inconclusive,
                    if rollup.findings().is_empty() {
                        "as expected"
                    } else {
                        "DRIFT"
                    },
                );
            }
            let total: f64 = report
                .results
                .iter()
                .map(|r| r.wall_time_s + r.build_time_s)
                .sum();
            eprintln!("nncps-batch: sweep finished in {total:.2}s of scenario time");
        }
        if let Some(path) = &args.out_deterministic {
            std::fs::write(path, report.to_json(false))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = &args.out {
            std::fs::write(path, report.to_json(true))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        } else if args.quiet || args.out_deterministic.is_some() {
            // Stay silent (the CI determinism probe diffs the files).
        } else {
            print!("{}", report.to_json(true));
        }
        let drifted = match report.check_family_counts() {
            Ok(()) => false,
            Err(findings) => {
                for finding in &findings {
                    eprintln!("nncps-batch: DRIFT: {finding}");
                }
                true
            }
        };
        return Ok(finish(&report, drifted));
    }

    // --- registry mode ----------------------------------------------------
    let registry = match &args.manifest {
        Some(path) => Registry::from_toml_file(path).map_err(|e| e.to_string())?,
        None => Registry::builtin(),
    };
    let registry = match &args.filter {
        Some(pattern) => registry.filtered(pattern),
        None => registry,
    };
    if registry.is_empty() {
        return Err("no scenarios selected".to_string());
    }

    if args.list {
        for scenario in &registry {
            println!(
                "{:<24} {:<10} expect {:<13} {}",
                scenario.name(),
                scenario.plant().kind(),
                scenario.expected(),
                scenario.description()
            );
        }
        return Ok(EXIT_OK);
    }

    // Read the baseline before the (expensive) run so a bad path fails fast.
    let baseline = match &args.check {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?,
        ),
        None => None,
    };

    if !args.quiet {
        eprintln!(
            "nncps-batch: running {} scenario(s) over {} worker thread(s)...",
            registry.len(),
            if args.threads == 0 {
                "per-core".to_string()
            } else {
                args.threads.to_string()
            }
        );
    }
    let report = run_batch(
        &registry,
        &BatchOptions {
            threads: args.threads,
            fuel: args.fuel,
            deadline_ms: args.deadline_ms,
        },
    );
    if !args.quiet {
        for result in &report.results {
            eprintln!(
                "  {:<24} {:<13} ({}, {:.2}s) {}",
                result.name,
                result.verdict,
                if result.matches_expected {
                    "as expected"
                } else {
                    "UNEXPECTED"
                },
                result.wall_time_s + result.build_time_s,
                result.fingerprint(),
            );
        }
    }

    if let Some(path) = &args.write_expected {
        std::fs::write(path, report.expected_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            eprintln!("nncps-batch: baseline written to {path}");
        }
    }
    if let Some(path) = &args.out_deterministic {
        std::fs::write(path, report.to_json(false))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json(true))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    } else if args.check.is_none()
        && args.write_expected.is_none()
        && args.out_deterministic.is_none()
    {
        print!("{}", report.to_json(true));
    }

    let mut drifted = false;
    if let Some(baseline) = &baseline {
        match report.check_against_expected(baseline) {
            Ok(warnings) => {
                // Forward-compat: fields written by a newer tool are ignored
                // with a warning, never a hard failure.
                for warning in &warnings {
                    eprintln!("nncps-batch: warning: {warning}");
                }
                if !args.quiet {
                    eprintln!(
                        "nncps-batch: no drift against {} ({} scenario(s))",
                        args.check.as_deref().unwrap_or_default(),
                        report.results.len()
                    );
                }
            }
            Err(findings) => {
                for finding in &findings {
                    eprintln!("nncps-batch: DRIFT: {finding}");
                }
                drifted = true;
            }
        }
    }
    if !report.all_match_expected() {
        for result in report.results.iter().filter(|r| !r.matches_expected) {
            eprintln!(
                "nncps-batch: UNEXPECTED VERDICT: `{}` expected {}, got {}",
                result.name, result.expected, result.verdict
            );
        }
        drifted = true;
    }
    Ok(finish(&report, drifted))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("nncps-batch: {message}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("nncps-batch: {message}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    /// A unique scratch path that never existed (no file is created).
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nncps-batch-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn governance_flags_parse_and_bad_values_are_diagnosed() {
        let args = parse(&["--fuel", "12345", "--deadline-ms", "250"])
            .unwrap()
            .unwrap();
        assert_eq!(args.fuel, Some(12345));
        assert_eq!(args.deadline_ms, Some(250));
        let err = parse(&["--fuel", "lots"]).unwrap_err();
        assert!(err.contains("invalid --fuel"), "{err}");
        let err = parse(&["--deadline-ms"]).unwrap_err();
        assert!(err.contains("--deadline-ms needs a value"), "{err}");
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn malformed_manifest_is_a_one_line_usage_error() {
        let path = scratch("bad-manifest.toml");
        std::fs::write(&path, "[[scenario]]\nthis is not toml = = =\n").unwrap();
        let args = parse(&["--manifest", path.to_str().unwrap()])
            .unwrap()
            .unwrap();
        let err = run(&args).unwrap_err();
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_manifest_file_is_a_usage_error() {
        let path = scratch("no-such-manifest.toml");
        let args = parse(&["--manifest", path.to_str().unwrap()])
            .unwrap()
            .unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.contains(path.to_str().unwrap()), "{err}");
    }

    #[test]
    fn unreadable_check_baseline_fails_fast_before_the_run() {
        let path = scratch("no-such-baseline.json");
        let args = parse(&["--check", path.to_str().unwrap(), "--quiet"])
            .unwrap()
            .unwrap();
        // The baseline is read before any scenario runs, so this returns
        // immediately even though the builtin registry would take minutes.
        let err = run(&args).unwrap_err();
        assert!(err.contains("cannot read baseline"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
    }

    #[test]
    fn unknown_family_and_conflicting_flags_are_usage_errors() {
        let args = parse(&["--family", "no-such-family"]).unwrap().unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.contains("no family named `no-such-family`"), "{err}");

        let args = parse(&["--family", "all", "--check", "x.json"])
            .unwrap()
            .unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--check applies to registry runs"), "{err}");
    }

    /// A fake `nncps-serve`: accepts one connection, reads the request line,
    /// plays back the given raw bytes, and drops the connection.
    fn fake_server(script: &'static [u8]) -> (String, std::thread::JoinHandle<()>) {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut request)
                .expect("read request");
            stream.write_all(script).expect("write script");
            stream.flush().expect("flush");
            // Dropping the stream sends FIN: the connection dies here.
        });
        (addr, handle)
    }

    fn connect_args(addr: &str) -> Args {
        parse(&["--connect", addr, "--family", "all", "--quiet"])
            .unwrap()
            .unwrap()
    }

    #[test]
    fn client_rejects_a_torn_protocol_line() {
        // One complete member event, then a line cut mid-JSON with no
        // terminating newline — the shape of a daemon killed mid-write.
        let (addr, server) = fake_server(
            b"{\"event\":\"member\",\"name\":\"m0\",\"verdict\":\"certified\",\"wall_time_s\":0}\n\
              {\"event\":\"member\",\"na",
        );
        let err = run_client(&connect_args(&addr)).unwrap_err();
        assert!(err.contains("torn protocol line"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        server.join().unwrap();
    }

    #[test]
    fn client_reports_a_mid_stream_disconnect() {
        // Complete member events but no `done`: the daemon disconnects
        // mid-stream on a clean line boundary.
        let (addr, server) = fake_server(
            b"{\"event\":\"member\",\"name\":\"m0\",\"verdict\":\"certified\",\"wall_time_s\":0}\n\
              {\"event\":\"member\",\"name\":\"m1\",\"verdict\":\"inconclusive\",\"wall_time_s\":0}\n",
        );
        let err = run_client(&connect_args(&addr)).unwrap_err();
        assert!(err.contains("closed the connection mid-request"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err:?}");
        server.join().unwrap();
    }

    #[test]
    fn exit_codes_fold_crashes_over_drift() {
        use nncps_scenarios::{BatchReport, CrashedMember};
        let clean = BatchReport {
            threads: 1,
            results: Vec::new(),
            families: Vec::new(),
            crashed: Vec::new(),
        };
        assert_eq!(finish(&clean, false), EXIT_OK);
        assert_eq!(finish(&clean, true), EXIT_DRIFT);
        let crashed = BatchReport {
            crashed: vec![CrashedMember {
                scenario: "boom".to_string(),
                payload: "injected".to_string(),
            }],
            ..clean
        };
        assert_eq!(finish(&crashed, false), EXIT_CRASHED);
        assert_eq!(finish(&crashed, true), EXIT_CRASHED, "crash beats drift");
    }
}
