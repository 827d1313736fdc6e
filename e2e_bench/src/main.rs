//! End-to-end benchmark of the Figure-1 verification loop.
//!
//! ```text
//! bash e2e_bench/run.sh --workload registry-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root.  `run.sh` builds this package and the
//! `nncps-serve` daemon in release mode, then runs this binary.  Workloads
//! (each is documented, with why it was chosen, where it is defined):
//!
//! * `registry-cold` — the builtin registry, cold ([`inprocess::registry_members`]);
//! * `table1-wide` — the Table-1 widths 100/300/1000 ([`inprocess::table1_members`]);
//! * `served-families` — `nncps-serve` over loopback ([`served`]).
//!
//! Every `_s` metric is on-CPU seconds of the process doing the work (see
//! [`procfs`]); wall clock, hypervisor steal and run-queue wait are logged
//! per pass on stderr as diagnostics and never reported as metrics.  With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
//! replays the members through each layer's public calls under spans
//! ([`replay`], [`trace`]) and reports the per-layer metrics, after checking
//! that the replay reproduces the untraced results bit for bit.  The last
//! line of stdout is the JSON result; the spans and the pass log are written
//! to `.e2e_bench_out/` under the working directory.

mod inprocess;
mod procfs;
mod replay;
mod served;
mod stats;
mod tally;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use nncps::barrier::WarmStartStats;
use nncps::scenarios::Json;

use crate::procfs::PassCost;
use crate::tally::Tally;
use crate::trace::{Counters, LAYERS};

const USAGE: &str =
    "usage: e2e-bench --workload NAME --seed N --seconds S --trace 0|1 (run from the repository root)";

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["registry-cold", "table1-wide", "served-families"];

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "verify_s",
    "resubmit_s",
    "restart_resubmit_s",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 38] = [
    "build.cpu_s",
    "sim.cpu_s",
    "sim.rk4_steps",
    "sim.traces",
    "lp.cpu_s",
    "lp.solves",
    "lp.rows",
    "lp.cols",
    "compile.cpu_s",
    "compile.queries",
    "smt.cpu_s",
    "smt.queries",
    "smt.boxes_explored",
    "smt.boxes_pruned",
    "smt.bisections",
    "smt.instructions",
    "smt.specialized_tape_len_sum",
    "smt.newton_cuts",
    "level_set.cpu_s",
    "level_set.iterations",
    "other.cpu_s",
    "warm.formula_hits",
    "warm.formula_misses",
    "warm.trace_hits",
    "warm.trace_misses",
    "warm.candidate_hits",
    "warm.candidate_misses",
    "warm.disk_trace_hits",
    "warm.disk_candidate_hits",
    "warm.hit_ratio",
    "session.outcome_hits",
    "session.disk_outcome_hits",
    "store.bytes",
    "store.entries",
    "serve.first_member_s",
    "serve.report_s",
    "serve.bytes",
    "serve.events",
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("invalid --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("invalid --seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The state of one benchmark run: its settings, the operation tally, the
/// pass log, and the metrics reported so far.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub tally: Tally,
    pub spans: Option<Json>,
    seconds: f64,
    started: Instant,
    passes: Vec<(&'static str, PassCost)>,
    log: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    /// Seconds of the run's measuring time left.
    pub fn remaining(&self) -> f64 {
        self.seconds - self.started.elapsed().as_secs_f64()
    }

    /// Logs one pass with its noise diagnostics, flagging contention.
    pub fn pass(&mut self, kind: &'static str, cost: PassCost) {
        let line =
            format!(
            "pass {kind:<16} cpu_s={:.6} wall_s={:.6} steal_s={:.2} wait_s={:.6} exited_s={:.6}{}",
            cost.cpu_s,
            cost.wall_s,
            cost.steal_s,
            cost.wait_s,
            cost.exited_s,
            if cost.contended() { "  CONTENDED (run-queue wait > 1% of on-CPU)" } else { "" }
        );
        eprintln!("{line}");
        self.log.push(line);
        self.passes.push((kind, cost));
    }

    /// Wall-clock seconds of the logged passes of one kind.
    pub fn wall_of(&self, kind: &str) -> Vec<f64> {
        self.passes
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| c.wall_s)
            .collect()
    }

    /// Logs the summary of a metric's samples.
    pub fn series(&mut self, name: &str, values: &[f64]) {
        self.note(format!("{name}: {}", stats::summary(values)));
    }

    pub fn note(&mut self, text: String) {
        eprintln!("{text}");
        self.log.push(text);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Reports the traced layers' self times and work counters.
pub fn layer_metrics(run: &mut Run, layers: &BTreeMap<&'static str, f64>, counters: &Counters) {
    for layer in LAYERS {
        let seconds = layers.get(layer).copied().unwrap_or(0.0);
        run.metric(&format!("{layer}.cpu_s"), seconds, "s");
    }
    for (name, value) in counters.metrics() {
        run.metric(name, value as f64, "count");
    }
}

/// Reports the warm-start layer counters.
pub fn warm_metrics(run: &mut Run, warm: &WarmStartStats) {
    let pairs = [
        ("formula", warm.formula_hits, warm.formula_misses),
        ("trace", warm.trace_hits, warm.trace_misses),
        ("candidate", warm.candidate_hits, warm.candidate_misses),
    ];
    for (layer, hits, misses) in pairs {
        run.metric(&format!("warm.{layer}_hits"), hits as f64, "count");
        run.metric(&format!("warm.{layer}_misses"), misses as f64, "count");
    }
    run.metric("warm.disk_trace_hits", warm.disk_trace_hits as f64, "count");
    run.metric(
        "warm.disk_candidate_hits",
        warm.disk_candidate_hits as f64,
        "count",
    );
    let hits: usize = pairs.iter().map(|p| p.1).sum();
    let lookups: usize = pairs.iter().map(|p| p.1 + p.2).sum();
    let ratio = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };
    run.metric("warm.hit_ratio", ratio, "ratio");
}

/// Bytes and number of entry files of a disk store (scratch and quarantine
/// directories excluded).
pub fn store_footprint(root: &Path) -> (u64, u64) {
    let mut footprint = (0, 0);
    let Ok(kinds) = std::fs::read_dir(root) else {
        return footprint;
    };
    for kind in kinds.flatten() {
        if matches!(kind.file_name().to_str(), Some("tmp" | "quarantine")) {
            continue;
        }
        for entry in std::fs::read_dir(kind.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    footprint.0 += meta.len();
                    footprint.1 += 1;
                }
            }
        }
    }
    footprint
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(run: &Run) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::object([
                    ("value".to_string(), Json::Number(*value)),
                    ("unit".to_string(), Json::from(*unit)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    Json::object([
        ("correct".to_string(), Json::Bool(run.tally.failed == 0)),
        (
            "attempted".to_string(),
            Json::Number(run.tally.attempted as f64),
        ),
        ("failed".to_string(), Json::Number(run.tally.failed as f64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
    .to_line()
}

fn execute(args: &Args) -> Result<Run, String> {
    if !Path::new("SCENARIOS_expected.json").is_file() {
        return Err("run from the repository root (no SCENARIOS_expected.json here)".to_string());
    }
    let out_dir = PathBuf::from(".e2e_bench_out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        out_dir,
        tally: Tally::default(),
        spans: None,
        seconds: args.seconds,
        started: Instant::now(),
        passes: Vec::new(),
        log: Vec::new(),
        metrics: Vec::new(),
    };
    match args.workload.as_str() {
        "registry-cold" => inprocess::run(&mut run, inprocess::registry_members)?,
        "table1-wide" => inprocess::run(&mut run, inprocess::table1_members)?,
        "served-families" => served::run(&mut run)?,
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
    let contended = run.passes.iter().filter(|(_, c)| c.contended()).count();
    run.note(format!(
        "{} passes, {contended} contended; attempted {} failed {}",
        run.passes.len(),
        run.tally.attempted,
        run.tally.failed
    ));
    for finding in run.tally.findings.clone() {
        run.note(format!("FAILED {finding}"));
    }

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let reported: Vec<&str> = run.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut sorted_expected = expected.to_vec();
    let mut sorted_reported = reported.clone();
    sorted_expected.sort_unstable();
    sorted_reported.sort_unstable();
    assert_eq!(
        sorted_reported, sorted_expected,
        "the run reports exactly its metric set"
    );

    let name = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        run.out_dir.join(format!("{name}.log")),
        run.log.join("\n") + "\n",
    )
    .map_err(|e| format!("cannot write the pass log: {e}"))?;
    if let Some(spans) = &run.spans {
        std::fs::write(
            run.out_dir.join(format!("{name}.spans.json")),
            spans.to_string(),
        )
        .map_err(|e| format!("cannot write the spans: {e}"))?;
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e-bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(run) => {
            println!("{}", result_line(&run));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2e-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_bad_values_are_diagnosed() {
        let parsed = args("--workload table1-wide --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: "table1-wide".to_string(),
                seed: 7,
                seconds: 30.0,
                trace: true
            }
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload table1-wide --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload table1-wide --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload table1-wide --seed 1 --seconds 1").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn benchmark_json_names_exactly_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).unwrap();
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = Run {
            workload: "registry-cold".to_string(),
            seed: 1,
            trace: false,
            out_dir: PathBuf::new(),
            tally: Tally::default(),
            spans: None,
            seconds: 1.0,
            started: Instant::now(),
            passes: Vec::new(),
            log: Vec::new(),
            metrics: Vec::new(),
        };
        run.tally.record("member", Vec::new());
        run.metric("verify_s", 2.9512345678, "s");
        let line = result_line(&run);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"value\": 2.9512345678"), "{line}");
    }
}
