//! `bench-compare` — the CI bench-regression comparator.
//!
//! Reads the JSON-lines file the criterion shim writes when `CRITERION_JSON`
//! is set, looks the same benchmark up in a checked-in baseline record
//! (such as `BENCH_pr5.json`; older `BENCH_pr2.json`-layout records still
//! parse), and fails when the current median per-iteration time regresses
//! beyond the tolerance.  `ci.sh` runs it for the default headline, for
//! `--bench substrate/family_sweep/warm_24`, and for the governed solver
//! lane.
//!
//! ```text
//! CRITERION_JSON=target/bench_current.jsonl \
//!     cargo bench --bench substrate_micro -- substrate/deltasat/decrease_query/50
//! cargo run --release -p nncps_bench --bin bench-compare -- \
//!     target/bench_current.jsonl BENCH_pr4.json
//! ```
//!
//! Defaults: benchmark `substrate/deltasat/decrease_query/50` (the
//! workspace's headline solver bench), tolerance 25%.  Override with
//! `--bench NAME` / `--tolerance PCT` or the `NNCPS_BENCH_TOLERANCE_PCT`
//! environment variable (flag wins).
//!
//! A second mode gates a *speedup within one run* instead of a regression
//! against a baseline: `bench-compare CURRENT.jsonl --speedup SLOW FAST
//! [--min RATIO]` fails unless `median(SLOW) / median(FAST) ≥ RATIO`
//! (default 2).  ci.sh uses it to hold the compiled closed-loop simulation
//! to ≥1.5× over the tree-walking reference.
//!
//! A third mode gates an *overhead within one run*: `bench-compare
//! CURRENT.jsonl --overhead BASE CANDIDATE [--max-pct PCT]` fails unless
//! `min(CANDIDATE) ≤ min(BASE) × (1 + PCT/100)` (default 2%).  Best-case
//! sample times are compared — unlike medians they converge with sample
//! count on a noisy shared host, which a single-digit-percent ceiling
//! needs.  ci.sh uses it to hold the budget-governed solver to ≤2% over
//! the ungoverned headline measured back-to-back in the same process.
//!
//! When the current benchmark is a new lane of an old headline, pass
//! `--baseline-bench NAME` to look a *different* name up in the baseline
//! record (e.g. gate `substrate/govern/decrease_query_50/governed` against
//! the record of `substrate/deltasat/decrease_query/50`).

use std::process::ExitCode;

use nncps_scenarios::Json;

const DEFAULT_BENCH: &str = "substrate/deltasat/decrease_query/50";
const DEFAULT_TOLERANCE_PCT: f64 = 25.0;

const DEFAULT_MIN_SPEEDUP: f64 = 2.0;
const DEFAULT_MAX_OVERHEAD_PCT: f64 = 2.0;

const USAGE: &str = "usage: bench-compare CURRENT.jsonl BASELINE.json [--bench NAME] [--baseline-bench NAME] [--tolerance PCT]\n       bench-compare CURRENT.jsonl --speedup SLOW FAST [--min RATIO]\n       bench-compare CURRENT.jsonl --overhead BASE CANDIDATE [--max-pct PCT]";

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(message) => {
            println!("{message}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("bench-compare: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let mut positional = Vec::new();
    let mut bench = DEFAULT_BENCH.to_string();
    let mut tolerance_pct = match std::env::var("NNCPS_BENCH_TOLERANCE_PCT") {
        Ok(value) => value
            .parse::<f64>()
            .map_err(|e| format!("invalid NNCPS_BENCH_TOLERANCE_PCT: {e}"))?,
        Err(_) => DEFAULT_TOLERANCE_PCT,
    };
    let mut speedup: Option<(String, String)> = None;
    let mut min_speedup = DEFAULT_MIN_SPEEDUP;
    let mut overhead: Option<(String, String)> = None;
    let mut max_overhead_pct = DEFAULT_MAX_OVERHEAD_PCT;
    let mut baseline_bench: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--bench" => bench = argv.next().ok_or_else(|| USAGE.to_string())?,
            "--baseline-bench" => {
                baseline_bench = Some(argv.next().ok_or_else(|| USAGE.to_string())?)
            }
            "--tolerance" => {
                tolerance_pct = argv
                    .next()
                    .ok_or_else(|| USAGE.to_string())?
                    .parse()
                    .map_err(|e| format!("invalid --tolerance: {e}"))?
            }
            "--speedup" => {
                let slow = argv.next().ok_or_else(|| USAGE.to_string())?;
                let fast = argv.next().ok_or_else(|| USAGE.to_string())?;
                speedup = Some((slow, fast));
            }
            "--min" => {
                min_speedup = argv
                    .next()
                    .ok_or_else(|| USAGE.to_string())?
                    .parse()
                    .map_err(|e| format!("invalid --min: {e}"))?
            }
            "--overhead" => {
                let base = argv.next().ok_or_else(|| USAGE.to_string())?;
                let candidate = argv.next().ok_or_else(|| USAGE.to_string())?;
                overhead = Some((base, candidate));
            }
            "--max-pct" => {
                max_overhead_pct = argv
                    .next()
                    .ok_or_else(|| USAGE.to_string())?
                    .parse()
                    .map_err(|e| format!("invalid --max-pct: {e}"))?
            }
            other => positional.push(other.to_string()),
        }
    }
    if let Some((base, candidate)) = overhead {
        let [current_path] = positional.as_slice() else {
            return Err(USAGE.to_string());
        };
        if !(0.0..1000.0).contains(&max_overhead_pct) {
            return Err(format!("maximum overhead {max_overhead_pct}% is not sane"));
        }
        let base_s = read_current_stat(current_path, &base, "min_s")?;
        let candidate_s = read_current_stat(current_path, &candidate, "min_s")?;
        let overhead_pct = (candidate_s / base_s - 1.0) * 100.0;
        let summary = format!(
            "`{candidate}` best case runs at {overhead_pct:+.2}% vs `{base}` \
             ({:.3} ms vs {:.3} ms, ceiling +{max_overhead_pct}%)",
            candidate_s * 1e3,
            base_s * 1e3,
        );
        return if overhead_pct > max_overhead_pct {
            Err(format!("OVERHEAD EXCEEDED: {summary}"))
        } else {
            Ok(format!("bench-compare: OK: {summary}"))
        };
    }
    if let Some((slow, fast)) = speedup {
        let [current_path] = positional.as_slice() else {
            return Err(USAGE.to_string());
        };
        if !(1.0..1000.0).contains(&min_speedup) {
            return Err(format!("minimum speedup {min_speedup}x is not sane"));
        }
        let slow_s = read_current_median(current_path, &slow)?;
        let fast_s = read_current_median(current_path, &fast)?;
        let ratio = slow_s / fast_s;
        let summary = format!(
            "`{fast}` runs {ratio:.2}x faster than `{slow}` \
             ({:.3} ms vs {:.3} ms, floor {min_speedup}x)",
            fast_s * 1e3,
            slow_s * 1e3,
        );
        return if ratio < min_speedup {
            Err(format!("SPEEDUP LOST: {summary}"))
        } else {
            Ok(format!("bench-compare: OK: {summary}"))
        };
    }
    let [current_path, baseline_path] = positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    if !(0.0..1000.0).contains(&tolerance_pct) {
        return Err(format!("tolerance {tolerance_pct}% is not sane"));
    }

    let current_s = read_current_median(current_path, &bench)?;
    let baseline_name = baseline_bench.as_deref().unwrap_or(&bench);
    let baseline_s = read_baseline_median(baseline_path, baseline_name)?;

    let limit_s = baseline_s * (1.0 + tolerance_pct / 100.0);
    let ratio = current_s / baseline_s;
    let summary = format!(
        "`{bench}`: current median {:.3} ms vs baseline {:.3} ms ({}{:.1}% {}, limit +{tolerance_pct}%)",
        current_s * 1e3,
        baseline_s * 1e3,
        if ratio >= 1.0 { "+" } else { "-" },
        (ratio - 1.0).abs() * 100.0,
        if ratio >= 1.0 { "slower" } else { "faster" },
    );
    if current_s > limit_s {
        Err(format!("REGRESSION: {summary}"))
    } else {
        Ok(format!("bench-compare: OK: {summary}"))
    }
}

/// Reads the median of `bench` from the shim's JSON-lines output.  When a
/// benchmark was sampled several times (e.g. the stage is re-run without
/// clearing the file), the **last** record wins.
fn read_current_median(path: &str, bench: &str) -> Result<f64, String> {
    read_current_stat(path, bench, "median_s")
}

/// Reads one statistic (`median_s`, `min_s`, ...) of `bench` from the
/// shim's JSON-lines output; the last record for the benchmark wins.
fn read_current_stat(path: &str, bench: &str, stat: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read current results {path}: {e}"))?;
    let mut found = None;
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record =
            Json::parse(line).map_err(|e| format!("{path}:{}: invalid record: {e}", index + 1))?;
        if record.get("bench").and_then(Json::as_str) == Some(bench) {
            found = Some(
                record
                    .get(stat)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}:{}: record has no {stat}", index + 1))?,
            );
        }
    }
    found.ok_or_else(|| {
        format!(
            "no record for `{bench}` in {path} — did the bench run with \
             CRITERION_JSON set and a filter matching it?"
        )
    })
}

/// Looks `bench` up in a checked-in baseline record.  The `results` array
/// (every `BENCH_*.json` since PR 4) is scanned for an entry whose `bench`
/// matches and its `median_s` is the baseline; records that predate that
/// layout (`BENCH_pr2.json`) fall back to the `seed_comparison` array's
/// `pr2_median_s` column.
fn read_baseline_median(path: &str, bench: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(entries) = json.get("results").and_then(Json::as_array) {
        for entry in entries {
            if entry.get("bench").and_then(Json::as_str) == Some(bench) {
                return entry
                    .get("median_s")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: entry for `{bench}` has no median_s"));
            }
        }
    }
    let entries = json
        .get("seed_comparison")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path} has neither a results nor a seed_comparison array"))?;
    for entry in entries {
        if entry.get("bench").and_then(Json::as_str) == Some(bench) {
            return entry
                .get("pr2_median_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: entry for `{bench}` has no pr2_median_s"));
        }
    }
    Err(format!("{path} has no baseline entry for `{bench}`"))
}
