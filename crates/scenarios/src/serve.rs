//! The serve engine: verification-as-a-service over a line-based JSON
//! protocol.
//!
//! A resident verification server outlives any single sweep, which changes
//! the economics of warm starting: the second client to submit a family pays
//! only for cache lookups, and with an on-disk store even a *restarted*
//! server replays earlier work.  This module is the transport-agnostic core
//! of that server — [`ServeEngine::handle_line`] maps one request line to a
//! stream of response lines, and the `nncps-serve` binary is a thin
//! TCP shim around it (one connection per thread, one `handle_line` call per
//! request line).  Keeping the engine free of sockets makes the protocol
//! unit-testable in-process and lets the request-overhead benchmark measure
//! the engine without network noise.
//!
//! # Protocol
//!
//! One JSON object per line in each direction (`\n`-terminated, no framing
//! beyond that).  Requests:
//!
//! ```text
//! {"op": "ping"}
//! {"op": "stats"}
//! {"op": "submit", "family": "all" | NAME, "fuel": N?, "deadline_ms": N?}
//! {"op": "shutdown"}
//! ```
//!
//! Responses (one or more lines per request; the terminal line of a submit
//! is its `done` event):
//!
//! ```text
//! {"event": "pong", "protocol": "nncps-serve/v1"}
//! {"event": "stats", ...cache/store counters...}
//! {"event": "member", "index": i, "name": ..., "verdict": ..., ...}
//! {"event": "crash", "index": i, "name": ..., "payload": ...}
//! {"event": "done", "members": n, "crashed": n, "report": TEXT,
//!  "report_timed": TEXT}
//! {"event": "bye"}
//! {"event": "error", "message": ...}
//! ```
//!
//! `member` events stream in **completion order** (the pool makes no
//! ordering promises); the `done` event carries the full report assembled in
//! expansion order, so its `report` field — the deterministic serialization,
//! embedded as a JSON string — is byte-identical to an in-process
//! [`run_sweep`](crate::run_sweep) over the same families.  Unknown request
//! fields are ignored (same forward-compatibility stance as the baseline
//! checker); unknown *ops* are errors.  A `submit`'s optional `fuel` and
//! `deadline_ms` must be non-negative integers; any other value is an
//! `error` reply, never a coerced limit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use nncps_barrier::{DiskStore, VerificationSession};
use nncps_parallel::{catch_crash, Crash, WorkerPool};

use crate::family::Family;
use crate::json::Json;
use crate::report::ScenarioResult;
use crate::runner::{
    assemble_sweep_report, expand_families, member_budget, run_scenario_governed, SweepCache,
};
use crate::scenario::Scenario;

/// Protocol identifier reported by `ping` and checked by clients.
pub const PROTOCOL_VERSION: &str = "nncps-serve/v1";

/// What the caller should do after a request line has been handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Keep reading request lines.
    Continue,
    /// The client asked the server to shut down: stop accepting work.
    Shutdown,
}

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Worker threads of the resident pool (`0` = one per available core).
    pub threads: usize,
    /// Root directory of the content-addressed on-disk store; `None` keeps
    /// all caches in memory (they still persist across *requests*, just not
    /// across server restarts).
    pub store: Option<PathBuf>,
}

/// The resident verification service: a family catalogue, one shared
/// [`SweepCache`] (session + optional disk store) that lives for the
/// server's lifetime, and a long-lived single-queue [`WorkerPool`].
///
/// # Examples
///
/// ```
/// use nncps_scenarios::{builtin_families, Directive, ServeEngine, ServeOptions};
///
/// let engine = ServeEngine::new(
///     builtin_families(),
///     &ServeOptions { threads: 1, store: None },
/// )
/// .unwrap();
/// let mut replies = Vec::new();
/// let directive = engine.handle_line("{\"op\": \"ping\"}", &mut |line| {
///     replies.push(line.to_string());
/// });
/// assert_eq!(directive, Directive::Continue);
/// assert!(replies[0].contains("\"pong\""));
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    families: Vec<Family>,
    cache: Arc<SweepCache>,
    pool: WorkerPool,
    requests: AtomicUsize,
    members_verified: AtomicUsize,
}

impl ServeEngine {
    /// Builds the engine: opens (or creates) the disk store when one is
    /// configured, wires it into a fresh [`VerificationSession`], and starts
    /// the worker pool.
    ///
    /// # Errors
    ///
    /// Returns a one-line diagnostic when the store directory cannot be
    /// created or opened.
    pub fn new(families: Vec<Family>, options: &ServeOptions) -> Result<ServeEngine, String> {
        let session = match &options.store {
            Some(root) => {
                let store = DiskStore::open(root)
                    .map_err(|e| format!("cannot open store {}: {e}", root.display()))?;
                Arc::new(VerificationSession::with_store(Arc::new(store)))
            }
            None => Arc::new(VerificationSession::new()),
        };
        Ok(ServeEngine {
            families,
            cache: Arc::new(SweepCache::with_session(session)),
            pool: WorkerPool::new(options.threads),
            requests: AtomicUsize::new(0),
            members_verified: AtomicUsize::new(0),
        })
    }

    /// The families this engine serves (`submit` resolves names against
    /// this catalogue).
    pub fn families(&self) -> &[Family] {
        &self.families
    }

    /// The shared sweep cache (exposed for benchmarks and tests that
    /// compare the protocol path against direct session calls).
    pub fn cache(&self) -> &SweepCache {
        &self.cache
    }

    /// Handles one request line, pushing each response line through `emit`
    /// (without the trailing newline — the transport owns framing).
    ///
    /// Every request produces at least one response line; malformed input
    /// produces an `error` event and never kills the connection, so a
    /// confused client gets a diagnostic instead of a hang.
    pub fn handle_line(&self, line: &str, emit: &mut dyn FnMut(&str)) -> Directive {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => {
                emit(&error_event(&format!("malformed request: {e}")).to_line());
                return Directive::Continue;
            }
        };
        match request.get("op").and_then(Json::as_str) {
            Some("ping") => {
                emit(
                    &Json::object([
                        ("event".to_string(), Json::from("pong")),
                        ("protocol".to_string(), Json::from(PROTOCOL_VERSION)),
                    ])
                    .to_line(),
                );
                Directive::Continue
            }
            Some("stats") => {
                emit(&self.stats_event().to_line());
                Directive::Continue
            }
            Some("submit") => {
                self.handle_submit(&request, emit);
                Directive::Continue
            }
            Some("shutdown") => {
                emit(&Json::object([("event".to_string(), Json::from("bye"))]).to_line());
                Directive::Shutdown
            }
            Some(other) => {
                emit(&error_event(&format!("unknown op `{other}`")).to_line());
                Directive::Continue
            }
            None => {
                emit(&error_event("request has no `op` field").to_line());
                Directive::Continue
            }
        }
    }

    /// The `stats` response: protocol/service counters plus every cache
    /// layer the session exposes, flattened into one object.
    fn stats_event(&self) -> Json {
        let session = self.cache.session().stats();
        let mut fields = vec![
            ("event".to_string(), Json::from("stats")),
            ("threads".to_string(), Json::from(self.pool.threads())),
            (
                "requests".to_string(),
                Json::from(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "members_verified".to_string(),
                Json::from(self.members_verified.load(Ordering::Relaxed)),
            ),
            ("outcome_hits".to_string(), Json::from(session.outcome_hits)),
            (
                "outcome_misses".to_string(),
                Json::from(session.outcome_misses),
            ),
            (
                "disk_outcome_hits".to_string(),
                Json::from(session.disk_outcome_hits),
            ),
            (
                "trace_hits".to_string(),
                Json::from(session.warm.trace_hits),
            ),
            (
                "candidate_hits".to_string(),
                Json::from(session.warm.candidate_hits),
            ),
            // The last three keys name deleted layers and always report 0;
            // they stay so that readers of the event keep their keys.
            (
                "formula_hits".to_string(),
                Json::from(session.warm.formula_hits),
            ),
            (
                "disk_trace_hits".to_string(),
                Json::from(session.warm.disk_trace_hits),
            ),
            (
                "disk_candidate_hits".to_string(),
                Json::from(session.warm.disk_candidate_hits),
            ),
        ];
        if let Some(store) = self.cache.session().store() {
            let stats = store.stats();
            fields.extend([
                ("store_hits".to_string(), Json::from(stats.hits)),
                ("store_misses".to_string(), Json::from(stats.misses)),
                ("store_writes".to_string(), Json::from(stats.writes)),
                (
                    "store_quarantined".to_string(),
                    Json::from(stats.quarantined),
                ),
            ]);
        }
        Json::object(fields)
    }

    /// The `submit` op: resolve the family selection, fan the members out
    /// over the resident pool, stream completion events, and finish with
    /// the assembled report.
    fn handle_submit(&self, request: &Json, emit: &mut dyn FnMut(&str)) {
        let Some(selection) = request.get("family").and_then(Json::as_str) else {
            emit(&error_event("submit needs a `family` field").to_line());
            return;
        };
        let selected: Vec<Family> = if selection == "all" {
            self.families.clone()
        } else {
            self.families
                .iter()
                .filter(|f| f.name() == selection)
                .cloned()
                .collect()
        };
        if selected.is_empty() {
            emit(&error_event(&format!("no family named `{selection}`")).to_line());
            return;
        }
        let (fuel, deadline_ms) = match (
            governance_limit(request, "fuel"),
            governance_limit(request, "deadline_ms"),
        ) {
            (Ok(fuel), Ok(deadline_ms)) => (fuel, deadline_ms),
            (Err(message), _) | (_, Err(message)) => {
                emit(&error_event(&message).to_line());
                return;
            }
        };
        let (scenarios, groups) = match expand_families(&selected) {
            Ok(expanded) => expanded,
            Err(e) => {
                emit(&error_event(&e.to_string()).to_line());
                return;
            }
        };

        // Fan out: every member becomes one pool job reporting back over a
        // channel, tagged with its expansion index so the report can be
        // reassembled in deterministic order while events stream in
        // completion order.
        let (tx, rx) = mpsc::channel::<(usize, Result<ScenarioResult, Crash>)>();
        for (index, scenario) in scenarios.iter().enumerate() {
            let scenario: Scenario = scenario.clone();
            let cache = Arc::clone(&self.cache);
            let budget = member_budget(fuel, deadline_ms);
            let tx = tx.clone();
            self.pool.spawn(move || {
                let outcome =
                    catch_crash(|| run_scenario_governed(&scenario, Some(&cache), &budget));
                // A dropped receiver means the request was abandoned; the
                // result still landed in the shared caches, so losing the
                // send is harmless.
                let _ = tx.send((index, outcome));
            });
        }
        drop(tx);

        let mut slots: Vec<Option<Result<ScenarioResult, Crash>>> =
            (0..scenarios.len()).map(|_| None).collect();
        for (index, outcome) in rx {
            self.members_verified.fetch_add(1, Ordering::Relaxed);
            emit(&member_event(index, &scenarios[index], &outcome).to_line());
            slots[index] = Some(outcome);
        }
        let outcomes: Vec<Result<ScenarioResult, Crash>> = slots
            .into_iter()
            .map(|slot| slot.expect("every member job reports exactly once"))
            .collect();
        let crashed = outcomes.iter().filter(|o| o.is_err()).count();
        let report = assemble_sweep_report(
            &selected,
            &groups,
            outcomes,
            &scenarios,
            self.pool.threads(),
        );
        emit(
            &Json::object([
                ("event".to_string(), Json::from("done")),
                ("members".to_string(), Json::from(scenarios.len())),
                ("crashed".to_string(), Json::from(crashed)),
                // The deterministic report text, embedded verbatim as a JSON
                // string: a client that unescapes it gets bytes identical to an
                // in-process `run_sweep(...).to_json(false)`.
                ("report".to_string(), Json::String(report.to_json(false))),
                (
                    "report_timed".to_string(),
                    Json::String(report.to_json(true)),
                ),
            ])
            .to_line(),
        );
    }
}

/// One streamed member-completion (or crash) event.
fn member_event(
    index: usize,
    scenario: &Scenario,
    outcome: &Result<ScenarioResult, Crash>,
) -> Json {
    match outcome {
        Ok(result) => Json::object([
            ("event".to_string(), Json::from("member")),
            ("index".to_string(), Json::from(index)),
            ("name".to_string(), Json::from(result.name.as_str())),
            ("verdict".to_string(), Json::from(result.verdict.as_str())),
            (
                "matches_expected".to_string(),
                Json::Bool(result.matches_expected),
            ),
            (
                "wall_time_s".to_string(),
                Json::from(result.wall_time_s + result.build_time_s),
            ),
        ]),
        Err(crash) => Json::object([
            ("event".to_string(), Json::from("crash")),
            ("index".to_string(), Json::from(index)),
            ("name".to_string(), Json::from(scenario.name())),
            ("payload".to_string(), Json::from(crash.payload.as_str())),
        ]),
    }
}

/// An optional `submit` governance field: absent is `None`; present, it
/// must be a finite, non-negative integer.  A string, a negative or a
/// fractional value is refused rather than coerced, so a typo can never
/// silently run ungoverned or starve every member of fuel.
fn governance_limit(request: &Json, name: &str) -> Result<Option<u64>, String> {
    let Some(value) = request.get(name) else {
        return Ok(None);
    };
    match value.as_f64() {
        Some(x) if x.is_finite() && x >= 0.0 && x.fract() == 0.0 => Ok(Some(x as u64)),
        _ => Err(format!(
            "submit field `{name}` must be a non-negative integer, got {value}"
        )),
    }
}

fn error_event(message: &str) -> Json {
    Json::object([
        ("event".to_string(), Json::from("error")),
        ("message".to_string(), Json::from(message)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{AxisParam, ParamAxis};
    use crate::Registry;

    /// A tiny two-member family over the cheap linear smoke scenarios.
    fn smoke_families() -> Vec<Family> {
        let registry = Registry::from_toml_str(crate::SMOKE_MANIFEST).unwrap();
        let base = registry.get("smoke-stable-spiral").unwrap().clone();
        vec![Family::new("smoke-pair", "delta pair", base)
            .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4]))
            .with_counts(2, 0)]
    }

    fn engine() -> ServeEngine {
        ServeEngine::new(
            smoke_families(),
            &ServeOptions {
                threads: 1,
                store: None,
            },
        )
        .unwrap()
    }

    fn collect(engine: &ServeEngine, line: &str) -> (Vec<Json>, Directive) {
        let mut replies = Vec::new();
        let directive = engine.handle_line(line, &mut |reply| {
            // The transport frames with `\n`, so a reply spanning lines would
            // corrupt the protocol for every subsequent event.
            assert!(!reply.contains('\n'), "reply must be single-line: {reply}");
            replies.push(Json::parse(reply).expect("every reply is valid JSON"));
        });
        (replies, directive)
    }

    #[test]
    fn ping_stats_and_shutdown_round_trip() {
        let engine = engine();
        let (replies, directive) = collect(&engine, "{\"op\": \"ping\"}");
        assert_eq!(directive, Directive::Continue);
        assert_eq!(
            replies[0].get("protocol").and_then(Json::as_str),
            Some(PROTOCOL_VERSION)
        );
        let (replies, _) = collect(&engine, "{\"op\": \"stats\"}");
        assert_eq!(replies[0].get("threads").and_then(Json::as_f64), Some(1.0));
        assert_eq!(replies[0].get("requests").and_then(Json::as_f64), Some(2.0));
        let (replies, directive) = collect(&engine, "{\"op\": \"shutdown\"}");
        assert_eq!(directive, Directive::Shutdown);
        assert_eq!(replies[0].get("event").and_then(Json::as_str), Some("bye"));
    }

    #[test]
    fn malformed_and_unknown_requests_are_errors_not_hangs() {
        let engine = engine();
        for bad in [
            "{not json",
            "{\"no\": \"op\"}",
            "{\"op\": \"frobnicate\"}",
            "{\"op\": \"submit\"}",
            "{\"op\": \"submit\", \"family\": \"no-such-family\"}",
            // Governance values are never coerced: a string would run
            // ungoverned, -5 would become zero fuel, 2.5 would truncate.
            "{\"op\": \"submit\", \"family\": \"smoke-pair\", \"fuel\": \"100\"}",
            "{\"op\": \"submit\", \"family\": \"smoke-pair\", \"fuel\": -5}",
            "{\"op\": \"submit\", \"family\": \"smoke-pair\", \"deadline_ms\": 2.5}",
        ] {
            let (replies, directive) = collect(&engine, bad);
            assert_eq!(directive, Directive::Continue, "{bad}");
            assert_eq!(
                replies[0].get("event").and_then(Json::as_str),
                Some("error"),
                "{bad}"
            );
        }
    }

    #[test]
    fn submit_streams_members_and_matches_the_in_process_sweep() {
        let families = smoke_families();
        let engine = ServeEngine::new(
            families.clone(),
            &ServeOptions {
                threads: 2,
                store: None,
            },
        )
        .unwrap();
        let (replies, _) = collect(&engine, "{\"op\": \"submit\", \"family\": \"smoke-pair\"}");
        let members: Vec<&Json> = replies
            .iter()
            .filter(|r| r.get("event").and_then(Json::as_str) == Some("member"))
            .collect();
        assert_eq!(members.len(), 2);
        let done = replies.last().unwrap();
        assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("crashed").and_then(Json::as_f64), Some(0.0));

        // The embedded deterministic report is byte-identical to an
        // in-process sweep over the same families.
        let expected = crate::run_sweep(&families, &crate::SweepOptions::default())
            .unwrap()
            .to_json(false);
        assert_eq!(
            done.get("report").and_then(Json::as_str),
            Some(expected.as_str())
        );

        // A repeat submission short-circuits at the outcome memo and still
        // produces the identical report.
        let (replies, _) = collect(&engine, "{\"op\": \"submit\", \"family\": \"smoke-pair\"}");
        let done = replies.last().unwrap();
        assert_eq!(
            done.get("report").and_then(Json::as_str),
            Some(expected.as_str())
        );
        assert!(engine.cache().session().stats().outcome_hits >= 2);
    }

    #[test]
    fn disk_backed_engines_replay_outcomes_across_instances() {
        let root =
            std::env::temp_dir().join(format!("nncps-serve-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let options = ServeOptions {
            threads: 1,
            store: Some(root.clone()),
        };
        let first = ServeEngine::new(smoke_families(), &options).unwrap();
        let (replies, _) = collect(&first, "{\"op\": \"submit\", \"family\": \"all\"}");
        let cold = replies.last().unwrap().get("report").unwrap().clone();
        drop(first);

        // A brand-new engine over the same store replays every outcome from
        // disk: same report, zero pipeline runs.
        let second = ServeEngine::new(smoke_families(), &options).unwrap();
        let (replies, _) = collect(&second, "{\"op\": \"submit\", \"family\": \"all\"}");
        assert_eq!(replies.last().unwrap().get("report"), Some(&cold));
        let stats = second.cache().session().stats();
        assert_eq!(stats.outcome_misses, 0, "{stats:?}");
        assert!(stats.disk_outcome_hits >= 2, "{stats:?}");
        std::fs::remove_dir_all(&root).ok();
    }
}
