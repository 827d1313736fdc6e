//! The in-process workloads: `registry-cold` and `table1-wide`.
//!
//! Both verify their members one after another on this process's only
//! working thread (`VerificationConfig::threads = 1`, documented as
//! bit-invisible), so the process's on-CPU time is the verification's.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use nncps::barrier::{SessionStats, StageTimings};
use nncps::scenarios::{BatchReport, ExpectedVerdict, Json, PlantSpec, ScenarioResult};
use nncps::{
    ClosedLoopSystem, DiskStore, Registry, Scenario, VerificationConfig, VerificationOutcome,
    VerificationRequest, VerificationSession,
};

use crate::procfs::{group_cpu_ns, peak_rss_mb, PassCost, Sample};
use crate::replay::replay;
use crate::stats::median;
use crate::tally::{check_pinned, parse_expected, Identity};
use crate::trace::{root_total, self_times, stage_table, Counters, Span, Tracer, LAYERS};
use crate::{store_footprint, Run};

/// Cold passes every run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Per round: constructions of the workload's inputs (`setup_s` is their
/// median), memo-warm resubmits and store-backed restarts.
const SETUP_PER_ROUND: usize = 25;
const RESUBMITS_PER_ROUND: usize = 8;
const RESTARTS_PER_ROUND: usize = 4;

/// One member: the scenario (name, plant kind, expected verdict, config)
/// and its built closed loop.
pub struct Member {
    pub scenario: Scenario,
    pub system: ClosedLoopSystem,
    /// The Table-1 controller width when the system is `paper_system(w)`.
    pub paper_width: Option<usize>,
}

impl Member {
    /// The member's configuration, pinned to one simulation thread.
    fn config(&self) -> VerificationConfig {
        VerificationConfig {
            threads: 1,
            ..self.scenario.config().clone()
        }
    }

    fn request(&self) -> VerificationRequest<'_> {
        VerificationRequest::over(&self.system).with_config(self.config())
    }

    fn result(&self, outcome: &VerificationOutcome) -> ScenarioResult {
        ScenarioResult::from_outcome(&self.scenario, outcome, 0.0, 0.0)
    }
}

/// `registry-cold`: the 8 builtin scenarios, each through a fresh
/// `VerificationSession` with `.cold()`.
///
/// Why: the registry is LP-bound — the dense simplex takes about 96% of the
/// pipeline, simulation 3%, δ-SAT under 1% — so a faster LP shows up here,
/// while simulation or δ-SAT work must leave this workload unchanged.  The
/// inputs are the pinned registry itself (verdicts and fingerprints in
/// `SCENARIOS_expected.json`), so the seed changes nothing; the members run
/// in registry order because the peak RSS depends on the order in which
/// the large LP tableaux are allocated.
pub fn registry_members(_seed: u64) -> Vec<Member> {
    Registry::builtin()
        .iter()
        .map(|scenario| Member {
            scenario: scenario.clone(),
            system: scenario.build_system(),
            paper_width: None,
        })
        .collect()
}

/// The Table-1 widths this workload verifies.
pub const TABLE1_WIDTHS: [usize; 3] = [100, 300, 1000];

/// Initial-state seeds that certify every Table-1 width in one candidate
/// iteration with near-equal work; the run's seed picks one of them.
const ONE_ITERATION_SEEDS: [u64; 8] = [2018, 1, 2, 42, 4, 5, 6, 9];

/// A seed that needs two candidate iterations at every width, so every pass
/// runs the counterexample loop (witness simulation, LP re-solve).
const COUNTEREXAMPLE_SEED: u64 = 3;

/// `table1-wide`: `paper_system(w)` for w ∈ {100, 300, 1000} under
/// `fast_config()`, cold, each width verified with two initial-state seeds:
/// `COUNTEREXAMPLE_SEED` and one of `ONE_ITERATION_SEEDS` chosen by the
/// run's seed.
///
/// Why: at these widths simulation is 62–70% of the pipeline, δ-SAT 16–19%
/// and LP 2–14%, so the compiled-tape simulation and δ-SAT work shows up
/// here and the LP replacement barely does.  The seed pool is restricted
/// to seeds of equal work so the amount of work, and with it `verify_s`,
/// does not depend on which seed a run draws.
pub fn table1_members(seed: u64) -> Vec<Member> {
    let drawn = ONE_ITERATION_SEEDS[(seed % ONE_ITERATION_SEEDS.len() as u64) as usize];
    let mut members = Vec::new();
    for width in TABLE1_WIDTHS {
        let system = nncps_bench::paper_system(width);
        for config_seed in [COUNTEREXAMPLE_SEED, drawn] {
            let config = VerificationConfig {
                seed: config_seed,
                ..nncps_bench::fast_config()
            };
            let scenario = Scenario::new(
                format!("table1-w{width}-seed{config_seed}"),
                "Table-1 Dubins error dynamics",
                PlantSpec::Dubins {
                    hidden_neurons: width,
                    speed: 1.0,
                },
                nncps_bench::paper_spec(),
                config,
                ExpectedVerdict::Certified,
            );
            members.push(Member {
                scenario,
                system: system.clone(),
                paper_width: Some(width),
            });
        }
    }
    members
}

/// Rebuilds one member's closed loop the way its workload does (the `build`
/// span of the traced replay).
fn rebuild(member: &Member) -> ClosedLoopSystem {
    match member.paper_width {
        Some(width) => nncps_bench::paper_system(width),
        None => member.scenario.build_system(),
    }
}

/// How a workload's results are checked.
enum Check {
    /// Verdict and fingerprint pinned per scenario name.
    Pinned(BTreeMap<String, (String, String)>),
    /// Every member certifies.
    Certifies,
}

impl Check {
    fn problems(&self, result: &ScenarioResult) -> Vec<String> {
        match self {
            Check::Pinned(expected) => check_pinned(result, expected),
            Check::Certifies if result.verdict != "certified" => {
                vec![format!("verdict {} (expected certified)", result.verdict)]
            }
            Check::Certifies => Vec::new(),
        }
    }
}

/// Runs an in-process workload: `build` makes the members from the seed.
///
/// The first cold pass fixes every member's reference identity; the peak
/// RSS is read right after it.  One store-backed session is then populated,
/// and the run goes round by round — input constructions, memo-warm
/// resubmits, store-backed restarts, one cold pass — so that every metric
/// samples the whole run rather than one stretch of it.
pub fn run(run: &mut Run, build: fn(u64) -> Vec<Member>) -> Result<(), String> {
    let check = if run.workload == "registry-cold" {
        let text = std::fs::read_to_string("SCENARIOS_expected.json")
            .map_err(|e| format!("cannot read SCENARIOS_expected.json: {e}"))?;
        Check::Pinned(parse_expected(&text)?)
    } else {
        Check::Certifies
    };
    let pid = std::process::id();
    let mut members = build(run.seed);
    let mut reference: Vec<Identity> = Vec::new();
    let mut timings = Vec::new();
    let mut verify = Vec::new();
    let mut setup = Vec::new();
    let mut peak = None;

    let store_dir = run.out_dir.join(format!("store-{}-{pid}", run.workload));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut session = None;
    loop {
        let (cost, outcomes) = cold_pass(&members, pid)?;
        run.pass("cold", cost);
        verify.push(cost.cpu_s);
        let first_pass = reference.is_empty();
        for (index, (member, outcome)) in members.iter().zip(&outcomes).enumerate() {
            let result = member.result(outcome);
            let identity = Identity::of(&result);
            let mut problems = check.problems(&result);
            if first_pass {
                reference.push(identity);
                timings.push(outcome.stats().timings);
            } else {
                problems.extend(identity.diff(&reference[index]));
            }
            run.tally.record(member.scenario.name(), problems);
        }
        if peak.is_none() {
            peak = Some(peak_rss_mb(pid).map_err(io)?);
        }

        for _ in 0..SETUP_PER_ROUND {
            drop(members);
            let begin = Sample::begin(pid).map_err(io)?;
            members = build(run.seed);
            setup.push(begin.cost_until(&Sample::end(pid).map_err(io)?).cpu_s);
        }
        let phase = match &mut session {
            Some(phase) => phase,
            None => session.insert(SessionPhase::populate(
                run, &members, &reference, &store_dir,
            )?),
        };
        let (resubmits, restarts) = if run.trace {
            (11, 5)
        } else {
            (RESUBMITS_PER_ROUND, RESTARTS_PER_ROUND)
        };
        phase.resubmit(run, &members, &reference, resubmits)?;
        phase.restart(run, &members, &reference, &store_dir, restarts)?;

        let pass_wall = median(&run.wall_of("cold")).unwrap_or(0.0);
        if run.trace || (verify.len() >= MIN_PASSES && run.remaining() < pass_wall + 0.5) {
            break;
        }
    }
    let session = session.expect("the first round populated the session");
    let (store_bytes, store_entries) = store_footprint(&store_dir);
    std::fs::remove_dir_all(&store_dir).map_err(io)?;
    run.series("setup_s", &setup);
    run.series("verify_s", &verify);
    run.series("resubmit_s", &session.resubmit);
    run.series("restart_resubmit_s", &session.restart);

    if !run.trace {
        run.metric("setup_s", median(&setup).expect("setup samples"), "s");
        run.metric("verify_s", median(&verify).expect("cold passes"), "s");
        run.metric(
            "resubmit_s",
            median(&session.resubmit).expect("resubmits"),
            "s",
        );
        run.metric(
            "restart_resubmit_s",
            median(&session.restart).expect("restarts"),
            "s",
        );
        run.metric("peak_rss_mb", peak.expect("a cold pass ran"), "MB");
        return Ok(());
    }

    let (layers, counters) = traced_passes(run, &members, &reference, &timings)?;
    crate::layer_metrics(run, &layers, &counters);
    crate::warm_metrics(run, &session.stats.warm);
    run.metric(
        "session.outcome_hits",
        session.outcome_hits_per_resubmit as f64,
        "count",
    );
    run.metric(
        "session.disk_outcome_hits",
        session.disk_hits_per_restart as f64,
        "count",
    );
    run.metric("store.bytes", store_bytes as f64, "bytes");
    run.metric("store.entries", store_entries as f64, "count");
    run.metric(
        "serve.first_member_s",
        median(&session.first_member).expect("resubmits"),
        "s",
    );
    run.metric(
        "serve.report_s",
        median(&session.report).expect("resubmits"),
        "s",
    );
    run.metric("serve.bytes", session.report_bytes as f64, "bytes");
    run.metric("serve.events", members.len() as f64, "count");
    Ok(())
}

/// Traced replay passes until the run's time is up (at least one): every
/// member rebuilt and verified through each layer's public calls, checked
/// against its reference identity.  Each traced pass follows an untraced
/// cold pass, so the tracing overhead is measured pair by pair, under the
/// same machine conditions.  Returns each layer's median self time over the
/// passes and the work counters, which must repeat exactly.
fn traced_passes(
    run: &mut Run,
    members: &[Member],
    reference: &[Identity],
    timings: &[StageTimings],
) -> Result<(BTreeMap<&'static str, f64>, Counters), String> {
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_counters: Option<Counters> = None;
    let mut all_spans = Vec::new();
    let mut overheads = Vec::new();
    let last_spans = loop {
        let pair_start = std::time::Instant::now();
        let (cost, outcomes) = cold_pass(members, std::process::id())?;
        run.pass("cold", cost);
        check_outcomes(run, "cold verify", members, &outcomes, reference);
        let untraced = cost.cpu_s;
        let mut tracer = Tracer::new();
        let mut counters = Counters::default();
        for (index, member) in members.iter().enumerate() {
            tracer.set_member(index);
            tracer.enter("member");
            let system = tracer.span("build", || rebuild(member));
            let outcome = replay(&system, &member.config(), None, &mut tracer, &mut counters);
            tracer.exit();
            let identity = Identity::of(&member.result(&outcome));
            run.tally.record(
                &format!("replay of {}", member.scenario.name()),
                identity.diff(&reference[index]),
            );
        }
        let first = *first_counters.get_or_insert(counters);
        run.tally.require(first == counters, || {
            format!("work counters drifted between traced passes: {first:?} vs {counters:?}")
        });
        let layers = self_times(tracer.spans());
        let total = root_total(tracer.spans());
        let traced = total - layers.get("build").copied().unwrap_or(0.0);
        run.note(format!(
            "traced pass {}: on-CPU {traced:.6} s without build, untraced pass before it \
             {untraced:.6} s, tracing overhead {:.6} s",
            per_pass.len() + 1,
            traced - untraced
        ));
        overheads.push(traced - untraced);
        per_pass.push(layers);
        all_spans.push(crate::trace::spans_json(tracer.spans()));
        if run.remaining() < pair_start.elapsed().as_secs_f64() {
            break tracer.spans().to_vec();
        }
    };
    let counters = first_counters.expect("at least one traced pass");
    let layers: BTreeMap<&'static str, f64> = LAYERS
        .iter()
        .map(|&layer| {
            let values: Vec<f64> = per_pass
                .iter()
                .map(|l| l.get(layer).copied().unwrap_or(0.0))
                .collect();
            (layer, median(&values).expect("traced passes"))
        })
        .collect();
    run.note(format!(
        "stage table ({} traced passes, median self time):\n{}",
        per_pass.len(),
        stage_table(&layers, &counters)
    ));
    run.note(format!(
        "tracing overhead: median {:.6} s over {} traced/untraced pass pairs",
        median(&overheads).expect("traced passes"),
        overheads.len()
    ));
    run.note(stage_timings_comparison(timings, &last_spans));
    run.spans = Some(Json::Array(all_spans));
    Ok((layers, counters))
}

fn io(e: std::io::Error) -> String {
    format!("procfs: {e}")
}

/// One cold pass over every member.
fn cold_pass(members: &[Member], pid: u32) -> Result<(PassCost, Vec<VerificationOutcome>), String> {
    let mut outcomes = Vec::with_capacity(members.len());
    let begin = Sample::begin(pid).map_err(io)?;
    for member in members {
        outcomes.push(VerificationSession::new().verify(&member.request().cold()));
    }
    let cost = begin.cost_until(&Sample::end(pid).map_err(io)?);
    Ok((cost, outcomes))
}

/// The in-process counterpart of the served resubmits: one store-backed
/// session verifies every member (populating its memo, warm-start layers
/// and the disk store); memo-warm resubmits then re-verify the members
/// through it, and restarts re-verify them through fresh sessions over the
/// same store.  Every outcome must match the cold reference.
struct SessionPhase {
    session: VerificationSession,
    stats: SessionStats,
    resubmit: Vec<f64>,
    restart: Vec<f64>,
    first_member: Vec<f64>,
    report: Vec<f64>,
    report_bytes: usize,
    outcome_hits_per_resubmit: usize,
    disk_hits_per_restart: usize,
}

fn open_session(store_dir: &Path) -> Result<VerificationSession, String> {
    let store = DiskStore::open(store_dir).map_err(|e| format!("cannot open store: {e}"))?;
    Ok(VerificationSession::with_store(Arc::new(store)))
}

fn check_outcomes(
    run: &mut Run,
    what: &str,
    members: &[Member],
    outcomes: &[VerificationOutcome],
    reference: &[Identity],
) {
    for ((member, outcome), reference) in members.iter().zip(outcomes).zip(reference) {
        let identity = Identity::of(&member.result(outcome));
        run.tally.record(
            &format!("{what} of {}", member.scenario.name()),
            identity.diff(reference),
        );
    }
}

impl SessionPhase {
    fn populate(
        run: &mut Run,
        members: &[Member],
        reference: &[Identity],
        store_dir: &Path,
    ) -> Result<SessionPhase, String> {
        let pid = std::process::id();
        let session = open_session(store_dir)?;
        let begin = Sample::begin(pid).map_err(io)?;
        let outcomes: Vec<VerificationOutcome> = members
            .iter()
            .map(|m| session.verify(&m.request()))
            .collect();
        run.pass("populate", begin.cost_until(&Sample::end(pid).map_err(io)?));
        check_outcomes(run, "store-backed verify", members, &outcomes, reference);
        Ok(SessionPhase {
            stats: session.stats(),
            session,
            resubmit: Vec::new(),
            restart: Vec::new(),
            first_member: Vec::new(),
            report: Vec::new(),
            report_bytes: 0,
            outcome_hits_per_resubmit: 0,
            disk_hits_per_restart: 0,
        })
    }

    /// `count` memo-warm resubmits, each followed (outside its timing) by
    /// the report layer: results plus the deterministic report document.
    fn resubmit(
        &mut self,
        run: &mut Run,
        members: &[Member],
        reference: &[Identity],
        count: usize,
    ) -> Result<(), String> {
        let pid = std::process::id();
        for _ in 0..count {
            let hits_before = self.session.stats().outcome_hits;
            let mut outcomes = Vec::with_capacity(members.len());
            let begin = Sample::begin(pid).map_err(io)?;
            let mut first = None;
            for member in members {
                outcomes.push(self.session.verify(&member.request()));
                if first.is_none() {
                    first = Some(group_cpu_ns(pid).map_err(io)?);
                }
            }
            let cost = begin.cost_until(&Sample::end(pid).map_err(io)?);
            let start = group_cpu_ns(pid).map_err(io)?;
            let report = BatchReport {
                threads: 1,
                results: members
                    .iter()
                    .zip(&outcomes)
                    .map(|(m, o)| m.result(o))
                    .collect(),
                families: Vec::new(),
                crashed: Vec::new(),
            }
            .to_json(false);
            let report_ns = group_cpu_ns(pid).map_err(io)? - start;
            run.pass("resubmit", cost);
            self.resubmit.push(cost.cpu_s);
            let first = first.expect("a workload has members");
            self.first_member
                .push((first - begin.group_ns()) as f64 * 1e-9);
            self.report.push(report_ns as f64 * 1e-9);
            self.report_bytes = report.len();
            self.outcome_hits_per_resubmit = self.session.stats().outcome_hits - hits_before;
            check_outcomes(run, "memo-warm resubmit", members, &outcomes, reference);
        }
        Ok(())
    }

    /// `count` restarts: a fresh session over the populated store
    /// re-verifies every member from disk.
    fn restart(
        &mut self,
        run: &mut Run,
        members: &[Member],
        reference: &[Identity],
        store_dir: &Path,
        count: usize,
    ) -> Result<(), String> {
        let pid = std::process::id();
        for _ in 0..count {
            let restarted = open_session(store_dir)?;
            let begin = Sample::begin(pid).map_err(io)?;
            let outcomes: Vec<VerificationOutcome> = members
                .iter()
                .map(|m| restarted.verify(&m.request()))
                .collect();
            let cost = begin.cost_until(&Sample::end(pid).map_err(io)?);
            run.pass("restart-resubmit", cost);
            self.restart.push(cost.cpu_s);
            self.disk_hits_per_restart = restarted.stats().disk_outcome_hits;
            check_outcomes(run, "disk-warm resubmit", members, &outcomes, reference);
        }
        Ok(())
    }
}

/// The pipeline's own `StageTimings` shares (wall clock inside the
/// verifier, summed over the first cold pass) beside the same columns
/// measured by the traced pass: decrease-check solves are the `smt` spans
/// outside any `level_set` span, and the level set counts with its queries.
fn stage_timings_comparison(timings: &[StageTimings], spans: &[Span]) -> String {
    let sum = |f: fn(&StageTimings) -> f64| timings.iter().map(f).sum::<f64>();
    let total = sum(|t| t.total.as_secs_f64());
    let duration = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
    let in_level_set = |s: &Span| s.parent.is_some_and(|p| spans[p].name == "level_set");
    let traced_sum =
        |keep: &dyn Fn(&Span) -> bool| spans.iter().filter(|s| keep(s)).map(duration).sum::<f64>();
    let layers = self_times(spans);
    let traced_total =
        traced_sum(&|s| s.parent.is_none()) - layers.get("build").copied().unwrap_or(0.0);
    let columns = [
        (
            "simulation",
            sum(|t| t.simulation.as_secs_f64()),
            layers.get("sim").copied().unwrap_or(0.0),
        ),
        (
            "lp",
            sum(|t| t.lp.as_secs_f64()),
            layers.get("lp").copied().unwrap_or(0.0),
        ),
        (
            "smt_decrease",
            sum(|t| t.smt_decrease.as_secs_f64()),
            traced_sum(&|s| s.name == "smt" && !in_level_set(s)),
        ),
        (
            "level_set",
            sum(|t| t.level_set.as_secs_f64()),
            traced_sum(&|s| s.name == "level_set"),
        ),
    ];
    let share = |x: f64, of: f64| if of > 0.0 { 100.0 * x / of } else { 0.0 };
    let mut text = String::from("column        StageTimings  traced (without build)\n");
    for (name, untraced, traced) in columns {
        text.push_str(&format!(
            "{name:<13} {:>11.2}% {:>11.2}%\n",
            share(untraced, total),
            share(traced, traced_total)
        ));
    }
    let largest = columns
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |c| c.0);
    let largest_traced = columns
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map_or("none", |c| c.0);
    text.push_str(&format!(
        "largest column: StageTimings {largest}, traced {largest_traced}"
    ));
    text
}
