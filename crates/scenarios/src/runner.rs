//! The batch runner: the full falsify→verify pipeline over a registry, and
//! the warm-start sweep engine over scenario families.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use nncps_barrier::{
    Budget, ClosedLoopSystem, VerificationRequest, VerificationSession, WarmStart,
};
use nncps_sim::ExprDynamics;

use crate::family::Family;
use crate::report::{BatchReport, CrashedMember, FamilyRollup, ScenarioResult};
use crate::scenario::{ManifestError, PlantSpec, Scenario};
use crate::Registry;

/// Options of a batch run.
///
/// The default fans scenarios out over one worker per available core
/// (`threads == 0`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOptions {
    /// Scenario-level worker threads (`0` = one per available core, `1` =
    /// sequential).  Scenarios are independent verification problems, so
    /// the batch fans them out through
    /// [`nncps_parallel::parallel_map`]; results keep registry order and
    /// are bit-identical for every thread count (each scenario's δ-SAT
    /// search is sequential, so results never depend on this knob).
    pub threads: usize,
    /// Deterministic per-member fuel limit (tape instructions); `None` =
    /// unlimited.  Each member gets a fresh [`Budget`], so the limit is
    /// per scenario, not shared across the batch.
    pub fuel: Option<u64>,
    /// Per-member wall-clock deadline in milliseconds (non-deterministic;
    /// excluded from pinned report forms); `None` = unlimited.
    pub deadline_ms: Option<u64>,
}

/// Options of a family sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Scenario-level worker threads (same semantics as
    /// [`BatchOptions::threads`]).
    pub threads: usize,
    /// Whether family members share a [`SweepCache`] (simulation bundles,
    /// LP candidates, whole outcomes, built dynamics).  Reused
    /// artifacts are bit-identical to recomputation, so this switch changes
    /// wall-clock time only — the deterministic report is byte-identical
    /// either way (asserted by `tests/family_warm_start.rs`).
    pub warm_start: bool,
    /// Deterministic per-member fuel limit (same semantics as
    /// [`BatchOptions::fuel`]).
    pub fuel: Option<u64>,
    /// Per-member wall-clock deadline in milliseconds (same semantics as
    /// [`BatchOptions::deadline_ms`]).
    pub deadline_ms: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: 0,
            warm_start: true,
            fuel: None,
            deadline_ms: None,
        }
    }
}

/// A fresh per-member [`Budget`] from the batch/sweep governance knobs.
///
/// Budgets are deliberately *not* shared across members: fuel accounting
/// stays a deterministic per-scenario quantity, and a member's deadline
/// clock starts when its own verification starts.
pub(crate) fn member_budget(fuel: Option<u64>, deadline_ms: Option<u64>) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(instructions) = fuel {
        budget = budget.with_fuel(instructions);
    }
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    budget
}

/// Shared memoization state of one family sweep: a
/// [`VerificationSession`] (simulation bundles, LP candidates, and a
/// whole-outcome memo that may be disk-backed) plus the built
/// symbolic dynamics per distinct [`PlantSpec`] (family members sharing a
/// plant expand the neural controller into its symbolic closed loop once).
///
/// Workers share one instance read-mostly; every cached artifact is a pure
/// function of its key, so sweep results are independent of hit/miss
/// patterns and thread interleavings.
#[derive(Debug, Default)]
pub struct SweepCache {
    session: Arc<VerificationSession>,
    plants: Mutex<Vec<(PlantSpec, Arc<ExprDynamics>)>>,
}

impl SweepCache {
    /// Creates an empty cache with in-memory caches only.
    pub fn new() -> Self {
        SweepCache::default()
    }

    /// A cache over an existing (possibly disk-backed) session — the
    /// constructor a resident server uses so its store outlives every
    /// sweep.
    pub fn with_session(session: Arc<VerificationSession>) -> Self {
        SweepCache {
            session,
            plants: Mutex::new(Vec::new()),
        }
    }

    /// The verification session shared by this cache's members.
    pub fn session(&self) -> &VerificationSession {
        &self.session
    }

    /// The verifier-level warm-start state (for hit/miss reporting).
    pub fn warm_start(&self) -> &WarmStart {
        self.session.warm_start()
    }

    /// The symbolic closed-loop dynamics of a plant, built once per
    /// distinct spec.  [`PlantSpec::build_dynamics`] is deterministic, so
    /// the shared value is bit-identical to a per-member rebuild.
    fn dynamics_for(&self, plant: &PlantSpec) -> Arc<ExprDynamics> {
        if let Some((_, found)) = self
            .plants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|(spec, _)| spec == plant)
        {
            return Arc::clone(found);
        }
        // Build outside the lock (symbolic NN expansion can be slow); a
        // racing duplicate build is dropped in favour of the first insert.
        let built = Arc::new(plant.build_dynamics());
        let mut plants = self.plants.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, found)) = plants.iter().find(|(spec, _)| spec == plant) {
            return Arc::clone(found);
        }
        plants.push((plant.clone(), Arc::clone(&built)));
        built
    }
}

/// Runs one scenario end to end (build the closed loop, run the verifier)
/// and assembles its report entry.
///
/// # Examples
///
/// ```
/// use nncps_scenarios::{run_scenario, Registry};
///
/// let registry = Registry::builtin();
/// let result = run_scenario(registry.get("linear-unstable-canary").unwrap());
/// assert_eq!(result.verdict, "inconclusive");
/// assert!(result.matches_expected);
/// ```
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    run_scenario_cached(scenario, None)
}

/// [`run_scenario`] with an optional shared [`SweepCache`]: dynamics come
/// from the plant cache and the verifier runs with the sweep's warm-start
/// state.  The result is bit-identical to the cache-free run; only the
/// wall-time fields differ.
pub fn run_scenario_cached(scenario: &Scenario, cache: Option<&SweepCache>) -> ScenarioResult {
    run_scenario_governed(scenario, cache, &Budget::unlimited())
}

/// [`run_scenario_cached`] under a resource [`Budget`]: the verifier polls
/// the budget at its stage boundaries and inner loops, degrading to an
/// inconclusive outcome with a machine-readable
/// [`ExhaustionReason`](nncps_barrier::ExhaustionReason) when it trips.  An
/// unlimited budget leaves the run bit-identical to [`run_scenario_cached`].
pub fn run_scenario_governed(
    scenario: &Scenario,
    cache: Option<&SweepCache>,
    budget: &Budget,
) -> ScenarioResult {
    let build_start = Instant::now();
    let system = match cache {
        Some(cache) => {
            let dynamics = cache.dynamics_for(scenario.plant());
            ClosedLoopSystem::from_dynamics(&*dynamics, scenario.spec().clone())
        }
        None => scenario.build_system(),
    };
    let build_time_s = build_start.elapsed().as_secs_f64();
    let request = VerificationRequest::over(&system)
        .with_config(scenario.config().clone())
        .with_budget(budget.clone());
    let verify_start = Instant::now();
    let outcome = match cache {
        Some(cache) => cache.session().verify(&request),
        // Cache-free runs stay genuinely cold: the pipeline executes from
        // scratch with no memo layers, exactly as before the session API.
        None => VerificationSession::new().verify(&request.cold()),
    };
    let wall_time_s = verify_start.elapsed().as_secs_f64();
    ScenarioResult::from_outcome(scenario, &outcome, wall_time_s, build_time_s)
}

/// Splits the order-preserving isolated fan-out into the surviving results
/// and the crashed-member rows, tagging each crash with its scenario name.
fn partition_outcomes(
    outcomes: Vec<Result<ScenarioResult, nncps_parallel::Crash>>,
    scenarios: &[Scenario],
) -> (Vec<ScenarioResult>, Vec<CrashedMember>) {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut crashed = Vec::new();
    for (outcome, scenario) in outcomes.into_iter().zip(scenarios) {
        match outcome {
            Ok(result) => results.push(result),
            Err(crash) => crashed.push(CrashedMember {
                scenario: scenario.name().to_string(),
                payload: crash.payload,
            }),
        }
    }
    (results, crashed)
}

/// Runs every scenario of the registry and collects the batch report.
///
/// The scenarios fan out over `options.threads` workers via the workspace's
/// parallel layer; the report lists results in registry order regardless of
/// completion order.  Each member runs panic-isolated
/// ([`nncps_parallel::parallel_map_isolated`]): a member that panics becomes
/// a [`CrashedMember`] row in the report while every other member completes
/// normally.
pub fn run_batch(registry: &Registry, options: &BatchOptions) -> BatchReport {
    let scenarios: Vec<Scenario> = registry.iter().cloned().collect();
    let outcomes = nncps_parallel::parallel_map_isolated(&scenarios, options.threads, |scenario| {
        run_scenario_governed(
            scenario,
            None,
            &member_budget(options.fuel, options.deadline_ms),
        )
    });
    let (results, crashed) = partition_outcomes(outcomes, &scenarios);
    BatchReport {
        threads: options.threads,
        results,
        families: Vec::new(),
        crashed,
    }
}

/// Expands every family and runs all members through the sweep engine,
/// producing a report with per-family roll-ups.
///
/// Members run in expansion order (families in input order, members in
/// index order) over `options.threads` workers; with
/// [`SweepOptions::warm_start`] enabled (the default) all workers share one
/// [`SweepCache`].  The deterministic report form is byte-identical across
/// thread counts *and* across the warm-start switch.
///
/// # Errors
///
/// Returns a [`ManifestError`] when two families share a name or an axis
/// assignment is invalid for its base scenario (see [`Family::expand`]).
///
/// # Examples
///
/// ```
/// use nncps_scenarios::{run_sweep, AxisParam, Family, ParamAxis, Registry, SweepOptions};
///
/// let base = Registry::builtin().get("linear-unstable-canary").unwrap().clone();
/// let family = Family::new("canary", "delta sweep", base)
///     .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4]))
///     .with_counts(0, 2);
/// let report = run_sweep(&[family], &SweepOptions::default()).unwrap();
/// assert_eq!(report.results.len(), 2);
/// assert_eq!(report.families[0].inconclusive, 2);
/// assert!(report.check_family_counts().is_ok());
/// ```
pub fn run_sweep(
    families: &[Family],
    options: &SweepOptions,
) -> Result<BatchReport, ManifestError> {
    let (scenarios, groups) = expand_families(families)?;
    let cache = options.warm_start.then(SweepCache::new);
    let outcomes = nncps_parallel::parallel_map_isolated(&scenarios, options.threads, |scenario| {
        run_scenario_governed(
            scenario,
            cache.as_ref(),
            &member_budget(options.fuel, options.deadline_ms),
        )
    });
    Ok(assemble_sweep_report(
        families,
        &groups,
        outcomes,
        &scenarios,
        options.threads,
    ))
}

/// The flat member list plus each family's `[start, end)` slice of it.
pub(crate) type ExpandedFamilies = (Vec<Scenario>, Vec<(usize, usize)>);

/// Expands families into the flat member list plus each family's
/// `[start, end)` slice of it, rejecting duplicate family names.  Shared
/// between [`run_sweep`] and the serve engine, so both expand identically.
pub(crate) fn expand_families(families: &[Family]) -> Result<ExpandedFamilies, ManifestError> {
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut groups: Vec<(usize, usize)> = Vec::with_capacity(families.len());
    for (index, family) in families.iter().enumerate() {
        if families[..index].iter().any(|f| f.name() == family.name()) {
            return Err(ManifestError::new(format!(
                "duplicate family name `{}`",
                family.name()
            )));
        }
        let start = scenarios.len();
        scenarios.extend(family.expand()?);
        groups.push((start, scenarios.len()));
    }
    Ok((scenarios, groups))
}

/// Assembles the sweep report from per-member outcomes in expansion order
/// — the single definition of the report shape, so a server-side sweep is
/// byte-identical (in deterministic form) to an in-process one.
pub(crate) fn assemble_sweep_report(
    families: &[Family],
    groups: &[(usize, usize)],
    outcomes: Vec<Result<ScenarioResult, nncps_parallel::Crash>>,
    scenarios: &[Scenario],
    threads: usize,
) -> BatchReport {
    // Count crashes per family group before partitioning strips them: a
    // crashed member leaves no `ScenarioResult`, so the surviving results of
    // family `f` are a contiguous slice shorter than its member count.
    let group_crashes: Vec<usize> = groups
        .iter()
        .map(|&(start, end)| outcomes[start..end].iter().filter(|o| o.is_err()).count())
        .collect();
    let (results, crashed) = partition_outcomes(outcomes, scenarios);
    let mut survivors_start = 0;
    let rollups = families
        .iter()
        .zip(groups.iter().zip(&group_crashes))
        .map(|(family, (&(start, end), &fam_crashed))| {
            let survived = (end - start) - fam_crashed;
            let slice = &results[survivors_start..survivors_start + survived];
            survivors_start += survived;
            FamilyRollup::from_results(family.name(), slice, fam_crashed, family.expected_counts())
        })
        .collect();
    BatchReport {
        threads,
        results,
        families: rollups,
        crashed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{AxisParam, ParamAxis};

    /// The shared two-scenario linear fixture (cheap: no NN case studies).
    fn small_registry() -> Registry {
        Registry::from_toml_str(crate::SMOKE_MANIFEST).expect("smoke manifest parses")
    }

    #[test]
    fn batch_runs_match_expectations_and_keep_order() {
        let registry = small_registry();
        let report = run_batch(&registry, &BatchOptions::default());
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].name, "smoke-stable-spiral");
        assert_eq!(report.results[0].verdict, "certified");
        assert!(report.results[0].level.is_some());
        assert!(!report.results[0].generator_coefficients.is_empty());
        assert_eq!(report.results[1].name, "smoke-unstable");
        assert_eq!(report.results[1].verdict, "inconclusive");
        assert!(report.results[1].reason.is_some());
        assert!(report.all_match_expected());
        // Solver effort is surfaced per scenario.
        assert!(report.results[0].stats.boxes_explored > 0);
        assert!(report.results[0].stats.clauses_examined > 0);
    }

    #[test]
    fn scenario_parallelism_does_not_change_the_report() {
        let registry = small_registry();
        let sequential = run_batch(
            &registry,
            &BatchOptions {
                threads: 1,
                ..BatchOptions::default()
            },
        );
        let parallel = run_batch(
            &registry,
            &BatchOptions {
                threads: 4,
                ..BatchOptions::default()
            },
        );
        // Scenario-level fan-out is observationally pure: the deterministic
        // report form is byte-identical across thread counts.
        assert_eq!(sequential.to_json(false), parallel.to_json(false));
    }

    #[test]
    fn sweep_rollups_count_verdicts_and_share_the_cache() {
        let registry = small_registry();
        let stable = registry.get("smoke-stable-spiral").unwrap().clone();
        let family = Family::new("spiral", "delta sweep over the stable spiral", stable)
            .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4, 1e-5]))
            .with_counts(3, 0);
        let report = run_sweep(
            std::slice::from_ref(&family),
            &SweepOptions {
                threads: 1,
                warm_start: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.results[0].name, "spiral-000");
        assert_eq!(report.families.len(), 1);
        let rollup = &report.families[0];
        assert_eq!(
            (rollup.members, rollup.certified, rollup.inconclusive),
            (3, 3, 0)
        );
        assert_eq!(rollup.unexpected, 0);
        assert!(report.check_family_counts().is_ok());

        // Wrong pinned counts are reported as drift.
        let wrong = family.with_counts(0, 3);
        let report = run_sweep(&[wrong], &SweepOptions::default()).unwrap();
        let findings = report.check_family_counts().unwrap_err();
        assert!(findings[0].contains("counts drifted"), "{findings:?}");
    }

    #[test]
    fn duplicate_family_names_are_rejected() {
        let base = small_registry().get("smoke-unstable").unwrap().clone();
        let family = Family::new("twice", "", base);
        let err = run_sweep(&[family.clone(), family], &SweepOptions::default()).unwrap_err();
        assert!(err.to_string().contains("duplicate family name"));
    }

    #[test]
    fn sweep_cache_builds_each_distinct_plant_once() {
        let cache = SweepCache::new();
        let registry = small_registry();
        let stable = registry.get("smoke-stable-spiral").unwrap();
        let a = cache.dynamics_for(stable.plant());
        let b = cache.dynamics_for(stable.plant());
        assert!(Arc::ptr_eq(&a, &b));
        let other = cache.dynamics_for(registry.get("smoke-unstable").unwrap().plant());
        assert!(!Arc::ptr_eq(&a, &other));
    }
}
