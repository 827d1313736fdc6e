//! Machine-readable batch reports and the verdict-drift check that CI runs.

use nncps_barrier::{ExhaustionReason, VerificationOutcome, VerificationStats};

use crate::json::Json;
use crate::scenario::Scenario;

/// The per-scenario slice of a [`BatchReport`].
///
/// Everything except `wall_time_s` and `build_time_s` is deterministic for a
/// fixed registry and thread configuration, and is covered by
/// [`ScenarioResult::fingerprint`]; the timings are reporting-only and are
/// excluded from the deterministic serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario name (registry key).
    pub name: String,
    /// The plant kind (`dubins`, `pendulum`, ...).
    pub plant_kind: String,
    /// The verdict the registry expects (`certified` / `inconclusive`).
    pub expected: String,
    /// The verdict the pipeline produced (`certified` / `inconclusive`).
    pub verdict: String,
    /// Whether `verdict == expected`.
    pub matches_expected: bool,
    /// The inconclusive reason, if any.
    pub reason: Option<String>,
    /// The certified level `ℓ`, if any.
    pub level: Option<f64>,
    /// The certified generator function, flattened as the rows of `P`
    /// followed by `q` and `c` (empty when inconclusive).
    pub generator_coefficients: Vec<f64>,
    /// Midpoints of the decrease-check counterexample witness boxes, in
    /// discovery order.
    pub counterexample_witnesses: Vec<Vec<f64>>,
    /// Pipeline counters (Table 1 quantities plus δ-SAT search totals).
    pub stats: RunStats,
    /// Machine-readable resource-exhaustion cause of an inconclusive run
    /// (`None` when the run completed or failed for a non-resource reason).
    /// Serialized only when present, and in the deterministic report form
    /// only for deterministic reasons (box and fuel budgets) — wall-clock
    /// deadlines and cancellation are excluded from pinned reports.
    pub exhaustion: Option<ExhaustionReason>,
    /// Wall-clock seconds spent inside the verifier.
    pub wall_time_s: f64,
    /// Wall-clock seconds spent building the closed-loop system (symbolic
    /// network expansion).
    pub build_time_s: f64,
}

/// The deterministic counters of one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Candidate-generator iterations.
    pub generator_iterations: usize,
    /// LP solves.
    pub lp_solves: usize,
    /// Decrease-condition δ-SAT checks.
    pub smt_decrease_checks: usize,
    /// Counterexamples fed back into the LP.
    pub counterexamples: usize,
    /// Level-set bisection iterations.
    pub level_iterations: usize,
    /// Total δ-SAT boxes explored across all queries.
    pub boxes_explored: usize,
    /// Total δ-SAT boxes pruned.
    pub boxes_pruned: usize,
    /// Total δ-SAT bisections.
    pub bisections: usize,
    /// Total DNF clauses examined.
    pub clauses_examined: usize,
    /// Total tape instructions executed by solver forward sweeps.
    pub instructions_executed: usize,
    /// Σ of clause tape lengths over all solver boxes (see
    /// [`SolverStats::specialized_tape_len_sum`](nncps_deltasat::SolverStats::specialized_tape_len_sum)).
    pub specialized_tape_len_sum: usize,
    /// Always `0` (see
    /// [`SolverStats::newton_cuts`](nncps_deltasat::SolverStats::newton_cuts)).
    pub newton_cuts: usize,
}

impl ScenarioResult {
    /// Assembles the result of one scenario run.
    pub fn from_outcome(
        scenario: &Scenario,
        outcome: &VerificationOutcome,
        wall_time_s: f64,
        build_time_s: f64,
    ) -> Self {
        let stats = outcome.stats();
        let (verdict, reason) = match outcome {
            VerificationOutcome::Certified { .. } => ("certified".to_string(), None),
            VerificationOutcome::Inconclusive { reason, .. } => {
                ("inconclusive".to_string(), Some(reason.clone()))
            }
        };
        let (level, generator_coefficients) = match outcome.certificate() {
            Some(certificate) => (Some(certificate.level()), flatten_generator(certificate)),
            None => (None, Vec::new()),
        };
        ScenarioResult {
            name: scenario.name().to_string(),
            plant_kind: scenario.plant().kind().to_string(),
            expected: scenario.expected().as_str().to_string(),
            matches_expected: scenario.expected().matches(outcome),
            verdict,
            reason,
            level,
            generator_coefficients,
            counterexample_witnesses: stats.counterexample_witnesses.clone(),
            stats: RunStats::from_verification(stats),
            exhaustion: stats.exhaustion,
            wall_time_s,
            build_time_s,
        }
    }

    /// A 64-bit FNV-1a hash over every deterministic field that identifies
    /// the run's semantics: verdict, reason, level and generator bits, and
    /// the counterexample-witness trail.  CI diffs this hash against
    /// `SCENARIOS_expected.json`, so any drift in verdicts *or* in the
    /// certified object itself fails the gate.
    pub fn fingerprint(&self) -> String {
        let mut hash = Fnv1a::new();
        hash.write(self.name.as_bytes());
        hash.write(&[0xff]);
        hash.write(self.verdict.as_bytes());
        hash.write(&[0xff]);
        // A presence byte keeps `None` distinguishable from `Some("")`.
        match &self.reason {
            Some(reason) => {
                hash.write(&[0x01]);
                hash.write(reason.as_bytes());
            }
            None => hash.write(&[0x00]),
        }
        hash.write(&[0xff]);
        if let Some(level) = self.level {
            hash.write(&level.to_bits().to_le_bytes());
        }
        hash.write(&[0xff]);
        for &c in &self.generator_coefficients {
            hash.write(&c.to_bits().to_le_bytes());
        }
        hash.write(&[0xff]);
        for witness in &self.counterexample_witnesses {
            for &x in witness {
                hash.write(&x.to_bits().to_le_bytes());
            }
            hash.write(&[0xfe]);
        }
        format!("{:016x}", hash.finish())
    }

    fn to_json(&self, include_timings: bool) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("plant".to_string(), Json::from(self.plant_kind.as_str())),
            ("expected".to_string(), Json::from(self.expected.as_str())),
            ("verdict".to_string(), Json::from(self.verdict.as_str())),
            (
                "matches_expected".to_string(),
                Json::Bool(self.matches_expected),
            ),
            (
                "reason".to_string(),
                match &self.reason {
                    Some(reason) => Json::from(reason.as_str()),
                    None => Json::Null,
                },
            ),
            (
                "level".to_string(),
                match self.level {
                    Some(level) => Json::Number(level),
                    None => Json::Null,
                },
            ),
            (
                "generator_coefficients".to_string(),
                Json::numbers(&self.generator_coefficients),
            ),
            (
                "counterexample_witnesses".to_string(),
                Json::Array(
                    self.counterexample_witnesses
                        .iter()
                        .map(Json::numbers)
                        .collect(),
                ),
            ),
            ("stats".to_string(), self.stats.to_json()),
            ("fingerprint".to_string(), Json::String(self.fingerprint())),
        ];
        // The machine-readable exhaustion cause serializes only when
        // present, so reports without one stay byte-identical to the
        // pre-governance schema.  Non-deterministic reasons (deadline,
        // cancellation) appear only in the timing-bearing form.
        if let Some(exhaustion) = self
            .exhaustion
            .filter(|e| include_timings || e.is_deterministic())
        {
            fields.push((
                "exhaustion".to_string(),
                Json::object([
                    ("kind".to_string(), Json::from(exhaustion.kind())),
                    (
                        "limit".to_string(),
                        match exhaustion.limit() {
                            Some(limit) => Json::from(limit as usize),
                            None => Json::Null,
                        },
                    ),
                ]),
            ));
        }
        if include_timings {
            fields.push(("wall_time_s".to_string(), Json::Number(self.wall_time_s)));
            fields.push(("build_time_s".to_string(), Json::Number(self.build_time_s)));
        }
        Json::Object(fields)
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let str_field = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result is missing string field `{key}`"))
        };
        let result = ScenarioResult {
            name: str_field("name")?,
            plant_kind: str_field("plant")?,
            expected: str_field("expected")?,
            verdict: str_field("verdict")?,
            matches_expected: match json.get("matches_expected") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("result is missing bool field `matches_expected`".to_string()),
            },
            reason: match json.get("reason") {
                Some(Json::String(s)) => Some(s.clone()),
                Some(Json::Null) | None => None,
                _ => return Err("`reason` must be a string or null".to_string()),
            },
            level: match json.get("level") {
                Some(Json::Number(x)) => Some(*x),
                Some(Json::Null) | None => None,
                _ => return Err("`level` must be a number or null".to_string()),
            },
            generator_coefficients: number_array(json.get("generator_coefficients"))?,
            counterexample_witnesses: json
                .get("counterexample_witnesses")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|w| number_array(Some(w)))
                .collect::<Result<_, _>>()?,
            stats: RunStats::from_json(
                json.get("stats")
                    .ok_or_else(|| "result is missing `stats`".to_string())?,
            )?,
            exhaustion: match json.get("exhaustion") {
                Some(entry) => {
                    let kind = entry
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| "`exhaustion` is missing `kind`".to_string())?;
                    let limit = entry.get("limit").and_then(Json::as_f64).map(|x| x as u64);
                    Some(ExhaustionReason::from_parts(kind, limit).ok_or_else(|| {
                        format!("unknown exhaustion kind `{kind}` (limit {limit:?})")
                    })?)
                }
                None => None,
            },
            wall_time_s: json
                .get("wall_time_s")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            build_time_s: json
                .get("build_time_s")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        };
        let recorded = json
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or_else(|| "result is missing `fingerprint`".to_string())?;
        if recorded != result.fingerprint() {
            return Err(format!(
                "fingerprint of `{}` does not match its fields (corrupted report?)",
                result.name
            ));
        }
        Ok(result)
    }
}

fn number_array(json: Option<&Json>) -> Result<Vec<f64>, String> {
    json.and_then(Json::as_array)
        .ok_or_else(|| "expected a numeric array".to_string())?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "expected a number".to_string()))
        .collect()
}

fn flatten_generator(certificate: &nncps_barrier::BarrierCertificate) -> Vec<f64> {
    let generator = certificate.generator();
    let n = generator.dim();
    let mut coefficients = Vec::with_capacity(n * n + n + 1);
    for i in 0..n {
        for j in 0..n {
            coefficients.push(generator.quadratic_part()[(i, j)]);
        }
    }
    for i in 0..n {
        coefficients.push(generator.linear_part()[i]);
    }
    coefficients.push(generator.constant_part());
    coefficients
}

impl RunStats {
    /// Extracts the deterministic counters from the pipeline statistics.
    pub fn from_verification(stats: &VerificationStats) -> Self {
        RunStats {
            generator_iterations: stats.generator_iterations,
            lp_solves: stats.lp_solves,
            smt_decrease_checks: stats.smt_decrease_checks,
            counterexamples: stats.counterexamples,
            level_iterations: stats.level_iterations,
            boxes_explored: stats.solver.boxes_explored,
            boxes_pruned: stats.solver.boxes_pruned,
            bisections: stats.solver.bisections,
            clauses_examined: stats.solver.clauses_examined,
            instructions_executed: stats.solver.instructions_executed,
            specialized_tape_len_sum: stats.solver.specialized_tape_len_sum,
            newton_cuts: stats.solver.newton_cuts,
        }
    }

    fn to_json(self) -> Json {
        Json::object([
            (
                "generator_iterations".to_string(),
                Json::from(self.generator_iterations),
            ),
            ("lp_solves".to_string(), Json::from(self.lp_solves)),
            (
                "smt_decrease_checks".to_string(),
                Json::from(self.smt_decrease_checks),
            ),
            (
                "counterexamples".to_string(),
                Json::from(self.counterexamples),
            ),
            (
                "level_iterations".to_string(),
                Json::from(self.level_iterations),
            ),
            (
                "boxes_explored".to_string(),
                Json::from(self.boxes_explored),
            ),
            ("boxes_pruned".to_string(), Json::from(self.boxes_pruned)),
            ("bisections".to_string(), Json::from(self.bisections)),
            (
                "clauses_examined".to_string(),
                Json::from(self.clauses_examined),
            ),
            (
                "instructions_executed".to_string(),
                Json::from(self.instructions_executed),
            ),
            (
                "specialized_tape_len_sum".to_string(),
                Json::from(self.specialized_tape_len_sum),
            ),
            ("newton_cuts".to_string(), Json::from(self.newton_cuts)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let count = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .map(|x| x as usize)
                .ok_or_else(|| format!("stats is missing `{key}`"))
        };
        // The evaluation-cost counters were added in a later schema
        // revision; older reports parse with zeroes.
        let optional_count = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .map(|x| x as usize)
                .unwrap_or(0)
        };
        Ok(RunStats {
            generator_iterations: count("generator_iterations")?,
            lp_solves: count("lp_solves")?,
            smt_decrease_checks: count("smt_decrease_checks")?,
            counterexamples: count("counterexamples")?,
            level_iterations: count("level_iterations")?,
            boxes_explored: count("boxes_explored")?,
            boxes_pruned: count("boxes_pruned")?,
            bisections: count("bisections")?,
            clauses_examined: count("clauses_examined")?,
            instructions_executed: optional_count("instructions_executed"),
            specialized_tape_len_sum: optional_count("specialized_tape_len_sum"),
            newton_cuts: optional_count("newton_cuts"),
        })
    }
}

/// A batch or sweep member whose verification panicked.
///
/// The sweep engine isolates each member behind
/// [`parallel_map_isolated`](nncps_parallel::parallel_map_isolated), so a
/// poisoned member becomes one of these rows — with the panic payload
/// preserved for diagnosis — while its siblings' results are exactly what
/// an undisturbed run would have produced.  Crash rows live *outside* the
/// fingerprinted per-scenario results: crashes are failures of the harness
/// or injected faults, not verification semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashedMember {
    /// The scenario (member) name.
    pub scenario: String,
    /// The panic payload, downcast to a string when possible.
    pub payload: String,
}

impl CrashedMember {
    fn to_json(&self) -> Json {
        Json::object([
            ("scenario".to_string(), Json::from(self.scenario.as_str())),
            ("payload".to_string(), Json::from(self.payload.as_str())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("crashed row is missing `{key}`"))
        };
        Ok(CrashedMember {
            scenario: field("scenario")?,
            payload: field("payload")?,
        })
    }
}

/// Per-family aggregate of a sweep run: verdict counts over the family's
/// members, diffed against the family's pinned [`ExpectedCounts`] when it
/// has them.
///
/// [`ExpectedCounts`]: crate::family::ExpectedCounts
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyRollup {
    /// The family name.
    pub name: String,
    /// Number of members that ran.
    pub members: usize,
    /// Members that certified.
    pub certified: usize,
    /// Members that stayed inconclusive.
    pub inconclusive: usize,
    /// Members whose verdict contradicted their (non-`any`) expectation.
    pub unexpected: usize,
    /// Members that panicked instead of producing a verdict (their rows are
    /// in [`BatchReport::crashed`]); serialized only when non-zero.
    pub crashed: usize,
    /// The pinned certified count, if the family declares one.
    pub expected_certified: Option<usize>,
    /// The pinned inconclusive count, if the family declares one.
    pub expected_inconclusive: Option<usize>,
}

impl FamilyRollup {
    /// Aggregates the results of one family's members; `crashed` counts the
    /// members that panicked and therefore appear in no result row.
    pub fn from_results(
        name: impl Into<String>,
        results: &[ScenarioResult],
        crashed: usize,
        expected: Option<crate::family::ExpectedCounts>,
    ) -> Self {
        FamilyRollup {
            name: name.into(),
            members: results.len() + crashed,
            certified: results.iter().filter(|r| r.verdict == "certified").count(),
            inconclusive: results
                .iter()
                .filter(|r| r.verdict == "inconclusive")
                .count(),
            unexpected: results.iter().filter(|r| !r.matches_expected).count(),
            crashed,
            expected_certified: expected.map(|c| c.certified),
            expected_inconclusive: expected.map(|c| c.inconclusive),
        }
    }

    /// The count-drift findings of this family (empty means the family-level
    /// gate passes; families without pinned counts always pass).
    pub fn findings(&self) -> Vec<String> {
        let mut findings = Vec::new();
        if self.crashed > 0 {
            // A crashed member produced no verdict, so the pinned verdict
            // counts cannot add up — report the crash itself instead of a
            // spurious count-drift finding.
            findings.push(format!(
                "family `{}` has {} crashed member(s)",
                self.name, self.crashed
            ));
        } else if let (Some(certified), Some(inconclusive)) =
            (self.expected_certified, self.expected_inconclusive)
        {
            if certified != self.certified || inconclusive != self.inconclusive {
                findings.push(format!(
                    "family `{}` verdict counts drifted: expected {certified} certified / \
                     {inconclusive} inconclusive, got {} / {}",
                    self.name, self.certified, self.inconclusive
                ));
            }
        }
        if self.unexpected > 0 {
            findings.push(format!(
                "family `{}` has {} member(s) with unexpected verdicts",
                self.name, self.unexpected
            ));
        }
        findings
    }

    fn to_json(&self) -> Json {
        let optional = |value: Option<usize>| match value {
            Some(n) => Json::from(n),
            None => Json::Null,
        };
        let mut fields = vec![
            ("name".to_string(), Json::from(self.name.as_str())),
            ("members".to_string(), Json::from(self.members)),
            ("certified".to_string(), Json::from(self.certified)),
            ("inconclusive".to_string(), Json::from(self.inconclusive)),
            ("unexpected".to_string(), Json::from(self.unexpected)),
        ];
        // Serialized only when non-zero: crash-free reports keep the
        // pre-governance byte layout.
        if self.crashed > 0 {
            fields.push(("crashed".to_string(), Json::from(self.crashed)));
        }
        fields.push((
            "expected_certified".to_string(),
            optional(self.expected_certified),
        ));
        fields.push((
            "expected_inconclusive".to_string(),
            optional(self.expected_inconclusive),
        ));
        Json::Object(fields)
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let count = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .map(|x| x as usize)
                .ok_or_else(|| format!("family rollup is missing `{key}`"))
        };
        let optional = |key: &str| match json.get(key) {
            Some(Json::Number(x)) => Some(*x as usize),
            _ => None,
        };
        Ok(FamilyRollup {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or("family rollup is missing `name`")?
                .to_string(),
            members: count("members")?,
            certified: count("certified")?,
            inconclusive: count("inconclusive")?,
            unexpected: count("unexpected")?,
            crashed: optional("crashed").unwrap_or(0),
            expected_certified: optional("expected_certified"),
            expected_inconclusive: optional("expected_inconclusive"),
        })
    }
}

/// The report of one batch run over a scenario registry.
///
/// # Examples
///
/// ```
/// use nncps_scenarios::{BatchOptions, Registry, run_batch};
///
/// let registry = Registry::builtin().filtered("canary");
/// let report = run_batch(&registry, &BatchOptions::default());
/// assert_eq!(report.results.len(), 1);
/// assert!(report.all_match_expected());
/// let deterministic = report.to_json(false);
/// assert_eq!(
///     nncps_scenarios::BatchReport::from_json(&deterministic).unwrap().to_json(false),
///     deterministic
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Scenario-level worker threads the batch ran with (`0` = one per
    /// core).  Serialized only in the timing-bearing report form:
    /// scenario-level parallelism cannot affect results (each scenario's
    /// δ-SAT search is sequential), so the deterministic form is
    /// byte-identical across thread counts.
    pub threads: usize,
    /// Per-scenario results, in registry order.
    pub results: Vec<ScenarioResult>,
    /// Per-family aggregates of a sweep run (empty for plain registry
    /// batches; serialized only when non-empty).
    pub families: Vec<FamilyRollup>,
    /// Members that panicked instead of producing a result, in run order
    /// (serialized only when non-empty, and never fingerprinted — see
    /// [`CrashedMember`]).
    pub crashed: Vec<CrashedMember>,
}

impl BatchReport {
    /// Serializes the report.
    ///
    /// With `include_timings == false` the output is fully deterministic:
    /// two runs of the same registry produce byte-identical documents
    /// regardless of the scenario-level thread count (this is asserted by
    /// the crate's tests and is what makes the CI diff meaningful).  The
    /// thread count and wall times appear only in the timing-bearing form.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut fields = vec![
            ("schema".to_string(), Json::from("nncps-batch-report/v1")),
            ("scenario_count".to_string(), Json::from(self.results.len())),
            (
                "all_match_expected".to_string(),
                Json::Bool(self.all_match_expected()),
            ),
        ];
        if include_timings {
            let total: f64 = self
                .results
                .iter()
                .map(|r| r.wall_time_s + r.build_time_s)
                .sum();
            fields.push(("threads".to_string(), Json::from(self.threads)));
            fields.push(("total_time_s".to_string(), Json::Number(total)));
        }
        if !self.families.is_empty() {
            fields.push((
                "families".to_string(),
                Json::Array(self.families.iter().map(FamilyRollup::to_json).collect()),
            ));
        }
        if !self.crashed.is_empty() {
            fields.push((
                "crashed".to_string(),
                Json::Array(self.crashed.iter().map(CrashedMember::to_json).collect()),
            ));
        }
        fields.push((
            "results".to_string(),
            Json::Array(
                self.results
                    .iter()
                    .map(|r| r.to_json(include_timings))
                    .collect(),
            ),
        ));
        Json::Object(fields).to_string()
    }

    /// Parses a report serialized by [`BatchReport::to_json`], verifying
    /// every per-scenario fingerprint.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        match json.get("schema").and_then(Json::as_str) {
            Some("nncps-batch-report/v1") => {}
            other => return Err(format!("unsupported report schema {other:?}")),
        }
        // `threads` is only present in the timing-bearing form; parsing a
        // deterministic report yields the (equivalent) sequential default.
        let threads = json.get("threads").and_then(Json::as_f64).unwrap_or(1.0) as usize;
        let results = json
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| "report is missing `results`".to_string())?
            .iter()
            .map(ScenarioResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let families = json
            .get("families")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(FamilyRollup::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let crashed = json
            .get("crashed")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(CrashedMember::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchReport {
            threads,
            results,
            families,
            crashed,
        })
    }

    /// Whether any member panicked instead of producing a result.
    pub fn has_crashes(&self) -> bool {
        !self.crashed.is_empty()
    }

    /// Whether every scenario produced its expected verdict.
    pub fn all_match_expected(&self) -> bool {
        self.results.iter().all(|r| r.matches_expected)
    }

    /// Diffs every family's verdict counts against its pinned expectation.
    /// Empty result means the family-level gate passes.
    pub fn check_family_counts(&self) -> Result<(), Vec<String>> {
        let findings: Vec<String> = self
            .families
            .iter()
            .flat_map(FamilyRollup::findings)
            .collect();
        if findings.is_empty() {
            Ok(())
        } else {
            Err(findings)
        }
    }

    /// The checked-in baseline format: scenario name → verdict +
    /// fingerprint.  This is intentionally a *subset* of the full report so
    /// the baseline does not churn when reporting-only fields evolve.
    pub fn expected_json(&self) -> String {
        Json::object([
            (
                "schema".to_string(),
                Json::from("nncps-scenarios-expected/v1"),
            ),
            (
                "scenarios".to_string(),
                Json::Array(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("name".to_string(), Json::from(r.name.as_str())),
                                ("verdict".to_string(), Json::from(r.verdict.as_str())),
                                ("fingerprint".to_string(), Json::String(r.fingerprint())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Diffs this run against a checked-in baseline (the text of
    /// `SCENARIOS_expected.json`).
    ///
    /// `Ok(warnings)` means the gate passes; the warnings list any baseline
    /// fields this version does not understand (written by a newer tool and
    /// ignored here — forward compatibility is warn-and-ignore, never a hard
    /// failure).  `Err(findings)` lists genuine drift: verdict or fingerprint
    /// changes, missing members, or an unparseable/incompatible baseline.
    pub fn check_against_expected(&self, baseline: &str) -> Result<Vec<String>, Vec<String>> {
        let parsed = match Json::parse(baseline) {
            Ok(json) => json,
            Err(e) => return Err(vec![format!("cannot parse baseline: {e}")]),
        };
        let mut findings = Vec::new();
        let mut warnings = Vec::new();
        if parsed.get("schema").and_then(Json::as_str) != Some("nncps-scenarios-expected/v1") {
            findings.push("baseline has an unsupported schema".to_string());
            return Err(findings);
        }
        if let Some(fields) = parsed.as_object() {
            for (key, _) in fields {
                if key != "schema" && key != "scenarios" {
                    warnings.push(format!(
                        "baseline has unknown field `{key}` (written by a newer \
                         tool?); ignoring it"
                    ));
                }
            }
        }
        let expected = parsed
            .get("scenarios")
            .and_then(Json::as_array)
            .unwrap_or_default();
        for entry in expected {
            if let Some(fields) = entry.as_object() {
                for (key, _) in fields {
                    if !matches!(key.as_str(), "name" | "verdict" | "fingerprint") {
                        warnings.push(format!(
                            "baseline entry `{}` has unknown field `{key}`; ignoring it",
                            entry.get("name").and_then(Json::as_str).unwrap_or("?"),
                        ));
                    }
                }
            }
            let Some(name) = entry.get("name").and_then(Json::as_str) else {
                findings.push("baseline entry without a name".to_string());
                continue;
            };
            let Some(result) = self.results.iter().find(|r| r.name == name) else {
                findings.push(format!(
                    "scenario `{name}` is in the baseline but was not run"
                ));
                continue;
            };
            let expected_verdict = entry.get("verdict").and_then(Json::as_str).unwrap_or("");
            if result.verdict != expected_verdict {
                findings.push(format!(
                    "verdict drift on `{name}`: expected {expected_verdict}, got {} ({})",
                    result.verdict,
                    result.reason.as_deref().unwrap_or("certified"),
                ));
                continue;
            }
            let expected_fingerprint = entry
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("");
            let actual_fingerprint = result.fingerprint();
            if actual_fingerprint != expected_fingerprint {
                findings.push(format!(
                    "witness/certificate drift on `{name}`: fingerprint {expected_fingerprint} \
                     -> {actual_fingerprint} (verdict unchanged: {})",
                    result.verdict
                ));
            }
        }
        for result in &self.results {
            let known = expected
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(result.name.as_str()));
            if !known {
                findings.push(format!(
                    "scenario `{}` ran but is missing from the baseline \
                     (regenerate with --write-expected)",
                    result.name
                ));
            }
        }
        if findings.is_empty() {
            Ok(warnings)
        } else {
            Err(findings)
        }
    }
}

/// Incremental 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(name: &str, verdict: &str) -> ScenarioResult {
        ScenarioResult {
            name: name.to_string(),
            plant_kind: "linear".to_string(),
            expected: "certified".to_string(),
            verdict: verdict.to_string(),
            matches_expected: verdict == "certified",
            reason: (verdict == "inconclusive").then(|| "budget exhausted".to_string()),
            level: (verdict == "certified").then_some(0.1875),
            generator_coefficients: vec![1.0, 0.25, 0.25, 2.0, 0.0, 0.0, -0.5],
            counterexample_witnesses: vec![vec![0.5, -0.25]],
            stats: RunStats {
                generator_iterations: 2,
                lp_solves: 2,
                smt_decrease_checks: 2,
                counterexamples: 1,
                level_iterations: 3,
                boxes_explored: 120,
                boxes_pruned: 80,
                bisections: 40,
                clauses_examined: 9,
                instructions_executed: 5400,
                specialized_tape_len_sum: 3600,
                newton_cuts: 12,
            },
            exhaustion: None,
            wall_time_s: 1.25,
            build_time_s: 0.03,
        }
    }

    fn sample_report() -> BatchReport {
        BatchReport {
            threads: 1,
            results: vec![
                sample_result("alpha", "certified"),
                sample_result("beta", "inconclusive"),
            ],
            families: Vec::new(),
            crashed: Vec::new(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        for include_timings in [false, true] {
            let text = report.to_json(include_timings);
            let back = BatchReport::from_json(&text).unwrap();
            assert_eq!(back.to_json(include_timings), text);
            if include_timings {
                assert_eq!(back, report);
            }
        }
    }

    #[test]
    fn deterministic_serialization_excludes_timings() {
        let mut a = sample_report();
        let mut b = sample_report();
        a.results[0].wall_time_s = 1.0;
        b.results[0].wall_time_s = 99.0;
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_ne!(a.to_json(true), b.to_json(true));
    }

    #[test]
    fn fingerprint_tracks_semantic_fields_only() {
        let base = sample_result("alpha", "certified");
        let mut timing_change = base.clone();
        timing_change.wall_time_s *= 10.0;
        assert_eq!(base.fingerprint(), timing_change.fingerprint());

        let mut level_change = base.clone();
        level_change.level = Some(0.1876);
        assert_ne!(base.fingerprint(), level_change.fingerprint());

        let mut witness_change = base.clone();
        witness_change.counterexample_witnesses[0][1] += 1e-12;
        assert_ne!(base.fingerprint(), witness_change.fingerprint());

        let mut coefficient_change = base.clone();
        coefficient_change.generator_coefficients[3] = 2.0000001;
        assert_ne!(base.fingerprint(), coefficient_change.fingerprint());

        // A missing reason and an empty reason are different states.
        let mut empty_reason = base.clone();
        assert_eq!(empty_reason.reason, None);
        empty_reason.reason = Some(String::new());
        assert_ne!(base.fingerprint(), empty_reason.fingerprint());
    }

    #[test]
    fn corrupted_fingerprints_are_rejected_on_parse() {
        let report = sample_report();
        let text = report.to_json(false);
        let tampered = text.replace("0.1875", "0.1874");
        let err = BatchReport::from_json(&tampered).unwrap_err();
        assert!(err.contains("fingerprint"), "err: {err}");
    }

    #[test]
    fn expected_baseline_check_passes_on_itself() {
        let report = sample_report();
        let baseline = report.expected_json();
        assert_eq!(report.check_against_expected(&baseline), Ok(Vec::new()));
    }

    #[test]
    fn unknown_baseline_fields_warn_instead_of_failing() {
        let report = sample_report();
        // Simulate a baseline written by a future tool: extra top-level and
        // per-entry fields that this version has never heard of.
        let mut parsed = Json::parse(&report.expected_json()).unwrap();
        let Json::Object(fields) = &mut parsed else {
            panic!("baseline is an object");
        };
        fields.push(("store_epoch".to_string(), Json::Number(7.0)));
        let Some((_, Json::Array(entries))) = fields.iter_mut().find(|(k, _)| k == "scenarios")
        else {
            panic!("baseline has scenarios");
        };
        let Json::Object(entry) = &mut entries[0] else {
            panic!("entries are objects");
        };
        entry.push(("wall_time_budget".to_string(), Json::Number(1.5)));
        let future = parsed.to_string();
        let warnings = report
            .check_against_expected(&future)
            .expect("unknown fields must not fail the gate");
        assert!(
            warnings.iter().any(|w| w.contains("`store_epoch`")),
            "{warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.contains("`wall_time_budget`")),
            "{warnings:?}"
        );
        // Drift detection still works on the known fields of that baseline.
        let mut drifted = report.clone();
        drifted.results[0].verdict = "inconclusive".to_string();
        assert!(drifted.check_against_expected(&future).is_err());
    }

    #[test]
    fn expected_baseline_check_reports_drift() {
        let report = sample_report();
        let baseline = report.expected_json();

        // Verdict drift.
        let mut drifted = report.clone();
        drifted.results[1].verdict = "certified".to_string();
        drifted.results[1].reason = None;
        let findings = drifted.check_against_expected(&baseline).unwrap_err();
        assert!(findings
            .iter()
            .any(|f| f.contains("verdict drift on `beta`")));

        // Witness drift with an unchanged verdict.
        let mut witness_drift = report.clone();
        witness_drift.results[0].counterexample_witnesses[0][0] = 0.75;
        let findings = witness_drift.check_against_expected(&baseline).unwrap_err();
        assert!(findings.iter().any(|f| f.contains("drift on `alpha`")));

        // Baseline scenario that did not run + run scenario not in baseline.
        let mut renamed = report.clone();
        renamed.results[0].name = "gamma".to_string();
        let findings = renamed.check_against_expected(&baseline).unwrap_err();
        assert!(findings
            .iter()
            .any(|f| f.contains("`alpha` is in the baseline")));
        assert!(findings
            .iter()
            .any(|f| f.contains("`gamma` ran but is missing")));

        // Unparseable and wrong-schema baselines.
        assert!(report.check_against_expected("{").is_err());
        assert!(report
            .check_against_expected("{\"schema\": \"other/v9\"}")
            .is_err());
    }

    #[test]
    fn exhaustion_round_trips_and_respects_the_deterministic_form() {
        let mut report = sample_report();
        report.results[1].exhaustion = Some(ExhaustionReason::Fuel(300));

        // Deterministic reasons survive both serialization forms.
        for include_timings in [false, true] {
            let text = report.to_json(include_timings);
            assert!(text.contains("\"exhaustion\""), "{text}");
            assert!(text.contains("\"fuel\""), "{text}");
            let back = BatchReport::from_json(&text).unwrap();
            assert_eq!(
                back.results[1].exhaustion,
                Some(ExhaustionReason::Fuel(300))
            );
            assert_eq!(back.to_json(include_timings), text);
        }
        let boxes = {
            let mut r = report.clone();
            r.results[1].exhaustion = Some(ExhaustionReason::Boxes(2_000_000));
            BatchReport::from_json(&r.to_json(false)).unwrap().results[1].exhaustion
        };
        assert_eq!(boxes, Some(ExhaustionReason::Boxes(2_000_000)));

        // Non-deterministic reasons appear only in the timing-bearing form.
        report.results[1].exhaustion = Some(ExhaustionReason::Deadline);
        let deterministic = report.to_json(false);
        assert!(!deterministic.contains("\"exhaustion\""), "{deterministic}");
        let back = BatchReport::from_json(&deterministic).unwrap();
        assert_eq!(back.results[1].exhaustion, None);
        let timed = report.to_json(true);
        assert!(timed.contains("\"deadline\""), "{timed}");
        let back = BatchReport::from_json(&timed).unwrap();
        assert_eq!(back.results[1].exhaustion, Some(ExhaustionReason::Deadline));

        // The exhaustion field never feeds the fingerprint: crash-free
        // pre-governance baselines must keep matching.
        let mut with = sample_result("alpha", "inconclusive");
        with.exhaustion = Some(ExhaustionReason::Fuel(7));
        let mut without = with.clone();
        without.exhaustion = None;
        assert_eq!(with.fingerprint(), without.fingerprint());

        // Unknown kinds are rejected on parse.
        let tampered = report.to_json(true).replace("\"deadline\"", "\"teapot\"");
        let err = BatchReport::from_json(&tampered).unwrap_err();
        assert!(err.contains("unknown exhaustion kind"), "{err}");
    }

    #[test]
    fn crashed_rows_round_trip_outside_the_results() {
        let mut report = sample_report();
        assert!(!report.has_crashes());
        report.crashed = vec![CrashedMember {
            scenario: "gamma-003".to_string(),
            payload: "injected panic at solver.box_pop".to_string(),
        }];
        assert!(report.has_crashes());
        for include_timings in [false, true] {
            let text = report.to_json(include_timings);
            assert!(text.contains("\"crashed\""), "{text}");
            assert!(text.contains("solver.box_pop"), "{text}");
            let back = BatchReport::from_json(&text).unwrap();
            assert_eq!(back.crashed, report.crashed);
            assert_eq!(back.to_json(include_timings), text);
        }
        // A crash-free report serializes without the field at all.
        let clean = sample_report().to_json(false);
        assert!(!clean.contains("\"crashed\""), "{clean}");

        // A crashed member suppresses the count-drift finding in favour of
        // a crash finding.
        let results = vec![sample_result("fam-000", "certified")];
        let crashed_rollup = FamilyRollup::from_results(
            "fam",
            &results,
            1,
            Some(crate::family::ExpectedCounts {
                certified: 2,
                inconclusive: 0,
            }),
        );
        assert_eq!(crashed_rollup.members, 2);
        assert_eq!(crashed_rollup.crashed, 1);
        let findings = crashed_rollup.findings();
        assert!(
            findings.iter().any(|f| f.contains("1 crashed member")),
            "{findings:?}"
        );
        assert!(
            findings.iter().all(|f| !f.contains("counts drifted")),
            "{findings:?}"
        );
        // And the rollup's crashed count round-trips.
        report.families = vec![crashed_rollup.clone()];
        let back = BatchReport::from_json(&report.to_json(false)).unwrap();
        assert_eq!(back.families, vec![crashed_rollup]);
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(BatchReport::from_json("{}").is_err());
        assert!(BatchReport::from_json("not json").is_err());
        let no_results = "{\"schema\": \"nncps-batch-report/v1\", \"threads\": 1}";
        assert!(BatchReport::from_json(no_results).is_err());
    }

    #[test]
    fn family_rollups_aggregate_and_round_trip() {
        let results = vec![
            sample_result("fam-000", "certified"),
            sample_result("fam-001", "inconclusive"),
            sample_result("fam-002", "certified"),
        ];
        let rollup = FamilyRollup::from_results(
            "fam",
            &results,
            0,
            Some(crate::family::ExpectedCounts {
                certified: 2,
                inconclusive: 1,
            }),
        );
        assert_eq!(
            (rollup.members, rollup.certified, rollup.inconclusive),
            (3, 2, 1)
        );
        // `sample_result` marks inconclusive rows as unexpected.
        assert_eq!(rollup.unexpected, 1);
        assert!(rollup
            .findings()
            .iter()
            .any(|f| f.contains("unexpected verdicts")));

        let mut report = sample_report();
        report.families = vec![rollup.clone()];
        let text = report.to_json(false);
        assert!(text.contains("\"families\""));
        let back = BatchReport::from_json(&text).unwrap();
        assert_eq!(back.families, vec![rollup.clone()]);
        assert_eq!(back.to_json(false), text);
        // Count drift is reported; matching counts pass.
        assert!(report.check_family_counts().is_err());
        let mut matching = rollup;
        matching.unexpected = 0;
        matching.expected_certified = Some(2);
        matching.expected_inconclusive = Some(1);
        report.families = vec![matching];
        assert!(report.check_family_counts().is_ok());
        // Families without pinned counts never fail the counts gate.
        let unpinned = FamilyRollup::from_results("loose", &results, 0, None);
        assert!(
            unpinned.findings().len() == 1,
            "only the unexpected-verdict finding remains"
        );
        // Reports without a families section parse to an empty list.
        let plain = sample_report();
        let parsed = BatchReport::from_json(&plain.to_json(false)).unwrap();
        assert!(parsed.families.is_empty());
    }
}
