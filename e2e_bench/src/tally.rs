//! Output checks: every member verification or submit is one attempted
//! operation, and any wrong verdict, fingerprint drift, count drift, crash
//! or protocol error makes it one failed operation.

use std::collections::BTreeMap;

use nncps::scenarios::{Json, ScenarioResult};

/// Attempted and failed operations of one run, with the reason of every
/// failure (printed to the diagnostics log).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub findings: Vec<String>,
}

impl Tally {
    /// Records one operation whose checks produced `problems`; any problem
    /// fails the operation once, however many checks it broke.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.findings
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Records a run-level check that is not itself an operation (the
    /// replay guard, count drift between traced passes): a failure still
    /// makes the run incorrect.
    pub fn require(&mut self, ok: bool, finding: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.findings.push(finding());
        }
    }
}

/// The deterministic identity of one member's outcome: the report
/// fingerprint (verdict, reason, level and generator bits, witness trail)
/// plus every deterministic counter, `SolverStats` cost counters included.
#[derive(Debug, Clone, PartialEq)]
pub struct Identity {
    pub verdict: String,
    pub fingerprint: String,
    pub stats: nncps::scenarios::RunStats,
}

impl Identity {
    pub fn of(result: &ScenarioResult) -> Identity {
        Identity {
            verdict: result.verdict.clone(),
            fingerprint: result.fingerprint(),
            stats: result.stats,
        }
    }

    /// The differences between `self` (observed) and `reference`.
    pub fn diff(&self, reference: &Identity) -> Vec<String> {
        let mut problems = Vec::new();
        if self.verdict != reference.verdict {
            problems.push(format!(
                "verdict {} (reference {})",
                self.verdict, reference.verdict
            ));
        }
        if self.fingerprint != reference.fingerprint {
            problems.push(format!(
                "fingerprint {} (reference {})",
                self.fingerprint, reference.fingerprint
            ));
        }
        if self.stats != reference.stats {
            problems.push(format!(
                "counters {:?} (reference {:?})",
                self.stats, reference.stats
            ));
        }
        problems
    }
}

/// The pinned `(verdict, fingerprint)` of every registry scenario, from the
/// text of `SCENARIOS_expected.json`.
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, (String, String)>, String> {
    let json = Json::parse(text).map_err(|e| format!("cannot parse baseline: {e}"))?;
    let entries = json
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("baseline has no `scenarios` array")?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry without `{key}`"))
            };
            Ok((field("name")?, (field("verdict")?, field("fingerprint")?)))
        })
        .collect()
}

/// Checks one registry result against its pinned baseline entry.
pub fn check_pinned(
    result: &ScenarioResult,
    expected: &BTreeMap<String, (String, String)>,
) -> Vec<String> {
    let Some((verdict, fingerprint)) = expected.get(&result.name) else {
        return vec![format!("`{}` has no pinned entry", result.name)];
    };
    let mut problems = Vec::new();
    if &result.verdict != verdict {
        problems.push(format!("verdict {} (pinned {verdict})", result.verdict));
    }
    let observed = result.fingerprint();
    if &observed != fingerprint {
        problems.push(format!("fingerprint {observed} (pinned {fingerprint})"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps::scenarios::{run_scenario, Registry};

    const BASELINE: &str = include_str!("../../SCENARIOS_expected.json");

    #[test]
    fn a_corrupted_pinned_fingerprint_is_exactly_one_failed_operation() {
        let registry = Registry::builtin();
        let result = run_scenario(registry.get("linear-unstable-canary").unwrap());
        let mut expected = parse_expected(BASELINE).unwrap();
        let mut tally = Tally::default();
        tally.record("canary", check_pinned(&result, &expected));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.findings
        );

        // Corrupt the pinned fingerprint *and* the verdict: still a single
        // failed operation, with both reasons recorded.
        let entry = expected.get_mut("linear-unstable-canary").unwrap();
        entry.1 = "0000000000000000".to_string();
        entry.0 = "certified".to_string();
        tally.record("canary", check_pinned(&result, &expected));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.findings[0].contains("fingerprint"));
        assert!(tally.findings[0].contains("verdict"));
    }

    #[test]
    fn identities_diff_on_every_deterministic_field() {
        let registry = Registry::builtin();
        let result = run_scenario(registry.get("linear-unstable-canary").unwrap());
        let reference = Identity::of(&result);
        assert!(Identity::of(&result).diff(&reference).is_empty());
        let mut drifted = reference.clone();
        drifted.stats.instructions_executed += 1;
        assert_eq!(drifted.diff(&reference).len(), 1);
    }

    #[test]
    fn the_baseline_lists_every_builtin_scenario() {
        let expected = parse_expected(BASELINE).unwrap();
        for scenario in Registry::builtin().iter() {
            assert!(
                expected.contains_key(scenario.name()),
                "{}",
                scenario.name()
            );
        }
        assert!(parse_expected("{}").is_err());
    }
}
