//! Deterministic fault injection: hand-rolled failpoints for rehearsing the
//! workspace's failure paths.
//!
//! A **fault site** is a named hook compiled into a risky seam of the
//! pipeline (solver box pop, LP pivot, tape compilation, warm-start cache
//! insert, simulator step).  With the `enabled` feature off — the default —
//! every hook is an empty `#[inline]` function and the binary carries no
//! fault machinery at all.  With it on, sites can be **armed** with a fault
//! (a panic, a spurious NaN, or forced fuel exhaustion) and a deterministic
//! trigger: fire on the `nth` hit of the site, fire always, or fire per-hit
//! with a seeded ChaCha8 probability.
//!
//! Configuration is offline-friendly: the `NNCPS_FAULTS` environment
//! variable (`site=kind[:nth=N][:p=P][:seed=S]`, comma-separated), an
//! `NNCPS_FAULTS_FILE` TOML manifest of `[[fault]]` tables, or the
//! programmatic [`arm`]/[`disarm_all`] API used by the chaos test suites.
//!
//! With single-threaded execution the `nth` trigger is fully
//! deterministic: the same build hits the same site in the same order, so
//! one seeded fault lands in exactly one family member — which is what the
//! CI chaos stage relies on.
//!
//! # Examples
//!
//! ```
//! use nncps_fault::{arm, disarm_all, panic_point, FaultKind, FaultSpec, Trigger};
//!
//! // Without the `enabled` feature this is all inert.
//! arm("example.site", FaultSpec::new(FaultKind::Panic, Trigger::Nth(1)));
//! if cfg!(feature = "enabled") {
//!     assert!(std::panic::catch_unwind(|| panic_point("example.site")).is_err());
//! } else {
//!     panic_point("example.site"); // no-op
//! }
//! disarm_all();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Fault site: the δ-SAT solver's branch-and-prune box pop.
pub const SITE_SOLVER_BOX_POP: &str = "solver.box_pop";
/// Fault site: one basis change of the LP solver's revised dual simplex.
pub const SITE_LP_PIVOT: &str = "lp.pivot";
/// Fault site: expression-to-tape compilation.
pub const SITE_TAPE_COMPILE: &str = "tape.compile";
/// Fault site: warm-start cache insertion.
pub const SITE_WARMSTART_INSERT: &str = "warmstart.insert";
/// Fault site: one simulator integration step.
pub const SITE_SIM_STEP: &str = "sim.step";

/// Every registered fault site, for docs and validation.
pub const ALL_SITES: [&str; 5] = [
    SITE_SOLVER_BOX_POP,
    SITE_LP_PIVOT,
    SITE_TAPE_COMPILE,
    SITE_WARMSTART_INSERT,
    SITE_SIM_STEP,
];

/// What an armed fault injects when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises panic isolation).
    Panic,
    /// Replace the site's value with a spurious NaN.
    Nan,
    /// Force the governing budget into fuel exhaustion.
    FuelExhaustion,
}

impl FaultKind {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "panic" => Ok(FaultKind::Panic),
            "nan" => Ok(FaultKind::Nan),
            "fuel" => Ok(FaultKind::FuelExhaustion),
            other => Err(format!(
                "unknown fault kind `{other}` (expected panic, nan, or fuel)"
            )),
        }
    }
}

/// When an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every hit of the site.
    Always,
    /// Fire exactly once, on the `n`-th hit (1-based) of the site.
    Nth(u64),
    /// Fire independently per hit with probability `p`, driven by a
    /// ChaCha8 stream seeded with `seed` (reproducible per arm call).
    Probability {
        /// Per-hit firing probability in `[0, 1]`.
        p: f64,
        /// RNG seed; the stream restarts every time the site is armed.
        seed: u64,
    },
}

/// A fault to arm at a site: what to inject and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What the fault injects.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: Trigger,
}

impl FaultSpec {
    /// Bundles a kind and a trigger.
    pub fn new(kind: FaultKind, trigger: Trigger) -> Self {
        FaultSpec { kind, trigger }
    }
}

/// Parses one `NNCPS_FAULTS` entry: `site=kind[:nth=N][:p=P][:seed=S]`.
fn parse_entry(entry: &str) -> Result<(String, FaultSpec), String> {
    let mut parts = entry.split(':');
    let head = parts.next().unwrap_or("");
    let (site, kind) = head
        .split_once('=')
        .ok_or_else(|| format!("fault entry `{entry}` is missing `site=kind`"))?;
    if site.is_empty() {
        return Err(format!("fault entry `{entry}` has an empty site"));
    }
    let kind = FaultKind::parse(kind)?;
    let mut nth: Option<u64> = None;
    let mut p: Option<f64> = None;
    let mut seed: u64 = 0;
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("malformed fault option `{part}` in `{entry}`"))?;
        match key {
            "nth" => {
                nth =
                    Some(value.parse().map_err(|_| {
                        format!("fault option nth=`{value}` is not a positive integer")
                    })?)
            }
            "p" => {
                p = Some(
                    value
                        .parse()
                        .map_err(|_| format!("fault option p=`{value}` is not a number"))?,
                )
            }
            "seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("fault option seed=`{value}` is not an integer"))?
            }
            other => return Err(format!("unknown fault option `{other}` in `{entry}`")),
        }
    }
    let trigger = match (nth, p) {
        (Some(_), Some(_)) => {
            return Err(format!("fault entry `{entry}` sets both nth and p"));
        }
        (Some(0), None) => return Err(format!("fault entry `{entry}`: nth is 1-based")),
        (Some(n), None) => Trigger::Nth(n),
        (None, Some(p)) if (0.0..=1.0).contains(&p) => Trigger::Probability { p, seed },
        (None, Some(p)) => return Err(format!("fault probability {p} is outside [0, 1]")),
        (None, None) => Trigger::Always,
    };
    Ok((site.to_string(), FaultSpec::new(kind, trigger)))
}

/// Parses a minimal TOML manifest of `[[fault]]` tables, e.g.
///
/// ```toml
/// [[fault]]
/// site = "solver.box_pop"
/// kind = "panic"
/// nth = 3
/// ```
///
/// Supported keys per table: `site` (string), `kind` (string), `nth`
/// (integer), `p` (float), `seed` (integer).
fn parse_toml(text: &str) -> Result<Vec<(String, FaultSpec)>, String> {
    #[derive(Default)]
    struct Partial {
        site: Option<String>,
        kind: Option<String>,
        nth: Option<u64>,
        p: Option<f64>,
        seed: u64,
        seen: bool,
    }
    impl Partial {
        fn finish(&mut self) -> Result<Option<(String, FaultSpec)>, String> {
            if !self.seen {
                return Ok(None);
            }
            let site = self.site.take().ok_or("a [[fault]] table has no `site`")?;
            let kind = self.kind.take().ok_or("a [[fault]] table has no `kind`")?;
            let mut entry = format!("{site}={kind}");
            if let Some(n) = self.nth.take() {
                entry.push_str(&format!(":nth={n}"));
            }
            if let Some(p) = self.p.take() {
                entry.push_str(&format!(":p={p}:seed={}", self.seed));
            }
            self.seed = 0;
            self.seen = false;
            parse_entry(&entry).map(Some)
        }
    }
    let mut faults = Vec::new();
    let mut current = Partial::default();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[fault]]" {
            if let Some(done) = current.finish()? {
                faults.push(done);
            }
            current.seen = true;
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed fault manifest line `{line}`"))?;
        if !current.seen {
            return Err(format!("`{line}` appears outside a [[fault]] table"));
        }
        let key = key.trim();
        let value = value.trim();
        let unquote = |v: &str| v.trim_matches('"').to_string();
        match key {
            "site" => current.site = Some(unquote(value)),
            "kind" => current.kind = Some(unquote(value)),
            "nth" => {
                current.nth = Some(
                    value
                        .parse()
                        .map_err(|_| format!("fault manifest nth=`{value}` is not an integer"))?,
                )
            }
            "p" => {
                current.p = Some(
                    value
                        .parse()
                        .map_err(|_| format!("fault manifest p=`{value}` is not a number"))?,
                )
            }
            "seed" => {
                current.seed = value
                    .parse()
                    .map_err(|_| format!("fault manifest seed=`{value}` is not an integer"))?
            }
            other => return Err(format!("unknown fault manifest key `{other}`")),
        }
    }
    if let Some(done) = current.finish()? {
        faults.push(done);
    }
    Ok(faults)
}

#[cfg(feature = "enabled")]
mod active {
    use super::{parse_entry, parse_toml, FaultKind, FaultSpec, Trigger};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};

    struct Armed {
        spec: FaultSpec,
        hits: u64,
        fired: bool,
        rng: Option<ChaCha8Rng>,
    }

    impl Armed {
        fn new(spec: FaultSpec) -> Self {
            let rng = match spec.trigger {
                Trigger::Probability { seed, .. } => Some(ChaCha8Rng::seed_from_u64(seed)),
                _ => None,
            };
            Armed {
                spec,
                hits: 0,
                fired: false,
                rng,
            }
        }
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(text) = std::env::var("NNCPS_FAULTS") {
                for entry in text.split(',').filter(|e| !e.trim().is_empty()) {
                    let (site, spec) =
                        parse_entry(entry.trim()).unwrap_or_else(|e| panic!("NNCPS_FAULTS: {e}"));
                    map.insert(site, Armed::new(spec));
                }
            }
            if let Ok(path) = std::env::var("NNCPS_FAULTS_FILE") {
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("NNCPS_FAULTS_FILE: cannot read {path}: {e}"));
                for (site, spec) in
                    parse_toml(&text).unwrap_or_else(|e| panic!("NNCPS_FAULTS_FILE: {e}"))
                {
                    map.insert(site, Armed::new(spec));
                }
            }
            Mutex::new(map)
        })
    }

    /// Counts a hit of `(site, kind)` and reports whether the armed fault
    /// fires.  Kind-mismatched hooks at the same site do not consume hits.
    fn triggered(site: &str, kind: FaultKind) -> bool {
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let Some(armed) = map.get_mut(site) else {
            return false;
        };
        if armed.spec.kind != kind {
            return false;
        }
        armed.hits += 1;
        match armed.spec.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => {
                if !armed.fired && armed.hits == n {
                    armed.fired = true;
                    true
                } else {
                    false
                }
            }
            Trigger::Probability { p, .. } => {
                let rng = armed.rng.as_mut().expect("probability faults carry an rng");
                rng.gen::<f64>() < p
            }
        }
    }

    /// Passes a panic fault site: panics iff an armed `panic` fault fires.
    pub fn panic_point(site: &str) {
        if triggered(site, FaultKind::Panic) {
            panic!("injected panic at fault site `{site}`");
        }
    }

    /// Passes a NaN fault site carrying `value`: NaN iff an armed `nan`
    /// fault fires, `value` unchanged otherwise.
    pub fn corrupt_f64(site: &str, value: f64) -> f64 {
        if triggered(site, FaultKind::Nan) {
            f64::NAN
        } else {
            value
        }
    }

    /// Passes a fuel-exhaustion fault site: whether an armed `fuel` fault
    /// fired (the caller forces its governing budget into exhaustion).
    pub fn fuel_exhaustion(site: &str) -> bool {
        triggered(site, FaultKind::FuelExhaustion)
    }

    /// Arms `site` with `spec`, replacing any existing fault there.
    pub fn arm(site: &str, spec: FaultSpec) {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(site.to_string(), Armed::new(spec));
    }

    /// Disarms `site`.
    pub fn disarm(site: &str) {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(site);
    }

    /// Disarms every site.
    pub fn disarm_all() {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Arms every fault in a TOML manifest (see the crate docs for the
    /// format); returns how many were armed.
    pub fn configure_from_toml_str(text: &str) -> Result<usize, String> {
        let faults = parse_toml(text)?;
        let count = faults.len();
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        for (site, spec) in faults {
            map.insert(site, Armed::new(spec));
        }
        Ok(count)
    }

    /// Number of trigger-counted hits at `site`.
    pub fn hits(site: &str) -> u64 {
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(site)
            .map_or(0, |armed| armed.hits)
    }
}

#[cfg(feature = "enabled")]
pub use active::*;

/// Passes a panic fault site.  Panics if an armed `panic` fault fires; a
/// no-op otherwise (and always, without the `enabled` feature).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn panic_point(_site: &str) {}

/// Passes a NaN fault site carrying `value`.  Returns NaN if an armed
/// `nan` fault fires; returns `value` unchanged otherwise (and always,
/// without the `enabled` feature).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn corrupt_f64(_site: &str, value: f64) -> f64 {
    value
}

/// Passes a fuel-exhaustion fault site.  Returns whether an armed `fuel`
/// fault fired (always `false` without the `enabled` feature); the caller
/// forces its governing budget into exhaustion on `true`.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn fuel_exhaustion(_site: &str) -> bool {
    false
}

/// Arms `site` with `spec`, replacing any existing fault there.  A no-op
/// without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn arm(_site: &str, _spec: FaultSpec) {}

/// Disarms `site`.  A no-op without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn disarm(_site: &str) {}

/// Disarms every site.  A no-op without the `enabled` feature.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn disarm_all() {}

/// Arms every fault in a TOML manifest (see the crate docs for the
/// format).  Parses (and reports errors) even without the `enabled`
/// feature, but arms nothing.
#[cfg(not(feature = "enabled"))]
pub fn configure_from_toml_str(text: &str) -> Result<usize, String> {
    parse_toml(text).map(|faults| faults.len())
}

/// Number of trigger-counted hits at `site` (always 0 without the
/// `enabled` feature).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn hits(_site: &str) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_grammar_parses_and_rejects() {
        let (site, spec) = parse_entry("solver.box_pop=panic:nth=3").unwrap();
        assert_eq!(site, "solver.box_pop");
        assert_eq!(spec, FaultSpec::new(FaultKind::Panic, Trigger::Nth(3)));
        let (_, spec) = parse_entry("sim.step=nan:p=0.25:seed=9").unwrap();
        assert_eq!(spec.trigger, Trigger::Probability { p: 0.25, seed: 9 });
        let (_, spec) = parse_entry("lp.pivot=fuel").unwrap();
        assert_eq!(
            spec,
            FaultSpec::new(FaultKind::FuelExhaustion, Trigger::Always)
        );

        for bad in [
            "no-kind",
            "=panic",
            "s=explode",
            "s=panic:nth=0",
            "s=panic:nth=x",
            "s=nan:p=1.5",
            "s=nan:nth=1:p=0.5",
            "s=panic:wat=1",
            "s=panic:junk",
        ] {
            assert!(parse_entry(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn toml_subset_parses_and_rejects() {
        let manifest = r#"
            # chaos plan
            [[fault]]
            site = "solver.box_pop"
            kind = "panic"
            nth = 12

            [[fault]]
            site = "sim.step"
            kind = "nan"
            p = 0.5
            seed = 7
        "#;
        let faults = parse_toml(manifest).unwrap();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].0, "solver.box_pop");
        assert_eq!(
            faults[0].1,
            FaultSpec::new(FaultKind::Panic, Trigger::Nth(12))
        );
        assert_eq!(
            faults[1].1,
            FaultSpec::new(FaultKind::Nan, Trigger::Probability { p: 0.5, seed: 7 })
        );
        assert!(parse_toml("site = \"x\"\n").is_err());
        assert!(parse_toml("[[fault]]\nsite = \"x\"\n").is_err());
        assert!(parse_toml("[[fault]]\nkind = \"panic\"\n").is_err());
        assert!(parse_toml("[[fault]]\nsite = \"x\"\nkind = \"panic\"\nnth = z\n").is_err());
        assert!(parse_toml("[[fault]]\nsite = \"x\"\nkind = \"panic\"\nbogus = 1\n").is_err());
        assert!(parse_toml("").unwrap().is_empty());
    }

    #[test]
    fn disabled_hooks_are_inert() {
        if cfg!(feature = "enabled") {
            return;
        }
        arm(
            SITE_SIM_STEP,
            FaultSpec::new(FaultKind::Panic, Trigger::Always),
        );
        panic_point(SITE_SIM_STEP);
        assert_eq!(corrupt_f64(SITE_SIM_STEP, 1.5), 1.5);
        assert!(!fuel_exhaustion(SITE_SIM_STEP));
        assert_eq!(hits(SITE_SIM_STEP), 0);
        assert_eq!(configure_from_toml_str("").unwrap(), 0);
        disarm(SITE_SIM_STEP);
        disarm_all();
    }

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;

        #[test]
        fn nth_trigger_fires_exactly_once() {
            let site = "test.nth_trigger";
            arm(site, FaultSpec::new(FaultKind::Panic, Trigger::Nth(3)));
            panic_point(site);
            panic_point(site);
            let caught = std::panic::catch_unwind(|| panic_point(site));
            let payload = *caught.unwrap_err().downcast::<String>().unwrap();
            assert_eq!(payload, format!("injected panic at fault site `{site}`"));
            // Fired once; later hits pass.
            panic_point(site);
            assert_eq!(hits(site), 4);
            disarm(site);
        }

        #[test]
        fn kind_mismatch_neither_fires_nor_counts() {
            let site = "test.kind_mismatch";
            arm(site, FaultSpec::new(FaultKind::Nan, Trigger::Always));
            panic_point(site); // different kind: inert
            assert!(!fuel_exhaustion(site));
            assert_eq!(hits(site), 0);
            assert!(corrupt_f64(site, 2.0).is_nan());
            assert_eq!(hits(site), 1);
            disarm(site);
        }

        #[test]
        fn probability_trigger_is_seed_deterministic() {
            let site = "test.probability";
            let run = |seed: u64| -> Vec<bool> {
                arm(
                    site,
                    FaultSpec::new(
                        FaultKind::FuelExhaustion,
                        Trigger::Probability { p: 0.5, seed },
                    ),
                );
                (0..32).map(|_| fuel_exhaustion(site)).collect()
            };
            let a = run(42);
            let b = run(42);
            assert_eq!(a, b);
            assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
            disarm(site);
        }

        #[test]
        fn toml_configuration_arms_sites() {
            let manifest = "[[fault]]\nsite = \"test.toml_armed\"\nkind = \"fuel\"\n";
            assert_eq!(configure_from_toml_str(manifest).unwrap(), 1);
            assert!(fuel_exhaustion("test.toml_armed"));
            disarm("test.toml_armed");
        }
    }
}
