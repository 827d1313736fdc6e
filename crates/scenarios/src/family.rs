//! Parameterized scenario families: typed axes expanded into concrete
//! scenarios.
//!
//! A [`Family`] is a base [`Scenario`] plus a list of [`ParamAxis`]s —
//! typed parameter dimensions over initial-set corners, unsafe-set (safe
//! region) bounds, neural-controller weight perturbation, plant constants,
//! and solver precision/configuration.  Each axis carries a value list
//! produced by a **grid**, a **linspace**, or a **deterministic
//! seeded-random** sampler; [`Family::expand`] takes the cartesian product
//! and yields one concrete scenario per combination, named
//! `{family}-{index:03}`.
//!
//! Families are declared programmatically (the
//! [built-in families](crate::registry::builtin_families)) or in the TOML
//! manifest as `[[family]]` tables with nested `[[family.axis]]` tables —
//! see `scenarios/families.toml` in the repository for the format.
//!
//! Because a sweep deliberately crosses certification boundaries, members
//! default to [`ExpectedVerdict::Any`] and the family instead pins the
//! aggregate verdict **counts** ([`ExpectedCounts`]): the batch runner fails
//! when a family no longer produces, say, "22 certified / 2 inconclusive",
//! which freezes sweep semantics without hand-labelling hundreds of
//! members.
//!
//! # Examples
//!
//! ```
//! use nncps_scenarios::{AxisParam, Family, ParamAxis, Registry};
//!
//! let base = Registry::builtin().get("linear-unstable-canary").unwrap().clone();
//! let family = Family::new("canary-sweep", "contraction-rate sweep", base)
//!     .with_axis(ParamAxis::grid(AxisParam::plant("matrix_scale"), vec![-4.0, -2.0, 1.0]))
//!     .with_axis(ParamAxis::linspace(AxisParam::Delta, 1e-4, 1e-3, 2));
//! assert_eq!(family.len(), 6);
//! let members = family.expand().unwrap();
//! assert_eq!(members[0].name(), "canary-sweep-000");
//! assert_eq!(members.len(), 6);
//! ```

use nncps_barrier::SafetySpec;
use nncps_interval::IntervalBox;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::scenario::{ExpectedVerdict, ManifestError, PlantSpec, Scenario};
use crate::toml::TomlTable;
use crate::Registry;

/// The quantity a [`ParamAxis`] varies.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisParam {
    /// Lower corner of the initial set `X0` in the given state dimension.
    X0Lo(usize),
    /// Upper corner of the initial set `X0` in the given state dimension.
    X0Hi(usize),
    /// Lower bound of the safe region (i.e. of the rectangle whose
    /// complement is the unsafe set) in the given state dimension.
    SafeLo(usize),
    /// Upper bound of the safe region in the given state dimension.
    SafeHi(usize),
    /// δ-SAT solver precision (`VerificationConfig::delta`).
    Delta,
    /// Decrease slack `γ` (`VerificationConfig::gamma`).
    Gamma,
    /// RNG seed of the seed-trace sampling (`VerificationConfig::seed`);
    /// values must be non-negative integers.
    Seed,
    /// Number of seed traces (`VerificationConfig::num_seed_traces`);
    /// values must be positive integers.
    NumSeedTraces,
    /// Simulation horizon (`VerificationConfig::sim_duration`).
    SimDuration,
    /// Relative magnitude of the neural-controller weight perturbation
    /// (`0.0` = the unmodified controller); the perturbation direction is
    /// drawn from the family's `weight_seed`.
    WeightPerturbation,
    /// A named plant constant (`speed`, `k_theta`, `max_force`,
    /// `matrix_scale`, ... — validated against the base plant kind at
    /// expansion time).
    Plant(String),
}

impl AxisParam {
    /// Convenience constructor for a named plant constant.
    pub fn plant(name: impl Into<String>) -> Self {
        AxisParam::Plant(name.into())
    }

    /// The manifest spelling.
    fn label(&self) -> String {
        match self {
            AxisParam::X0Lo(d) => format!("x0_lo[{d}]"),
            AxisParam::X0Hi(d) => format!("x0_hi[{d}]"),
            AxisParam::SafeLo(d) => format!("safe_lo[{d}]"),
            AxisParam::SafeHi(d) => format!("safe_hi[{d}]"),
            AxisParam::Delta => "delta".to_string(),
            AxisParam::Gamma => "gamma".to_string(),
            AxisParam::Seed => "seed".to_string(),
            AxisParam::NumSeedTraces => "num_seed_traces".to_string(),
            AxisParam::SimDuration => "sim_duration".to_string(),
            AxisParam::WeightPerturbation => "weight_perturbation".to_string(),
            AxisParam::Plant(name) => name.clone(),
        }
    }
}

/// One parameter dimension of a family: a target quantity plus the concrete
/// values the sweep visits.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamAxis {
    param: AxisParam,
    values: Vec<f64>,
}

impl ParamAxis {
    /// An axis over explicitly listed values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn grid(param: AxisParam, values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "axis needs at least one value");
        ParamAxis { param, values }
    }

    /// An axis over `count` evenly spaced values from `lo` to `hi`
    /// (inclusive; `count == 1` yields just `lo`).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn linspace(param: AxisParam, lo: f64, hi: f64, count: usize) -> Self {
        assert!(count > 0, "axis needs at least one value");
        let values = (0..count)
            .map(|i| {
                if count == 1 {
                    lo
                } else {
                    lo + (hi - lo) * (i as f64) / ((count - 1) as f64)
                }
            })
            .collect();
        ParamAxis { param, values }
    }

    /// An axis over `count` values drawn uniformly from `[lo, hi)` by a
    /// deterministic ChaCha8 RNG seeded with `seed` — the same declaration
    /// regenerates the same values on every machine.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn random(param: AxisParam, lo: f64, hi: f64, count: usize, seed: u64) -> Self {
        assert!(count > 0, "axis needs at least one value");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let values = (0..count)
            .map(|_| lo + (hi - lo) * rng.gen::<f64>())
            .collect();
        ParamAxis { param, values }
    }

    /// The varied quantity.
    pub fn param(&self) -> &AxisParam {
        &self.param
    }

    /// The concrete values this axis sweeps.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Loads one `[[family.axis]]` table.
    fn from_toml(table: &TomlTable) -> Result<Self, ManifestError> {
        let param_name = table
            .get_str("param")
            .ok_or_else(|| ManifestError::new("axis is missing `param`"))?;
        let dim = || {
            table.get_usize("dim").ok_or_else(|| {
                ManifestError::new(format!(
                    "axis `{param_name}` needs a state dimension (`dim = 0`, `dim = 1`, ...)"
                ))
            })
        };
        let param = match param_name {
            "x0_lo" => AxisParam::X0Lo(dim()?),
            "x0_hi" => AxisParam::X0Hi(dim()?),
            "safe_lo" => AxisParam::SafeLo(dim()?),
            "safe_hi" => AxisParam::SafeHi(dim()?),
            "delta" => AxisParam::Delta,
            "gamma" => AxisParam::Gamma,
            "seed" => AxisParam::Seed,
            "num_seed_traces" => AxisParam::NumSeedTraces,
            "sim_duration" => AxisParam::SimDuration,
            "weight_perturbation" => AxisParam::WeightPerturbation,
            other => AxisParam::Plant(other.to_string()),
        };
        if let Some(grid) = table.get("grid") {
            let values: Vec<f64> = grid
                .as_array()
                .map(|items| items.iter().filter_map(|v| v.as_f64()).collect())
                .unwrap_or_default();
            let len = grid.as_array().map_or(0, <[_]>::len);
            if values.is_empty() || values.len() != len {
                return Err(ManifestError::new(format!(
                    "axis `{param_name}` needs a non-empty numeric `grid = [...]`"
                )));
            }
            return Ok(ParamAxis { param, values });
        }
        let sampler = table.get_str("sampler").ok_or_else(|| {
            ManifestError::new(format!(
                "axis `{param_name}` needs `grid = [...]` or `sampler = \"linspace\"/\"random\"`"
            ))
        })?;
        let number = |key: &str| {
            table.get_f64(key).ok_or_else(|| {
                ManifestError::new(format!("axis `{param_name}` needs numeric `{key}`"))
            })
        };
        let count = table.get_usize("count").filter(|&n| n > 0).ok_or_else(|| {
            ManifestError::new(format!(
                "axis `{param_name}` needs a positive integer `count`"
            ))
        })?;
        match sampler {
            "linspace" => Ok(ParamAxis::linspace(
                param,
                number("lo")?,
                number("hi")?,
                count,
            )),
            "random" => {
                let seed = table.get_usize("seed").ok_or_else(|| {
                    ManifestError::new(format!(
                        "random axis `{param_name}` needs a non-negative integer `seed`"
                    ))
                })? as u64;
                Ok(ParamAxis::random(
                    param,
                    number("lo")?,
                    number("hi")?,
                    count,
                    seed,
                ))
            }
            other => Err(ManifestError::new(format!(
                "unknown sampler `{other}` (use \"linspace\" or \"random\")"
            ))),
        }
    }
}

/// Pinned aggregate verdict counts of a family (the family-level regression
/// gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedCounts {
    /// Members that must certify.
    pub certified: usize,
    /// Members that must stay inconclusive.
    pub inconclusive: usize,
}

/// A parameterized scenario family (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    name: String,
    description: String,
    base: Scenario,
    axes: Vec<ParamAxis>,
    expected: ExpectedVerdict,
    expected_counts: Option<ExpectedCounts>,
    weight_seed: u64,
}

impl Family {
    /// Creates a family over a base scenario with no axes yet (expanding to
    /// the single unmodified base).  Members default to
    /// [`ExpectedVerdict::Any`].
    pub fn new(name: impl Into<String>, description: impl Into<String>, base: Scenario) -> Self {
        Family {
            name: name.into(),
            description: description.into(),
            base,
            axes: Vec::new(),
            expected: ExpectedVerdict::Any,
            expected_counts: None,
            weight_seed: 0,
        }
    }

    /// Appends a parameter axis (builder style).
    pub fn with_axis(mut self, axis: ParamAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Pins the aggregate verdict counts (builder style).
    pub fn with_counts(mut self, certified: usize, inconclusive: usize) -> Self {
        self.expected_counts = Some(ExpectedCounts {
            certified,
            inconclusive,
        });
        self
    }

    /// Sets the seed of the weight-perturbation direction (builder style).
    pub fn with_weight_seed(mut self, seed: u64) -> Self {
        self.weight_seed = seed;
        self
    }

    /// The family name (member names are `{name}-{index:03}`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The base scenario the axes modify.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// The parameter axes, in declaration order (the last axis varies
    /// fastest in the expansion).
    pub fn axes(&self) -> &[ParamAxis] {
        &self.axes
    }

    /// The pinned aggregate verdict counts, if any.
    pub fn expected_counts(&self) -> Option<ExpectedCounts> {
        self.expected_counts
    }

    /// Number of members the family expands to (the product of the axis
    /// lengths; `1` for an axis-free family).
    #[allow(clippy::len_without_is_empty)] // a family is never empty
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Expands the cartesian product of the axes into concrete scenarios.
    ///
    /// Member `i` uses the mixed-radix digits of `i` over the axis lengths
    /// (last axis fastest), so the expansion order — and therefore every
    /// member name — is a pure function of the declaration.
    ///
    /// # Errors
    ///
    /// Returns a [`ManifestError`] when an axis value is invalid for the
    /// base scenario (dimension out of range, empty boxes, `X0` escaping the
    /// safe region, unknown plant constants, perturbation of a plant
    /// without a neural controller, non-integer counts).
    pub fn expand(&self) -> Result<Vec<Scenario>, ManifestError> {
        let total = self.len();
        let mut members = Vec::with_capacity(total);
        for index in 0..total {
            members.push(self.member(index)?);
        }
        Ok(members)
    }

    /// Expands just the `index`-th member (see [`Family::expand`]).
    ///
    /// # Errors
    ///
    /// As for [`Family::expand`]; additionally errors when `index` is out of
    /// range.
    pub fn member(&self, index: usize) -> Result<Scenario, ManifestError> {
        let total = self.len();
        if index >= total {
            return Err(ManifestError::new(format!(
                "family `{}` has {total} members, index {index} is out of range",
                self.name
            )));
        }
        let in_family = |message: String| {
            ManifestError::new(format!("family `{}`, member {index}: {message}", self.name))
        };

        // Mixed-radix decomposition of the member index, last axis fastest.
        let mut assignment = Vec::with_capacity(self.axes.len());
        let mut rest = index;
        for axis in self.axes.iter().rev() {
            let radix = axis.values.len();
            assignment.push(axis.values[rest % radix]);
            rest /= radix;
        }
        assignment.reverse();

        let dim = self.base.spec().dim();
        let mut plant = self.base.plant().clone();
        let mut config = self.base.config().clone();
        let mut initial: Vec<(f64, f64)> = (0..dim)
            .map(|i| {
                let interval = &self.base.spec().initial_set()[i];
                (interval.lo(), interval.hi())
            })
            .collect();
        // Families assume the paper's rectangular layout: the safe region is
        // the domain of interest, and the unsafe set is its complement.
        let mut safe: Vec<(f64, f64)> = (0..dim)
            .map(|i| {
                let interval = &self.base.spec().domain()[i];
                (interval.lo(), interval.hi())
            })
            .collect();

        let mut summary = String::new();
        for (axis, &value) in self.axes.iter().zip(&assignment) {
            if !summary.is_empty() {
                summary.push_str(", ");
            }
            summary.push_str(&format!("{}={}", axis.param.label(), value));
            let bound = |d: usize| -> Result<(), ManifestError> {
                if d < dim {
                    Ok(())
                } else {
                    Err(in_family(format!(
                        "state dimension {d} is out of range for the {dim}-dimensional plant"
                    )))
                }
            };
            let as_count = |what: &str| -> Result<usize, ManifestError> {
                if value >= 0.0 && value.fract() == 0.0 {
                    Ok(value as usize)
                } else {
                    Err(in_family(format!(
                        "`{what}` values must be non-negative integers, got {value}"
                    )))
                }
            };
            match &axis.param {
                AxisParam::X0Lo(d) => {
                    bound(*d)?;
                    initial[*d].0 = value;
                }
                AxisParam::X0Hi(d) => {
                    bound(*d)?;
                    initial[*d].1 = value;
                }
                AxisParam::SafeLo(d) => {
                    bound(*d)?;
                    safe[*d].0 = value;
                }
                AxisParam::SafeHi(d) => {
                    bound(*d)?;
                    safe[*d].1 = value;
                }
                AxisParam::Delta => config.delta = value,
                AxisParam::Gamma => config.gamma = value,
                AxisParam::Seed => config.seed = as_count("seed")? as u64,
                AxisParam::NumSeedTraces => config.num_seed_traces = as_count("num_seed_traces")?,
                AxisParam::SimDuration => config.sim_duration = value,
                AxisParam::WeightPerturbation => {
                    if !plant.has_controller() {
                        return Err(in_family(
                            "weight perturbation needs a neural controller".to_string(),
                        ));
                    }
                    plant = match plant {
                        PlantSpec::Perturbed { base, seed, .. } => PlantSpec::Perturbed {
                            base,
                            scale: value,
                            seed,
                        },
                        base => PlantSpec::Perturbed {
                            base: Box::new(base),
                            scale: value,
                            seed: self.weight_seed,
                        },
                    };
                }
                AxisParam::Plant(name) => {
                    apply_plant_param(&mut plant, name, value).map_err(&in_family)?;
                }
            }
        }

        config.validate().map_err(|e| in_family(e.to_string()))?;
        for (d, &(lo, hi)) in initial.iter().enumerate() {
            if lo > hi {
                return Err(in_family(format!(
                    "initial set is empty in dimension {d} ([{lo}, {hi}])"
                )));
            }
        }
        for (d, &(lo, hi)) in safe.iter().enumerate() {
            if lo > hi {
                return Err(in_family(format!(
                    "safe region is empty in dimension {d} ([{lo}, {hi}])"
                )));
            }
        }
        let initial_box = IntervalBox::from_bounds(&initial);
        let safe_box = IntervalBox::from_bounds(&safe);
        if !safe_box.contains_box(&initial_box) {
            return Err(in_family(
                "initial set escapes the safe region under this assignment".to_string(),
            ));
        }

        let description = if summary.is_empty() {
            self.description.clone()
        } else {
            format!("{} [{summary}]", self.description)
        };
        Ok(Scenario::new(
            format!("{}-{index:03}", self.name),
            description,
            plant,
            SafetySpec::rectangular(initial_box, safe_box),
            config,
            self.expected,
        ))
    }

    /// Loads one `[[family]]` manifest table; `bases` resolves the `base`
    /// scenario reference (built-in registry, or scenarios declared in the
    /// same manifest).
    pub fn from_toml(table: &TomlTable, bases: &Registry) -> Result<Self, ManifestError> {
        let name = table
            .get_str("name")
            .ok_or_else(|| ManifestError::new("family is missing `name`"))?
            .to_string();
        let in_family = |message: String| ManifestError::new(format!("family `{name}`: {message}"));
        let base_name = table
            .get_str("base")
            .ok_or_else(|| in_family("missing `base` scenario reference".to_string()))?;
        let base = bases
            .get(base_name)
            .ok_or_else(|| in_family(format!("unknown base scenario `{base_name}`")))?
            .clone();
        let mut family = Family::new(
            name.clone(),
            table.get_str("description").unwrap_or_default(),
            base,
        );
        if let Some(expected) = table.get_str("expected") {
            family.expected = ExpectedVerdict::parse(expected).map_err(|e| in_family(e.message))?;
        }
        if let Some(seed) = table.get("weight_seed") {
            family.weight_seed = seed.as_usize().ok_or_else(|| {
                in_family("`weight_seed` must be a non-negative integer".to_string())
            })? as u64;
        }
        if let Some(counts) = table.get_table("counts") {
            let count = |key: &str| {
                counts.get_usize(key).ok_or_else(|| {
                    in_family(format!(
                        "[family.counts] needs a non-negative integer `{key}`"
                    ))
                })
            };
            family.expected_counts = Some(ExpectedCounts {
                certified: count("certified")?,
                inconclusive: count("inconclusive")?,
            });
        }
        for axis_table in table.tables("axis") {
            family
                .axes
                .push(ParamAxis::from_toml(axis_table).map_err(|e| in_family(e.message))?);
        }
        if let Some(counts) = family.expected_counts {
            if counts.certified + counts.inconclusive != family.len() {
                return Err(in_family(format!(
                    "[family.counts] pins {} + {} verdicts but the family expands to {} members",
                    counts.certified,
                    counts.inconclusive,
                    family.len()
                )));
            }
        }
        Ok(family)
    }
}

/// Sets a named plant constant, recursing through weight perturbations.
fn apply_plant_param(plant: &mut PlantSpec, name: &str, value: f64) -> Result<(), String> {
    let positive_count = || {
        if value >= 1.0 && value.fract() == 0.0 {
            Ok(value as usize)
        } else {
            Err(format!("`{name}` must be a positive integer, got {value}"))
        }
    };
    match plant {
        PlantSpec::Dubins {
            hidden_neurons,
            speed,
        } => match name {
            "speed" => *speed = value,
            "hidden_neurons" => *hidden_neurons = positive_count()?,
            _ => return Err(format!("dubins plants have no constant `{name}`")),
        },
        PlantSpec::Pendulum {
            hidden_neurons,
            k_theta,
            k_omega,
            max_torque,
            damping,
            ..
        } => match name {
            "k_theta" => *k_theta = value,
            "k_omega" => *k_omega = value,
            "max_torque" => *max_torque = value,
            "damping" => *damping = value,
            "hidden_neurons" => *hidden_neurons = positive_count()?,
            _ => return Err(format!("pendulum plants have no constant `{name}`")),
        },
        PlantSpec::Train {
            hidden_neurons,
            k_position,
            k_velocity,
            max_force,
            drag,
            mass,
        } => match name {
            "k_position" => *k_position = value,
            "k_velocity" => *k_velocity = value,
            "max_force" => *max_force = value,
            "drag" => *drag = value,
            "mass" => *mass = value,
            "hidden_neurons" => *hidden_neurons = positive_count()?,
            _ => return Err(format!("train plants have no constant `{name}`")),
        },
        PlantSpec::Linear { matrix } => match name {
            "matrix_scale" => {
                for row in matrix {
                    for cell in row {
                        *cell *= value;
                    }
                }
            }
            _ => return Err(format!("linear plants have no constant `{name}`")),
        },
        PlantSpec::Perturbed { base, .. } => return apply_plant_param(base, name, value),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml;

    fn linear_base() -> Scenario {
        Registry::from_toml_str(crate::SMOKE_MANIFEST)
            .unwrap()
            .get("smoke-stable-spiral")
            .unwrap()
            .clone()
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_declared_order() {
        let family = Family::new("f", "demo", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::X0Hi(0), vec![0.4, 0.5]))
            .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4, 1e-5]));
        assert_eq!(family.len(), 6);
        let members = family.expand().unwrap();
        assert_eq!(members.len(), 6);
        // Last axis fastest: members 0..3 share x0_hi = 0.4.
        assert_eq!(members[0].spec().initial_set()[0].hi(), 0.4);
        assert_eq!(members[0].config().delta, 1e-3);
        assert_eq!(members[1].config().delta, 1e-4);
        assert_eq!(members[3].spec().initial_set()[0].hi(), 0.5);
        assert_eq!(members[5].config().delta, 1e-5);
        assert_eq!(members[5].name(), "f-005");
        assert!(members[2].description().contains("delta=0.00001"));
        // Axis values are surfaced through accessors too.
        assert_eq!(family.axes()[0].values(), &[0.4, 0.5]);
        assert_eq!(family.axes()[0].param(), &AxisParam::X0Hi(0));
        // Single-member expansion matches the bulk expansion.
        assert_eq!(family.member(4).unwrap(), members[4]);
        assert!(family.member(6).is_err());
    }

    #[test]
    fn linspace_and_random_samplers_are_deterministic() {
        let lin = ParamAxis::linspace(AxisParam::Gamma, 0.0, 1.0, 5);
        assert_eq!(lin.values(), &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(
            ParamAxis::linspace(AxisParam::Gamma, 2.0, 9.0, 1).values(),
            &[2.0]
        );
        let a = ParamAxis::random(AxisParam::Delta, 1e-4, 1e-3, 8, 42);
        let b = ParamAxis::random(AxisParam::Delta, 1e-4, 1e-3, 8, 42);
        assert_eq!(a.values(), b.values());
        assert!(a.values().iter().all(|&v| (1e-4..1e-3).contains(&v)));
        let c = ParamAxis::random(AxisParam::Delta, 1e-4, 1e-3, 8, 43);
        assert_ne!(a.values(), c.values());
    }

    #[test]
    fn invalid_assignments_are_rejected_with_context() {
        let shrunk = Family::new("bad", "x0 escapes", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::SafeHi(0), vec![0.1]));
        let err = shrunk.expand().unwrap_err();
        assert!(err.to_string().contains("escapes"), "{err}");

        let empty = Family::new("bad", "empty box", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::X0Lo(1), vec![2.0]));
        assert!(empty.expand().unwrap_err().to_string().contains("empty"));

        let out_of_range = Family::new("bad", "dim", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::X0Lo(7), vec![0.0]));
        assert!(out_of_range
            .expand()
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        let bad_seed = Family::new("bad", "seed", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::Seed, vec![1.5]));
        assert!(bad_seed
            .expand()
            .unwrap_err()
            .to_string()
            .contains("non-negative integers"));

        let no_controller = Family::new("bad", "perturb linear", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::WeightPerturbation, vec![0.1]));
        assert!(no_controller
            .expand()
            .unwrap_err()
            .to_string()
            .contains("neural controller"));

        let unknown_constant = Family::new("bad", "constant", linear_base())
            .with_axis(ParamAxis::grid(AxisParam::plant("warp"), vec![1.0]));
        assert!(unknown_constant
            .expand()
            .unwrap_err()
            .to_string()
            .contains("no constant"));
    }

    #[test]
    fn weight_perturbation_wraps_nn_plants_once() {
        let base = Registry::builtin().get("pendulum-tanh-16").unwrap().clone();
        let family = Family::new("p", "perturb", base)
            .with_weight_seed(9)
            .with_axis(ParamAxis::grid(AxisParam::WeightPerturbation, vec![0.02]))
            .with_axis(ParamAxis::grid(AxisParam::plant("k_theta"), vec![1.3]));
        let member = family.expand().unwrap().remove(0);
        match member.plant() {
            PlantSpec::Perturbed { base, scale, seed } => {
                assert_eq!((*scale, *seed), (0.02, 9));
                match base.as_ref() {
                    PlantSpec::Pendulum { k_theta, .. } => assert_eq!(*k_theta, 1.3),
                    other => panic!("unexpected base {other:?}"),
                }
            }
            other => panic!("expected a perturbed plant, got {other:?}"),
        }
        assert_eq!(member.plant().kind(), "pendulum");
        assert!(member.plant().has_controller());
        // The perturbed closed loop builds and differs from the unperturbed
        // one.
        let perturbed = member.build_system();
        let reference = family.base().build_system();
        let p = perturbed.derivative(&[0.1, -0.05]);
        let r = reference.derivative(&[0.1, -0.05]);
        assert_eq!(p.len(), 2);
        assert_ne!(p, r);
    }

    #[test]
    fn family_toml_roundtrip_and_errors() {
        let bases = Registry::builtin();
        let doc = toml::parse(
            r#"
            [[family]]
            name = "dubins-grid"
            description = "speed x delta"
            base = "dubins-paper"
            expected = "any"
            weight_seed = 11
            [family.counts]
            certified = 5
            inconclusive = 1
            [[family.axis]]
            param = "speed"
            grid = [0.9, 1.0, 1.1]
            [[family.axis]]
            param = "delta"
            sampler = "linspace"
            lo = 1e-4
            hi = 1e-3
            count = 2
            "#,
        )
        .unwrap();
        let family = Family::from_toml(doc.tables("family")[0], &bases).unwrap();
        assert_eq!(family.name(), "dubins-grid");
        assert_eq!(family.description(), "speed x delta");
        assert_eq!(family.len(), 6);
        assert_eq!(
            family.expected_counts(),
            Some(ExpectedCounts {
                certified: 5,
                inconclusive: 1
            })
        );
        assert_eq!(family.base().name(), "dubins-paper");

        let errors = [
            ("[[family]]\nbase = \"dubins-paper\"\n", "missing `name`"),
            ("[[family]]\nname = \"f\"\n", "missing `base`"),
            (
                "[[family]]\nname = \"f\"\nbase = \"no-such\"\n",
                "unknown base",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\nexpected = \"maybe\"\n",
                "unknown expected verdict",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\nweight_seed = -1\n",
                "non-negative integer",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[family.counts]\ncertified = 1\n",
                "inconclusive",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[family.counts]\ncertified = 1\ninconclusive = 1\n",
                "expands to 1 members",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\ngrid = [1.0]\n",
                "missing `param`",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"x0_lo\"\ngrid = [1.0]\n",
                "state dimension",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\ngrid = []\n",
                "non-empty numeric",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\ngrid = [1.0, true]\n",
                "non-empty numeric",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\n",
                "needs `grid",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\nsampler = \"sobol\"\nlo = 0\nhi = 1\ncount = 2\n",
                "unknown sampler",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\nsampler = \"linspace\"\nlo = 0\ncount = 2\n",
                "needs numeric `hi`",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\nsampler = \"linspace\"\nlo = 0\nhi = 1\ncount = 0\n",
                "positive integer `count`",
            ),
            (
                "[[family]]\nname = \"f\"\nbase = \"dubins-paper\"\n[[family.axis]]\nparam = \"delta\"\nsampler = \"random\"\nlo = 0\nhi = 1\ncount = 2\n",
                "needs a non-negative integer `seed`",
            ),
        ];
        for (text, needle) in errors {
            let doc = toml::parse(text).unwrap();
            let err = Family::from_toml(doc.tables("family")[0], &bases).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "expected `{needle}` in `{err}` for:\n{text}"
            );
        }
    }
}
