//! The declarative description of one verification problem.

use std::fmt;

use nncps_barrier::{ClosedLoopSystem, SafetySpec, VerificationConfig, VerificationOutcome};
use nncps_dubins::{reference_controller, ErrorDynamics};
use nncps_expr::Expr;
use nncps_interval::IntervalBox;
use nncps_linalg::{Matrix, Vector};
use nncps_nn::{network_from_weights, Activation, FeedforwardNetwork};
use nncps_sim::{ExprDynamics, SymbolicDynamics};

use crate::toml::TomlTable;

/// The verdict a scenario is expected to produce, pinned in the registry so
/// the batch runner can flag drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// The pipeline must find a barrier certificate.
    Certified,
    /// The pipeline must terminate without a certificate (the paper's
    /// inconclusive outcomes; used for the registry's canary scenarios).
    Inconclusive,
    /// Either verdict is acceptable per member.  Generated family members
    /// use this when the family pins aggregate verdict *counts* instead of
    /// per-member verdicts (see
    /// [`Family::expected_counts`](crate::family::Family::expected_counts)):
    /// a parameter sweep deliberately crosses the certification boundary, so
    /// individual flips are the data, not a failure.
    Any,
}

impl ExpectedVerdict {
    /// The manifest/report spelling of the verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            ExpectedVerdict::Certified => "certified",
            ExpectedVerdict::Inconclusive => "inconclusive",
            ExpectedVerdict::Any => "any",
        }
    }

    /// Parses the manifest spelling.
    pub fn parse(s: &str) -> Result<Self, ManifestError> {
        match s {
            "certified" => Ok(ExpectedVerdict::Certified),
            "inconclusive" => Ok(ExpectedVerdict::Inconclusive),
            "any" => Ok(ExpectedVerdict::Any),
            other => Err(ManifestError::new(format!(
                "unknown expected verdict `{other}` (use \"certified\", \"inconclusive\", or \
                 \"any\")"
            ))),
        }
    }

    /// Whether an actual pipeline outcome matches the expectation.
    pub fn matches(self, outcome: &VerificationOutcome) -> bool {
        match self {
            ExpectedVerdict::Certified => outcome.is_certified(),
            ExpectedVerdict::Inconclusive => !outcome.is_certified(),
            ExpectedVerdict::Any => true,
        }
    }
}

impl fmt::Display for ExpectedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A plant (with its embedded NN controller, where there is one) as pure
/// data.  Building the closed loop is deferred to
/// [`PlantSpec::build_dynamics`], so scenarios are cheap to enumerate and a
/// registry can be constructed from a TOML manifest without touching any
/// solver machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum PlantSpec {
    /// The paper's Dubins-vehicle path-following error dynamics with the
    /// reference tanh controller of the given width.
    Dubins {
        /// Hidden-layer width of the steering controller.
        hidden_neurons: usize,
        /// Constant vehicle speed `V`.
        speed: f64,
    },
    /// A torque-limited inverted pendulum stabilized by a single-hidden-layer
    /// PD-like neural controller.
    Pendulum {
        /// Hidden-layer width.
        hidden_neurons: usize,
        /// Hidden-layer activation ([`Activation::Tanh`] or
        /// [`Activation::Sigmoid`]; the sigmoid controller realises the same
        /// control law through the identity `tanh(z) = 2σ(2z) − 1`).
        activation: Activation,
        /// Proportional gain on the angle.
        k_theta: f64,
        /// Derivative gain on the angular velocity.
        k_omega: f64,
        /// Saturation torque multiplying the network output.
        max_torque: f64,
        /// Viscous damping coefficient.
        damping: f64,
    },
    /// A train speed controller: headway error `s` and relative speed `v`
    /// with a force-limited PD-like neural controller
    /// (`ṡ = v`, `v̇ = (F·h(s, v) − c·v) / m`).
    Train {
        /// Hidden-layer width.
        hidden_neurons: usize,
        /// Proportional gain on the headway error.
        k_position: f64,
        /// Derivative gain on the relative speed.
        k_velocity: f64,
        /// Maximum traction/brake force `F`.
        max_force: f64,
        /// Drag coefficient `c`.
        drag: f64,
        /// Train mass `m`.
        mass: f64,
    },
    /// A linear system `ẋ = A·x`, given by the rows of `A`.  Used for the
    /// registry's canary scenarios and for quick manifest experiments.
    Linear {
        /// The rows of the system matrix `A`.
        matrix: Vec<Vec<f64>>,
    },
    /// A plant whose neural controller weights are deterministically
    /// perturbed: every parameter `p` of the base controller becomes
    /// `p · (1 + scale · u)` with `u` drawn from `[-1, 1]` by an RNG seeded
    /// with `seed` (see [`FeedforwardNetwork::perturbed`]).  This realises
    /// the sweep engine's *NN weight perturbation* axis.
    Perturbed {
        /// The plant (with a neural controller) being perturbed.  Must not
        /// itself be a `Perturbed` plant.
        base: Box<PlantSpec>,
        /// Relative perturbation magnitude (`0.0` reproduces the base
        /// controller bit-for-bit).
        scale: f64,
        /// Seed of the perturbation direction.
        seed: u64,
    },
}

impl PlantSpec {
    /// State dimension of the plant.
    pub fn dim(&self) -> usize {
        match self {
            PlantSpec::Dubins { .. } | PlantSpec::Pendulum { .. } | PlantSpec::Train { .. } => 2,
            PlantSpec::Linear { matrix } => matrix.len(),
            PlantSpec::Perturbed { base, .. } => base.dim(),
        }
    }

    /// A short human-readable label for reports.  A perturbed plant reports
    /// its base kind: it is still the same physical system.
    pub fn kind(&self) -> &'static str {
        match self {
            PlantSpec::Dubins { .. } => "dubins",
            PlantSpec::Pendulum { .. } => "pendulum",
            PlantSpec::Train { .. } => "train",
            PlantSpec::Linear { .. } => "linear",
            PlantSpec::Perturbed { base, .. } => base.kind(),
        }
    }

    /// Whether the plant embeds a neural controller (and therefore supports
    /// the weight-perturbation axis).
    pub fn has_controller(&self) -> bool {
        match self {
            PlantSpec::Dubins { .. } | PlantSpec::Pendulum { .. } | PlantSpec::Train { .. } => true,
            PlantSpec::Linear { .. } => false,
            PlantSpec::Perturbed { base, .. } => base.has_controller(),
        }
    }

    /// Instantiates the closed-loop vector field.
    ///
    /// Every plant funnels through [`ExprDynamics`], the canonical
    /// [`SymbolicDynamics`] implementation, so the registry can treat the
    /// Dubins car, the pendulum, the train, and manifest-loaded systems
    /// uniformly.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed (zero width, non-square matrix, an
    /// unsupported pendulum activation, a perturbation of a plant without a
    /// neural controller); manifest and family loading validate these up
    /// front.
    pub fn build_dynamics(&self) -> ExprDynamics {
        self.build_dynamics_perturbed(None)
    }

    /// [`PlantSpec::build_dynamics`] with an optional `(scale, seed)` weight
    /// perturbation applied to the embedded controller.
    fn build_dynamics_perturbed(&self, perturb: Option<(f64, u64)>) -> ExprDynamics {
        // Applies the pending perturbation to a freshly built controller.
        let shaken = |controller: FeedforwardNetwork| match perturb {
            Some((scale, seed)) => controller.perturbed(scale, seed),
            None => controller,
        };
        match self {
            PlantSpec::Dubins {
                hidden_neurons,
                speed,
            } => {
                let controller = shaken(reference_controller(*hidden_neurons));
                let dynamics = ErrorDynamics::new(controller, *speed);
                ExprDynamics::new(SymbolicDynamics::symbolic_vector_field(&dynamics))
            }
            PlantSpec::Pendulum {
                hidden_neurons,
                activation,
                k_theta,
                k_omega,
                max_torque,
                damping,
            } => {
                let controller = shaken(pendulum_controller(
                    *hidden_neurons,
                    *activation,
                    *k_theta,
                    *k_omega,
                ));
                // Plant constants of the case study: g = 9.81, l = m = 1.
                let gravity = 9.81;
                let inertia = 1.0;
                let theta = Expr::var(0);
                let omega = Expr::var(1);
                let u = controller
                    .forward_symbolic(&[theta.clone(), omega.clone()])
                    .remove(0);
                ExprDynamics::new(vec![
                    omega.clone(),
                    theta.sin() * gravity - omega * (*damping / inertia)
                        + u * (*max_torque / inertia),
                ])
            }
            PlantSpec::Train {
                hidden_neurons,
                k_position,
                k_velocity,
                max_force,
                drag,
                mass,
            } => {
                let controller = shaken(pd_controller(*hidden_neurons, *k_position, *k_velocity));
                let s = Expr::var(0);
                let v = Expr::var(1);
                let u = controller.forward_symbolic(&[s, v.clone()]).remove(0);
                ExprDynamics::new(vec![
                    v.clone(),
                    u * (*max_force / mass) - v * (*drag / mass),
                ])
            }
            PlantSpec::Linear { matrix } => {
                assert!(
                    perturb.is_none(),
                    "weight perturbation needs a neural controller"
                );
                let dim = matrix.len();
                let components = matrix
                    .iter()
                    .map(|row| {
                        assert_eq!(row.len(), dim, "system matrix must be square");
                        let mut sum = Expr::constant(0.0);
                        for (j, &a) in row.iter().enumerate() {
                            if a != 0.0 {
                                sum = sum + Expr::var(j) * a;
                            }
                        }
                        sum.simplified()
                    })
                    .collect();
                ExprDynamics::new(components)
            }
            PlantSpec::Perturbed { base, scale, seed } => {
                assert!(
                    perturb.is_none(),
                    "perturbed plants must not nest (apply one perturbation axis)"
                );
                base.build_dynamics_perturbed(Some((*scale, *seed)))
            }
        }
    }
}

/// Builds a 2 → `hidden` → 1 controller implementing the smooth PD law
/// `u ≈ −(k0·x0 + k1·x1)`, spread across the hidden neurons the same way the
/// Dubins reference controller is (golden-angle phases, mildly varied
/// per-neuron scales).
pub fn pd_controller(hidden: usize, k0: f64, k1: f64) -> FeedforwardNetwork {
    assert!(hidden > 0, "controller needs at least one hidden neuron");
    let mut hidden_weights = Matrix::zeros(hidden, 2);
    let hidden_biases = Vector::zeros(hidden);
    let mut output_weights = Matrix::zeros(1, hidden);
    for i in 0..hidden {
        let phase = (i as f64 + 1.0) * 2.399_963;
        let scale = 1.0 + 0.1 * phase.sin();
        hidden_weights[(i, 0)] = -k0 * scale;
        hidden_weights[(i, 1)] = -k1 * scale;
        output_weights[(0, i)] = 1.0 / (scale * hidden as f64);
    }
    network_from_weights(
        2,
        vec![
            (hidden_weights, hidden_biases, Activation::Tanh),
            (output_weights, Vector::zeros(1), Activation::Linear),
        ],
    )
}

/// The pendulum's controller: the tanh PD network of [`pd_controller`], or
/// its exact sigmoid re-expression via `tanh(z) = 2σ(2z) − 1` (same control
/// law, different symbolic closed loop for the δ-SAT queries).
///
/// # Panics
///
/// Panics for activations other than tanh and sigmoid.
pub fn pendulum_controller(
    hidden: usize,
    activation: Activation,
    k_theta: f64,
    k_omega: f64,
) -> FeedforwardNetwork {
    let tanh_net = pd_controller(hidden, k_theta, k_omega);
    match activation {
        Activation::Tanh => tanh_net,
        // Transform the tanh network's own weights so the twin stays exact
        // even if the pd_controller weight scheme evolves: per neuron,
        // o·tanh(w·x) = 2o·σ(2 w·x) − o (zero hidden biases).
        Activation::Sigmoid => {
            let tanh_hidden = &tanh_net.layers()[0];
            let tanh_output = &tanh_net.layers()[1];
            let mut hidden_weights = Matrix::zeros(hidden, 2);
            let mut output_weights = Matrix::zeros(1, hidden);
            let mut output_bias = 0.0;
            for i in 0..hidden {
                hidden_weights[(i, 0)] = 2.0 * tanh_hidden.weights()[(i, 0)];
                hidden_weights[(i, 1)] = 2.0 * tanh_hidden.weights()[(i, 1)];
                let o = tanh_output.weights()[(0, i)];
                output_weights[(0, i)] = 2.0 * o;
                output_bias -= o;
            }
            network_from_weights(
                2,
                vec![
                    (hidden_weights, Vector::zeros(hidden), Activation::Sigmoid),
                    (
                        output_weights,
                        Vector::from_slice(&[output_bias]),
                        Activation::Linear,
                    ),
                ],
            )
        }
        other => panic!("unsupported pendulum activation {other}"),
    }
}

/// One verification problem as data: a named plant, its safety
/// specification, the pipeline configuration, and the expected verdict.
///
/// # Examples
///
/// ```
/// use nncps_scenarios::Registry;
///
/// let registry = Registry::builtin();
/// let scenario = registry.get("dubins-paper").unwrap();
/// assert_eq!(scenario.plant().kind(), "dubins");
/// let system = scenario.build_system();
/// assert_eq!(system.dim(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    description: String,
    plant: PlantSpec,
    spec: SafetySpec,
    config: VerificationConfig,
    expected: ExpectedVerdict,
}

impl Scenario {
    /// Creates a scenario.
    ///
    /// # Panics
    ///
    /// Panics if the plant and specification dimensions disagree.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        plant: PlantSpec,
        spec: SafetySpec,
        config: VerificationConfig,
        expected: ExpectedVerdict,
    ) -> Self {
        assert_eq!(
            plant.dim(),
            spec.dim(),
            "plant and safety specification dimensions must match"
        );
        Scenario {
            name: name.into(),
            description: description.into(),
            plant,
            spec,
            config,
            expected,
        }
    }

    /// The unique scenario name (the registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable description for reports.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The plant description.
    pub fn plant(&self) -> &PlantSpec {
        &self.plant
    }

    /// The safety specification.
    pub fn spec(&self) -> &SafetySpec {
        &self.spec
    }

    /// The pipeline configuration this scenario runs with.
    pub fn config(&self) -> &VerificationConfig {
        &self.config
    }

    /// The pinned expected verdict.
    pub fn expected(&self) -> ExpectedVerdict {
        self.expected
    }

    /// Instantiates the closed-loop system handed to the verifier.
    pub fn build_system(&self) -> ClosedLoopSystem {
        ClosedLoopSystem::from_dynamics(&self.plant.build_dynamics(), self.spec.clone())
    }

    /// Loads a scenario from one `[[scenario]]` manifest table.
    pub fn from_toml(table: &TomlTable) -> Result<Self, ManifestError> {
        let name = table
            .get_str("name")
            .ok_or_else(|| ManifestError::new("scenario is missing `name`"))?
            .to_string();
        let in_scenario = |message: String| ManifestError::new(format!("{name}: {message}"));
        let description = table.get_str("description").unwrap_or_default().to_string();
        let expected = ExpectedVerdict::parse(
            table
                .get_str("expected")
                .ok_or_else(|| in_scenario("missing `expected` verdict".to_string()))?,
        )
        .map_err(|e| in_scenario(e.to_string()))?;
        let plant_table = table
            .get_table("plant")
            .ok_or_else(|| in_scenario("missing [scenario.plant]".to_string()))?;
        let plant = plant_from_toml(plant_table).map_err(|e| in_scenario(e.message))?;
        let spec_table = table
            .get_table("spec")
            .ok_or_else(|| in_scenario("missing [scenario.spec]".to_string()))?;
        let spec = spec_from_toml(spec_table).map_err(|e| in_scenario(e.message))?;
        let config = match table.get_table("config") {
            Some(config_table) => {
                config_from_toml(config_table).map_err(|e| in_scenario(e.message))?
            }
            None => VerificationConfig::default(),
        };
        if plant.dim() != spec.dim() {
            return Err(in_scenario(format!(
                "plant dimension {} does not match spec dimension {}",
                plant.dim(),
                spec.dim()
            )));
        }
        Ok(Scenario::new(
            name,
            description,
            plant,
            spec,
            config,
            expected,
        ))
    }
}

/// Error produced while loading a scenario manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// What went wrong.
    pub message: String,
}

impl ManifestError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ManifestError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario manifest error: {}", self.message)
    }
}

impl std::error::Error for ManifestError {}

fn plant_from_toml(table: &TomlTable) -> Result<PlantSpec, ManifestError> {
    let kind = table
        .get_str("kind")
        .ok_or_else(|| ManifestError::new("plant is missing `kind`"))?;
    match kind {
        "dubins" => Ok(PlantSpec::Dubins {
            hidden_neurons: require_positive(table, "hidden_neurons", 10)?,
            speed: table.get_f64("speed").unwrap_or(1.0),
        }),
        "pendulum" => {
            let activation_name = table.get_str("activation").unwrap_or("tanh");
            let activation: Activation = activation_name
                .parse()
                .map_err(|e| ManifestError::new(format!("{e}")))?;
            if !matches!(activation, Activation::Tanh | Activation::Sigmoid) {
                return Err(ManifestError::new(format!(
                    "pendulum controllers support tanh or sigmoid activations, not `{activation}`"
                )));
            }
            Ok(PlantSpec::Pendulum {
                hidden_neurons: require_positive(table, "hidden_neurons", 16)?,
                activation,
                k_theta: table.get_f64("k_theta").unwrap_or(1.2),
                k_omega: table.get_f64("k_omega").unwrap_or(0.5),
                max_torque: table.get_f64("max_torque").unwrap_or(20.0),
                damping: table.get_f64("damping").unwrap_or(0.5),
            })
        }
        "train" => Ok(PlantSpec::Train {
            hidden_neurons: require_positive(table, "hidden_neurons", 12)?,
            k_position: table.get_f64("k_position").unwrap_or(1.0),
            k_velocity: table.get_f64("k_velocity").unwrap_or(2.0),
            max_force: table.get_f64("max_force").unwrap_or(5.0),
            drag: table.get_f64("drag").unwrap_or(0.5),
            mass: table.get_f64("mass").unwrap_or(1.0),
        }),
        "linear" => {
            let rows = table
                .get("matrix")
                .and_then(crate::toml::TomlValue::as_array)
                .ok_or_else(|| ManifestError::new("linear plant needs `matrix = [[...], ...]`"))?;
            let matrix: Vec<Vec<f64>> = rows
                .iter()
                .map(|row| {
                    let cells = row
                        .as_array()
                        .ok_or_else(|| ManifestError::new("`matrix` rows must be arrays"))?;
                    if cells.len() != rows.len() {
                        return Err(ManifestError::new("`matrix` must be a square array"));
                    }
                    cells
                        .iter()
                        .map(|c| {
                            c.as_f64().ok_or_else(|| {
                                ManifestError::new("`matrix` entries must be numeric")
                            })
                        })
                        .collect::<Result<Vec<f64>, _>>()
                })
                .collect::<Result<_, _>>()?;
            if matrix.is_empty() {
                return Err(ManifestError::new("`matrix` must be non-empty"));
            }
            Ok(PlantSpec::Linear { matrix })
        }
        other => Err(ManifestError::new(format!(
            "unknown plant kind `{other}` (use dubins, pendulum, train, or linear)"
        ))),
    }
}

fn require_positive(table: &TomlTable, key: &str, default: usize) -> Result<usize, ManifestError> {
    match table.get(key) {
        None => Ok(default),
        Some(value) => match value.as_usize() {
            Some(n) if n > 0 => Ok(n),
            _ => Err(ManifestError::new(format!(
                "`{key}` must be a positive integer"
            ))),
        },
    }
}

fn bounds_from_toml(table: &TomlTable, key: &str) -> Result<IntervalBox, ManifestError> {
    let rows = table
        .get(key)
        .and_then(crate::toml::TomlValue::as_array)
        .ok_or_else(|| ManifestError::new(format!("spec needs `{key} = [[lo, hi], ...]`")))?;
    let bounds: Vec<(f64, f64)> = rows
        .iter()
        .map(|row| {
            let cells = row.as_array().unwrap_or_default();
            match cells {
                [lo, hi] => match (lo.as_f64(), hi.as_f64()) {
                    (Some(lo), Some(hi)) if lo <= hi => Ok((lo, hi)),
                    _ => Err(ManifestError::new(format!(
                        "`{key}` entries must be numeric [lo, hi] pairs with lo <= hi"
                    ))),
                },
                _ => Err(ManifestError::new(format!(
                    "`{key}` entries must be [lo, hi] pairs"
                ))),
            }
        })
        .collect::<Result<_, _>>()?;
    if bounds.is_empty() {
        return Err(ManifestError::new(format!("`{key}` must be non-empty")));
    }
    Ok(IntervalBox::from_bounds(&bounds))
}

fn spec_from_toml(table: &TomlTable) -> Result<SafetySpec, ManifestError> {
    let initial_set = bounds_from_toml(table, "initial_set")?;
    let safe_region = bounds_from_toml(table, "safe_region")?;
    if initial_set.dim() != safe_region.dim() {
        return Err(ManifestError::new(
            "`initial_set` and `safe_region` must have the same dimension",
        ));
    }
    if !safe_region.contains_box(&initial_set) {
        return Err(ManifestError::new(
            "`initial_set` must be contained in `safe_region`",
        ));
    }
    Ok(SafetySpec::rectangular(initial_set, safe_region))
}

fn config_from_toml(table: &TomlTable) -> Result<VerificationConfig, ManifestError> {
    let mut config = VerificationConfig::default();
    for (key, value) in table.entries() {
        let num = value
            .as_f64()
            .ok_or_else(|| ManifestError::new(format!("config `{key}` must be numeric")))?;
        let count = value.as_usize();
        let as_count = || {
            count.ok_or_else(|| {
                ManifestError::new(format!("config `{key}` must be a non-negative integer"))
            })
        };
        match key.as_str() {
            "num_seed_traces" => config.num_seed_traces = as_count()?,
            "sim_dt" => config.sim_dt = num,
            "sim_duration" => config.sim_duration = num,
            "gamma" => config.gamma = num,
            "delta" => config.delta = num,
            "max_smt_boxes" => config.max_smt_boxes = as_count()?,
            "max_candidate_iterations" => config.max_candidate_iterations = as_count()?,
            "max_level_iterations" => config.max_level_iterations = as_count()?,
            "max_samples_per_trace" => config.max_samples_per_trace = as_count()?,
            "seed" => config.seed = as_count()? as u64,
            "threads" => config.threads = as_count()?,
            other => return Err(ManifestError::new(format!("unknown config key `{other}`"))),
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml;

    #[test]
    fn pd_controller_implements_the_gain_law_near_zero() {
        let net = pd_controller(12, 1.0, 2.0);
        // Near the origin tanh is ~identity, so u ≈ -(s + 2 v).
        let u = net.forward(&[0.01, 0.02])[0];
        assert!((u - (-(0.01 + 2.0 * 0.02))).abs() < 1e-3, "u = {u}");
        // Output saturates near ±1 (the per-neuron scales put the exact
        // bound at Σ 1/(scaleᵢ·hidden) ≈ 1.005).
        assert!(net.forward(&[50.0, 50.0])[0].abs() <= 1.1);
    }

    #[test]
    fn sigmoid_pendulum_controller_matches_tanh_controller() {
        let tanh_net = pendulum_controller(8, Activation::Tanh, 1.2, 0.5);
        let sigmoid_net = pendulum_controller(8, Activation::Sigmoid, 1.2, 0.5);
        for &state in &[[0.0, 0.0], [0.3, -0.1], [-0.7, 0.9], [2.0, -2.0]] {
            let a = tanh_net.forward(&state)[0];
            let b = sigmoid_net.forward(&state)[0];
            assert!((a - b).abs() < 1e-12, "at {state:?}: {a} vs {b}");
        }
    }

    #[test]
    fn plants_build_consistent_dynamics() {
        let specs = [
            PlantSpec::Dubins {
                hidden_neurons: 4,
                speed: 1.0,
            },
            PlantSpec::Pendulum {
                hidden_neurons: 4,
                activation: Activation::Tanh,
                k_theta: 1.2,
                k_omega: 0.5,
                max_torque: 20.0,
                damping: 0.5,
            },
            PlantSpec::Train {
                hidden_neurons: 4,
                k_position: 1.0,
                k_velocity: 2.0,
                max_force: 5.0,
                drag: 0.5,
                mass: 1.0,
            },
            PlantSpec::Linear {
                matrix: vec![vec![-1.0, 0.5], vec![0.0, -2.0]],
            },
        ];
        for plant in &specs {
            let dynamics = plant.build_dynamics();
            assert_eq!(
                nncps_sim::Dynamics::dim(&dynamics),
                plant.dim(),
                "{plant:?}"
            );
            let field = dynamics.symbolic_vector_field();
            assert_eq!(field.len(), plant.dim());
        }
        // Spot-check the linear plant's vector field.
        let linear = specs[3].build_dynamics();
        let d = nncps_sim::Dynamics::derivative(&linear, &[2.0, 1.0]);
        assert!((d[0] - (-2.0 + 0.5)).abs() < 1e-15);
        assert!((d[1] + 2.0).abs() < 1e-15);
    }

    #[test]
    fn scenario_from_toml_roundtrip() {
        let doc = toml::parse(
            r#"
            [[scenario]]
            name = "manifest-linear"
            description = "stable linear demo"
            expected = "certified"
            [scenario.plant]
            kind = "linear"
            matrix = [[-1.0, 0.2], [-0.2, -1.0]]
            [scenario.spec]
            initial_set = [[-0.5, 0.5], [-0.5, 0.5]]
            safe_region = [[-3.0, 3.0], [-3.0, 3.0]]
            [scenario.config]
            num_seed_traces = 6
            sim_duration = 4.0
            threads = 1
            "#,
        )
        .unwrap();
        let tables = doc.tables("scenario");
        let scenario = Scenario::from_toml(tables[0]).unwrap();
        assert_eq!(scenario.name(), "manifest-linear");
        assert_eq!(scenario.expected(), ExpectedVerdict::Certified);
        assert_eq!(scenario.config().num_seed_traces, 6);
        assert_eq!(scenario.config().sim_duration, 4.0);
        assert_eq!(scenario.config().threads, 1);
        assert_eq!(scenario.plant().kind(), "linear");
        assert_eq!(scenario.build_system().dim(), 2);
        assert_eq!(scenario.description(), "stable linear demo");
    }

    #[test]
    fn manifest_errors_are_caught() {
        let cases = [
            ("[[scenario]]\nexpected = \"certified\"\n", "missing `name`"),
            ("[[scenario]]\nname = \"x\"\n", "missing `expected`"),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"maybe\"\n",
                "unknown expected verdict",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n",
                "missing [scenario.plant]",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"warp\"\n",
                "unknown plant kind",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"dubins\"\nhidden_neurons = 0\n",
                "positive integer",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"dubins\"\n",
                "missing [scenario.spec]",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"dubins\"\n[scenario.spec]\ninitial_set = [[-9, 9], [-1, 1]]\nsafe_region = [[-5, 5], [-1.5, 1.5]]\n",
                "contained in",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"linear\"\nmatrix = [[-1.0]]\n[scenario.spec]\ninitial_set = [[-1, 1], [-1, 1]]\nsafe_region = [[-5, 5], [-5, 5]]\n",
                "does not match spec dimension",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"linear\"\nmatrix = [[-1.0, true, 0.2], [-0.2, -1.0]]\n[scenario.spec]\ninitial_set = [[-1, 1], [-1, 1]]\nsafe_region = [[-5, 5], [-5, 5]]\n",
                "square",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"linear\"\nmatrix = [[-1.0, true], [-0.2, -1.0]]\n[scenario.spec]\ninitial_set = [[-1, 1], [-1, 1]]\nsafe_region = [[-5, 5], [-5, 5]]\n",
                "numeric",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"dubins\"\n[scenario.spec]\ninitial_set = [[-1, 1], [-1, 1]]\nsafe_region = [[-5, 5], [-5, 5]]\n[scenario.config]\nwarp_factor = 9\n",
                "unknown config key",
            ),
            (
                "[[scenario]]\nname = \"x\"\nexpected = \"certified\"\n[scenario.plant]\nkind = \"pendulum\"\nactivation = \"relu\"\n[scenario.spec]\ninitial_set = [[-1, 1], [-1, 1]]\nsafe_region = [[-5, 5], [-5, 5]]\n",
                "tanh or sigmoid",
            ),
        ];
        for (text, needle) in cases {
            let doc = toml::parse(text).unwrap();
            let err = Scenario::from_toml(doc.tables("scenario")[0]).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "expected `{needle}` in `{err}` for manifest:\n{text}"
            );
        }
    }

    #[test]
    fn expected_verdict_parsing_and_matching() {
        assert_eq!(
            ExpectedVerdict::parse("certified").unwrap(),
            ExpectedVerdict::Certified
        );
        assert_eq!(format!("{}", ExpectedVerdict::Inconclusive), "inconclusive");
        assert!(ExpectedVerdict::parse("nope").is_err());
    }
}
