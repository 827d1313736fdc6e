//! CMA-ES direct policy search for the path-following controller (Section 4.2).

use nncps_cmaes::{seeded_rng, CmaEs, CmaesParams, Generation};
use nncps_nn::{Activation, FeedforwardNetwork};
use nncps_sim::Trace;

use crate::{DubinsCar, Path};

/// Configuration of the policy search.
///
/// The defaults are a scaled-down version of the paper's setup (population
/// 152, at most 50 CMA-ES iterations) so that training completes in seconds
/// inside tests; the benchmark harness overrides them to match the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOptions {
    /// Number of neurons in the hidden layer.
    pub hidden_neurons: usize,
    /// CMA-ES population size λ.
    pub population: usize,
    /// Maximum number of CMA-ES generations.
    pub max_generations: usize,
    /// Discrete simulation step used for the rollouts.
    pub dt: f64,
    /// Constant vehicle speed `V`.
    pub speed: f64,
    /// Initial CMA-ES step size σ₀.
    pub sigma0: f64,
    /// RNG seed for reproducible training runs.
    pub seed: u64,
    /// Worker threads for rollout evaluation (`0` = one per available core,
    /// `1` = sequential).  Candidate rollouts within a generation are
    /// independent, and the parallel evaluation preserves candidate order,
    /// so the trained controller is identical for every thread count.
    pub threads: usize,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            hidden_neurons: 10,
            population: 30,
            max_generations: 20,
            dt: 0.2,
            speed: 2.0,
            sigma0: 0.5,
            seed: 2018,
            threads: 0,
        }
    }
}

impl TrainingOptions {
    /// The paper's published settings: a hidden layer of the requested width,
    /// population size 152, and at most 50 iterations.
    pub fn paper_settings(hidden_neurons: usize) -> Self {
        TrainingOptions {
            hidden_neurons,
            population: 152,
            max_generations: 50,
            ..TrainingOptions::default()
        }
    }
}

/// Result of [`train_controller`].
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// The trained controller (best candidate found by the policy search).
    pub controller: FeedforwardNetwork,
    /// Best cost `J` attained.
    pub best_cost: f64,
    /// Per-generation training statistics (cost curve of Figure 4).
    pub history: Vec<Generation>,
}

/// The closed-loop rollout environment used as the CMA-ES fitness function.
///
/// A rollout simulates the full Dubins car (not the error dynamics) following
/// the target path from its start pose, accumulating the paper's cost
///
/// ```text
/// J = Σ_k (100 d_err_k² + 10⁵ θ_err_k² + 100 u_k²)
///     + 10³ ‖(x_end, y_end) − (x_N, y_N)‖²
/// ```
#[derive(Debug, Clone)]
pub struct TrainingEnv {
    path: Path,
    car: DubinsCar,
    dt: f64,
    steps: usize,
    template: FeedforwardNetwork,
}

impl TrainingEnv {
    /// Creates an environment for the given path and options.
    pub fn new(path: Path, options: &TrainingOptions) -> Self {
        let car = DubinsCar::new(options.speed);
        // Enough steps to traverse the path with a 25% margin.
        let steps = ((path.length() / (options.speed * options.dt)) * 1.25).ceil() as usize;
        let template = FeedforwardNetwork::builder(2)
            .layer(options.hidden_neurons, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_zeroed();
        TrainingEnv {
            path,
            car,
            dt: options.dt,
            steps,
            template,
        }
    }

    /// The target path of the environment.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of discrete rollout steps `N`.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Number of controller parameters optimized by the policy search.
    pub fn num_params(&self) -> usize {
        self.template.num_params()
    }

    /// Rolls out the controller from the path start and returns the vehicle
    /// trace (`[x, y, θ]` samples) together with the accumulated cost `J`.
    pub fn rollout(&self, controller: &FeedforwardNetwork) -> (Trace, f64) {
        let start = self.path.start();
        // Initial heading aligned with the first path segment.
        let initial_errors = self.path.errors(start.0, start.1, 0.0);
        let mut state = [start.0, start.1, initial_errors.tangent_angle];
        let mut trace = Trace::with_capacity(3, self.steps + 1);
        trace.push(0.0, &state);
        let mut cost = 0.0;
        for k in 0..self.steps {
            let errors = self.path.errors(state[0], state[1], state[2]);
            let u = controller.forward(&[errors.distance, errors.angle])[0];
            cost += 100.0 * errors.distance * errors.distance
                + 1e5 * errors.angle * errors.angle
                + 100.0 * u * u;
            state = self.car.step(state, u, self.dt);
            trace.push((k + 1) as f64 * self.dt, &state);
        }
        let end = self.path.end();
        let terminal = (end.0 - state[0]).powi(2) + (end.1 - state[1]).powi(2);
        cost += 1e3 * terminal;
        (trace, cost)
    }

    /// Evaluates the cost of a flat parameter vector (the CMA-ES fitness).
    pub fn cost_of_params(&self, params: &[f64]) -> f64 {
        let controller = self.template.with_params(params);
        self.rollout(&controller).1
    }

    /// Builds a controller from a flat parameter vector using the
    /// environment's architecture.
    pub fn controller_from_params(&self, params: &[f64]) -> FeedforwardNetwork {
        self.template.with_params(params)
    }
}

/// Trains a path-following controller with CMA-ES direct policy search.
///
/// This reproduces the experiment behind Figure 4: starting from random
/// parameters, the policy search minimizes the rollout cost on the given
/// target path.
pub fn train_controller(path: Path, options: &TrainingOptions) -> TrainingOutcome {
    let env = TrainingEnv::new(path, options);
    let mut rng = seeded_rng(options.seed);
    let dim = env.num_params();
    let params = CmaesParams::new(dim).with_population_size(options.population);
    // Start from small random parameters like the paper ("random set of NN
    // parameters"); the CMA-ES mean is the origin and σ₀ covers the range.
    let mut cma = CmaEs::new(vec![0.0; dim], options.sigma0, params);
    let result = cma.optimize_parallel(
        |candidate| env.cost_of_params(candidate),
        options.max_generations,
        0.0,
        &mut rng,
        options.threads,
    );
    TrainingOutcome {
        controller: env.controller_from_params(&result.best_candidate),
        best_cost: result.best_fitness,
        history: result.history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_path() -> Path {
        Path::new(vec![(0.0, 0.0), (0.0, 12.0), (6.0, 20.0)])
    }

    fn quick_options() -> TrainingOptions {
        TrainingOptions {
            hidden_neurons: 6,
            population: 16,
            max_generations: 12,
            dt: 0.25,
            speed: 2.0,
            sigma0: 0.5,
            seed: 7,
            threads: 0,
        }
    }

    #[test]
    fn environment_dimensions_match_architecture() {
        let env = TrainingEnv::new(short_path(), &quick_options());
        assert_eq!(env.num_params(), 4 * 6 + 1);
        assert!(env.steps() > 10);
        assert_eq!(env.path().start(), (0.0, 0.0));
    }

    #[test]
    fn rollout_of_zero_controller_goes_straight() {
        let options = quick_options();
        let env = TrainingEnv::new(Path::new(vec![(0.0, 0.0), (0.0, 20.0)]), &options);
        let zero = env.controller_from_params(&vec![0.0; env.num_params()]);
        let (trace, cost) = env.rollout(&zero);
        // A zero controller on a straight path stays on the path exactly.
        assert!(trace.max_abs_component(0).unwrap() < 1e-9);
        assert!(cost.is_finite());
        assert!(trace.len() == env.steps() + 1);
    }

    #[test]
    fn cost_penalizes_leaving_the_path() {
        let options = quick_options();
        let env = TrainingEnv::new(Path::new(vec![(0.0, 0.0), (0.0, 20.0)]), &options);
        // A controller with a constant positive steering bias turns away.
        let mut biased = vec![0.0; env.num_params()];
        // Last parameter is the output bias of the tanh output layer.
        *biased.last_mut().unwrap() = 1.0;
        let zero_cost = env.cost_of_params(&vec![0.0; env.num_params()]);
        let biased_cost = env.cost_of_params(&biased);
        assert!(biased_cost > zero_cost);
    }

    #[test]
    fn training_reduces_cost_and_tracks_path() {
        let options = quick_options();
        let outcome = train_controller(short_path(), &options);
        assert!(!outcome.history.is_empty());
        let first = outcome.history.first().unwrap().best_fitness;
        let last = outcome.history.last().unwrap().best_fitness;
        assert!(
            last <= first,
            "training should not increase the best cost: {first} -> {last}"
        );
        assert!(outcome.best_cost <= first);
        // The trained controller should track the training path reasonably:
        // final position within a few meters of the path end.
        let env = TrainingEnv::new(short_path(), &options);
        let (trace, _) = env.rollout(&outcome.controller);
        let end = short_path().end();
        let fin = trace.final_state();
        let terminal_error = ((fin[0] - end.0).powi(2) + (fin[1] - end.1).powi(2)).sqrt();
        assert!(
            terminal_error < 6.0,
            "terminal error too large: {terminal_error}"
        );
    }

    #[test]
    fn training_is_reproducible_for_a_fixed_seed() {
        let options = quick_options();
        let a = train_controller(short_path(), &options);
        let b = train_controller(short_path(), &options);
        assert_eq!(a.controller, b.controller);
        assert_eq!(a.best_cost, b.best_cost);
    }

    #[test]
    fn paper_settings_match_publication() {
        let options = TrainingOptions::paper_settings(10);
        assert_eq!(options.population, 152);
        assert_eq!(options.max_generations, 50);
        assert_eq!(options.hidden_neurons, 10);
    }
}
