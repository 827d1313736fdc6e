//! Multi-layer feedforward networks.

use std::fmt;

use nncps_expr::{Expr, Tape};
use nncps_linalg::{Matrix, Vector};
use rand::Rng;

use crate::{Activation, Layer};

/// A fully-connected feedforward neural network.
///
/// The network is the paper's learning-enabled component: a stateless map
/// `u = h(y)` from controller inputs to actuation commands.  Besides numeric
/// evaluation, the network can export itself as symbolic expressions so the
/// exact same weights and activation functions appear in the SMT verification
/// queries — the paper's assumption (Section 3) that the deployed dynamics and
/// the solver share one interpretation.
///
/// # Examples
///
/// ```
/// use nncps_nn::{Activation, FeedforwardNetwork};
/// use nncps_expr::Expr;
///
/// let network = FeedforwardNetwork::builder(2)
///     .layer(4, Activation::Tanh)
///     .layer(1, Activation::Tanh)
///     .build_zeroed();
///
/// // Numeric and symbolic evaluation agree.
/// let u = network.forward(&[0.3, -0.1])[0];
/// let sym = network.forward_symbolic(&[Expr::var(0), Expr::var(1)]);
/// assert!((sym[0].eval(&[0.3, -0.1]) - u).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FeedforwardNetwork {
    input_dim: usize,
    layers: Vec<Layer>,
}

impl FeedforwardNetwork {
    /// Starts building a network that accepts `input_dim` inputs.
    pub fn builder(input_dim: usize) -> NetworkBuilder {
        NetworkBuilder {
            input_dim,
            layers: Vec::new(),
        }
    }

    /// Creates the paper's case-study architecture: `2 → hidden_neurons → 1`
    /// with `tansig` activations everywhere, all parameters zero.
    ///
    /// The parameter count is `4·Nh + 1` as stated in Section 4.2 of the
    /// paper.
    pub fn paper_architecture(hidden_neurons: usize) -> Self {
        FeedforwardNetwork::builder(2)
            .layer(hidden_neurons, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_zeroed()
    }

    /// Creates a network directly from layers.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer dimensions do not match or no layers are
    /// given.
    pub fn from_layers(input_dim: usize, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        let mut expected = input_dim;
        for (i, layer) in layers.iter().enumerate() {
            assert_eq!(
                layer.input_dim(),
                expected,
                "layer {i} expects {} inputs but receives {expected}",
                layer.input_dim()
            );
            expected = layer.output_dim();
        }
        FeedforwardNetwork { input_dim, layers }
    }

    /// Number of network inputs.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of network outputs.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(self.input_dim, Layer::output_dim)
    }

    /// The layers of the network in evaluation order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of neurons in each hidden layer (all layers except the last).
    pub fn hidden_sizes(&self) -> Vec<usize> {
        self.layers[..self.layers.len().saturating_sub(1)]
            .iter()
            .map(Layer::output_dim)
            .collect()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Evaluates the network on an input slice.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.input_dim, "network input length mismatch");
        let mut activation = input.to_vec();
        for layer in &self.layers {
            activation = layer.forward(&activation);
        }
        activation
    }

    /// Builds symbolic expressions for the network outputs in terms of the
    /// given symbolic inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_dim()`.
    pub fn forward_symbolic(&self, inputs: &[Expr]) -> Vec<Expr> {
        assert_eq!(
            inputs.len(),
            self.input_dim,
            "network symbolic input length mismatch"
        );
        let mut exprs = inputs.to_vec();
        for layer in &self.layers {
            exprs = layer.forward_symbolic(&exprs);
        }
        exprs
    }

    /// Compiles the symbolic network outputs into one flat evaluation
    /// [`Tape`].
    ///
    /// The symbolic export shares each neuron's pre-activation between every
    /// output (and, after differentiation, between the network and its
    /// gradient), so the tape's common-subexpression elimination evaluates
    /// each pre-activation exactly once — this is what keeps the δ-SAT
    /// queries over wide controllers tractable.  Evaluation of the tape is
    /// bit-identical to evaluating the exported expressions.
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_expr::Expr;
    /// use nncps_nn::FeedforwardNetwork;
    ///
    /// let network = FeedforwardNetwork::paper_architecture(8);
    /// let tape = network.compile_symbolic(&[Expr::var(0), Expr::var(1)]);
    /// assert_eq!(tape.num_roots(), 1);
    /// assert_eq!(
    ///     tape.eval(&[0.3, -0.1]).to_bits(),
    ///     network.forward_symbolic(&[Expr::var(0), Expr::var(1)])[0]
    ///         .eval(&[0.3, -0.1])
    ///         .to_bits(),
    /// );
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_dim()`.
    pub fn compile_symbolic(&self, inputs: &[Expr]) -> Tape {
        Tape::compile_many(&self.forward_symbolic(inputs))
    }

    /// Flattens all parameters into a single vector (layer by layer, weights
    /// row-major then biases), the format consumed by the CMA-ES policy
    /// search.
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            layer.flatten_into(&mut out);
        }
        out
    }

    /// Loads parameters from a flat vector produced by
    /// [`FeedforwardNetwork::flatten_params`] (or by the optimizer).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from [`FeedforwardNetwork::num_params`].
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_params(),
            "parameter vector length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.unflatten_from(&params[offset..]);
        }
    }

    /// Returns a copy of the network using the given flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from [`FeedforwardNetwork::num_params`].
    pub fn with_params(&self, params: &[f64]) -> Self {
        let mut copy = self.clone();
        copy.set_params(params);
        copy
    }

    /// Randomizes all parameters uniformly in `[-scale, scale]`.
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R, scale: f64) {
        let params: Vec<f64> = (0..self.num_params())
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        self.set_params(&params);
    }

    /// Returns a copy with every parameter `p` perturbed multiplicatively to
    /// `p · (1 + relative_scale · u)`, `u` drawn uniformly from `[-1, 1]` by
    /// a deterministic ChaCha8 RNG seeded with `seed` (the same
    /// version-stable generator the scenario samplers use — `StdRng`'s
    /// stream is explicitly unstable across `rand` releases).
    ///
    /// The scenario sweep engine uses this for its *NN weight perturbation*
    /// parameter axis: the perturbation is a pure function of `(network,
    /// relative_scale, seed)`, so family members regenerate bit-identical
    /// controllers on every run, and a zero scale returns the network
    /// bit-unchanged (`p · (1 + 0) = p`).
    ///
    /// # Examples
    ///
    /// ```
    /// use nncps_nn::FeedforwardNetwork;
    ///
    /// let net = FeedforwardNetwork::paper_architecture(4);
    /// let twin = net.perturbed(0.0, 7);
    /// assert_eq!(net.flatten_params(), twin.flatten_params());
    /// let shaken = net.perturbed(0.05, 7);
    /// assert_eq!(shaken.flatten_params(), net.perturbed(0.05, 7).flatten_params());
    /// ```
    pub fn perturbed(&self, relative_scale: f64, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let params: Vec<f64> = self
            .flatten_params()
            .into_iter()
            .map(|p| p * (1.0 + relative_scale * rng.gen_range(-1.0..=1.0)))
            .collect();
        self.with_params(&params)
    }
}

impl fmt::Display for FeedforwardNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.input_dim)?;
        for layer in &self.layers {
            write!(f, " -> {}[{}]", layer.output_dim(), layer.activation())?;
        }
        Ok(())
    }
}

/// Builder for [`FeedforwardNetwork`], collecting layer sizes and activations.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    input_dim: usize,
    layers: Vec<(usize, Activation)>,
}

impl NetworkBuilder {
    /// Appends a layer with `neurons` outputs and the given activation.
    pub fn layer(mut self, neurons: usize, activation: Activation) -> Self {
        self.layers.push((neurons, activation));
        self
    }

    /// Builds the network with all parameters set to zero.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    pub fn build_zeroed(self) -> FeedforwardNetwork {
        assert!(!self.layers.is_empty(), "network needs at least one layer");
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut inputs = self.input_dim;
        for (neurons, activation) in &self.layers {
            layers.push(Layer::zeroed(inputs, *neurons, *activation));
            inputs = *neurons;
        }
        FeedforwardNetwork::from_layers(self.input_dim, layers)
    }

    /// Builds the network with parameters drawn uniformly from
    /// `[-scale, scale]`, the usual starting point for the policy search.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    pub fn build_random<R: Rng + ?Sized>(self, rng: &mut R, scale: f64) -> FeedforwardNetwork {
        let mut network = self.build_zeroed();
        network.randomize(rng, scale);
        network
    }
}

/// Builds a network with explicitly supplied weight/bias matrices, primarily
/// useful in tests and examples that need a hand-crafted controller.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub fn network_from_weights(
    input_dim: usize,
    weights_and_biases: Vec<(Matrix, Vector, Activation)>,
) -> FeedforwardNetwork {
    let layers = weights_and_biases
        .into_iter()
        .map(|(w, b, a)| Layer::new(w, b, a))
        .collect();
    FeedforwardNetwork::from_layers(input_dim, layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_network() -> FeedforwardNetwork {
        // 2 -> 2 tanh -> 1 linear with hand-picked weights.
        network_from_weights(
            2,
            vec![
                (
                    Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.25]]),
                    Vector::from_slice(&[0.1, -0.3]),
                    Activation::Tanh,
                ),
                (
                    Matrix::from_rows(&[&[2.0, -0.5]]),
                    Vector::from_slice(&[0.05]),
                    Activation::Linear,
                ),
            ],
        )
    }

    #[test]
    fn paper_architecture_parameter_count() {
        // The paper states the total parameter count is 4*Nh + 1.
        for nh in [10usize, 20, 100, 1000] {
            let n = FeedforwardNetwork::paper_architecture(nh);
            assert_eq!(n.num_params(), 4 * nh + 1);
            assert_eq!(n.input_dim(), 2);
            assert_eq!(n.output_dim(), 1);
            assert_eq!(n.hidden_sizes(), vec![nh]);
        }
    }

    #[test]
    fn forward_matches_manual_computation() {
        let n = tiny_network();
        let input = [0.4, -0.2];
        let h1 = (0.5 * 0.4 + -1.0 * -0.2 + 0.1_f64).tanh();
        let h2 = (1.5 * 0.4 + 0.25 * -0.2 - 0.3_f64).tanh();
        let expected = 2.0 * h1 - 0.5 * h2 + 0.05;
        let out = n.forward(&input);
        assert_eq!(out.len(), 1);
        assert!((out[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn symbolic_export_agrees_with_forward() {
        use nncps_expr::Expr;
        let n = tiny_network();
        let sym = n.forward_symbolic(&[Expr::var(0), Expr::var(1)]);
        assert_eq!(sym.len(), 1);
        for &input in &[[0.0, 0.0], [0.7, -0.9], [-1.2, 0.3], [2.0, 2.0]] {
            let numeric = n.forward(&input)[0];
            let symbolic = sym[0].eval(&input);
            assert!((numeric - symbolic).abs() < 1e-12, "at {input:?}");
        }
    }

    #[test]
    fn compiled_symbolic_export_shares_pre_activations() {
        use nncps_expr::{Expr, Tape};
        let mut rng = StdRng::seed_from_u64(11);
        let n = FeedforwardNetwork::builder(2)
            .layer(6, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_random(&mut rng, 0.8);
        let inputs = [Expr::var(0), Expr::var(1)];
        let u = n.forward_symbolic(&inputs)[0].clone();

        // A Lie-derivative-shaped bundle: the output and both its partial
        // derivatives reference every hidden pre-activation.  CSE must
        // collapse the shared neurons so the tape is far smaller than the
        // unrolled trees.
        let bundle = [
            u.clone(),
            u.differentiate(0).simplified(),
            u.differentiate(1).simplified(),
        ];
        let tape = Tape::compile_many(&bundle);
        let unrolled: usize = bundle.iter().map(Expr::node_count).sum();
        assert!(
            tape.num_slots() * 2 < unrolled,
            "expected >2x CSE compression, got {} slots vs {} tree nodes",
            tape.num_slots(),
            unrolled
        );

        // And the single-output compilation helper agrees bit-for-bit with
        // the tree at probe points.
        let compiled = n.compile_symbolic(&inputs);
        for input in [[0.0, 0.0], [0.7, -0.9], [-1.2, 0.3]] {
            assert_eq!(compiled.eval(&input).to_bits(), u.eval(&input).to_bits());
        }
    }

    #[test]
    fn parameter_roundtrip_and_with_params() {
        let n = tiny_network();
        let flat = n.flatten_params();
        assert_eq!(flat.len(), n.num_params());
        let mut rebuilt = FeedforwardNetwork::builder(2)
            .layer(2, Activation::Tanh)
            .layer(1, Activation::Linear)
            .build_zeroed();
        rebuilt.set_params(&flat);
        assert_eq!(rebuilt, n);
        let perturbed: Vec<f64> = flat.iter().map(|p| p + 1.0).collect();
        let other = n.with_params(&perturbed);
        assert_ne!(other, n);
        assert_eq!(other.flatten_params(), perturbed);
    }

    #[test]
    fn random_initialization_is_reproducible_and_bounded() {
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let a = FeedforwardNetwork::builder(2)
            .layer(5, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_random(&mut rng_a, 0.5);
        let b = FeedforwardNetwork::builder(2)
            .layer(5, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_random(&mut rng_b, 0.5);
        assert_eq!(a, b);
        assert!(a.flatten_params().iter().all(|p| p.abs() <= 0.5));
    }

    #[test]
    fn display_shows_architecture() {
        let n = FeedforwardNetwork::paper_architecture(10);
        assert_eq!(format!("{n}"), "2 -> 10[tansig] -> 1[tansig]");
    }

    #[test]
    fn tanh_output_layer_saturates_steering() {
        // The case-study controller uses tanh on the output, so |u| <= 1.
        let mut rng = StdRng::seed_from_u64(3);
        let n = FeedforwardNetwork::builder(2)
            .layer(8, Activation::Tanh)
            .layer(1, Activation::Tanh)
            .build_random(&mut rng, 3.0);
        for &input in &[[5.0, 5.0], [-10.0, 2.0], [0.0, 0.0]] {
            assert!(n.forward(&input)[0].abs() <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_builder_panics() {
        let _ = FeedforwardNetwork::builder(2).build_zeroed();
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn mismatched_layer_dimensions_panic() {
        let _ = FeedforwardNetwork::from_layers(
            2,
            vec![
                Layer::zeroed(2, 3, Activation::Tanh),
                Layer::zeroed(4, 1, Activation::Tanh),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_parameter_length_panics() {
        let mut n = FeedforwardNetwork::paper_architecture(4);
        n.set_params(&[0.0; 3]);
    }
}
