//! Property test: a [`ScalarProgram`] compiled from a neural-network export
//! is bit-identical to walking the exported trees.
//!
//! `Layer::forward_symbolic` emits each pre-activation as the chain
//! `b + w₀·x₀ + w₁·x₁ + …` that the program fuses into one instruction, so
//! random networks (random depth, widths and activations) exercise the
//! fusion on exactly the shape it exists for.  Weights include `±0.0` (which
//! the export drops), subnormals and ordinary values; inputs include `±0.0`,
//! subnormals, `±∞` and NaN.  Every root must carry the same bits as
//! [`Expr::eval`].

use nncps_expr::{Expr, ScalarProgram};
use nncps_nn::{Activation, FeedforwardNetwork};
use proptest::prelude::*;

const ACTIVATIONS: [Activation; 5] = [
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Relu,
    Activation::HardTanh,
    Activation::Linear,
];

/// A parameter: mostly the sampled value, sometimes a signed zero or a
/// subnormal.
fn parameter(code: usize, value: f64) -> f64 {
    match code % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1 + code as u64) * value.signum(),
        _ => value,
    }
}

/// An input: mostly the sampled value, sometimes a special value.
fn input(code: usize, value: f64) -> f64 {
    match code % 12 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MIN_POSITIVE / 4.0,
        6 => -f64::from_bits(3),
        _ => value,
    }
}

proptest! {
    #[test]
    fn prop_network_export_evaluates_bit_identically(
        input_dim in 1usize..4,
        widths in collection::vec(1usize..9, 1..4),
        activations in collection::vec(0usize..5, 4),
        parameter_codes in collection::vec(0usize..1000, 64),
        parameter_values in collection::vec(-2.0f64..2.0, 64),
        input_codes in collection::vec(0usize..1000, 3),
        input_values in collection::vec(-3.0f64..3.0, 3),
    ) {
        let mut builder = FeedforwardNetwork::builder(input_dim);
        for (k, &width) in widths.iter().enumerate() {
            builder = builder.layer(width, ACTIVATIONS[activations[k]]);
        }
        let mut network = builder.build_zeroed();
        let params: Vec<f64> = (0..network.num_params())
            .map(|k| parameter(parameter_codes[k % 64] + k, parameter_values[k % 64]))
            .collect();
        network.set_params(&params);

        let vars: Vec<Expr> = (0..input_dim).map(Expr::var).collect();
        let outputs = network.forward_symbolic(&vars);
        let program = ScalarProgram::compile_many(&outputs);
        prop_assert_eq!(program.num_roots(), outputs.len());

        let point: Vec<f64> = (0..input_dim)
            .map(|i| input(input_codes[i], input_values[i]))
            .collect();
        let mut registers = Vec::new();
        program.eval_into(&point, &mut registers);
        for (k, output) in outputs.iter().enumerate() {
            prop_assert_eq!(
                registers[program.root_register(k)].to_bits(),
                output.eval(&point).to_bits()
            );
        }
    }
}
