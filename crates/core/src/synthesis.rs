//! Simulation-guided synthesis of candidate generator functions (LP step).

use std::error::Error;
use std::fmt;

use nncps_expr::{Fingerprint, StructuralHasher};
use nncps_lp::{Comparison, LpError, LpProblem};
use nncps_sim::Trace;

use crate::{GeneratorFunction, QuadraticTemplate, SafetySpec};

/// Errors reported by [`CandidateSynthesizer::synthesize`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// No trace data has been added yet.
    NoTraceData,
    /// The LP over the accumulated constraints has no solution; the template
    /// cannot fit the observed behaviour (the paper's termination case (1)).
    Infeasible(LpError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoTraceData => write!(f, "no simulation traces have been added"),
            SynthesisError::Infeasible(e) => {
                write!(f, "generator-function LP could not be solved: {e}")
            }
        }
    }
}

impl Error for SynthesisError {}

/// Tuning knobs of the LP constraint generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisOptions {
    /// Required positivity margin `W(x_k) ≥ ε_pos` at sampled states.
    pub positivity_margin: f64,
    /// Required decrease per sample pair, relative to the step length:
    /// `W(x_{k+1}) − W(x_k) ≤ −ε_dec · ‖x_{k+1} − x_k‖`.
    pub decrease_margin: f64,
    /// Bound on the absolute value of every template coefficient (keeps the
    /// feasibility LP bounded).
    pub coefficient_bound: f64,
    /// Minimum value of the diagonal quadratic coefficients, and the ratio
    /// bounding cross terms (`|p_ij| ≤ ratio · min(p_ii, p_jj)`), which
    /// together guarantee a positive-definite quadratic part by diagonal
    /// dominance.
    pub diagonal_floor: f64,
    /// See [`SynthesisOptions::diagonal_floor`].
    pub cross_term_ratio: f64,
    /// Upper bound on the decrease-rate margin variable that the LP
    /// maximizes (keeps the objective bounded even when very few decrease
    /// rows have been generated yet).
    pub margin_cap: f64,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            positivity_margin: 1e-6,
            decrease_margin: 1e-4,
            coefficient_bound: 100.0,
            diagonal_floor: 0.005,
            cross_term_ratio: 0.9,
            margin_cap: 10.0,
        }
    }
}

/// Builds candidate generator functions from simulation traces by solving a
/// linear program over the template coefficients (the `Solve LP` block of the
/// paper's Figure 1).
///
/// Constraints generated from each trace:
///
/// * **positivity** — `W(x_k) ≥ ε_pos` at every sampled state inside the
///   domain of interest,
/// * **decrease** — `W(x_{k+1}) − W(x_k) ≤ −ε_dec·‖x_{k+1} − x_k‖` for every
///   consecutive pair whose first state lies outside `X0` (the decrease
///   condition is only required away from the initial set),
///
/// plus structural constraints that keep the LP bounded and the quadratic part
/// positive definite, and a normalization `W(x_ref) = 1` at a domain corner
/// that pins the scale of the otherwise homogeneous constraint cone.
///
/// Rather than returning an arbitrary feasible point, the LP **maximizes the
/// worst-case decrease rate** over all decrease rows (trace pairs and
/// counterexample Lie-derivative rows) via an auxiliary margin variable.  The
/// max-margin candidate is well separated from the boundary of the decrease
/// condition, which is what lets the subsequent δ-SAT check (query (5))
/// conclude UNSAT instead of returning spurious near-zero witnesses.
///
/// # Examples
///
/// ```
/// use nncps_barrier::{CandidateSynthesizer, SafetySpec};
/// use nncps_expr::Expr;
/// use nncps_interval::IntervalBox;
/// use nncps_sim::{ExprDynamics, Integrator, Simulator};
///
/// let spec = SafetySpec::rectangular(
///     IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
///     IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
/// );
/// // Traces of the contracting system x' = -x, y' = -2y.
/// let dynamics = ExprDynamics::new(vec![-Expr::var(0), -Expr::var(1) * 2.0]);
/// let simulator = Simulator::new(Integrator::RungeKutta4, 0.05, 3.0);
/// let traces = simulator.simulate_batch(&dynamics, &[vec![2.0, 1.0], vec![-1.0, 2.0]]);
///
/// let mut synthesizer = CandidateSynthesizer::new(spec);
/// synthesizer.add_traces(&traces);
/// let candidate = synthesizer.synthesize().expect("LP is feasible");
/// assert!(candidate.is_positive_definite(1e-9));
/// ```
#[derive(Debug, Clone)]
pub struct CandidateSynthesizer {
    template: QuadraticTemplate,
    spec: SafetySpec,
    options: SynthesisOptions,
    /// Accumulated trace- and counterexample-derived rows.
    rows: Vec<Row>,
}

/// One LP row `coefficients·w (+ margin_coeff·t) ⋈ rhs` over the template
/// coefficients `w` and the decrease-rate margin variable `t`.
#[derive(Debug, Clone)]
struct Row {
    coefficients: Vec<f64>,
    comparison: Comparison,
    rhs: f64,
    /// Coefficient of the margin variable `t` (zero for positivity rows,
    /// positive for decrease rows so that larger `t` means faster decrease).
    margin_coeff: f64,
}

impl CandidateSynthesizer {
    /// Creates a synthesizer for the given specification with default options.
    pub fn new(spec: SafetySpec) -> Self {
        Self::with_options(spec, SynthesisOptions::default())
    }

    /// Creates a synthesizer with explicit options.
    pub fn with_options(spec: SafetySpec, options: SynthesisOptions) -> Self {
        let template = QuadraticTemplate::new(spec.dim());
        CandidateSynthesizer {
            template,
            spec,
            options,
            rows: Vec::new(),
        }
    }

    /// The template whose coefficients are being synthesized.
    pub fn template(&self) -> &QuadraticTemplate {
        &self.template
    }

    /// Number of LP rows generated from traces so far.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Adds the positivity and decrease constraints extracted from a trace.
    ///
    /// Samples outside the domain of interest are ignored (the paper only
    /// reasons over `D`).
    pub fn add_trace(&mut self, trace: &Trace) {
        let domain = self.spec.domain().clone();
        for (_, state) in trace.iter() {
            if !domain.contains_point(state) {
                continue;
            }
            // Positivity: W(x_k) >= eps_pos.
            self.rows.push(Row {
                coefficients: self.template.basis_values(state),
                comparison: Comparison::Ge,
                rhs: self.options.positivity_margin,
                margin_coeff: 0.0,
            });
        }
        for ((_, current), (_, next)) in trace.consecutive_pairs() {
            if !domain.contains_point(current) || !domain.contains_point(next) {
                continue;
            }
            // The decrease condition is only required outside X0.
            if self.spec.is_initial(current) {
                continue;
            }
            let step_length: f64 = current
                .iter()
                .zip(next.iter())
                .map(|(a, b)| (b - a) * (b - a))
                .sum::<f64>()
                .sqrt();
            if step_length < 1e-12 {
                continue;
            }
            let basis_current = self.template.basis_values(current);
            let basis_next = self.template.basis_values(next);
            let row: Vec<f64> = basis_next
                .iter()
                .zip(basis_current.iter())
                .map(|(b, a)| b - a)
                .collect();
            // W(next) − W(cur) + t·‖Δx‖ ≤ −ε_dec·‖Δx‖, i.e. the decrease rate
            // per unit path length is at least ε_dec + t.
            self.rows.push(Row {
                coefficients: row,
                comparison: Comparison::Le,
                rhs: -self.options.decrease_margin * step_length,
                margin_coeff: step_length,
            });
        }
    }

    /// Adds constraints from several traces.
    pub fn add_traces<'a, I: IntoIterator<Item = &'a Trace>>(&mut self, traces: I) {
        for trace in traces {
            self.add_trace(trace);
        }
    }

    /// Adds a counterexample constraint from a state `x*` where the decrease
    /// condition failed, given the vector-field value `f(x*)`.
    ///
    /// Two rows are added:
    ///
    /// * a Lie-derivative decrease row `(∇W)(x*)·f(x*) ≤ −margin`, which is
    ///   linear in the template coefficients and therefore cuts the current
    ///   (failing) candidate out of the LP feasible set, and
    /// * a positivity row `W(x*) ≥ ε_pos`.
    ///
    /// This is the refinement step of the paper's Figure 1: when the SMT
    /// decrease check (query (5)) returns a witness, the witness is folded
    /// back into the LP so that the next candidate no longer fails there.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `derivative` do not match the template dimension.
    pub fn add_counterexample(&mut self, state: &[f64], derivative: &[f64], margin: f64) {
        // (∇W)(x*)·f(x*) + t ≤ −margin: the Lie derivative at the witness must
        // decrease at a rate of at least `margin + t`.
        self.rows.push(Row {
            coefficients: self.template.lie_basis_values(state, derivative),
            comparison: Comparison::Le,
            rhs: -margin.abs(),
            margin_coeff: 1.0,
        });
        self.rows.push(Row {
            coefficients: self.template.basis_values(state),
            comparison: Comparison::Ge,
            rhs: self.options.positivity_margin,
            margin_coeff: 0.0,
        });
    }

    /// A 128-bit identity key over *every* input [`synthesize`] reads: the
    /// template dimension, the options, the specification (the domain corner
    /// used for normalization), and the exact bits of all accumulated
    /// constraint rows.
    ///
    /// [`synthesize`] is a pure function of this state, so the sweep
    /// engine's warm-start layer memoizes its result under this key: a hit
    /// returns bit-identical candidate coefficients to re-solving the LP.
    ///
    /// [`synthesize`]: CandidateSynthesizer::synthesize
    pub fn fingerprint(&self) -> Fingerprint {
        let mut hasher = StructuralHasher::new();
        hasher.write_u8(0x30);
        hasher.write_usize(self.template.dim());
        for value in [
            self.options.positivity_margin,
            self.options.decrease_margin,
            self.options.coefficient_bound,
            self.options.diagonal_floor,
            self.options.cross_term_ratio,
            self.options.margin_cap,
        ] {
            hasher.write_f64(value);
        }
        self.spec.write_structural(&mut hasher);
        hasher.write_usize(self.rows.len());
        for row in &self.rows {
            hasher.write_usize(row.coefficients.len());
            for &c in &row.coefficients {
                hasher.write_f64(c);
            }
            hasher.write_u8(match row.comparison {
                Comparison::Le => 0,
                Comparison::Ge => 1,
                Comparison::Eq => 2,
            });
            hasher.write_f64(row.rhs);
            hasher.write_f64(row.margin_coeff);
        }
        hasher.finish()
    }

    /// Solves the LP over all accumulated constraints and returns the
    /// candidate generator function.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::NoTraceData`] if no traces were added,
    /// * [`SynthesisError::Infeasible`] if the LP has no solution.
    pub fn synthesize(&self) -> Result<GeneratorFunction, SynthesisError> {
        if self.rows.is_empty() {
            return Err(SynthesisError::NoTraceData);
        }
        let n_coeffs = self.template.num_coefficients();
        let dim = self.template.dim();
        // Variables: the template coefficients plus the decrease-rate margin t.
        let margin_var = n_coeffs;
        let num_vars = n_coeffs + 1;
        let mut lp = LpProblem::new(num_vars);

        // Maximize the margin (the LP minimizes, so negate).
        let mut objective = vec![0.0; num_vars];
        objective[margin_var] = -1.0;
        lp.set_objective(&objective);

        // Trace- and counterexample-derived constraints.
        for row in &self.rows {
            let mut coefficients = row.coefficients.clone();
            coefficients.push(row.margin_coeff);
            lp.add_constraint(&coefficients, row.comparison, row.rhs);
        }

        // Margin bounds: 0 ≤ t ≤ cap.
        let mut row = vec![0.0; num_vars];
        row[margin_var] = 1.0;
        lp.add_constraint(&row, Comparison::Ge, 0.0);
        lp.add_constraint(&row, Comparison::Le, self.options.margin_cap);

        // Coefficient bounds (keep the feasibility problem bounded).
        let bound = self.options.coefficient_bound;
        for k in 0..n_coeffs {
            let mut row = vec![0.0; num_vars];
            row[k] = 1.0;
            lp.add_constraint(&row, Comparison::Le, bound);
            lp.add_constraint(&row, Comparison::Ge, -bound);
        }

        // Positive-definiteness by diagonal dominance of the quadratic part:
        // p_ii >= floor and |p_ij| <= ratio * p_ii, |p_ij| <= ratio * p_jj.
        for i in 0..dim {
            let mut row = vec![0.0; num_vars];
            row[self.template.quadratic_index(i, i)] = 1.0;
            lp.add_constraint(&row, Comparison::Ge, self.options.diagonal_floor);
        }
        let ratio = self.options.cross_term_ratio;
        for i in 0..dim {
            for j in (i + 1)..dim {
                // The template's cross coefficient multiplies x_i x_j once, so
                // the entry of the symmetric matrix P is half of it.
                let cross = self.template.quadratic_index(i, j);
                for &diag in &[i, j] {
                    let diag_index = self.template.quadratic_index(diag, diag);
                    // 0.5 * cross <= ratio * p_dd   and   -0.5 * cross <= ratio * p_dd
                    let mut row = vec![0.0; num_vars];
                    row[cross] = 0.5;
                    row[diag_index] = -ratio;
                    lp.add_constraint(&row, Comparison::Le, 0.0);
                    let mut row = vec![0.0; num_vars];
                    row[cross] = -0.5;
                    row[diag_index] = -ratio;
                    lp.add_constraint(&row, Comparison::Le, 0.0);
                }
            }
        }

        // Normalization: W(x_ref) = 1 at a corner of the domain of interest.
        let x_ref: Vec<f64> = (0..dim).map(|i| self.spec.domain()[i].hi()).collect();
        let mut normalization = self.template.basis_values(&x_ref);
        normalization.push(0.0);
        lp.add_constraint(&normalization, Comparison::Eq, 1.0);

        let solution = lp.solve().map_err(SynthesisError::Infeasible)?;
        Ok(self.template.instantiate(&solution.values()[..n_coeffs]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nncps_expr::Expr;
    use nncps_interval::IntervalBox;
    use nncps_sim::{ExprDynamics, Integrator, Simulator};

    fn spec() -> SafetySpec {
        SafetySpec::rectangular(
            IntervalBox::from_bounds(&[(-0.5, 0.5), (-0.5, 0.5)]),
            IntervalBox::from_bounds(&[(-3.0, 3.0), (-3.0, 3.0)]),
        )
    }

    fn stable_traces() -> Vec<Trace> {
        // x' = -x, y' = -2y: trajectories contract toward the origin.
        let dynamics = ExprDynamics::new(vec![-Expr::var(0), -Expr::var(1) * 2.0]);
        let sim = Simulator::new(Integrator::RungeKutta4, 0.05, 3.0);
        sim.simulate_batch(
            &dynamics,
            &[
                vec![2.5, 1.0],
                vec![-2.0, 2.0],
                vec![1.0, -2.5],
                vec![-2.5, -2.0],
                vec![2.0, 2.5],
            ],
        )
    }

    #[test]
    fn synthesizer_accumulates_constraints() {
        let mut synthesizer = CandidateSynthesizer::new(spec());
        assert_eq!(synthesizer.num_constraints(), 0);
        assert_eq!(synthesizer.template().dim(), 2);
        let traces = stable_traces();
        synthesizer.add_traces(&traces);
        assert!(synthesizer.num_constraints() > 100);
    }

    #[test]
    fn synthesize_without_traces_errors() {
        let synthesizer = CandidateSynthesizer::new(spec());
        assert_eq!(
            synthesizer.synthesize().unwrap_err(),
            SynthesisError::NoTraceData
        );
        assert!(SynthesisError::NoTraceData.to_string().contains("traces"));
    }

    #[test]
    fn candidate_for_stable_linear_system_decreases_along_traces() {
        let mut synthesizer = CandidateSynthesizer::new(spec());
        let traces = stable_traces();
        synthesizer.add_traces(&traces);
        let candidate = synthesizer.synthesize().expect("LP should be feasible");
        // The candidate must be positive definite by construction.
        assert!(candidate.is_positive_definite(1e-9));
        // And must decrease along every recorded sample pair outside X0.
        for trace in &traces {
            for ((_, a), (_, b)) in trace.consecutive_pairs() {
                if spec().is_initial(a) || !spec().domain().contains_point(b) {
                    continue;
                }
                assert!(
                    candidate.evaluate(b) < candidate.evaluate(a) + 1e-9,
                    "no decrease from {a:?} to {b:?}"
                );
            }
        }
        // Normalization pins W at the domain corner to 1.
        assert!((candidate.evaluate(&[3.0, 3.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_for_periodic_orbit() {
        // A harmonic oscillator traces a closed orbit; no function can
        // strictly decrease all the way around a loop, so the LP generated
        // from a full period must be infeasible.
        let dynamics = ExprDynamics::new(vec![Expr::var(1), -Expr::var(0)]);
        let sim = Simulator::new(
            Integrator::RungeKutta4,
            0.05,
            2.0 * std::f64::consts::PI + 0.2,
        );
        let traces = sim.simulate_batch(&dynamics, &[vec![2.0, 0.0]]);
        let mut synthesizer = CandidateSynthesizer::new(spec());
        synthesizer.add_traces(&traces);
        let err = synthesizer.synthesize().unwrap_err();
        assert!(matches!(err, SynthesisError::Infeasible(_)));
        assert!(err.to_string().contains("LP"));
    }

    #[test]
    fn samples_outside_domain_are_ignored() {
        let mut synthesizer = CandidateSynthesizer::new(spec());
        let mut trace = Trace::new(2);
        trace.push(0.0, &[10.0, 10.0]);
        trace.push(0.1, &[9.0, 9.0]);
        synthesizer.add_trace(&trace);
        assert_eq!(synthesizer.num_constraints(), 0);
    }

    #[test]
    fn counterexample_rows_cut_off_failing_candidates() {
        // Synthesize a candidate, then feed back a counterexample where the
        // Lie derivative of that candidate is positive; the refined candidate
        // must strictly decrease there while the old one did not.
        let mut synthesizer = CandidateSynthesizer::new(spec());
        synthesizer.add_traces(&stable_traces());
        let first = synthesizer.synthesize().expect("seed LP feasible");

        // A rotated vector field value chosen so the first candidate grows:
        // pick f(x*) aligned with the gradient of the first candidate.
        let witness = [2.0, 1.5];
        let gradient = first.gradient(&witness);
        let lie_before: f64 = gradient.iter().map(|g| g * g).sum();
        assert!(lie_before > 0.0);
        synthesizer.add_counterexample(&witness, &gradient, 1e-6);
        let refined = synthesizer.synthesize().expect("refined LP feasible");
        let lie_after: f64 = refined
            .gradient(&witness)
            .iter()
            .zip(gradient.iter())
            .map(|(g, f)| g * f)
            .sum();
        assert!(
            lie_after <= -1e-6 + 1e-9,
            "refined candidate still fails at the counterexample: {lie_after}"
        );
        // One decrease row and one positivity row per counterexample.
        assert_eq!(synthesizer.num_constraints(), {
            let mut baseline = CandidateSynthesizer::new(spec());
            baseline.add_traces(&stable_traces());
            baseline.num_constraints() + 2
        });
    }

    #[test]
    fn synthesized_candidates_have_a_positive_decrease_margin() {
        // The max-margin objective must leave real slack in the decrease
        // rows: per unit path length the decrease exceeds the configured
        // epsilon by a visible margin rather than sitting exactly on it.
        let mut synthesizer = CandidateSynthesizer::new(spec());
        let traces = stable_traces();
        synthesizer.add_traces(&traces);
        let candidate = synthesizer.synthesize().expect("feasible LP");
        let spec = spec();
        let mut worst_rate = f64::INFINITY;
        for trace in &traces {
            for ((_, a), (_, b)) in trace.consecutive_pairs() {
                if spec.is_initial(a)
                    || !spec.domain().contains_point(a)
                    || !spec.domain().contains_point(b)
                {
                    continue;
                }
                let step: f64 = a
                    .iter()
                    .zip(b.iter())
                    .map(|(p, q)| (q - p) * (q - p))
                    .sum::<f64>()
                    .sqrt();
                if step > 1e-9 {
                    worst_rate =
                        worst_rate.min((candidate.evaluate(a) - candidate.evaluate(b)) / step);
                }
            }
        }
        let epsilon = SynthesisOptions::default().decrease_margin;
        assert!(
            worst_rate > 10.0 * epsilon,
            "max-margin LP left almost no slack: worst decrease rate {worst_rate}"
        );
    }

    #[test]
    fn options_are_respected() {
        let options = SynthesisOptions {
            diagonal_floor: 0.5,
            ..SynthesisOptions::default()
        };
        let mut synthesizer = CandidateSynthesizer::with_options(spec(), options);
        synthesizer.add_traces(&stable_traces());
        let candidate = synthesizer.synthesize().unwrap();
        assert!(candidate.quadratic_part()[(0, 0)] >= 0.5 - 1e-9);
        assert!(candidate.quadratic_part()[(1, 1)] >= 0.5 - 1e-9);
    }
}
