//! Revised primal simplex on the dual of the LP.
//!
//! Write every row as `g_jᵀx ≥ h_j` (a `<=` row is negated; an `=` row
//! keeps its orientation).  The dual of `minimize cᵀx` over those rows is
//!
//! ```text
//! maximize hᵀy  subject to  Σ_j y_j g_j = c,  y_j ≥ 0 (y_j free for `=` rows)
//! ```
//!
//! It has one equality row per primal unknown, so a basis is `n` primal rows
//! and the basis matrix `B` (columns `g_j`) is `n × n` however many rows the
//! problem has.  The primal point of a basis is its vector of simplex
//! multipliers: the `x` solving `Bᵀx = h_B`, at which every basic row is
//! active.  The reduced profit of a row, `h_j − g_jᵀx`, is its violation at
//! that point, so pricing is one `O(m·n)` pass over the rows and Dantzig's
//! entering column is the most violated row.  A basis with no violated row
//! and non-negative multipliers `y_B = B⁻¹c` is optimal for both problems,
//! and a phase-2 ray (an entering row that no basic multiplier blocks) is a
//! Farkas certificate that the primal is infeasible.
//!
//! `B` is refactored from scratch (LU with partial pivoting) at every pivot.
//! That costs `O(n³)`, below the pricing pass, allocates nothing sized by
//! `m`, and leaves no update error to accumulate from pivot to pivot.
//!
//! Phase 1 starts from `n` artificial columns `±e_k`, signed so that the
//! artificials start at `|c_k|`, and drives their sum to zero.  A positive
//! optimum means the dual is infeasible, so the primal is unbounded or
//! infeasible; the problem is then solved again with `c = 0`, whose dual is
//! feasible, to tell the two apart.  Artificials never re-enter, and one
//! still basic in phase 2 (at zero) leaves at the first pivot that would
//! move it.  Dantzig's rule falls back to Bland's anti-cycling rule after a
//! large number of pivots.

use crate::problem::{Comparison, LpError, LpProblem, LpSolution};

/// Relative tolerance of the violation (pricing) test and of phase 1's
/// residual infeasibility.
const FEASIBILITY_TOL: f64 = 1e-9;
/// A direction entry at or below this fraction of the direction's largest
/// entry is not a pivot.
const PIVOT_TOL: f64 = 1e-9;
const MAX_ITERATIONS: usize = 200_000;

/// An optimal solution with the multipliers that certify it.
pub(crate) struct Optimum {
    pub(crate) solution: LpSolution,
    /// `(row, y)` for every basic row, oriented like the row as given:
    /// non-negative for `>=` rows, non-positive for `<=` rows, free for `=`
    /// rows.  Every other row's multiplier is zero.
    pub(crate) duals: Vec<(usize, f64)>,
}

/// Solves the problem (see the [module docs](self)).
pub(crate) fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    solve_counted(problem, &mut 0).map(|optimum| optimum.solution)
}

/// Solves the problem and adds the number of pivots made to `pivots`.
pub(crate) fn solve_counted(problem: &LpProblem, pivots: &mut usize) -> Result<Optimum, LpError> {
    let rows = Rows::new(problem);
    match Dual::new(&rows, problem.objective()).optimize(pivots)? {
        Some(mut optimum) => {
            for (row, y) in &mut optimum.duals {
                if problem.constraints()[*row].comparison == Comparison::Le {
                    *y = -*y;
                }
            }
            Ok(optimum)
        }
        // The dual is infeasible, so the primal is unbounded unless it has
        // no feasible point.  With `c = 0` the dual is feasible (`y = 0`),
        // so this run ends in an optimum or in `Infeasible`.
        None => {
            Dual::new(&rows, &vec![0.0; rows.n]).optimize(pivots)?;
            Err(LpError::Unbounded)
        }
    }
}

/// The rows of the problem in `≥` orientation: row `j` is `g_jᵀx ≥ h_j`,
/// or `g_jᵀx = h_j` when `free[j]`.
struct Rows {
    n: usize,
    m: usize,
    /// `g_j`, row-major `m × n`.
    g: Vec<f64>,
    h: Vec<f64>,
    /// `=` rows, whose multiplier is free in sign.
    free: Vec<bool>,
    /// `‖g_j‖₁`, which scales row `j`'s violation tolerance.
    norm: Vec<f64>,
}

impl Rows {
    fn new(problem: &LpProblem) -> Self {
        let n = problem.num_vars();
        let constraints = problem.constraints();
        let m = constraints.len();
        let mut rows = Rows {
            n,
            m,
            g: Vec::with_capacity(m * n),
            h: Vec::with_capacity(m),
            free: Vec::with_capacity(m),
            norm: Vec::with_capacity(m),
        };
        for c in constraints {
            let sign = if c.comparison == Comparison::Le {
                -1.0
            } else {
                1.0
            };
            rows.g.extend(c.coefficients.iter().map(|a| sign * a));
            rows.h.push(sign * c.rhs);
            rows.free.push(c.comparison == Comparison::Eq);
            rows.norm.push(c.coefficients.iter().map(|a| a.abs()).sum());
        }
        rows
    }

    fn row(&self, j: usize) -> &[f64] {
        &self.g[j * self.n..(j + 1) * self.n]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

/// The dual simplex state: a basis of `n` columns and its factorization.
struct Dual<'a> {
    rows: &'a Rows,
    c: &'a [f64],
    /// The basic column at each of the `n` positions: a row `j < m`, or
    /// `m + k` for the `k`-th artificial column `artificial_sign[k]·e_k`.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    artificial_sign: Vec<f64>,
    lu: Lu,
    /// Basic multipliers `y_B = B⁻¹c`.
    y: Vec<f64>,
    /// The primal point `x = B⁻ᵀ profit_B`.
    x: Vec<f64>,
    /// The entering column's direction `B⁻¹g_j`.
    u: Vec<f64>,
}

impl<'a> Dual<'a> {
    fn new(rows: &'a Rows, c: &'a [f64]) -> Self {
        let n = rows.n;
        Dual {
            rows,
            c,
            basis: (rows.m..rows.m + n).collect(),
            in_basis: vec![false; rows.m],
            artificial_sign: c
                .iter()
                .map(|&ck| if ck < 0.0 { -1.0 } else { 1.0 })
                .collect(),
            lu: Lu::new(n),
            y: vec![0.0; n],
            x: vec![0.0; n],
            u: vec![0.0; n],
        }
    }

    /// Runs both phases.  `None` means the dual is infeasible.
    fn optimize(mut self, pivots: &mut usize) -> Result<Option<Optimum>, LpError> {
        self.run(Phase::One, pivots)?;
        if self.infeasibility() > self.infeasibility_tolerance() {
            return Ok(None);
        }
        self.run(Phase::Two, pivots)?;
        let objective = self.c.iter().zip(&self.x).map(|(c, x)| c * x).sum();
        let duals = (0..self.rows.n)
            .filter(|&p| self.basis[p] < self.rows.m)
            .map(|p| (self.basis[p], self.y[p]))
            .collect();
        Ok(Some(Optimum {
            solution: LpSolution::new(self.x, objective),
            duals,
        }))
    }

    /// Pivots until the phase is optimal.  On return the factorization,
    /// `y` and (unless phase 1 stopped early) `x` belong to the final basis.
    fn run(&mut self, phase: Phase, pivots: &mut usize) -> Result<(), LpError> {
        // Switch to Bland's rule once the iteration count suggests the
        // faster Dantzig rule might be cycling.
        let bland_after = 50 * (self.rows.n + self.rows.m).max(100);
        for iteration in 0..MAX_ITERATIONS {
            self.refactor()?;
            if phase == Phase::One && self.infeasibility() <= self.infeasibility_tolerance() {
                return Ok(());
            }
            let use_bland = iteration >= bland_after;
            let Some((entering, direction)) = self.price(phase, use_bland) else {
                return Ok(());
            };
            let Some(leaving) = self.ratio_test(entering, direction, phase, use_bland) else {
                // Phase 1 maximizes a sum bounded by zero, so only rounding
                // can produce a ray there.
                return Err(match phase {
                    Phase::Two => LpError::Infeasible,
                    Phase::One => LpError::IterationLimit,
                });
            };
            nncps_fault::panic_point(nncps_fault::SITE_LP_PIVOT);
            let old = std::mem::replace(&mut self.basis[leaving], entering);
            if old < self.rows.m {
                self.in_basis[old] = false;
            }
            self.in_basis[entering] = true;
            *pivots += 1;
        }
        Err(LpError::IterationLimit)
    }

    /// The sum of the artificials (phase 1's objective, negated).
    fn infeasibility(&self) -> f64 {
        (0..self.rows.n)
            .filter(|&p| self.basis[p] >= self.rows.m)
            .map(|p| self.y[p].max(0.0))
            .sum()
    }

    fn infeasibility_tolerance(&self) -> f64 {
        FEASIBILITY_TOL * self.c.iter().fold(0.0_f64, |acc, c| acc.max(c.abs()))
    }

    fn profit(&self, column: usize, phase: Phase) -> f64 {
        match (phase, column < self.rows.m) {
            (Phase::One, true) => 0.0,
            (Phase::One, false) => -1.0,
            (Phase::Two, true) => self.rows.h[column],
            (Phase::Two, false) => 0.0,
        }
    }

    /// Factors `B` afresh and recomputes `y_B = B⁻¹c`.
    fn refactor(&mut self) -> Result<(), LpError> {
        let n = self.rows.n;
        for (p, &column) in self.basis.iter().enumerate() {
            if column < self.rows.m {
                for (i, &g) in self.rows.row(column).iter().enumerate() {
                    self.lu.a[i * n + p] = g;
                }
            } else {
                let k = column - self.rows.m;
                for i in 0..n {
                    self.lu.a[i * n + p] = if i == k { self.artificial_sign[k] } else { 0.0 };
                }
            }
        }
        // The ratio test only admits pivots that keep `B` nonsingular, so a
        // singular factor means the input is numerically pathological.
        if !self.lu.factor() {
            return Err(LpError::IterationLimit);
        }
        self.y.copy_from_slice(self.c);
        self.lu.solve(&mut self.y);
        Ok(())
    }

    /// Computes the primal point and returns the entering row with the sign
    /// its multiplier moves in, or `None` when no row is violated.
    fn price(&mut self, phase: Phase, use_bland: bool) -> Option<(usize, f64)> {
        for p in 0..self.rows.n {
            self.x[p] = self.profit(self.basis[p], phase);
        }
        self.lu.solve_transposed(&mut self.x);
        let x_scale = self.x.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()));
        let rows = self.rows;
        // (row, violation, direction) of the best candidate so far.
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..rows.m {
            if self.in_basis[j] {
                continue;
            }
            let activity: f64 = rows.row(j).iter().zip(&self.x).map(|(g, x)| g * x).sum();
            let profit = self.profit(j, phase) - activity;
            let violation = if rows.free[j] { profit.abs() } else { profit };
            let tolerance = FEASIBILITY_TOL * (1.0 + rows.h[j].abs() + rows.norm[j] * x_scale);
            if violation <= tolerance {
                continue;
            }
            if use_bland {
                return Some((j, profit.signum()));
            }
            if best.is_none_or(|(_, most, _)| violation > most) {
                best = Some((j, violation, profit.signum()));
            }
        }
        best.map(|(j, _, direction)| (j, direction))
    }

    /// Returns the basis position that leaves when `entering`'s multiplier
    /// moves in `direction`, or `None` if nothing blocks it (a ray).
    ///
    /// Ties are broken by the smallest column index under Bland's rule and
    /// by the largest pivot magnitude (better conditioning) otherwise.
    fn ratio_test(
        &mut self,
        entering: usize,
        direction: f64,
        phase: Phase,
        use_bland: bool,
    ) -> Option<usize> {
        self.u.copy_from_slice(self.rows.row(entering));
        self.lu.solve(&mut self.u);
        let tolerance = PIVOT_TOL * self.u.iter().fold(0.0_f64, |acc, u| acc.max(u.abs()));
        let mut best: Option<(usize, f64, f64)> = None;
        for p in 0..self.rows.n {
            let column = self.basis[p];
            let artificial = column >= self.rows.m;
            if !artificial && self.rows.free[column] {
                continue;
            }
            let (pivot, value) = if artificial && phase == Phase::Two {
                (self.u[p].abs(), 0.0)
            } else {
                (direction * self.u[p], self.y[p].max(0.0))
            };
            if pivot <= tolerance {
                continue;
            }
            let ratio = value / pivot;
            let better = match best {
                None => true,
                Some((prev, best_ratio, best_pivot)) => {
                    let tie = FEASIBILITY_TOL * best_ratio;
                    ratio < best_ratio - tie
                        || (ratio <= best_ratio + tie
                            && if use_bland {
                                column < self.basis[prev]
                            } else {
                                pivot > best_pivot
                            })
                }
            };
            if better {
                best = Some((p, ratio, pivot));
            }
        }
        best.map(|(p, _, _)| p)
    }
}

/// LU factors of the `n × n` basis matrix with partial pivoting:
/// `P·B = L·U`.
struct Lu {
    n: usize,
    /// `B` before [`Lu::factor`]; afterwards `L` (strictly below the
    /// diagonal, unit diagonal implied) and `U` (on and above), row-major.
    a: Vec<f64>,
    /// Row `i` of `P·B` is row `perm[i]` of `B`.
    perm: Vec<usize>,
    work: Vec<f64>,
}

impl Lu {
    fn new(n: usize) -> Self {
        Lu {
            n,
            a: vec![0.0; n * n],
            perm: vec![0; n],
            work: vec![0.0; n],
        }
    }

    /// Factors `a` in place; `false` if it is singular.
    fn factor(&mut self) -> bool {
        let n = self.n;
        let a = &mut self.a;
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        for k in 0..n {
            let pivot_row = (k..n)
                .max_by(|&i, &j| a[i * n + k].abs().total_cmp(&a[j * n + k].abs()))
                .expect("k < n");
            if a[pivot_row * n + k] == 0.0 {
                return false;
            }
            if pivot_row != k {
                for j in 0..n {
                    a.swap(k * n + j, pivot_row * n + j);
                }
                self.perm.swap(k, pivot_row);
            }
            let pivot = a[k * n + k];
            for i in k + 1..n {
                let factor = a[i * n + k] / pivot;
                a[i * n + k] = factor;
                for j in k + 1..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
            }
        }
        true
    }

    /// Overwrites `b` with the solution `z` of `B·z = b`.
    fn solve(&mut self, b: &mut [f64]) {
        let (n, a, w) = (self.n, &self.a, &mut self.work);
        for i in 0..n {
            w[i] = b[self.perm[i]];
        }
        for i in 0..n {
            for j in 0..i {
                w[i] -= a[i * n + j] * w[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                w[i] -= a[i * n + j] * w[j];
            }
            w[i] /= a[i * n + i];
        }
        b.copy_from_slice(w);
    }

    /// Overwrites `b` with the solution `z` of `Bᵀ·z = b`.
    fn solve_transposed(&mut self, b: &mut [f64]) {
        let (n, a, w) = (self.n, &self.a, &mut self.work);
        for i in 0..n {
            w[i] = b[i];
            for j in 0..i {
                w[i] -= a[j * n + i] * w[j];
            }
            w[i] /= a[i * n + i];
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                w[i] -= a[j * n + i] * w[j];
            }
        }
        for i in 0..n {
            b[self.perm[i]] = w[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn solve_lp(
        num_vars: usize,
        objective: &[f64],
        constraints: &[(&[f64], Comparison, f64)],
    ) -> Result<LpSolution, LpError> {
        let mut lp = LpProblem::new(num_vars);
        lp.set_objective(objective);
        for (coeffs, cmp, rhs) in constraints {
            lp.add_constraint(coeffs, *cmp, *rhs);
        }
        lp.solve()
    }

    #[test]
    fn textbook_maximization() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
        // optimum 36 at (2, 6).  We minimize the negated objective.
        let sol = solve_lp(
            2,
            &[-3.0, -5.0],
            &[
                (&[1.0, 0.0], Comparison::Le, 4.0),
                (&[0.0, 2.0], Comparison::Le, 12.0),
                (&[3.0, 2.0], Comparison::Le, 18.0),
                (&[1.0, 0.0], Comparison::Ge, 0.0),
                (&[0.0, 1.0], Comparison::Ge, 0.0),
            ],
        )
        .unwrap();
        assert!((sol.objective() + 36.0).abs() < 1e-7, "{sol:?}");
        assert!((sol.values()[0] - 2.0).abs() < 1e-7);
        assert!((sol.values()[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + y = 10, x - y = 2 -> unique point (6, 4).
        let sol = solve_lp(
            2,
            &[1.0, 1.0],
            &[
                (&[1.0, 1.0], Comparison::Eq, 10.0),
                (&[1.0, -1.0], Comparison::Eq, 2.0),
            ],
        )
        .unwrap();
        assert!((sol.values()[0] - 6.0).abs() < 1e-7);
        assert!((sol.values()[1] - 4.0).abs() < 1e-7);
        assert!((sol.objective() - 10.0).abs() < 1e-7);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // minimize x s.t. x >= -5 -> optimum -5.
        let sol = solve_lp(1, &[1.0], &[(&[1.0], Comparison::Ge, -5.0)]).unwrap();
        assert!((sol.values()[0] + 5.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_problem_detected() {
        let err = solve_lp(
            1,
            &[1.0],
            &[(&[1.0], Comparison::Ge, 5.0), (&[1.0], Comparison::Le, 1.0)],
        )
        .unwrap_err();
        assert_eq!(err, LpError::Infeasible);
    }

    #[test]
    fn unbounded_problem_detected() {
        let err = solve_lp(1, &[-1.0], &[(&[1.0], Comparison::Ge, 0.0)]).unwrap_err();
        assert_eq!(err, LpError::Unbounded);
        // No constraints with a nonzero objective is unbounded as well.
        let err = solve_lp(1, &[1.0], &[]).unwrap_err();
        assert_eq!(err, LpError::Unbounded);
        // No constraints with a zero objective is trivially optimal at 0.
        let sol = solve_lp(2, &[0.0, 0.0], &[]).unwrap();
        assert_eq!(sol.values(), &[0.0, 0.0]);
    }

    #[test]
    fn tiny_objective_unboundedness_is_still_detected() {
        // minimize -1e-7·x subject to x >= 0: genuinely unbounded even though
        // every reduced cost is far below the absolute noise tolerance — the
        // unboundedness test must scale with the objective magnitude.
        let err = solve_lp(1, &[-1e-7], &[(&[1.0], Comparison::Ge, 0.0)]).unwrap_err();
        assert_eq!(err, LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // minimize x + y s.t. -x - y <= -4  (i.e. x + y >= 4), x,y >= 0.
        let sol = solve_lp(
            2,
            &[1.0, 1.0],
            &[
                (&[-1.0, -1.0], Comparison::Le, -4.0),
                (&[1.0, 0.0], Comparison::Ge, 0.0),
                (&[0.0, 1.0], Comparison::Ge, 0.0),
            ],
        )
        .unwrap();
        assert!((sol.objective() - 4.0).abs() < 1e-7);
    }

    #[test]
    fn feasibility_problem_with_zero_objective() {
        // Any point with x >= 1, x <= 3 works; check that the returned point
        // is feasible rather than a specific vertex.
        let mut lp = LpProblem::new(1);
        lp.add_constraint(&[1.0], Comparison::Ge, 1.0);
        lp.add_constraint(&[1.0], Comparison::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert!(lp.is_feasible(sol.values(), 1e-7), "{sol:?}");
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; Bland's rule must avoid cycling.
        let sol = solve_lp(
            4,
            &[-0.75, 150.0, -0.02, 6.0],
            &[
                (&[0.25, -60.0, -0.04, 9.0], Comparison::Le, 0.0),
                (&[0.5, -90.0, -0.02, 3.0], Comparison::Le, 0.0),
                (&[0.0, 0.0, 1.0, 0.0], Comparison::Le, 1.0),
                (&[1.0, 0.0, 0.0, 0.0], Comparison::Ge, 0.0),
                (&[0.0, 1.0, 0.0, 0.0], Comparison::Ge, 0.0),
                (&[0.0, 0.0, 1.0, 0.0], Comparison::Ge, 0.0),
                (&[0.0, 0.0, 0.0, 1.0], Comparison::Ge, 0.0),
            ],
        )
        .unwrap();
        assert!((sol.objective() + 0.05).abs() < 1e-6, "{sol:?}");
    }

    #[test]
    fn barrier_style_feasibility_lp() {
        // Miniature of the generator-function LP: find p11, p22, c such that
        // W(x) = p11*x1^2 + p22*x2^2 + c is positive at sample points and
        // decreases between consecutive samples.  Samples from a contracting
        // trajectory x_{k+1} = 0.9 x_k starting at (1, 1).
        let samples = [(1.0, 1.0), (0.9, 0.9), (0.81, 0.81), (0.729, 0.729)];
        let mut lp = LpProblem::new(3);
        lp.set_objective(&[0.0, 0.0, 0.0]);
        // Positivity: W(x_k) >= 0.1
        for &(x1, x2) in &samples {
            lp.add_constraint(&[x1 * x1, x2 * x2, 1.0], Comparison::Ge, 0.1);
        }
        // Decrease: W(x_{k+1}) - W(x_k) <= -0.01
        for w in samples.windows(2) {
            let (a1, a2) = w[0];
            let (b1, b2) = w[1];
            lp.add_constraint(
                &[b1 * b1 - a1 * a1, b2 * b2 - a2 * a2, 0.0],
                Comparison::Le,
                -0.01,
            );
        }
        // Normalization to keep the solution bounded.
        lp.add_constraint(&[1.0, 1.0, 0.0], Comparison::Eq, 2.0);
        lp.add_constraint(&[0.0, 0.0, 1.0], Comparison::Le, 10.0);
        lp.add_constraint(&[0.0, 0.0, 1.0], Comparison::Ge, -10.0);
        let sol = lp.solve().unwrap();
        assert!(lp.is_feasible(sol.values(), 1e-6), "{sol:?}");
        // The found W must indeed decrease along the samples.
        let w = |p: &[f64], x1: f64, x2: f64| p[0] * x1 * x1 + p[1] * x2 * x2 + p[2];
        for win in samples.windows(2) {
            let before = w(sol.values(), win[0].0, win[0].1);
            let after = w(sol.values(), win[1].0, win[1].1);
            assert!(after < before);
        }
    }

    /// A trace-style LP built around the known feasible point
    /// w = (0.02, 0.01, 0.13, 0, 0, 0.01, t=0): 400 positivity rows and 400
    /// decrease rows, all loose at w, plus one normalization equality.
    fn large_trace_lp() -> LpProblem {
        let w = [0.02, 0.01, 0.13, 0.0, 0.0, 0.01, 0.0];
        let eval =
            |coeffs: &[f64]| -> f64 { coeffs.iter().zip(w.iter()).map(|(a, b)| a * b).sum() };
        let mut lp = LpProblem::new(7);
        lp.set_objective(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]);
        for k in 0..400 {
            let t = k as f64 / 400.0;
            let x = 4.5 * (1.0 - 0.8 * t) * (7.0 * t).cos();
            let y = 1.5 * (1.0 - 0.8 * t) * (7.0 * t).sin();
            let pos = [x * x, x * y, y * y, x, y, 1.0, 0.0];
            // Positivity row, guaranteed loose at the feasible point.
            lp.add_constraint(&pos, Comparison::Ge, eval(&pos) - 0.1);
            // Decrease row toward a contracted point, again loose at w.
            let (nx, ny) = (0.97 * x, 0.96 * y);
            let dec = [
                nx * nx - x * x,
                nx * ny - x * y,
                ny * ny - y * y,
                nx - x,
                ny - y,
                0.0,
                0.01,
            ];
            lp.add_constraint(&dec, Comparison::Le, eval(&dec) + 0.1);
        }
        let norm = [25.0, 7.8, 2.4, 5.0, 1.56, 1.0, 0.0];
        lp.add_constraint(&norm, Comparison::Eq, eval(&norm));
        lp
    }

    /// The generator-function-shaped LP of the `substrate/lp_solve/{rows}`
    /// bench: 7 variables, `rows` positivity and `rows` decrease rows along
    /// a contracting spiral, and one normalization equality.
    fn bench_lp(rows: usize) -> LpProblem {
        let mut lp = LpProblem::new(7);
        lp.set_objective(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]);
        for k in 0..rows {
            let t = k as f64 / rows as f64;
            let x = 4.0 * (1.0 - t) * (2.0 * std::f64::consts::PI * t).cos();
            let y = 1.4 * (1.0 - t) * (2.0 * std::f64::consts::PI * t).sin();
            lp.add_constraint(&[x * x, x * y, y * y, x, y, 1.0, 0.0], Comparison::Ge, 1e-6);
            let (nx, ny) = (0.98 * x, 0.97 * y);
            lp.add_constraint(
                &[
                    nx * nx - x * x,
                    nx * ny - x * y,
                    ny * ny - y * y,
                    nx - x,
                    ny - y,
                    0.0,
                    0.05,
                ],
                Comparison::Le,
                -1e-6,
            );
        }
        lp.add_constraint(&[25.0, 7.8, 2.4, 5.0, 1.56, 1.0, 0.0], Comparison::Eq, 1.0);
        lp
    }

    /// Asserts that `optimum` is certified optimal for `lp`: the point is
    /// feasible, the multipliers have the signs of their rows and satisfy
    /// `Σ y_i a_i = c`, and the primal and dual objectives agree.
    fn assert_certified(lp: &LpProblem, optimum: &Optimum) {
        let x = optimum.solution.values();
        let x_scale = x.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
        for (i, row) in lp.constraints().iter().enumerate() {
            let activity: f64 = row.coefficients.iter().zip(x).map(|(a, v)| a * v).sum();
            let violation = match row.comparison {
                Comparison::Le => activity - row.rhs,
                Comparison::Ge => row.rhs - activity,
                Comparison::Eq => (activity - row.rhs).abs(),
            };
            let scale = 1.0
                + row.rhs.abs()
                + row
                    .coefficients
                    .iter()
                    .zip(x)
                    .map(|(a, v)| (a * v).abs())
                    .sum::<f64>();
            assert!(
                violation <= 1e-7 * scale,
                "row {i} violated by {violation:e}"
            );
        }
        let c = lp.objective();
        let y_scale = optimum
            .duals
            .iter()
            .fold(1.0_f64, |acc, &(_, y)| acc.max(y.abs()));
        let mut residual = c.to_vec();
        let mut dual_objective = 0.0;
        let mut scale = 1.0 + c.iter().map(|v| v.abs()).sum::<f64>() * (1.0 + x_scale);
        for &(i, y) in &optimum.duals {
            let row = &lp.constraints()[i];
            match row.comparison {
                Comparison::Ge => assert!(y >= -1e-9 * y_scale, "row {i}: y = {y:e}"),
                Comparison::Le => assert!(y <= 1e-9 * y_scale, "row {i}: y = {y:e}"),
                Comparison::Eq => {}
            }
            for (r, a) in residual.iter_mut().zip(&row.coefficients) {
                *r -= y * a;
            }
            dual_objective += y * row.rhs;
            let norm: f64 = row.coefficients.iter().map(|a| a.abs()).sum();
            scale += y.abs() * (row.rhs.abs() + norm * (1.0 + x_scale));
        }
        let stationarity = residual.iter().fold(0.0_f64, |acc, r| acc.max(r.abs()));
        assert!(stationarity <= 1e-7 * scale, "Σ y_i a_i - c = {residual:?}");
        let gap = (optimum.solution.objective() - dual_objective).abs();
        assert!(gap <= 1e-7 * scale, "duality gap {gap:e}");
    }

    #[test]
    fn large_trace_style_lp_is_not_misreported_as_infeasible() {
        // Regression test: with several hundred positivity/decrease rows the
        // accumulated pivot error of an incrementally updated tableau once
        // made the solver report `Infeasible` for this feasible LP.
        let lp = large_trace_lp();
        let solution = lp.solve().expect("the constructed LP is feasible");
        assert!(lp.is_feasible(solution.values(), 1e-5));
    }

    #[test]
    fn maximizing_a_margin_variable_prefers_larger_margins() {
        // minimize -t subject to  x + t <= 5, x >= 1, 0 <= t <= 10.
        // Optimal t = 4 at x = 1.
        let sol = solve_lp(
            2,
            &[0.0, -1.0],
            &[
                (&[1.0, 1.0], Comparison::Le, 5.0),
                (&[1.0, 0.0], Comparison::Ge, 1.0),
                (&[0.0, 1.0], Comparison::Ge, 0.0),
                (&[0.0, 1.0], Comparison::Le, 10.0),
            ],
        )
        .unwrap();
        assert!((sol.values()[1] - 4.0).abs() < 1e-6, "{sol:?}");
    }

    /// The pinned LPs with their optimal objectives, recorded with the dense
    /// two-phase tableau simplex this solver replaced, and their pivot
    /// counts.
    fn pinned_lps() -> [(&'static str, LpProblem, f64, usize); 4] {
        [
            ("bench/100", bench_lp(100), -1.1676121772971355e-2, 55),
            ("bench/400", bench_lp(400), -2.5792357199131556e-3, 61),
            ("bench/800", bench_lp(800), -1.2500886889395247e-3, 69),
            ("large_trace", large_trace_lp(), -1.0022643926235599e1, 388),
        ]
    }

    #[test]
    fn pinned_lps_reach_the_recorded_optima_with_a_certificate() {
        for (name, lp, expected, _) in pinned_lps() {
            let optimum = solve_counted(&lp, &mut 0).expect(name);
            assert_certified(&lp, &optimum);
            let objective = optimum.solution.objective();
            assert!(
                (objective - expected).abs() <= 1e-7 * expected.abs(),
                "{name}: {objective:e} vs recorded {expected:e}"
            );
        }
    }

    #[test]
    fn pinned_lps_take_a_pinned_number_of_pivots() {
        // The pivot count is the solver's deterministic work counter: a
        // pricing or ratio-test change that multiplies it fails here
        // instead of hiding in timing noise.
        for (name, lp, _, expected) in pinned_lps() {
            let mut pivots = 0;
            solve_counted(&lp, &mut pivots).expect(name);
            assert_eq!(pivots, expected, "{name}");
        }
    }

    /// A splitmix64 stream: the random LPs below are a pure function of
    /// the sampled seed.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, k: usize) -> usize {
            (self.next() % k as u64) as usize
        }

        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random LP over `n` variables inside the box `|x_k| <= 4`, with `m`
    /// further rows: fresh sparse rows (many of them active at one common
    /// point, so the optimum is degenerate), exact duplicates, scaled and
    /// negated copies, and a few equalities.  When `infeasible`, one extra
    /// row no point of the box satisfies is added.
    fn random_bounded_lp(n: usize, m: usize, seed: u64, infeasible: bool) -> LpProblem {
        let mut rng = Stream(seed);
        let point: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut lp = LpProblem::new(n);
        if rng.below(10) > 0 {
            let objective: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.below(4) == 0 {
                        0.0
                    } else {
                        rng.uniform(-1.0, 1.0)
                    }
                })
                .collect();
            lp.set_objective(&objective);
        }
        for k in 0..n {
            let mut unit = vec![0.0; n];
            unit[k] = 1.0;
            lp.add_constraint(&unit, Comparison::Le, 4.0);
            lp.add_constraint(&unit, Comparison::Ge, -4.0);
        }
        let mut fresh: Vec<(Vec<f64>, Comparison, f64)> = Vec::new();
        let mut equalities = 0;
        for _ in 0..m {
            let kind = rng.below(8);
            let (row, comparison, rhs) = match (kind, fresh.len()) {
                (0, len) if len > 0 => fresh[rng.below(len)].clone(),
                (1, len) if len > 0 => {
                    let (row, comparison, rhs) = fresh[rng.below(len)].clone();
                    let factor = rng.uniform(0.5, 3.0);
                    let scaled: Vec<f64> = row.iter().map(|a| -factor * a).collect();
                    let flipped = match comparison {
                        Comparison::Le => Comparison::Ge,
                        Comparison::Ge => Comparison::Le,
                        Comparison::Eq => Comparison::Eq,
                    };
                    (scaled, flipped, -factor * rhs)
                }
                _ => {
                    let row: Vec<f64> = (0..n)
                        .map(|_| {
                            if rng.below(3) == 0 {
                                0.0
                            } else {
                                rng.uniform(-2.0, 2.0)
                            }
                        })
                        .collect();
                    let at_point: f64 = row.iter().zip(&point).map(|(a, x)| a * x).sum();
                    let slack = if rng.below(5) < 2 {
                        0.0
                    } else {
                        rng.uniform(0.0, 1.0)
                    };
                    let entry = if equalities + 1 < n && rng.below(20) == 0 {
                        equalities += 1;
                        (row, Comparison::Eq, at_point)
                    } else if rng.below(2) == 0 {
                        (row, Comparison::Ge, at_point - slack)
                    } else {
                        (row, Comparison::Le, at_point + slack)
                    };
                    fresh.push(entry.clone());
                    entry
                }
            };
            lp.add_constraint(&row, comparison, rhs);
        }
        if infeasible {
            let row: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let reach: f64 = row.iter().map(|a| 4.0 * a.abs()).sum();
            lp.add_constraint(&row, Comparison::Ge, reach + 1.0);
        }
        lp
    }

    proptest! {
        #[test]
        fn prop_bounded_lps_are_solved_with_an_optimality_certificate(
            n in 2usize..9,
            m in 0usize..401,
            seed in 0usize..1_000_000_000,
        ) {
            // Every LP is bounded by its box and feasible at the point its
            // rows are built around, unless a box-excluding row was added.
            let infeasible = seed % 7 == 0;
            let lp = random_bounded_lp(n, m, seed as u64, infeasible);
            let result = solve_counted(&lp, &mut 0);
            if infeasible {
                prop_assert!(
                    matches!(result, Err(LpError::Infeasible)),
                    "n {n}, m {m}, seed {seed}: {:?}",
                    result.map(|o| o.solution)
                );
            } else {
                match result {
                    Ok(optimum) => assert_certified(&lp, &optimum),
                    Err(e) => prop_assert!(false, "n {n}, m {m}, seed {seed}: {e}"),
                }
            }
        }

        #[test]
        fn prop_lps_built_around_a_known_point_are_feasible(
            seed_rows in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0), 5..60),
            point in (-1.5f64..1.5, -1.5f64..1.5, -1.5f64..1.5),
        ) {
            // Every row is of the form a·x ⋈ b with b chosen so the fixed
            // point satisfies it with slack; the solver must never report
            // infeasibility, and its solution must satisfy every row.
            let fixed = [point.0, point.1, point.2];
            let mut lp = LpProblem::new(3);
            for (i, (a0, a1, a2)) in seed_rows.iter().enumerate() {
                let row = [*a0, *a1, *a2];
                let value: f64 = row.iter().zip(fixed.iter()).map(|(a, b)| a * b).sum();
                if i % 2 == 0 {
                    lp.add_constraint(&row, Comparison::Ge, value - 0.5);
                } else {
                    lp.add_constraint(&row, Comparison::Le, value + 0.5);
                }
            }
            let solution = lp.solve();
            prop_assert!(solution.is_ok(), "spurious infeasibility: {solution:?}");
            prop_assert!(lp.is_feasible(solution.unwrap().values(), 1e-6));
        }

        #[test]
        fn prop_solution_is_feasible_and_not_worse_than_feasible_points(
            c0 in -2.0f64..2.0, c1 in -2.0f64..2.0,
            b0 in 1.0f64..5.0, b1 in 1.0f64..5.0,
        ) {
            // minimize c·x over the box 0 <= x <= b (encoded with Ge/Le rows).
            let mut lp = LpProblem::new(2);
            lp.set_objective(&[c0, c1]);
            lp.add_constraint(&[1.0, 0.0], Comparison::Ge, 0.0);
            lp.add_constraint(&[0.0, 1.0], Comparison::Ge, 0.0);
            lp.add_constraint(&[1.0, 0.0], Comparison::Le, b0);
            lp.add_constraint(&[0.0, 1.0], Comparison::Le, b1);
            let sol = lp.solve().unwrap();
            prop_assert!(lp.is_feasible(sol.values(), 1e-6));
            // The optimum of a linear objective over a box is attained at a
            // corner; check against all four corners.
            let corners = [(0.0, 0.0), (b0, 0.0), (0.0, b1), (b0, b1)];
            let best = corners
                .iter()
                .map(|&(x, y)| c0 * x + c1 * y)
                .fold(f64::INFINITY, f64::min);
            prop_assert!(sol.objective() <= best + 1e-6);
        }
    }
}
