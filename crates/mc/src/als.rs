//! Alternating least squares for the regularized factorization problem.
//!
//! Each ALS half-step solves, per row (resp. column), the exact ridge
//! sub-problem of objective (9)/(13) with the other factor fixed — so the
//! objective is monotonically non-increasing, which the tests verify. Rows
//! and columns are independent within a half-step and are solved in
//! parallel through the persistent `fedval_runtime` pool (see
//! `crate::parallel`), eliminating the per-sweep thread-spawn overhead
//! the old scoped-thread implementation paid.

use crate::completer::{check_finite, Completion, CompletionError, MatrixCompleter, SolveHooks};
use crate::factors::Factors;
use crate::parallel::pooled_rows_init;
use crate::problem::CompletionProblem;
use fedval_linalg::{cholesky, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// ALS configuration.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Factor rank `r`.
    pub rank: usize,
    /// Regularization `λ` (must be positive — it also guarantees the ridge
    /// systems are well-posed).
    pub lambda: f64,
    /// Maximum full sweeps.
    pub max_iters: usize,
    /// Stop when the relative objective improvement falls below this.
    pub tol: f64,
    /// Seed for the random initialization.
    pub seed: u64,
}

impl AlsConfig {
    /// A sensible default for the paper's utility matrices.
    pub fn new(rank: usize) -> Self {
        AlsConfig {
            rank,
            lambda: 0.1,
            max_iters: 50,
            tol: 1e-8,
            seed: 0,
        }
    }

    /// Builder-style override of `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl MatrixCompleter for AlsConfig {
    fn name(&self) -> &'static str {
        "als"
    }

    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError> {
        if self.rank == 0 {
            return Err(CompletionError::InvalidRank);
        }
        if self.lambda.is_nan() || self.lambda <= 0.0 {
            // The ridge sub-solves need λ > 0 to stay SPD.
            return Err(CompletionError::InvalidLambda {
                lambda: self.lambda,
            });
        }
        let (factors, trace) = run_als(problem, self, hooks)?;
        check_finite(self.name(), factors, trace)
    }
}

/// The ALS iteration itself; configuration validity is the caller's
/// responsibility ([`MatrixCompleter::complete`] checks it).
fn run_als(
    problem: &CompletionProblem,
    config: &AlsConfig,
    mut hooks: SolveHooks<'_>,
) -> Result<(Factors, Vec<f64>), CompletionError> {
    let t = problem.num_rows();
    let c = problem.num_cols();
    let r = config.rank;

    // Small random init, scaled so initial predictions have the magnitude
    // of the observed values.
    let scale = {
        let mean_abs = if problem.num_observations() == 0 {
            1.0
        } else {
            problem
                .entries()
                .iter()
                .map(|&(_, _, v)| v.abs())
                .sum::<f64>()
                / problem.num_observations() as f64
        };
        (mean_abs.max(1e-6) / r as f64).sqrt()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut factors = Factors {
        w: Matrix::from_fn(t, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
        h: Matrix::from_fn(c, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
    };

    let mut objective_trace = vec![factors.objective(problem, config.lambda)];
    for sweep in 0..config.max_iters {
        hooks.check()?;
        half_step_rows(problem, &mut factors, config.lambda);
        half_step_cols(problem, &mut factors, config.lambda);
        let obj = factors.objective(problem, config.lambda);
        let prev = *objective_trace.last().expect("non-empty");
        objective_trace.push(obj);
        hooks.sweep(sweep + 1, obj);
        if prev - obj <= config.tol * prev.abs().max(1e-12) {
            break;
        }
    }
    Ok((factors, objective_trace))
}

/// Per-worker buffers for the ridge sub-solves of one half-step: the
/// gathered design matrix and right-hand side, plus the Gram/Cholesky
/// scratch. Reused across every row a worker handles — the half-steps
/// used to allocate all four per sub-solve.
#[derive(Default)]
struct RowScratch {
    design: Matrix,
    rhs: Vec<f64>,
    ridge: cholesky::RidgeScratch,
}

/// Solves every row of `W` given fixed `H`.
fn half_step_rows(problem: &CompletionProblem, factors: &mut Factors, lambda: f64) {
    let r = factors.rank();
    let h = factors.h.clone();
    pooled_rows_init(
        factors.w.as_mut_slice(),
        r,
        RowScratch::default,
        |scratch, row, out| {
            let entry_ids = problem.row_entries(row);
            solve_one(problem, &h, entry_ids, lambda, Side::Row, scratch, out);
        },
    );
}

/// Solves every row of `H` given fixed `W`.
fn half_step_cols(problem: &CompletionProblem, factors: &mut Factors, lambda: f64) {
    let r = factors.rank();
    let w = factors.w.clone();
    pooled_rows_init(
        factors.h.as_mut_slice(),
        r,
        RowScratch::default,
        |scratch, col, out| {
            let entry_ids = problem.col_entries(col);
            solve_one(problem, &w, entry_ids, lambda, Side::Col, scratch, out);
        },
    );
}

enum Side {
    Row,
    Col,
}

/// Ridge-solves one factor row against its observed entries, assembling
/// the normal equations through the blocked
/// [`gemm`](fedval_linalg::gemm) Gram kernel
/// ([`cholesky::ridge_solve_into`]). A row/column with no observations
/// is regularized to zero.
fn solve_one(
    problem: &CompletionProblem,
    other: &Matrix,
    entry_ids: &[usize],
    lambda: f64,
    side: Side,
    scratch: &mut RowScratch,
    out: &mut [f64],
) {
    if entry_ids.is_empty() {
        out.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let rank = other.cols();
    // Every design row is fully overwritten below; skip the zero-fill.
    scratch.design.resize_for_overwrite(entry_ids.len(), rank);
    scratch.rhs.clear();
    for (k, &eid) in entry_ids.iter().enumerate() {
        let (row, col, value) = problem.entries()[eid];
        let other_index = match side {
            Side::Row => col,
            Side::Col => row,
        };
        scratch
            .design
            .row_mut(k)
            .copy_from_slice(other.row(other_index));
        scratch.rhs.push(value);
    }
    cholesky::ridge_solve_into(
        &scratch.design,
        &scratch.rhs,
        lambda,
        out,
        &mut scratch.ridge,
    )
    .expect("ridge system is SPD for lambda > 0");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-API shorthand used throughout these tests.
    fn solve(problem: &CompletionProblem, config: &AlsConfig) -> (Factors, Vec<f64>) {
        let c = config.complete(problem).unwrap();
        (c.factors, c.objective_trace)
    }

    /// Builds a problem from a dense low-rank matrix with a random mask.
    fn masked_low_rank(
        t: usize,
        c: usize,
        rank: usize,
        keep: f64,
        seed: u64,
    ) -> (CompletionProblem, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::from_fn(t, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let h = Matrix::from_fn(c, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let full = w.matmul_transpose(&h).unwrap();
        let mut p = CompletionProblem::new(t);
        // Ensure every column is seen at least once (Assumption 1 analogue):
        // row 0 observes everything.
        for j in 0..c {
            p.add_observation(0, j as u64, full.get(0, j));
        }
        for i in 1..t {
            for j in 0..c {
                if rng.random::<f64>() < keep {
                    p.add_observation(i, j as u64, full.get(i, j));
                }
            }
        }
        (p, full)
    }

    #[test]
    fn objective_is_monotone_nonincreasing() {
        let (p, _) = masked_low_rank(12, 16, 3, 0.4, 1);
        let (_, trace) = solve(&p, &AlsConfig::new(3).with_lambda(0.05));
        for w in trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_low_rank_matrix_from_partial_observations() {
        let (p, full) = masked_low_rank(20, 24, 2, 0.5, 3);
        let (factors, _) = solve(&p, &AlsConfig::new(2).with_lambda(1e-3).with_max_iters(200));
        let rec = factors.complete();
        let rel = rec.sub(&full).unwrap().frobenius_norm() / full.frobenius_norm();
        assert!(rel < 0.05, "relative recovery error {rel}");
    }

    #[test]
    fn observed_entries_fit_tightly() {
        let (p, _) = masked_low_rank(10, 12, 2, 0.6, 5);
        let (factors, _) = solve(&p, &AlsConfig::new(3).with_lambda(1e-4));
        assert!(factors.observed_rmse(&p) < 1e-2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, _) = masked_low_rank(8, 10, 2, 0.5, 7);
        let cfg = AlsConfig::new(2).with_seed(11);
        let (f1, _) = solve(&p, &cfg);
        let (f2, _) = solve(&p, &cfg);
        assert_eq!(f1.w.as_slice(), f2.w.as_slice());
        assert_eq!(f1.h.as_slice(), f2.h.as_slice());
    }

    #[test]
    fn unobserved_column_is_zero() {
        let mut p = CompletionProblem::new(4);
        p.add_observation(0, 1, 1.0);
        p.add_observation(1, 1, 1.0);
        let ghost = p.ensure_column(99);
        let (factors, _) = solve(&p, &AlsConfig::new(2));
        for v in factors.h.row(ghost) {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn higher_lambda_shrinks_factors() {
        let (p, _) = masked_low_rank(10, 10, 2, 0.7, 9);
        let (f_small, _) = solve(&p, &AlsConfig::new(2).with_lambda(1e-3));
        let (f_big, _) = solve(&p, &AlsConfig::new(2).with_lambda(10.0));
        let norm = |f: &Factors| f.w.frobenius_norm() + f.h.frobenius_norm();
        assert!(norm(&f_big) < norm(&f_small));
    }

    #[test]
    fn rank_one_problem_solved_by_rank_one_model() {
        // U = a bᵀ exactly; even with few observations ALS should fit the
        // observed entries nearly perfectly.
        let mut p = CompletionProblem::new(5);
        let a = [1.0, 2.0, -1.0, 0.5, 3.0];
        let b = [2.0, -1.0, 0.5, 1.5];
        for i in 0..5 {
            for j in 0..4 {
                if (i + j) % 2 == 0 || i == 0 {
                    p.add_observation(i, j as u64, a[i] * b[j]);
                }
            }
        }
        let (factors, _) = solve(&p, &AlsConfig::new(1).with_lambda(1e-5).with_max_iters(100));
        assert!(factors.observed_rmse(&p) < 1e-3);
    }

    #[test]
    fn rejects_zero_rank() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            AlsConfig::new(0).complete(&p),
            Err(CompletionError::InvalidRank)
        ));
    }

    #[test]
    fn rejects_zero_lambda() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            AlsConfig::new(1).with_lambda(0.0).complete(&p),
            Err(CompletionError::InvalidLambda { .. })
        ));
    }
}
