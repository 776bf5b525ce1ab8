//! Alternating least squares for the regularized factorization problem.
//!
//! Each ALS half-step solves, per row (resp. column), the exact ridge
//! sub-problem of objective (9)/(13) with the other factor fixed — so the
//! objective is monotonically non-increasing, which the tests verify. Rows
//! and columns are independent within a half-step and are solved in
//! parallel through the persistent `fedval_runtime` pool (see
//! `crate::parallel`).
//!
//! # Shared factors, same bits
//!
//! Column `j`'s sub-problem is `(AⱼᵀAⱼ + λI) x = Aⱼᵀ bⱼ`, where row `k`
//! of `Aⱼ` is the row of `W` named by column `j`'s `k`-th entry. The
//! Gram matrix therefore depends only on that ordered list of row
//! indices, not on the observed values. Utility-matrix columns have ~2
//! entries each, so many columns share a list. Columns are grouped once
//! per solve by the exact ordered list, duplicates included. Two
//! columns of one group perform the same floating-point operations on
//! the same operands in the same order, so their Gram matrices and
//! Cholesky factors are equal bit for bit, and one factor per group per
//! half-step serves them all. Each column then forms only its
//! right-hand side and runs the two triangular solves.
//!
//! Every element keeps the arithmetic of the direct per-column solve
//! ([`fedval_linalg::cholesky::ridge_solve`]): the Gram element `(p, q)`
//! is accumulated from `+0.0` over the entries in order with the product
//! `x[p] · x[q]`, `λ` is added to the diagonal last, only the lower
//! triangle is assembled (the factorization reads nothing else), and the
//! factorization and substitutions repeat its scalar operation order. The
//! factorizations of four patterns, and the triangular solves of four
//! columns, run interleaved so their sqrt/division latency chains
//! overlap — that reorders instructions between independent systems,
//! never operations within one. A property test pins the factors to the per-column reference bit
//! for bit, and the repository's golden valuation file pins the
//! end-to-end values.

use crate::completer::{check_finite, Completion, CompletionError, MatrixCompleter, SolveHooks};
use crate::factors::Factors;
use crate::parallel::{pooled_row_chunks, pooled_rows_init};
use crate::problem::CompletionProblem;
use fedval_linalg::vector::axpy;
use fedval_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

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
    let r = config.rank;
    let mut factors = initial_factors(problem, config);
    let groups = ColumnGroups::new(problem);
    let mut col_factors = vec![0.0; groups.len() * r * r];
    let mut objective_trace = vec![factors.objective(problem, config.lambda)];
    for sweep in 0..config.max_iters {
        hooks.check()?;
        let Factors { w, h } = &mut factors;
        half_step_rows(problem, w, h, config.lambda);
        half_step_cols(problem, &groups, &mut col_factors, h, w, config.lambda);
        let obj = factors.objective(problem, config.lambda);
        let prev = *objective_trace.last().expect("non-empty");
        objective_trace.push(obj);
        hooks.sweep(sweep + 1, obj);
        if !obj.is_finite() || prev - obj <= config.tol * prev.abs().max(1e-12) {
            break;
        }
    }
    Ok((factors, objective_trace))
}

/// The seeded random starting point: small entries, scaled so initial
/// predictions have the magnitude of the observed values.
fn initial_factors(problem: &CompletionProblem, config: &AlsConfig) -> Factors {
    let t = problem.num_rows();
    let c = problem.num_cols();
    let r = config.rank;
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
    Factors {
        w: Matrix::from_fn(t, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
        h: Matrix::from_fn(c, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
    }
}

/// Columns grouped by their observation pattern: the ordered sequence
/// of row indices of their entries, duplicates included. Columns in one
/// group see the same rows of `W` in the same order, so their ridge
/// systems share one Gram matrix bit for bit and one Cholesky factor
/// serves them all. Built once per solve; the problem is immutable.
struct ColumnGroups {
    /// Group of each column; [`UNOBSERVED`] for a column with no
    /// entries (its factor row is the zero vector).
    group_of: Vec<usize>,
    /// Row indices of every group's pattern, concatenated.
    rows: Vec<usize>,
    /// `rows[starts[g]..starts[g + 1]]` is group `g`'s pattern.
    starts: Vec<usize>,
}

const UNOBSERVED: usize = usize::MAX;

impl ColumnGroups {
    fn new(problem: &CompletionProblem) -> Self {
        let mut index: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut groups = ColumnGroups {
            group_of: Vec::with_capacity(problem.num_cols()),
            rows: Vec::new(),
            starts: vec![0],
        };
        for col in 0..problem.num_cols() {
            let pattern: Vec<usize> = problem
                .col_entries(col)
                .iter()
                .map(|&eid| problem.entries()[eid].0)
                .collect();
            if pattern.is_empty() {
                groups.group_of.push(UNOBSERVED);
                continue;
            }
            let next = index.len();
            let group = *index.entry(pattern).or_insert_with_key(|pattern| {
                groups.rows.extend_from_slice(pattern);
                groups.starts.push(groups.rows.len());
                next
            });
            groups.group_of.push(group);
        }
        groups
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn pattern(&self, group: usize) -> &[usize] {
        &self.rows[self.starts[group]..self.starts[group + 1]]
    }
}

/// Solves every row of `W` given fixed `H`. Each row assembles the
/// lower triangle of its Gram matrix straight from the rows of `H` its
/// entries touch.
fn half_step_rows(problem: &CompletionProblem, w: &mut Matrix, h: &Matrix, lambda: f64) {
    let r = w.cols();
    pooled_rows_init(
        w.as_mut_slice(),
        r,
        || vec![0.0; r * r],
        |gram, row, out| {
            out.fill(0.0);
            let entry_ids = problem.row_entries(row);
            if entry_ids.is_empty() {
                return;
            }
            gram.fill(0.0);
            for &eid in entry_ids {
                let (_, col, value) = problem.entries()[eid];
                let x = h.row(col);
                accumulate_lower(gram, x, r);
                axpy(value, x, out);
            }
            add_ridge(gram, r, lambda);
            factor_lanes([&mut gram[..]], r);
            solve_lanes([&gram[..]], [out], r);
        },
    );
}

/// Solves every row of `H` given fixed `W`: one Cholesky factor per
/// observation pattern, then per column only its right-hand side and
/// the two triangular solves, [`LANES`] independent columns at a time.
fn half_step_cols(
    problem: &CompletionProblem,
    groups: &ColumnGroups,
    factors_buf: &mut [f64],
    h: &mut Matrix,
    w: &Matrix,
    lambda: f64,
) {
    let r = w.cols();
    for (group, g) in factors_buf.chunks_exact_mut(r * r).enumerate() {
        g.fill(0.0);
        for &row in groups.pattern(group) {
            accumulate_lower(g, w.row(row), r);
        }
        add_ridge(g, r, lambda);
    }
    let mut grams = factors_buf.chunks_exact_mut(r * r);
    for _ in 0..groups.len() / LANES {
        factor_lanes::<LANES>(std::array::from_fn(|_| grams.next().expect("full lane")), r);
    }
    for g in grams {
        factor_lanes([g], r);
    }
    let factors_buf = &*factors_buf;
    let l_of = |col: usize| {
        let g = groups.group_of[col];
        &factors_buf[g * r * r..(g + 1) * r * r]
    };
    pooled_row_chunks(h.as_mut_slice(), r, MIN_COLS_PER_WORKER, |start, chunk| {
        // Observed columns of this chunk, in order; unobserved ones are
        // regularized to zero.
        let mut pending: Vec<(usize, &mut [f64])> = Vec::with_capacity(LANES);
        for (local, out) in chunk.chunks_exact_mut(r).enumerate() {
            let col = start + local;
            out.fill(0.0);
            if groups.group_of[col] == UNOBSERVED {
                continue;
            }
            for &eid in problem.col_entries(col) {
                let (row, _, value) = problem.entries()[eid];
                axpy(value, w.row(row), out);
            }
            pending.push((col, out));
            if pending.len() == LANES {
                let mut lanes = pending.drain(..);
                let outs: [(usize, &mut [f64]); LANES] =
                    std::array::from_fn(|_| lanes.next().expect("LANES pending columns"));
                let ls = std::array::from_fn(|k| l_of(outs[k].0));
                solve_lanes(ls, outs.map(|(_, out)| out), r);
            }
        }
        for (col, out) in pending {
            solve_lanes([l_of(col)], [out], r);
        }
    });
}

/// Independent systems (pattern factorizations, column solves) run
/// interleaved, so their sqrt/division latency chains overlap.
const LANES: usize = 4;

/// Columns per worker below which the column solves stay on the calling
/// thread. A column costs only its right-hand side and two triangular
/// solves, several times less than a row's full ridge solve, so a split
/// needs more of them than the per-row threshold of `crate::parallel`
/// to repay the pool round trip: at rank 5, 255 columns took 23 µs per
/// sweep split over 2 workers and 18 µs inline (2-vCPU VM).
const MIN_COLS_PER_WORKER: usize = 256;

/// `g[p][q] += x[p] · x[q]` over the lower triangle `q ≤ p` of the
/// row-major `r × r` buffer `g` — per element the same product and the
/// same entry-ascending accumulation as the full Gram `AᵀA` of the
/// gathered design matrix.
#[inline]
fn accumulate_lower(g: &mut [f64], x: &[f64], r: usize) {
    for p in 0..r {
        let xp = x[p];
        for (gv, &xq) in g[p * r..p * r + p + 1].iter_mut().zip(&x[..=p]) {
            *gv += xp * xq;
        }
    }
}

/// Adds the ridge `λ` to the diagonal, after the Gram accumulation.
#[inline]
fn add_ridge(g: &mut [f64], r: usize, lambda: f64) {
    for p in 0..r {
        g[p * r + p] += lambda;
    }
}

/// In-place lower Cholesky factorization of `N` row-major `r × r`
/// buffers at once: on exit the lower triangle of `a[k]` holds `L` with
/// `A = L Lᵀ`. Reads only the lower triangle. Each lane performs exactly
/// the scalar operations of [`fedval_linalg::CholeskyFactor::new`] (each
/// element of `A` is read before its slot is overwritten by `L`); the
/// lane loop is innermost, so the `N` sqrt/division chains interleave.
#[inline]
fn factor_lanes<const N: usize>(a: [&mut [f64]; N], r: usize) {
    for j in 0..r {
        let mut diag: [f64; N] = std::array::from_fn(|k| a[k][j * r + j]);
        for m in 0..j {
            for k in 0..N {
                let v = a[k][j * r + m];
                diag[k] -= v * v;
            }
        }
        let mut inv_d = [0.0; N];
        for k in 0..N {
            // For λ > 0 the system is SPD in exact arithmetic; a pivot
            // that is not positive and finite means the Gram overflowed.
            // NaN poisons the solve, so the objective reports divergence.
            if !(diag[k] > 0.0 && diag[k].is_finite()) {
                diag[k] = f64::NAN;
            }
            let d = diag[k].sqrt();
            a[k][j * r + j] = d;
            inv_d[k] = 1.0 / d;
        }
        for i in (j + 1)..r {
            let mut v: [f64; N] = std::array::from_fn(|k| a[k][i * r + j]);
            for m in 0..j {
                for k in 0..N {
                    v[k] -= a[k][i * r + m] * a[k][j * r + m];
                }
            }
            for k in 0..N {
                a[k][i * r + j] = v[k] * inv_d[k];
            }
        }
    }
}

/// Forward then backward substitution `L Lᵀ x = b` for `N` independent
/// systems at once: lane `k` solves in place over `ys[k]` (holding `b`
/// on entry, `x` on exit) with the factor in `ls[k]`'s lower triangle.
/// The lane loop is innermost, so the `N` dependency chains interleave,
/// while each lane performs exactly the scalar operation order of
/// [`fedval_linalg::CholeskyFactor::solve`].
#[inline]
fn solve_lanes<const N: usize>(ls: [&[f64]; N], ys: [&mut [f64]; N], r: usize) {
    for i in 0..r {
        let mut v: [f64; N] = std::array::from_fn(|k| ys[k][i]);
        for j in 0..i {
            for k in 0..N {
                v[k] -= ls[k][i * r + j] * ys[k][j];
            }
        }
        for k in 0..N {
            ys[k][i] = v[k] / ls[k][i * r + i];
        }
    }
    for i in (0..r).rev() {
        let mut v: [f64; N] = std::array::from_fn(|k| ys[k][i]);
        for j in (i + 1)..r {
            for k in 0..N {
                v[k] -= ls[k][j * r + i] * ys[k][j];
            }
        }
        for k in 0..N {
            ys[k][i] = v[k] / ls[k][i * r + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_linalg::cholesky;
    use proptest::prelude::*;

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

    /// The pre-grouping ALS: every row and column ridge-solves its own
    /// gathered design matrix through [`cholesky::ridge_solve`], with
    /// the same init, sweep loop and stopping rule as [`run_als`].
    fn reference_als(problem: &CompletionProblem, config: &AlsConfig) -> Factors {
        fn solve_side(
            target: &mut Matrix,
            other: &Matrix,
            lambda: f64,
            entries_of: impl Fn(usize) -> Vec<(usize, f64)>,
        ) {
            for i in 0..target.rows() {
                let obs = entries_of(i);
                if obs.is_empty() {
                    target.row_mut(i).fill(0.0);
                    continue;
                }
                let design =
                    Matrix::from_fn(obs.len(), other.cols(), |k, p| other.get(obs[k].0, p));
                let rhs: Vec<f64> = obs.iter().map(|&(_, v)| v).collect();
                let x = cholesky::ridge_solve(&design, &rhs, lambda).unwrap();
                target.row_mut(i).copy_from_slice(&x);
            }
        }
        let mut f = initial_factors(problem, config);
        let mut prev = f.objective(problem, config.lambda);
        for _ in 0..config.max_iters {
            solve_side(&mut f.w, &f.h, config.lambda, |row| {
                problem
                    .row_entries(row)
                    .iter()
                    .map(|&e| (problem.entries()[e].1, problem.entries()[e].2))
                    .collect()
            });
            solve_side(&mut f.h, &f.w, config.lambda, |col| {
                problem
                    .col_entries(col)
                    .iter()
                    .map(|&e| (problem.entries()[e].0, problem.entries()[e].2))
                    .collect()
            });
            let obj = f.objective(problem, config.lambda);
            if prev - obj <= config.tol * prev.abs().max(1e-12) {
                break;
            }
            prev = obj;
        }
        f
    }

    /// A random sparse problem with the structure of the utility
    /// matrices: few observations per column, so many columns share a
    /// row pattern, plus duplicate observations of one cell and a few
    /// never-observed columns.
    fn random_sparse_problem(seed: u64, rows: usize, cols: usize) -> CompletionProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = CompletionProblem::new(rows);
        for j in 0..cols as u64 {
            if rng.random::<f64>() < 0.05 {
                p.ensure_column(j);
                continue;
            }
            let observations = 1 + (rng.random::<f64>() * 3.0) as usize;
            for _ in 0..observations {
                let row = (rng.random::<f64>() * rows as f64) as usize;
                let value = rng.random::<f64>() * 2.0 - 1.0;
                p.add_observation(row, j, value);
                if rng.random::<f64>() < 0.1 {
                    // A repeated measurement of the same cell.
                    p.add_observation(row, j, value + 0.25);
                }
            }
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn grouped_factors_match_per_column_ridge_solves_bitwise(
            seed in 0u64..1_000_000,
            rank in 1usize..9,
            rows in 2usize..9,
            extra_cols in 0usize..64,
        ) {
            // At least 2 × MIN_COLS_PER_WORKER columns, so the column
            // half-step takes the pooled path on a multi-worker pool.
            let cols = 2 * MIN_COLS_PER_WORKER + extra_cols;
            let problem = random_sparse_problem(seed, rows, cols);
            let config = AlsConfig::new(rank)
                .with_lambda(1e-3)
                .with_max_iters(6)
                .with_seed(seed);
            let (fast, _) = solve(&problem, &config);
            let slow = reference_als(&problem, &config);
            for (name, a, b) in [("W", &fast.w, &slow.w), ("H", &fast.h, &slow.h)] {
                for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                    prop_assert_eq!((name, k, x.to_bits()), (name, k, y.to_bits()));
                }
            }
        }
    }
}
