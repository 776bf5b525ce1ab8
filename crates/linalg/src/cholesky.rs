//! Cholesky factorization and SPD solves.
//!
//! The ALS solver for the paper's matrix-completion problem (13) repeatedly
//! solves small ridge systems `(AᵀA + λI) x = b` whose left-hand side is
//! symmetric positive definite with dimension equal to the factor rank
//! (≤ ~20). A dense Cholesky is the right tool: deterministic, fast, and
//! failure (loss of positive definiteness) is an informative error.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
}

impl CholeskyFactor {
    /// Factorizes a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let mut l = Matrix::zeros(n, n);
        factor_lower(a, &mut l)?;
        Ok(CholeskyFactor { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        solve_in_place(&self.l, &mut y);
        Ok(y)
    }
}

/// Writes the lower-triangular Cholesky factor of `a` into `l` (which
/// must already be `n × n`; only its lower triangle is written, and the
/// strict upper triangle is assumed zero — [`Matrix::resize`] and
/// [`Matrix::zeros`] both establish that).
fn factor_lower(a: &Matrix, l: &mut Matrix) -> Result<()> {
    let n = a.rows();
    for j in 0..n {
        let mut diag = a.get(j, j);
        for k in 0..j {
            let v = l.get(j, k);
            diag -= v * v;
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let d = diag.sqrt();
        l.set(j, j, d);
        let inv_d = 1.0 / d;
        for i in (j + 1)..n {
            let mut v = a.get(i, j);
            for k in 0..j {
                v -= l.get(i, k) * l.get(j, k);
            }
            l.set(i, j, v * inv_d);
        }
    }
    Ok(())
}

/// Forward/backward substitution `A x = b` with `A = L Lᵀ`, solving in
/// place over `y` (which holds `b` on entry, `x` on exit).
fn solve_in_place(l: &Matrix, y: &mut [f64]) {
    let n = l.rows();
    // Forward: L y = b.
    for i in 0..n {
        let mut v = y[i];
        for k in 0..i {
            v -= l.get(i, k) * y[k];
        }
        y[i] = v / l.get(i, i);
    }
    // Backward: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut v = y[i];
        for k in (i + 1)..n {
            v -= l.get(k, i) * y[k];
        }
        y[i] = v / l.get(i, i);
    }
}

/// Solves the ridge-regularized normal equations `(AᵀA + λI) x = Aᵀ b`.
///
/// This is the exact sub-problem of the ALS pass over problem (13): each row
/// of `W` (resp. `H`) is the ridge solution against the observed entries of
/// its row (resp. column). `λ` must be strictly positive, which also
/// guarantees positive definiteness regardless of `A`'s rank.
///
/// The ALS half-steps in `fedval_mc` solve these systems without
/// gathering `A`, sharing one factor between columns with equal
/// observation patterns; this direct form is the reference their
/// tests compare against bit for bit.
pub fn ridge_solve(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    if lambda <= 0.0 {
        return Err(LinalgError::InvalidDimension {
            what: "ridge lambda must be positive",
        });
    }
    if a.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let r = a.cols();
    // Normal equations AᵀA + λI, per element accumulated over `a`'s rows
    // in ascending order from +0.0, with λ added to the diagonal last.
    let mut gram = Matrix::zeros(r, r);
    let mut rhs = vec![0.0; r];
    for i in 0..a.rows() {
        let row = a.row(i);
        for p in 0..r {
            for q in 0..r {
                gram.set(p, q, gram.get(p, q) + row[p] * row[q]);
            }
        }
        // Right-hand side Aᵀ b, in the `matvec_transpose` order.
        crate::vector::axpy(b[i], row, &mut rhs);
    }
    for p in 0..r {
        gram.set(p, p, gram.get(p, p) + lambda);
    }
    let mut l = Matrix::zeros(r, r);
    factor_lower(&gram, &mut l)?;
    solve_in_place(&l, &mut rhs);
    Ok(rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn spd_example() -> Matrix {
        // A = Mᵀ M + I is SPD for any M.
        let m =
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]).unwrap();
        let mut a = m.transpose().matmul(&m).unwrap();
        for i in 0..3 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_example();
        let ch = CholeskyFactor::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        for (x, y) in rec.as_slice().iter().zip(a.as_slice()) {
            assert!(approx(*x, *y, 1e-10));
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_example();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = CholeskyFactor::new(&a).unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!(approx(*u, *v, 1e-9));
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(CholeskyFactor::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        match CholeskyFactor::new(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let ch = CholeskyFactor::new(&spd_example()).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn ridge_solution_satisfies_normal_equations() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0, 2.5, 4.0];
        let lambda = 0.1;
        let x = ridge_solve(&a, &b, lambda).unwrap();
        // Check (AᵀA + λI)x = Aᵀb directly.
        let ax = a.matvec(&x).unwrap();
        let residual_grad: Vec<f64> = {
            let atax = a.matvec_transpose(&ax).unwrap();
            let atb = a.matvec_transpose(&b).unwrap();
            (0..2).map(|i| atax[i] + lambda * x[i] - atb[i]).collect()
        };
        for g in residual_grad {
            assert!(approx(g, 0.0, 1e-9));
        }
    }

    #[test]
    fn ridge_handles_rank_deficient_design() {
        // Two identical columns: ordinary least squares is singular but
        // the ridge system must still solve.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ridge_solve(&a, &b, 1e-3).unwrap();
        // Symmetry of the problem forces x[0] == x[1].
        assert!(approx(x[0], x[1], 1e-9));
    }

    #[test]
    fn ridge_rejects_nonpositive_lambda() {
        let a = Matrix::zeros(2, 2);
        assert!(ridge_solve(&a, &[0.0, 0.0], 0.0).is_err());
        assert!(ridge_solve(&a, &[0.0, 0.0], -1.0).is_err());
    }
}
