//! Completed federated Shapley value (paper Definition 4 and equation (12)).
//!
//! Given completion factors `(W, H)`, the ComFedSV of client `i` is
//!
//! ```text
//! s_i = (1/N) Σ_t Σ_{S ⊆ I\{i}} [1 / C(N−1,|S|)] w_tᵀ (h_{S∪{i}} − h_S)
//! ```
//!
//! Because the round factor enters linearly, `Σ_t w_tᵀ x = (Σ_t w_t)ᵀ x`,
//! so both the exact sum and the Monte-Carlo estimator reduce to single
//! passes over subset *scores* `g(S) = (Σ_t w_t)ᵀ h_S`, which this module
//! precomputes.

use crate::coeffs::BinomialTable;
use fedval_fl::Subset;
use fedval_linalg::vector;
use fedval_mc::{CompletionProblem, Factors};
use std::collections::HashMap;

/// Precomputed subset scores `g(S) = (Σ_t w_t)ᵀ h_S` for every column
/// registered in the completion problem. Unregistered subsets score zero
/// (their factor row is pinned to zero by the regularizer).
#[derive(Debug, Clone)]
pub struct SubsetColumns {
    scores: HashMap<u64, f64>,
}

impl SubsetColumns {
    /// Builds the score table from solved factors and the problem that
    /// defined the column keys.
    pub fn new(factors: &Factors, problem: &CompletionProblem) -> Self {
        let v = factors.row_factor_sum();
        let mut scores = HashMap::with_capacity(problem.num_cols());
        for col in 0..problem.num_cols() {
            let key = problem.column_key(col);
            scores.insert(key, vector::dot(&v, factors.h.row(col)));
        }
        SubsetColumns { scores }
    }

    /// `g(S)`, zero for unregistered subsets.
    pub fn score(&self, s: Subset) -> f64 {
        self.scores.get(&s.bits()).copied().unwrap_or(0.0)
    }

    /// Number of registered subsets.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` when no subset is registered.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Exact ComFedSV over the full coalition space (Definition 4). Requires
/// `n ≤` [`MAX_EXACT_CLIENTS`](crate::MAX_EXACT_CLIENTS) (the same gate
/// as the exact-subsets pipeline); for larger cohorts use
/// [`comfedsv_monte_carlo`].
pub fn comfedsv_from_factors(factors: &Factors, problem: &CompletionProblem, n: usize) -> Vec<f64> {
    assert!(
        (1..=crate::MAX_EXACT_CLIENTS).contains(&n),
        "exact ComFedSV is exponential in N (max {})",
        crate::MAX_EXACT_CLIENTS
    );
    let columns = SubsetColumns::new(factors, problem);
    let table = BinomialTable::new(n);
    let full = Subset::full(n);
    let mut out = vec![0.0; n];
    for (i, out_i) in out.iter_mut().enumerate() {
        let others = full.without(i);
        let mut acc = 0.0;
        for s in others.subsets() {
            let weight = table.shapley_weight(n, s.len());
            acc += weight * (columns.score(s.with(i)) - columns.score(s));
        }
        *out_i = acc;
    }
    out
}

/// Monte-Carlo ComFedSV (equation (12)): permutation prefixes only.
///
/// `permutations` are the same `π_1 … π_M` used when building the reduced
/// completion problem (13); each must be a permutation of `0..n`.
pub fn comfedsv_monte_carlo(
    factors: &Factors,
    problem: &CompletionProblem,
    n: usize,
    permutations: &[Vec<usize>],
) -> Vec<f64> {
    assert!(!permutations.is_empty(), "need at least one permutation");
    let columns = SubsetColumns::new(factors, problem);
    let mut out = vec![0.0; n];
    let inv_m = 1.0 / permutations.len() as f64;
    for perm in permutations {
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut prefix = Subset::EMPTY;
        let mut prefix_score = columns.score(prefix); // = 0 by convention
        for &i in perm {
            let next = prefix.with(i);
            let next_score = columns.score(next);
            out[i] += (next_score - prefix_score) * inv_m;
            prefix = next;
            prefix_score = next_score;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_linalg::Matrix;

    /// Builds factors whose product is exactly a given utility matrix with
    /// columns = all subsets of `n` players, by "completing" a fully
    /// observed rank-revealing problem with rank = min(T, 2^n).
    ///
    /// Rather than run ALS here, the tests construct factors directly:
    /// W = I (T×T) and H's row for subset S holds the column of utilities,
    /// so that w_tᵀ h_S = U_t(S) exactly.
    fn exact_factors(
        utility: impl Fn(usize, Subset) -> f64,
        t: usize,
        n: usize,
    ) -> (Factors, CompletionProblem) {
        let cols = 1usize << n;
        let mut problem = CompletionProblem::new(t);
        for bits in 0..cols as u64 {
            problem.ensure_column(bits);
        }
        let w = Matrix::identity(t);
        let mut h = Matrix::zeros(cols, t);
        for bits in 0..cols as u64 {
            let s = Subset::from_bits(bits);
            let col = problem.column_index(bits).unwrap();
            for round in 0..t {
                h.set(col, round, utility(round, s));
            }
        }
        (Factors { w, h }, problem)
    }

    #[test]
    fn matches_classical_shapley_for_single_round_game() {
        // One round, utility = additive game: ComFedSV = per-player value.
        let c = [2.0, -1.0, 0.5];
        let (f, p) = exact_factors(|_t, s| s.members().iter().map(|&i| c[i]).sum::<f64>(), 1, 3);
        let v = comfedsv_from_factors(&f, &p, 3);
        for (vi, ci) in v.iter().zip(&c) {
            assert!((vi - ci).abs() < 1e-12, "{vi} vs {ci}");
        }
    }

    #[test]
    fn sums_over_rounds() {
        // Two identical additive rounds double every value.
        let c = [1.0, 3.0];
        let single = {
            let (f, p) =
                exact_factors(|_t, s| s.members().iter().map(|&i| c[i]).sum::<f64>(), 1, 2);
            comfedsv_from_factors(&f, &p, 2)
        };
        let double = {
            let (f, p) =
                exact_factors(|_t, s| s.members().iter().map(|&i| c[i]).sum::<f64>(), 2, 2);
            comfedsv_from_factors(&f, &p, 2)
        };
        for (d, s) in double.iter().zip(&single) {
            assert!((d - 2.0 * s).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetry_with_perfect_completion() {
        // Theorem 1 with δ = 0: symmetric players get identical values.
        let (f, p) = exact_factors(
            |_t, s| {
                // Utility symmetric in players 0 and 1.
                let k = s.len() as f64;
                k * k + f64::from(u8::from(s.contains(2))) * 0.7
            },
            3,
            3,
        );
        let v = comfedsv_from_factors(&f, &p, 3);
        assert!((v[0] - v[1]).abs() < 1e-12);
    }

    #[test]
    fn zero_element_with_perfect_completion() {
        // Player 1 contributes nothing.
        let (f, p) = exact_factors(|_t, s| s.without(1).len() as f64 * 2.0, 2, 2);
        let v = comfedsv_from_factors(&f, &p, 2);
        assert!(v[1].abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_with_all_permutations_is_exact() {
        let c = [0.5, 1.5, -0.5];
        let (f, p) = exact_factors(|_t, s| s.members().iter().map(|&i| c[i]).sum::<f64>(), 2, 3);
        let exact = comfedsv_from_factors(&f, &p, 3);
        // All 6 permutations of 3 players.
        let perms: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let mc = comfedsv_monte_carlo(&f, &p, 3, &perms);
        for (a, b) in exact.iter().zip(&mc) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn monte_carlo_telescopes_to_full_coalition_score() {
        // For each permutation the marginals telescope, so the sum of all
        // players' values equals g(I) (score of the full coalition).
        let (f, p) = exact_factors(|_t, s| (s.len() as f64).sqrt(), 2, 4);
        let perms = vec![vec![2, 0, 3, 1], vec![1, 3, 0, 2]];
        let mc = comfedsv_monte_carlo(&f, &p, 4, &perms);
        let columns = SubsetColumns::new(&f, &p);
        let total: f64 = mc.iter().sum();
        assert!((total - columns.score(Subset::full(4))).abs() < 1e-12);
    }

    #[test]
    fn unregistered_subsets_score_zero() {
        let mut p = CompletionProblem::new(1);
        p.add_observation(0, 0b01, 2.0);
        let f = Factors {
            w: Matrix::from_rows(&[&[1.0]]).unwrap(),
            h: Matrix::from_rows(&[&[2.0]]).unwrap(),
        };
        let cols = SubsetColumns::new(&f, &p);
        assert_eq!(cols.score(Subset::from_bits(0b01)), 2.0);
        assert_eq!(cols.score(Subset::from_bits(0b10)), 0.0);
        assert_eq!(cols.len(), 1);
        assert!(!cols.is_empty());
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn monte_carlo_rejects_bad_permutation() {
        let (f, p) = exact_factors(|_t, _s| 0.0, 1, 3);
        let _ = comfedsv_monte_carlo(&f, &p, 3, &[vec![0, 1]]);
    }
}
