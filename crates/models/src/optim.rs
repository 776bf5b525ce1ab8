//! The local-update loop (full-batch or minibatch SGD) and the paper's
//! learning-rate schedules.

use crate::traits::Model;
use crate::workspace::Workspace;
use fedval_data::Dataset;
use fedval_linalg::vector;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// Learning-rate schedule `η_t` (t is the 0-based round index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningRate {
    /// Constant rate.
    Constant(f64),
    /// The schedule of Proposition 2: `η_t = 2 / (μ (γ + t))` with
    /// `γ = max(8 L₂ / μ, 1)` — non-increasing, as the theory requires.
    ///
    /// Note the paper's text writes `γ = max(8μ/L₂, 1)`, but the cited
    /// convergence result (Li et al., Theorem 1) and the decay analysis in
    /// Appendix D require `γ = max(8 L₂/μ, 1)`; we implement the latter and
    /// record the discrepancy in EXPERIMENTS.md.
    InverseDecay {
        /// Strong-convexity modulus `μ`.
        mu: f64,
        /// Offset `γ`.
        gamma: f64,
    },
}

impl LearningRate {
    /// Builds the Proposition-2 schedule from `μ` and smoothness `L₂`.
    pub fn proposition2(mu: f64, l2: f64) -> Self {
        assert!(mu > 0.0 && l2 > 0.0);
        LearningRate::InverseDecay {
            mu,
            gamma: (8.0 * l2 / mu).max(1.0),
        }
    }

    /// Rate at round `t` (0-based).
    pub fn at(&self, t: usize) -> f64 {
        match *self {
            LearningRate::Constant(eta) => eta,
            LearningRate::InverseDecay { mu, gamma } => 2.0 / (mu * (gamma + t as f64)),
        }
    }

    /// `true` when the schedule is non-increasing (required by
    /// Proposition 1). Both variants are, by construction.
    pub fn is_non_increasing(&self) -> bool {
        true
    }
}

/// Reusable buffers for [`minibatch_updates`]: the gradient vector, the
/// model's minibatch [`Workspace`], and the gathered-minibatch dataset.
/// One per trainer worker; a steady-state training loop allocates
/// nothing per step.
#[derive(Default)]
pub struct SgdScratch {
    grad: Vec<f64>,
    /// The model workspace, exposed so callers driving `loss_with`
    /// directly (benchmarks, evaluators) can share it.
    pub ws: Workspace,
    minibatch: Option<Dataset>,
}

impl SgdScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        SgdScratch::default()
    }
}

/// One gradient-descent step `w ← w − η ∇F(w)` on `data` through the
/// model's batched `grad_with` kernel and the scratch's workspace.
fn gradient_step(model: &mut dyn Model, data: &Dataset, eta: f64, scratch: &mut SgdScratch) {
    scratch.grad.resize(model.num_params(), 0.0);
    model.grad_with(data, &mut scratch.grad, &mut scratch.ws);
    vector::axpy(-eta, &scratch.grad, model.params_mut());
}

/// Runs `steps` local gradient steps — the paper's local update
/// (equation (3)) when `steps == 1`; the simulator supports more,
/// matching "an arbitrary number of local updates".
///
/// With `batch >= data.len()` (pass `usize::MAX` for full-batch
/// training) every step is a deterministic full-batch step with no RNG
/// draws; this also covers an empty client, whose gradient is the
/// regularizer's alone. Otherwise each step samples a fresh
/// size-`batch` minibatch without replacement (seeded [`StdRng`],
/// indices sorted ascending — the trainer's historical scheme) and takes
/// one gradient step on it through the batched kernels, so traces are
/// deterministic given the seed.
///
/// With `batch == 1` this reproduces the pre-batching per-sample
/// trajectories bit-for-bit (asserted in
/// `crates/fl/tests/batch_compat.rs`).
pub fn minibatch_updates(
    model: &mut dyn Model,
    data: &Dataset,
    eta: f64,
    steps: usize,
    batch: usize,
    seed: u64,
    scratch: &mut SgdScratch,
) {
    if batch >= data.len() {
        for _ in 0..steps {
            gradient_step(model, data, eta, scratch);
        }
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut minibatch = scratch.minibatch.take().unwrap_or_else(|| data.subset(&[]));
    for _ in 0..steps {
        let mut picks = sample(&mut rng, data.len(), batch.max(1)).into_vec();
        picks.sort_unstable();
        data.subset_into(&picks, &mut minibatch);
        gradient_step(model, &minibatch, eta, scratch);
    }
    scratch.minibatch = Some(minibatch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LogisticRegression;
    use fedval_linalg::Matrix;

    fn blobs() -> Dataset {
        let f =
            Matrix::from_rows(&[&[2.0, 2.0], &[2.2, 1.8], &[-2.0, -2.0], &[-1.8, -2.2]]).unwrap();
        Dataset::new(f, vec![0, 0, 1, 1], 2).unwrap()
    }

    #[test]
    fn constant_schedule_is_constant() {
        let lr = LearningRate::Constant(0.3);
        assert_eq!(lr.at(0), 0.3);
        assert_eq!(lr.at(100), 0.3);
    }

    #[test]
    fn inverse_decay_matches_formula_and_decreases() {
        let lr = LearningRate::proposition2(0.5, 1.0);
        // gamma = max(8*1/0.5, 1) = 16; eta_0 = 2/(0.5*16) = 0.25.
        assert!((lr.at(0) - 0.25).abs() < 1e-12);
        let mut prev = f64::INFINITY;
        for t in 0..50 {
            let e = lr.at(t);
            assert!(e < prev);
            prev = e;
        }
    }

    #[test]
    fn proposition2_gamma_floor_is_one() {
        // Large mu relative to L2 forces the floor.
        let lr = LearningRate::proposition2(100.0, 1.0);
        match lr {
            LearningRate::InverseDecay { gamma, .. } => assert_eq!(gamma, 1.0),
            _ => unreachable!(),
        }
    }

    /// `steps` full-batch steps through [`minibatch_updates`].
    fn full_batch(model: &mut dyn Model, data: &Dataset, eta: f64, steps: usize) {
        minibatch_updates(
            model,
            data,
            eta,
            steps,
            usize::MAX,
            0,
            &mut SgdScratch::new(),
        );
    }

    #[test]
    fn full_batch_step_decreases_loss_on_convex_problem() {
        let d = blobs();
        let mut m = LogisticRegression::new(2, 2, 0.01, 2);
        let before = m.loss(&d);
        full_batch(&mut m, &d, 0.1, 1);
        assert!(m.loss(&d) < before);
    }

    #[test]
    fn full_batch_runs_requested_steps() {
        let d = blobs();
        let mut m1 = LogisticRegression::new(2, 2, 0.01, 2);
        let mut m2 = m1.clone();
        full_batch(&mut m1, &d, 0.1, 3);
        for _ in 0..3 {
            full_batch(&mut m2, &d, 0.1, 1);
        }
        assert_eq!(m1.params(), m2.params());
    }

    #[test]
    fn zero_steps_is_noop() {
        let d = blobs();
        let mut m = LogisticRegression::new(2, 2, 0.0, 2);
        let before = m.params().to_vec();
        full_batch(&mut m, &d, 0.1, 0);
        assert_eq!(m.params(), &before[..]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        let d = blobs();
        let mut with_scratch = LogisticRegression::new(2, 2, 0.01, 2);
        let mut fresh = with_scratch.clone();
        let mut scratch = SgdScratch::new();
        for _ in 0..4 {
            minibatch_updates(&mut with_scratch, &d, 0.1, 1, usize::MAX, 0, &mut scratch);
            full_batch(&mut fresh, &d, 0.1, 1);
        }
        assert_eq!(with_scratch.params(), fresh.params());
    }

    #[test]
    fn minibatch_updates_is_seeded_and_reuses_buffers() {
        let d = blobs();
        let mut a = LogisticRegression::new(2, 2, 0.01, 3);
        let mut b = a.clone();
        let mut scratch_a = SgdScratch::new();
        let mut scratch_b = SgdScratch::new();
        minibatch_updates(&mut a, &d, 0.1, 5, 2, 42, &mut scratch_a);
        minibatch_updates(&mut b, &d, 0.1, 5, 2, 42, &mut scratch_b);
        assert_eq!(a.params(), b.params(), "same seed, same trajectory");
        // Scratch from a previous run perturbs nothing.
        let mut c = LogisticRegression::new(2, 2, 0.01, 3);
        minibatch_updates(&mut c, &d, 0.1, 5, 2, 42, &mut scratch_a);
        assert_eq!(a.params(), c.params());
    }

    #[test]
    fn minibatch_clamped_to_full_dataset_is_deterministic_path() {
        // A batch of at least the dataset's size — including any batch on
        // an empty dataset, which has nothing to sample — is full-batch.
        let d = blobs();
        for (data, batch) in [(d.clone(), 100), (d.clone(), d.len()), (d.subset(&[]), 2)] {
            let mut a = LogisticRegression::new(2, 2, 0.01, 5);
            let mut b = a.clone();
            minibatch_updates(&mut a, &data, 0.2, 3, batch, 7, &mut SgdScratch::new());
            full_batch(&mut b, &data, 0.2, 3);
            assert_eq!(a.params(), b.params(), "batch {batch} of {}", data.len());
        }
    }
}
