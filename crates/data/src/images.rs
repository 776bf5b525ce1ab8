//! Simulated image datasets.
//!
//! MNIST, Fashion-MNIST, and CIFAR10 are unavailable offline, so each is
//! replaced with a seeded class-conditional generator whose *difficulty
//! ordering* mirrors the real datasets (MNIST easiest → CIFAR10 hardest).
//! Each class `c` has a fixed prototype vector; examples are
//! `prototype_c + within-class structured perturbation + isotropic noise`.
//! The within-class perturbation is a low-rank "style" term (a few shared
//! directions with per-example coefficients), which gives non-spherical
//! class clusters — the property that makes the utility matrix interesting
//! and ε-rank analysis non-trivial.
//!
//! The generators deliberately preserve the *interfaces* the experiments
//! need: 10 classes, configurable sample counts, deterministic seeds, and
//! enough class overlap that model choice matters (MLP beats logistic
//! regression on SimCifar, mirroring the paper's model ladder).

use crate::{Dataset, NormalSampler};
use fedval_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a simulated image dataset.
#[derive(Debug, Clone)]
pub struct SimImageConfig {
    /// Flattened "image" dimension.
    pub dim: usize,
    /// Number of classes (10 for all three stand-ins).
    pub num_classes: usize,
    /// Distance scale of class prototypes from the origin; larger separates
    /// classes more (easier task).
    pub prototype_scale: f64,
    /// Number of shared low-rank style directions.
    pub style_rank: usize,
    /// Standard deviation of the per-example style coefficients.
    pub style_sd: f64,
    /// Isotropic pixel-noise standard deviation.
    pub noise_sd: f64,
    /// Seed used to draw the prototypes and style directions (held fixed
    /// across calls so train and test share a distribution).
    pub seed: u64,
}

impl SimImageConfig {
    /// Simulated MNIST: well separated prototypes, mild style variation.
    pub fn mnist() -> Self {
        SimImageConfig {
            dim: 64,
            num_classes: 10,
            prototype_scale: 2.2,
            style_rank: 4,
            style_sd: 0.6,
            noise_sd: 0.5,
            seed: 0x5117_0001,
        }
    }

    /// Simulated Fashion-MNIST: closer prototypes, more style variation.
    pub fn fashion_mnist() -> Self {
        SimImageConfig {
            dim: 64,
            num_classes: 10,
            prototype_scale: 1.6,
            style_rank: 6,
            style_sd: 0.9,
            noise_sd: 0.6,
            seed: 0x5117_0002,
        }
    }

    /// Simulated CIFAR10: higher dimension (144 = 12×12, a perfect square so
    /// the CNN can treat examples as images), overlapping prototypes, strong
    /// style variation — the hardest of the three, as in the paper.
    pub fn cifar10() -> Self {
        SimImageConfig {
            dim: 144,
            num_classes: 10,
            prototype_scale: 1.1,
            style_rank: 10,
            style_sd: 1.2,
            noise_sd: 0.7,
            seed: 0x5117_0003,
        }
    }
}

/// A simulated image-classification source that can draw arbitrarily many
/// labelled examples from a fixed class-conditional distribution.
#[derive(Debug, Clone)]
pub struct SimImageSource {
    config: SimImageConfig,
    prototypes: Matrix,
    styles: Matrix,
}

/// Simulated MNIST source.
pub type SimMnist = SimImageSource;

impl SimImageSource {
    /// Builds the fixed class prototypes and style directions for `config`.
    pub fn new(config: SimImageConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut normal = NormalSampler::new();
        let mut prototypes = Matrix::zeros(config.num_classes, config.dim);
        for v in prototypes.as_mut_slice() {
            *v = normal.sample(&mut rng) * config.prototype_scale;
        }
        let mut styles = Matrix::zeros(config.style_rank, config.dim);
        for v in styles.as_mut_slice() {
            *v = normal.sample(&mut rng) / (config.dim as f64).sqrt();
        }
        SimImageSource {
            config,
            prototypes,
            styles,
        }
    }

    /// The configuration this source was built from.
    pub fn config(&self) -> &SimImageConfig {
        &self.config
    }

    /// Draws `n` examples with uniformly random labels.
    pub fn sample(&self, n: usize, seed: u64) -> Dataset {
        let labels: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            (0..n)
                .map(|_| rng.random_range(0..self.config.num_classes))
                .collect()
        };
        self.sample_with_labels(&labels, seed)
    }

    /// Draws one example per entry of `labels`, with the given classes.
    /// Used by the non-IID sharding partitioner to control class mixtures.
    pub fn sample_with_labels(&self, labels: &[usize], seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut normal = NormalSampler::new();
        let d = self.config.dim;
        let r = self.config.style_rank;
        let mut feat = Matrix::zeros(labels.len(), d);
        let mut coeffs = vec![0.0; r];
        for (i, &label) in labels.iter().enumerate() {
            assert!(label < self.config.num_classes, "label out of range");
            for c in &mut coeffs {
                *c = normal.sample_with(&mut rng, 0.0, self.config.style_sd);
            }
            let row = feat.row_mut(i);
            let proto = self.prototypes.row(label);
            for j in 0..d {
                let mut v = proto[j];
                for (k, &c) in coeffs.iter().enumerate() {
                    v += c * self.styles.get(k, j);
                }
                v += normal.sample_with(&mut rng, 0.0, self.config.noise_sd);
                row[j] = v;
            }
        }
        Dataset::new(feat, labels.to_vec(), self.config.num_classes)
            .expect("labels validated above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_linalg::vector;

    #[test]
    fn sample_shapes_match_config() {
        let src = SimImageSource::new(SimImageConfig::mnist());
        let ds = src.sample(37, 1);
        assert_eq!(ds.len(), 37);
        assert_eq!(ds.dim(), 64);
        assert_eq!(ds.num_classes(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let src = SimImageSource::new(SimImageConfig::fashion_mnist());
        let a = src.sample(10, 5);
        let b = src.sample(10, 5);
        assert_eq!(a.features().as_slice(), b.features().as_slice());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn different_seeds_give_different_examples() {
        let src = SimImageSource::new(SimImageConfig::mnist());
        let a = src.sample(10, 1);
        let b = src.sample(10, 2);
        assert_ne!(a.features().as_slice(), b.features().as_slice());
    }

    #[test]
    fn sample_with_labels_respects_labels() {
        let src = SimImageSource::new(SimImageConfig::cifar10());
        let labels = vec![3usize; 20];
        let ds = src.sample_with_labels(&labels, 8);
        assert!(ds.labels().iter().all(|&l| l == 3));
    }

    #[test]
    fn class_means_cluster_around_prototypes() {
        // The empirical mean of many same-class examples must be far closer
        // to its own prototype than to any other class's prototype.
        let src = SimImageSource::new(SimImageConfig::mnist());
        let n = 300;
        for class in [0usize, 7] {
            let ds = src.sample_with_labels(&vec![class; n], 99 + class as u64);
            let d = ds.dim();
            let mut mean = vec![0.0; d];
            for i in 0..n {
                vector::axpy(1.0 / n as f64, ds.example(i).0, &mut mean);
            }
            let mut best = usize::MAX;
            let mut best_dist = f64::INFINITY;
            for c in 0..10 {
                let dist = vector::dist2(&mean, src.prototypes.row(c));
                if dist < best_dist {
                    best_dist = dist;
                    best = c;
                }
            }
            assert_eq!(best, class);
        }
    }

    #[test]
    fn cifar_is_noisier_than_mnist() {
        // Ratio of within-class spread to prototype separation should be
        // larger for SimCifar (harder task).
        let spread_ratio = |cfg: SimImageConfig| {
            let src = SimImageSource::new(cfg);
            let ds = src.sample_with_labels(&vec![0; 200], 4);
            let d = ds.dim();
            let mut mean = vec![0.0; d];
            for i in 0..200 {
                vector::axpy(1.0 / 200.0, ds.example(i).0, &mut mean);
            }
            let within: f64 = (0..200)
                .map(|i| vector::dist2(ds.example(i).0, &mean))
                .sum::<f64>()
                / 200.0;
            let between = vector::dist2(src.prototypes.row(0), src.prototypes.row(1));
            within / between
        };
        assert!(spread_ratio(SimImageConfig::cifar10()) > spread_ratio(SimImageConfig::mnist()));
    }

    #[test]
    fn uniform_label_sampling_covers_all_classes() {
        let src = SimImageSource::new(SimImageConfig::mnist());
        let ds = src.sample(500, 3);
        let counts = ds.class_counts();
        assert!(counts.iter().all(|&c| c > 10), "counts {counts:?}");
    }
}
