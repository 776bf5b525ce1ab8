//! Dataset substrate for the ComFedSV reproduction.
//!
//! The paper evaluates on synthetic data (the FedProx `synthetic(α, β)`
//! generator) plus MNIST, Fashion-MNIST, and CIFAR10. The image datasets are
//! not available offline, so this crate provides *simulated* stand-ins —
//! seeded class-conditional generators that preserve everything the
//! experiments actually exercise: multi-class structure, per-client
//! heterogeneity, controllable feature/label noise, and IID / non-IID
//! partitioning. See `DESIGN.md` ("Substitutions") for the full rationale.
//!
//! * [`dataset`] — the in-memory [`Dataset`] container and train/test splits.
//! * [`synthetic`] — FedProx-style `synthetic(α, β)` federated generator.
//! * [`images`] — simulated MNIST / Fashion-MNIST / CIFAR10 generators.
//! * [`partition`] — IID and label-sharding (non-IID) partitioners, and the
//!   duplicate-client helper used by the fairness experiments.
//! * [`noise`] — Gaussian feature noise and label flipping.
//! * [`behavior`] — data-level client-quality interventions (per-client
//!   label corruption) for the robustness scenario worlds.
//! * [`randn`] — seeded standard-normal sampling (Box–Muller over `rand`).

// Index-driven loops are deliberate in the numeric kernels: the loop
// variable simultaneously drives several arrays/offsets and mirrors the
// textbook formulas, which iterator chains would obscure.
#![allow(clippy::needless_range_loop)]

pub mod behavior;
pub mod dataset;
pub mod images;
pub mod noise;
pub mod partition;
pub mod randn;
pub mod synthetic;

pub use behavior::{apply_label_corruption, LabelCorruption};
pub use dataset::Dataset;
pub use images::{SimImageConfig, SimMnist};
pub use noise::{add_feature_noise, flip_labels};
pub use partition::{
    duplicate_client, partition_dirichlet, partition_iid, partition_shards, DirichletSkew,
};
pub use randn::NormalSampler;
pub use synthetic::{SyntheticConfig, SyntheticFederated};
