//! Differentiable models for the ComFedSV reproduction.
//!
//! The paper's experiments use a ladder of models — logistic regression on
//! synthetic data, a fully connected network on MNIST, CNNs on
//! Fashion-MNIST/CIFAR10 — and its theory (Propositions 1–2) needs a
//! Lipschitz + smooth (+ strongly convex) instance, which L2-regularized
//! logistic regression provides.
//!
//! Every model stores its parameters as one flat `Vec<f64>`, which makes
//! FedAvg aggregation (`w = mean of client vectors`) and the utility-matrix
//! probes (`ℓ(w̄_S; D_c)` for many averaged vectors) trivial and fast.
//!
//! * [`traits`] — the [`Model`] abstraction.
//! * [`linear`] — multinomial logistic regression with optional L2.
//! * [`mlp`] — fully connected network with manual backprop.
//! * [`cnn`] — small convolutional network (conv → ReLU → pool → dense).
//! * [`optim`] — the local-update loop (full-batch or minibatch SGD)
//!   and the learning-rate schedules.
//! * [`init`] — seeded parameter initialization.
//! * [`workspace`] — reusable minibatch buffers for the batched kernels.
//!
//! # Batched evaluation
//!
//! Each model implements two kernels, the cancellable loss
//! [`Model::try_loss_with`] and the gradient [`Model::grad_with`];
//! `loss`, `grad` and `loss_with` are derived from them. Both kernels
//! run on cache-blocked minibatch GEMMs
//! (`fedval_linalg::gemm`): examples are processed in `(batch ×
//! features)` chunks with preallocated per-layer activation/gradient
//! matrices from a [`Workspace`]. In the default
//! [`DeterminismTier::BitExact`] tier every reduction keeps the
//! per-sample, ascending accumulation order, so batched results are
//! bit-identical to the per-sample loops — which are retained on each
//! model as `loss_per_sample`/`grad_per_sample` reference paths and
//! asserted equal (to the bit) by each model's
//! `batched_paths_match_per_sample_reference_bitwise` test.
//!
//! A workspace carrying [`DeterminismTier::Fast`] instead routes the
//! GEMMs through FMA-fused, reduction-reordered kernels and — for the
//! CNN — an im2col convolution, trading bit-exactness for speed within
//! the documented ε of `fedval_linalg::gemm::fast_epsilon`; see the
//! [`DeterminismTier`] rustdoc for exactly which operations may reorder.

pub mod cnn;
pub mod init;
pub mod linear;
pub mod mlp;
pub mod optim;
pub mod traits;
pub mod workspace;

pub use cnn::{Cnn, CnnConfig};
pub use fedval_linalg::DeterminismTier;
pub use linear::LogisticRegression;
pub use mlp::{Activation, Mlp};
pub use optim::LearningRate;
pub use traits::Model;
pub use workspace::Workspace;
