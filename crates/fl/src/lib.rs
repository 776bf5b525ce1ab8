//! FedAvg federated-learning simulator.
//!
//! Implements the training protocol of the paper's Section III:
//!
//! 1. the server broadcasts `w_t` to all clients;
//! 2. every client takes local gradient step(s) `w^{t+1}_i = w_t − η_t ∇F_i(w_t)`;
//! 3. a subset `I_t` is selected uniformly at random (round 0 selects
//!    everyone — the "Everyone Being Heard" Assumption 1);
//! 4. the server aggregates `w_{t+1} = mean_{i∈I_t} w^{t+1}_i`.
//!
//! Crucially for data valuation, the simulator records a full
//! [`TrainingTrace`]: every client's local model in every round, the
//! selected subsets, and the server-side test losses. The
//! [`utility::UtilityOracle`] then evaluates the paper's round utilities
//! `U_t(S) = ℓ(w_t; D_c) − ℓ(mean_{k∈S} w^{t+1}_k; D_c)` — either one
//! cell at a time, or (the fast path) as an [`EvalPlan`] batch submitted
//! to the persistent `fedval_runtime` worker pool with per-worker
//! scratch models and cooperative cancellation. Evaluations are cached
//! exactly-once and counted (the cost unit of the paper's Fig. 8).
//!
//! * [`subset`] — bitmask-encoded client coalitions.
//! * [`config`] — simulation configuration.
//! * [`behavior`] — per-client adversarial/robustness behavior injection.
//! * [`trainer`] — the FedAvg loop producing a [`TrainingTrace`].
//! * [`utility`] — the utility oracle and its batch evaluation engine.
//! * [`utility_matrix`] — the full utility-matrix builder.

pub mod behavior;
pub mod config;
pub mod error;
pub mod subset;
pub mod trainer;
pub mod utility;
pub mod utility_matrix;

/// Largest client count for which the exact (full coalition-space) paths
/// run: exact enumeration registers `2^N` coalitions, so everything from
/// [`full_utility_matrix`] up through the valuation crates' exact
/// estimators is gated to `N ≤ 16` (65 536 coalitions — about the
/// practical ceiling for the `O(N · 2^N)` sums). Beyond this, use a
/// sampling estimator. This constant lives here, at the bottom of the
/// valuation stack, so every layer (`fl`, `mc` consumers, `shapley`)
/// shares one gate; `fedval_shapley` re-exports it for compatibility.
pub const MAX_EXACT_CLIENTS: usize = 16;

pub use behavior::ClientBehavior;
pub use config::FlConfig;
pub use error::OracleError;
pub use fedval_models::DeterminismTier;
pub use subset::Subset;
pub use trainer::{train_federated, try_train_federated, TrainingTrace};
pub use utility::{EvalPlan, UtilityOracle};
pub use utility_matrix::{full_utility_matrix, try_full_utility_matrix};
