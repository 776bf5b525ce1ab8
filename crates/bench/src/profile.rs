//! Runtime/fidelity profiles for the figure harnesses.
//!
//! The paper's full settings (100 rounds, 50 repetitions, 100 clients) run
//! in minutes in release mode; CI and quick local iterations want smaller
//! numbers. The `FEDVAL_PROFILE` environment variable selects:
//!
//! * `quick` — smallest runs that still show every qualitative effect;
//! * `default` — the middle ground (used when the variable is unset);
//! * `paper` — the paper's settings wherever feasible.

/// Scaling knobs shared by the figure harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Name ("quick" / "default" / "paper").
    pub name: &'static str,
    /// Repetitions of the fairness trials (paper: 50).
    pub fairness_trials: usize,
    /// Rounds for the long training runs (paper: 100).
    pub long_rounds: usize,
    /// Rounds for the short valuation runs (paper: 10).
    pub short_rounds: usize,
    /// Clients for the large-scale noisy-label experiment (paper: 100).
    pub many_clients: usize,
    /// Rounds for the noisy-label experiment (paper: 100).
    pub label_rounds: usize,
    /// Monte-Carlo permutations for the large-scale runs.
    pub mc_permutations: usize,
    /// Examples per client.
    pub samples_per_client: usize,
    /// Server test-set size.
    pub test_samples: usize,
}

/// Reads the profile from `FEDVAL_PROFILE` (default: `default`).
pub fn profile() -> Profile {
    match std::env::var("FEDVAL_PROFILE").as_deref() {
        Ok("quick") => Profile {
            name: "quick",
            fairness_trials: 10,
            long_rounds: 30,
            short_rounds: 6,
            many_clients: 30,
            label_rounds: 15,
            mc_permutations: 30,
            samples_per_client: 40,
            test_samples: 100,
        },
        Ok("paper") => Profile {
            name: "paper",
            fairness_trials: 50,
            long_rounds: 100,
            short_rounds: 10,
            many_clients: 100,
            label_rounds: 50,
            mc_permutations: 200,
            samples_per_client: 80,
            test_samples: 200,
        },
        _ => Profile {
            name: "default",
            fairness_trials: 25,
            long_rounds: 60,
            short_rounds: 10,
            many_clients: 50,
            label_rounds: 30,
            mc_permutations: 80,
            samples_per_client: 60,
            test_samples: 150,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_default() {
        // The test environment does not set FEDVAL_PROFILE.
        if std::env::var("FEDVAL_PROFILE").is_err() {
            assert_eq!(profile().name, "default");
        }
    }

    #[test]
    fn profiles_scale_monotonically() {
        let quick = Profile {
            name: "quick",
            fairness_trials: 10,
            long_rounds: 30,
            short_rounds: 6,
            many_clients: 30,
            label_rounds: 15,
            mc_permutations: 30,
            samples_per_client: 40,
            test_samples: 100,
        };
        let paper = Profile {
            name: "paper",
            fairness_trials: 50,
            long_rounds: 100,
            short_rounds: 10,
            many_clients: 100,
            label_rounds: 50,
            mc_permutations: 200,
            samples_per_client: 80,
            test_samples: 200,
        };
        assert!(quick.fairness_trials < paper.fairness_trials);
        assert!(quick.long_rounds < paper.long_rounds);
        assert!(quick.many_clients < paper.many_clients);
    }
}
