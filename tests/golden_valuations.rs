//! Golden pins: the exact bits of every seeded valuation.
//!
//! The other bit-identity suites compare two runs of the *same* build
//! (cache vs no cache, tier vs tier), so a change that moves the
//! baseline itself passes all of them. This test compares against a
//! committed file instead: the `to_bits()` of all 35 seeded valuations
//! (7 registry methods × 5 worlds, the worlds and session of
//! `tests/cache_equivalence.rs`) plus each run's standalone
//! `cells_evaluated`.
//!
//! Everything is pinned to `DeterminismTier::BitExact` — training, the
//! oracle's base losses and cell evaluations, and the session — so the
//! file holds under any `FEDVAL_TIER` / `FEDVAL_THREADS` setting.
//!
//! On a mismatch the actual file is written under the cargo target
//! temp dir and the failure names its path. Re-pinning means copying
//! that file over `tests/golden/seeded_valuations.txt` and recording
//! why in CHANGES.md.

use comfedsv::prelude::*;
use fedval_linalg::DeterminismTier;
use fedval_models::Workspace;
use std::fmt::Write as _;

const SEEDS: [u64; 5] = [1, 7, 11, 21, 42];
const TIER: DeterminismTier = DeterminismTier::BitExact;
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/seeded_valuations.txt"
);

/// A BitExact oracle whose base losses are also evaluated at BitExact
/// (`UtilityOracle::new` would use the process-default tier for them).
fn bit_exact_oracle<'a>(world: &'a World, trace: &'a TrainingTrace) -> UtilityOracle<'a> {
    let mut model = world.prototype.clone_model();
    let mut ws = Workspace::new().with_tier(TIER);
    let base_losses = trace
        .rounds
        .iter()
        .map(|r| {
            model.set_params(&r.global_params);
            model.loss_with(&world.test, &mut ws)
        })
        .collect();
    UtilityOracle::with_base_losses(trace, world.prototype.as_ref(), &world.test, base_losses)
        .with_tier(TIER)
}

/// One line per (seed, method): `seed method cells_evaluated bits...`.
fn seeded_valuations() -> String {
    let mut out = String::from("# seed method cells_evaluated value_bits...\n");
    for seed in SEEDS {
        let world = ExperimentBuilder::synthetic(true)
            .num_clients(5)
            .samples_per_client(30)
            .test_samples(60)
            .seed(seed)
            .build();
        let trace = world.train(&FlConfig::new(4, 3, 0.2, seed).with_tier(TIER));
        let oracle = bit_exact_oracle(&world, &trace);
        let mut session = ValuationSession::builder()
            .rank(3)
            .permutations(30)
            .samples(80)
            .seed(seed)
            .isolated_runs(true)
            .tier(TIER)
            .build();
        for name in session.method_names() {
            let report = session
                .run(&name, &oracle)
                .unwrap_or_else(|e| panic!("seed {seed}: method {name} failed: {e}"));
            write!(out, "{seed} {name} {}", report.diagnostics.cells_evaluated).unwrap();
            for v in &report.values {
                write!(out, " {:016x}", v.to_bits()).unwrap();
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn seeded_valuations_match_golden_bits() {
    let actual = seeded_valuations();
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual == expected {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded_valuations.txt");
    std::fs::write(&path, &actual).expect("write actual golden file");
    let first_diff = actual
        .lines()
        .zip(expected.lines().chain(std::iter::repeat("<missing>")))
        .find(|(a, e)| a != e)
        .map(|(a, e)| format!("\n  expected: {e}\n  actual:   {a}"))
        .unwrap_or_else(|| "\n  (line count differs)".into());
    panic!(
        "seeded valuations differ from {GOLDEN}{first_diff}\nactual file written to {}",
        path.display()
    );
}
