//! Equivalence suite for the `Valuator` API: every strategy object
//! gives **bit-identical** values through `dyn Valuator`, through a
//! `ValuationSession`, and through its direct `.run()`, and invalid
//! inputs surface as typed [`ValuationError`]s. The values themselves
//! are pinned in `tests/golden_valuations.rs`.

use comfedsv::prelude::*;

fn seeded_world() -> (World, TrainingTrace) {
    let world = ExperimentBuilder::synthetic(true)
        .num_clients(6)
        .samples_per_client(40)
        .test_samples(80)
        .seed(23)
        .build();
    let trace = world.train(&FlConfig::new(6, 3, 0.2, 23));
    (world, trace)
}

#[test]
fn session_sweep_is_bit_identical_to_direct_valuators() {
    let (world, trace) = seeded_world();
    let oracle = world.oracle(&trace);
    let mut session = ValuationSession::builder().rank(4).seed(23).build();
    let direct = ComFedSv::exact(4)
        .with_lambda(1e-3)
        .with_seed(23)
        .run(&oracle)
        .unwrap();
    let via_session = session.run("comfedsv", &oracle).unwrap();
    // Session defaults: rank 4 (set above), λ 1e-3 (default), seed 23.
    assert_eq!(via_session.values, direct.values);
}

#[test]
fn all_methods_box_as_dyn_valuator() {
    let (world, trace) = seeded_world();
    let comfedsv = ComFedSv::exact(4).with_lambda(1e-3).with_seed(23);
    let comfedsv_mc = ComFedSv {
        rank: 4,
        lambda: 1e-3,
        estimator: EstimatorKind::MonteCarlo {
            num_permutations: 60,
        },
        als_max_iters: 50,
        solver: Default::default(),
        seed: 5,
    };
    let fedsv_mc = FedSv::monte_carlo(FedSvConfig {
        permutations_per_round: Some(80),
        seed: 7,
    });
    let tmc = Tmc {
        permutations: 40,
        truncation_tol: 0.02,
        seed: 3,
        ..Tmc::default()
    };
    let group_testing = GroupTesting {
        num_samples: 150,
        seed: 11,
    };

    // Each method's direct `.run()` values: the boxed run must match
    // them bit for bit.
    let oracle = world.oracle(&trace);
    let direct = [
        ExactShapley.run(&oracle).unwrap(),
        FedSv::exact().run(&oracle).unwrap(),
        fedsv_mc.run(&oracle).unwrap(),
        comfedsv.run(&oracle).unwrap().values,
        comfedsv_mc.run(&oracle).unwrap().values,
        tmc.run(&oracle).unwrap().values,
        group_testing.run(&oracle).unwrap(),
    ];
    let methods: [Box<dyn Valuator>; 7] = [
        Box::new(ExactShapley),
        Box::new(FedSv::exact()),
        Box::new(fedsv_mc),
        Box::new(comfedsv),
        Box::new(comfedsv_mc),
        Box::new(tmc),
        Box::new(group_testing),
    ];
    for (m, direct) in methods.iter().zip(direct) {
        // Fresh oracle per method: cells_evaluated counts real model
        // evaluations, and a shared cache would zero it for later runs.
        let oracle = world.oracle(&trace);
        let report = m.value(&oracle, &mut RunContext::new()).unwrap();
        assert_eq!(report.values.len(), 6, "{}", m.name());
        assert!(report.values.iter().all(|v| v.is_finite()), "{}", m.name());
        assert!(report.diagnostics.cells_evaluated > 0, "{}", m.name());
        assert_eq!(report.values, direct, "{}", m.name());
    }
}

#[test]
fn too_many_clients_is_a_typed_error_at_n17() {
    // 17 clients: one past the exact-enumeration gate.
    let world = ExperimentBuilder::synthetic(false)
        .num_clients(17)
        .samples_per_client(8)
        .test_samples(20)
        .seed(1)
        .build();
    let trace = world.train(&FlConfig::new(1, 2, 0.2, 1));
    let oracle = world.oracle(&trace);
    assert_eq!(
        ExactShapley.run(&oracle).unwrap_err(),
        ValuationError::TooManyClients {
            clients: 17,
            max: comfedsv::shapley::MAX_EXACT_CLIENTS
        }
    );
    assert_eq!(
        ComFedSv::exact(4).run(&oracle).unwrap_err(),
        ValuationError::TooManyClients {
            clients: 17,
            max: comfedsv::shapley::MAX_EXACT_CLIENTS
        }
    );
    // Exact FedSV trips on the round-0 everyone-heard cohort of 17.
    assert!(matches!(
        FedSv::exact().run(&oracle).unwrap_err(),
        ValuationError::CohortTooLarge {
            round: 0,
            cohort: 17,
            ..
        }
    ));
}

#[test]
fn empty_trace_is_rejected_by_every_method() {
    let world = ExperimentBuilder::synthetic(false)
        .num_clients(4)
        .samples_per_client(10)
        .test_samples(20)
        .seed(2)
        .build();
    let trace = world.train(&FlConfig::new(0, 2, 0.2, 2));
    let oracle = world.oracle(&trace);
    let methods: Vec<Box<dyn Valuator>> = vec![
        Box::new(ExactShapley),
        Box::new(FedSv::exact()),
        Box::new(FedSv::monte_carlo(FedSvConfig::default())),
        Box::new(ComFedSv::exact(3)),
        Box::new(Tmc::default()),
        Box::new(GroupTesting {
            num_samples: 10,
            seed: 0,
        }),
    ];
    for m in methods {
        assert_eq!(
            m.value(&oracle, &mut RunContext::new()).unwrap_err(),
            ValuationError::EmptyTrace,
            "{}",
            m.name()
        );
    }
}

#[test]
fn invalid_sampling_budgets_are_typed_errors() {
    let (world, trace) = seeded_world();
    let oracle = world.oracle(&trace);
    assert_eq!(
        Tmc {
            permutations: 0,
            truncation_tol: 0.0,
            seed: 0,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap_err(),
        ValuationError::NoPermutations
    );
    assert_eq!(
        GroupTesting {
            num_samples: 0,
            seed: 0
        }
        .run(&oracle)
        .unwrap_err(),
        ValuationError::NoSamples
    );
    assert_eq!(
        FedSv::monte_carlo(FedSvConfig {
            permutations_per_round: Some(0),
            seed: 0
        })
        .run(&oracle)
        .unwrap_err(),
        ValuationError::NoPermutations
    );
}
