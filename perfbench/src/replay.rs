//! The in-process side of the benchmark: reference values for every
//! job, and the traced replay that splits a job's wall time across the
//! crates.
//!
//! The replay runs a job the way the service's job thread does —
//! resolve the spec, obtain the trained world (memo, persisted trace,
//! or build + train), build the oracle over the shared disk cache, run
//! the session, flush — with a span around each call into a crate.
//! Spans live only here, in the benchmark; the program is not changed.

use crate::workload::body;
use comfedsv::experiments::{Scenario, World};
use fedval_cache::{
    CacheStats, CellCache, Fingerprint, FingerprintHasher, TraceLoad, TraceRecord, TraceRound,
    DEFAULT_MEM_BUDGET_BYTES,
};
use fedval_fl::trainer::RoundRecord;
use fedval_fl::{Subset, TrainingTrace, UtilityOracle};
use fedval_models::Workspace;
use fedval_runtime::{CancelToken, Pool, PoolHandle};
use fedval_service::JobSpec;
use fedval_shapley::{ComFedSv, EstimatorKind, MethodDefaults, Tmc, ValuationSession};
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker threads for the reference runs (the container's core count).
const REFERENCE_THREADS: usize = 2;

/// Timed `Model::loss_with` calls per world for `models.loss_us`.
const LOSS_PROBES: usize = 9;

/// A world with its trained trace and per-round base losses: what the
/// service memoizes per world and persists as a trace file.
struct Trained {
    world: World,
    trace: TrainingTrace,
    base_losses: Vec<f64>,
}

fn train(scenario: &Scenario, seed: u64) -> Trained {
    let world = scenario.build(seed);
    let trace = world
        .try_train(&scenario.fl_config(seed), &CancelToken::new())
        .expect("a fresh cancel token never fires");
    let base_losses = world.oracle(&trace).base_losses().to_vec();
    Trained {
        world,
        trace,
        base_losses,
    }
}

/// An oracle configured as the service configures each job's oracle:
/// the global pool, fanned out to at least two chunks.
fn new_oracle(trained: &Trained) -> UtilityOracle<'_> {
    let mut oracle = UtilityOracle::with_base_losses(
        &trained.trace,
        trained.world.prototype.as_ref(),
        &trained.world.test,
        trained.base_losses.clone(),
    );
    oracle.set_pool(PoolHandle::Global);
    oracle.set_parallelism(Pool::global_width().max(2));
    oracle
}

/// A session configured as the service configures a job's session.
fn new_session(spec: &JobSpec) -> ValuationSession {
    let mut builder = ValuationSession::builder()
        .rank(spec.rank)
        .permutations(spec.permutations)
        .samples(spec.samples)
        .seed(spec.seed);
    if let Some(tier) = spec.tier {
        builder = builder.tier(tier);
    }
    builder.build()
}

/// Identity of a spec's world: resolved scenario, seed and FedAvg config.
fn world_key(scenario: &Scenario, seed: u64) -> Fingerprint {
    let mut h = FingerprintHasher::new("perfbench-world-v1");
    h.write_bytes(format!("{scenario:?}").as_bytes());
    h.write_u64(seed);
    let fl = scenario.fl_config(seed).cache_fingerprint().bits();
    h.write_u64(fl as u64);
    h.write_u64((fl >> 64) as u64);
    h.finish()
}

/// Reference values (or the run's error) per distinct spec, keyed by
/// the spec's request body.
pub type References = HashMap<String, Result<Vec<f64>, String>>;

/// Values of every distinct spec from a solo in-process run: a fresh
/// oracle, no shared cache, one training per world.
pub fn references(specs: &[JobSpec]) -> References {
    let mut worlds: Vec<(Option<Scenario>, u64, Vec<&JobSpec>)> = Vec::new();
    let mut index: HashMap<Option<Fingerprint>, usize> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for spec in specs {
        if !seen.insert(body(spec)) {
            continue;
        }
        let scenario = spec.resolve_scenario();
        let key = scenario.as_ref().map(|s| world_key(s, spec.seed));
        let slot = *index.entry(key).or_insert_with(|| {
            worlds.push((scenario, spec.seed, Vec::new()));
            worlds.len() - 1
        });
        worlds[slot].2.push(spec);
    }
    let next = AtomicUsize::new(0);
    let out = Mutex::new(References::new());
    std::thread::scope(|scope| {
        for _ in 0..REFERENCE_THREADS {
            scope.spawn(|| loop {
                let Some((scenario, seed, specs)) =
                    worlds.get(next.fetch_add(1, Ordering::Relaxed))
                else {
                    return;
                };
                let trained = scenario.as_ref().map(|s| train(s, *seed));
                for spec in specs {
                    let values = match &trained {
                        Some(trained) => new_session(spec)
                            .run(&spec.method, &new_oracle(trained))
                            .map(|report| report.values)
                            .map_err(|e| e.to_string()),
                        None => Err(format!("unknown scenario {:?}", spec.scenario)),
                    };
                    out.lock()
                        .expect("reference map poisoned")
                        .insert(body(spec), values);
                }
            });
        }
    });
    out.into_inner().expect("reference map poisoned")
}

/// One recorded span: a call into a crate on behalf of job `job`.
pub struct Span {
    pub job: usize,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Span recorder. Off, it only runs the closures, so an untraced pass
/// executes the same calls.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(&mut self, job: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            job,
            name,
            start,
            end,
        });
        out
    }

    /// Total milliseconds of `job`'s spans named `name`.
    fn ms(&self, job: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.job == job && s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }
}

/// Where one replayed job's wall time went, in milliseconds of self
/// time per layer (all zero in an untraced pass).
#[derive(Default, Clone, Copy)]
pub struct Split {
    /// `fedval_service`: `JobSpec::resolve_scenario`.
    pub resolve: f64,
    /// `fedval_data` (through `Scenario::build`).
    pub world_build: f64,
    /// `fedval_fl` trainer.
    pub train: f64,
    /// `fedval_fl` oracle construction, with the base-loss evaluation
    /// when the world was trained here.
    pub oracle_setup: f64,
    /// `fedval_fl` cell evaluation: the cold session minus the warm one.
    pub cell_eval: f64,
    /// `fedval_cache`: trace load/store (with record conversion).
    pub trace: f64,
    /// `fedval_cache`: attaching the oracle (loads disk segments).
    pub attach: f64,
    /// `fedval_cache`: the post-job flush.
    pub flush: f64,
    /// `fedval_mc`: the completion solve, timed by re-solving.
    pub solve: f64,
    /// `fedval_shapley`: the session minus cell evaluation and solve.
    pub shapley_self: f64,
}

impl Split {
    pub fn total(&self) -> f64 {
        self.resolve
            + self.world_build
            + self.train
            + self.oracle_setup
            + self.cell_eval
            + self.trace
            + self.attach
            + self.flush
            + self.solve
            + self.shapley_self
    }
}

pub struct ReplayedJob {
    pub method: String,
    pub wall_ms: f64,
    pub split: Split,
    /// First job of its world in this pass.
    pub first_of_world: bool,
    /// Training was skipped (memo hit or persisted trace).
    pub world_reused: bool,
    pub rounds_trained: usize,
    pub cells_evaluated: u64,
    pub cell_hits: u64,
    pub disk_warm_cells: u64,
}

/// One completion re-solve.
pub struct Solve {
    pub ms: f64,
    pub sweeps: usize,
    pub converged: bool,
}

#[derive(Default)]
pub struct ReplayOut {
    pub jobs: Vec<ReplayedJob>,
    pub spans: Vec<Span>,
    pub cache: CacheStats,
    pub solves: Vec<Solve>,
    /// Cells evaluated per world by TMC at the default speculation and
    /// at `speculation: 0`.
    pub tmc_cells: Vec<(u64, u64)>,
    pub loss_us: Vec<f64>,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

/// Whether two value vectors are bit-identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The registry's comfedsv valuator for `spec`, as a struct whose
/// `run` exposes the completion problem and factors.
fn comfedsv_config(spec: &JobSpec) -> Option<ComFedSv> {
    let d = MethodDefaults::default();
    let mut cfg = ComFedSv::exact(spec.rank)
        .with_lambda(d.lambda)
        .with_solver(d.solver)
        .with_seed(spec.seed);
    match spec.method.as_str() {
        "comfedsv" => Some(cfg),
        "comfedsv-mc" => {
            cfg.estimator = EstimatorKind::MonteCarlo {
                num_permutations: spec.permutations,
            };
            Some(cfg)
        }
        _ => None,
    }
}

fn to_record(trained: &Trained) -> TraceRecord {
    TraceRecord {
        num_clients: trained.trace.num_clients as u64,
        rounds: trained
            .trace
            .rounds
            .iter()
            .map(|r| TraceRound {
                global: r.global_params.clone(),
                locals: r.local_params.clone(),
                selected: r.selected.bits(),
                eta: r.eta,
            })
            .collect(),
        final_params: trained.trace.final_params.clone(),
        base_losses: trained.base_losses.clone(),
    }
}

fn from_record(world: World, record: TraceRecord) -> Trained {
    let trace = TrainingTrace {
        rounds: record
            .rounds
            .into_iter()
            .map(|r| RoundRecord {
                global_params: r.global,
                local_params: r.locals,
                selected: Subset::from_bits(r.selected),
                eta: r.eta,
            })
            .collect(),
        final_params: record.final_params,
        num_clients: record.num_clients as usize,
    };
    Trained {
        world,
        trace,
        base_losses: record.base_losses,
    }
}

/// Replays `specs` in order over a cache in `dir`, starting with an
/// empty world memo (a fresh service process over that directory).
/// `expected` holds each spec's reference values. Traced, it records
/// spans and re-runs parts of each job to split the session.
pub fn replay(
    specs: &[JobSpec],
    dir: &Path,
    traced: bool,
    expected: &References,
) -> Result<ReplayOut, String> {
    let cache = CellCache::with_dir(DEFAULT_MEM_BUDGET_BYTES, dir);
    let mut tracer = Tracer {
        on: traced,
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut memo: HashMap<Fingerprint, Rc<Trained>> = HashMap::new();
    let mut out = ReplayOut::default();
    for (job, spec) in specs.iter().enumerate() {
        let started = Instant::now();
        let scenario = tracer
            .span(job, "service.resolve", || spec.resolve_scenario())
            .ok_or_else(|| format!("unknown scenario {:?}", spec.scenario))?;
        let key = world_key(&scenario, spec.seed);
        let (trained, first_of_world, world_reused, rounds_trained) = match memo.get(&key) {
            Some(trained) => (Rc::clone(trained), false, true, 0),
            None => {
                let loaded = tracer.span(job, "cache.trace_load", || cache.load_trace(key));
                let world = tracer.span(job, "data.world_build", || scenario.build(spec.seed));
                let (trained, reused, rounds) = match loaded {
                    TraceLoad::Ready(record) => {
                        let trained =
                            tracer.span(job, "cache.trace_load", || from_record(world, record));
                        (trained, true, 0)
                    }
                    TraceLoad::Absent | TraceLoad::Corrupt => {
                        let config = scenario.fl_config(spec.seed);
                        let trace = tracer
                            .span(job, "fl.train", || {
                                world.try_train(&config, &CancelToken::new())
                            })
                            .expect("a fresh cancel token never fires");
                        let base_losses = tracer.span(job, "fl.oracle_setup", || {
                            world.oracle(&trace).base_losses().to_vec()
                        });
                        let trained = Trained {
                            world,
                            trace,
                            base_losses,
                        };
                        tracer.span(job, "cache.trace_store", || {
                            cache.store_trace(key, &to_record(&trained))
                        });
                        (trained, false, config.rounds)
                    }
                };
                let trained = Rc::new(trained);
                memo.insert(key, Rc::clone(&trained));
                (trained, true, reused, rounds)
            }
        };
        let mut oracle = tracer.span(job, "fl.oracle_setup", || new_oracle(&trained));
        tracer.span(job, "cache.attach", || {
            oracle.set_shared_cache(Arc::clone(&cache))
        });
        let (mut session, report) = tracer.span(job, "shapley.session", || {
            let mut session = new_session(spec);
            let report = session.run(&spec.method, &oracle);
            (session, report)
        });
        tracer.span(job, "cache.flush", || cache.flush());
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let report = report.map_err(|e| format!("replay of {}: {e}", body(spec)))?;
        match expected.get(&body(spec)) {
            Some(Ok(reference)) if same_bits(reference, &report.values) => {}
            _ => out.problems.push(format!(
                "replayed values of {} differ from the reference",
                body(spec)
            )),
        }
        let mut split = Split::default();
        if traced {
            // Outside the job's wall: a warm re-run on the same oracle
            // (every cell in its private table) and a re-solve of the
            // completion problem split the cold session.
            let warm = tracer.span(job, "shapley.session_warm", || {
                session.run(&spec.method, &oracle)
            });
            match warm {
                Ok(warm) if same_bits(&warm.values, &report.values) => {}
                _ => out
                    .problems
                    .push(format!("warm re-run of {} changed its values", body(spec))),
            }
            let mut solve_ms = 0.0;
            if let Some(cfg) = comfedsv_config(spec) {
                let solved = re_solve(&cfg, &oracle, &report.values);
                match solved {
                    Ok(solve) => {
                        solve_ms = solve.ms;
                        out.solves.push(solve);
                    }
                    Err(e) => out.problems.push(format!("{}: {e}", body(spec))),
                }
            }
            let cold = tracer.ms(job, "shapley.session");
            let cell_eval = (cold - tracer.ms(job, "shapley.session_warm")).max(0.0);
            let solve = solve_ms.min(cold - cell_eval);
            split = Split {
                resolve: tracer.ms(job, "service.resolve"),
                world_build: tracer.ms(job, "data.world_build"),
                train: tracer.ms(job, "fl.train"),
                oracle_setup: tracer.ms(job, "fl.oracle_setup"),
                cell_eval,
                trace: tracer.ms(job, "cache.trace_load") + tracer.ms(job, "cache.trace_store"),
                attach: tracer.ms(job, "cache.attach"),
                flush: tracer.ms(job, "cache.flush"),
                solve,
                shapley_self: cold - cell_eval - solve,
            };
            if first_of_world {
                out.loss_us.push(loss_us(&trained));
                match tmc_cells(&trained, spec) {
                    Ok(cells) => out.tmc_cells.push(cells),
                    Err(e) => out.problems.push(format!("{}: {e}", body(spec))),
                }
            }
        }
        out.jobs.push(ReplayedJob {
            method: spec.method.clone(),
            wall_ms,
            split,
            first_of_world,
            world_reused,
            rounds_trained,
            cells_evaluated: report.diagnostics.cells_evaluated,
            cell_hits: report.diagnostics.cell_hits,
            disk_warm_cells: oracle.disk_warm_cells(),
        });
    }
    out.cache = cache.stats();
    out.spans = tracer.spans;
    Ok(out)
}

/// Re-solves the job's completion problem with the valuator's solver
/// and checks the factors (and values) are bit-identical to the run's.
fn re_solve(cfg: &ComFedSv, oracle: &UtilityOracle<'_>, values: &[f64]) -> Result<Solve, String> {
    let run = cfg.run(oracle).map_err(|e| e.to_string())?;
    if !same_bits(&run.values, values) {
        return Err("comfedsv struct run differs from the session's values".into());
    }
    let completer = cfg
        .solver
        .completer(cfg.rank, cfg.lambda, cfg.als_max_iters, cfg.seed);
    let started = Instant::now();
    let solved = completer
        .complete(&run.problem)
        .map_err(|e| e.to_string())?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let f = &solved.factors;
    if !same_bits(f.w.as_slice(), run.factors.w.as_slice())
        || !same_bits(f.h.as_slice(), run.factors.h.as_slice())
    {
        return Err("re-solved factors differ from the valuator's".into());
    }
    let sweeps = solved.objective_trace.len().saturating_sub(1);
    Ok(Solve {
        ms,
        sweeps,
        converged: sweeps < cfg.als_max_iters,
    })
}

/// Median wall time of one `Model::loss_with` over the world's test set
/// at the trained parameters, in microseconds.
fn loss_us(trained: &Trained) -> f64 {
    let mut model = trained.world.prototype.clone_model();
    model.set_params(&trained.trace.final_params);
    let mut ws = Workspace::new();
    let mut samples: Vec<f64> = (0..LOSS_PROBES)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(model.loss_with(&trained.world.test, &mut ws));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[LOSS_PROBES / 2]
}

/// Cells TMC evaluates on this world at the default speculation and
/// with speculation off, each on a fresh oracle; the two estimates
/// must be bit-identical.
fn tmc_cells(trained: &Trained, spec: &JobSpec) -> Result<(u64, u64), String> {
    let run = |speculation: usize| {
        let oracle = new_oracle(trained);
        let tmc = Tmc {
            permutations: spec.permutations,
            truncation_tol: MethodDefaults::default().truncation_tol,
            speculation,
            seed: spec.seed,
        };
        tmc.run(&oracle)
            .map(|out| (oracle.loss_evaluations(), out.values))
            .map_err(|e| e.to_string())
    };
    let (speculative, values) = run(Tmc::default().speculation)?;
    let (lazy, lazy_values) = run(0)?;
    if !same_bits(&values, &lazy_values) {
        return Err("TMC estimates differ with speculation off".into());
    }
    Ok((speculative, lazy))
}
