//! perfbench: the repository benchmark. It drives the real
//! `fedval_serve` binary over loopback sockets on one named workload,
//! checks every job's values bitwise against an in-process run of the
//! same spec, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced in-process replay (`--trace 1`). The
//! last line of stdout is one JSON object; README.md defines every
//! metric. `run.py` builds both programs and calls this binary.

mod http;
mod json;
mod replay;
mod stats;
mod workload;

use fedval_service::JobSpec;
use replay::{same_bits, References, ReplayOut};
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{JobDoc, JobRun, Tenant, Workload};

/// A measured job that ended `done` with the reference values.
type Done<'a> = (&'a JobRun, JobDoc);

const USAGE: &str = "usage: perfbench --workload cold_sweep|warm_repeat|interactive_under_flood \
                     --seed N --seconds S --trace 0|1 --serve PATH --work DIR";

/// The whole run, build excluded, must end well inside the 180 s the
/// benchmark contract allows.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Unmeasured lead-in of the closed-loop workloads.
const WARM_UP: Duration = Duration::from_secs(2);

/// A job whose events stream closes this long after the server-side
/// `queued_ms + run_ms` counts as a stream stall.
const STALL_MS: f64 = 50.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str| {
        get(flag)?
            .parse::<u64>()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        serve: PathBuf::from(get("--serve")?),
        work: PathBuf::from(get("--work")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    http::arm_watchdog(RUN_LIMIT);
    let work = WorkDir(
        args.work
            .join(format!("{}-{}", args.workload.name(), std::process::id())),
    );
    let outcome = std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("work dir {}: {e}", work.0.display()))
        .and_then(|()| run(&args, &work.0));
    drop(work);
    match outcome {
        Ok(result) => {
            println!("{}", result.json());
            std::process::exit(if result.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// This run's scratch directory (cache dirs, server logs), removed on
/// every exit path that unwinds.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Metrics in report order, printed as they are added.
#[derive(Default)]
struct Sheet(Vec<Metric>);

impl Sheet {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64, note: &str) {
        println!("  {name:<34} {value:>14.4} {unit:<6} {note}");
        self.0.push(Metric { name, unit, value });
    }
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let seed = args.seed;
    let warm_specs = workload::sweep_specs(|_| workload::job_seed(seed, 0, 0));
    let prefill: &[JobSpec] = match args.workload {
        Workload::WarmRepeat => &warm_specs,
        _ => &[],
    };
    let setup = workload::set_up(args.workload, &args.serve, work, prefill)?;
    let addr = setup.server.addr;
    // Whole passes for WARM_UP before the window, on the measured
    // server: a fresh process is slower for its first second or two
    // (allocator, page faults, pool start), which a long-running service
    // pays once. On warm_repeat this is where each world's trace and
    // cells are rehydrated from disk.
    let warm_up = |pass: u64| match args.workload {
        Workload::WarmRepeat => warm_specs.clone(),
        _ => workload::sweep_specs(|i| workload::job_seed(seed, 4, pass * 1000 + i)),
    };
    let mut runs = match args.workload {
        Workload::InteractiveUnderFlood => Vec::new(),
        _ => workload::closed_loop(addr, Instant::now() + WARM_UP, Tenant::WarmUp, warm_up),
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    runs.extend(match args.workload {
        Workload::ColdSweep => workload::closed_loop(addr, deadline, Tenant::Sweep, |pass| {
            workload::sweep_specs(|i| workload::job_seed(seed, 1, pass * 1000 + i))
        }),
        Workload::WarmRepeat => {
            workload::closed_loop(addr, deadline, Tenant::Sweep, |_| warm_specs.clone())
        }
        Workload::InteractiveUnderFlood => workload::flood(addr, start, deadline, seed),
    });
    setup
        .server
        .stop()
        .map_err(|e| format!("server drain: {e}"))?;

    let mut specs: Vec<JobSpec> = runs.iter().map(|r| r.spec.clone()).collect();
    let measured: Vec<JobSpec> = runs
        .iter()
        .filter(|r| r.tenant != Tenant::WarmUp)
        .map(|r| r.spec.clone())
        .collect();
    let replayed = replay_specs(args.workload, seed, &measured, &warm_specs);
    if args.trace {
        specs.extend(replayed.iter().cloned());
    }
    let references = replay::references(&specs);
    let mut failed = 0;
    let mut mismatches = 0;
    let mut ok: Vec<Done> = Vec::new();
    for run in &runs {
        let verdict = run
            .done()
            .and_then(|doc| match references.get(&workload::body(&run.spec)) {
                Some(Ok(expected)) if same_bits(expected, &doc.values) => Ok(doc),
                Some(Ok(_)) => {
                    mismatches += 1;
                    Err("values differ from the in-process reference".to_string())
                }
                Some(Err(e)) => Err(format!("in-process reference failed: {e}")),
                None => Err("no in-process reference".to_string()),
            });
        match verdict {
            Ok(_) if run.tenant == Tenant::WarmUp => {}
            Ok(doc) => ok.push((run, doc)),
            Err(e) => {
                failed += 1;
                if failed <= 5 {
                    eprintln!("perfbench: job {} failed: {e}", workload::body(&run.spec));
                }
            }
        }
    }
    println!(
        "workload {}  seed {seed}  window {} s  nproc {}  trace {}",
        args.workload.name(),
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(args.trace)
    );
    println!("  failed/attempted {failed}/{}", runs.len());
    let mut problems = Vec::new();
    if mismatches > 0 {
        problems.push(format!("{mismatches} jobs returned values that differ"));
    }
    let mut sheet = Sheet::default();
    let counted = |tenant_ok: fn(Tenant) -> bool| -> Vec<&Done> {
        ok.iter()
            .filter(|(run, _)| tenant_ok(run.tenant))
            // The flood's batch job in flight at the deadline finishes
            // without the interactive tenant, so it is not counted.
            .filter(|(run, _)| run.tenant != Tenant::Batch || run.closed <= deadline)
            .collect()
    };
    let fg = counted(Tenant::foreground);
    let bg = counted(Tenant::background);
    if fg.is_empty() || bg.is_empty() {
        return Err("no job completed, so there is nothing to report".into());
    }
    let job_ms: Vec<f64> = fg.iter().map(|(r, _)| r.job_ms()).collect();
    let due_ms: Vec<f64> = fg.iter().map(|(r, _)| r.due_ms()).collect();
    let n = format!("n={}", job_ms.len());
    if !args.trace {
        sheet.put(
            "setup_s",
            "s",
            median(&setup.setup_s),
            &format!(
                "median of {}, from {:.4} to {:.4} s",
                setup.setup_s.len(),
                quantile(&setup.setup_s, 0.0),
                quantile(&setup.setup_s, 1.0)
            ),
        );
        sheet.put("job_ms_p50", "ms", median(&job_ms), &n);
        sheet.put("job_ms_p90", "ms", quantile(&job_ms, 0.9), &n);
        let cells: u64 = bg.iter().map(|(_, d)| d.cells_computed + d.cell_hits).sum();
        let (jobs_per_s, cells_per_s, note) = match args.workload {
            Workload::InteractiveUnderFlood => (
                rate(&counted(|t| t == Tenant::Interactive))
                    + rate(&counted(|t| t == Tenant::Batch)),
                cells as f64 / span_s(&bg),
                format!("{cells} cells over {} jobs", bg.len()),
            ),
            _ => {
                let (jobs, cells_per_s) = pass_rates(&fg);
                let note = format!(
                    "median of {} passes; window mean {:.4} jobs/s, {:.1} cells/s",
                    jobs.len(),
                    rate(&fg),
                    cells as f64 / span_s(&bg)
                );
                (median(&jobs), median(&cells_per_s), note)
            }
        };
        sheet.put("jobs_per_s", "1/s", jobs_per_s, &note);
        sheet.put("interactive_ms_p50", "ms", median(&due_ms), &n);
        sheet.put("interactive_ms_p90", "ms", quantile(&due_ms, 0.9), &n);
        sheet.put("batch_cells_per_s", "1/s", cells_per_s, &note);
        let stalls = fg.iter().filter(|(r, d)| is_stall(r, d)).count();
        println!("  note: {stalls} of {} jobs stalled", fg.len());
        if job_ms.len() < 100 {
            println!("  note: p90 rests on fewer than 100 samples");
        }
    } else {
        service_layers(&mut sheet, &ok, &runs);
        let (untraced, traced) = replay_passes(args.workload, &replayed, work, &references)?;
        problems.extend(untraced.problems.iter().cloned());
        problems.extend(traced.problems.iter().cloned());
        problems.extend(replay_layers(&mut sheet, args.workload, &untraced, &traced));
        write_spans(&args.work, args.workload, &traced)?;
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    if let Some(m) = sheet.0.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{} is {}, not a number JSON can carry",
            m.name, m.value
        ));
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: runs.len(),
        failed,
        metrics: sheet.0,
    })
}

/// Seconds from the first submission to the last stream close.
fn span_s(jobs: &[&Done]) -> f64 {
    let first = jobs.iter().map(|(r, _)| r.posted).min();
    let last = jobs.iter().map(|(r, _)| r.closed).max();
    match (first, last) {
        (Some(first), Some(last)) => (last - first).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// Completed jobs per second, closed loop.
fn rate(jobs: &[&Done]) -> f64 {
    jobs.len() as f64 / span_s(jobs)
}

/// Each closed-loop pass's completed jobs and utility cells per second,
/// over the span from its first submission to its last close. Every
/// pass sends the same method mix, so their median is the loop's steady
/// throughput: a pass that a stream stall or a busy host slowed moves
/// it little.
fn pass_rates(jobs: &[&Done]) -> (Vec<f64>, Vec<f64>) {
    let mut passes: Vec<u64> = jobs.iter().map(|(r, _)| r.pass).collect();
    passes.dedup();
    passes
        .into_iter()
        .map(|pass| {
            let in_pass: Vec<&Done> = jobs
                .iter()
                .filter(|(r, _)| r.pass == pass)
                .copied()
                .collect();
            let span = span_s(&in_pass);
            let cells: u64 = in_pass
                .iter()
                .map(|(_, d)| d.cells_computed + d.cell_hits)
                .sum();
            (in_pass.len() as f64 / span, cells as f64 / span)
        })
        .unzip()
}

/// Whether the job's events stream closed `STALL_MS` or more after the
/// server-side `queued_ms + run_ms`: the known stream stall.
fn is_stall(run: &JobRun, doc: &JobDoc) -> bool {
    run.job_ms() - (doc.queued_ms + doc.run_ms) >= STALL_MS
}

/// `fedval_runtime` and `fedval_service` layers, from the HTTP run.
fn service_layers(sheet: &mut Sheet, ok: &[Done], runs: &[JobRun]) {
    for (class, queued, run) in [
        (
            fedval_runtime::JobClass::Interactive,
            "runtime.interactive.queued_ms_p50",
            "runtime.interactive.run_ms_p50",
        ),
        (
            fedval_runtime::JobClass::Batch,
            "runtime.batch.queued_ms_p50",
            "runtime.batch.run_ms_p50",
        ),
    ] {
        let docs: Vec<_> = ok.iter().filter(|(r, _)| r.spec.class == class).collect();
        let n = format!("n={}", docs.len());
        let q: Vec<f64> = docs.iter().map(|(_, d)| d.queued_ms).collect();
        let r: Vec<f64> = docs.iter().map(|(_, d)| d.run_ms).collect();
        sheet.put(queued, "ms", median(&q), &n);
        sheet.put(run, "ms", median(&r), &n);
    }
    let submit: Vec<f64> = ok
        .iter()
        .map(|(r, _)| workload::ms(r.accepted - r.posted))
        .collect();
    let overhead: Vec<f64> = ok
        .iter()
        .map(|(r, d)| r.job_ms() - (d.queued_ms + d.run_ms))
        .collect();
    let stalls = ok.iter().filter(|(r, d)| is_stall(r, d)).count();
    sheet.put("service.submit_ms_p50", "ms", median(&submit), "");
    sheet.put("service.overhead_ms_p50", "ms", median(&overhead), "");
    sheet.put(
        "service.stream_stalls",
        "count",
        stalls as f64,
        &format!("of {} jobs closed >= {STALL_MS} ms late", ok.len()),
    );
    let lag = runs
        .iter()
        .map(|r| workload::ms(r.posted - r.due))
        .fold(0.0, f64::max);
    sheet.put("bench.generator_lag_ms_max", "ms", lag, "");
}

/// The specs the traced run replays: one pass of the sweep, or the
/// flood's first two batch and first four interactive jobs.
fn replay_specs(
    workload: Workload,
    seed: u64,
    specs: &[JobSpec],
    warm: &[JobSpec],
) -> Vec<JobSpec> {
    match workload {
        Workload::ColdSweep => specs.iter().take(warm.len()).cloned().collect(),
        Workload::WarmRepeat => warm.to_vec(),
        Workload::InteractiveUnderFlood => vec![
            workload::flood_batch_spec(seed, 0),
            workload::flood_interactive_spec(seed, 0),
            workload::flood_interactive_spec(seed, 1),
            workload::flood_batch_spec(seed, 1),
            workload::flood_interactive_spec(seed, 2),
            workload::flood_interactive_spec(seed, 3),
        ],
    }
}

/// An untraced and a traced replay of `specs`, each over the cache
/// state the workload's server had: empty for the cold workloads, and
/// for `warm_repeat` a directory filled by one replay beforehand.
fn replay_passes(
    workload: Workload,
    specs: &[JobSpec],
    work: &Path,
    references: &References,
) -> Result<(ReplayOut, ReplayOut), String> {
    let dir = |tag: &str| work.join(format!("replay-{tag}"));
    if workload == Workload::WarmRepeat {
        let filled = dir("warm");
        replay::replay(specs, &filled, false, references)?;
        let untraced = replay::replay(specs, &filled, false, references)?;
        let traced = replay::replay(specs, &filled, true, references)?;
        return Ok((untraced, traced));
    }
    let untraced = replay::replay(specs, &dir("untraced"), false, references)?;
    let traced = replay::replay(specs, &dir("traced"), true, references)?;
    Ok((untraced, traced))
}

/// Per-layer metrics of the traced replay. Times (`_ms`) are means per
/// replayed job, so they add up to `bench.traced_job_ms` times the
/// stage coverage; counts are totals over the replay. Returns the
/// checks that failed.
fn replay_layers(
    sheet: &mut Sheet,
    workload: Workload,
    untraced: &ReplayOut,
    traced: &ReplayOut,
) -> Vec<String> {
    let mut problems = Vec::new();
    let jobs = &traced.jobs;
    let n = jobs.len() as f64;
    // `+ 0.0` turns the -0.0 an all-zero float sum yields into 0.
    let mean =
        |f: fn(&replay::Split) -> f64| jobs.iter().map(|j| f(&j.split)).sum::<f64>() / n + 0.0;
    let wall: f64 = jobs.iter().map(|j| j.wall_ms).sum();
    sheet.put(
        "bench.traced_job_ms",
        "ms",
        wall / n,
        &format!("mean of {} jobs", jobs.len()),
    );
    sheet.put("data.world_build_ms", "ms", mean(|s| s.world_build), "");
    sheet.put("fl.train_ms", "ms", mean(|s| s.train), "");
    let rounds: usize = jobs.iter().map(|j| j.rounds_trained).sum();
    sheet.put("fl.train_rounds", "count", rounds as f64, "");
    sheet.put("fl.oracle_setup_ms", "ms", mean(|s| s.oracle_setup), "");
    let cells: u64 = jobs.iter().map(|j| j.cells_evaluated).sum();
    let hits: u64 = jobs.iter().map(|j| j.cell_hits).sum();
    sheet.put("fl.cells_evaluated", "count", cells as f64, "");
    sheet.put("fl.cell_hits", "count", hits as f64, "");
    let looked_up = cells + hits;
    let hit_ratio = if looked_up == 0 {
        0.0
    } else {
        hits as f64 / looked_up as f64
    };
    sheet.put("fl.cell_hit_ratio", "ratio", hit_ratio, "");
    let cell_eval = mean(|s| s.cell_eval);
    sheet.put("fl.cell_eval_ms", "ms", cell_eval, "");
    let cell_us = if cells == 0 {
        0.0
    } else {
        cell_eval * n * 1e3 / cells as f64
    };
    sheet.put("fl.cell_us", "us", cell_us, "");
    sheet.put(
        "models.loss_us",
        "us",
        median(&traced.loss_us),
        &format!("median of {} worlds", traced.loss_us.len()),
    );
    let solves = &traced.solves;
    let sweeps: usize = solves.iter().map(|s| s.sweeps).sum();
    let solve_ms: f64 = solves.iter().map(|s| s.ms).sum();
    let per_solve = |x: f64| {
        if solves.is_empty() {
            0.0
        } else {
            x / solves.len() as f64
        }
    };
    sheet.put("mc.solve_ms", "ms", mean(|s| s.solve), "");
    sheet.put(
        "mc.sweeps",
        "count",
        per_solve(sweeps as f64),
        &format!("mean of {} solves", solves.len()),
    );
    sheet.put(
        "mc.sweep_ms",
        "ms",
        if sweeps == 0 {
            0.0
        } else {
            solve_ms / sweeps as f64
        },
        "",
    );
    let converged = solves.iter().filter(|s| s.converged).count();
    sheet.put(
        "mc.converged_frac",
        "ratio",
        per_solve(converged as f64),
        "",
    );
    sheet.put("shapley.self_ms", "ms", mean(|s| s.shapley_self), "");
    let speculative: u64 = traced.tmc_cells.iter().map(|c| c.0).sum();
    let lazy: u64 = traced.tmc_cells.iter().map(|c| c.1).sum();
    let wasted = speculative.saturating_sub(lazy);
    sheet.put(
        "shapley.tmc_wasted_cells",
        "count",
        wasted as f64,
        &format!(
            "{speculative} speculative vs {lazy} lazy over {} worlds",
            traced.tmc_cells.len()
        ),
    );
    sheet.put(
        "shapley.tmc_waste_ratio",
        "ratio",
        if speculative == 0 {
            0.0
        } else {
            wasted as f64 / speculative as f64
        },
        "",
    );
    sheet.put("cache.trace_ms", "ms", mean(|s| s.trace), "");
    sheet.put("cache.attach_ms", "ms", mean(|s| s.attach), "");
    sheet.put("cache.flush_ms", "ms", mean(|s| s.flush), "");
    let disk_warm: u64 = jobs.iter().map(|j| j.disk_warm_cells).sum();
    sheet.put("cache.disk_warm_cells", "count", disk_warm as f64, "");
    let reused = jobs.iter().filter(|j| j.world_reused).count();
    sheet.put("cache.world_reused_frac", "ratio", reused as f64 / n, "");
    sheet.put(
        "cache.evictions",
        "count",
        traced.cache.evictions as f64,
        "",
    );
    sheet.put(
        "cache.corrupt_events",
        "count",
        traced.cache.corrupt_events as f64,
        "",
    );

    let mut by_method: Vec<(&str, f64)> = Vec::new();
    for job in jobs {
        let coverage = job.split.total() / job.wall_ms;
        match by_method.iter_mut().find(|(m, _)| *m == job.method) {
            Some((_, worst)) => *worst = worst.min(coverage),
            None => by_method.push((&job.method, coverage)),
        }
    }
    for (method, coverage) in &by_method {
        println!("  stage coverage {method:<14} {coverage:.4}");
        if *coverage < 0.95 {
            problems.push(format!(
                "stage coverage of {method} is {coverage:.4}, below 0.95"
            ));
        }
    }
    let worst = by_method
        .iter()
        .map(|(_, c)| *c)
        .fold(f64::INFINITY, f64::min);
    sheet.put(
        "bench.stage_coverage",
        "ratio",
        worst,
        "lowest over methods",
    );
    let untraced_wall: f64 = untraced.jobs.iter().map(|j| j.wall_ms).sum();
    sheet.put(
        "bench.trace_overhead",
        "ratio",
        wall / untraced_wall - 1.0,
        &format!("traced {wall:.1} ms vs untraced {untraced_wall:.1} ms"),
    );
    if workload == Workload::WarmRepeat {
        for job in jobs.iter().filter(|j| !j.first_of_world) {
            if job.cells_evaluated > 0 || job.cell_hits == 0 {
                problems.push(format!(
                    "warm {} job evaluated {} cells with {} hits after its world's first job",
                    job.method, job.cells_evaluated, job.cell_hits
                ));
            }
        }
    }
    problems
}

/// Writes the traced replay's spans, one JSON object a line.
fn write_spans(dir: &Path, workload: Workload, traced: &ReplayOut) -> Result<(), String> {
    let path = dir.join(format!("spans-{}.jsonl", workload.name()));
    let mut text = String::new();
    for s in &traced.spans {
        text.push_str(&format!(
            "{{\"job\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}\n",
            s.job,
            s.name,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6
        ));
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
