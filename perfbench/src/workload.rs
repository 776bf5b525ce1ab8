//! The three workloads, driven over real sockets against `fedval_serve`.
//!
//! Every job is timed the way clients and the CI smoke time it: `POST
//! /jobs`, then read `/jobs/{id}/events` until the stream closes, then
//! `GET /jobs/{id}` for the document with the values. Nothing polls.

use crate::http::{self, Server};
use crate::json;
use fedval_runtime::JobClass;
use fedval_service::{JobManager, JobSpec};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// The scenarios of the two sweep workloads: free riders and a mixed
/// adversary world on the logistic task, label skew on the image task.
pub const SWEEP_SCENARIOS: [&str; 3] = ["free_riders", "dirichlet_skew", "mixed"];

/// Arrival rate of the flood's interactive tenant: 20 s of it yield the
/// ≥100 samples a p90 needs.
pub const INTERACTIVE_PER_S: f64 = 6.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ColdSweep,
    WarmRepeat,
    InteractiveUnderFlood,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdSweep,
        Workload::WarmRepeat,
        Workload::InteractiveUnderFlood,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmRepeat => "warm_repeat",
            Workload::InteractiveUnderFlood => "interactive_under_flood",
        }
    }
}

/// Who submitted a job. The sweep client of the closed-loop workloads
/// is both the latency tenant and the throughput tenant; its warm-up
/// jobs are checked but not measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tenant {
    WarmUp,
    Sweep,
    Interactive,
    Batch,
}

impl Tenant {
    /// Whether this tenant's latency is the workload's job latency.
    pub fn foreground(self) -> bool {
        matches!(self, Tenant::Sweep | Tenant::Interactive)
    }

    /// Whether this tenant's cells are the workload's cell throughput.
    pub fn background(self) -> bool {
        matches!(self, Tenant::Sweep | Tenant::Batch)
    }
}

/// One job as the client saw it.
pub struct JobRun {
    pub spec: JobSpec,
    pub tenant: Tenant,
    /// The closed-loop pass the job was sent in; 0 on the open loop.
    pub pass: u64,
    /// When the job was due: its slot in the open-loop schedule, or the
    /// moment a closed-loop client was ready to send it.
    pub due: Instant,
    pub posted: Instant,
    /// When the `POST /jobs` reply arrived.
    pub accepted: Instant,
    /// When the events stream closed.
    pub closed: Instant,
    /// The job document, or why there is none (refused, timed out, …).
    pub doc: Result<String, String>,
}

/// What a finished job document says.
pub struct JobDoc {
    pub values: Vec<f64>,
    pub queued_ms: f64,
    pub run_ms: f64,
    pub cells_computed: u64,
    pub cell_hits: u64,
}

impl JobRun {
    /// Latency from `POST /jobs` until the events stream closed.
    pub fn job_ms(&self) -> f64 {
        ms(self.closed - self.posted)
    }

    /// Latency from when the job was due until the events stream closed.
    pub fn due_ms(&self) -> f64 {
        ms(self.closed - self.due)
    }

    /// The parsed document of a job that ended `done`.
    pub fn done(&self) -> Result<JobDoc, String> {
        let doc = json::parse(self.doc.as_ref().map_err(Clone::clone)?)?;
        let status = doc.get("status").and_then(json::Value::str).unwrap_or("?");
        if status != "done" {
            let error = doc.get("error").and_then(json::Value::str).unwrap_or("");
            return Err(format!("job ended {status}: {error}"));
        }
        let num = |v: Option<&json::Value>, what: &str| {
            v.and_then(json::Value::num)
                .ok_or_else(|| format!("job document lacks {what}"))
        };
        let cache = doc.get("cache");
        let values = doc
            .get("report")
            .and_then(|r| r.get("values"))
            .and_then(json::Value::arr)
            .ok_or("job document lacks report.values")?
            .iter()
            .map(|v| v.num().ok_or_else(|| "non-numeric value".to_string()))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(JobDoc {
            values,
            queued_ms: num(doc.get("queued_ms"), "queued_ms")?,
            run_ms: num(doc.get("run_ms"), "run_ms")?,
            cells_computed: num(
                cache.and_then(|c| c.get("cells_computed")),
                "cells_computed",
            )? as u64,
            cell_hits: num(cache.and_then(|c| c.get("cell_hits")), "cell_hits")? as u64,
        })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A 31-bit job seed: distinct per `(run seed, stream, index)`, and
/// small enough that the service's JSON reader keeps it exact.
pub fn job_seed(run_seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream << 40)
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 33
}

/// A job on a catalog scenario at its catalog size.
pub fn catalog_spec(method: &str, scenario: &str, seed: u64, class: JobClass) -> JobSpec {
    let mut spec = JobSpec::new(method);
    spec.scenario = scenario.to_string();
    spec.seed = seed;
    spec.class = class;
    spec
}

/// One pass of the sweep: every registry method on every sweep
/// scenario. `seed_of(i)` seeds the `i`-th job of the pass.
pub fn sweep_specs(seed_of: impl Fn(u64) -> u64) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for scenario in SWEEP_SCENARIOS {
        for method in JobManager::method_names() {
            let seed = seed_of(specs.len() as u64);
            specs.push(catalog_spec(&method, scenario, seed, JobClass::Interactive));
        }
    }
    specs
}

/// The flood's batch job: `exact` at the `cache_effect` bench size
/// (4096 cells per job), cold because every job has a fresh seed.
pub fn flood_batch_spec(run_seed: u64, index: u64) -> JobSpec {
    let mut spec = JobSpec::new("exact");
    spec.seed = job_seed(run_seed, 2, index);
    spec.class = JobClass::Batch;
    spec.num_clients = Some(12);
    spec.samples_per_client = Some(60);
    spec.rounds = Some(10);
    spec.clients_per_round = Some(6);
    spec
}

/// The flood's interactive job: cold comfedsv and fedsv, alternating.
pub fn flood_interactive_spec(run_seed: u64, index: u64) -> JobSpec {
    let method = if index.is_multiple_of(2) {
        "comfedsv"
    } else {
        "fedsv"
    };
    let seed = job_seed(run_seed, 3, index);
    catalog_spec(method, "free_riders", seed, JobClass::Interactive)
}

/// The `POST /jobs` body for `spec`.
pub fn body(spec: &JobSpec) -> String {
    let mut body = format!(
        "{{\"method\": \"{}\", \"scenario\": \"{}\", \"seed\": {}, \"class\": \"{}\"",
        spec.method,
        spec.scenario,
        spec.seed,
        spec.class.name()
    );
    for (key, value) in [
        ("num_clients", spec.num_clients),
        ("samples_per_client", spec.samples_per_client),
        ("rounds", spec.rounds),
        ("clients_per_round", spec.clients_per_round),
    ] {
        if let Some(v) = value {
            body.push_str(&format!(", \"{key}\": {v}"));
        }
    }
    body.push('}');
    body
}

/// Submits `spec`, streams its events until the stream closes, then
/// fetches its document.
pub fn drive_job(addr: SocketAddr, spec: JobSpec, tenant: Tenant, due: Instant) -> JobRun {
    let posted = Instant::now();
    let mut run = JobRun {
        spec,
        tenant,
        pass: 0,
        due,
        posted,
        accepted: posted,
        closed: posted,
        doc: Err(String::new()),
    };
    run.doc = exchange(addr, &mut run);
    run
}

fn exchange(addr: SocketAddr, run: &mut JobRun) -> Result<String, String> {
    let reply = http::request(addr, "POST", "/jobs", &body(&run.spec))
        .map_err(|e| format!("submit: {e}"))?;
    run.accepted = Instant::now();
    if reply.status != 202 {
        return Err(format!("submit refused ({}): {}", reply.status, reply.body));
    }
    let id = json::parse(&reply.body)?
        .get("job")
        .and_then(json::Value::num)
        .ok_or("acceptance lacks a job id")? as u64;
    let events = http::request(addr, "GET", &format!("/jobs/{id}/events"), "")
        .map_err(|e| format!("events: {e}"))?;
    run.closed = Instant::now();
    if events.status != 200 {
        return Err(format!("events refused ({})", events.status));
    }
    let doc =
        http::request(addr, "GET", &format!("/jobs/{id}"), "").map_err(|e| format!("doc: {e}"))?;
    if doc.status != 200 {
        return Err(format!("document refused ({})", doc.status));
    }
    Ok(doc.body)
}

/// A server ready for the measured window, and how long each of the
/// repeated set-ups took.
pub struct Setup {
    pub server: Server,
    pub setup_s: Vec<f64>,
}

/// Set-up repeats, reported as their median: a bare server start takes
/// milliseconds and jitters with process start-up, a warm pre-fill takes
/// most of a second.
const COLD_SETUPS: usize = 21;
const WARM_SETUPS: usize = 3;

/// Starts the server for `workload` over a fresh cache directory
/// (several times, keeping the last): for the cold workloads a bare
/// start, for `warm_repeat` a pre-fill server that runs `prefill` and
/// drains to disk, then the measured server over the filled directory.
pub fn set_up(
    workload: Workload,
    bin: &Path,
    work: &Path,
    prefill: &[JobSpec],
) -> Result<Setup, String> {
    let reps = if workload == Workload::WarmRepeat {
        WARM_SETUPS
    } else {
        COLD_SETUPS
    };
    let mut setup_s = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let dir = work.join(format!("cache-{rep}"));
        let log = |tag: &str| work.join(format!("serve-{rep}-{tag}.log"));
        let start = Instant::now();
        if workload == Workload::WarmRepeat {
            let filler =
                Server::start(bin, &dir, &log("fill")).map_err(|e| format!("start: {e}"))?;
            for spec in prefill {
                let run = drive_job(filler.addr, spec.clone(), Tenant::Sweep, Instant::now());
                run.done()
                    .map_err(|e| format!("pre-fill job {}: {e}", body(spec)))?;
            }
            filler.stop().map_err(|e| format!("pre-fill drain: {e}"))?;
        }
        let server = Server::start(bin, &dir, &log("run")).map_err(|e| format!("start: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(server) {
            Server::stop(previous).map_err(|e| format!("stop: {e}"))?;
        }
    }
    Ok(Setup {
        server: last.expect("at least one set-up"),
        setup_s,
    })
}

/// Closed loop of one client over whole passes of `pass(k)`: a new pass
/// starts only while the window is open, so every run sends the same
/// method mix.
pub fn closed_loop(
    addr: SocketAddr,
    deadline: Instant,
    tenant: Tenant,
    pass: impl Fn(u64) -> Vec<JobSpec>,
) -> Vec<JobRun> {
    let mut runs = Vec::new();
    let mut k = 0;
    while Instant::now() < deadline {
        for spec in pass(k) {
            let mut run = drive_job(addr, spec, tenant, Instant::now());
            run.pass = k;
            runs.push(run);
        }
        k += 1;
    }
    runs
}

/// The flood: a batch tenant in a closed loop on its own thread, and an
/// interactive tenant on this thread sending on a fixed schedule. Both
/// stop sending at `deadline`; the batch job in flight then finishes.
pub fn flood(addr: SocketAddr, start: Instant, deadline: Instant, run_seed: u64) -> Vec<JobRun> {
    std::thread::scope(|scope| {
        let batch = scope.spawn(|| {
            let mut runs = Vec::new();
            let mut k = 0;
            while Instant::now() < deadline {
                let spec = flood_batch_spec(run_seed, k);
                runs.push(drive_job(addr, spec, Tenant::Batch, Instant::now()));
                k += 1;
            }
            runs
        });
        let mut runs = Vec::new();
        for k in 0.. {
            let due = start + Duration::from_secs_f64(k as f64 / INTERACTIVE_PER_S);
            if due >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let spec = flood_interactive_spec(run_seed, k);
            runs.push(drive_job(addr, spec, Tenant::Interactive, due));
        }
        runs.extend(batch.join().expect("batch tenant thread panicked"));
        runs
    })
}
