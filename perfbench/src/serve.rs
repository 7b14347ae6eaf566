//! The `serve_jobs` workload: an in-process `Server` with one worker and a
//! file-backed result cache, driven by one closed-loop `Client`.
//!
//! Each iteration submits two fresh-seeded 4-cell jobs — a replicated
//! sweep (fetching its report) and a `[compare]` sweep (fetching its
//! comparison) — so every cell simulates and is appended to the cache log
//! (the cold round). It then resubmits both (the cached round): zero cells
//! may simulate, and the fetched bytes must equal the cold twin's apart
//! from the run-level fields (job id, wall clock).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use malec_bench::goldens::{scenario_configs, SCENARIO_GOLDEN_DIGESTS, SCENARIO_INSTS};
use malec_bench::DEFAULT_SEED;
use malec_core::{digest, RunSummary};
use malec_serve::{
    cache_key, parse_spec, Client, Engine, ResultCache, RetryPolicy, Server, ServerHandle,
};
use malec_trace::replicate_seed;
use malec_trace::scenario::{preset_named, presets};
use malec_trace::splitmix64;

use crate::report::{Checks, Report};
use crate::sim::Cell;
use crate::spans::{SpanLog, Tracer};
use crate::stats::{OpTimes, Samples};

/// Instructions per serve cell at full size: a cold job takes a few ms,
/// short enough for each job kind's fastest repetition to escape the
/// host's stalls, while simulation still dominates it.
pub const SERVE_INSTS: u64 = 2_000;

/// Iterations whose jobs the traced run simulates again in-process.
const TRACED_ITERATIONS: u64 = 4;

/// Replicates (shared seeds) per job: 2 configs × 2 seeds = 4 cells.
const SEEDS: u32 = 2;

/// Iterations after which `peak_rss_mb` is read: the server retains every
/// result, so memory grows with the number of iterations, which a fixed
/// count keeps independent of host speed.
const RSS_ITERATIONS: u64 = 8;

/// Longest any one job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server with its cache log in a private directory.
pub struct Rig {
    dir: PathBuf,
    handle: Option<ServerHandle>,
    client: Client,
    policy: RetryPolicy,
}

impl Rig {
    /// Binds an ephemeral port with one worker over `dir/results.log` and
    /// waits until the server answers its health check.
    pub fn start(dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let server = Server::bind("127.0.0.1:0", Some(1), Some(&dir.join("results.log")))
            .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        // Status polls at a steady 1 ms, so latency is not quantised at
        // the 50 ms default cadence.
        let policy = RetryPolicy {
            poll_interval: Duration::from_millis(1),
            poll_max: Duration::from_millis(1),
            ..RetryPolicy::none()
        };
        let client = Client::new(handle.addr().to_string()).with_retry(policy);
        let rig = Self {
            dir,
            handle: Some(handle),
            client,
            policy,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !rig.client.healthy() {
            if Instant::now() > deadline {
                return Err("server never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(rig)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shuts the server down, joins it and removes its directory.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let asked = self.client.shutdown();
        let joined = handle.join().map_err(|e| format!("server exit: {e}"));
        let _ = std::fs::remove_dir_all(&self.dir);
        asked.and(joined)
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The inputs of a serve run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload seed every job seed derives from.
    pub seed: u64,
    /// Instructions per cell.
    pub insts: u64,
    /// Cached rounds after each cold round.
    pub cached_rounds: u32,
}

/// What a job's result is fetched as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fetch {
    Report,
    Compare,
}

/// One job of an iteration.
#[derive(Clone, Debug)]
struct Job {
    text: String,
    fetch: Fetch,
    preset: &'static str,
    seed: u64,
}

impl Job {
    fn cells(&self, insts: u64) -> Vec<Cell> {
        let scenario = preset_named(self.preset).expect("preset exists");
        (0..SEEDS)
            .flat_map(|r| {
                let scenario = scenario.clone();
                scenario_configs().into_iter().map(move |cfg| {
                    Cell::new(
                        scenario.clone().into(),
                        cfg,
                        insts,
                        replicate_seed(self.seed, r),
                    )
                })
            })
            .collect()
    }
}

const PRESETS: [&str; 5] = [
    "phased_compress_decode",
    "mixed_int_media_thrash",
    "tlb_thrash",
    "bank_conflict",
    "store_burst",
];

fn spec_text(preset: &str, seed: u64, insts: u64, seeds: u32, compare: bool) -> String {
    let compare = if compare {
        "[compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\nalpha = 0.05\n"
    } else {
        ""
    };
    format!(
        "[scenario]\nmode = \"preset\"\npreset = \"{preset}\"\n{compare}[sweep]\n\
         configs = [\"Base1ldst\", \"MALEC\"]\ninsts = {insts}\nseed = {seed}\nseeds = {seeds}\n"
    )
}

/// The kind of job `k` of iteration `i`: its preset and what it fetches.
/// Jobs of one kind differ only in their seed.
fn job_kind(i: u64, k: usize) -> usize {
    k * PRESETS.len() + (i % PRESETS.len() as u64) as usize
}

/// The two fresh-seeded jobs of iteration `i`.
fn iteration_jobs(seed: u64, i: u64, insts: u64) -> [Job; 2] {
    let job = |k: u64, fetch: Fetch| {
        let preset = PRESETS[((i + 2 * k) % PRESETS.len() as u64) as usize];
        // Spec seeds are TOML integers: keep them well inside i64.
        let seed = splitmix64(seed ^ (2 * i + k).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 33;
        Job {
            text: spec_text(preset, seed, insts, SEEDS, fetch == Fetch::Compare),
            fetch,
            preset,
            seed,
        }
    };
    [job(0, Fetch::Report), job(1, Fetch::Compare)]
}

/// Drops the run-level fields (job id, wall clock, rate) that legitimately
/// differ between a cold job and its cached twin.
fn comparable(bytes: &str) -> String {
    bytes
        .lines()
        .filter(|l| {
            let l = l.trim_start();
            !(l.starts_with("\"spec\":")
                || l.starts_with("\"wall_seconds\":")
                || l.starts_with("\"cells_per_sec\":"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One finished job as the client saw it.
struct JobRun {
    ms: f64,
    cells: u64,
    simulated: u64,
    served_without_simulation: u64,
    bytes: String,
    polls: u32,
    submit_ms: f64,
    fetch_ms: f64,
}

/// Submit, poll at the client's cadence until terminal, fetch the result.
fn run_job(
    rig: &Rig,
    text: &str,
    fetch: Fetch,
    tracer: &mut Tracer<'_>,
    id: u64,
) -> Result<JobRun, String> {
    let client = &rig.client;
    let t0 = Instant::now();
    let root = tracer.open("job", None, id);
    let span = tracer.open("serve.http.submit", root, id);
    let job_id = client.submit(text)?;
    tracer.close(span);
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut polls = 0u32;
    let view = loop {
        let span = tracer.open("serve.http.poll", root, id);
        let view = client.status(job_id)?;
        tracer.close(span);
        polls += 1;
        if view.is_terminal() {
            break view;
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!(
                "job {job_id} still {} after {JOB_TIMEOUT:?}",
                view.state
            ));
        }
        let span = tracer.open("serve.wait", root, id);
        std::thread::sleep(rig.policy.poll_cadence(polls - 1));
        tracer.close(span);
    };
    if view.state != "done" {
        return Err(format!(
            "job {job_id} {}: {}",
            view.state,
            view.error.unwrap_or_default()
        ));
    }
    let t_fetch = Instant::now();
    let span = tracer.open("serve.report.fetch", root, id);
    let bytes = match fetch {
        Fetch::Report => client.report(job_id)?,
        Fetch::Compare => client.compare(job_id)?,
    };
    tracer.close(span);
    tracer.close(root);
    Ok(JobRun {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        cells: view.cells,
        simulated: view.simulated,
        served_without_simulation: view.served_without_simulation(),
        bytes,
        polls,
        submit_ms,
        fetch_ms: t_fetch.elapsed().as_secs_f64() * 1e3,
    })
}

/// Sums over the jobs of a serve run.
#[derive(Debug, Default)]
pub struct ServeAcc {
    cold_ms: Samples,
    cached_ms: OpTimes,
    submit_ms: Samples,
    fetch_ms: Samples,
    report_bytes: Samples,
    polls: Samples,
    healthz_ms: Samples,
    parse_us: Samples,
    cold_cells: u64,
    cold_hits: u64,
    cached_cells: u64,
    cached_hits: u64,
    simulated_insts: u64,
    jobs: u64,
    iteration_s: Samples,
    traced_iteration_s: Samples,
    /// Peak resident set after the first [`RSS_ITERATIONS`] iterations.
    rss_mb: f64,
    /// The jobs of the first [`TRACED_ITERATIONS`] iterations (their cells
    /// are simulated again in-process by the traced run).
    first_jobs: Vec<Job>,
}

/// Runs one iteration: the cold round, then `cached_rounds` cached rounds.
fn iteration(
    rig: &Rig,
    plan: &Plan,
    i: u64,
    tracer: &mut Tracer<'_>,
    acc: &mut ServeAcc,
    checks: &mut Checks,
) {
    let t = Instant::now();
    let jobs = iteration_jobs(plan.seed, i, plan.insts);
    if i < TRACED_ITERATIONS {
        acc.first_jobs.extend_from_slice(&jobs);
    }
    if tracer.is_on() {
        let span = tracer.open("serve.http.healthz", None, i);
        let h = Instant::now();
        checks.check(rig.client.healthy(), || "healthz failed".to_owned());
        acc.healthz_ms.push(h.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        for job in &jobs {
            let span = tracer.open("serve.spec.parse", None, i);
            let p = Instant::now();
            let parsed = black_box(parse_spec(&job.text));
            acc.parse_us.push(p.elapsed().as_secs_f64() * 1e6);
            tracer.close(span);
            checks.check(parsed.is_ok(), || format!("spec rejected: {}", job.text));
        }
    }
    let mut cold: Vec<Option<String>> = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        let id = acc.jobs;
        let Some(run) = checks.result(run_job(rig, &job.text, job.fetch, tracer, id)) else {
            cold.push(None);
            continue;
        };
        acc.record(&run);
        acc.cold_ms.push(run.ms);
        acc.cold_cells += run.cells;
        acc.cold_hits += run.served_without_simulation;
        acc.simulated_insts += run.simulated * plan.insts;
        checks.check(
            run.simulated == run.cells && run.cells == 2 * u64::from(SEEDS),
            || {
                format!(
                    "cold job {i}.{k}: {} of {} cells simulated",
                    run.simulated, run.cells
                )
            },
        );
        cold.push(Some(comparable(&run.bytes)));
    }
    for _ in 0..plan.cached_rounds {
        for (k, (job, cold)) in jobs.iter().zip(&cold).enumerate() {
            let id = acc.jobs;
            let Some(run) = checks.result(run_job(rig, &job.text, job.fetch, tracer, id)) else {
                continue;
            };
            acc.record(&run);
            acc.cached_ms.push(job_kind(i, k), &[run.ms]);
            acc.cached_cells += run.cells;
            acc.cached_hits += run.served_without_simulation;
            checks.check(
                run.simulated == 0 && run.served_without_simulation == run.cells,
                || format!("cached job {i}.{k} simulated {} cells", run.simulated),
            );
            checks.check(
                cold.as_deref() == Some(comparable(&run.bytes).as_str()),
                || format!("cached job {i}.{k}: result bytes differ from the cold twin"),
            );
        }
    }
    let s = t.elapsed().as_secs_f64();
    if tracer.is_on() {
        acc.traced_iteration_s.push(s);
    } else {
        acc.iteration_s.push(s);
    }
}

impl ServeAcc {
    fn record(&mut self, run: &JobRun) {
        self.jobs += 1;
        self.submit_ms.push(run.submit_ms);
        self.fetch_ms.push(run.fetch_ms);
        self.report_bytes.push(run.bytes.len() as f64);
        self.polls.push(f64::from(run.polls));
    }

    /// Cells of the first iterations' jobs, for in-process simulation.
    pub fn first_cells(&self, insts: u64) -> Vec<Cell> {
        self.first_jobs
            .iter()
            .flat_map(|j| j.cells(insts))
            .collect()
    }
}

/// At the default seed: serve every scenario golden cell through the
/// server and check each fetched record's digest against the recorded
/// table.
pub fn check_goldens(rig: &Rig, checks: &mut Checks) -> usize {
    let mut checked = 0;
    for scenario in presets() {
        let text = spec_text(&scenario.name, DEFAULT_SEED, SCENARIO_INSTS, 1, false);
        let served = run_job(rig, &text, Fetch::Report, &mut Tracer(None), 0);
        if checks.result(served).is_none() {
            continue;
        }
        for cfg in scenario_configs() {
            let key = cache_key(&cfg, &scenario, SCENARIO_INSTS, DEFAULT_SEED, 0);
            let want = SCENARIO_GOLDEN_DIGESTS
                .iter()
                .find(|&&(s, c, _)| s == scenario.name && c == cfg.label())
                .map(|&(_, _, d)| d);
            let got = checks
                .result(rig.client.fetch_record(key))
                .map(|s| digest(&s));
            checks.check(got.is_some() && got == want, || {
                format!(
                    "{}/{}: served record differs from the golden",
                    scenario.name,
                    cfg.label()
                )
            });
            checked += 1;
        }
    }
    checked
}

/// Iterations until `seconds` have elapsed (at least one), with `between`
/// called after every iteration. With a span log attached, untraced and
/// traced iterations alternate and the traced ones record spans.
pub fn measure(
    rig: &Rig,
    plan: &Plan,
    seconds: f64,
    mut log: Option<&mut SpanLog>,
    between: &mut dyn FnMut(),
    checks: &mut Checks,
) -> ServeAcc {
    let mut acc = ServeAcc::default();
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let traced = log.is_some() && i % 2 == 1;
        let mut tracer = Tracer(if traced { log.as_deref_mut() } else { None });
        iteration(rig, plan, i, &mut tracer, &mut acc, checks);
        between();
        i += 1;
        if i <= RSS_ITERATIONS {
            acc.rss_mb = crate::host::peak_rss_mb();
        }
        let need = if log.is_some() { 2 } else { 1 };
        if i >= need && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    acc
}

impl ServeAcc {
    /// The end-to-end view: `op` is the cached job.
    pub fn report(&self, wall_s: f64, report: &mut Report) {
        report.timing(
            "job_cold_ms",
            "ms",
            &self.cold_ms,
            "submit to result bytes, every cell simulated",
        );
        report.timing(
            "job_cached_ms",
            "ms",
            self.cached_ms.all(),
            "submit to result bytes, zero cells simulated",
        );
        report.op_timing(
            &self.cached_ms,
            "cached job (kind: preset x report/compare)",
        );
        report.set("jobs_per_s", self.jobs as f64 / wall_s, "1/s");
        report.set("peak_rss_mb", self.rss_mb, "MiB");
        report.set(
            "sim_minst_per_s",
            self.simulated_insts as f64 / 1e6 / (self.cold_ms.sum() / 1e3),
            "Minst/s",
        );
    }

    /// The per-layer view of the serve layer.
    pub fn report_layers(&self, report: &mut Report) {
        report.set("serve.http.healthz_ms", self.healthz_ms.median(), "ms");
        report.set("serve.spec.parse_us", self.parse_us.median(), "us");
        report.set("serve.scheduler.submit_ms", self.submit_ms.median(), "ms");
        report.set(
            "serve.scheduler.polls_per_job",
            self.polls.mean(),
            "polls/job",
        );
        report.set("serve.report.fetch_ms", self.fetch_ms.median(), "ms");
        report.set("serve.report.bytes", self.report_bytes.mean(), "B");
        let ratio = |hits: u64, cells: u64| hits as f64 / cells.max(1) as f64;
        report.set(
            "serve.cache.hit_ratio",
            ratio(self.cached_hits, self.cached_cells),
            "ratio",
        );
        report.set(
            "serve.cache.hit_ratio.cold",
            ratio(self.cold_hits, self.cold_cells),
            "ratio",
        );
    }

    /// Traced against untraced iteration time, when both ran.
    pub fn tracing_overhead(&self) -> Option<f64> {
        (!self.iteration_s.is_empty() && !self.traced_iteration_s.is_empty())
            .then(|| self.traced_iteration_s.median() / self.iteration_s.median() - 1.0)
    }

    /// The spec text of the first job submitted.
    pub fn first_spec(&self) -> Option<&str> {
        self.first_jobs.first().map(|j| j.text.as_str())
    }
}

/// `serve.engine.job_ms`: one cached spec through `Engine::submit` /
/// `job_report` in-process, no HTTP.
pub fn engine_probe(text: &str, log: &mut SpanLog, report: &mut Report, checks: &mut Checks) {
    let Some(spec) = checks.result(parse_spec(text).map_err(|e| e.to_string())) else {
        return;
    };
    let Some(engine) = checks.result(Engine::new(Some(1), None).map_err(|e| e.to_string())) else {
        return;
    };
    let wait = |job| -> Result<String, String> {
        let t = Instant::now();
        loop {
            match engine.job_report(job) {
                Some(Ok(bytes)) => return Ok(bytes),
                Some(Err(status)) if status.state == "running" && t.elapsed() < JOB_TIMEOUT => {
                    std::thread::yield_now();
                }
                Some(Err(status)) => return Err(format!("engine job {}", status.state)),
                None => return Err("engine lost the job".to_owned()),
            }
        }
    };
    checks.result(wait(engine.submit(spec.clone())));
    let mut ms = Samples::default();
    for r in 0..20 {
        let span = log.open("serve.engine.job", None, r);
        let t = Instant::now();
        let ok = checks.result(wait(engine.submit(spec.clone())));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.close(span);
        if ok.is_none() {
            break;
        }
    }
    engine.shutdown();
    report.set("serve.engine.job_ms", ms.median(), "ms");
}

/// `serve.cache.append_us` / `lookup_us` / `log_bytes_per_cell`: the
/// summaries appended through `ResultCache::insert_persist` to a temp log,
/// then looked up.
pub fn cache_probe(
    dir: &Path,
    summaries: &[RunSummary],
    log: &mut SpanLog,
    report: &mut Report,
    checks: &mut Checks,
) {
    let path = dir.join("probe.log");
    let Some(mut cache) = checks.result(ResultCache::open(&path).map_err(|e| e.to_string())) else {
        return;
    };
    let key = |i: usize| (i as u128 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
    let mut append_us = Samples::default();
    for (i, s) in summaries.iter().enumerate() {
        let span = log.open("serve.cache.append", None, i as u64);
        let t = Instant::now();
        let ok = cache.insert_persist(key(i), Arc::new(s.clone()));
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        log.close(span);
        checks.result(ok.map_err(|e| e.to_string()));
    }
    let mut lookup_us = Samples::default();
    for round in 0..64 {
        let span = log.open("serve.cache.lookup", None, round);
        let t = Instant::now();
        let mut hits = 0;
        for i in 0..summaries.len() {
            hits += usize::from(black_box(cache.lookup(key(i))).is_some());
        }
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6 / summaries.len().max(1) as f64);
        log.close(span);
        checks.check(hits == summaries.len(), || "cache lookup missed".to_owned());
    }
    let bytes = cache.stats().bytes_appended;
    drop(cache);
    let _ = std::fs::remove_file(&path);
    report.set("serve.cache.append_us", append_us.median(), "us");
    report.set("serve.cache.lookup_us", lookup_us.median(), "us");
    report.set(
        "serve.cache.log_bytes_per_cell",
        bytes as f64 / summaries.len().max(1) as f64,
        "B/cell",
    );
}
