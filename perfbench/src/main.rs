//! `malec-perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_matrix --seed 2013 --seconds 10 --trace 0
//! ```
//!
//! Workloads (all single-process, serial simulation, one client):
//!
//! * `paper_matrix` — 8 representative benchmarks × the 3 Table I configs
//!   at 120 k instructions, serial through `Simulator::run_trace`;
//! * `scenario_stress` — the 5 preset scenarios × {Base1ldst, MALEC} at
//!   40 k instructions, serial;
//! * `serve_jobs` — an in-process server (1 worker, file-backed cache) and
//!   one closed-loop client; each iteration submits two fresh-seeded 4-cell
//!   jobs (the cold round) and then resubmits them four times (the cached
//!   rounds).
//!
//! The unit of work (`op`) is a cell, or for `serve_jobs` a cached job.
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` is the
//! separate traced run giving the per-layer metrics and the span
//! self-time table. A human-readable report goes to stdout first; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Files are written only under `--out DIR`, when given;
//! scratch files (the serve cache logs) live under `.perfbench_tmp/` in the
//! working directory and are removed before exit.

mod host;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use malec_bench::goldens::SCENARIO_INSTS;
use malec_bench::{DEFAULT_INSTS, DEFAULT_SEED};

use host::HostFacts;
use report::{Checks, Report};
use serve::Rig;
use spans::SpanLog;
use stats::Samples;

/// The end-to-end metrics every workload prints untraced (as listed in
/// `BENCHMARK.json`).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "op_ms_p50",
    "op_ms_p90",
    "ops_per_s",
    "peak_rss_mb",
];

/// The per-layer metrics every workload prints traced (as listed in
/// `BENCHMARK.json`).
const PER_LAYER: [&str; 49] = [
    "trace.gen_ns_per_inst",
    "cpu.self_ns_per_inst.Base1ldst",
    "cpu.self_ns_per_inst.MALEC",
    "cpu.stub_ns_per_inst.Base1ldst",
    "cpu.stub_ns_per_inst.MALEC",
    "cpu.stub_cycles_per_kinst.Base1ldst",
    "cpu.stub_cycles_per_kinst.MALEC",
    "cpu.cycles_per_kinst.Base1ldst",
    "cpu.cycles_per_kinst.MALEC",
    "cpu.issued_per_cycle.Base1ldst",
    "cpu.issued_per_cycle.MALEC",
    "cpu.agu_stall_cycles_per_kinst.Base1ldst",
    "cpu.agu_stall_cycles_per_kinst.MALEC",
    "core.iface_self_ns_per_inst.Base1ldst",
    "core.iface_self_ns_per_inst.MALEC",
    "core.iface_calls_per_inst.Base1ldst",
    "core.iface_calls_per_inst.MALEC",
    "core.load_accept_ratio.Base1ldst",
    "core.load_accept_ratio.MALEC",
    "core.store_accept_ratio.Base1ldst",
    "core.store_accept_ratio.MALEC",
    "core.l1_miss_rate.Base1ldst",
    "core.l1_miss_rate.MALEC",
    "core.utlb_miss_rate.Base1ldst",
    "core.utlb_miss_rate.MALEC",
    "core.translations_per_kinst.Base1ldst",
    "core.translations_per_kinst.MALEC",
    "core.merged_load_frac.Base1ldst",
    "core.merged_load_frac.MALEC",
    "core.held_load_cycles_per_kinst.Base1ldst",
    "core.held_load_cycles_per_kinst.MALEC",
    "energy.evaluate_us",
    "serve.http.healthz_ms",
    "serve.spec.parse_us",
    "serve.scheduler.submit_ms",
    "serve.scheduler.polls_per_job",
    "serve.cache.lookup_us",
    "serve.cache.append_us",
    "serve.cache.log_bytes_per_cell",
    "serve.cache.hit_ratio",
    "serve.report.fetch_ms",
    "serve.report.bytes",
    "serve.engine.job_ms",
    "bench.tracing_overhead_frac",
    "model.malec_time_vs_base1",
    "model.malec_dyn_energy_vs_base1",
    "model.wt_coverage",
    "host.instant_pair_ns",
    "host.measured_parallelism",
];

const WORKLOADS: [&str; 3] = ["paper_matrix", "scenario_stress", "serve_jobs"];

/// Cached rounds after each cold round of `serve_jobs`.
const CACHED_ROUNDS: u32 = 4;

/// Set-ups timed after every pass of a simulation workload. Set-ups are
/// spread over the run, so `setup_s` (their median) samples the host's
/// state across it rather than in one burst.
const SIM_SETUPS_PER_PASS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    tiny: bool,
}

const USAGE: &str = "usage: malec-perfbench --workload <paper_matrix|scenario_stress|serve_jobs> \
     [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| bad("unknown workload"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// Instructions per cell for each workload (`--tiny` shrinks them all).
fn insts_per_cell(workload: &str, tiny: bool) -> u64 {
    match (workload, tiny) {
        ("paper_matrix", false) => DEFAULT_INSTS,
        ("scenario_stress", false) => SCENARIO_INSTS,
        (_, false) => serve::SERVE_INSTS,
        (_, true) => 1_500,
    }
}

/// Everything one run measured.
struct Outcome {
    report: Report,
    checks: Checks,
    log: Option<SpanLog>,
}

fn run(args: &Args, host: &HostFacts, scratch: &Path) -> Result<Outcome, String> {
    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut log = args.trace.then(SpanLog::new);
    let insts = insts_per_cell(args.workload, args.tiny);
    let mut setup = Samples::default();
    let cpu0 = host::cpu_seconds();
    let wall0 = Instant::now();

    match args.workload {
        "paper_matrix" | "scenario_stress" => {
            let build = |setup: &mut Samples| {
                let t = Instant::now();
                let cells = black_box(match args.workload {
                    "paper_matrix" => sim::paper_matrix(args.seed, insts),
                    _ => sim::scenario_stress(args.seed, insts),
                });
                cells.iter().for_each(sim::Cell::instantiate);
                setup.push(t.elapsed().as_secs_f64());
                cells
            };
            let cells = build(&mut setup);
            match log.as_mut() {
                None => {
                    let mut between = || {
                        for _ in 0..SIM_SETUPS_PER_PASS {
                            build(&mut setup);
                        }
                    };
                    sim::measure(&cells, args.seconds, &mut between, &mut report, &mut checks);
                }
                Some(log) => {
                    let acc = sim::measure_traced(
                        &cells,
                        args.seconds,
                        host.instant_pair_ns,
                        log,
                        &mut checks,
                    );
                    acc.report(&mut report);
                    // The serve layer, probed with `serve_jobs`' jobs.
                    let rig = Rig::start(scratch.join("probe"))?;
                    let plan = serve::Plan {
                        seed: args.seed,
                        insts: insts_per_cell("serve_jobs", args.tiny),
                        cached_rounds: 1,
                    };
                    let sacc = serve::measure(&rig, &plan, 0.0, Some(log), &mut || {}, &mut checks);
                    sacc.report_layers(&mut report);
                    if let Some(spec) = sacc.first_spec() {
                        serve::engine_probe(spec, log, &mut report, &mut checks);
                    }
                    serve::cache_probe(rig.dir(), &acc.summaries, log, &mut report, &mut checks);
                    rig.stop()?;
                }
            }
        }
        _ => {
            let start_rig = |setup: &mut Samples, name: String| -> Result<Rig, String> {
                let t = Instant::now();
                let rig = Rig::start(scratch.join(name))?;
                setup.push(t.elapsed().as_secs_f64());
                Ok(rig)
            };
            let rig = start_rig(&mut setup, "serve".to_owned())?;
            if args.seed == DEFAULT_SEED && !args.tiny {
                let n = serve::check_goldens(&rig, &mut checks);
                report.note(format!("golden digests checked through the server: {n}"));
            }
            let plan = serve::Plan {
                seed: args.seed,
                insts,
                cached_rounds: CACHED_ROUNDS,
            };
            let t = Instant::now();
            let acc = match log.as_mut() {
                None => {
                    // One more set-up (and tear-down) after every iteration.
                    let mut failed = None;
                    let mut between =
                        || match start_rig(&mut setup, "setup".to_owned()).and_then(Rig::stop) {
                            Ok(()) => {}
                            Err(e) => failed = Some(e),
                        };
                    let acc =
                        serve::measure(&rig, &plan, args.seconds, None, &mut between, &mut checks);
                    if let Some(e) = failed {
                        return Err(e);
                    }
                    acc
                }
                Some(log) => {
                    let acc = serve::measure(
                        &rig,
                        &plan,
                        args.seconds,
                        Some(&mut *log),
                        &mut || {},
                        &mut checks,
                    );
                    acc.report_layers(&mut report);
                    if let Some(spec) = acc.first_spec() {
                        serve::engine_probe(spec, log, &mut report, &mut checks);
                    }
                    // The simulation layers, on the cells the server simulated.
                    let cells = acc.first_cells(insts);
                    let sacc =
                        sim::measure_traced(&cells, 0.0, host.instant_pair_ns, log, &mut checks);
                    sacc.report(&mut report);
                    serve::cache_probe(rig.dir(), &sacc.summaries, log, &mut report, &mut checks);
                    if let Some(overhead) = acc.tracing_overhead() {
                        report.set("bench.tracing_overhead_frac", overhead, "frac");
                    }
                    acc
                }
            };
            acc.report(t.elapsed().as_secs_f64(), &mut report);
            rig.stop()?;
        }
    }

    // The 24 benchmark goldens are checked on every workload at the
    // recorded seed (`paper_matrix` checks them on its own first pass),
    // after the measurement so that it sees none of their memory.
    if args.seed == DEFAULT_SEED && !args.tiny && args.workload != "paper_matrix" {
        let n = sim::check_paper_goldens(&mut checks, &mut report);
        report.note(format!("paper_matrix golden digests checked: {n}"));
    }

    let wall = wall0.elapsed().as_secs_f64();
    report.set("setup_s", setup.median(), "s");
    report.note(format!("setup_s: median of {} set-ups", setup.len()));
    report.set("host.peak_rss_end_mb", host::peak_rss_mb(), "MiB");
    report.set("host.nproc", host.nproc as f64, "count");
    report.set("host.instant_pair_ns", host.instant_pair_ns, "ns");
    report.set(
        "host.measured_parallelism",
        (host::cpu_seconds() - cpu0) / wall,
        "cpus",
    );
    report.set("bench.error_rate", checks.error_rate(), "ratio");
    Ok(Outcome {
        report,
        checks,
        log,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("malec-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::probe();
    let scratch_root = PathBuf::from(".perfbench_tmp");
    let scratch = scratch_root.join(format!("{}", std::process::id()));
    let outcome = run(&args, &host, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&scratch_root);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("malec-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut text = format!(
        "malec-perfbench workload={} seed={} seconds={} trace={}{}\n\
         host: nproc {} | Instant pair {:.1} ns | {} | profile {} | simulation serial, \
         server 1 worker + 1 client\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { " (tiny inputs)" } else { "" },
        host.nproc,
        host.instant_pair_ns,
        host.rustc,
        host.profile,
    );
    text.push_str(&outcome.report.render());
    if let Some(log) = &outcome.log {
        text.push_str("span self time (traced run; estimated spans are sampled and scaled):\n");
        text.push_str(&log.render_table());
    }
    let c = &outcome.checks;
    text.push_str(&format!(
        "checks: {} attempted, {} failed (error_rate {:.6}); run took {:.2} s\n",
        c.attempted,
        c.failed,
        c.error_rate(),
        started.elapsed().as_secs_f64()
    ));
    for m in &c.messages {
        text.push_str(&format!("  FAILED: {m}\n"));
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = match outcome.report.json(names, c) {
        Ok(line) => line,
        Err(e) => {
            print!("{text}");
            eprintln!("malec-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{text}");
    println!("{line}");

    if let Some(dir) = &args.out {
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("report.txt"), &text))
            .and_then(|()| std::fs::write(dir.join("result.json"), format!("{line}\n")))
            .and_then(|()| match &outcome.log {
                Some(log) => std::fs::write(dir.join("spans.jsonl"), log.to_jsonl()),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("malec-perfbench: writing {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
