//! The record → sweep → replay-verify pipeline behind `malec-cli run`.
//!
//! One spec run does four things, in order:
//!
//! 1. **Record** — generate the scenario's instruction stream once (under
//!    the base seed) and stream it into the spec's `.mtr` file;
//! 2. **Sweep** — run the spec's cell plan ([`SweepSpec::plan`]) through
//!    [`run_plan`], capped by the operator's `--jobs N`, if given;
//!    replicate `i` simulates the generator stream under
//!    `replicate_seed(seed, i)`, and with a `ci_target` the spec's
//!    stopping rule (the same one `malec-serve` applies) decides when each
//!    configuration — or the explicit `[compare]` pair, jointly — stops;
//! 3. **Replay-verify** — replicate 0 of each configuration (the recorded
//!    seed) also simulates the `.mtr` stream and both summaries are
//!    digested: replay must be bit-identical to generation, every config;
//! 4. **Report** — write the JSON report (single-seed columns from
//!    replicate 0, mean ± CI per metric when `seeds > 1`) next to the
//!    spec's `out` path.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use malec_core::parallel::workers_for;
use malec_core::stats::ReplicateStats;
use malec_core::{run_plan, CellGroup, RunSummary, ScenarioSource, StoppingRule};
use malec_trace::TraceWriter;

use malec_serve::report::{render, CellResult, ReportMeta};
use malec_serve::spec::{parse_spec, SweepSpec};

/// Everything a finished spec run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The resolved spec.
    pub spec: SweepSpec,
    /// Per-config results in spec order (replicate 0 carries the
    /// single-seed columns; `stats` the replicate distribution).
    pub cells: Vec<CellResult>,
    /// Every replicate summary, config-major, replicate order (index 0 is
    /// the legacy seed path).
    pub replicates: Vec<Vec<RunSummary>>,
    /// Workers the parallel fan-out actually used.
    pub workers: usize,
    /// Wall-clock of the sweep (record and report excluded).
    pub wall_seconds: f64,
    /// Where the trace was recorded.
    pub mtr_path: PathBuf,
    /// Where the JSON report was written.
    pub out_path: PathBuf,
}

impl SweepOutcome {
    /// Whether every cell's replay digest matched its generator digest.
    pub fn all_replays_match(&self) -> bool {
        self.cells.iter().all(CellResult::replay_matches)
    }
}

/// Records `spec`'s scenario stream to `path` (streaming; the trace is
/// never held in memory).
///
/// # Errors
///
/// Propagates file-creation and write errors, naming the path.
pub fn record_trace(spec: &SweepSpec, path: &Path) -> Result<u64, String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = TraceWriter::new(BufWriter::new(file))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for inst in spec.scenario.generator(spec.seed).take(spec.insts as usize) {
        writer
            .write(inst)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let written = writer.written();
    writer
        .finish()
        .map_err(|e| format!("flush {}: {e}", path.display()))?;
    Ok(written)
}

/// Runs a parsed spec end to end. Paths in the spec are resolved relative
/// to `base_dir` (the process working directory for the CLI). `jobs` caps
/// the parallel fan-out (`None` uses every available core; results are
/// bit-identical at any cap).
///
/// # Errors
///
/// Returns a descriptive message on I/O failure. A replay-digest mismatch
/// is **not** an early error — the report records it and the caller decides
/// (the CLI exits nonzero so CI catches it).
pub fn run_parsed_spec(
    spec: SweepSpec,
    spec_path: &str,
    base_dir: &Path,
    jobs: Option<usize>,
) -> Result<SweepOutcome, String> {
    let mtr_path = base_dir.join(&spec.mtr);
    let out_path = base_dir.join(&spec.out);
    record_trace(&spec, &mtr_path)?;

    let all: Vec<usize> = (0..spec.configs.len()).collect();
    let (plan, rule) = spec.plan(&all);
    // Replicate 0 of every config (the recorded seed) replayed from the
    // .mtr: one seed per group, whatever the sweep's replication.
    let replays: Vec<CellGroup> = plan
        .iter()
        .map(|g| CellGroup {
            source: ScenarioSource::Replay {
                name: spec.scenario.name.clone(),
                path: mtr_path.clone(),
            },
            ..g.clone()
        })
        .collect();
    let rep = spec.replication;
    let workers = workers_for(plan.len() * rule.initial_count() as usize, jobs);
    let t = Instant::now();
    let replicates = run_plan(&plan, &rule, jobs)?;
    let replayed = run_plan(&replays, &StoppingRule::fixed(1), jobs)?;
    let wall_seconds = t.elapsed().as_secs_f64();

    let cells: Vec<CellResult> = replicates
        .iter()
        .zip(&replayed)
        .map(|(reps, replay)| {
            let cell = CellResult::new(reps[0].clone(), &replay[0]);
            if rep.replicated() {
                cell.with_stats(ReplicateStats::from_replicates(reps, rep.seeds))
            } else {
                cell
            }
        })
        .collect();

    let json = render(
        &ReportMeta {
            spec_path,
            scenario: &spec.scenario.name,
            segments: &spec.scenario.segment_labels(),
            mtr_path: &spec.mtr,
            insts: spec.insts,
            seed: spec.seed,
            seeds: rep.seeds,
            workers,
            wall_seconds,
        },
        &cells,
    );
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out_path, &json).map_err(|e| format!("write {}: {e}", out_path.display()))?;

    Ok(SweepOutcome {
        spec,
        cells,
        replicates,
        workers,
        wall_seconds,
        mtr_path,
        out_path,
    })
}

/// Reads and runs a spec file. `jobs` caps the fan-out as in
/// [`run_parsed_spec`].
///
/// # Errors
///
/// Returns a descriptive message for unreadable files, spec errors, and
/// I/O failures during the run.
pub fn run_spec_file(path: &Path, jobs: Option<usize>) -> Result<SweepOutcome, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    run_parsed_spec(spec, &path.display().to_string(), Path::new("."), jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec(dir: &Path, name: &str) -> SweepSpec {
        let doc = format!(
            "[scenario]\nname = \"{name}\"\nmode = \"mixed\"\nblock = 24\n\
             [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
             [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
             [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 3000\nseed = 11\n\
             [report]\nout = \"{name}.json\"\nmtr = \"{name}.mtr\"\n"
        );
        let _ = dir; // paths are resolved by run_parsed_spec's base_dir
        parse_spec(&doc).expect("demo spec parses")
    }

    #[test]
    fn end_to_end_replay_is_bit_identical() {
        let dir = std::env::temp_dir().join("malec_cli_run_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spec = demo_spec(&dir, "cli_e2e");
        let outcome = run_parsed_spec(spec, "inline", &dir, None).expect("run succeeds");
        assert_eq!(outcome.cells.len(), 2);
        assert!(outcome.all_replays_match(), "replay must be bit-identical");
        assert!(outcome.workers >= 1);
        assert!(outcome.mtr_path.exists());
        let json = std::fs::read_to_string(&outcome.out_path).expect("report written");
        assert!(json.contains("\"replay_matches_generator\": true"));
        assert!(json.contains("malec_scenario_sweep"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_runs_replay_replicate_zero_and_aggregate_every_replicate() {
        let dir = std::env::temp_dir().join("malec_cli_run_replicated");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n\
                   [sweep]\nconfigs = [\"Base1ldst\", \"MALEC\"]\ninsts = 2000\nseed = 11\nseeds = 3\n\
                   [report]\nout = \"cli_reps.json\"\nmtr = \"cli_reps.mtr\"\n";
        let spec = parse_spec(doc).expect("spec parses");
        let outcome = run_parsed_spec(spec, "inline", &dir, Some(2)).expect("run succeeds");
        assert!(outcome.all_replays_match(), "the .mtr holds replicate 0");
        for (cell, reps) in outcome.cells.iter().zip(&outcome.replicates) {
            assert_eq!(reps.len(), 3, "no target: every seed runs");
            assert_eq!(cell.digest, malec_core::digest(&reps[0]));
            let stats = cell.stats.as_ref().expect("replicated cells carry stats");
            assert_eq!((stats.n, stats.saved), (3, 0));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_trace_counts_records() {
        let dir = std::env::temp_dir().join("malec_cli_record_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spec = demo_spec(&dir, "cli_record");
        let path = dir.join("t.mtr");
        let written = record_trace(&spec, &path).expect("record");
        assert_eq!(written, 3000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_spec_is_a_clean_error() {
        let e = run_spec_file(Path::new("/nonexistent/spec.toml"), None).expect_err("must fail");
        assert!(e.contains("spec.toml"), "{e}");
    }

    #[test]
    fn jobs_cap_does_not_change_results() {
        let dir = std::env::temp_dir().join("malec_cli_jobs_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let free = run_parsed_spec(demo_spec(&dir, "cli_jobs_a"), "inline", &dir, None)
            .expect("uncapped run");
        let capped = run_parsed_spec(demo_spec(&dir, "cli_jobs_a"), "inline", &dir, Some(1))
            .expect("capped run");
        assert_eq!(capped.workers, 1, "the cap is honored");
        for (f, c) in free.cells.iter().zip(&capped.cells) {
            assert_eq!(f.digest, c.digest, "fan-out must not leak into results");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
