//! The paired-comparison pipeline behind `malec-cli compare`.
//!
//! Where `run` sweeps every configuration marginally (record → sweep →
//! replay-verify → report), `compare` runs exactly two interfaces —
//! baseline and candidate — over **shared replicate seeds** and reports the
//! per-seed *deltas*: mean ± paired CI, relative improvement over the
//! baseline, and a win/loss/tie verdict per metric at the spec's alpha.
//!
//! Both sides simulate the generator stream directly (no `.mtr` recording
//! pass — the cells are exactly what the `malec-serve` scheduler would
//! simulate for the same spec, which is what makes a local `compare`
//! bit-identical to `GET /v1/jobs/<id>/compare` on a submitted copy).
//! Under a `ci_target` the pair stops spawning shared seeds once the
//! paired CI half-width on the target metric's delta converges. That is
//! the spec's one stopping rule ([`SweepSpec::stopping_rule`]), a pure
//! function of the ordered pair prefix, so serial, `--jobs N`, `malec-cli
//! run` and server runs all stop at identical counts.

use std::path::{Path, PathBuf};
use std::time::Instant;

use malec_core::compare::CompareStats;
use malec_core::parallel::workers_for;
use malec_core::{run_plan, RunSummary};

use malec_serve::report::{render_compare, CompareReportMeta};
use malec_serve::spec::{parse_spec, SweepSpec};

/// Everything a finished comparison produced.
#[derive(Debug)]
pub struct CompareOutcome {
    /// The resolved spec.
    pub spec: SweepSpec,
    /// The aggregated delta blocks.
    pub stats: CompareStats,
    /// Baseline replicate summaries, replicate order.
    pub baseline: Vec<RunSummary>,
    /// Candidate replicate summaries, replicate order.
    pub candidate: Vec<RunSummary>,
    /// Workers the parallel fan-out actually used.
    pub workers: usize,
    /// Wall-clock of the paired sweep (report excluded).
    pub wall_seconds: f64,
    /// The rendered compare-report JSON.
    pub json: String,
    /// Where the JSON report was written.
    pub out_path: PathBuf,
}

/// Runs a parsed spec's paired comparison end to end. The spec's
/// `[compare]` section picks the pair (defaulting to Base1ldst vs MALEC at
/// `alpha = 0.05`); paths resolve relative to `base_dir`; `jobs` caps the
/// fan-out (`None` uses every core; results are bit-identical at any cap).
///
/// # Errors
///
/// Returns a descriptive message when the spec has no resolvable pair
/// (missing configs, single seed), when a workload source fails, or on
/// I/O failure writing the report.
pub fn compare_parsed_spec(
    spec: SweepSpec,
    spec_path: &str,
    base_dir: &Path,
    jobs: Option<usize>,
) -> Result<CompareOutcome, String> {
    let resolved = spec.resolve_compare().map_err(|e| e.to_string())?;
    let (plan, rule) = spec.plan(&[resolved.baseline, resolved.candidate]);
    let rep = spec.replication;
    let workers = workers_for(plan.len() * rule.initial_count() as usize, jobs);
    let t = Instant::now();
    let mut sides = run_plan(&plan, &rule, jobs)?;
    let candidate = sides.pop().expect("two sides");
    let baseline = sides.pop().expect("two sides");
    let wall_seconds = t.elapsed().as_secs_f64();
    let stats = CompareStats::from_pairs(&baseline, &candidate, rep.seeds, resolved.alpha);
    let json = render_compare(
        &CompareReportMeta {
            spec_path,
            scenario: &spec.scenario.name,
            segments: &spec.scenario.segment_labels(),
            insts: spec.insts,
            seed: spec.seed,
            seeds: rep.seeds,
            workers,
            wall_seconds,
        },
        &stats,
    );
    let out_path = base_dir.join(&spec.compare_out);
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out_path, &json).map_err(|e| format!("write {}: {e}", out_path.display()))?;
    Ok(CompareOutcome {
        spec,
        stats,
        baseline,
        candidate,
        workers,
        wall_seconds,
        json,
        out_path,
    })
}

/// Reads and compares a spec file. `jobs` caps the fan-out as in
/// [`compare_parsed_spec`].
///
/// # Errors
///
/// Returns a descriptive message for unreadable files, spec errors, and
/// failures during the comparison.
pub fn compare_spec_file(path: &Path, jobs: Option<usize>) -> Result<CompareOutcome, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec = parse_spec(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    compare_parsed_spec(spec, &path.display().to_string(), Path::new("."), jobs)
}

/// Renders one delta block as the `compare` stdout line: signed delta ±
/// CI, relative %, and the oriented verdict.
#[must_use]
pub fn delta_line(name: &str, d: &malec_core::compare::DeltaSummary) -> String {
    let ci = d.ci.map_or_else(|| "n/a".to_owned(), |w| format!("{w:.5}"));
    let rel = d
        .relative
        .map_or_else(String::new, |r| format!("  ({:+.2}%)", 100.0 * r));
    format!(
        "  {name:<18} {:>10.4} -> {:>10.4}  delta {:+.5} ± {ci}{rel}  {}",
        d.baseline_mean,
        d.candidate_mean,
        d.delta_mean,
        d.verdict.name().to_uppercase(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_core::compare::Verdict;

    fn demo_spec(seeds: u32, extra: &str) -> SweepSpec {
        let doc = format!(
            "[scenario]\nname = \"cmp\"\nmode = \"mixed\"\nblock = 24\n\
             [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
             [[scenario.part]]\nkind = \"store_burst\"\nweight = 1\n\
             [compare]\nbaseline = \"Base1ldst\"\ncandidate = \"MALEC\"\n\
             [sweep]\ninsts = 3000\nseed = 11\nseeds = {seeds}\n{extra}\
             [report]\ncompare = \"cmp_compare.json\"\n"
        );
        parse_spec(&doc).expect("demo spec parses")
    }

    #[test]
    fn compare_runs_end_to_end_and_pairs_share_seeds() {
        let dir = std::env::temp_dir().join("malec_cli_compare_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let outcome =
            compare_parsed_spec(demo_spec(4, ""), "inline", &dir, None).expect("compare runs");
        assert_eq!(outcome.baseline.len(), 4);
        assert_eq!(outcome.candidate.len(), 4);
        assert_eq!(outcome.stats.n, 4);
        // Shared seeds: both sides simulated the same generated stream, so
        // the committed instruction counts match pairwise.
        for (b, c) in outcome.baseline.iter().zip(&outcome.candidate) {
            assert_eq!(b.core.committed, c.core.committed);
        }
        let json = std::fs::read_to_string(&outcome.out_path).expect("report written");
        assert!(json.contains("\"bench\": \"malec_compare\""));
        assert!(json.contains("\"verdict\""));
        // MALEC against the 1-port baseline on a load-rich mix: the IPC
        // delta is positive and certified (the paper's headline).
        let ipc = outcome.stats.metric("ipc").expect("ipc");
        assert!(ipc.delta_mean > 0.0, "MALEC must out-run Base1ldst");
        assert_eq!(ipc.verdict, Verdict::Win);
        // The line renderer carries the verdict and both means.
        let line = delta_line("ipc", ipc);
        assert!(line.contains("WIN") && line.contains("delta +"), "{line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_is_bit_identical_at_any_jobs_cap() {
        let dir = std::env::temp_dir().join("malec_cli_compare_jobs");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let serial =
            compare_parsed_spec(demo_spec(4, ""), "inline", &dir, Some(1)).expect("serial");
        let parallel =
            compare_parsed_spec(demo_spec(4, ""), "inline", &dir, None).expect("parallel");
        assert_eq!(
            malec_core::compare::compare_digest(&serial.stats),
            malec_core::compare::compare_digest(&parallel.stats),
            "fan-out must not leak into the deltas"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_runs_only_the_pair_of_a_wider_sweep() {
        let dir = std::env::temp_dir().join("malec_cli_compare_subset");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let extra = "configs = [\"Base2ld1st\", \"MALEC\", \"Base1ldst\"]\n\
                     min_seeds = 2\nci_target = 0.05\n";
        let outcome =
            compare_parsed_spec(demo_spec(8, extra), "inline", &dir, Some(2)).expect("compare");
        assert!(outcome.baseline.iter().all(|s| s.config == "Base1ldst"));
        assert!(outcome.candidate.iter().all(|s| s.config == "MALEC"));
        // The pair keeps its joint rule inside the wider sweep, so the
        // local run of the same spec stops it at the same count.
        let run =
            crate::run::run_parsed_spec(demo_spec(8, extra), "inline", &dir, Some(2)).expect("run");
        assert_eq!(outcome.baseline.len(), run.replicates[2].len());
        assert_eq!(outcome.candidate.len(), run.replicates[1].len());
        assert_eq!(outcome.stats.n as usize, outcome.baseline.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_and_run_simulate_the_same_replicates() {
        let dir = std::env::temp_dir().join("malec_cli_compare_cells");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let outcome = compare_parsed_spec(demo_spec(3, ""), "inline", &dir, None).expect("compare");
        let run = crate::run::run_parsed_spec(demo_spec(3, ""), "inline", &dir, None).expect("run");
        let digests =
            |reps: &[RunSummary]| -> Vec<u64> { reps.iter().map(malec_core::digest).collect() };
        assert_eq!(digests(&outcome.baseline), digests(&run.replicates[0]));
        assert_eq!(digests(&outcome.candidate), digests(&run.replicates[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unresolvable_compare_is_a_clean_error() {
        // seeds = 1 cannot carry a paired interval; parse_spec rejects the
        // explicit section, and a plain single-seed spec fails at resolve.
        let doc = "[scenario]\nmode = \"preset\"\npreset = \"store_burst\"\n";
        let spec = parse_spec(doc).expect("plain spec parses");
        let e = compare_parsed_spec(spec, "inline", Path::new("."), None).expect_err("must fail");
        assert!(e.contains("`seeds` >= 2"), "{e}");
    }
}
