//! Shared plumbing for the table/figure benches.
//!
//! Each `[[bench]]` target regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). The heavy lifting — sweeping the 38
//! benchmark profiles over the five analyzed configurations — lives here so
//! the individual benches stay declarative.

use malec_core::report::geo_mean;
use malec_core::{run_plan, CellGroup, RunSummary, ScenarioSource, Simulator, StoppingRule};
use malec_trace::profile::{BenchmarkProfile, Suite};
use malec_types::SimConfig;

pub mod goldens;

/// Instructions simulated per benchmark per configuration. The paper uses
/// 1-billion-instruction SimPoint phases; the synthetic workloads' statistics
/// converge orders of magnitude sooner (see DESIGN.md §1).
pub const DEFAULT_INSTS: u64 = 120_000;

/// Seed used by every figure (bit-for-bit reproducibility).
pub const DEFAULT_SEED: u64 = 2013;

/// Runs `profile` under `config`.
pub fn run_one(config: &SimConfig, profile: &BenchmarkProfile, insts: u64) -> RunSummary {
    Simulator::new(config.clone()).run(profile, insts, DEFAULT_SEED)
}

/// Runs every benchmark under every given configuration at
/// [`DEFAULT_SEED`]: `result[bench_idx][config_idx]`.
///
/// Every `(benchmark, config)` cell is an independent, seeded simulation,
/// so the matrix is one cell plan fanned out over at most `jobs` workers
/// (`None`: every available core; `Some(1)`: serial). The result is
/// bit-identical at any cap (each cell writes its own slot).
pub fn run_matrix(
    benchmarks: &[BenchmarkProfile],
    configs: &[SimConfig],
    insts: u64,
    jobs: Option<usize>,
) -> Vec<Vec<RunSummary>> {
    let plan: Vec<CellGroup> = benchmarks
        .iter()
        .flat_map(|profile| {
            configs.iter().map(move |config| CellGroup {
                config: config.clone(),
                source: ScenarioSource::Profile(profile.clone()),
                insts,
                seed: DEFAULT_SEED,
            })
        })
        .collect();
    let mut cells = run_plan(&plan, &StoppingRule::fixed(1), jobs)
        .expect("profile sources cannot fail")
        .into_iter()
        .flatten();
    benchmarks
        .iter()
        .map(|_| cells.by_ref().take(configs.len()).collect())
        .collect()
}

/// Per-suite and overall geometric means of a per-benchmark series, in the
/// paper's order: SPEC-INT, SPEC-FP, MediaBench2, Overall.
pub fn suite_geo_means(values: &[(Suite, f64)]) -> [(String, f64); 4] {
    let of = |suite: Suite| {
        let v: Vec<f64> = values
            .iter()
            .filter(|(s, _)| *s == suite)
            .map(|(_, v)| *v)
            .collect();
        geo_mean(&v)
    };
    let overall: Vec<f64> = values.iter().map(|(_, v)| *v).collect();
    [
        ("SPEC-INT geo.mean".to_owned(), of(Suite::SpecInt)),
        ("SPEC-FP geo.mean".to_owned(), of(Suite::SpecFp)),
        ("MediaBench2 geo.mean".to_owned(), of(Suite::MediaBench2)),
        ("Overall geo.mean".to_owned(), geo_mean(&overall)),
    ]
}

/// Instruction budget, overridable via `MALEC_BENCH_INSTS` for quick runs.
pub fn insts_budget() -> u64 {
    std::env::var("MALEC_BENCH_INSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_INSTS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malec_trace::all_benchmarks;
    use malec_trace::profile::Suite;

    #[test]
    fn suite_means_cover_all_groups() {
        let values = vec![
            (Suite::SpecInt, 2.0),
            (Suite::SpecInt, 8.0),
            (Suite::SpecFp, 3.0),
            (Suite::MediaBench2, 5.0),
        ];
        let means = suite_geo_means(&values);
        assert!((means[0].1 - 4.0).abs() < 1e-12);
        assert!((means[1].1 - 3.0).abs() < 1e-12);
        assert!((means[2].1 - 5.0).abs() < 1e-12);
        assert!(means[3].1 > 0.0);
        assert!(means[3].0.contains("Overall"));
    }

    #[test]
    fn run_one_produces_summary() {
        let profile = &all_benchmarks()[0];
        let s = run_one(&SimConfig::base1ldst(), profile, 2_000);
        assert_eq!(s.core.committed, 2_000);
    }

    #[test]
    fn jobs_capped_matrix_is_bit_identical() {
        let benches: Vec<_> = all_benchmarks().into_iter().take(2).collect();
        let configs = [SimConfig::base1ldst(), SimConfig::malec()];
        let free = run_matrix(&benches, &configs, 2_000, None);
        let capped = run_matrix(&benches, &configs, 2_000, Some(1));
        for (frow, crow) in free.iter().zip(&capped) {
            for (f, c) in frow.iter().zip(crow) {
                assert_eq!(crate::goldens::digest(f), crate::goldens::digest(c));
            }
        }
    }

    #[test]
    fn matrix_rows_follow_benchmarks_and_columns_follow_configs() {
        let mut benches: Vec<_> = all_benchmarks().into_iter().take(2).collect();
        benches.reverse();
        let configs = [
            SimConfig::malec(),
            SimConfig::base1ldst(),
            SimConfig::base2ld1st(),
        ];
        let matrix = run_matrix(&benches, &configs, 1_000, Some(2));
        assert_eq!(matrix.len(), 2);
        for (profile, row) in benches.iter().zip(&matrix) {
            let labels: Vec<&str> = row.iter().map(|s| s.config.as_str()).collect();
            assert_eq!(labels, ["MALEC", "Base1ldst", "Base2ld1st"]);
            assert!(row.iter().all(|s| s.benchmark == profile.name));
            assert!(row.iter().all(|s| s.core.committed == 1_000));
        }
    }

    #[test]
    fn an_empty_axis_gives_an_empty_matrix() {
        let benches: Vec<_> = all_benchmarks().into_iter().take(2).collect();
        let configs = [SimConfig::malec()];
        assert!(run_matrix(&[], &configs, 1_000, None).is_empty());
        let rows = run_matrix(&benches, &[], 1_000, None);
        assert_eq!(rows.len(), 2, "one row per benchmark");
        assert!(rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn parallel_matrix_matches_serial_bit_for_bit() {
        // The reference is a plain serial loop over `run_one`, outside the
        // plan driver entirely.
        let benches: Vec<_> = all_benchmarks().into_iter().take(3).collect();
        let configs = [SimConfig::base1ldst(), SimConfig::malec()];
        let parallel = run_matrix(&benches, &configs, 3_000, Some(4));
        assert_eq!(benches.len(), parallel.len());
        for (profile, prow) in benches.iter().zip(&parallel) {
            assert_eq!(configs.len(), prow.len());
            for (config, p) in configs.iter().zip(prow) {
                let s = run_one(config, profile, 3_000);
                assert_eq!(s.benchmark, p.benchmark);
                assert_eq!(s.config, p.config);
                assert_eq!(crate::goldens::digest(&s), crate::goldens::digest(p));
            }
        }
    }
}
