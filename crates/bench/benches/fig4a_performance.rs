//! **Fig. 4a** — Execution times normalized to `Base1ldst` for all 38
//! benchmarks under the five analyzed configurations.
//!
//! Paper headlines: MALEC improves performance by ≈ 14 % over `Base1ldst`
//! (only ≈ 1 % less than the physically multi-ported `Base2ld1st` at
//! ≈ 15 %); the 3-cycle-L1 MALEC variant drops to ≈ 10 % and the
//! 1-cycle-L1 `Base2ld1st` rises to ≈ 20 %; suite-level improvements are
//! ≈ 14 / 12 / 21 % for SPEC-INT / SPEC-FP / MediaBench2.

use malec_core::report::{normalized_percent, TextTable};
use malec_trace::all_benchmarks;
use malec_types::SimConfig;

fn main() {
    let configs = SimConfig::figure4_set();
    let insts = malec_bench::insts_budget();
    let benchmarks = all_benchmarks();
    let matrix = malec_bench::run_matrix(&benchmarks, &configs, insts, None);

    println!("\n== Fig. 4a: normalized execution time [%] (lower is better) ==\n");
    let mut t = TextTable::new(
        std::iter::once("benchmark".to_owned())
            .chain(configs.iter().map(SimConfig::label))
            .collect(),
    );
    let mut series: Vec<Vec<(malec_trace::Suite, f64)>> = vec![Vec::new(); configs.len()];
    let mut last_suite = None;
    for (profile, runs) in benchmarks.iter().zip(&matrix) {
        let base = runs[0].core.cycles as f64;
        if last_suite != Some(profile.suite) {
            if last_suite.is_some() {
                t.separator();
            }
            last_suite = Some(profile.suite);
        }
        let mut row = vec![profile.name.to_owned()];
        for (ci, run) in runs.iter().enumerate() {
            let pct = normalized_percent(run.core.cycles as f64, base);
            series[ci].push((profile.suite, pct));
            row.push(format!("{pct:6.1}"));
        }
        t.row(row);
    }
    t.separator();
    for gi in 0..4 {
        let mut row = Vec::new();
        for (ci, s) in series.iter().enumerate() {
            let means = malec_bench::suite_geo_means(s);
            if ci == 0 {
                row.push(means[gi].0.clone());
            }
            row.push(format!("{:6.1}", means[gi].1));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Paper reference (overall): Base1ldst 100 | Base2ld1st_1cycleL1 ~83 | \
         Base2ld1st ~87 | MALEC ~88 | MALEC_3cycleL1 ~91."
    );
}
