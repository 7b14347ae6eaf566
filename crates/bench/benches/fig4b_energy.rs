//! **Fig. 4b** — Dynamic and overall (dynamic + leakage) energy consumption
//! of the L1 data memory subsystem, normalized to `Base1ldst`.
//!
//! Paper headlines: `Base2ld1st` consumes +42 % dynamic energy and +48 %
//! total energy; MALEC saves 33 % dynamic and 22 % total energy relative to
//! `Base1ldst` (−48 % relative to `Base2ld1st`); mcf's dynamic saving is an
//! exceptional −51 % thanks to load merging at a ≈ 7× average miss rate.

use malec_core::report::{normalized_percent, TextTable};
use malec_trace::all_benchmarks;
use malec_types::SimConfig;

fn main() {
    let configs = SimConfig::figure4_set();
    let insts = malec_bench::insts_budget();
    let benchmarks = all_benchmarks();
    let matrix = malec_bench::run_matrix(&benchmarks, &configs, insts, None);

    println!("\n== Fig. 4b: normalized energy consumption [%] (lower is better) ==");
    println!("   each cell: total (dynamic) — leakage is total minus dynamic\n");
    let mut t = TextTable::new(
        std::iter::once("benchmark".to_owned())
            .chain(configs.iter().map(SimConfig::label))
            .collect(),
    );
    let mut total_series: Vec<Vec<(malec_trace::Suite, f64)>> = vec![Vec::new(); configs.len()];
    let mut dyn_series: Vec<Vec<(malec_trace::Suite, f64)>> = vec![Vec::new(); configs.len()];
    let mut last_suite = None;
    for (profile, runs) in benchmarks.iter().zip(&matrix) {
        let base_total = runs[0].total_energy();
        let base_dyn = runs[0].energy.dynamic;
        if last_suite != Some(profile.suite) {
            if last_suite.is_some() {
                t.separator();
            }
            last_suite = Some(profile.suite);
        }
        let mut row = vec![profile.name.to_owned()];
        for (ci, run) in runs.iter().enumerate() {
            let total = normalized_percent(run.total_energy(), base_total);
            let dynamic = normalized_percent(run.energy.dynamic, base_dyn);
            total_series[ci].push((profile.suite, total));
            dyn_series[ci].push((profile.suite, dynamic));
            row.push(format!("{total:6.1} ({dynamic:5.1})"));
        }
        t.row(row);
    }
    t.separator();
    for gi in 0..4 {
        let mut row = Vec::new();
        for ci in 0..configs.len() {
            let totals = malec_bench::suite_geo_means(&total_series[ci]);
            let dyns = malec_bench::suite_geo_means(&dyn_series[ci]);
            if ci == 0 {
                row.push(totals[gi].0.clone());
            }
            row.push(format!("{:6.1} ({:5.1})", totals[gi].1, dyns[gi].1));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Paper reference (overall): Base2ld1st +42% dynamic / +48% total;\n\
         MALEC -33% dynamic / -22% total vs Base1ldst (-48% total vs Base2ld1st)."
    );
}
