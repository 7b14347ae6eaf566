//! Cache-parameter sweeps — the Sec. VI-D scaling claims as an API.
//!
//! The paper states that Page-Based Memory Access Grouping and Page-Based
//! Way Determination "scale well with most cache parameters, e.g. capacity,
//! line size, associativity, number of banks, and available address space".
//! [`ParameterSweep`] builds valid [`SimConfig`] variants along those axes
//! so the claim can be measured rather than asserted.

use malec_types::config::SimConfig;
use malec_types::geometry::CacheGeometry;

use crate::plan::CellGroup;
use crate::source::ScenarioSource;

/// One point of a parameter sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable description of the varied parameter (e.g. `banks=8`).
    pub label: String,
    /// The configuration at this point.
    pub config: SimConfig,
}

/// Builder for families of MALEC configurations along one geometry axis.
///
/// # Example
///
/// ```
/// use malec_core::sweep::ParameterSweep;
///
/// let points = ParameterSweep::banks(&[1, 2, 4, 8]);
/// assert_eq!(points.len(), 4);
/// assert!(points.iter().all(|p| p.config.validate().is_ok()));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ParameterSweep;

impl ParameterSweep {
    /// MALEC configurations with varying L1 bank counts (same capacity).
    pub fn banks(banks: &[u32]) -> Vec<SweepPoint> {
        banks
            .iter()
            .filter_map(|&b| {
                let l1 = CacheGeometry::new(32 * 1024, 4, b, 64, 128).ok()?;
                let mut config = SimConfig::malec();
                config.l1 = l1;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("banks={b}"),
                    config,
                })
            })
            .collect()
    }

    /// MALEC configurations with varying L1 capacities (same organization).
    pub fn capacities(kib: &[u64]) -> Vec<SweepPoint> {
        kib.iter()
            .filter_map(|&k| {
                let l1 = CacheGeometry::new(k * 1024, 4, 4, 64, 128).ok()?;
                let mut config = SimConfig::malec();
                config.l1 = l1;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("L1={k}KiB"),
                    config,
                })
            })
            .collect()
    }

    /// MALEC configurations with varying associativity.
    pub fn ways(ways: &[u32]) -> Vec<SweepPoint> {
        ways.iter()
            .filter_map(|&w| {
                let l1 = CacheGeometry::new(32 * 1024, w, 4, 64, 128).ok()?;
                let mut config = SimConfig::malec();
                config.l1 = l1;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("ways={w}"),
                    config,
                })
            })
            .collect()
    }

    /// MALEC configurations with varying result-bus counts (the paper:
    /// "MALEC's performance is primarily limited by the number of memory
    /// references issued per cycle and the number of available result
    /// busses").
    pub fn result_buses(buses: &[u8]) -> Vec<SweepPoint> {
        buses
            .iter()
            .filter_map(|&r| {
                let mut config = SimConfig::malec();
                config.result_buses = r;
                config.validate().ok()?;
                Some(SweepPoint {
                    label: format!("result_buses={r}"),
                    config,
                })
            })
            .collect()
    }

    /// Lowers a sweep to a cell plan: one group per point over `source`
    /// at `insts` instructions and base seed `seed`, in point order (run
    /// it with [`crate::plan::run_plan`]).
    ///
    /// ```
    /// use malec_core::sweep::ParameterSweep;
    /// use malec_core::ScenarioSource;
    /// use malec_trace::benchmark_named;
    ///
    /// let gzip = ScenarioSource::Profile(benchmark_named("gzip").unwrap());
    /// let points = ParameterSweep::banks(&[2, 8]);
    /// let plan = ParameterSweep::plan(&points, &gzip, 5_000, 3);
    /// assert_eq!(plan.len(), 2);
    /// assert_eq!(plan[1].config.l1.banks(), 8);
    /// assert_eq!((plan[0].insts, plan[0].seed), (5_000, 3));
    /// ```
    pub fn plan(
        points: &[SweepPoint],
        source: &ScenarioSource,
        insts: u64,
        seed: u64,
    ) -> Vec<CellGroup> {
        points
            .iter()
            .map(|p| CellGroup {
                config: p.config.clone(),
                source: source.clone(),
                insts,
                seed,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunSummary;
    use crate::plan::{run_plan, StoppingRule};
    use crate::stats::{ReplicateStats, Replication};
    use malec_trace::benchmark_named;

    fn gzip() -> ScenarioSource {
        ScenarioSource::Profile(benchmark_named("gzip").expect("gzip exists"))
    }

    /// Every point replicated under `rule` on gzip at seed 3.
    fn replicated(
        points: &[SweepPoint],
        insts: u64,
        rule: &StoppingRule,
        jobs: Option<usize>,
    ) -> Vec<Vec<RunSummary>> {
        run_plan(&ParameterSweep::plan(points, &gzip(), insts, 3), rule, jobs)
            .expect("profile sources cannot fail")
    }

    /// One single-seed summary per point.
    fn run(points: &[SweepPoint]) -> Vec<RunSummary> {
        replicated(points, 15_000, &StoppingRule::fixed(1), None)
            .into_iter()
            .flatten()
            .collect()
    }

    #[test]
    fn invalid_points_are_dropped() {
        // 3 banks is not a power of two; the point silently disappears.
        let points = ParameterSweep::banks(&[2, 3, 4]);
        assert_eq!(points.len(), 2);
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["banks=2", "banks=4"]);
    }

    #[test]
    fn every_axis_drops_its_invalid_points() {
        let labels = |points: Vec<SweepPoint>| -> Vec<String> {
            points.into_iter().map(|p| p.label).collect()
        };
        assert_eq!(labels(ParameterSweep::capacities(&[24, 32])), ["L1=32KiB"]);
        assert_eq!(labels(ParameterSweep::ways(&[3, 4])), ["ways=4"]);
        assert_eq!(
            labels(ParameterSweep::result_buses(&[0, 2])),
            ["result_buses=2"]
        );
    }

    #[test]
    fn plan_lowers_one_group_per_point_in_point_order() {
        let points = ParameterSweep::ways(&[8, 2]);
        let plan = ParameterSweep::plan(&points, &gzip(), 7_000, 11);
        assert_eq!(plan.len(), 2);
        for (point, group) in points.iter().zip(&plan) {
            assert_eq!(group.config, point.config);
            assert_eq!(group.source.name(), "gzip");
            assert_eq!((group.insts, group.seed), (7_000, 11));
        }
        assert!(ParameterSweep::plan(&[], &gzip(), 7_000, 11).is_empty());
    }

    #[test]
    fn more_banks_never_hurt_grouped_throughput() {
        let results = run(&ParameterSweep::banks(&[1, 4]));
        let one_bank = results[0].core.cycles;
        let four_banks = results[1].core.cycles;
        assert!(
            four_banks <= one_bank,
            "banking enables parallel servicing: {four_banks} vs {one_bank}"
        );
    }

    #[test]
    fn bigger_caches_miss_less() {
        let results = run(&ParameterSweep::capacities(&[8, 64]));
        assert!(
            results[1].l1_miss_rate <= results[0].l1_miss_rate,
            "64KiB should not miss more than 8KiB"
        );
    }

    #[test]
    fn way_determination_survives_associativity_changes() {
        // The 2-bit encoding generalizes to 8 ways (3 bits would be naive;
        // we keep 2 bits and one excluded way — coverage still works).
        let points = ParameterSweep::ways(&[2, 4, 8]);
        for (point, run) in points.iter().zip(run(&points)) {
            assert!(
                run.interface.coverage() > 0.5,
                "{}: coverage collapsed to {}",
                point.label,
                run.interface.coverage()
            );
        }
    }

    #[test]
    fn replicated_sweep_is_bit_identical_serial_vs_parallel() {
        let points = ParameterSweep::banks(&[2, 4]);
        let rule = StoppingRule::fixed(4);
        let serial = replicated(&points, 5_000, &rule, Some(1));
        let parallel = replicated(&points, 5_000, &rule, Some(4));
        assert_eq!(serial.len(), 2);
        for ((point, s), p) in points.iter().zip(&serial).zip(&parallel) {
            assert_eq!(s.len(), 4);
            for (a, b) in s.iter().zip(p) {
                assert_eq!(
                    a.core, b.core,
                    "{}: fan-out leaked into results",
                    point.label
                );
                assert_eq!(a.counters, b.counters);
            }
            let (ss, ps) = (
                ReplicateStats::from_replicates(s, 4),
                ReplicateStats::from_replicates(p, 4),
            );
            for ((an, a), (bn, b)) in ss.metrics.iter().zip(&ps.metrics) {
                assert_eq!(an, bn);
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{}/{an}", point.label);
            }
        }
    }

    #[test]
    fn replicate_zero_matches_the_single_seed_path() {
        let points = ParameterSweep::banks(&[4]);
        let single = crate::Simulator::new(points[0].config.clone()).run(
            &benchmark_named("gzip").expect("gzip exists"),
            5_000,
            3,
        );
        let replicated = replicated(&points, 5_000, &StoppingRule::fixed(3), None);
        assert_eq!(
            single.core, replicated[0][0].core,
            "replicate 0 is the legacy seed path, bit for bit"
        );
        // Later replicates really use different seeds (different streams).
        assert_ne!(replicated[0][0].core.cycles, replicated[0][1].core.cycles);
    }

    #[test]
    fn ci_target_stops_early_on_a_generous_target() {
        let points = ParameterSweep::banks(&[4]);
        let rep = Replication {
            seeds: 16,
            min_seeds: 3,
            ci_target: Some(0.5), // 50 % relative half-width: trivially met
            metric: crate::stats::CiMetric::Ipc,
        };
        let out = replicated(&points, 5_000, &StoppingRule::new(rep), None);
        let n = out[0].len() as u32;
        assert!(n < 16, "a generous target must stop before the seed cap");
        assert!(n >= 3, "never before min_seeds");
        assert_eq!(
            ReplicateStats::from_replicates(&out[0], rep.seeds).saved,
            16 - n,
            "saved replicates are priced against the cap"
        );
    }

    #[test]
    fn result_buses_bound_malec_throughput() {
        let results = run(&ParameterSweep::result_buses(&[1, 4]));
        let narrow = results[0].core.cycles;
        let wide = results[1].core.cycles;
        assert!(
            wide < narrow,
            "one result bus must throttle MALEC: {wide} vs {narrow}"
        );
    }
}
