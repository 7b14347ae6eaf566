//! Per-run statistics: what the interfaces measure and what a finished run
//! reports.

use malec_cpu::CoreStats;
use malec_energy::{EnergyBreakdown, EnergyCounters};

/// Counters maintained by an L1 data interface implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InterfaceStats {
    /// Loads serviced (data returned).
    pub loads_serviced: u64,
    /// Loads that completed by sharing another load's L1 access.
    pub merged_loads: u64,
    /// Stores accepted into the store buffer.
    pub stores_accepted: u64,
    /// Merge-buffer evictions written to the L1.
    pub mbe_writes: u64,
    /// Page groups serviced (MALEC only).
    pub groups: u64,
    /// Loads serviced through page groups (MALEC only).
    pub group_loads: u64,
    /// Reduced cache accesses (tag arrays bypassed).
    pub reduced_accesses: u64,
    /// Conventional cache accesses (parallel tag + data lookup).
    pub conventional_accesses: u64,
    /// Load-cycles spent held in the Input Buffer (latency variability).
    pub held_load_cycles: u64,
    /// Address translations performed (one per page group for MALEC;
    /// one per reference for the baselines).
    pub translations: u64,
    /// Store translations shared with a concurrent page group (MALEC).
    pub store_translations_shared: u64,
}

impl InterfaceStats {
    /// Way-determination coverage: the fraction of L1 accesses that could
    /// bypass the tag arrays (the paper's 94 % headline metric).
    pub fn coverage(&self) -> f64 {
        let total = self.reduced_accesses + self.conventional_accesses;
        if total == 0 {
            0.0
        } else {
            self.reduced_accesses as f64 / total as f64
        }
    }

    /// Average page-group size in loads (MALEC only).
    pub fn mean_group_size(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.group_loads as f64 / self.groups as f64
        }
    }

    /// Share of serviced loads that were merged into another access.
    pub fn merge_ratio(&self) -> f64 {
        if self.loads_serviced == 0 {
            0.0
        } else {
            self.merged_loads as f64 / self.loads_serviced as f64
        }
    }
}

/// Everything one simulation run produces.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Configuration label (e.g. `MALEC_3cycleL1`).
    pub config: String,
    /// Workload name: a benchmark (`gzip`), a scenario (`store_burst`), or
    /// a replayed trace.
    pub benchmark: String,
    /// Suite display name.
    pub suite: &'static str,
    /// Core-side statistics (cycles, IPC, commit mix).
    pub core: CoreStats,
    /// Interface-side statistics (groups, merges, coverage).
    pub interface: InterfaceStats,
    /// Raw energy event counts.
    pub counters: EnergyCounters,
    /// Priced energy (dynamic + leakage + per-structure split).
    pub energy: EnergyBreakdown,
    /// L1 data cache miss rate over the run.
    pub l1_miss_rate: f64,
    /// L2 miss rate over backing fetches.
    pub l2_miss_rate: f64,
    /// uTLB miss rate.
    pub utlb_miss_rate: f64,
}

impl RunSummary {
    /// Total energy (dynamic + leakage).
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }

    /// Execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.core.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_ratios() {
        let mut s = InterfaceStats::default();
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.mean_group_size(), 0.0);
        assert_eq!(s.merge_ratio(), 0.0);
        s.reduced_accesses = 94;
        s.conventional_accesses = 6;
        s.groups = 10;
        s.group_loads = 25;
        s.loads_serviced = 100;
        s.merged_loads = 20;
        assert!((s.coverage() - 0.94).abs() < 1e-12);
        assert!((s.mean_group_size() - 2.5).abs() < 1e-12);
        assert!((s.merge_ratio() - 0.2).abs() < 1e-12);
    }
}
