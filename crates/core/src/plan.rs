//! The cell plan and its stopping rule: how every driver turns a spec into
//! simulations.
//!
//! A plan is a flat list of [`CellGroup`]s, each one configuration over one
//! workload source at one horizon and base seed. A group's cells are its
//! replicates: replicate `i` simulates under `replicate_seed(seed, i)`, so
//! replicate 0 is the base seed verbatim (the golden path).
//!
//! How many replicates a group gets is the [`StoppingRule`]'s call: the
//! spec's [`Replication`] policy plus an optional explicit pair whose two
//! groups stop **jointly** on the paired delta ([`paired_converged`])
//! instead of on their marginal CIs ([`Replication::converged`]).
//! [`StoppingRule::decide`] is the one place that choice is made. It is a
//! pure function of the groups' ordered, complete replicate prefixes, so
//! every driver that grows a group one replicate at a time lands on the
//! same counts: [`run_plan`] (rounds through [`parallel_map_with`], at any
//! `--jobs` cap) and the `malec-serve` scheduler (event-driven, asking the
//! rule whenever a group's planned replicates have all finished).

use malec_types::SimConfig;

use crate::compare::{paired_converged, Alpha};
use crate::metrics::RunSummary;
use crate::parallel::{parallel_map_with, workers_for};
use crate::sim::Simulator;
use crate::source::ScenarioSource;
use crate::stats::{replicate_seed, Replication};

/// One group of a cell plan: a configuration over a workload source at a
/// horizon and base seed. Its cells are its replicates.
#[derive(Clone, Debug)]
pub struct CellGroup {
    /// The simulated configuration.
    pub config: SimConfig,
    /// Where the instruction stream comes from.
    pub source: ScenarioSource,
    /// Instructions per cell.
    pub insts: u64,
    /// Base seed (replicate 0 runs it verbatim).
    pub seed: u64,
}

impl CellGroup {
    /// Simulates replicate `replicate` of this group.
    ///
    /// ```
    /// use malec_core::{CellGroup, ScenarioSource, Simulator};
    /// use malec_trace::benchmark_named;
    /// use malec_types::SimConfig;
    ///
    /// let gzip = benchmark_named("gzip").unwrap();
    /// let group = CellGroup {
    ///     config: SimConfig::malec(),
    ///     source: ScenarioSource::Profile(gzip.clone()),
    ///     insts: 2_000,
    ///     seed: 9,
    /// };
    /// // Replicate 0 is the base seed verbatim.
    /// let direct = Simulator::new(SimConfig::malec()).run(&gzip, 2_000, 9);
    /// assert_eq!(group.simulate(0).unwrap().core, direct.core);
    /// ```
    ///
    /// # Errors
    ///
    /// A replay source whose `.mtr` file cannot be read, named by the
    /// group's configuration. Generator sources cannot fail.
    pub fn simulate(&self, replicate: u32) -> Result<RunSummary, String> {
        Simulator::new(self.config.clone())
            .run_source(
                &self.source,
                self.insts,
                replicate_seed(self.seed, replicate),
            )
            .map_err(|e| format!("{}: {} run: {e}", self.config.label(), self.source.name()))
    }
}

/// Which groups of a plan stop, and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoppingRule {
    /// The replication policy every group follows.
    pub replication: Replication,
    /// An explicit `(baseline, candidate, alpha)` pair of group indices:
    /// under a `ci_target` these two grow in lockstep and stop together on
    /// the paired delta.
    pub pair: Option<(usize, usize, Alpha)>,
}

/// What [`StoppingRule::decide`] concluded for a stopping unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The unit's groups are done at their current replicate counts.
    Certify,
    /// Every group of the unit grows by one replicate.
    Grow,
}

impl StoppingRule {
    /// `replication` with no pair: every group stops on its own.
    #[must_use]
    pub fn new(replication: Replication) -> Self {
        Self {
            replication,
            pair: None,
        }
    }

    /// Exactly `seeds` replicates per group, no early stopping.
    #[must_use]
    pub fn fixed(seeds: u32) -> Self {
        Self::new(Replication::fixed(seeds))
    }

    /// Replicates every group launches up front.
    #[must_use]
    pub fn initial_count(&self) -> u32 {
        self.replication.initial_count()
    }

    /// Decides the stopping unit of `group`: both halves of the pair when
    /// `group` is one of them, else `group` alone. `prefix(g)` returns
    /// group `g`'s summaries in replicate order, or `None` while any of its
    /// planned replicates is unfinished.
    ///
    /// Returns `None` while any member of the unit is unfinished;
    /// otherwise the unit's groups and whether they certify or grow.
    pub fn decide<'a>(
        &self,
        group: usize,
        prefix: impl Fn(usize) -> Option<Vec<&'a RunSummary>>,
    ) -> Option<(Vec<usize>, Step)> {
        let rep = &self.replication;
        let (unit, done) = match self.pair {
            Some((b, c, alpha)) if group == b || group == c => {
                let (base, cand) = (prefix(b)?, prefix(c)?);
                (
                    vec![b, c],
                    paired_converged(rep, alpha, base.into_iter().zip(cand)),
                )
            }
            _ => (vec![group], rep.converged(prefix(group)?)),
        };
        Some((unit, if done { Step::Certify } else { Step::Grow }))
    }

    /// This rule over the sub-plan made of `groups` (indices into the
    /// original plan, in sub-plan order). The pair survives only when
    /// both of its groups are selected.
    ///
    /// ```
    /// use malec_core::compare::Alpha;
    /// use malec_core::{Replication, StoppingRule};
    ///
    /// let rule = StoppingRule {
    ///     replication: Replication::fixed(4),
    ///     pair: Some((0, 2, Alpha::Five)),
    /// };
    /// // Groups 2 and 0 become sub-plan groups 0 and 1.
    /// assert_eq!(rule.select(&[2, 0]).pair, Some((1, 0, Alpha::Five)));
    /// // Without its candidate the baseline stops on its own.
    /// assert_eq!(rule.select(&[0, 1]).pair, None);
    /// ```
    #[must_use]
    pub fn select(&self, groups: &[usize]) -> Self {
        let at = |g: usize| groups.iter().position(|&s| s == g);
        Self {
            replication: self.replication,
            pair: self.pair.and_then(|(b, c, a)| Some((at(b)?, at(c)?, a))),
        }
    }
}

/// Runs `groups` to completion under `rule`: round 1 launches every
/// group's initial replicates, and each later round adds one replicate to
/// every unit the rule grows. Rounds fan out through [`parallel_map_with`]
/// over at most `jobs` workers (`None`: every core); each group's final
/// count is the smallest ordered prefix the rule certifies, so the result
/// is bit-identical at any cap. Returns every group's summaries in
/// replicate order.
///
/// # Example
///
/// ```
/// use malec_core::{run_plan, CellGroup, ScenarioSource, StoppingRule};
/// use malec_trace::scenario::preset_named;
/// use malec_types::SimConfig;
///
/// let source = ScenarioSource::Scenario(preset_named("store_burst").unwrap());
/// let plan: Vec<CellGroup> = [SimConfig::base1ldst(), SimConfig::malec()]
///     .into_iter()
///     .map(|config| CellGroup { config, source: source.clone(), insts: 1_000, seed: 7 })
///     .collect();
/// let out = run_plan(&plan, &StoppingRule::fixed(2), Some(1)).unwrap();
/// assert_eq!(out.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2]);
/// assert_eq!(out[1][0].config, "MALEC");
/// ```
///
/// # Errors
///
/// The first failing cell's error (see [`CellGroup::simulate`]), once its
/// round completes.
pub fn run_plan(
    groups: &[CellGroup],
    rule: &StoppingRule,
    jobs: Option<usize>,
) -> Result<Vec<Vec<RunSummary>>, String> {
    let mut replicates: Vec<Vec<RunSummary>> = groups.iter().map(|_| Vec::new()).collect();
    let mut pending: Vec<(usize, u32)> = (0..groups.len())
        .flat_map(|g| (0..rule.initial_count()).map(move |r| (g, r)))
        .collect();
    while !pending.is_empty() {
        let workers = workers_for(pending.len(), jobs);
        let round = parallel_map_with(pending, |&(g, r)| (g, groups[g].simulate(r)), workers);
        for (g, summary) in round {
            replicates[g].push(summary?);
        }
        pending = Vec::new();
        let mut decided = vec![false; groups.len()];
        for g in 0..groups.len() {
            if decided[g] {
                continue;
            }
            let (unit, step) = rule
                .decide(g, |m| Some(replicates[m].iter().collect()))
                .expect("a finished round leaves no replicate pending");
            for m in unit {
                decided[m] = true;
                if step == Step::Grow {
                    pending.push((m, replicates[m].len() as u32));
                }
            }
        }
    }
    Ok(replicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CiMetric;

    fn group(config: SimConfig) -> CellGroup {
        let scenario = malec_trace::scenario::preset_named("store_burst").expect("preset");
        CellGroup {
            config,
            source: ScenarioSource::Scenario(scenario),
            insts: 2_000,
            seed: 7,
        }
    }

    #[test]
    fn select_keeps_the_pair_only_when_both_halves_survive() {
        let rule = StoppingRule {
            replication: Replication::fixed(4),
            pair: Some((2, 0, Alpha::One)),
        };
        assert_eq!(rule.select(&[0, 2]).pair, Some((1, 0, Alpha::One)));
        assert_eq!(rule.select(&[2, 1, 0]).pair, Some((0, 2, Alpha::One)));
        assert_eq!(rule.select(&[0, 1]).pair, None);
    }

    #[test]
    fn decide_waits_for_every_member_of_the_unit() {
        let rule = StoppingRule {
            replication: Replication::fixed(2),
            pair: Some((0, 1, Alpha::Five)),
        };
        let s = group(SimConfig::malec())
            .simulate(0)
            .expect("generator run");
        let two = vec![&s, &s];
        assert_eq!(
            rule.decide(1, |g| (g == 1).then(|| two.clone())),
            None,
            "the baseline is unfinished: no decision yet"
        );
        assert_eq!(
            rule.decide(0, |_| Some(two.clone())),
            Some((vec![0, 1], Step::Certify)),
            "the pair certifies together at the cap"
        );
        assert_eq!(
            rule.decide(2, |_| Some(vec![&s])),
            Some((vec![2], Step::Grow)),
            "an unpaired group decides alone"
        );
    }

    #[test]
    fn paired_groups_grow_in_lockstep_and_unpaired_ones_alone() {
        let rule = StoppingRule {
            replication: Replication {
                seeds: 8,
                min_seeds: 2,
                ci_target: Some(0.05),
                metric: CiMetric::Ipc,
            },
            pair: Some((0, 2, Alpha::Five)),
        };
        let plan = [
            group(SimConfig::base1ldst()),
            group(SimConfig::base2ld1st()),
            group(SimConfig::malec()),
        ];
        let out = run_plan(&plan, &rule, Some(2)).expect("generator runs");
        assert_eq!(out[0].len(), out[2].len(), "the pair grows in lockstep");
        assert!((2..=8).contains(&out[1].len()));
        // Each unit stops at the smallest prefix its own criterion certifies.
        let rep = &rule.replication;
        let paired = |n: usize| paired_converged(rep, Alpha::Five, out[0][..n].iter().zip(&out[2]));
        let n = out[0].len();
        assert!(paired(n) && (n == 2 || !paired(n - 1)));
        let m = out[1].len();
        assert!(rep.converged(&out[1]) && (m == 2 || !rep.converged(&out[1][..m - 1])));
    }

    /// A real summary with its IPC set to `milli / 1000`, so the stopping
    /// criteria see exactly the values a test picks.
    fn with_ipc(milli: u64) -> RunSummary {
        static BASE: std::sync::OnceLock<RunSummary> = std::sync::OnceLock::new();
        let mut s = BASE
            .get_or_init(|| {
                group(SimConfig::malec())
                    .simulate(0)
                    .expect("generator run")
            })
            .clone();
        s.core.committed = milli;
        s.core.cycles = 1_000;
        s
    }

    fn summaries(millis: &[u64]) -> Vec<RunSummary> {
        millis.iter().map(|&m| with_ipc(m)).collect()
    }

    /// An IPC target policy: `seeds` cap, `min` mandatory, 5 % target.
    fn targeted(seeds: u32, min_seeds: u32) -> Replication {
        Replication {
            seeds,
            min_seeds,
            ci_target: Some(0.05),
            metric: CiMetric::Ipc,
        }
    }

    /// `rule.decide(group, ..)` with every group finished at `all[g]`.
    fn decide_on(
        rule: &StoppingRule,
        group: usize,
        all: &[Vec<RunSummary>],
    ) -> Option<(Vec<usize>, Step)> {
        rule.decide(group, |g| Some(all[g].iter().collect()))
    }

    fn replay_group(config: SimConfig) -> CellGroup {
        CellGroup {
            config,
            source: ScenarioSource::Replay {
                name: "ghost".to_owned(),
                path: std::env::temp_dir().join("malec_plan_no_such_trace.mtr"),
            },
            insts: 2_000,
            seed: 7,
        }
    }

    #[test]
    fn a_fixed_rule_launches_every_seed_up_front() {
        let rule = StoppingRule::fixed(4);
        assert_eq!(rule.initial_count(), 4);
        assert_eq!(rule.pair, None, "a fixed rule pairs nothing");
        assert_eq!(rule.replication, Replication::fixed(4));
        assert_eq!(
            StoppingRule::fixed(0).initial_count(),
            1,
            "every group runs at least its base seed"
        );
    }

    #[test]
    fn a_ci_target_launches_only_the_mandatory_minimum() {
        assert_eq!(StoppingRule::new(targeted(10, 3)).initial_count(), 3);
        assert_eq!(
            StoppingRule::new(targeted(2, 3)).initial_count(),
            2,
            "the minimum never exceeds the cap"
        );
    }

    #[test]
    fn a_fixed_rule_grows_until_the_cap_then_certifies() {
        let rule = StoppingRule::fixed(3);
        let same = summaries(&[900, 900, 900]);
        for n in 1..3 {
            assert_eq!(
                decide_on(&rule, 0, &[same[..n].to_vec()]),
                Some((vec![0], Step::Grow)),
                "no target: identical replicates still run to the cap ({n})"
            );
        }
        assert_eq!(decide_on(&rule, 0, &[same]), Some((vec![0], Step::Certify)));
    }

    #[test]
    fn a_tight_group_certifies_at_its_mandatory_minimum() {
        let rule = StoppingRule::new(targeted(10, 3));
        let tight = summaries(&[1_000, 1_000, 1_000]);
        assert_eq!(
            decide_on(&rule, 0, &[tight[..2].to_vec()]),
            Some((vec![0], Step::Grow)),
            "never certify below min_seeds"
        );
        assert_eq!(
            decide_on(&rule, 0, &[tight]),
            Some((vec![0], Step::Certify))
        );
    }

    #[test]
    fn a_noisy_group_grows_until_the_cap() {
        let rule = StoppingRule::new(targeted(6, 2));
        let noisy = summaries(&[400, 1_600, 400, 1_600, 400, 1_600]);
        for n in 2..6 {
            assert_eq!(
                decide_on(&rule, 0, &[noisy[..n].to_vec()]),
                Some((vec![0], Step::Grow)),
                "a wide interval keeps growing ({n})"
            );
        }
        assert_eq!(
            decide_on(&rule, 0, &[noisy]),
            Some((vec![0], Step::Certify)),
            "the cap certifies whatever the interval"
        );
    }

    #[test]
    fn a_constant_delta_certifies_the_pair_while_each_side_is_noisy() {
        let rule = StoppingRule {
            replication: targeted(10, 3),
            pair: Some((0, 1, Alpha::Five)),
        };
        let base = summaries(&[500, 1_500, 700]);
        let cand = summaries(&[600, 1_600, 800]);
        assert!(
            !rule.replication.converged(&base) && !rule.replication.converged(&cand),
            "marginally, both sides would keep growing"
        );
        assert_eq!(
            decide_on(&rule, 0, &[base, cand]),
            Some((vec![0, 1], Step::Certify)),
            "the paired delta is the criterion, and it is exact"
        );
    }

    #[test]
    fn a_tight_baseline_grows_with_its_noisy_candidate() {
        let rule = StoppingRule {
            replication: targeted(10, 3),
            pair: Some((0, 1, Alpha::Five)),
        };
        let base = summaries(&[1_000, 1_000, 1_000]);
        let cand = summaries(&[500, 1_500, 700]);
        assert!(
            rule.replication.converged(&base),
            "alone, the baseline would certify"
        );
        assert_eq!(
            decide_on(&rule, 0, &[base, cand]),
            Some((vec![0, 1], Step::Grow)),
            "paired, it grows with the candidate"
        );
    }

    #[test]
    fn either_half_of_the_pair_decides_the_same_unit() {
        let rule = StoppingRule {
            replication: targeted(10, 2),
            pair: Some((2, 0, Alpha::Ten)),
        };
        let all = [
            summaries(&[900, 1_100]),
            summaries(&[1_000, 1_000]),
            summaries(&[800, 1_200]),
        ];
        let from_candidate = decide_on(&rule, 0, &all);
        assert_eq!(from_candidate, decide_on(&rule, 2, &all));
        assert_eq!(
            from_candidate.map(|(unit, _)| unit),
            Some(vec![2, 0]),
            "the unit lists the baseline first"
        );
    }

    #[test]
    fn an_unpaired_group_never_waits_on_the_pair() {
        let rule = StoppingRule {
            replication: Replication::fixed(2),
            pair: Some((0, 1, Alpha::Five)),
        };
        let third = summaries(&[1_000, 1_000]);
        assert_eq!(
            rule.decide(2, |g| (g == 2).then(|| third.iter().collect())),
            Some((vec![2], Step::Certify)),
            "the pair's pending replicates do not hold group 2 back"
        );
    }

    #[test]
    fn the_pair_decides_without_the_other_groups() {
        let rule = StoppingRule {
            replication: Replication::fixed(2),
            pair: Some((1, 2, Alpha::Five)),
        };
        let two = summaries(&[1_000, 1_000]);
        assert_eq!(
            rule.decide(2, |g| (g != 0).then(|| two.iter().collect())),
            Some((vec![1, 2], Step::Certify)),
            "group 0's pending replicates do not hold the pair back"
        );
    }

    #[test]
    fn an_unfinished_group_has_no_decision() {
        let rule = StoppingRule::fixed(2);
        assert_eq!(rule.decide(0, |_| None), None);
    }

    #[test]
    fn selecting_the_whole_plan_is_the_identity() {
        let rule = StoppingRule {
            replication: targeted(8, 2),
            pair: Some((1, 2, Alpha::One)),
        };
        assert_eq!(rule.select(&[0, 1, 2]), rule);
    }

    #[test]
    fn selection_keeps_the_replication_policy() {
        let rule = StoppingRule {
            replication: targeted(8, 2),
            pair: Some((0, 1, Alpha::Five)),
        };
        let none = rule.select(&[]);
        assert_eq!(none.replication, rule.replication);
        assert_eq!(none.pair, None);
        assert_eq!(rule.select(&[1]).replication, rule.replication);
    }

    #[test]
    fn replicate_zero_runs_the_base_seed_verbatim() {
        let g = group(SimConfig::base1ldst());
        let direct = Simulator::new(g.config.clone())
            .run_source(&g.source, g.insts, g.seed)
            .expect("generator run");
        let planned = g.simulate(0).expect("generator run");
        assert_eq!(
            crate::digest::digest(&planned),
            crate::digest::digest(&direct)
        );
    }

    #[test]
    fn each_replicate_has_its_own_deterministic_seed() {
        let g = group(SimConfig::malec());
        let digest = |r| crate::digest::digest(&g.simulate(r).expect("generator run"));
        assert_eq!(digest(1), digest(1), "a replicate reproduces bit for bit");
        assert_ne!(digest(0), digest(1), "replicates draw different seeds");
    }

    #[test]
    fn a_missing_trace_names_the_config_and_the_workload() {
        let e = replay_group(SimConfig::malec())
            .simulate(0)
            .expect_err("no such trace");
        assert!(e.starts_with("MALEC: ghost run:"), "{e}");
    }

    #[test]
    fn an_empty_plan_runs_nothing() {
        let out = run_plan(&[], &StoppingRule::fixed(3), None).expect("nothing to fail");
        assert!(out.is_empty());
    }

    #[test]
    fn a_fixed_plan_returns_every_replicate_in_order() {
        let plan = [group(SimConfig::base1ldst()), group(SimConfig::malec())];
        let out = run_plan(&plan, &StoppingRule::fixed(3), Some(2)).expect("generator runs");
        assert_eq!(out.len(), 2);
        for (g, replicates) in plan.iter().zip(&out) {
            assert_eq!(replicates.len(), 3);
            for (r, s) in replicates.iter().enumerate() {
                let alone = g.simulate(r as u32).expect("generator run");
                assert_eq!(crate::digest::digest(s), crate::digest::digest(&alone));
            }
        }
    }

    #[test]
    fn a_failing_cell_fails_the_plan() {
        let plan = [
            group(SimConfig::base1ldst()),
            replay_group(SimConfig::malec()),
        ];
        let e = run_plan(&plan, &StoppingRule::fixed(2), Some(2)).expect_err("missing trace");
        assert!(e.contains("MALEC") && e.contains("ghost"), "{e}");
    }

    #[test]
    fn a_pair_without_a_target_runs_both_halves_to_the_cap() {
        let rule = StoppingRule {
            replication: Replication::fixed(3),
            pair: Some((1, 0, Alpha::Five)),
        };
        let plan = [group(SimConfig::malec()), group(SimConfig::base1ldst())];
        let out = run_plan(&plan, &rule, Some(2)).expect("generator runs");
        assert_eq!(out.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3]);
        let plain = run_plan(&plan, &StoppingRule::fixed(3), Some(2)).expect("generator runs");
        for (a, b) in out.iter().flatten().zip(plain.iter().flatten()) {
            assert_eq!(
                crate::digest::digest(a),
                crate::digest::digest(b),
                "pairing changes when groups stop, never what they simulate"
            );
        }
    }

    #[test]
    fn early_stopping_is_bit_identical_at_any_cap() {
        let rule = StoppingRule::new(targeted(6, 2));
        let plan = [group(SimConfig::base2ld1st()), group(SimConfig::malec())];
        let serial = run_plan(&plan, &rule, Some(1)).expect("generator runs");
        for jobs in [Some(3), None] {
            let fanned = run_plan(&plan, &rule, jobs).expect("generator runs");
            assert_eq!(
                serial.iter().map(Vec::len).collect::<Vec<_>>(),
                fanned.iter().map(Vec::len).collect::<Vec<_>>(),
                "{jobs:?}: the cap must not change the counts"
            );
            for (a, b) in serial.iter().flatten().zip(fanned.iter().flatten()) {
                assert_eq!(crate::digest::digest(a), crate::digest::digest(b));
            }
        }
    }
}
