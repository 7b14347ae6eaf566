//! The candidate-list scan that bitmap-driven issue replaced, kept verbatim
//! as the differential oracle for [`OoOCore`](super::OoOCore).
//!
//! Every cycle it walks all not-yet-issued ROB entries in program order and
//! re-checks each one's dependency. With the production core it shares
//! only dispatch's dependency resolution ([`dep_of`]), the entry kinds and
//! the pipeline constants; its ROB, readiness tracking and issue walk are
//! its own.

use std::collections::VecDeque;

use malec_trace::inst::TraceInst;
use malec_types::config::SimConfig;
use malec_types::op::{MemOp, OpId};

use super::{
    dep_of, CoreStats, EntryKind, ALU_UNITS, DEADLOCK_LIMIT, MISPREDICT_REFILL, NO_DEP, UNKNOWN,
};
use crate::interface::L1DataInterface;

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    kind: EntryKind,
    mem: Option<MemOp>,
    deps: [u64; 2],
    done_at: u64,
    issued: bool,
}

/// The reference core: same pipeline, same interface protocol, O(ROB)
/// issue scan.
#[derive(Debug)]
pub(super) struct ReferenceCore<I> {
    interface: I,
    rob_size: usize,
    dispatch_width: usize,
    issue_width: usize,
    lq_entries: usize,
    load_only_agus: u32,
    store_only_agus: u32,
    shared_agus: u32,
    rob: VecDeque<RobEntry>,
    rob_base: u64,
    next_idx: u64,
    cycle: u64,
    inflight_loads: usize,
    fe_blocked_on: Option<u64>,
    fe_resume_at: u64,
    stats: CoreStats,
    completed_buf: Vec<OpId>,
    unissued: Vec<u64>,
}

impl<I: L1DataInterface> ReferenceCore<I> {
    pub(super) fn new(config: &SimConfig, interface: I) -> Self {
        let agus = config.agus();
        Self {
            interface,
            rob_size: usize::from(config.rob_entries),
            dispatch_width: usize::from(config.dispatch_width),
            issue_width: usize::from(config.issue_width),
            lq_entries: usize::from(config.lq_entries),
            load_only_agus: u32::from(agus.load_only),
            store_only_agus: u32::from(agus.store_only),
            shared_agus: u32::from(agus.shared),
            rob: VecDeque::with_capacity(usize::from(config.rob_entries)),
            rob_base: 0,
            next_idx: 0,
            cycle: 0,
            inflight_loads: 0,
            fe_blocked_on: None,
            fe_resume_at: 0,
            stats: CoreStats::default(),
            completed_buf: Vec::with_capacity(8),
            unissued: Vec::with_capacity(usize::from(config.rob_entries)),
        }
    }

    pub(super) fn into_interface(self) -> I {
        self.interface
    }

    pub(super) fn run(&mut self, mut trace: impl Iterator<Item = TraceInst>) -> CoreStats {
        let mut trace_done = false;
        let mut last_commit_cycle = 0u64;

        loop {
            // 1. Interface cycle: collect load completions.
            self.completed_buf.clear();
            let mut completed = std::mem::take(&mut self.completed_buf);
            self.interface.tick(self.cycle, &mut completed);
            for id in &completed {
                let pos = id.0.checked_sub(self.rob_base).map(|o| o as usize);
                if let Some(pos) = pos {
                    if let Some(e) = self.rob.get_mut(pos) {
                        debug_assert_eq!(e.kind, EntryKind::Load);
                        e.done_at = self.cycle;
                        self.inflight_loads -= 1;
                    }
                }
            }
            self.completed_buf = completed;

            // 2. Commit.
            let mut commits = 0;
            while commits < self.dispatch_width {
                let Some(head) = self.rob.front() else { break };
                if head.done_at == UNKNOWN || head.done_at > self.cycle {
                    break;
                }
                let head = self.rob.pop_front().expect("front exists");
                let idx = self.rob_base;
                self.rob_base += 1;
                commits += 1;
                self.stats.committed += 1;
                match head.kind {
                    EntryKind::Load => self.stats.loads += 1,
                    EntryKind::Store => {
                        self.stats.stores += 1;
                        self.interface.commit_store(OpId(idx));
                    }
                    EntryKind::Branch { .. } => self.stats.branches += 1,
                    EntryKind::Op { .. } => {}
                }
            }
            if commits > 0 {
                last_commit_cycle = self.cycle;
            }

            // 3. Issue.
            self.issue_cycle();

            // 4. Dispatch.
            if !trace_done {
                trace_done = self.dispatch_cycle(&mut trace);
            }

            // 5. Termination / watchdog.
            if trace_done && self.rob.is_empty() {
                break;
            }
            if self.cycle.saturating_sub(last_commit_cycle) > DEADLOCK_LIMIT {
                panic!(
                    "no commit for {DEADLOCK_LIMIT} cycles at cycle {}: \
                     rob={} inflight={} pending={}",
                    self.cycle,
                    self.rob.len(),
                    self.inflight_loads,
                    self.interface.pending_loads()
                );
            }
            self.cycle += 1;
        }

        self.stats.cycles = self.cycle.max(1);
        self.stats
    }

    fn dep_satisfied(&self, dep: u64) -> bool {
        if dep == NO_DEP || dep < self.rob_base {
            return true;
        }
        let pos = (dep - self.rob_base) as usize;
        match self.rob.get(pos) {
            Some(e) => e.done_at != UNKNOWN && e.done_at <= self.cycle,
            None => true,
        }
    }

    /// One issue pass over the unissued candidate list (program order).
    fn issue_cycle(&mut self) {
        let mut issued = 0usize;
        let mut alu_used = 0usize;
        let mut load_agus = self.load_only_agus;
        let mut store_agus = self.store_only_agus;
        let mut shared_agus = self.shared_agus;
        let mut agu_stalled = false;
        // Stores allocate store-buffer entries in program order; letting a
        // younger store claim the last SB slot while an older one waits
        // would deadlock the buffer (it drains strictly in order).
        let mut older_store_unissued = false;

        let mut kept = 0usize;
        for u in 0..self.unissued.len() {
            let idx = self.unissued[u];
            // Issue width exhausted: everything further stays a candidate.
            if issued >= self.issue_width {
                self.unissued[kept] = idx;
                kept += 1;
                continue;
            }
            let pos = (idx - self.rob_base) as usize;
            let e = self.rob[pos];
            debug_assert!(!e.issued, "issued entries leave the candidate list");
            let is_store = matches!(e.kind, EntryKind::Store);
            let deps_ok = !(is_store && older_store_unissued)
                && self.dep_satisfied(e.deps[0])
                && self.dep_satisfied(e.deps[1]);
            if !deps_ok {
                if is_store {
                    older_store_unissued = true;
                }
                self.unissued[kept] = idx;
                kept += 1;
                continue;
            }
            let mut did_issue = false;
            match e.kind {
                EntryKind::Op { latency } => {
                    if alu_used < ALU_UNITS {
                        alu_used += 1;
                        let entry = &mut self.rob[pos];
                        entry.issued = true;
                        entry.done_at = self.cycle + u64::from(latency);
                        issued += 1;
                        did_issue = true;
                    }
                }
                EntryKind::Branch { .. } => {
                    let entry = &mut self.rob[pos];
                    entry.issued = true;
                    entry.done_at = self.cycle + 1;
                    issued += 1;
                    did_issue = true;
                    // A mispredicted branch resolves here: schedule the
                    // front-end restart (resolution + refill).
                    if self.fe_blocked_on == Some(idx) {
                        self.fe_blocked_on = None;
                        self.fe_resume_at = self.cycle + 1 + MISPREDICT_REFILL;
                    }
                }
                EntryKind::Load => {
                    if self.inflight_loads < self.lq_entries {
                        // Claim an AGU: prefer a load-only unit.
                        let have_agu = if load_agus > 0 {
                            load_agus -= 1;
                            true
                        } else if shared_agus > 0 {
                            shared_agus -= 1;
                            true
                        } else {
                            false
                        };
                        if have_agu {
                            let op = e.mem.expect("load carries a MemOp");
                            debug_assert_eq!(op.id, OpId(idx));
                            if self.interface.offer_load(op).is_accepted() {
                                let entry = &mut self.rob[pos];
                                entry.issued = true;
                                self.inflight_loads += 1;
                                issued += 1;
                                did_issue = true;
                            } else {
                                // The AGU cycle is wasted (the paper stalls
                                // AGUs when the Input Buffer is full).
                                agu_stalled = true;
                            }
                        }
                    }
                }
                EntryKind::Store => {
                    let have_agu = if store_agus > 0 {
                        store_agus -= 1;
                        true
                    } else if shared_agus > 0 {
                        shared_agus -= 1;
                        true
                    } else {
                        false
                    };
                    if have_agu {
                        let op = e.mem.expect("store carries a MemOp");
                        if self.interface.offer_store(op).is_accepted() {
                            let entry = &mut self.rob[pos];
                            entry.issued = true;
                            entry.done_at = self.cycle + 1;
                            issued += 1;
                            did_issue = true;
                        } else {
                            agu_stalled = true;
                            older_store_unissued = true;
                        }
                    } else {
                        older_store_unissued = true;
                    }
                }
            }
            if !did_issue {
                self.unissued[kept] = idx;
                kept += 1;
            }
        }
        self.unissued.truncate(kept);

        if agu_stalled {
            self.stats.agu_stall_cycles += 1;
        }
        self.stats.issued_ops += issued as u64;
    }

    /// Returns true when the trace is exhausted.
    fn dispatch_cycle(&mut self, trace: &mut impl Iterator<Item = TraceInst>) -> bool {
        // Front-end blocked on an unresolved mispredicted branch, or still
        // refilling after one resolved?
        if self.fe_blocked_on.is_some() || self.cycle < self.fe_resume_at {
            return false;
        }

        for _ in 0..self.dispatch_width {
            if self.rob.len() >= self.rob_size {
                return false;
            }
            let Some(inst) = trace.next() else {
                return true;
            };
            let idx = self.next_idx;
            self.next_idx += 1;
            let entry = match inst {
                TraceInst::Op { latency, dep } => RobEntry {
                    kind: EntryKind::Op { latency },
                    mem: None,
                    deps: [dep_of(dep, idx), NO_DEP],
                    done_at: UNKNOWN,
                    issued: false,
                },
                TraceInst::Load {
                    vaddr,
                    size,
                    addr_dep,
                } => RobEntry {
                    kind: EntryKind::Load,
                    mem: Some(MemOp::load(OpId(idx), vaddr, size)),
                    deps: [dep_of(addr_dep, idx), NO_DEP],
                    done_at: UNKNOWN,
                    issued: false,
                },
                TraceInst::Store {
                    vaddr,
                    size,
                    data_dep,
                } => RobEntry {
                    kind: EntryKind::Store,
                    mem: Some(MemOp::store(OpId(idx), vaddr, size)),
                    deps: [dep_of(data_dep, idx), NO_DEP],
                    done_at: UNKNOWN,
                    issued: false,
                },
                TraceInst::Branch { mispredicted, dep } => RobEntry {
                    kind: EntryKind::Branch { mispredicted },
                    mem: None,
                    deps: [dep_of(dep, idx), NO_DEP],
                    done_at: UNKNOWN,
                    issued: false,
                },
            };
            let is_mispredict = matches!(entry.kind, EntryKind::Branch { mispredicted: true });
            self.rob.push_back(entry);
            self.unissued.push(idx);
            if is_mispredict {
                self.fe_blocked_on = Some(idx);
                return false;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::ReferenceCore;
    use crate::engine::OoOCore;
    use crate::interface::{AcceptKind, L1DataInterface};
    use malec_trace::inst::TraceInst;
    use malec_types::addr::VAddr;
    use malec_types::config::{AgwConfig, SimConfig};
    use malec_types::op::{MemOp, OpId};

    /// A splitmix64 stream: the property's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One interface call: what, in which cycle, for which op, and the
    /// answer (`true` for a tick's completion).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Call {
        Complete,
        OfferLoad,
        OfferStore,
        CommitStore,
    }

    /// A seeded interface with variable load latency, a per-cycle load
    /// accept cap, random store rejections and a small store buffer. It
    /// logs every call; its answers depend on its seed and the calls it
    /// has seen, so two cores making the same calls see the same answers.
    struct Recording {
        rng: Rng,
        cycle: u64,
        max_latency: u64,
        load_cap: u64,
        loads_this_cycle: u64,
        store_reject_pct: u64,
        sb_capacity: usize,
        sb: usize,
        inflight: Vec<(u64, OpId)>,
        log: Vec<(Call, u64, u64, bool)>,
    }

    impl Recording {
        fn new(seed: u64) -> Self {
            let mut rng = Rng(seed);
            Self {
                max_latency: 1 + rng.below(12),
                load_cap: rng.below(4),
                store_reject_pct: rng.below(60),
                sb_capacity: 1 + rng.below(6) as usize,
                rng,
                cycle: 0,
                loads_this_cycle: 0,
                sb: 0,
                inflight: Vec::new(),
                log: Vec::new(),
            }
        }
    }

    impl L1DataInterface for Recording {
        fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
            self.cycle = cycle;
            self.loads_this_cycle = 0;
            let mut i = 0;
            while i < self.inflight.len() {
                if self.inflight[i].0 <= cycle {
                    let id = self.inflight.swap_remove(i).1;
                    completed.push(id);
                    self.log.push((Call::Complete, cycle, id.0, true));
                } else {
                    i += 1;
                }
            }
        }

        fn offer_load(&mut self, op: MemOp) -> AcceptKind {
            // A cap of 0 still accepts now and then, so no run starves.
            let accept =
                self.loads_this_cycle < self.load_cap.max(u64::from(self.rng.below(8) == 0));
            self.log
                .push((Call::OfferLoad, self.cycle, op.id.0, accept));
            if !accept {
                return AcceptKind::Rejected;
            }
            self.loads_this_cycle += 1;
            let due = self.cycle + self.rng.below(self.max_latency + 1);
            self.inflight.push((due, op.id));
            AcceptKind::Accepted
        }

        fn offer_store(&mut self, op: MemOp) -> AcceptKind {
            let accept = self.sb < self.sb_capacity && self.rng.below(100) >= self.store_reject_pct;
            self.log
                .push((Call::OfferStore, self.cycle, op.id.0, accept));
            if !accept {
                return AcceptKind::Rejected;
            }
            self.sb += 1;
            AcceptKind::Accepted
        }

        fn commit_store(&mut self, id: OpId) {
            self.sb -= 1;
            self.log.push((Call::CommitStore, self.cycle, id.0, true));
        }

        fn pending_loads(&self) -> usize {
            self.inflight.len()
        }
    }

    /// A random trace: latencies 0–4, dependency distances from 0 to past
    /// the ROB, mispredicts, and a kind mix drawn per trace (some runs are
    /// store-heavy, some load- or op-heavy).
    fn trace(rng: &mut Rng, rob: u64) -> Vec<TraceInst> {
        let weights = [
            1 + rng.below(8),
            1 + rng.below(8),
            1 + rng.below(8),
            1 + rng.below(3),
        ];
        let total: u64 = weights.iter().sum();
        let len = 100 + rng.below(500);
        let max_dep = rob + 8;
        (0..len)
            .map(|_| {
                let dep = match rng.below(4) {
                    0 => None,
                    1 => Some(rng.below(4) as u32),
                    _ => Some(rng.below(max_dep + 1) as u32),
                };
                let vaddr = VAddr::new(0x1000 + rng.below(1 << 16) * 4);
                let mut pick = rng.below(total);
                let mut kind = 0;
                while pick >= weights[kind] {
                    pick -= weights[kind];
                    kind += 1;
                }
                match kind {
                    0 => TraceInst::Op {
                        latency: rng.below(5) as u8,
                        dep,
                    },
                    1 => TraceInst::Load {
                        vaddr,
                        size: 4,
                        addr_dep: dep,
                    },
                    2 => TraceInst::Store {
                        vaddr,
                        size: 4,
                        data_dep: dep,
                    },
                    _ => TraceInst::Branch {
                        mispredicted: rng.below(3) == 0,
                        dep,
                    },
                }
            })
            .collect()
    }

    fn config(which: usize, rng: &mut Rng) -> SimConfig {
        let mut cfg = match which {
            0 => SimConfig::base1ldst(),
            1 => SimConfig::base2ld1st(),
            2 => SimConfig::malec(),
            3 => {
                let mut cfg = SimConfig::malec();
                cfg.agu_override = Some(AgwConfig {
                    load_only: 0,
                    store_only: 2,
                    shared: 1,
                });
                cfg
            }
            4 => {
                let mut cfg = SimConfig::base2ld1st();
                cfg.rob_entries = 17;
                cfg
            }
            _ => {
                let mut cfg = SimConfig::malec();
                cfg.rob_entries = 300;
                cfg
            }
        };
        // A small LQ or issue width now and then exercises those limits.
        if rng.below(3) == 0 {
            cfg.lq_entries = 1 + rng.below(6) as u16;
        }
        if rng.below(3) == 0 {
            cfg.issue_width = 1 + rng.below(4) as u8;
        }
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Bitmap-driven issue makes exactly the interface calls, in the
        /// same cycles and order with the same answers, and reaches the
        /// same statistics as the full candidate scan.
        #[test]
        fn bitmap_issue_matches_the_reference_scan(
            seed in proptest::num::u64::ANY,
            which in 0usize..6,
        ) {
            let mut rng = Rng(seed);
            let cfg = config(which, &mut rng);
            let insts = trace(&mut rng, u64::from(cfg.rob_entries));
            let iface_seed = rng.next();

            let mut reference = ReferenceCore::new(&cfg, Recording::new(iface_seed));
            let want = reference.run(insts.clone().into_iter());
            let mut core = OoOCore::new(&cfg, Recording::new(iface_seed));
            let got = core.run(insts.iter().copied());

            prop_assert_eq!(want.committed, insts.len() as u64);
            let want_log = reference.into_interface().log;
            let got_log = core.into_interface().log;
            prop_assert_eq!(got_log.len(), want_log.len());
            for (i, (g, w)) in got_log.iter().zip(&want_log).enumerate() {
                prop_assert_eq!(g, w, "call {} of {}", i, want_log.len());
            }
            prop_assert_eq!(got, want);
        }
    }
}
