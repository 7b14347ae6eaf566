//! The trace-driven out-of-order engine.
//!
//! A deliberately compact but cycle-accurate model of the Table II core:
//! dispatch (6-wide) into a 168-entry ROB, dependency-checked issue
//! (8-wide) with per-configuration AGU arbitration for memory operations,
//! in-order commit (6-wide), and front-end stalls on mispredicted branches.
//! Loads complete when the plugged [`L1DataInterface`] says their data
//! arrived; everything else completes after a fixed execution latency.

use std::collections::VecDeque;

use malec_trace::inst::TraceInst;
use malec_types::config::SimConfig;
use malec_types::op::{MemOp, OpId};

use crate::interface::L1DataInterface;

/// Cycles to refill the front-end after a mispredicted branch resolves.
const MISPREDICT_REFILL: u64 = 5;
/// Watchdog: a commit drought this long means the interface lost an op.
const DEADLOCK_LIMIT: u64 = 100_000;
/// Non-memory execution units (ALU/FP issue slots per cycle).
const ALU_UNITS: usize = 4;
const NO_DEP: u64 = u64::MAX;
const UNKNOWN: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryKind {
    Op { latency: u8 },
    Load,
    Store,
    Branch { mispredicted: bool },
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    kind: EntryKind,
    mem: Option<MemOp>,
    deps: [u64; 2],
    done_at: u64,
    issued: bool,
}

/// Aggregate statistics of one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// Cycles elapsed until the last instruction committed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Cycles in which at least one AGU stalled on a rejected offer.
    pub agu_stall_cycles: u64,
    /// Issue slots actually used.
    pub issued_ops: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The out-of-order core bound to one L1 data interface.
///
/// # Example
///
/// ```no_run
/// use malec_cpu::OoOCore;
/// use malec_types::SimConfig;
///
/// # fn demo(interface: impl malec_cpu::L1DataInterface, trace: Vec<malec_trace::TraceInst>) {
/// let config = SimConfig::malec();
/// let mut core = OoOCore::new(&config, interface);
/// let stats = core.run(trace.into_iter());
/// println!("IPC = {:.2}", stats.ipc());
/// # }
/// ```
#[derive(Debug)]
pub struct OoOCore<I> {
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
    /// Issue candidates: absolute indices of not-yet-issued ROB entries in
    /// program order. Issue walks this (typically short) list instead of
    /// rescanning all 168 ROB entries every cycle; entries leave the moment
    /// they issue and are compacted in place, so steady state allocates
    /// nothing.
    unissued: Vec<u64>,
}

impl<I: L1DataInterface> OoOCore<I> {
    /// Creates a core with the Table II parameters of `config`, bound to
    /// `interface`.
    pub fn new(config: &SimConfig, interface: I) -> Self {
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

    /// Consumes the core, returning the interface (for its statistics).
    pub fn into_interface(self) -> I {
        self.interface
    }

    /// A reference to the interface.
    pub fn interface(&self) -> &I {
        &self.interface
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the interface stops making forward progress (an op is lost),
    /// which indicates a bug in an interface implementation rather than a
    /// property of any valid simulation.
    pub fn run(&mut self, mut trace: impl Iterator<Item = TraceInst>) -> CoreStats {
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
    ///
    /// Behaviorally identical to scanning the whole ROB and skipping issued
    /// entries — committed entries cannot appear here (commit requires a
    /// `done_at`, which only issue or load completion sets), and entries
    /// are appended in dispatch order — but the walk touches only the
    /// entries that can still issue. Entries that issue this cycle are
    /// dropped from the list by in-place compaction; everything else keeps
    /// its (program-order) position.
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
            let dep_of = |d: Option<u32>| match d {
                // A distance reaching before the start of the trace means
                // the producer already executed: no constraint.
                Some(dist) if u64::from(dist) <= idx => idx - u64::from(dist),
                _ => NO_DEP,
            };
            let entry = match inst {
                TraceInst::Op { latency, dep } => RobEntry {
                    kind: EntryKind::Op { latency },
                    mem: None,
                    deps: [dep_of(dep), NO_DEP],
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
                    deps: [dep_of(addr_dep), NO_DEP],
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
                    deps: [dep_of(data_dep), NO_DEP],
                    done_at: UNKNOWN,
                    issued: false,
                },
                TraceInst::Branch { mispredicted, dep } => RobEntry {
                    kind: EntryKind::Branch { mispredicted },
                    mem: None,
                    deps: [dep_of(dep), NO_DEP],
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
    use super::*;
    use crate::interface::AcceptKind;
    use malec_types::addr::VAddr;

    /// Fixed-latency interface: every load completes `latency` cycles after
    /// acceptance; accepts up to `per_cycle` loads per cycle.
    #[derive(Debug)]
    struct FixedLatency {
        latency: u64,
        per_cycle: usize,
        accepted_this_cycle: usize,
        inflight: Vec<(u64, OpId)>,
        cycle: u64,
        commits_seen: Vec<OpId>,
    }

    impl FixedLatency {
        fn new(latency: u64, per_cycle: usize) -> Self {
            Self {
                latency,
                per_cycle,
                accepted_this_cycle: 0,
                inflight: Vec::new(),
                cycle: 0,
                commits_seen: Vec::new(),
            }
        }
    }

    impl L1DataInterface for FixedLatency {
        fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
            self.cycle = cycle;
            self.accepted_this_cycle = 0;
            self.inflight.retain(|&(due, id)| {
                if due <= cycle {
                    completed.push(id);
                    false
                } else {
                    true
                }
            });
        }

        fn offer_load(&mut self, op: MemOp) -> AcceptKind {
            if self.accepted_this_cycle >= self.per_cycle {
                return AcceptKind::Rejected;
            }
            self.accepted_this_cycle += 1;
            self.inflight.push((self.cycle + self.latency, op.id));
            AcceptKind::Accepted
        }

        fn offer_store(&mut self, _op: MemOp) -> AcceptKind {
            AcceptKind::Accepted
        }

        fn commit_store(&mut self, id: OpId) {
            self.commits_seen.push(id);
        }

        fn pending_loads(&self) -> usize {
            self.inflight.len()
        }
    }

    fn ld(addr: u64) -> TraceInst {
        TraceInst::Load {
            vaddr: VAddr::new(addr),
            size: 4,
            addr_dep: None,
        }
    }

    fn op() -> TraceInst {
        TraceInst::Op {
            latency: 1,
            dep: None,
        }
    }

    fn run_trace(trace: Vec<TraceInst>, iface: FixedLatency) -> (CoreStats, FixedLatency) {
        let mut core = OoOCore::new(&SimConfig::malec(), iface);
        let stats = core.run(trace.into_iter());
        (stats, core.into_interface())
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let (stats, _) = run_trace(vec![], FixedLatency::new(3, 4));
        assert_eq!(stats.committed, 0);
        assert!(stats.cycles <= 2);
    }

    #[test]
    fn commits_everything_in_order() {
        let trace: Vec<TraceInst> = (0..100)
            .map(|i| if i % 3 == 0 { ld(0x1000 + i * 8) } else { op() })
            .collect();
        let (stats, iface) = run_trace(trace, FixedLatency::new(3, 4));
        assert_eq!(stats.committed, 100);
        assert_eq!(stats.loads, 34);
        assert_eq!(iface.pending_loads(), 0);
    }

    #[test]
    fn store_commit_is_notified() {
        let trace = vec![
            TraceInst::Store {
                vaddr: VAddr::new(0x2000),
                size: 4,
                data_dep: None,
            },
            op(),
        ];
        let (stats, iface) = run_trace(trace, FixedLatency::new(2, 4));
        assert_eq!(stats.stores, 1);
        assert_eq!(iface.commits_seen, vec![OpId(0)]);
    }

    #[test]
    fn dependent_ops_wait_for_load_latency() {
        // load -> dependent op chain: each pair costs >= load latency.
        let mut trace = Vec::new();
        for i in 0..50 {
            trace.push(TraceInst::Load {
                vaddr: VAddr::new(0x1000 + i * 64),
                size: 4,
                // Each load's address depends on the previous op, which
                // depends on the previous load: a fully serial chain.
                addr_dep: Some(1),
            });
            trace.push(TraceInst::Op {
                latency: 1,
                dep: Some(1),
            });
        }
        let slow = run_trace(trace.clone(), FixedLatency::new(10, 4)).0;
        let fast = run_trace(trace, FixedLatency::new(2, 4)).0;
        assert!(
            slow.cycles > fast.cycles + 100,
            "long load latency must slow a dependent chain: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn independent_loads_overlap() {
        // 100 independent loads with 10-cycle latency but 4 per cycle:
        // should take far less than 100 * 10 cycles.
        let trace: Vec<TraceInst> = (0..100).map(|i| ld(0x1000 + i * 64)).collect();
        let (stats, _) = run_trace(trace, FixedLatency::new(10, 4));
        assert!(stats.cycles < 200, "loads must pipeline: {}", stats.cycles);
    }

    #[test]
    fn acceptance_limit_throttles() {
        let trace: Vec<TraceInst> = (0..300).map(|i| ld(0x1000 + i * 64)).collect();
        let wide = run_trace(trace.clone(), FixedLatency::new(2, 4)).0;
        let narrow = run_trace(trace, FixedLatency::new(2, 1)).0;
        assert!(
            narrow.cycles > wide.cycles * 2,
            "1/cycle acceptance must throttle: {} vs {}",
            narrow.cycles,
            wide.cycles
        );
        assert!(narrow.agu_stall_cycles > 0);
    }

    #[test]
    fn mispredicted_branch_stalls_frontend() {
        let mut with_miss = Vec::new();
        let mut without = Vec::new();
        for _ in 0..50 {
            with_miss.push(TraceInst::Branch {
                mispredicted: true,
                dep: None,
            });
            without.push(TraceInst::Branch {
                mispredicted: false,
                dep: None,
            });
            for _ in 0..5 {
                with_miss.push(op());
                without.push(op());
            }
        }
        let a = run_trace(with_miss, FixedLatency::new(2, 4)).0;
        let b = run_trace(without, FixedLatency::new(2, 4)).0;
        assert!(
            a.cycles > b.cycles + 100,
            "mispredictions must cost cycles: {} vs {}",
            a.cycles,
            b.cycles
        );
    }

    #[test]
    fn rob_capacity_limits_overlap() {
        // A very long-latency load at the head; the ROB (168) fills behind it.
        let mut trace = vec![ld(0x1000)];
        for _ in 0..400 {
            trace.push(op());
        }
        let (stats, _) = run_trace(trace, FixedLatency::new(80, 4));
        // All 400 ops are independent; without ROB limits the run would be
        // ~80 cycles. The 168-entry ROB forces the tail to wait.
        assert!(stats.cycles >= 80 + (400 - 168) / 6);
        assert_eq!(stats.committed, 401);
    }

    #[test]
    fn ipc_is_computed() {
        let trace: Vec<TraceInst> = (0..600).map(|_| op()).collect();
        let (stats, _) = run_trace(trace, FixedLatency::new(2, 4));
        let ipc = stats.ipc();
        assert!(
            ipc > 3.0,
            "independent ops should flow near dispatch width: {ipc}"
        );
        assert!(ipc <= 6.01);
    }
}
