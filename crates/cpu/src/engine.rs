//! The trace-driven out-of-order engine.
//!
//! A deliberately compact but cycle-accurate model of the Table II core:
//! dispatch (6-wide) into a 168-entry ROB, dependency-checked issue
//! (8-wide) with per-configuration AGU arbitration for memory operations,
//! in-order commit (6-wide), and front-end stalls on mispredicted branches.
//! Loads complete when the plugged [`L1DataInterface`] says their data
//! arrived; everything else completes after a fixed execution latency.
//!
//! Issue walks **per-kind unissued bitmaps**, so ready entries blocked on a
//! used-up resource cost nothing. Unissued ops, branches and loads sit in
//! one bitmap each over the power-of-two ROB ring; unissued stores sit in a
//! program-order queue of which only the front may issue. The walk visits
//! candidates in program order with `trailing_zeros`, masking out each kind
//! the moment its resource (ALUs, LQ entries, AGUs) runs out, and checks
//! the one producer of each candidate it visits. Every entry waits on at
//! most one producer, so that check is a single `done_at` comparison.
//!
//! The walk offers, claims AGUs and stalls exactly as a full program-order
//! scan of the unissued entries would; that scan is kept as a test-only
//! reference and checked differentially.

use std::collections::VecDeque;

use malec_trace::inst::{DepDistance, TraceInst};
use malec_types::config::SimConfig;
use malec_types::op::{MemOp, OpId};

use crate::interface::L1DataInterface;

#[cfg(test)]
mod reference;

/// Cycles to refill the front-end after a mispredicted branch resolves.
const MISPREDICT_REFILL: u64 = 5;
/// Watchdog: a commit drought this long means the interface lost an op.
const DEADLOCK_LIMIT: u64 = 100_000;
/// Non-memory execution units (ALU/FP issue slots per cycle).
const ALU_UNITS: usize = 4;
const NO_DEP: u64 = u64::MAX;
const UNKNOWN: u64 = u64::MAX;

/// Unissued-bitmap lanes, one per issue resource class (stores are queued
/// in `OoOCore::stores` instead).
const OPS: usize = 0;
const BRANCHES: usize = 1;
const LOADS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryKind {
    Op { latency: u8 },
    Load,
    Store,
    Branch { mispredicted: bool },
}

/// Resolves a backward dependency distance of the instruction at absolute
/// index `idx` to its producer's absolute index, or [`NO_DEP`].
///
/// A distance of 0 (an instruction cannot wait on itself) and a distance
/// reaching before the start of the trace (the producer already executed)
/// impose no constraint.
fn dep_of(dist: Option<DepDistance>, idx: u64) -> u64 {
    match dist {
        Some(d) if d != 0 && u64::from(d) <= idx => idx - u64::from(d),
        _ => NO_DEP,
    }
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    kind: EntryKind,
    mem: Option<MemOp>,
    /// Cycle the result is available ([`UNKNOWN`] until issue, or until
    /// the interface reports a load's data).
    done_at: u64,
    /// Absolute index of the producer this entry waits on, or [`NO_DEP`].
    dep: u64,
}

impl RobEntry {
    const VACANT: Self = Self {
        kind: EntryKind::Op { latency: 0 },
        mem: None,
        done_at: UNKNOWN,
        dep: NO_DEP,
    };
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
/// The ROB is a power-of-two ring indexed by an instruction's absolute
/// (program-order) index; issue candidates are tracked by per-kind
/// unissued bitmaps over that ring (see the [module docs](self)).
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
    /// The ROB ring; entry `idx` lives in slot `idx & ring_mask`. Live
    /// entries are `rob_base..next_idx`.
    rob: Vec<RobEntry>,
    ring_mask: usize,
    /// Per 64-slot word of the ring, one bitmap per lane: the unissued
    /// entries of that kind. Vacant and issued slots are clear.
    unissued: Vec<[u64; 3]>,
    /// Unissued stores in program order. Stores claim store-buffer entries
    /// in program order, so only the front one may ever be offered.
    stores: VecDeque<u64>,
    rob_base: u64,
    next_idx: u64,
    cycle: u64,
    inflight_loads: usize,
    fe_blocked_on: Option<u64>,
    fe_resume_at: u64,
    stats: CoreStats,
    completed_buf: Vec<OpId>,
}

impl<I: L1DataInterface> OoOCore<I> {
    /// Creates a core with the Table II parameters of `config`, bound to
    /// `interface`.
    pub fn new(config: &SimConfig, interface: I) -> Self {
        let agus = config.agus();
        let rob_size = usize::from(config.rob_entries);
        let ring = rob_size.next_power_of_two().max(64);
        Self {
            interface,
            rob_size,
            dispatch_width: usize::from(config.dispatch_width),
            issue_width: usize::from(config.issue_width),
            lq_entries: usize::from(config.lq_entries),
            load_only_agus: u32::from(agus.load_only),
            store_only_agus: u32::from(agus.store_only),
            shared_agus: u32::from(agus.shared),
            rob: vec![RobEntry::VACANT; ring],
            ring_mask: ring - 1,
            unissued: vec![[0; 3]; ring / 64],
            stores: VecDeque::with_capacity(rob_size),
            rob_base: 0,
            next_idx: 0,
            cycle: 0,
            inflight_loads: 0,
            fe_blocked_on: None,
            fe_resume_at: 0,
            stats: CoreStats::default(),
            completed_buf: Vec::with_capacity(8),
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
                if (self.rob_base..self.next_idx).contains(&id.0) {
                    let slot = self.slot(id.0);
                    debug_assert_eq!(self.rob[slot].kind, EntryKind::Load);
                    self.rob[slot].done_at = self.cycle;
                    self.inflight_loads -= 1;
                }
            }
            self.completed_buf = completed;

            // 2. Commit.
            let mut commits = 0;
            while commits < self.dispatch_width && self.rob_base < self.next_idx {
                let idx = self.rob_base;
                let head = self.rob[self.slot(idx)];
                if head.done_at == UNKNOWN || head.done_at > self.cycle {
                    break;
                }
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
            let occupancy = self.next_idx - self.rob_base;
            if trace_done && occupancy == 0 {
                break;
            }
            if self.cycle.saturating_sub(last_commit_cycle) > DEADLOCK_LIMIT {
                panic!(
                    "no commit for {DEADLOCK_LIMIT} cycles at cycle {}: \
                     rob={occupancy} inflight={} pending={}",
                    self.cycle,
                    self.inflight_loads,
                    self.interface.pending_loads()
                );
            }
            self.cycle += 1;
        }

        self.stats.cycles = self.cycle.max(1);
        self.stats
    }

    fn slot(&self, idx: u64) -> usize {
        idx as usize & self.ring_mask
    }

    fn mark_unissued(&mut self, slot: usize, lane: usize) {
        self.unissued[slot >> 6][lane] |= 1 << (slot & 63);
    }

    fn clear_unissued(&mut self, slot: usize, lane: usize) {
        self.unissued[slot >> 6][lane] &= !(1 << (slot & 63));
    }

    /// Whether the producer of the entry in `slot` has its result by now.
    fn dep_satisfied(&self, slot: usize) -> bool {
        let dep = self.rob[slot].dep;
        dep == NO_DEP || dep < self.rob_base || self.rob[self.slot(dep)].done_at <= self.cycle
    }

    /// The oldest entry at or after `from` that may issue now: an unissued
    /// branch, op (if `ops`) or load (if `loads`) whose producer is done,
    /// or the oldest unissued store if its producer is done and `stores`.
    fn next_candidate(&self, from: u64, ops: bool, loads: bool, stores: bool) -> Option<u64> {
        let store = self
            .stores
            .front()
            .copied()
            .filter(|&s| stores && s >= from && self.dep_satisfied(self.slot(s)));
        let end = store.unwrap_or(self.next_idx);
        let op_mask = if ops { u64::MAX } else { 0 };
        let load_mask = if loads { u64::MAX } else { 0 };
        let mut pos = from;
        while pos < end {
            let slot = self.slot(pos);
            let offset = slot & 63;
            let w = &self.unissued[slot >> 6];
            let mut bits = (w[BRANCHES] | (w[OPS] & op_mask) | (w[LOADS] & load_mask)) >> offset;
            while bits != 0 {
                let found = pos + u64::from(bits.trailing_zeros());
                // A bit at or past `end` is a younger entry, or through the
                // ring's wrap one the walk already passed: the store, if
                // any, comes first.
                if found >= end {
                    return store;
                }
                if self.dep_satisfied(self.slot(found)) {
                    return Some(found);
                }
                bits &= bits - 1;
            }
            pos += 64 - offset as u64;
        }
        store
    }

    /// One issue pass: the candidates in program order, each kind offered
    /// only while its resource lasts.
    fn issue_cycle(&mut self) {
        let mut issued = 0usize;
        let mut alu_free = ALU_UNITS;
        let mut load_agus = self.load_only_agus;
        let mut store_agus = self.store_only_agus;
        let mut shared_agus = self.shared_agus;
        let mut agu_stalled = false;

        let mut from = self.rob_base;
        while issued < self.issue_width {
            let loads_ok = self.inflight_loads < self.lq_entries && load_agus + shared_agus > 0;
            let stores_ok = store_agus + shared_agus > 0;
            let Some(idx) = self.next_candidate(from, alu_free > 0, loads_ok, stores_ok) else {
                break;
            };
            from = idx + 1;
            let slot = self.slot(idx);
            let e = self.rob[slot];
            match e.kind {
                EntryKind::Op { latency } => {
                    alu_free -= 1;
                    self.clear_unissued(slot, OPS);
                    self.rob[slot].done_at = self.cycle + u64::from(latency);
                    issued += 1;
                }
                EntryKind::Branch { .. } => {
                    self.clear_unissued(slot, BRANCHES);
                    self.rob[slot].done_at = self.cycle + 1;
                    issued += 1;
                    // A mispredicted branch resolves here: schedule the
                    // front-end restart (resolution + refill).
                    if self.fe_blocked_on == Some(idx) {
                        self.fe_blocked_on = None;
                        self.fe_resume_at = self.cycle + 1 + MISPREDICT_REFILL;
                    }
                }
                EntryKind::Load => {
                    // Claim an AGU: prefer a load-only unit.
                    if load_agus > 0 {
                        load_agus -= 1;
                    } else {
                        shared_agus -= 1;
                    }
                    let op = e.mem.expect("load carries a MemOp");
                    debug_assert_eq!(op.id, OpId(idx));
                    if self.interface.offer_load(op).is_accepted() {
                        self.clear_unissued(slot, LOADS);
                        self.inflight_loads += 1;
                        issued += 1;
                    } else {
                        // The AGU cycle is wasted (the paper stalls AGUs
                        // when the Input Buffer is full).
                        agu_stalled = true;
                    }
                }
                EntryKind::Store => {
                    if store_agus > 0 {
                        store_agus -= 1;
                    } else {
                        shared_agus -= 1;
                    }
                    let op = e.mem.expect("store carries a MemOp");
                    // A rejected store stays at the front of `stores`,
                    // behind `from`: no younger store is offered this cycle.
                    if self.interface.offer_store(op).is_accepted() {
                        self.stores.pop_front();
                        self.rob[slot].done_at = self.cycle + 1;
                        issued += 1;
                    } else {
                        agu_stalled = true;
                    }
                }
            }
        }

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
            if self.next_idx - self.rob_base >= self.rob_size as u64 {
                return false;
            }
            let Some(inst) = trace.next() else {
                return true;
            };
            let idx = self.next_idx;
            self.next_idx += 1;
            let (kind, mem, dep) = match inst {
                TraceInst::Op { latency, dep } => (EntryKind::Op { latency }, None, dep),
                TraceInst::Load {
                    vaddr,
                    size,
                    addr_dep,
                } => (
                    EntryKind::Load,
                    Some(MemOp::load(OpId(idx), vaddr, size)),
                    addr_dep,
                ),
                TraceInst::Store {
                    vaddr,
                    size,
                    data_dep,
                } => (
                    EntryKind::Store,
                    Some(MemOp::store(OpId(idx), vaddr, size)),
                    data_dep,
                ),
                TraceInst::Branch { mispredicted, dep } => {
                    (EntryKind::Branch { mispredicted }, None, dep)
                }
            };
            let slot = self.slot(idx);
            self.rob[slot] = RobEntry {
                kind,
                mem,
                done_at: UNKNOWN,
                dep: dep_of(dep, idx),
            };
            match kind {
                EntryKind::Op { .. } => self.mark_unissued(slot, OPS),
                EntryKind::Branch { .. } => self.mark_unissued(slot, BRANCHES),
                EntryKind::Load => self.mark_unissued(slot, LOADS),
                EntryKind::Store => self.stores.push_back(idx),
            }
            if kind == (EntryKind::Branch { mispredicted: true }) {
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

    /// One offer the core made: cycle, op, store?, accepted?
    type Offer = (u64, OpId, bool, bool);

    /// Fixed-latency interface: every load completes `latency` cycles after
    /// acceptance; accepts up to `per_cycle` loads per cycle and rejects
    /// every store offered before cycle `stores_from`.
    #[derive(Debug)]
    struct FixedLatency {
        latency: u64,
        per_cycle: usize,
        stores_from: u64,
        accepted_this_cycle: usize,
        inflight: Vec<(u64, OpId)>,
        cycle: u64,
        commits_seen: Vec<OpId>,
        offers: Vec<Offer>,
    }

    impl FixedLatency {
        fn new(latency: u64, per_cycle: usize) -> Self {
            Self {
                latency,
                per_cycle,
                stores_from: 0,
                accepted_this_cycle: 0,
                inflight: Vec::new(),
                cycle: 0,
                commits_seen: Vec::new(),
                offers: Vec::new(),
            }
        }

        /// Cycle of the first offer of `id`.
        fn first_offer(&self, id: u64) -> u64 {
            self.offers
                .iter()
                .find(|o| o.1 == OpId(id))
                .map(|o| o.0)
                .expect("op was offered")
        }

        /// Cycle `id` was accepted.
        fn accepted_at(&self, id: u64) -> u64 {
            self.offers
                .iter()
                .find(|o| o.1 == OpId(id) && o.3)
                .map(|o| o.0)
                .expect("op was accepted")
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
            let accept = self.accepted_this_cycle < self.per_cycle;
            self.offers.push((self.cycle, op.id, false, accept));
            if !accept {
                return AcceptKind::Rejected;
            }
            self.accepted_this_cycle += 1;
            self.inflight.push((self.cycle + self.latency, op.id));
            AcceptKind::Accepted
        }

        fn offer_store(&mut self, op: MemOp) -> AcceptKind {
            let accept = self.cycle >= self.stores_from;
            self.offers.push((self.cycle, op.id, true, accept));
            if accept {
                AcceptKind::Accepted
            } else {
                AcceptKind::Rejected
            }
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

    fn st(addr: u64, data_dep: Option<DepDistance>) -> TraceInst {
        TraceInst::Store {
            vaddr: VAddr::new(addr),
            size: 4,
            data_dep,
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
        let trace = vec![st(0x2000, None), op()];
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

    #[test]
    fn dep_distance_zero_is_no_constraint() {
        // A distance of 0 names the instruction itself; it used to make
        // the entry wait on its own result until the watchdog fired.
        let trace = vec![
            TraceInst::Op {
                latency: 1,
                dep: Some(0),
            },
            TraceInst::Load {
                vaddr: VAddr::new(0x1000),
                size: 4,
                addr_dep: Some(0),
            },
            st(0x2000, Some(0)),
            TraceInst::Branch {
                mispredicted: true,
                dep: Some(0),
            },
        ];
        let (stats, iface) = run_trace(trace, FixedLatency::new(2, 4));
        assert_eq!(stats.committed, 4);
        // Both memory ops were free to issue in the first issue cycle.
        assert_eq!(iface.first_offer(1), 1);
        assert_eq!(iface.first_offer(2), 1);
        assert_eq!(dep_of(Some(0), 7), NO_DEP);
        assert_eq!(dep_of(Some(8), 7), NO_DEP);
        assert_eq!(dep_of(Some(7), 7), 0);
    }

    #[test]
    fn latency_zero_producer_lets_a_younger_consumer_issue_in_the_same_cycle() {
        let consumer = TraceInst::Load {
            vaddr: VAddr::new(0x1000),
            size: 4,
            addr_dep: Some(1),
        };
        let offer_cycle = |latency| {
            let trace = vec![TraceInst::Op { latency, dep: None }, consumer];
            let (stats, iface) = run_trace(trace, FixedLatency::new(2, 4));
            assert_eq!(stats.committed, 2);
            iface.first_offer(1)
        };
        // Both are dispatched in cycle 0; the producer issues in cycle 1.
        assert_eq!(offer_cycle(0), 1, "latency 0: same-cycle issue");
        assert_eq!(offer_cycle(1), 2);
        assert_eq!(offer_cycle(3), 4);
    }

    #[test]
    fn younger_store_waits_behind_a_dependency_blocked_older_store() {
        // Store 1 waits on a 10-cycle load; store 2 is ready at once and
        // MALEC has two store-capable AGUs, yet it must not be offered
        // before store 1.
        let trace = vec![ld(0x1000), st(0x2000, Some(1)), st(0x3000, None)];
        let (stats, iface) = run_trace(trace, FixedLatency::new(10, 4));
        assert_eq!(stats.committed, 3);
        assert_eq!(iface.first_offer(1), 11);
        assert_eq!(iface.first_offer(2), iface.accepted_at(1));
        assert_eq!(iface.commits_seen, vec![OpId(1), OpId(2)]);
    }

    #[test]
    fn younger_store_waits_behind_a_rejected_older_store() {
        let trace = vec![st(0x2000, None), st(0x3000, None), op()];
        let mut iface = FixedLatency::new(2, 4);
        iface.stores_from = 5;
        let (stats, iface) = run_trace(trace, iface);
        assert_eq!(stats.committed, 3);
        // Store 0 is offered (and rejected) every cycle 1..5; store 1 is
        // never offered while it is outstanding, despite a free AGU.
        let store0: Vec<_> = iface.offers.iter().filter(|o| o.1 == OpId(0)).collect();
        assert_eq!(store0.len(), 5);
        assert_eq!(iface.accepted_at(0), 5);
        assert_eq!(iface.first_offer(1), 5);
        assert_eq!(stats.agu_stall_cycles, 4);
    }

    #[test]
    fn alu_saturated_independent_ops_issue_four_per_cycle() {
        // Dispatch (6) outruns the 4 ALUs, so from cycle 1 on exactly four
        // ops issue every cycle: 4000 ops issue in cycles 1..=1000 and the
        // last commits in cycle 1001.
        let trace: Vec<TraceInst> = (0..4000).map(|_| op()).collect();
        let (stats, _) = run_trace(trace, FixedLatency::new(2, 4));
        assert_eq!(stats.issued_ops, 4000);
        assert_eq!(stats.cycles, 1001);
    }
}
