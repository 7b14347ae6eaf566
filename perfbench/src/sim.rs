//! The simulation workloads and their layer-resolved traced twin.
//!
//! Untraced cells run through the public simulator entry points
//! ([`Simulator::run`] / [`Simulator::run_source`]). The traced twin wires
//! the same layers by hand — trace generation into a `Vec`, an
//! [`OoOCore`] over a counting and sampling wrapper around
//! [`AnyInterface::for_config`], then [`EnergyModel::evaluate`] — and must
//! rebuild a [`RunSummary`] whose digest equals the untraced one.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use malec_bench::goldens::{
    scenario_configs, BENCH_BENCHMARKS, GOLDEN_DIGESTS, SCENARIO_GOLDEN_DIGESTS, SCENARIO_INSTS,
};
use malec_bench::{DEFAULT_INSTS, DEFAULT_SEED};
use malec_core::sim::{AnyInterface, Simulator};
use malec_core::{digest, RunSummary, ScenarioSource};
use malec_cpu::{AcceptKind, CoreStats, L1DataInterface, OoOCore};
use malec_energy::EnergyModel;
use malec_trace::scenario::presets;
use malec_trace::{benchmark_named, TraceInst, WorkloadGenerator};
use malec_types::op::{MemOp, OpId};
use malec_types::SimConfig;

use crate::report::{Checks, Report};
use crate::spans::SpanLog;
use crate::stats::{geo_mean, OpTimes, Samples};

/// The Table I configurations.
pub fn table1_configs() -> Vec<SimConfig> {
    vec![
        SimConfig::base1ldst(),
        SimConfig::base2ld1st(),
        SimConfig::malec(),
    ]
}

/// One simulation: a workload source under a configuration.
#[derive(Clone, Debug)]
pub struct Cell {
    pub source: ScenarioSource,
    pub sim: Simulator,
    pub insts: u64,
    pub seed: u64,
}

impl Cell {
    pub fn new(source: ScenarioSource, config: SimConfig, insts: u64, seed: u64) -> Self {
        Self {
            source,
            sim: Simulator::new(config),
            insts,
            seed,
        }
    }

    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }

    /// Runs the cell through `Simulator::run_trace` — the entry point
    /// `Simulator::run` and `run_source` feed their generators to — with
    /// the clock read every [`CHUNK`] instructions the core pulls. Returns
    /// the summary and the host ms of each chunk: set-up to the first
    /// pull, then every `CHUNK` pulls, then the drain and energy pricing.
    /// The core is deterministic, so chunk `i` is identical work on every
    /// run of the cell.
    pub fn run(&self) -> (RunSummary, Vec<f64>) {
        let n = self.insts as usize;
        let start = Instant::now();
        let mut marks = Vec::with_capacity(n / CHUNK as usize + 2);
        let (name, suite) = (self.source.name().to_owned(), self.source.suite());
        let summary = match &self.source {
            ScenarioSource::Profile(p) => {
                let trace = Chunked::new(WorkloadGenerator::new(p, self.seed).take(n), &mut marks);
                self.sim.run_trace(name, suite, trace, self.seed)
            }
            ScenarioSource::Scenario(s) => {
                let trace = Chunked::new(s.generator(self.seed).take(n), &mut marks);
                self.sim.run_trace(name, suite, trace, self.seed)
            }
            ScenarioSource::Replay { .. } => {
                unreachable!("workloads are generated, never replayed")
            }
        };
        marks.push(Instant::now());
        let mut last = start;
        let parts = marks
            .into_iter()
            .map(|m| {
                let ms = m.duration_since(last).as_secs_f64() * 1e3;
                last = m;
                ms
            })
            .collect();
        (summary, parts)
    }

    /// Instantiates the modelled machine the cell runs on — the L1
    /// interface, the core and the energy model — and discards it: the
    /// set-up share of a simulation, timed on its own.
    pub fn instantiate(&self) {
        let config = self.config();
        let iface = AnyInterface::for_config(config, self.seed ^ 0x5eed);
        black_box(OoOCore::new(config, iface));
        black_box(EnergyModel::for_config(config));
    }

    /// Materialises the cell's instruction stream.
    fn generate(&self) -> Vec<TraceInst> {
        let n = self.insts as usize;
        match &self.source {
            ScenarioSource::Profile(p) => WorkloadGenerator::new(p, self.seed).take(n).collect(),
            ScenarioSource::Scenario(s) => s.generator(self.seed).take(n).collect(),
            ScenarioSource::Replay { .. } => {
                unreachable!("workloads are generated, never replayed")
            }
        }
    }
}

/// Instructions per timed chunk of a cell: short enough that a host
/// stall rarely spans the same chunk on every pass, long enough that the
/// clock reads cost nothing measurable.
const CHUNK: u64 = 1_000;

/// Passes a trace through, reading the clock before every [`CHUNK`]-th
/// instruction is pulled.
struct Chunked<'a, I> {
    inner: I,
    left: u64,
    marks: &'a mut Vec<Instant>,
}

impl<'a, I> Chunked<'a, I> {
    fn new(inner: I, marks: &'a mut Vec<Instant>) -> Self {
        Self {
            inner,
            left: 0,
            marks,
        }
    }
}

impl<I: Iterator<Item = TraceInst>> Iterator for Chunked<'_, I> {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        if self.left == 0 {
            self.marks.push(Instant::now());
            self.left = CHUNK;
        }
        self.left -= 1;
        self.inner.next()
    }
}

/// `paper_matrix`: the 8 representative benchmarks × the Table I configs.
pub fn paper_matrix(seed: u64, insts: u64) -> Vec<Cell> {
    BENCH_BENCHMARKS
        .iter()
        .flat_map(|name| {
            let profile = benchmark_named(name).expect("representative benchmark exists");
            table1_configs()
                .into_iter()
                .map(move |cfg| Cell::new(profile.clone().into(), cfg, insts, seed))
        })
        .collect()
}

/// `scenario_stress`: the 5 preset scenarios × {Base1ldst, MALEC}.
pub fn scenario_stress(seed: u64, insts: u64) -> Vec<Cell> {
    presets()
        .into_iter()
        .flat_map(|s| {
            scenario_configs()
                .into_iter()
                .map(move |cfg| Cell::new(s.clone().into(), cfg, insts, seed))
        })
        .collect()
}

/// The recorded digest table a cell set can be checked against, if its
/// seed and size are the recorded ones.
fn golden_table(cells: &[Cell]) -> Option<&'static [(&'static str, &'static str, u64)]> {
    let first = cells.first()?;
    if first.seed != DEFAULT_SEED {
        return None;
    }
    match (&first.source, first.insts) {
        (ScenarioSource::Profile(_), DEFAULT_INSTS) => Some(GOLDEN_DIGESTS),
        (ScenarioSource::Scenario(_), SCENARIO_INSTS) => Some(SCENARIO_GOLDEN_DIGESTS),
        _ => None,
    }
}

/// Checks every summary against the golden table (when one applies).
/// Returns the number of cells checked.
pub fn check_goldens(cells: &[Cell], summaries: &[RunSummary], checks: &mut Checks) -> usize {
    let Some(table) = golden_table(cells) else {
        return 0;
    };
    for s in summaries {
        let want = table
            .iter()
            .find(|&&(b, c, _)| b == s.benchmark && c == s.config)
            .map(|&(_, _, d)| d);
        checks.check(want == Some(digest(s)), || {
            format!(
                "{}/{}: digest differs from the recorded golden",
                s.benchmark, s.config
            )
        });
    }
    summaries.len()
}

/// Per-cell correctness every pass checks: the whole trace committed, and
/// the digest equals the first pass's (the simulator is deterministic).
fn check_cell(cell: &Cell, s: &RunSummary, first: Option<&RunSummary>, checks: &mut Checks) {
    checks.check(s.core.committed == cell.insts, || {
        format!(
            "{}/{}: committed {} of {}",
            s.benchmark, s.config, s.core.committed, cell.insts
        )
    });
    if let Some(first) = first {
        checks.check(digest(s) == digest(first), || {
            format!("{}/{}: repeated run diverged", s.benchmark, s.config)
        });
    }
}

/// One untraced pass over every cell; returns the summaries and pass time.
fn untraced_pass(
    cells: &[Cell],
    first: Option<&[RunSummary]>,
    cell_ms: &mut OpTimes,
    checks: &mut Checks,
) -> (Vec<RunSummary>, f64) {
    let pass = Instant::now();
    let summaries: Vec<RunSummary> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let (s, parts) = black_box(cell.run());
            cell_ms.push(i, &parts);
            check_cell(cell, &s, first.map(|f| &f[i]), checks);
            s
        })
        .collect();
    (summaries, pass.elapsed().as_secs_f64())
}

/// The untraced measurement of a simulation workload: whole passes over
/// the cell set until `seconds` have elapsed (at least one), with
/// `between` called after every pass.
pub fn measure(
    cells: &[Cell],
    seconds: f64,
    between: &mut dyn FnMut(),
    report: &mut Report,
    checks: &mut Checks,
) {
    let mut cell_ms = OpTimes::default();
    let start = Instant::now();
    let (first, _) = untraced_pass(cells, None, &mut cell_ms, checks);
    let golden = check_goldens(cells, &first, checks);
    between();
    // Every cell has run once: the working set is complete.
    report.set("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
    while start.elapsed().as_secs_f64() < seconds {
        untraced_pass(cells, Some(&first), &mut cell_ms, checks);
        between();
    }
    let insts: u64 = cells.iter().map(|c| c.insts).sum();
    let all = cell_ms.all();
    let passes = all.len() / cells.len().max(1);
    report.timing(
        "cell_ms",
        "ms",
        all,
        "host time per cell, serial, every pass",
    );
    report.op_timing(&cell_ms, "cell");
    report.set(
        "sim_minst_per_s",
        insts as f64 * passes as f64 / 1e6 / (all.sum() / 1e3),
        "Minst/s",
    );
    report.note(format!(
        "{passes} passes x {} cells; golden digests checked: {golden}",
        cells.len()
    ));
    model_metrics(&first, report);
}

/// Paper figures the `model.*` metrics are set beside.
const PAPER_FIGURES: [(&str, f64, &str); 3] = [
    ("model.malec_time_vs_base1", 0.88, "Fig. 4a"),
    ("model.malec_dyn_energy_vs_base1", 0.67, "Fig. 4b"),
    ("model.wt_coverage", 0.94, "Sec. VI-C"),
];

/// Sets the deterministic simulated outcomes (`model.*`) of `summaries`
/// and notes them beside the paper's figures.
pub fn model_metrics(summaries: &[RunSummary], report: &mut Report) {
    let (values, table) = model_table(summaries, "this workload's cells");
    for ((name, _, _), value) in PAPER_FIGURES.iter().zip(values) {
        report.set(name, value, "ratio");
    }
    report.note(table);
}

/// MALEC against Base1ldst paired by workload and seed (geomean cycle and
/// dynamic-energy ratios) and MALEC's way-table coverage, with the table
/// that sets them beside the paper's figures.
fn model_table(summaries: &[RunSummary], what: &str) -> ([f64; 3], String) {
    let of = |config: &str| -> Vec<&RunSummary> {
        summaries.iter().filter(|s| s.config == config).collect()
    };
    let (base, malec) = (of("Base1ldst"), of("MALEC"));
    // The k-th MALEC cell of a workload pairs with its k-th Base1ldst
    // cell: cell lists keep both configurations of one seed together.
    let mut used = vec![false; base.len()];
    let mut time = Vec::new();
    let mut energy = Vec::new();
    for m in &malec {
        if let Some(j) = (0..base.len()).find(|&j| !used[j] && base[j].benchmark == m.benchmark) {
            used[j] = true;
            time.push(m.core.cycles as f64 / base[j].core.cycles as f64);
            energy.push(m.energy.dynamic / base[j].energy.dynamic);
        }
    }
    let coverage =
        malec.iter().map(|m| m.interface.coverage()).sum::<f64>() / malec.len().max(1) as f64;
    let values = [geo_mean(&time), geo_mean(&energy), coverage];
    let mut table = format!(
        "model accuracy on {what} ({} MALEC/Base1ldst pairs; simulated, deterministic)\n  \
         {:<34} {:>8} {:>8} {:>8} {:>8}\n",
        time.len(),
        "metric",
        "model",
        "paper",
        "error",
        "rel"
    );
    for ((name, paper, source), value) in PAPER_FIGURES.iter().zip(values) {
        table.push_str(&format!(
            "  {name:<34} {value:>8.4} {paper:>8.2} {:>+8.4} {:>+7.1}%  ({source})\n",
            value - paper,
            100.0 * (value - paper) / paper
        ));
    }
    table.push_str(
        "  The paper gives suite-level figures only; with no per-benchmark reference \
         the model is otherwise unvalidated.",
    );
    (values, table)
}

/// Runs the 24 `paper_matrix` cells once at the recorded seed and size,
/// checks them against the recorded golden digests, and notes the model
/// accuracy on them. Returns the number of cells checked.
pub fn check_paper_goldens(checks: &mut Checks, report: &mut Report) -> usize {
    let cells = paper_matrix(DEFAULT_SEED, DEFAULT_INSTS);
    let summaries: Vec<RunSummary> = cells.iter().map(|c| c.run().0).collect();
    let checked = check_goldens(&cells, &summaries, checks);
    report.note(model_table(&summaries, "paper_matrix at the recorded seed").1);
    checked
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Interface call kinds the wrapper counts and samples.
const KINDS: [&str; 4] = [
    "core.iface.tick",
    "core.iface.offer_load",
    "core.iface.offer_store",
    "core.iface.commit_store",
];
const TICK: usize = 0;
const OFFER_LOAD: usize = 1;
const OFFER_STORE: usize = 2;
const COMMIT_STORE: usize = 3;

/// One call in this many (per kind) is timed. Prime, so the sample does
/// not lock onto a power-of-two periodicity of the simulated machine.
const SAMPLE_EVERY: u64 = 31;

#[derive(Clone, Copy, Debug, Default)]
struct KindCounts {
    calls: u64,
    sampled: u64,
    sampled_ns: f64,
    rejected: u64,
}

impl KindCounts {
    /// The sampled time scaled to every call of this kind.
    fn estimated_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns * self.calls as f64 / self.sampled as f64
        }
    }
}

/// Counts every interface call and times a deterministic 1-in-N sample of
/// them, net of the cost of the clock reads themselves.
struct Sampled<I> {
    inner: I,
    pair_ns: f64,
    kinds: [KindCounts; 4],
}

impl<I> Sampled<I> {
    fn new(inner: I, pair_ns: f64) -> Self {
        Self {
            inner,
            pair_ns,
            kinds: [KindCounts::default(); 4],
        }
    }
}

impl<I: L1DataInterface> Sampled<I> {
    fn call<R>(&mut self, kind: usize, f: impl FnOnce(&mut I) -> R) -> R {
        let k = &mut self.kinds[kind];
        k.calls += 1;
        if !k.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let t = Instant::now();
        let r = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as f64;
        k.sampled += 1;
        k.sampled_ns += (ns - self.pair_ns).max(0.0);
        r
    }

    fn offer(&mut self, kind: usize, f: impl FnOnce(&mut I) -> AcceptKind) -> AcceptKind {
        let r = self.call(kind, f);
        if !r.is_accepted() {
            self.kinds[kind].rejected += 1;
        }
        r
    }
}

impl<I: L1DataInterface> L1DataInterface for Sampled<I> {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        self.call(TICK, |i| i.tick(cycle, completed));
    }

    fn offer_load(&mut self, op: MemOp) -> AcceptKind {
        self.offer(OFFER_LOAD, |i| i.offer_load(op))
    }

    fn offer_store(&mut self, op: MemOp) -> AcceptKind {
        self.offer(OFFER_STORE, |i| i.offer_store(op))
    }

    fn commit_store(&mut self, id: OpId) {
        self.call(COMMIT_STORE, |i| i.commit_store(id));
    }

    fn pending_loads(&self) -> usize {
        // Only the core's deadlock report asks, so it is not counted.
        self.inner.pending_loads()
    }
}

/// A fixed-latency L1 stand-in: every offer is accepted and every load
/// completes `latency` cycles later. Driving the core with it isolates the
/// core's own cost (it changes the simulated cycles, which are reported
/// beside its time).
struct FixedLatency {
    latency: u64,
    now: u64,
    inflight: VecDeque<(u64, OpId)>,
}

impl L1DataInterface for FixedLatency {
    fn tick(&mut self, cycle: u64, completed: &mut Vec<OpId>) {
        self.now = cycle;
        while let Some(&(ready, id)) = self.inflight.front() {
            if ready > cycle {
                break;
            }
            completed.push(id);
            self.inflight.pop_front();
        }
    }

    fn offer_load(&mut self, op: MemOp) -> AcceptKind {
        self.inflight.push_back((self.now + self.latency, op.id));
        AcceptKind::Accepted
    }

    fn offer_store(&mut self, _op: MemOp) -> AcceptKind {
        AcceptKind::Accepted
    }

    fn commit_store(&mut self, _id: OpId) {}

    fn pending_loads(&self) -> usize {
        self.inflight.len()
    }
}

/// Per-configuration sums over traced cells.
#[derive(Clone, Debug, Default)]
struct LayerAcc {
    cells: u64,
    insts: u64,
    cpu_self_ns: f64,
    iface_ns: f64,
    calls: u64,
    load_offers: u64,
    load_rejects: u64,
    store_offers: u64,
    store_rejects: u64,
    core: CoreStats,
    l1_miss_rate: f64,
    utlb_miss_rate: f64,
    translations: u64,
    merged_loads: u64,
    loads_serviced: u64,
    held_load_cycles: u64,
    stub_ns: f64,
    stub_cycles: u64,
    stub_insts: u64,
}

/// Sums over every traced cell of a run.
#[derive(Debug, Default)]
pub struct TraceAcc {
    per_config: BTreeMap<String, LayerAcc>,
    gen_ns: f64,
    gen_insts: u64,
    energy_us: Samples,
    traced_pass_s: Samples,
    untraced_pass_s: Samples,
    pub summaries: Vec<RunSummary>,
}

/// Runs one cell layer by layer under spans; returns its summary.
fn traced_cell(
    cell: &Cell,
    id: u64,
    log: &mut SpanLog,
    pair_ns: f64,
    acc: &mut TraceAcc,
) -> RunSummary {
    let config = cell.config();
    let root = log.open("cell", None, id);

    let gen = log.open("trace.generate", Some(root), id);
    let trace = cell.generate();
    acc.gen_ns += log.close(gen) as f64;
    acc.gen_insts += cell.insts;

    let cpu = log.open("cpu.run", Some(root), id);
    // Seeded exactly as `Simulator::run_trace` seeds it, so the summary
    // must come out bit-identical.
    let iface = Sampled::new(
        AnyInterface::for_config(config, cell.seed ^ 0x5eed),
        pair_ns,
    );
    let mut core = OoOCore::new(config, iface);
    let core_stats = core.run(trace.into_iter());
    let cpu_ns = log.close(cpu) as f64;
    let sampled = core.into_interface();
    let mut iface_ns = 0.0;
    for (name, k) in KINDS.iter().zip(&sampled.kinds) {
        if k.calls > 0 {
            let est = k.estimated_ns();
            iface_ns += est;
            log.estimated(name, cpu, id, est as u64);
        }
    }

    let (iface_stats, counters, l1_miss, l2_miss, utlb) = match &sampled.inner {
        AnyInterface::Baseline(b) => (
            *b.stats(),
            *b.counters(),
            b.hierarchy().l1().miss_rate(),
            b.hierarchy().backing().l2_miss_rate(),
            b.mmu().utlb_stats(),
        ),
        AnyInterface::Malec(m) => (
            *m.stats(),
            *m.counters(),
            m.hierarchy().l1().miss_rate(),
            m.hierarchy().backing().l2_miss_rate(),
            m.mmu().utlb_stats(),
        ),
    };

    let model = EnergyModel::for_config(config);
    let en = log.open("energy.evaluate", Some(root), id);
    let energy = model.evaluate(&counters, core_stats.cycles);
    let energy_ns = log.close(en) as f64;
    acc.energy_us.push((energy_ns - pair_ns).max(0.0) / 1e3);
    log.close(root);

    let utlb_total = utlb.0 + utlb.1;
    let summary = RunSummary {
        config: config.label(),
        benchmark: cell.source.name().to_owned(),
        suite: cell.source.suite(),
        core: core_stats,
        interface: iface_stats,
        counters,
        energy,
        l1_miss_rate: l1_miss,
        l2_miss_rate: l2_miss,
        utlb_miss_rate: if utlb_total == 0 {
            0.0
        } else {
            utlb.1 as f64 / utlb_total as f64
        },
    };

    let a = acc.per_config.entry(summary.config.clone()).or_default();
    a.cells += 1;
    a.insts += cell.insts;
    a.cpu_self_ns += (cpu_ns - iface_ns).max(0.0);
    a.iface_ns += iface_ns;
    a.calls += sampled.kinds.iter().map(|k| k.calls).sum::<u64>();
    a.load_offers += sampled.kinds[OFFER_LOAD].calls;
    a.load_rejects += sampled.kinds[OFFER_LOAD].rejected;
    a.store_offers += sampled.kinds[OFFER_STORE].calls;
    a.store_rejects += sampled.kinds[OFFER_STORE].rejected;
    a.core.cycles += core_stats.cycles;
    a.core.committed += core_stats.committed;
    a.core.issued_ops += core_stats.issued_ops;
    a.core.agu_stall_cycles += core_stats.agu_stall_cycles;
    a.l1_miss_rate += summary.l1_miss_rate;
    a.utlb_miss_rate += summary.utlb_miss_rate;
    a.translations += iface_stats.translations;
    a.merged_loads += iface_stats.merged_loads;
    a.loads_serviced += iface_stats.loads_serviced;
    a.held_load_cycles += iface_stats.held_load_cycles;
    summary
}

/// Drives the core with the fixed-latency stand-in on the cell's trace.
fn stub_cell(cell: &Cell, acc: &mut TraceAcc) {
    let config = cell.config();
    let trace = cell.generate();
    let stub = FixedLatency {
        latency: u64::from(config.l1_latency()),
        now: 0,
        inflight: VecDeque::new(),
    };
    let t = Instant::now();
    let mut core = OoOCore::new(config, stub);
    let stats = black_box(core.run(trace.into_iter()));
    let ns = t.elapsed().as_nanos() as f64;
    let a = acc.per_config.entry(config.label()).or_default();
    a.stub_ns += ns;
    a.stub_cycles += stats.cycles;
    a.stub_insts += stats.committed;
}

/// The traced measurement: untraced and traced passes alternate until
/// `seconds` have elapsed (at least one of each); the first traced pass
/// also runs the fixed-latency differential. Every traced cell must
/// reproduce the untraced cell's `CoreStats` and digest exactly.
pub fn measure_traced(
    cells: &[Cell],
    seconds: f64,
    pair_ns: f64,
    log: &mut SpanLog,
    checks: &mut Checks,
) -> TraceAcc {
    let mut acc = TraceAcc::default();
    let mut cell_ms = OpTimes::default();
    let start = Instant::now();
    let (first, untraced_s) = untraced_pass(cells, None, &mut cell_ms, checks);
    acc.untraced_pass_s.push(untraced_s);
    check_goldens(cells, &first, checks);
    let mut pass = 0u64;
    loop {
        let t = Instant::now();
        for (i, (cell, want)) in cells.iter().zip(&first).enumerate() {
            let id = pass * cells.len() as u64 + i as u64;
            let got = traced_cell(cell, id, log, pair_ns, &mut acc);
            checks.check(
                got.core == want.core && digest(&got) == digest(want),
                || {
                    format!(
                        "{}/{}: traced CoreStats or digest differ from the untraced run",
                        got.benchmark, got.config
                    )
                },
            );
            checks.check(got.core.committed == cell.insts, || {
                format!(
                    "{}/{}: traced run committed {}",
                    got.benchmark, got.config, got.core.committed
                )
            });
            if pass == 0 {
                acc.summaries.push(got);
            }
        }
        acc.traced_pass_s.push(t.elapsed().as_secs_f64());
        if pass == 0 {
            for cell in cells {
                stub_cell(cell, &mut acc);
            }
        }
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (_, untraced_s) = untraced_pass(cells, Some(&first), &mut cell_ms, checks);
        acc.untraced_pass_s.push(untraced_s);
    }
    acc
}

impl TraceAcc {
    /// Writes the per-layer metrics of the simulation layers.
    pub fn report(&self, report: &mut Report) {
        report.set(
            "trace.gen_ns_per_inst",
            self.gen_ns / self.gen_insts.max(1) as f64,
            "ns/inst",
        );
        for (cfg, a) in &self.per_config {
            let per_inst = |ns: f64| ns / a.insts.max(1) as f64;
            let per_kinst = |n: u64| 1e3 * n as f64 / a.core.committed.max(1) as f64;
            let ratio = |num: u64, den: u64| {
                if den == 0 {
                    1.0
                } else {
                    num as f64 / den as f64
                }
            };
            let m = |name: &str| format!("{name}.{cfg}");
            report.set(
                &m("cpu.self_ns_per_inst"),
                per_inst(a.cpu_self_ns),
                "ns/inst",
            );
            report.set(
                &m("cpu.stub_ns_per_inst"),
                a.stub_ns / a.stub_insts.max(1) as f64,
                "ns/inst",
            );
            report.set(
                &m("cpu.stub_cycles_per_kinst"),
                1e3 * a.stub_cycles as f64 / a.stub_insts.max(1) as f64,
                "cycles/kinst",
            );
            report.set(
                &m("cpu.cycles_per_kinst"),
                per_kinst(a.core.cycles),
                "cycles/kinst",
            );
            report.set(
                &m("cpu.issued_per_cycle"),
                ratio(a.core.issued_ops, a.core.cycles),
                "ops/cycle",
            );
            report.set(
                &m("cpu.agu_stall_cycles_per_kinst"),
                per_kinst(a.core.agu_stall_cycles),
                "cycles/kinst",
            );
            report.set(
                &m("core.iface_self_ns_per_inst"),
                per_inst(a.iface_ns),
                "ns/inst",
            );
            report.set(
                &m("core.iface_calls_per_inst"),
                a.calls as f64 / a.insts.max(1) as f64,
                "calls/inst",
            );
            report.set(
                &m("core.load_accept_ratio"),
                ratio(a.load_offers - a.load_rejects, a.load_offers),
                "ratio",
            );
            report.set(
                &m("core.store_accept_ratio"),
                ratio(a.store_offers - a.store_rejects, a.store_offers),
                "ratio",
            );
            let cells = a.cells.max(1) as f64;
            report.set(&m("core.l1_miss_rate"), a.l1_miss_rate / cells, "ratio");
            report.set(&m("core.utlb_miss_rate"), a.utlb_miss_rate / cells, "ratio");
            report.set(
                &m("core.translations_per_kinst"),
                per_kinst(a.translations),
                "1/kinst",
            );
            report.set(
                &m("core.merged_load_frac"),
                if a.loads_serviced == 0 {
                    0.0
                } else {
                    a.merged_loads as f64 / a.loads_serviced as f64
                },
                "ratio",
            );
            report.set(
                &m("core.held_load_cycles_per_kinst"),
                per_kinst(a.held_load_cycles),
                "cycles/kinst",
            );
        }
        report.set("energy.evaluate_us", self.energy_us.median(), "us");
        let overhead = self.traced_pass_s.median() / self.untraced_pass_s.median() - 1.0;
        report.set("bench.tracing_overhead_frac", overhead, "frac");
        report.note(format!(
            "traced passes: {} (untraced: {}); interface calls timed 1 in {SAMPLE_EVERY} and scaled; \
             the fixed-latency stub ran once per cell and changes simulated cycles",
            self.traced_pass_s.len(),
            self.untraced_pass_s.len()
        ));
        model_metrics(&self.summaries, report);
    }
}
