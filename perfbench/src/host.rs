//! Host facts recorded with every result, and process resource readings.

use std::hint::black_box;
use std::time::Instant;

/// What a number measured here depends on besides the code.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// Median cost of one `Instant::now()` pair, in ns.
    pub instant_pair_ns: f64,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl HostFacts {
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            instant_pair_ns: instant_pair_ns(),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

/// Median over 64 batches of the cost of one back-to-back `Instant` pair.
fn instant_pair_ns() -> f64 {
    const PAIRS: u32 = 256;
    let mut batches: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PAIRS {
                let a = Instant::now();
                black_box(a.elapsed());
            }
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) the process has used so far,
/// read from `/proc/self/stat` at the kernel's 100 ticks per second; 0
/// where unavailable.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
