//! Named metrics with units, correctness accounting, and the output line.

use std::fmt::Write as _;

use crate::stats::{OpTimes, Samples};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Every metric and note one run produced, in the order produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Sets (or replaces) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.metrics.push(Metric {
                name: name.to_owned(),
                value,
                unit,
            }),
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a timing as `<base>_p50` and `<base>_p90`, and notes its
    /// median, highest well-supported percentile and sample count.
    pub fn timing(&mut self, base: &str, unit: &'static str, samples: &Samples, what: &str) {
        self.set(&format!("{base}_p50"), samples.median(), unit);
        self.set(&format!("{base}_p90"), samples.percentile(90.0), unit);
        let tail = samples.tail().map_or_else(
            || "no percentile has 10 samples beyond it".to_owned(),
            |(p, v)| format!("p{p} {v:.4} {unit}"),
        );
        self.note(format!(
            "{base}: p50 {:.4} {unit}, {tail} (n={}) -- {what}",
            samples.median(),
            samples.len()
        ));
    }

    /// The workload's unit of work: `op_ms_p50` / `op_ms_p90` over the
    /// fastest repetition of each kind of op, and `ops_per_s` as one op of
    /// every kind per their summed fastest time.
    pub fn op_timing(&mut self, ops: &OpTimes, what: &str) {
        let best = ops.best();
        self.set("op_ms_p50", best.median(), "ms");
        self.set("op_ms_p90", best.percentile(90.0), "ms");
        self.set("ops_per_s", best.len() as f64 / (best.sum() / 1e3), "1/s");
        self.note(format!(
            "op = {what}: {} kinds, fastest of {} samples each on average",
            best.len(),
            ops.all().len() / best.len().max(1)
        ));
    }

    /// The human-readable report: every metric with its unit, then notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        out
    }

    /// The result object: `names` (in order) as the metrics.
    ///
    /// # Errors
    ///
    /// Names a metric the run did not produce or produced as a non-finite
    /// number.
    pub fn json(&self, names: &[&str], checks: &Checks) -> Result<String, String> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is {}", m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0,
            checks.attempted.max(1),
            checks.failed,
            fields.join(", ")
        ))
    }
}

/// Correctness accounting: every checked operation counts as attempted,
/// every failed check as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// Counts an operation that returned an error.
    pub fn result<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_names_every_requested_metric() {
        let mut r = Report::default();
        r.set("a", 1.5, "ms");
        r.set("a", 2.5, "ms");
        r.set("b", 3.0, "s");
        let mut c = Checks::default();
        c.check(true, String::new);
        let line = r.json(&["b", "a"], &c).expect("both measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 3, \"unit\": \"s\"}, \"a\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        assert!(r.json(&["missing"], &c).is_err());
    }
}
