//! Sample summaries: medians and the highest well-supported percentile.

/// Host-time samples of one kind of operation.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

/// The tail percentiles a timing may report, highest first.
const TAILS: [u32; 4] = [99, 95, 90, 75];

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `p`-th percentile (0..=100), linearly interpolated between the
    /// closest ranks; 0 for an empty sample.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (p / 100.0) * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The highest tail percentile with at least ten samples beyond it
    /// (`None` below 40 samples, where not even p75 has ten).
    pub fn tail(&self) -> Option<(u32, f64)> {
        let n = self.0.len() as f64;
        TAILS
            .iter()
            .find(|&&p| n * f64::from(100 - p) / 100.0 >= 10.0)
            .map(|&p| (p, self.percentile(f64::from(p))))
    }
}

/// Timings of operations that repeat, grouped by kind. Each sample may be
/// split into consecutive parts that are identical work on every
/// repetition; a kind's best time is the sum over its parts of each part's
/// fastest repetition. On a host whose speed drifts by tens of percent
/// within seconds, this removes interference from identical work down to
/// the granularity of a part.
#[derive(Clone, Debug, Default)]
pub struct OpTimes {
    all: Samples,
    best: Vec<Vec<f64>>,
}

impl OpTimes {
    /// Records one repetition of `kind` taking `parts` (summed for the
    /// per-sample view).
    pub fn push(&mut self, kind: usize, parts: &[f64]) {
        self.all.push(parts.iter().sum());
        if self.best.len() <= kind {
            self.best.resize(kind + 1, Vec::new());
        }
        let best = &mut self.best[kind];
        if best.len() == parts.len() {
            best.iter_mut().zip(parts).for_each(|(b, &p)| *b = b.min(p));
        } else if best.is_empty() || parts.iter().sum::<f64>() < best.iter().sum() {
            // A repetition split differently cannot be merged part by part.
            *best = parts.to_vec();
        }
    }

    /// Every repetition's total.
    pub fn all(&self) -> &Samples {
        &self.all
    }

    /// The best time of every kind seen.
    pub fn best(&self) -> Samples {
        let mut s = Samples::default();
        self.best
            .iter()
            .filter(|b| !b.is_empty())
            .for_each(|b| s.push(b.iter().sum()));
        s
    }
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_interpolate() {
        let s = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(of(&[1.0; 39]).tail(), None);
        assert_eq!(of(&[1.0; 40]).tail().map(|t| t.0), Some(75));
        assert_eq!(of(&[1.0; 100]).tail().map(|t| t.0), Some(90));
        assert_eq!(of(&[1.0; 1000]).tail().map(|t| t.0), Some(99));
    }

    #[test]
    fn op_times_keep_each_parts_fastest() {
        let mut t = OpTimes::default();
        t.push(0, &[5.0, 1.0]);
        t.push(2, &[1.0]);
        t.push(0, &[3.0, 2.0]);
        t.push(2, &[4.0]);
        assert_eq!(t.all().len(), 4);
        let best = t.best();
        assert_eq!(best.len(), 2);
        // Kind 0: 3 + 1 from different repetitions; kind 2: 1.
        assert_eq!(best.sum(), 5.0);
    }

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }
}
