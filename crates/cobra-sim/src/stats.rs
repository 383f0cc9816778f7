//! Summary statistics: Welford online moments, quantiles, and CIs.

/// Two-sided normal critical value `z` for a confidence level.
///
/// The single z-lookup shared by [`Summary::mean_ci`] and the sequential
/// stopping rule in [`crate::convergence`] — one table, so a CI printed
/// in a report and a CI consulted by an adaptive stopping decision can
/// never disagree about what "95%" means. Supported levels: 0.90, 0.95,
/// 0.99 (the ones the experiments use); anything else panics loudly
/// rather than silently interpolating.
pub fn z_for_level(level: f64) -> f64 {
    match level {
        l if (l - 0.90).abs() < 1e-9 => 1.6449,
        l if (l - 0.95).abs() < 1e-9 => 1.9600,
        l if (l - 0.99).abs() < 1e-9 => 2.5758,
        other => panic!("unsupported CI level {other}; use 0.90/0.95/0.99"),
    }
}

/// Linear-interpolation sample quantile of an already **sorted** slice,
/// `q ∈ [0, 1]` (the `R-7`/NumPy-default definition). Shared by
/// [`Summary::quantile`] and the bootstrap percentile CIs in
/// `cobra-analysis`, so every quantile in the workspace interpolates the
/// same way — index-truncation variants bias the two tails differently.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q in [0,1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Two-sample Kolmogorov–Smirnov statistic `D = sup_x |F_a(x) − F_b(x)|`
/// between the empirical CDFs of two samples (values must be finite).
///
/// This is the distribution-equivalence yardstick for engines whose
/// per-trial RNG streams legitimately differ — the bit-sliced lane
/// engine shares neighbor draws across lanes, so its cover times cannot
/// be compared to the serial engine's trial-by-trial, only in
/// distribution. Reject at level α when
/// `D > c(α) · sqrt((n + m) / (n · m))` with e.g. `c(0.001) ≈ 1.95`.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "KS distance of empty sample"
    );
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    // Finite-only samples (as Summary enforces on push) sort totally.
    xs.sort_by(|p, q| p.partial_cmp(q).expect("finite samples"));
    ys.sort_by(|p, q| p.partial_cmp(q).expect("finite samples"));
    let (n, m) = (xs.len() as f64, ys.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    // Merge walk over the pooled order statistics: at each distinct merge
    // point `v`, consume *every* copy of `v` from both samples (a gap
    // read mid-tie is not a CDF evaluation), then |i/n − j/m| is the CDF
    // gap just right of `v`. The supremum is attained at such points.
    while i < xs.len() && j < ys.len() {
        let v = xs[i].min(ys[j]);
        while i < xs.len() && xs[i] == v {
            i += 1;
        }
        while j < ys.len() && ys[j] == v {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    // Once one sample is exhausted the gap only shrinks toward 0.
    d
}

/// Error: a statistic was requested from a summary with zero observations
/// (e.g. every trial of a batch was censored). Surfacing this as a value
/// instead of a panic/NaN lets sweep code skip or report empty cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptySummary;

impl std::fmt::Display for EmptySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "summary contains no observations (all trials censored?)")
    }
}

impl std::error::Error for EmptySummary {}

/// Summary statistics over a sample of f64 measurements.
#[derive(Clone, Debug)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Raw values retained for quantiles. Experiments here run ≤ ~10⁵
    /// trials per cell, so retention is cheap and exact quantiles beat
    /// sketch approximations.
    values: Vec<f64>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            values: Vec::new(),
        }
    }

    /// Build a summary from a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Add one observation (Welford update).
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "observations must be finite");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.values.push(x);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean. Panics when empty.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of empty summary");
        self.mean
    }

    /// Sample mean as a checked result: `Err(EmptySummary)` on zero
    /// observations instead of a panic.
    pub fn try_mean(&self) -> Result<f64, EmptySummary> {
        if self.count == 0 {
            Err(EmptySummary)
        } else {
            Ok(self.mean)
        }
    }

    /// Unbiased sample variance (0 for a single observation).
    pub fn variance(&self) -> f64 {
        assert!(self.count > 0, "variance of empty summary");
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn stderr(&self) -> f64 {
        self.stddev() / (self.count as f64).sqrt()
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0);
        self.min
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0);
        self.max
    }

    /// Exact sample quantile with linear interpolation, `q ∈ [0, 1]`.
    ///
    /// Sorts a copy of the sample on every call; for several quantiles of
    /// the same summary use [`Summary::quantiles`], which sorts once.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of empty summary");
        quantile_sorted(&self.sorted_values(), q)
    }

    /// Several quantiles from one sort of the sample — what sweep-row
    /// construction (median + p95 per row) uses instead of paying the
    /// `O(n log n)` sort per quantile.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        assert!(self.count > 0, "quantile of empty summary");
        let sorted = self.sorted_values();
        qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
    }

    /// The sample values in ascending order.
    fn sorted_values(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        // Values are asserted finite on push, so total_cmp agrees with
        // the numeric order.
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Normal-approximation confidence interval for the mean at the given
    /// level (supported levels: 0.90, 0.95, 0.99 — see [`z_for_level`]).
    pub fn mean_ci(&self, level: f64) -> (f64, f64) {
        let half = self.ci_half_width(level);
        (self.mean() - half, self.mean() + half)
    }

    /// Half-width of the normal-approximation CI at `level` — the
    /// quantity the sequential stopping rule compares against its
    /// precision target, and what sweep manifests record per cell.
    pub fn ci_half_width(&self, level: f64) -> f64 {
        z_for_level(level) * self.stderr()
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_identical_samples_is_zero() {
        let a = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_eq!(ks_distance(&a, &a), 0.0);
        // Order must not matter.
        let b = [9.0, 1.5, 1.0, 4.0, 3.0];
        assert_eq!(ks_distance(&a, &b), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0];
        assert_eq!(ks_distance(&a, &b), 1.0);
        assert_eq!(ks_distance(&b, &a), 1.0);
    }

    #[test]
    fn ks_half_overlap_known_value() {
        // F_a and F_b differ by exactly 0.5 just below 3 (and nowhere
        // more): a has {1,2} extra on the left, b has {5,6} on the right.
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [3.0, 4.0, 5.0, 6.0];
        assert_eq!(ks_distance(&a, &b), 0.5);
    }

    #[test]
    fn ks_handles_unequal_sizes_and_ties() {
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 2.0, 2.0, 3.0, 3.0];
        let d = ks_distance(&a, &b);
        // F_a(1) = 2/3 vs F_b(1) = 1/6 → D = 1/2.
        assert!((d - 0.5).abs() < 1e-12, "D = {d}");
        assert_eq!(ks_distance(&b, &a), d);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn ks_rejects_empty_sample() {
        ks_distance(&[], &[1.0]);
    }

    #[test]
    fn basic_moments() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.median(), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_mean_panics() {
        Summary::new().mean();
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Summary::new().push(f64::NAN);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_slice(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert!((s.quantile(0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_batch_matches_individual_calls() {
        let s = Summary::from_slice(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0]);
        let qs = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0];
        let batch = s.quantiles(&qs);
        for (&q, &b) in qs.iter().zip(&batch) {
            assert_eq!(b, s.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn quantile_sorted_is_tail_symmetric() {
        // For a sample symmetric about c, the interpolated q and 1−q
        // quantiles must mirror exactly about c — the invariant the
        // bootstrap percentile CI relies on.
        let sorted = [-5.0, -2.0, -1.0, 1.0, 2.0, 5.0];
        for q in [0.025, 0.05, 0.1, 0.16, 0.3, 0.42] {
            let lo = quantile_sorted(&sorted, q);
            let hi = quantile_sorted(&sorted, 1.0 - q);
            assert!((lo + hi).abs() < 1e-12, "q = {q}: {lo} vs {hi}");
        }
    }

    #[test]
    fn z_table_is_monotone_and_pinned() {
        assert_eq!(z_for_level(0.90), 1.6449);
        assert_eq!(z_for_level(0.95), 1.9600);
        assert_eq!(z_for_level(0.99), 2.5758);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn z_table_rejects_odd_levels() {
        z_for_level(0.42);
    }

    #[test]
    fn ci_narrows_with_samples() {
        let few = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let many = Summary::from_slice(&(0..300).map(|i| (i % 3) as f64 + 1.0).collect::<Vec<_>>());
        let (lo_f, hi_f) = few.mean_ci(0.95);
        let (lo_m, hi_m) = many.mean_ci(0.95);
        assert!(hi_m - lo_m < hi_f - lo_f);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn ci_rejects_odd_levels() {
        Summary::from_slice(&[1.0, 2.0]).mean_ci(0.5);
    }
}
