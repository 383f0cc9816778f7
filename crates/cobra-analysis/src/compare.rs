//! Ratio flatness: the recurring experiment question *is T(n) = O(f(n))?*
//! — check that `T(n)/f(n)` is flat-or-decreasing as `n` grows
//! ([`ratio_flatness`]).

use crate::fit::linear_fit;

/// Summary of the normalized ratio `y_i / f_i`.
#[derive(Clone, Debug, PartialEq)]
pub struct RatioReport {
    /// The ratios themselves.
    pub ratios: Vec<f64>,
    /// Fitted log–log slope of the ratio against x (≈ 0 means the bound
    /// shape is exact; < 0 means the bound is loose; > 0 means violated).
    pub log_slope: f64,
    /// Max/min ratio spread (1.0 = perfectly flat).
    pub spread: f64,
}

/// Compare measurements `ys` at scales `xs` against a candidate bound
/// shape `f(xs)` (already evaluated: `fs`). All inputs must be positive.
pub fn ratio_flatness(xs: &[f64], ys: &[f64], fs: &[f64]) -> RatioReport {
    assert_eq!(xs.len(), ys.len());
    assert_eq!(xs.len(), fs.len());
    assert!(xs.len() >= 2, "need at least two scales");
    assert!(
        xs.iter().chain(ys).chain(fs).all(|&v| v > 0.0),
        "ratio test needs positive data"
    );
    let ratios: Vec<f64> = ys.iter().zip(fs).map(|(&y, &f)| y / f).collect();
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let lr: Vec<f64> = ratios.iter().map(|&r| r.ln()).collect();
    let fit = linear_fit(&lx, &lr);
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    RatioReport {
        ratios,
        log_slope: fit.slope,
        spread: max / min,
    }
}

/// Whether the ratio report is consistent with `y = O(f)`: the fitted
/// log-slope of the ratio does not exceed `tolerance` (e.g. 0.15 allows
/// for logarithmic slack and noise).
pub fn is_bounded_by(report: &RatioReport, tolerance: f64) -> bool {
    report.log_slope <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_ratio_detected() {
        let xs: Vec<f64> = (1..=10).map(|i| (i * 100) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x).collect();
        let fs = xs.clone(); // candidate f(n) = n
        let rep = ratio_flatness(&xs, &ys, &fs);
        assert!(rep.log_slope.abs() < 1e-10);
        assert!((rep.spread - 1.0).abs() < 1e-10);
        assert!(is_bounded_by(&rep, 0.1));
    }

    #[test]
    fn loose_bound_has_negative_slope() {
        let xs: Vec<f64> = (1..=10).map(|i| (i * 100) as f64).collect();
        let ys: Vec<f64> = xs.to_vec(); // T(n) = n
        let fs: Vec<f64> = xs.iter().map(|&x| x * x).collect(); // f(n) = n²
        let rep = ratio_flatness(&xs, &ys, &fs);
        assert!(rep.log_slope < -0.9);
        assert!(is_bounded_by(&rep, 0.1));
    }

    #[test]
    fn violated_bound_has_positive_slope() {
        let xs: Vec<f64> = (1..=10).map(|i| (i * 100) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x * x).collect(); // T(n) = n²
        let fs = xs.clone(); // claimed f(n) = n
        let rep = ratio_flatness(&xs, &ys, &fs);
        assert!(rep.log_slope > 0.9);
        assert!(!is_bounded_by(&rep, 0.15));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive() {
        ratio_flatness(&[1.0, 2.0], &[1.0, -1.0], &[1.0, 1.0]);
    }
}
