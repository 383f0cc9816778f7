//! Least-squares fits: linear and log–log power law.

/// Result of a two-parameter least-squares fit `y ≈ a + b·x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitResult {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b`.
    pub slope: f64,
    /// Coefficient of determination `R² ∈ [0, 1]` (1 = perfect fit).
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

/// Ordinary least squares for `y ≈ intercept + slope·x`.
///
/// Panics on fewer than 2 points or zero x-variance.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> FitResult {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len();
    assert!(n >= 2, "need at least two points");
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "x values are all identical");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    // lint:allow(float-eq, syy is exactly zero iff every y equals mean_y; any nonzero spread however small makes the ratio well-defined)
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    FitResult {
        intercept,
        slope,
        r_squared,
        n,
    }
}

/// Log–log power-law fit `y ≈ c·x^α`: returns a [`FitResult`] where
/// `slope` is the exponent `α` and `intercept` is `ln c`.
///
/// All `x` and `y` must be strictly positive.
pub fn power_law_fit(xs: &[f64], ys: &[f64]) -> FitResult {
    assert!(
        xs.iter().chain(ys).all(|&v| v > 0.0),
        "power-law fit needs positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    linear_fit(&lx, &ly)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0]; // y = 1 + 2x
        let f = linear_fit(&xs, &ys);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(f.n, 4);
    }

    #[test]
    fn noisy_line_good_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 2.0 + 0.5 * x + 0.1 * ((x * 7.3).sin()))
            .collect();
        let f = linear_fit(&xs, &ys);
        assert!((f.slope - 0.5).abs() < 0.01);
        assert!(f.r_squared > 0.99);
    }

    #[test]
    fn constant_y_has_r2_one_slope_zero() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let f = linear_fit(&xs, &ys);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn rejects_degenerate_x() {
        linear_fit(&[2.0, 2.0], &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn rejects_single_point() {
        linear_fit(&[1.0], &[1.0]);
    }

    #[test]
    fn power_law_recovers_exponent() {
        let xs: Vec<f64> = (1..=20).map(|i| (i * 50) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x.powf(1.5)).collect();
        let f = power_law_fit(&xs, &ys);
        assert!((f.slope - 1.5).abs() < 1e-10, "exponent {}", f.slope);
        assert!((f.intercept.exp() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn power_law_rejects_nonpositive() {
        power_law_fit(&[1.0, 2.0], &[0.0, 1.0]);
    }
}
