//! Summary statistics shared by the experiment harnesses.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median (average of middle two for even length); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Fraction of the sample for which `pred` holds — e.g. the paper's
/// "relative difference greater than 0.5 with probability 65%".
pub fn fraction_where(xs: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| pred(x)).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_hand_computed() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fraction_where_counts_matches() {
        let xs = [0.1, 0.6, 0.7, 0.4];
        assert_eq!(fraction_where(&xs, |x| x > 0.5), 0.5);
        assert_eq!(fraction_where(&[], |_| true), 0.0);
    }
}
