//! Order statistics over timing samples.

/// The `q`-quantile of `v` (`q` in `[0, 1]`) with linear interpolation
/// between closest ranks; `NaN` when `v` is empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Arithmetic mean; `NaN` when empty.
///
/// `setup_s` is the mean over a run's set-up rounds of each round's
/// median. Set-up is short beside a run, and a shared host's speed can
/// shift by about 1.5x over seconds, so set-ups done back to back all
/// land in one speed phase and their median jumps between runs. Rounds
/// spread over the run sample every phase; the median drops a round's
/// stragglers, and the mean follows the share of the run spent in each
/// phase smoothly, where a median over rounds would jump.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
