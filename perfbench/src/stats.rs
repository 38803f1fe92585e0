//! Order statistics over measured samples.

/// The `p`-quantile (0..=1) of `v` by nearest rank; `None` when empty.
/// Sorts `v` in place.
pub fn quantile(v: &mut [f64], p: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Median wall time (ns) per call of `f`, over `reps` timed rounds of
/// `calls` calls each — the per-layer figures are medians of rounds so
/// one preempted round cannot move them.
pub fn time_ns(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut rounds).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), Some(2.5));
    }
}
