//! Order statistics over one run's samples.

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`: the
/// smallest sample with at least `p` % of the samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 70 % of 10 at rank 7 despite 0.7 * 10 = 7.000…1.
    ((p / 100.0 * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// The tail percentile reported for `n` samples: the highest whole
/// percentile whose nearest rank still leaves at least `beyond` samples
/// above it. `None` when `n` is too small for even the 1st percentile.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n >= 1 && n - rank(n, f64::from(p)) >= beyond)
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        // The classic example: 5 samples.
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&s, 5.0), Some(15.0));
        assert_eq!(nearest_rank(&s, 30.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 40.0), Some(20.0));
        assert_eq!(nearest_rank(&s, 50.0), Some(35.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(50.0));
        // Order of input does not matter.
        assert_eq!(
            nearest_rank(&[50.0, 15.0, 40.0, 20.0, 35.0], 50.0),
            Some(35.0)
        );
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[3.0]), Some(3.0));
    }

    #[test]
    fn exact_multiples_do_not_round_up() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 70.0), Some(7.0));
        assert_eq!(nearest_rank(&s, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&s, 91.0), Some(10.0));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, exactly 10 beyond; p91 leaves 9.
        assert_eq!(tail_percentile(100, 10), Some(90));
        // 1000 samples: p99 leaves exactly 10.
        assert_eq!(tail_percentile(1000, 10), Some(99));
        // 40 samples: p75 is rank 30 (10 beyond); p76 is rank 31.
        assert_eq!(tail_percentile(40, 10), Some(75));
        // 20 samples: p50 is rank 10, exactly 10 beyond.
        assert_eq!(tail_percentile(20, 10), Some(50));
        // 11 samples: only p9 (rank 1) leaves 10.
        assert_eq!(tail_percentile(11, 10), Some(9));
        assert_eq!(tail_percentile(10, 10), None);
        assert_eq!(tail_percentile(0, 10), None);
        for n in 11..2000 {
            let p = tail_percentile(n, 10).unwrap();
            assert!(n - rank(n, f64::from(p)) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - rank(n, f64::from(p + 1)) < 10,
                    "n={n} p={p} not highest"
                );
            }
        }
    }
}
