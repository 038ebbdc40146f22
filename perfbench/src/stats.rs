//! Sample statistics: nearest-rank percentiles with a tail-sample rule.

/// A percentile needs at least this many samples strictly beyond its
/// rank before it is reported as resolved.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// One percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value (0.0 on an empty sample).
    pub value: f64,
    /// Samples in the sample set.
    pub samples: usize,
    /// Samples that lie beyond the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the rank to trust the value.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_TAIL_SAMPLES
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Percentile `p` per block, for `blocks` contiguous blocks of
/// `samples` (taken in completion order), and the median over blocks:
/// a slow stretch of the run shifts at most the blocks it overlaps. The
/// result counts as resolved only if every block's percentile is.
pub fn blocked(samples: &[f64], p: f64, blocks: usize) -> Percentile {
    let size = samples.len().div_ceil(blocks.max(1)).max(1);
    let per_block: Vec<Percentile> = samples.chunks(size).map(|c| percentile(c, p)).collect();
    let values: Vec<f64> = per_block.iter().map(|b| b.value).collect();
    Percentile {
        value: median(&values),
        samples: samples.len(),
        beyond: per_block.iter().map(|b| b.beyond).min().unwrap_or(0),
    }
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value
}

/// Arithmetic mean (0.0 on an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_tail_rule() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.resolved());
        assert_eq!(percentile(&hundred, 50.0).value, 50.0);

        // One sample short: the rank moves up, only 9 lie beyond it.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        let p90 = percentile(&short, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 9);
        assert!(!p90.resolved());

        let p99 = percentile(&hundred, 99.0);
        assert_eq!(p99.value, 99.0);
        assert!(!p99.resolved());

        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0).value, 2.0);
        assert_eq!(percentile(&[], 50.0).samples, 0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn blocked_median_ignores_one_slow_block() {
        // Three blocks of 100; the middle one ran twice as slow.
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        s.extend((1..=100).map(|v| 2.0 * f64::from(v)));
        s.extend((1..=100).map(f64::from));
        let p90 = blocked(&s, 90.0, 3);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.resolved());
        assert_eq!(blocked(&s, 50.0, 3).value, 50.0);
        // One block is the plain percentile.
        assert_eq!(blocked(&s, 90.0, 1), percentile(&s, 90.0));
        assert!(!blocked(&s[..297], 90.0, 3).resolved());
    }
}
