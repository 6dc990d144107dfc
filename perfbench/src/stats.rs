//! Order statistics used by the report.

/// A nearest-rank percentile together with the sample it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (same unit as the samples).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending): the
/// smallest sample such that at least `p` % of the samples are <= it.
/// Returns `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Longest interval without an event inside `[start, end]`, given event
/// times sorted ascending. The window edges count as boundaries, so an
/// empty window has one gap of `end - start`.
pub fn max_gap(sorted_events: &[u64], start: u64, end: u64) -> u64 {
    let mut last = start;
    let mut gap = 0;
    for &t in sorted_events {
        let t = t.clamp(start, end);
        gap = gap.max(t - last);
        last = t;
    }
    gap.max(end - last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = nearest_rank(&v, 50.0).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
        let p99 = nearest_rank(&v, 99.0).unwrap();
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        // Rank rounds up: 5 samples, p50 is the 3rd.
        let odd = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&odd, 50.0).unwrap().value, 30.0);
        assert_eq!(nearest_rank(&odd, 99.0).unwrap().value, 50.0);
        assert_eq!(nearest_rank(&odd, 100.0).unwrap().beyond, 0);
        assert_eq!(nearest_rank(&[7.0], 1.0).unwrap().value, 7.0);
        assert!(nearest_rank(&[], 50.0).is_none());
    }

    #[test]
    fn p99_of_large_sample_leaves_ten_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p = nearest_rank(&v, 99.0).unwrap();
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.value, 989.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn max_gap_counts_window_edges() {
        assert_eq!(max_gap(&[], 10, 20), 10);
        assert_eq!(max_gap(&[12, 13, 19], 10, 20), 6);
        assert_eq!(max_gap(&[11, 18], 10, 30), 12);
        // Events outside the window are clamped to its edges.
        assert_eq!(max_gap(&[5, 15, 40], 10, 20), 5);
    }
}
