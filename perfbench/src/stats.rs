//! Order statistics for latency samples.

/// Median of `samples` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail percentile a sample of `n` supports: the highest of
/// `wanted` and below that still leaves at least ten samples beyond it,
/// so a "p99" over 200 samples is reported as p95. `None` when fewer
/// than eleven samples exist.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    if n < 11 {
        return None;
    }
    let q = 1.0 - 10.0 / n as f64;
    Some(q.min(wanted))
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `samples`; `None` when
/// empty. A single sample is every percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps `1 - 10/n` from rounding up past its rank.
    let rank = (q * v.len() as f64 - 1e-9).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A latency summary: median and the highest supported tail percentile
/// up to `wanted`, with the sample count and the percentile actually
/// used.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
}

/// Summarises `samples`; `None` when there are too few for a tail.
pub fn summarise(samples: &[f64], wanted: f64) -> Option<Summary> {
    let tail_q = supported_percentile(samples.len(), wanted)?;
    Some(Summary {
        n: samples.len(),
        p50: median(samples)?,
        tail: percentile(samples, tail_q)?,
        tail_q,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(0, 0.99), None);
        assert_eq!(supported_percentile(1, 0.99), None);
        assert_eq!(supported_percentile(10, 0.99), None);
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        assert_eq!(supported_percentile(5000, 0.99), Some(0.99));
        let q = supported_percentile(200, 0.99).unwrap();
        assert!((q - 0.95).abs() < 1e-12, "{q}");
        for n in 11..2000 {
            let q = supported_percentile(n, 0.99).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentile(&v, q).unwrap();
            let beyond = v.iter().filter(|&&x| x > p).count();
            assert!(beyond >= 10, "n={n} q={q} beyond={beyond}");
        }
    }

    #[test]
    fn summary_needs_a_tail() {
        assert_eq!(summarise(&[1.0; 10], 0.99), None);
        let s = summarise(&[1.0; 11], 0.99).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (11, 1.0, 1.0));
    }
}
