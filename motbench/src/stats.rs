//! Order statistics for the report.

/// Median of `xs` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// samples above it, with its value; `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            rank >= 1 && n.saturating_sub(rank) >= 10
        })
        .map(|p| (p, percentile(xs, p)))
}

/// Spearman rank correlation of paired samples (average ranks for ties);
/// 0 when either side is constant or fewer than two pairs exist.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let mean = (xs.len() as f64 + 1.0) / 2.0;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        cov += (a - mean) * (b - mean);
        vx += (a - mean) * (a - mean);
        vy += (b - mean) * (b - mean);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(tail(&xs[..20]), Some((50.0, 10.0)));
    }

    #[test]
    fn rank_correlation() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }
}
