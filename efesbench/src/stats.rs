//! Order statistics for latency samples.

/// Samples that must lie strictly above the reported tail.
pub const MIN_BEYOND_TAIL: usize = 10;

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `95.0`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p / 100 · n)`, clamped to `1..=n`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (e.g. 75 % of 40) from rounding up.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Percentile `p` of `sorted` (ascending), with the number of samples
/// beyond it; `None` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Tail> {
    let n = sorted.len();
    let rank = nearest_rank(n, p);
    (n > 0).then(|| Tail {
        percentile: p,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of per-block rates: `times` are completion instants in
/// seconds (ascending, from the window's start at 0); each run of
/// `block` completions is one block, timed from the previous block's end.
/// A median over blocks ignores the bursts of interference a shared host
/// injects into a few of them.
pub fn median_block_rate(times: &[f64], block: usize) -> f64 {
    let mut rates = Vec::new();
    let mut start = 0.0;
    for chunk in times.chunks_exact(block.max(1)) {
        let end = chunk[chunk.len() - 1];
        if end > start {
            rates.push(chunk.len() as f64 / (end - start));
        }
        start = end;
    }
    median(&rates)
}

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
