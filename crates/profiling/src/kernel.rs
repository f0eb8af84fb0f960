//! The reducers behind [`PartialProfile::finalize`](crate::PartialProfile::finalize).
//!
//! [`AttributeProfile::compute_multipass`](crate::AttributeProfile::compute_multipass)
//! walks its column once *per statistic*. The accumulator in
//! [`crate::partial`] instead gathers everything in one walk — a shared
//! value-count map feeding both constancy and top-k, a fused
//! pattern/character/length walk for text ([`TextAcc`]), a row-order
//! numeric buffer shared by mean, range and histogram — and this module
//! reduces that state into the nine §5.1 statistics.
//!
//! **Bit-identical output is a hard invariant** (the serve byte-match
//! tests pin it): integer accumulations may be reordered freely, but
//! every floating-point reduction preserves the exact operation sequence
//! of the multi-pass code — string lengths and numeric values are
//! buffered in row order and reduced with the same expressions. The
//! property tests in `tests/proptests.rs` assert field-for-field
//! equality against the multi-pass oracle.
//!
//! Every reducer borrows the accumulator state, so a partial retained
//! for O(delta) appends is finalized without copying its buffers; only
//! the top-k values and the pattern keys are copied out.

use crate::profile::AttributeProfile;
use crate::stats::{
    CharHistogram, Constancy, FillStatus, NumericHistogram, NumericMean, StringLength,
    TextPatterns, TopK, ValueRange,
};
use efes_relational::{DataType, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Value counts under `Value`'s Eq/Hash (floats by bit pattern) — the
/// input of constancy, distinctness and top-k.
#[derive(Clone, Debug)]
pub(crate) enum ValueCounts {
    /// Distinct values with their counts, as a dictionary walk delivers
    /// them: a cold text profile never builds a map (filling and
    /// dropping a map of 10⁵ owned strings costs more than everything
    /// else the walk does).
    List(Vec<(Value, usize)>),
    /// Keyed by value, for cell-at-a-time accumulation.
    Map(HashMap<Value, usize>),
}

impl Default for ValueCounts {
    fn default() -> Self {
        ValueCounts::Map(HashMap::new())
    }
}

impl ValueCounts {
    /// The keyed form, converting a list on first use.
    pub(crate) fn map(&mut self) -> &mut HashMap<Value, usize> {
        if let ValueCounts::List(list) = self {
            *self = ValueCounts::Map(std::mem::take(list).into_iter().collect());
        }
        match self {
            ValueCounts::Map(map) => map,
            ValueCounts::List(_) => unreachable!("converted above"),
        }
    }

    fn len(&self) -> usize {
        match self {
            ValueCounts::List(list) => list.len(),
            ValueCounts::Map(map) => map.len(),
        }
    }

    fn for_each<'a>(&'a self, mut f: impl FnMut(&'a Value, usize)) {
        match self {
            ValueCounts::List(list) => list.iter().for_each(|(v, c)| f(v, *c)),
            ValueCounts::Map(map) => map.iter().for_each(|(v, c)| f(v, *c)),
        }
    }
}

/// Accumulator for the three string statistics (text patterns, character
/// histogram, string length), fed one rendered value at a time. The
/// pattern abstraction, the character counts and the character length
/// are all gathered in a single `chars()` walk.
#[derive(Clone, Debug)]
pub(crate) struct TextAcc {
    patterns: HashMap<String, usize>,
    /// Character counts: ASCII by code point, everything else in a map.
    ascii_chars: [usize; 128],
    other_chars: BTreeMap<char, usize>,
    total_chars: usize,
    /// Per-row character lengths, in row order, so the mean/σ reduction
    /// replays the multi-pass float ops.
    lengths: Vec<f64>,
    /// Non-null values observed (the `total` of [`TextPatterns`]).
    total: usize,
    /// Scratch for the pattern under construction; allocation only
    /// happens when a *new* distinct pattern is first seen.
    pattern_buf: String,
}

impl Default for TextAcc {
    fn default() -> Self {
        TextAcc {
            patterns: HashMap::new(),
            ascii_chars: [0; 128],
            other_chars: BTreeMap::new(),
            total_chars: 0,
            lengths: Vec::new(),
            total: 0,
            pattern_buf: String::new(),
        }
    }
}

impl TextAcc {
    /// Feed one per-row value: observe it once and record its length.
    pub(crate) fn add_row(&mut self, s: &str) {
        let len = self.observe(s, 1);
        self.lengths.push(len as f64);
    }

    /// Pre-size the row-order length buffer for a replay of `n` rows.
    pub(crate) fn reserve_lengths(&mut self, n: usize) {
        self.lengths.reserve(n);
    }

    /// Append one row's character length (the dictionary path replays
    /// per-row lengths from a per-code table instead of re-walking).
    pub(crate) fn push_length(&mut self, len: f64) {
        self.lengths.push(len);
    }

    /// Feed one *distinct* value occurring `weight` times; returns its
    /// character length. Per-row lengths are NOT recorded — the caller
    /// (the dictionary path) replays them in row order itself, keeping
    /// the mean/σ float reductions bit-identical to the multi-pass code.
    pub(crate) fn observe(&mut self, s: &str, weight: usize) -> usize {
        self.total += weight;
        self.pattern_buf.clear();
        let mut mode: u8 = 0; // 0 = none, 1 = digits, 2 = letters (as pattern_of)
        let mut len = 0usize;
        for c in s.chars() {
            len += 1;
            match self.ascii_chars.get_mut(c as usize) {
                Some(n) => *n += weight,
                None => *self.other_chars.entry(c).or_insert(0) += weight,
            }
            if c.is_ascii_digit() {
                if mode != 1 {
                    self.pattern_buf.push_str("<n>");
                    mode = 1;
                }
            } else if c.is_alphabetic() {
                if mode != 2 {
                    self.pattern_buf.push_str("<w>");
                    mode = 2;
                }
            } else {
                self.pattern_buf.push(c);
                mode = 0;
            }
        }
        self.total_chars += len * weight;
        if let Some(n) = self.patterns.get_mut(self.pattern_buf.as_str()) {
            *n += weight;
        } else {
            self.patterns.insert(self.pattern_buf.clone(), weight);
        }
        len
    }

    fn finalize(&self) -> (TextPatterns, CharHistogram, StringLength) {
        let mut counts: Vec<(&str, usize)> = self
            .patterns
            .iter()
            .map(|(p, n)| (p.as_str(), *n))
            .collect();
        counts.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let patterns = TextPatterns {
            counts: counts.into_iter().map(|(p, n)| (p.to_owned(), n)).collect(),
            total: self.total,
        };
        let ascii = (0u8..128)
            .map(char::from)
            .zip(self.ascii_chars)
            .filter(|&(_, n)| n > 0);
        let frequencies = ascii
            .chain(self.other_chars.iter().map(|(&c, &n)| (c, n)))
            .map(|(c, n)| (c, n as f64 / self.total_chars.max(1) as f64))
            .collect();
        let histogram = CharHistogram {
            frequencies,
            total_chars: self.total_chars,
        };
        (patterns, histogram, string_length_of(&self.lengths))
    }
}

/// Replays `StringLength::compute`'s reduction over pre-gathered row-order
/// lengths.
fn string_length_of(lengths: &[f64]) -> StringLength {
    let count = lengths.len();
    if count == 0 {
        return StringLength {
            count,
            mean: 0.0,
            stddev: 0.0,
        };
    }
    let mean = lengths.iter().sum::<f64>() / count as f64;
    let var = lengths.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / count as f64;
    StringLength {
        count,
        mean,
        stddev: var.sqrt(),
    }
}

/// Replays the three numeric statistics over pre-gathered row-order
/// numeric views, with the exact float-op sequences of their `compute`s.
fn numeric_stats_of(nums: &[f64]) -> (NumericMean, NumericHistogram, ValueRange) {
    let count = nums.len();
    let mean = if count == 0 {
        NumericMean {
            count,
            mean: 0.0,
            stddev: 0.0,
        }
    } else {
        let m = nums.iter().sum::<f64>() / count as f64;
        let var = nums.iter().map(|x| (x - m).powi(2)).sum::<f64>() / count as f64;
        NumericMean {
            count,
            mean: m,
            stddev: var.sqrt(),
        }
    };
    let n_buckets = NumericHistogram::DEFAULT_BUCKETS;
    let histogram = if count == 0 {
        NumericHistogram {
            lo: 0.0,
            hi: 0.0,
            buckets: vec![0.0; n_buckets],
            count,
        }
    } else {
        let lo = nums.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let width = ((hi - lo) / n_buckets as f64).max(f64::MIN_POSITIVE);
        let mut buckets = vec![0.0; n_buckets];
        for x in nums {
            let idx = (((x - lo) / width) as usize).min(n_buckets - 1);
            buckets[idx] += 1.0;
        }
        for b in &mut buckets {
            *b /= count as f64;
        }
        NumericHistogram {
            lo,
            hi,
            buckets,
            count,
        }
    };
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for x in nums {
        min = min.min(*x);
        max = max.max(*x);
    }
    let range = ValueRange {
        count,
        min: (count > 0).then_some(min),
        max: (count > 0).then_some(max),
    };
    (mean, histogram, range)
}

/// Replays `Constancy::compute`'s entropy reduction over the value
/// counts (summed in ascending frequency order, as the multi-pass code
/// does).
fn constancy_of(count: usize, counts: &ValueCounts) -> Constancy {
    let distinct = counts.len();
    let constancy = if count <= 1 {
        1.0
    } else {
        let n = count as f64;
        let mut freqs: Vec<usize> = Vec::with_capacity(distinct);
        counts.for_each(|_, c| freqs.push(c));
        freqs.sort_unstable();
        let entropy: f64 = freqs
            .into_iter()
            .map(|c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum();
        let max_entropy = n.log2();
        crate::stats::unit(1.0 - entropy / max_entropy)
    };
    Constancy {
        count,
        distinct,
        constancy,
    }
}

/// `TopK::compute`'s order: descending count, ties by ascending value.
/// A strict total order over distinct map keys (`Value`'s `Ord` is total
/// and agrees with its `Eq`), so selection and a full sort agree.
fn top_k_order(a: (&Value, usize), b: (&Value, usize)) -> Ordering {
    b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0))
}

/// The `k` first entries of `counts` under [`top_k_order`], selected by
/// bounded insertion over borrowed entries: O(distinct · k) worst case,
/// and only the `k` winners are cloned.
fn top_k_of(counts: &ValueCounts, total: usize, k: usize) -> TopK {
    let mut best: Vec<(&Value, usize)> = Vec::with_capacity(k + 1);
    counts.for_each(|v, c| {
        let entry = (v, c);
        if best.len() == k {
            match best.last() {
                Some(&worst) if top_k_order(entry, worst) == Ordering::Less => {}
                _ => return,
            }
        }
        let at = best.partition_point(|&b| top_k_order(b, entry) == Ordering::Less);
        best.insert(at, entry);
        best.truncate(k);
    });
    TopK {
        values: best.into_iter().map(|(v, c)| (v.clone(), c)).collect(),
        total,
    }
}

/// Reduce one attribute's accumulated state into its profile.
pub(crate) fn assemble(
    reference_type: DataType,
    fill: FillStatus,
    counts: &ValueCounts,
    text: Option<&TextAcc>,
    nums: Option<&[f64]>,
) -> AttributeProfile {
    let non_null = fill.total - fill.nulls;
    let mut p = AttributeProfile {
        reference_type,
        fill,
        constancy: constancy_of(non_null, counts),
        text_patterns: None,
        char_histogram: None,
        string_length: None,
        mean: None,
        histogram: None,
        range: None,
        top_k: top_k_of(counts, non_null, TopK::DEFAULT_K),
    };
    if let Some(acc) = text {
        let (patterns, chars, lengths) = acc.finalize();
        p.text_patterns = Some(patterns);
        p.char_histogram = Some(chars);
        p.string_length = Some(lengths);
    }
    if let Some(nums) = nums {
        let (mean, histogram, range) = numeric_stats_of(nums);
        p.mean = Some(mean);
        p.histogram = Some(histogram);
        p.range = Some(range);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Selection must return exactly what the full sort + truncate of
    /// `TopK::compute` returns, including ties at the cut.
    #[test]
    fn top_k_selection_matches_full_sort() {
        let mut list: Vec<(Value, usize)> = (0..200i64)
            .map(|i| (Value::Int(i), (i as usize * 7) % 5))
            .collect();
        list.push((Value::Text("z".into()), 4));
        list.push((Value::Float(3.0), 4));
        let mut sorted = list.clone();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let as_list = ValueCounts::List(list.clone());
        let as_map = ValueCounts::Map(list.into_iter().collect());
        for k in [0usize, 1, 3, 10, 300] {
            let expect: Vec<(Value, usize)> = sorted.iter().take(k).cloned().collect();
            assert_eq!(top_k_of(&as_list, 999, k).values, expect, "list, k={k}");
            assert_eq!(top_k_of(&as_map, 999, k).values, expect, "map, k={k}");
        }
    }
}
