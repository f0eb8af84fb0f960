//! The reducers behind [`PartialProfile::finalize`](crate::PartialProfile::finalize).
//!
//! [`AttributeProfile::compute_multipass`](crate::AttributeProfile::compute_multipass)
//! walks its column once *per statistic*. The accumulator in
//! [`crate::partial`] instead works from the column's first-seen codes —
//! occurrence counts by code feeding both constancy and top-k, a fused
//! pattern/character/length walk per distinct value for text
//! ([`TextAcc`]), one row-order float buffer shared by the string
//! length or by mean, range and histogram — and this module reduces that
//! state into the nine §5.1 statistics.
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
use efes_relational::{DataType, Value, ValueRef};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Accumulator for two string statistics (text patterns, character
/// histogram), fed one rendered distinct value at a time with its
/// weight. The pattern abstraction, the character counts and the
/// character length are all gathered in a single `chars()` walk.
#[derive(Clone, Debug)]
pub(crate) struct TextAcc {
    patterns: HashMap<String, usize>,
    /// Character counts: ASCII by code point, everything else in a map.
    ascii_chars: [usize; 128],
    other_chars: BTreeMap<char, usize>,
    total_chars: usize,
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
            total: 0,
            pattern_buf: String::new(),
        }
    }
}

impl TextAcc {
    /// Feed one *distinct* value occurring `weight` times; returns its
    /// character length. Per-row lengths are not recorded here: the
    /// caller replays them in row order, keeping the mean/σ float
    /// reductions bit-identical to the multi-pass code.
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

    fn finalize(&self) -> (TextPatterns, CharHistogram) {
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
        (patterns, histogram)
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
fn constancy_of(count: usize, counts: &[usize]) -> Constancy {
    let distinct = counts.len();
    let constancy = if count <= 1 {
        1.0
    } else {
        let n = count as f64;
        let mut freqs = counts.to_vec();
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

/// The `k` best of `candidates` — `(code, count)` pairs, each code at
/// most once — in `TopK::compute`'s order: descending count, ties by
/// ascending value, `value(code)` being the code's value. That order is
/// strict and total over distinct codes (they hold distinct values, and
/// `ValueRef`'s order agrees with its equality), so bounded insertion
/// selects what a full sort would keep: O(candidates · k) worst case.
pub(crate) fn select_top_k<'a>(
    candidates: impl IntoIterator<Item = (u32, usize)>,
    value: impl Fn(u32) -> ValueRef<'a>,
    k: usize,
) -> Vec<(u32, usize)> {
    let before = |a: (u32, usize), b: (u32, usize)| {
        b.1.cmp(&a.1).then_with(|| value(a.0).cmp(&value(b.0))) == Ordering::Less
    };
    let mut best: Vec<(u32, usize)> = Vec::with_capacity(k + 1);
    for entry in candidates {
        if best.len() == k && !best.last().is_some_and(|&worst| before(entry, worst)) {
            continue;
        }
        let at = best.partition_point(|&b| before(b, entry));
        best.insert(at, entry);
        best.truncate(k);
    }
    best
}

/// Reduce one attribute's accumulated state into its profile: `counts`
/// by code, the top-k winners' codes and values, and the row-order
/// buffer of string lengths (text reference) or numbers (numeric one).
pub(crate) fn assemble(
    reference_type: DataType,
    fill: FillStatus,
    counts: &[usize],
    top: &[(u32, Value)],
    text: Option<&TextAcc>,
    rows: &[f64],
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
        top_k: TopK {
            values: top
                .iter()
                .map(|(code, v)| (v.clone(), counts[*code as usize]))
                .collect(),
            total: non_null,
        },
    };
    if let Some(acc) = text {
        let (patterns, chars) = acc.finalize();
        p.text_patterns = Some(patterns);
        p.char_histogram = Some(chars);
        p.string_length = Some(string_length_of(rows));
    }
    if reference_type.is_numeric() {
        let (mean, histogram, range) = numeric_stats_of(rows);
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
    /// `TopK::compute` returns, including ties at the cut, whatever the
    /// order the candidates arrive in.
    #[test]
    fn top_k_selection_matches_full_sort() {
        let mut values: Vec<Value> = (0..200i64).map(Value::Int).collect();
        values.push(Value::Text("z".into()));
        values.push(Value::Float(3.0));
        let count = |code: usize| match code {
            200 | 201 => 4,
            i => (i * 7) % 5,
        };
        let mut sorted: Vec<(Value, usize)> = values
            .iter()
            .enumerate()
            .map(|(c, v)| (v.clone(), count(c)))
            .collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let value = |code: u32| ValueRef::of(&values[code as usize]);
        for k in [0usize, 1, 3, 10, 300] {
            let expect: Vec<(Value, usize)> = sorted.iter().take(k).cloned().collect();
            for reversed in [false, true] {
                let mut candidates: Vec<(u32, usize)> =
                    (0..values.len()).map(|c| (c as u32, count(c))).collect();
                if reversed {
                    candidates.reverse();
                }
                let got: Vec<(Value, usize)> = select_top_k(candidates, value, k)
                    .into_iter()
                    .map(|(c, n)| (values[c as usize].clone(), n))
                    .collect();
                assert_eq!(got, expect, "k={k}, reversed={reversed}");
            }
        }
    }
}
