//! The nine attribute statistics of paper §5.1.
//!
//! Each statistic type provides:
//!
//! * a `compute` constructor over a column's values,
//! * an `importance(&self) -> f64` in `[0,1]` — *"the importance score
//!   describes how important the statistic type at hand is for the target
//!   attribute"* — computed from the **target** attribute's statistic,
//! * a `fit(source, target) -> f64` in `[0,1]` — *"the fit value measures
//!   to what extent the source attribute statistics fit into the target
//!   attribute statistics"*.
//!
//! The concrete score formulas are not spelled out in the paper; the ones
//! here are chosen so that (a) self-fit is 1 (an attribute always fits
//! itself), (b) scores degrade smoothly with divergence, and (c) the
//! paper's worked example behaves as described: `songs.length`
//! (millisecond integers rendered as `<n>`) fits `tracks.duration`
//! (strings `m:ss`, dominant pattern `<n>:<n>`) far below the 0.9
//! threshold.

mod char_histogram;
mod constancy;
mod fill;
mod numeric;
mod string_length;
mod text_pattern;
mod top_k;

pub use char_histogram::CharHistogram;
pub use constancy::Constancy;
pub use fill::FillStatus;
pub use numeric::{NumericHistogram, NumericMean, ValueRange};
pub use string_length::StringLength;
pub use text_pattern::{pattern_of, TextPatterns};
pub use top_k::TopK;

/// Clamp a float into `[0,1]`, mapping NaN to 0.
pub(crate) fn unit(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

