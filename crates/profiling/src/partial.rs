//! The profiling kernel: the §5.1 statistics as an append-only
//! accumulator over a column's own codes.
//!
//! A [`PartialProfile`] holds everything the nine statistics of one
//! attribute need. It absorbs a typed [`Column`] one contiguous row range
//! at a time ([`PartialProfile::accumulate_range`]); a cold build
//! ([`PartialProfile::of_column_ctx`]) is one range over the whole
//! column. Each range reads the column's one numbering of its values,
//! [`Column::distinct_codes`] (a text column lends its dictionary, any
//! other column gets one word-keyed pass), and
//!
//! * adds the range's code tally to occurrence counts indexed by code;
//! * runs the per-value work (cast check, rendering, the text walk,
//!   numeric parse) once per code the range touches, weighted by its
//!   occurrences in the range;
//! * replays the row-order float buffer from a per-code table;
//! * selects the top-k winners while the column is at hand and keeps
//!   only their `k` values.
//!
//! Codes are first-seen: the codes of rows `0..n` are exactly `0..d`,
//! `d` being the distinct values among them. An extension of a column is
//! cell for cell a prefix of its successor ([`Column::is_prefix_of`],
//! variant changes included), so the successor numbers its first rows
//! as the shorter column did, and the retained counts stay addressed by
//! the successor's codes: a partial keeps no index of its own. An append
//! costs a text column the appended rows plus a few words per distinct
//! value, since its dictionary is the numbering; any other column is
//! numbered again once.
//!
//! [`PartialProfile::finalize`] reduces the state into an
//! [`AttributeProfile`] without consuming or copying it, so a retained
//! partial keeps absorbing appended rows:
//!
//! ```text
//! p = of_column_ctx(rows[..n]);  p.accumulate_range(rows, n, m);
//! p.finalize() == of_column_ctx(rows[..m]).finalize()
//!              == compute_multipass(rows[..m])          (exact ==)
//! ```
//!
//! Two properties make this bit-identical rather than merely close:
//!
//! * every order-sensitive float reduction (string-length mean/σ, numeric
//!   mean/σ/histogram/range) runs over a **row-order buffer**, so the
//!   reduction sees the exact sequence the multi-pass walk sees, however
//!   the rows arrived;
//! * everything else (fill tallies, value counts, pattern counts,
//!   character counts) is integer addition, and the reducers sort by
//!   total orders before any float math, so no iteration order leaks.
//!
//! This is the only code that produces an [`AttributeProfile`]:
//! `AttributeProfile::{compute, compute_columnar, of_attribute_ctx}` and
//! every `ProfileCache` fill run it. The proptests in
//! `tests/proptests.rs` pin it against the multi-pass oracle and pin
//! chunked accumulation against one cold build.

use crate::kernel::{self, TextAcc};
use crate::profile::AttributeProfile;
use crate::stats::{FillStatus, TopK};
use efes_exec::{Cancelled, Checkpoint};
use efes_relational::column::NULL_CODE;
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{Column, DataType, Database, Value, ValueRef};
use std::fmt::Write as _;

/// Accumulator covering all nine §5.1 statistics for one attribute
/// under one designated reference type. See the module docs for the
/// invariants it satisfies.
#[derive(Clone, Debug)]
pub struct PartialProfile {
    reference_type: DataType,
    total: usize,
    nulls: usize,
    incompatible: usize,
    /// Occurrences of each distinct non-null value seen, indexed by its
    /// first-seen code. Feeds constancy and distinctness.
    counts: Vec<usize>,
    /// The top-k winners among `counts`, best first: code and value.
    top: Vec<(u32, Value)>,
    /// Present iff the reference type is `Text`.
    text: Option<TextAcc>,
    /// The row-order buffer the order-sensitive float reductions replay:
    /// each non-null row's character length under a text reference, the
    /// number of each row that holds one under a numeric reference, and
    /// nothing under a boolean one.
    rows: Vec<f64>,
}

/// The multi-pass code's per-cell compatibility check (`try_cast`) over
/// a borrowed cell.
fn incompatible_value(rt: DataType, v: ValueRef<'_>) -> bool {
    match v {
        ValueRef::Null => false,
        ValueRef::Text(s) => rt != DataType::Text && !rt.casts_text(s),
        ValueRef::Int(i) => rt == DataType::Boolean && i != 0 && i != 1,
        ValueRef::Float(f) => match rt {
            DataType::Boolean => true,
            DataType::Integer => {
                !(f.fract() == 0.0 && f.is_finite() && f >= i64::MIN as f64 && f <= i64::MAX as f64)
            }
            _ => false,
        },
        ValueRef::Bool(_) => false,
    }
}

/// `v` as the multi-pass text statistics render it: text borrowed,
/// numbers written into `buf`.
fn rendered<'a>(v: ValueRef<'a>, buf: &'a mut String) -> &'a str {
    buf.clear();
    match v {
        ValueRef::Text(s) => return s,
        ValueRef::Bool(b) => return if b { "true" } else { "false" },
        ValueRef::Null => return "",
        ValueRef::Int(i) => write!(buf, "{i}"),
        ValueRef::Float(f) => write!(buf, "{f}"),
    }
    .expect("write to String");
    buf
}

/// `v` as the multi-pass numeric statistics read it: integers and floats
/// as they are, text that parses as a number once trimmed.
fn number_of(v: ValueRef<'_>) -> Option<f64> {
    match v {
        ValueRef::Text(s) => s.trim().parse::<f64>().ok(),
        _ => v.as_f64(),
    }
}

impl PartialProfile {
    /// A partial that has seen no rows.
    pub fn new(reference_type: DataType) -> Self {
        PartialProfile {
            reference_type,
            total: 0,
            nulls: 0,
            incompatible: 0,
            counts: Vec::new(),
            top: Vec::new(),
            text: (reference_type == DataType::Text).then(TextAcc::default),
            rows: Vec::new(),
        }
    }

    /// The reference type this partial profiles against.
    pub fn reference_type(&self) -> DataType {
        self.reference_type
    }

    /// Rows observed so far (nulls included) — the delta path compares
    /// this against a table's pre-append row count to decide whether a
    /// retained partial still matches the stored prefix.
    pub fn rows_seen(&self) -> usize {
        self.total
    }

    /// Feed the row range `lo..hi` of `col`, ticking the checkpoint once
    /// per row and once per distinct value the range holds.
    ///
    /// The partial must have seen exactly rows `0..lo` of `col`, or of a
    /// column `col` extends ([`Column::is_prefix_of`]): `lo` equals
    /// [`rows_seen`](Self::rows_seen), and the retained counts are read
    /// by `col`'s codes.
    pub fn accumulate_range(
        &mut self,
        col: &Column,
        lo: usize,
        hi: usize,
        ck: &Checkpoint<'_>,
    ) -> Result<(), Cancelled> {
        assert_eq!(
            lo, self.total,
            "a partial absorbs the rows after those it has seen"
        );
        let distinct = col.distinct_codes();
        let codes = &distinct.codes()[lo..hi];
        let (mut tally, nulls) = match col {
            // A whole text column's tally is its dictionary's counts.
            Column::Text(t) if lo == 0 && hi == t.len() => {
                (t.dict_counts().to_vec(), t.null_count())
            }
            _ => {
                let mut tally = vec![0usize; distinct.len()];
                let mut nulls = 0;
                for &code in codes {
                    ck.tick()?;
                    if code == NULL_CODE {
                        nulls += 1;
                    } else {
                        tally[code as usize] += 1;
                    }
                }
                // Rows `0..hi` hold exactly the codes below `seen`.
                let seen = tally.iter().rposition(|&n| n > 0).map_or(0, |c| c + 1);
                tally.truncate(seen.max(self.counts.len()));
                (tally, nulls)
            }
        };

        // Per-value work, once per code the range holds. `per_code` is
        // what each code's rows add to the row-order buffer.
        let rt = self.reference_type;
        let buffered = self.text.is_some() || rt.is_numeric();
        let mut per_code: Vec<Option<f64>> = vec![None; if buffered { tally.len() } else { 0 }];
        let mut buffered_rows = 0;
        let mut render = String::new();
        for (code, &weight) in tally.iter().enumerate() {
            if weight == 0 {
                continue;
            }
            ck.tick()?;
            let v = distinct.value(code as u32);
            if incompatible_value(rt, v) {
                self.incompatible += weight;
            }
            let row_value = match &mut self.text {
                Some(acc) => Some(acc.observe(rendered(v, &mut render), weight) as f64),
                None if rt.is_numeric() => number_of(v),
                None => None,
            };
            if row_value.is_some() {
                per_code[code] = row_value;
                buffered_rows += weight;
            }
        }
        if buffered_rows > 0 {
            self.rows.reserve_exact(buffered_rows);
            for &code in codes {
                ck.tick()?;
                if code != NULL_CODE {
                    if let Some(x) = per_code[code as usize] {
                        self.rows.push(x);
                    }
                }
            }
        }

        // The new winners are among the old ones and the codes this range
        // touched: any other value kept its count and stays beaten.
        let count =
            |code: u32| tally[code as usize] + self.counts.get(code as usize).copied().unwrap_or(0);
        let prior: Vec<u32> = self.top.iter().map(|&(code, _)| code).collect();
        let touched =
            (0..tally.len() as u32).filter(|&c| tally[c as usize] > 0 && !prior.contains(&c));
        let winners = kernel::select_top_k(
            prior.iter().copied().chain(touched).map(|c| (c, count(c))),
            |c| distinct.value(c),
            TopK::DEFAULT_K,
        );
        self.top = winners
            .into_iter()
            .map(|(code, _)| (code, distinct.value(code).to_value()))
            .collect();

        for (n, old) in tally.iter_mut().zip(&self.counts) {
            *n += old;
        }
        self.counts = tally;
        self.total = hi;
        self.nulls += nulls;
        Ok(())
    }

    /// Reduce into an [`AttributeProfile`]. Borrows the accumulated
    /// state, so a retained partial can keep absorbing delta rows.
    pub fn finalize(&self) -> AttributeProfile {
        kernel::assemble(
            self.reference_type,
            FillStatus {
                total: self.total,
                nulls: self.nulls,
                incompatible: self.incompatible,
            },
            &self.counts,
            &self.top,
            self.text.as_ref(),
            &self.rows,
        )
    }

    /// Build the partial of one whole column: one
    /// [`accumulate_range`](Self::accumulate_range) over all its rows.
    pub fn of_column_ctx(
        col: &Column,
        reference_type: DataType,
        ck: &Checkpoint<'_>,
    ) -> Result<Self, Cancelled> {
        let mut partial = Self::new(reference_type);
        partial.accumulate_range(col, 0, col.len(), ck)?;
        Ok(partial)
    }

    /// Build the partial of one attribute of `db` from its typed column
    /// store; an attribute without a column yields the empty partial.
    pub fn of_attribute_ctx(
        db: &Database,
        table: TableId,
        attr: AttrId,
        reference_type: DataType,
        ck: &Checkpoint<'_>,
    ) -> Result<Self, Cancelled> {
        match db.instance.table(table).column_store(attr) {
            Some(col) => Self::of_column_ctx(col, reference_type, ck),
            None => Ok(Self::new(reference_type)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efes_exec::RunContext;

    #[test]
    fn cancellation_aborts_a_column_build() {
        let run = RunContext::unbounded();
        run.token().cancel();
        let ints = Column::from_cells((0..100_000i64).map(Value::Int).collect());
        let texts =
            Column::from_cells((0..100_000).map(|i| Value::Text(format!("v{i}"))).collect());
        for (col, rt) in [
            (&ints, DataType::Integer),
            (&ints, DataType::Text),
            (&texts, DataType::Text),
            (&texts, DataType::Float),
        ] {
            let got = PartialProfile::of_column_ctx(col, rt, &run.checkpoint());
            assert!(got.is_err(), "{rt:?} build ignored the cancelled run");
        }
    }
}
