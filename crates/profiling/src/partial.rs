//! The profiling kernel: the §5.1 statistics as an append-only
//! accumulator.
//!
//! A [`PartialProfile`] holds everything the nine statistics of one
//! attribute need, detached from any particular walk. It can be fed one
//! [`ValueRef`] at a time ([`PartialProfile::accumulate`]), fed a
//! contiguous row range of a typed [`Column`]
//! ([`PartialProfile::accumulate_range`]), or built over a whole column
//! in one go ([`PartialProfile::of_column_ctx`], which takes the
//! dictionary-weighted path for text columns).
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
//!   total orders before any float math, so map iteration order never
//!   leaks.
//!
//! This is the only code that produces an [`AttributeProfile`]:
//! `AttributeProfile::{compute, compute_columnar, of_attribute_ctx}` and
//! every `ProfileCache` fill run it. The proptests in
//! `tests/proptests.rs` pin it against the multi-pass oracle and pin
//! chunked accumulation against one cold build.

use crate::kernel::{self, TextAcc, ValueCounts};
use crate::profile::AttributeProfile;
use crate::stats::FillStatus;
use efes_exec::{Cancelled, Checkpoint};
use efes_relational::column::NULL_CODE;
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{Column, DataType, Database, TextColumn, Value, ValueRef};
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
    /// Feeds constancy, distinctness and top-k.
    counts: ValueCounts,
    /// Present iff the reference type is `Text`.
    text: Option<TextAcc>,
    /// Row-order numeric buffer; present iff the reference type is
    /// numeric.
    nums: Option<Vec<f64>>,
    /// Render scratch, excluded from all semantics.
    render_buf: String,
    /// Lookup key for text cells, reused so a repeated string costs a
    /// copy instead of an allocation. Excluded from all semantics.
    text_probe: Value,
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

impl PartialProfile {
    /// A partial that has seen no rows.
    pub fn new(reference_type: DataType) -> Self {
        PartialProfile {
            reference_type,
            total: 0,
            nulls: 0,
            incompatible: 0,
            counts: ValueCounts::default(),
            text: (reference_type == DataType::Text).then(TextAcc::default),
            nums: reference_type.is_numeric().then(Vec::new),
            render_buf: String::new(),
            text_probe: Value::Text(String::new()),
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

    fn count_value(&mut self, v: ValueRef<'_>) {
        let counts = self.counts.map();
        match v {
            ValueRef::Text(s) => {
                if let Value::Text(probe) = &mut self.text_probe {
                    probe.clear();
                    probe.push_str(s);
                }
                match counts.get_mut(&self.text_probe) {
                    Some(n) => *n += 1,
                    None => {
                        counts.insert(self.text_probe.clone(), 1);
                    }
                }
            }
            _ => *counts.entry(v.to_value()).or_insert(0) += 1,
        }
    }

    /// Feed one cell. Null cells advance only the fill tallies; all other
    /// cells update the count map and whichever of the text/numeric
    /// accumulators the reference type designates, rendered and parsed
    /// exactly as the multi-pass statistics render and parse them.
    pub fn accumulate(&mut self, v: ValueRef<'_>) {
        self.total += 1;
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        if incompatible_value(self.reference_type, v) {
            self.incompatible += 1;
        }
        self.count_value(v);
        if let Some(acc) = &mut self.text {
            match v {
                ValueRef::Text(s) => acc.add_row(s),
                ValueRef::Int(i) => {
                    self.render_buf.clear();
                    write!(self.render_buf, "{i}").expect("write to String");
                    acc.add_row(&self.render_buf);
                }
                ValueRef::Float(f) => {
                    self.render_buf.clear();
                    write!(self.render_buf, "{f}").expect("write to String");
                    acc.add_row(&self.render_buf);
                }
                ValueRef::Bool(b) => acc.add_row(if b { "true" } else { "false" }),
                ValueRef::Null => unreachable!(),
            }
        } else if let Some(nums) = &mut self.nums {
            match v {
                ValueRef::Int(i) => nums.push(i as f64),
                ValueRef::Float(f) => nums.push(f),
                ValueRef::Text(s) => {
                    if let Ok(x) = s.trim().parse::<f64>() {
                        nums.push(x);
                    }
                }
                _ => {}
            }
        }
    }

    /// Feed the contiguous row range `lo..hi` of a typed column, ticking
    /// the checkpoint once per row. Integer and float columns under a
    /// non-text reference get machine-word loops; everything else goes
    /// through [`PartialProfile::accumulate`] per cell.
    pub fn accumulate_range(
        &mut self,
        col: &Column,
        lo: usize,
        hi: usize,
        ck: &Checkpoint<'_>,
    ) -> Result<(), Cancelled> {
        debug_assert!(lo <= hi && hi <= col.len());
        match col {
            Column::Int { values, nulls } if self.text.is_none() => {
                let boolean_rt = self.reference_type == DataType::Boolean;
                let counts = self.counts.map();
                for (i, &v) in values.iter().enumerate().take(hi).skip(lo) {
                    ck.tick()?;
                    self.total += 1;
                    if nulls.is_null(i) {
                        self.nulls += 1;
                        continue;
                    }
                    if boolean_rt && v != 0 && v != 1 {
                        self.incompatible += 1;
                    }
                    *counts.entry(Value::Int(v)).or_insert(0) += 1;
                    if let Some(nums) = &mut self.nums {
                        nums.push(v as f64);
                    }
                }
            }
            Column::Float { values, nulls } if self.text.is_none() => {
                let counts = self.counts.map();
                for (i, &v) in values.iter().enumerate().take(hi).skip(lo) {
                    ck.tick()?;
                    self.total += 1;
                    if nulls.is_null(i) {
                        self.nulls += 1;
                        continue;
                    }
                    if incompatible_value(self.reference_type, ValueRef::Float(v)) {
                        self.incompatible += 1;
                    }
                    *counts.entry(Value::Float(v)).or_insert(0) += 1;
                    if let Some(nums) = &mut self.nums {
                        nums.push(v);
                    }
                }
            }
            _ => {
                for i in lo..hi {
                    ck.tick()?;
                    self.accumulate(col.value(i));
                }
            }
        }
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
            self.text.as_ref(),
            self.nums.as_deref(),
        )
    }

    /// Build the partial of one whole column. Text columns take the
    /// weighted dictionary walk (per-string work once per *distinct*
    /// value); everything else takes [`PartialProfile::accumulate_range`]
    /// over the full row range.
    pub fn of_column_ctx(
        col: &Column,
        reference_type: DataType,
        ck: &Checkpoint<'_>,
    ) -> Result<Self, Cancelled> {
        let mut partial = Self::new(reference_type);
        match col {
            Column::Text(tc) => partial.absorb_text_column(tc, ck)?,
            _ => partial.accumulate_range(col, 0, col.len(), ck)?,
        }
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

    /// The dictionary path for a fresh partial: the expensive per-string
    /// work (pattern/char walk, cast checks, numeric parses) runs once
    /// per distinct value, weighted by its occurrence count; only the
    /// order-sensitive float buffers are filled per row, from per-code
    /// tables.
    fn absorb_text_column(
        &mut self,
        tc: &TextColumn,
        ck: &Checkpoint<'_>,
    ) -> Result<(), Cancelled> {
        debug_assert_eq!(self.total, 0);
        let rt = self.reference_type;
        let dict_len = tc.dict_len();
        let mut counts = Vec::with_capacity(dict_len);
        let mut char_lens: Vec<f64> = Vec::new();
        let mut parsed: Vec<Option<f64>> = Vec::new();
        for code in 0..dict_len as u32 {
            ck.tick()?;
            let s = tc.dict_str(code);
            let weight = tc.dict_count(code);
            counts.push((Value::Text(s.to_owned()), weight));
            if let Some(acc) = &mut self.text {
                char_lens.push(acc.observe(s, weight) as f64);
            } else {
                if self.nums.is_some() {
                    parsed.push(s.trim().parse::<f64>().ok());
                }
                if !rt.casts_text(s) {
                    self.incompatible += weight;
                }
            }
        }

        // Dictionary entries are distinct, so the list needs no index.
        self.counts = ValueCounts::List(counts);
        self.total = tc.len();
        self.nulls = tc.null_count();
        let non_null = self.total - self.nulls;
        if let Some(acc) = &mut self.text {
            acc.reserve_lengths(non_null);
            for &code in tc.codes() {
                ck.tick()?;
                if code != NULL_CODE {
                    acc.push_length(char_lens[code as usize]);
                }
            }
        } else if let Some(nums) = &mut self.nums {
            nums.reserve(non_null);
            for &code in tc.codes() {
                ck.tick()?;
                if code != NULL_CODE {
                    if let Some(x) = parsed[code as usize] {
                        nums.push(x);
                    }
                }
            }
        }
        Ok(())
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
