//! Typed columnar storage: the profiling hot path's data layout.
//!
//! The row-major [`Vec<Row>`](crate::instance::Row) layout is the right
//! shape for inserts and constraint validation, but the value-fit
//! detector (paper §5.1) is data-volume bound: it reads whole columns,
//! value by value, many times. Walking `Vec<Vec<Value>>` chases a
//! pointer per cell and pays the full `Value` enum tag on every read.
//!
//! A [`Column`] is a contiguous, typed copy of one attribute's cells,
//! built lazily (and at most once) per column:
//!
//! * integer columns become a `Vec<i64>` plus a [`NullBitmap`],
//! * float columns a `Vec<f64>` plus a [`NullBitmap`],
//! * text columns a dictionary-encoded [`TextColumn`] — one arena
//!   `String` holding every *distinct* value, per-row `u32` codes, and
//!   per-code occurrence counts, so downstream statistics can work per
//!   distinct value instead of per row,
//! * boolean columns a `Vec<bool>` plus a [`NullBitmap`],
//! * anything type-mixed (e.g. a float attribute holding both `Int` and
//!   `Float` values, or a deserialized instance that bypassed insert
//!   checking) falls back to a contiguous [`Column::Mixed`] `Vec<Value>`.
//!
//! Cells read back as [`ValueRef`]s — borrowed, `Copy` views that
//! reproduce [`Value`] semantics without materialising owned values.

use crate::instance::Row;
use crate::value::Value;
use std::collections::HashMap;

/// A borrowed, `Copy` view of one cell.
///
/// Mirrors [`Value`] variant-for-variant; [`ValueRef::to_value`]
/// round-trips exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(&'a str),
    /// Boolean.
    Bool(bool),
}

impl<'a> ValueRef<'a> {
    /// View an owned [`Value`].
    pub fn of(v: &'a Value) -> Self {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }

    /// Materialise an owned [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bool(b) => Value::Bool(b),
        }
    }

    /// `true` iff the cell is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Borrow the string payload, if this is a text cell.
    pub fn as_text(self) -> Option<&'a str> {
        match self {
            ValueRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an integer payload, if this is an integer cell.
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Numeric view: integers and floats promote to `f64`.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Bit-exact cell equality: like `==`, except floats compare by
    /// [`f64::to_bits`], so NaNs equal themselves and `0.0 != -0.0` —
    /// the same total semantics [`Value`]'s `Eq` uses. This is the cell
    /// relation behind [`Column::is_prefix_of`].
    pub fn bit_eq(self, other: ValueRef<'_>) -> bool {
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a.to_bits() == b.to_bits(),
            (ValueRef::Text(a), ValueRef::Text(b)) => a == b,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Render exactly like [`Value::render`].
    pub fn render(self) -> String {
        match self {
            ValueRef::Null => String::new(),
            ValueRef::Int(i) => i.to_string(),
            ValueRef::Float(f) => format!("{f}"),
            ValueRef::Text(s) => s.to_owned(),
            ValueRef::Bool(b) => b.to_string(),
        }
    }
}

/// A packed validity mask: bit `i` set means row `i` is NULL.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    count: usize,
}

impl NullBitmap {
    /// An all-valid bitmap sized for `len` rows.
    pub fn new(len: usize) -> Self {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            count: 0,
        }
    }

    /// Mark row `i` as NULL.
    pub fn set(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
        }
    }

    /// `true` iff row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of NULL rows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `true` iff the first `n` bits of `self` and `other` agree. Both
    /// bitmaps must cover at least `n` rows.
    fn prefix_eq(&self, other: &NullBitmap, n: usize) -> bool {
        let full = n / 64;
        if self.words[..full] != other.words[..full] {
            return false;
        }
        let rem = n % 64;
        if rem == 0 {
            return true;
        }
        let mask = (1u64 << rem) - 1;
        self.words[full] & mask == other.words[full] & mask
    }
}

/// Sentinel code marking a NULL row in a [`TextColumn`].
pub const NULL_CODE: u32 = u32::MAX;

/// Dictionary-encoded text column: every distinct string is stored once
/// in a shared arena (in first-seen order), rows hold `u32` codes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextColumn {
    /// Per-row dictionary code; [`NULL_CODE`] for NULL rows.
    codes: Vec<u32>,
    /// Occurrences of each dictionary entry.
    counts: Vec<usize>,
    /// Concatenated distinct strings, first-seen order.
    bytes: String,
    /// `dict_len() + 1` byte offsets into `bytes`.
    offsets: Vec<usize>,
    null_count: usize,
}

impl TextColumn {
    fn build_with<'a>(len: usize, get: impl Fn(usize) -> &'a Value) -> Self {
        let mut col = TextColumn {
            codes: Vec::with_capacity(len),
            ..TextColumn::default()
        };
        col.offsets.push(0);
        let mut dict: HashMap<&'a str, u32> = HashMap::new();
        for i in 0..len {
            match get(i) {
                Value::Null => {
                    col.null_count += 1;
                    col.codes.push(NULL_CODE);
                }
                Value::Text(s) => {
                    let code = *dict.entry(s.as_str()).or_insert_with(|| {
                        col.bytes.push_str(s);
                        col.offsets.push(col.bytes.len());
                        col.counts.push(0);
                        (col.offsets.len() - 2) as u32
                    });
                    col.counts[code as usize] += 1;
                    col.codes.push(code);
                }
                other => unreachable!("text column holds {other:?}"),
            }
        }
        col
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Number of distinct non-null strings.
    pub fn dict_len(&self) -> usize {
        self.counts.len()
    }

    /// The dictionary string for `code`.
    pub fn dict_str(&self, code: u32) -> &str {
        let i = code as usize;
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Occurrences of dictionary entry `code`.
    pub fn dict_count(&self, code: u32) -> usize {
        self.counts[code as usize]
    }

    /// Per-row dictionary codes ([`NULL_CODE`] for NULLs).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Per-code occurrence counts, indexed by code.
    pub fn dict_counts(&self) -> &[usize] {
        &self.counts
    }

    /// Iterate the dictionary in first-seen order.
    pub fn dict_iter(&self) -> impl Iterator<Item = &str> {
        (0..self.dict_len() as u32).map(|c| self.dict_str(c))
    }
}

/// A typed, contiguous copy of one attribute's cells.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// All cells `Int` or NULL.
    Int {
        /// Cell values; NULL rows hold `0`.
        values: Vec<i64>,
        /// Which rows are NULL.
        nulls: NullBitmap,
    },
    /// All cells `Float` or NULL.
    Float {
        /// Cell values; NULL rows hold `0.0`.
        values: Vec<f64>,
        /// Which rows are NULL.
        nulls: NullBitmap,
    },
    /// All cells `Text` or NULL, dictionary-encoded.
    Text(TextColumn),
    /// All cells `Bool` or NULL.
    Bool {
        /// Cell values; NULL rows hold `false`.
        values: Vec<bool>,
        /// Which rows are NULL.
        nulls: NullBitmap,
    },
    /// Type-mixed (or all-NULL, or empty) column: a contiguous copy of
    /// the cells, still an improvement over per-row pointer chasing.
    Mixed(Vec<Value>),
}

/// A column with no rows, for attributes of empty tables.
static EMPTY_COLUMN: Column = Column::Mixed(Vec::new());

impl Column {
    /// An empty column (zero rows).
    pub fn empty() -> &'static Column {
        &EMPTY_COLUMN
    }

    /// Build the typed representation of column `attr` of `rows`.
    pub fn build(rows: &[Row], attr: usize) -> Column {
        Self::build_typed(rows.len(), |i| &rows[i][attr])
            .unwrap_or_else(|| Column::Mixed(rows.iter().map(|r| r[attr].clone()).collect()))
    }

    /// Build the typed representation of an owned column of cells — the
    /// column-major twin of [`Column::build`], used by generators that
    /// produce data column-wise and stream it straight into the store.
    ///
    /// Shares the classify-then-build core with [`Column::build`], so a
    /// column loaded through this path is identical to the one a lazy
    /// rebuild from the derived rows would produce. The type-mixed (or
    /// all-NULL) fallback reuses `cells` without copying.
    pub fn from_cells(cells: Vec<Value>) -> Column {
        match Self::build_typed(cells.len(), |i| &cells[i]) {
            Some(col) => col,
            None => Column::Mixed(cells),
        }
    }

    /// The classify-then-build core shared by [`Column::build`] and
    /// [`Column::from_cells`]: `None` means the cells are type-mixed (or
    /// all-NULL/empty) and the caller should fall back to
    /// [`Column::Mixed`].
    fn build_typed<'a>(len: usize, get: impl Fn(usize) -> &'a Value) -> Option<Column> {
        // First pass: classify. The per-cell work is a discriminant read,
        // so this costs far less than the build it steers.
        let (mut ints, mut floats, mut texts, mut bools) = (0usize, 0usize, 0usize, 0usize);
        for i in 0..len {
            match get(i) {
                Value::Null => {}
                Value::Int(_) => ints += 1,
                Value::Float(_) => floats += 1,
                Value::Text(_) => texts += 1,
                Value::Bool(_) => bools += 1,
            }
        }
        let non_null = ints + floats + texts + bools;
        if non_null == 0 {
            // All-NULL or empty: nothing to type.
            return None;
        }
        if texts == non_null {
            return Some(Column::Text(TextColumn::build_with(len, get)));
        }
        if ints == non_null {
            let mut values = Vec::with_capacity(len);
            let mut nulls = NullBitmap::new(len);
            for i in 0..len {
                match get(i) {
                    Value::Int(v) => values.push(*v),
                    Value::Null => {
                        nulls.set(i);
                        values.push(0);
                    }
                    other => unreachable!("int column holds {other:?}"),
                }
            }
            return Some(Column::Int { values, nulls });
        }
        if floats == non_null {
            let mut values = Vec::with_capacity(len);
            let mut nulls = NullBitmap::new(len);
            for i in 0..len {
                match get(i) {
                    Value::Float(v) => values.push(*v),
                    Value::Null => {
                        nulls.set(i);
                        values.push(0.0);
                    }
                    other => unreachable!("float column holds {other:?}"),
                }
            }
            return Some(Column::Float { values, nulls });
        }
        if bools == non_null {
            let mut values = Vec::with_capacity(len);
            let mut nulls = NullBitmap::new(len);
            for i in 0..len {
                match get(i) {
                    Value::Bool(v) => values.push(*v),
                    Value::Null => {
                        nulls.set(i);
                        values.push(false);
                    }
                    other => unreachable!("bool column holds {other:?}"),
                }
            }
            return Some(Column::Bool { values, nulls });
        }
        None
    }

    /// A short label of the column's typed variant, for error messages.
    pub fn type_label(&self) -> &'static str {
        match self {
            Column::Int { .. } => "integer column",
            Column::Float { .. } => "float column",
            Column::Text(_) => "text column",
            Column::Bool { .. } => "boolean column",
            Column::Mixed(_) => "mixed column",
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Text(t) => t.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Mixed(v) => v.len(),
        }
    }

    /// `true` iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. } => nulls.count(),
            Column::Text(t) => t.null_count(),
            Column::Mixed(v) => v.iter().filter(|v| v.is_null()).count(),
        }
    }

    /// The cell at row `i`.
    pub fn value(&self, i: usize) -> ValueRef<'_> {
        match self {
            Column::Int { values, nulls } => {
                if nulls.is_null(i) {
                    ValueRef::Null
                } else {
                    ValueRef::Int(values[i])
                }
            }
            Column::Float { values, nulls } => {
                if nulls.is_null(i) {
                    ValueRef::Null
                } else {
                    ValueRef::Float(values[i])
                }
            }
            Column::Text(t) => {
                let code = t.codes[i];
                if code == NULL_CODE {
                    ValueRef::Null
                } else {
                    ValueRef::Text(t.dict_str(code))
                }
            }
            Column::Bool { values, nulls } => {
                if nulls.is_null(i) {
                    ValueRef::Null
                } else {
                    ValueRef::Bool(values[i])
                }
            }
            Column::Mixed(v) => ValueRef::of(&v[i]),
        }
    }

    /// Iterate all cells in row order.
    pub fn iter(&self) -> ColumnIter<'_> {
        ColumnIter { col: self, i: 0 }
    }

    /// Distinct non-null values in first-seen order — the columnar
    /// backend of [`Instance::distinct_values`](crate::Instance::distinct_values).
    ///
    /// For text columns this is a plain dictionary scan (the dictionary
    /// *is* the first-seen distinct set); typed numeric columns hash
    /// machine words instead of `Value`s.
    pub fn distinct_values(&self) -> Vec<Value> {
        match self {
            Column::Text(t) => t.dict_iter().map(|s| Value::Text(s.to_owned())).collect(),
            Column::Int { values, nulls } => {
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    if !nulls.is_null(i) && seen.insert(*v) {
                        out.push(Value::Int(*v));
                    }
                }
                out
            }
            Column::Float { values, nulls } => {
                // `f64::to_bits` keys match `Value`'s float Hash/Eq
                // (both are bit-exact, so NaN payloads and -0.0 vs 0.0
                // stay distinct, exactly as in the row-major path).
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    if !nulls.is_null(i) && seen.insert(v.to_bits()) {
                        out.push(Value::Float(*v));
                    }
                }
                out
            }
            Column::Bool { values, nulls } => {
                let mut seen = [false; 2];
                let mut out = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    if !nulls.is_null(i) && !seen[*v as usize] {
                        seen[*v as usize] = true;
                        out.push(Value::Bool(*v));
                    }
                }
                out
            }
            Column::Mixed(vals) => {
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for v in vals {
                    if !v.is_null() && seen.insert(v) {
                        out.push(v.clone());
                    }
                }
                out
            }
        }
    }

    /// Number of distinct non-null values — the allocation-free
    /// counterpart of [`Column::distinct_values`].
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Text(t) => t.dict_len(),
            Column::Int { values, nulls } => {
                let mut seen = std::collections::HashSet::new();
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, v)| !nulls.is_null(*i) && seen.insert(**v))
                    .count()
            }
            Column::Float { values, nulls } => {
                let mut seen = std::collections::HashSet::new();
                values
                    .iter()
                    .enumerate()
                    .filter(|(i, v)| !nulls.is_null(*i) && seen.insert(v.to_bits()))
                    .count()
            }
            Column::Bool { values, nulls } => {
                let mut seen = [false; 2];
                let mut n = 0;
                for (i, v) in values.iter().enumerate() {
                    if !nulls.is_null(i) && !seen[*v as usize] {
                        seen[*v as usize] = true;
                        n += 1;
                    }
                }
                n
            }
            Column::Mixed(vals) => {
                let mut seen = std::collections::HashSet::new();
                vals.iter().filter(|v| !v.is_null() && seen.insert(*v)).count()
            }
        }
    }

    /// `true` iff `other`'s first `self.len()` rows equal `self`'s rows
    /// cell for cell (floats bit-exact, as in [`ValueRef::bit_eq`]).
    ///
    /// This is the append detector behind incremental profiling: a
    /// re-uploaded scenario whose every column is a prefix of the new
    /// one only grew, so retained partial profiles can absorb just the
    /// tail rows. Same-variant columns compare structurally — for text
    /// columns the first-seen dictionary discipline makes "row prefix"
    /// equivalent to "codes, offsets and arena bytes are prefixes", so
    /// no per-row string compares are needed. Mismatched variants (e.g.
    /// an all-NULL `Mixed` column later typed by its first real cell)
    /// fall back to a per-cell walk.
    pub fn is_prefix_of(&self, other: &Column) -> bool {
        let n = self.len();
        if n > other.len() {
            return false;
        }
        match (self, other) {
            (
                Column::Int { values: a, nulls: an },
                Column::Int { values: b, nulls: bn },
            ) => a[..] == b[..n] && an.prefix_eq(bn, n),
            (
                Column::Float { values: a, nulls: an },
                Column::Float { values: b, nulls: bn },
            ) => {
                a.iter().zip(&b[..n]).all(|(x, y)| x.to_bits() == y.to_bits())
                    && an.prefix_eq(bn, n)
            }
            (
                Column::Bool { values: a, nulls: an },
                Column::Bool { values: b, nulls: bn },
            ) => a[..] == b[..n] && an.prefix_eq(bn, n),
            (Column::Text(a), Column::Text(b)) => {
                a.codes[..] == b.codes[..n]
                    && a.offsets[..] == b.offsets[..a.offsets.len()]
                    && b.bytes.as_bytes().starts_with(a.bytes.as_bytes())
            }
            (Column::Mixed(a), Column::Mixed(b)) => a[..] == b[..n],
            _ => (0..n).all(|i| self.value(i).bit_eq(other.value(i))),
        }
    }
}

/// Incremental, type-adaptive builder for one [`Column`] — the streaming
/// twin of [`Column::from_cells`].
///
/// [`Column::from_cells`] needs the whole column up front to classify it;
/// a network ingest sees one cell at a time. The builder keeps a typed
/// accumulator that adapts as cells arrive: it starts undecided, commits
/// to the variant of the first non-null cell, and demotes to
/// [`Column::Mixed`] (reconstructing the owned values it has absorbed —
/// once per column, never per cell) the moment a conflicting variant
/// shows up. NULLs are welcome in every state.
///
/// The invariant, pinned by differential tests: for any cell sequence,
/// `builder.finish() == Column::from_cells(cells)` — bit-identical, null
/// bitmaps and dictionary order included. That is what lets an ingested
/// table share profile caches and golden figures with a column-loaded
/// one.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    len: usize,
    /// Expected row count from [`ColumnBuilder::with_capacity`]; applied
    /// when the first non-null cell commits a typed state.
    reserve_hint: usize,
    state: BuilderState,
}

#[derive(Debug, Default)]
enum BuilderState {
    /// No non-null cell seen yet; `len` nulls are pending replay.
    #[default]
    Undecided,
    Int {
        values: Vec<i64>,
        nulls: NullBitmap,
    },
    Float {
        values: Vec<f64>,
        nulls: NullBitmap,
    },
    Text {
        col: TextColumn,
        /// Owned-key mirror of the arena dictionary: the arena `String`
        /// reallocates as it grows, so codes cannot key off borrowed
        /// slices the way the batch build does.
        dict: HashMap<String, u32>,
    },
    Bool {
        values: Vec<bool>,
        nulls: NullBitmap,
    },
    Mixed(Vec<Value>),
}

/// Extend `nulls` to cover row `i`, marking it NULL if asked. Rows must
/// arrive in order; the finished bitmap is identical to
/// [`NullBitmap::new`]`(len)` plus the same `set` calls.
fn bitmap_push(nulls: &mut NullBitmap, i: usize, is_null: bool) {
    if i.is_multiple_of(64) {
        nulls.words.push(0);
    }
    if is_null {
        nulls.set(i);
    }
}

/// An all-NULL bitmap covering rows `0..len`.
fn all_null_bitmap(len: usize) -> NullBitmap {
    let mut nulls = NullBitmap::new(len);
    for i in 0..len {
        nulls.set(i);
    }
    nulls
}

impl ColumnBuilder {
    /// A builder holding no cells.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder expecting about `rows` cells.
    pub fn with_capacity(rows: usize) -> Self {
        // Capacity lands where the first non-null cell commits a state;
        // until then there is nothing to reserve.
        let mut b = Self::new();
        b.reserve_hint = rows;
        b
    }

    /// Cells absorbed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no cell has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absorb the next cell.
    pub fn push(&mut self, cell: Value) {
        let i = self.len;
        self.len += 1;
        match (&mut self.state, cell) {
            // NULLs keep whatever state we are in.
            (BuilderState::Undecided, Value::Null) => {}
            (BuilderState::Int { values, nulls }, Value::Null) => {
                bitmap_push(nulls, i, true);
                values.push(0);
            }
            (BuilderState::Float { values, nulls }, Value::Null) => {
                bitmap_push(nulls, i, true);
                values.push(0.0);
            }
            (BuilderState::Bool { values, nulls }, Value::Null) => {
                bitmap_push(nulls, i, true);
                values.push(false);
            }
            (BuilderState::Text { col, .. }, Value::Null) => {
                col.null_count += 1;
                col.codes.push(NULL_CODE);
            }
            (BuilderState::Mixed(cells), cell) => cells.push(cell),

            // First non-null cell: commit to its variant, replaying the
            // leading NULLs into the typed accumulator.
            (BuilderState::Undecided, cell) => {
                self.state = Self::commit(i, self.reserve_hint, cell);
            }

            // Matching non-null cells extend the typed accumulator.
            (BuilderState::Int { values, nulls }, Value::Int(v)) => {
                bitmap_push(nulls, i, false);
                values.push(v);
            }
            (BuilderState::Float { values, nulls }, Value::Float(v)) => {
                bitmap_push(nulls, i, false);
                values.push(v);
            }
            (BuilderState::Bool { values, nulls }, Value::Bool(v)) => {
                bitmap_push(nulls, i, false);
                values.push(v);
            }
            (BuilderState::Text { col, dict }, Value::Text(s)) => {
                let code = match dict.get(s.as_str()) {
                    Some(&code) => code,
                    None => {
                        col.bytes.push_str(&s);
                        col.offsets.push(col.bytes.len());
                        col.counts.push(0);
                        let code = (col.offsets.len() - 2) as u32;
                        dict.insert(s, code);
                        code
                    }
                };
                col.counts[code as usize] += 1;
                col.codes.push(code);
            }

            // Conflicting variant: demote to Mixed, once.
            (_, cell) => {
                let mut cells = self.demote(i);
                cells.push(cell);
                self.state = BuilderState::Mixed(cells);
            }
        }
    }

    /// The typed state for the first non-null `cell` arriving at row
    /// `leading_nulls`.
    fn commit(leading_nulls: usize, hint: usize, cell: Value) -> BuilderState {
        let cap = hint.max(leading_nulls + 1);
        let mut nulls = all_null_bitmap(leading_nulls);
        bitmap_push(&mut nulls, leading_nulls, false);
        match cell {
            Value::Int(v) => {
                let mut values = Vec::with_capacity(cap);
                values.resize(leading_nulls, 0);
                values.push(v);
                BuilderState::Int { values, nulls }
            }
            Value::Float(v) => {
                let mut values = Vec::with_capacity(cap);
                values.resize(leading_nulls, 0.0);
                values.push(v);
                BuilderState::Float { values, nulls }
            }
            Value::Bool(v) => {
                let mut values = Vec::with_capacity(cap);
                values.resize(leading_nulls, false);
                values.push(v);
                BuilderState::Bool { values, nulls }
            }
            Value::Text(s) => {
                let mut col = TextColumn {
                    codes: Vec::with_capacity(cap),
                    ..TextColumn::default()
                };
                col.offsets.push(0);
                col.codes.resize(leading_nulls, NULL_CODE);
                col.null_count = leading_nulls;
                col.bytes.push_str(&s);
                col.offsets.push(col.bytes.len());
                col.counts.push(1);
                col.codes.push(0);
                let mut dict = HashMap::new();
                dict.insert(s, 0u32);
                BuilderState::Text { col, dict }
            }
            Value::Null => unreachable!("commit is only called on non-null cells"),
        }
    }

    /// Reconstruct the `rows` cells absorbed so far as owned values — the
    /// one-time cost of demoting a typed accumulator to Mixed.
    fn demote(&mut self, rows: usize) -> Vec<Value> {
        let mut cells = Vec::with_capacity(rows + 1);
        match std::mem::take(&mut self.state) {
            BuilderState::Undecided => cells.resize(rows, Value::Null),
            BuilderState::Int { values, nulls } => {
                for (i, v) in values.into_iter().enumerate() {
                    cells.push(if nulls.is_null(i) { Value::Null } else { Value::Int(v) });
                }
            }
            BuilderState::Float { values, nulls } => {
                for (i, v) in values.into_iter().enumerate() {
                    cells.push(if nulls.is_null(i) { Value::Null } else { Value::Float(v) });
                }
            }
            BuilderState::Bool { values, nulls } => {
                for (i, v) in values.into_iter().enumerate() {
                    cells.push(if nulls.is_null(i) { Value::Null } else { Value::Bool(v) });
                }
            }
            BuilderState::Text { col, .. } => {
                for &code in &col.codes {
                    cells.push(if code == NULL_CODE {
                        Value::Null
                    } else {
                        Value::Text(col.dict_str(code).to_owned())
                    });
                }
            }
            BuilderState::Mixed(existing) => cells = existing,
        }
        cells
    }

    /// Finish the column. Equals `Column::from_cells` over the same cell
    /// sequence, bit for bit.
    pub fn finish(self) -> Column {
        match self.state {
            // All-NULL (or empty) columns have nothing to type — the same
            // Mixed fallback `from_cells` takes.
            BuilderState::Undecided => Column::Mixed(vec![Value::Null; self.len]),
            BuilderState::Int { values, nulls } => Column::Int { values, nulls },
            BuilderState::Float { values, nulls } => Column::Float { values, nulls },
            BuilderState::Bool { values, nulls } => Column::Bool { values, nulls },
            BuilderState::Text { col, .. } => Column::Text(col),
            BuilderState::Mixed(cells) => Column::Mixed(cells),
        }
    }
}

/// Iterator over one column's cells, yielding [`ValueRef`]s in row order.
#[derive(Debug, Clone)]
pub struct ColumnIter<'a> {
    col: &'a Column,
    i: usize,
}

impl<'a> Iterator for ColumnIter<'a> {
    type Item = ValueRef<'a>;

    fn next(&mut self) -> Option<ValueRef<'a>> {
        if self.i >= self.col.len() {
            return None;
        }
        let v = self.col.value(self.i);
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.col.len() - self.i;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: Vec<Value>) -> Vec<Row> {
        values.into_iter().map(|v| vec![v]).collect()
    }

    #[test]
    fn int_column_round_trips() {
        let r = rows(vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(3)]);
        let c = Column::build(&r, 0);
        assert!(matches!(c, Column::Int { .. }));
        let back: Vec<Value> = c.iter().map(ValueRef::to_value).collect();
        assert_eq!(back, vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(3)]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.distinct_values(), vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn text_column_dictionary_is_first_seen_order() {
        let r = rows(vec![
            Value::Text("b".into()),
            Value::Text("a".into()),
            Value::Null,
            Value::Text("b".into()),
        ]);
        let c = Column::build(&r, 0);
        let Column::Text(t) = &c else { panic!("expected text column") };
        assert_eq!(t.dict_len(), 2);
        assert_eq!(t.dict_str(0), "b");
        assert_eq!(t.dict_str(1), "a");
        assert_eq!(t.dict_count(0), 2);
        assert_eq!(t.null_count(), 1);
        assert_eq!(
            c.distinct_values(),
            vec![Value::Text("b".into()), Value::Text("a".into())]
        );
        let back: Vec<Value> = c.iter().map(ValueRef::to_value).collect();
        assert_eq!(back[3], Value::Text("b".into()));
        assert!(back[2].is_null());
    }

    #[test]
    fn mixed_numeric_column_falls_back() {
        let r = rows(vec![Value::Int(1), Value::Float(2.5)]);
        let c = Column::build(&r, 0);
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn all_null_column_is_mixed_and_has_no_distincts() {
        let r = rows(vec![Value::Null, Value::Null]);
        let c = Column::build(&r, 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.distinct_count(), 0);
        assert!(c.distinct_values().is_empty());
    }

    #[test]
    fn float_distincts_are_bit_exact() {
        let r = rows(vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(0.0)]);
        let c = Column::build(&r, 0);
        // -0.0 and 0.0 differ under Value's total ordering; the columnar
        // path must agree.
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn bitmap_counts_and_reads() {
        let mut b = NullBitmap::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        b.set(129);
        assert_eq!(b.count(), 3);
        assert!(b.is_null(0) && b.is_null(64) && b.is_null(129));
        assert!(!b.is_null(1) && !b.is_null(128));
    }

    #[test]
    fn from_cells_matches_row_major_build() {
        let shapes: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Text("b".into()), Value::Text("a".into()), Value::Null],
            vec![Value::Float(1.5), Value::Null],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Int(1), Value::Text("x".into())],
            vec![Value::Null, Value::Null],
            vec![],
        ];
        for cells in shapes {
            let r: Vec<Row> = cells.iter().map(|v| vec![v.clone()]).collect();
            assert_eq!(Column::from_cells(cells), Column::build(&r, 0));
        }
    }

    #[test]
    fn builder_matches_from_cells_across_shapes() {
        let shapes: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(3)],
            vec![Value::Null, Value::Null, Value::Int(7)], // leading nulls replayed
            vec![Value::Text("b".into()), Value::Text("a".into()), Value::Text("b".into())],
            vec![Value::Null, Value::Text("x".into()), Value::Null],
            vec![Value::Float(1.5), Value::Null, Value::Float(-2.25)],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![Value::Int(1), Value::Float(2.0)],          // demote Int -> Mixed
            vec![Value::Text("t".into()), Value::Int(9)],    // demote Text -> Mixed
            vec![Value::Null, Value::Bool(true), Value::Text("m".into())],
            vec![Value::Null, Value::Null],
            vec![],
        ];
        for cells in shapes {
            let mut b = ColumnBuilder::with_capacity(cells.len());
            for c in &cells {
                b.push(c.clone());
            }
            assert_eq!(b.len(), cells.len());
            assert_eq!(b.finish(), Column::from_cells(cells));
        }
    }

    #[test]
    fn builder_preserves_nan_bits() {
        // Column's derived PartialEq follows f64 semantics (NaN != NaN),
        // so NaN round-trips are checked at the bit level instead.
        let mut b = ColumnBuilder::new();
        b.push(Value::Float(f64::NAN));
        b.push(Value::Null);
        let col = b.finish();
        let Column::Float { values, nulls } = col else { panic!("expected float column") };
        assert_eq!(values[0].to_bits(), f64::NAN.to_bits());
        assert!(!nulls.is_null(0) && nulls.is_null(1));
    }

    #[test]
    fn builder_bitmap_is_word_exact_across_boundaries() {
        // 130 rows crosses two u64 word boundaries; the incremental
        // bitmap must equal the batch one structurally (PartialEq
        // compares the words vec, so trailing-word discipline matters).
        let cells: Vec<Value> = (0..130)
            .map(|i| if i % 3 == 0 { Value::Null } else { Value::Int(i) })
            .collect();
        let mut b = ColumnBuilder::new();
        for c in &cells {
            b.push(c.clone());
        }
        assert_eq!(b.finish(), Column::from_cells(cells));
    }

    #[test]
    fn prefix_detection_accepts_every_append_shape() {
        let bases: Vec<Vec<Value>> = vec![
            (0..130)
                .map(|i| if i % 3 == 0 { Value::Null } else { Value::Int(i) })
                .collect(),
            vec![Value::Float(1.5), Value::Null, Value::Float(f64::NAN)],
            vec![Value::Text("b".into()), Value::Text("a".into()), Value::Null],
            vec![Value::Bool(true), Value::Null],
            vec![Value::Int(1), Value::Text("x".into())], // stays Mixed
            vec![Value::Null, Value::Null],               // Mixed, may get typed
            vec![],
        ];
        let tails: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null],
            vec![Value::Int(7)],
            vec![Value::Text("a".into()), Value::Text("z".into())],
            vec![Value::Float(2.5)],
            vec![Value::Bool(false)],
        ];
        for base in &bases {
            let a = Column::from_cells(base.clone());
            for tail in &tails {
                let mut cells = base.clone();
                cells.extend(tail.iter().cloned());
                let b = Column::from_cells(cells);
                assert!(
                    a.is_prefix_of(&b),
                    "{} + {} tail rows should be a prefix",
                    a.type_label(),
                    tail.len()
                );
            }
        }
    }

    #[test]
    fn prefix_detection_rejects_mutated_prefixes() {
        let base: Vec<Value> = (0..70)
            .map(|i| if i % 5 == 0 { Value::Null } else { Value::Int(i) })
            .collect();
        let a = Column::from_cells(base.clone());
        // Shorter than the base: not a prefix.
        assert!(!a.is_prefix_of(&Column::from_cells(base[..69].to_vec())));
        // A changed cell inside the prefix.
        let mut edited = base.clone();
        edited[3] = Value::Int(-1);
        edited.push(Value::Int(999));
        assert!(!a.is_prefix_of(&Column::from_cells(edited)));
        // A null flipped to a value (bitmap mismatch, values match at 0).
        let mut nulled = base.clone();
        nulled[0] = Value::Int(0);
        nulled.push(Value::Int(999));
        assert!(!a.is_prefix_of(&Column::from_cells(nulled)));
        // Text: same strings, different order re-keys the dictionary.
        let t1 = Column::from_cells(vec![Value::Text("a".into()), Value::Text("b".into())]);
        let t2 = Column::from_cells(vec![
            Value::Text("b".into()),
            Value::Text("a".into()),
            Value::Text("c".into()),
        ]);
        assert!(!t1.is_prefix_of(&t2));
        // Floats bit-exact: 0.0 is not a prefix of -0.0.
        let f1 = Column::from_cells(vec![Value::Float(0.0)]);
        let f2 = Column::from_cells(vec![Value::Float(-0.0), Value::Float(1.0)]);
        assert!(!f1.is_prefix_of(&f2));
        // NaN equals itself bit-for-bit.
        let n1 = Column::from_cells(vec![Value::Float(f64::NAN)]);
        let n2 = Column::from_cells(vec![Value::Float(f64::NAN), Value::Float(1.0)]);
        assert!(n1.is_prefix_of(&n2));
    }

    #[test]
    fn bit_eq_mirrors_value_total_equality() {
        assert!(ValueRef::Null.bit_eq(ValueRef::Null));
        assert!(ValueRef::Float(f64::NAN).bit_eq(ValueRef::Float(f64::NAN)));
        assert!(!ValueRef::Float(0.0).bit_eq(ValueRef::Float(-0.0)));
        assert!(!ValueRef::Int(1).bit_eq(ValueRef::Float(1.0)));
        assert!(ValueRef::Text("x").bit_eq(ValueRef::Text("x")));
        assert!(!ValueRef::Bool(true).bit_eq(ValueRef::Null));
    }

    #[test]
    fn row_backed_iteration_matches_columnar() {
        let r = rows(vec![Value::Text("x".into()), Value::Null, Value::Text("y".into())]);
        let c = Column::build(&r, 0);
        let a: Vec<Value> = c.iter().map(ValueRef::to_value).collect();
        let b: Vec<Value> = r.iter().map(|row| row[0].clone()).collect();
        assert_eq!(a, b);
    }
}
