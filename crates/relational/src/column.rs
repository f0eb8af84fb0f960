//! Typed columnar storage: the only representation of a table's data.
//!
//! The value-fit detector (paper §5.1) is data-volume bound: it reads
//! whole columns, value by value, many times. CSG conversion (§4) reads
//! tuples, which it gets by walking one table's columns side by side.
//! Both read the same [`Column`]s; no row-major copy of the data exists.
//!
//! A [`Column`] is a contiguous, typed copy of one attribute's cells,
//! grown one cell at a time by [`Column::push`]:
//!
//! * integer columns are a `Vec<i64>` plus a [`NullBitmap`],
//! * float columns a `Vec<f64>` plus a [`NullBitmap`],
//! * text columns a dictionary-encoded [`TextColumn`] — one arena
//!   `String` holding every *distinct* value, per-row `u32` codes, and
//!   per-code occurrence counts, so downstream statistics can work per
//!   distinct value instead of per row,
//! * boolean columns a `Vec<bool>` plus a [`NullBitmap`],
//! * anything type-mixed (e.g. a float attribute holding both `Int` and
//!   `Float` values), all-NULL or empty is a [`Column::Mixed`] of owned
//!   values.
//!
//! Cells read back as [`ValueRef`]s — borrowed, `Copy` views that
//! reproduce [`Value`] semantics without materialising owned values.

use crate::value::Value;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

/// A borrowed, `Copy` view of one cell.
///
/// Mirrors [`Value`] variant-for-variant; [`ValueRef::to_value`]
/// round-trips exactly. Equality and hashing follow [`Value`]'s total
/// semantics: floats compare by [`f64::to_bits`], so NaNs equal
/// themselves and `0.0 != -0.0`, and cells of different variants are
/// never equal.
#[derive(Debug, Clone, Copy)]
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

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a.to_bits() == b.to_bits(),
            (ValueRef::Text(a), ValueRef::Text(b)) => a == b,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ValueRef<'_> {}

impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            ValueRef::Null => {}
            ValueRef::Int(i) => i.hash(state),
            ValueRef::Float(f) => f.to_bits().hash(state),
            ValueRef::Text(s) => s.hash(state),
            ValueRef::Bool(b) => b.hash(state),
        }
    }
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

    /// An all-NULL bitmap sized for `len` rows.
    fn all_null(len: usize) -> Self {
        let mut nulls = NullBitmap::new(len);
        for i in 0..len {
            nulls.set(i);
        }
        nulls
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

    /// Extend the bitmap to cover row `i`, the row after the last one it
    /// covers, marking it NULL if asked. Keeps the words exactly those of
    /// [`NullBitmap::new`]`(i + 1)` plus the same `set` calls.
    fn push(&mut self, i: usize, is_null: bool) {
        if i.is_multiple_of(64) {
            self.words.push(0);
        }
        if is_null {
            self.set(i);
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
#[derive(Debug, Clone)]
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
    /// Open-addressing hash index over the dictionary: a slot holds a
    /// code plus one, `0` marks it empty, and at most half the slots are
    /// full. Probes compare against the arena, so no string is stored
    /// twice.
    index: Vec<u32>,
    /// Seeds the index's hashes. Random per column, so strings from
    /// outside the program cannot be crafted to collide.
    hasher: RandomState,
}

impl PartialEq for TextColumn {
    /// Equal dictionaries and codes; the index is derived from them.
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes
            && self.counts == other.counts
            && self.bytes == other.bytes
            && self.offsets == other.offsets
            && self.null_count == other.null_count
    }
}

impl TextColumn {
    /// A column of `n` NULL rows and an empty dictionary.
    fn of_nulls(n: usize) -> Self {
        TextColumn {
            codes: vec![NULL_CODE; n],
            counts: Vec::new(),
            bytes: String::new(),
            offsets: vec![0],
            null_count: n,
            index: vec![0; 8],
            hasher: RandomState::new(),
        }
    }

    /// Append a non-null row, adding `s` to the dictionary on first sight.
    fn push(&mut self, s: &str) {
        let slot = self.slot_of(s);
        let code = match self.index[slot] {
            0 => self.intern(s, slot),
            stored => stored - 1,
        };
        self.counts[code as usize] += 1;
        self.codes.push(code);
    }

    /// The index slot holding `s`, or the empty slot where it belongs.
    fn slot_of(&self, s: &str) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = self.hasher.hash_one(s) as usize & mask;
        while self.index[slot] != 0 && self.dict_str(self.index[slot] - 1) != s {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Append `s` to the dictionary, filing it in the empty index `slot`;
    /// returns its code.
    fn intern(&mut self, s: &str, slot: usize) -> u32 {
        let code = u32::try_from(self.counts.len())
            .ok()
            .filter(|&c| c != NULL_CODE)
            .expect("a text column holds fewer than u32::MAX distinct strings");
        self.bytes.push_str(s);
        self.offsets.push(self.bytes.len());
        self.counts.push(0);
        self.index[slot] = code + 1;
        if 2 * self.counts.len() > self.index.len() {
            // Double the index and refile every code; the strings are
            // distinct, so each lands in the first empty slot it probes.
            self.index = vec![0; 2 * self.index.len()];
            let mask = self.index.len() - 1;
            for code in 0..=code {
                let mut slot = self.hasher.hash_one(self.dict_str(code)) as usize & mask;
                while self.index[slot] != 0 {
                    slot = (slot + 1) & mask;
                }
                self.index[slot] = code + 1;
            }
        }
        code
    }

    /// Append a NULL row.
    fn push_null(&mut self) {
        self.null_count += 1;
        self.codes.push(NULL_CODE);
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

    /// Approximate heap bytes: codes, counts, the dictionary (arena and
    /// offsets) and its index.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.codes.len() + self.index.len()) * size_of::<u32>()
            + (self.counts.len() + self.offsets.len()) * size_of::<usize>()
            + self.bytes.len()
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
    /// Type-mixed (or all-NULL, or empty) column: the cells as owned
    /// values.
    Mixed {
        /// The cells, in row order.
        cells: Vec<Value>,
        /// How many cells are NULL. While this equals `cells.len()` the
        /// column is all-NULL, and its first non-null cell will type it.
        nulls: usize,
    },
}

/// A column with no rows, for attributes a table holds no column for.
static EMPTY_COLUMN: Column = Column::Mixed {
    cells: Vec::new(),
    nulls: 0,
};

impl Default for Column {
    /// An empty column: [`Column::Mixed`] until its first non-null cell.
    fn default() -> Self {
        Column::Mixed {
            cells: Vec::new(),
            nulls: 0,
        }
    }
}

impl Column {
    /// An empty column (zero rows).
    pub fn empty() -> &'static Column {
        &EMPTY_COLUMN
    }

    /// The column holding `cells`, in order: a fold of [`Column::push`].
    pub fn from_cells(cells: Vec<Value>) -> Column {
        let mut col = Column::default();
        for cell in &cells {
            col.push(ValueRef::of(cell));
        }
        col
    }

    /// Append one cell — the only way a column is built.
    ///
    /// A column starts empty and [`Column::Mixed`]. The first non-null
    /// cell types it after the variant of that cell, with the NULLs seen
    /// so far replayed. A later non-null cell of another variant demotes
    /// it to [`Column::Mixed`] for good. Each change happens at most once
    /// per column, so building a column of `n` cells is O(n) whatever
    /// their order. NULLs fit every variant. The result does not depend
    /// on how the cells arrive: pushing them one by one and
    /// [`Column::from_cells`] build identical columns.
    pub fn push(&mut self, cell: ValueRef<'_>) {
        let row = self.len();
        match (&mut *self, cell) {
            (Column::Int { values, nulls }, ValueRef::Int(v)) => {
                nulls.push(row, false);
                values.push(v);
            }
            (Column::Int { values, nulls }, ValueRef::Null) => {
                nulls.push(row, true);
                values.push(0);
            }
            (Column::Float { values, nulls }, ValueRef::Float(v)) => {
                nulls.push(row, false);
                values.push(v);
            }
            (Column::Float { values, nulls }, ValueRef::Null) => {
                nulls.push(row, true);
                values.push(0.0);
            }
            (Column::Bool { values, nulls }, ValueRef::Bool(v)) => {
                nulls.push(row, false);
                values.push(v);
            }
            (Column::Bool { values, nulls }, ValueRef::Null) => {
                nulls.push(row, true);
                values.push(false);
            }
            (Column::Text(t), ValueRef::Text(s)) => t.push(s),
            (Column::Text(t), ValueRef::Null) => t.push_null(),
            (Column::Mixed { cells, nulls }, ValueRef::Null) => {
                cells.push(Value::Null);
                *nulls += 1;
            }
            (Column::Mixed { cells, nulls }, cell) if *nulls < cells.len() => {
                cells.push(cell.to_value());
            }
            // An all-NULL column meets its first non-null cell, or a
            // typed column meets a cell of another variant.
            (_, cell) => {
                let mut next = match &*self {
                    Column::Mixed { .. } => Column::of_nulls(row, cell),
                    typed => Column::Mixed {
                        cells: typed.iter().map(ValueRef::to_value).collect(),
                        nulls: typed.null_count(),
                    },
                };
                next.push(cell);
                *self = next;
            }
        }
    }

    /// A column of `n` NULL rows, typed after `like`'s variant.
    fn of_nulls(n: usize, like: ValueRef<'_>) -> Column {
        match like {
            ValueRef::Int(_) => Column::Int {
                values: vec![0; n],
                nulls: NullBitmap::all_null(n),
            },
            ValueRef::Float(_) => Column::Float {
                values: vec![0.0; n],
                nulls: NullBitmap::all_null(n),
            },
            ValueRef::Bool(_) => Column::Bool {
                values: vec![false; n],
                nulls: NullBitmap::all_null(n),
            },
            ValueRef::Text(_) => Column::Text(TextColumn::of_nulls(n)),
            ValueRef::Null => Column::Mixed {
                cells: vec![Value::Null; n],
                nulls: n,
            },
        }
    }

    /// A short label of the column's typed variant, for error messages.
    pub fn type_label(&self) -> &'static str {
        match self {
            Column::Int { .. } => "integer column",
            Column::Float { .. } => "float column",
            Column::Text(_) => "text column",
            Column::Bool { .. } => "boolean column",
            Column::Mixed { .. } => "mixed column",
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Text(t) => t.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Mixed { cells, .. } => cells.len(),
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
            Column::Mixed { nulls, .. } => *nulls,
        }
    }

    /// Approximate heap bytes the column holds: its typed slots and null
    /// bitmap, its dictionary (each distinct string once) and the
    /// dictionary's index, or its owned cells with their text payloads. This is what
    /// an ingest budget charges for the data of a table.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let bitmap = |nulls: &NullBitmap| nulls.words.len() * size_of::<u64>();
        match self {
            Column::Int { values, nulls } => values.len() * size_of::<i64>() + bitmap(nulls),
            Column::Float { values, nulls } => values.len() * size_of::<f64>() + bitmap(nulls),
            Column::Bool { values, nulls } => values.len() * size_of::<bool>() + bitmap(nulls),
            Column::Text(t) => t.heap_bytes(),
            Column::Mixed { cells, .. } => cells
                .iter()
                .map(|v| size_of::<Value>() + v.as_text().map_or(0, str::len))
                .sum(),
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
            Column::Mixed { cells, .. } => ValueRef::of(&cells[i]),
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
                // stay distinct).
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
            Column::Mixed { cells, .. } => {
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for v in cells {
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
            Column::Mixed { cells, .. } => {
                let mut seen = std::collections::HashSet::new();
                cells.iter().filter(|v| !v.is_null() && seen.insert(*v)).count()
            }
        }
    }

    /// `true` iff `other`'s first `self.len()` rows equal `self`'s rows
    /// cell for cell (floats bit-exact, as in [`ValueRef`]'s equality).
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
            (Column::Mixed { cells: a, .. }, Column::Mixed { cells: b, .. }) => a[..] == b[..n],
            _ => self.iter().zip(other.iter()).all(|(a, b)| a == b),
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

    #[test]
    fn int_column_round_trips() {
        let cells = vec![Value::Int(1), Value::Null, Value::Int(1), Value::Int(3)];
        let c = Column::from_cells(cells.clone());
        assert!(matches!(c, Column::Int { .. }));
        let back: Vec<Value> = c.iter().map(ValueRef::to_value).collect();
        assert_eq!(back, cells);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.distinct_values(), vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn text_column_dictionary_is_first_seen_order() {
        let c = Column::from_cells(vec![
            Value::Text("b".into()),
            Value::Text("a".into()),
            Value::Null,
            Value::Text("b".into()),
        ]);
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
        let c = Column::from_cells(vec![Value::Int(1), Value::Float(2.5)]);
        assert!(matches!(c, Column::Mixed { .. }));
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn all_null_column_is_mixed_and_has_no_distincts() {
        let c = Column::from_cells(vec![Value::Null, Value::Null]);
        assert!(matches!(c, Column::Mixed { .. }));
        assert_eq!(c.len(), 2);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.distinct_count(), 0);
        assert!(c.distinct_values().is_empty());
    }

    #[test]
    fn float_distincts_are_bit_exact() {
        let c = Column::from_cells(vec![Value::Float(0.0), Value::Float(-0.0), Value::Float(0.0)]);
        // -0.0 and 0.0 differ under Value's total ordering; the column
        // must agree.
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
        // Row by row, `Instance::insert` builds each attribute's column;
        // loading the same cells column-wise must give the same column.
        use crate::{AttrId, DataType, Instance, Schema, Table, TableId, Attribute};
        let shapes: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Integer, vec![Value::Int(1), Value::Null, Value::Int(3)]),
            (DataType::Text, vec![Value::Text("b".into()), Value::Text("a".into()), Value::Null]),
            (DataType::Float, vec![Value::Float(1.5), Value::Null]),
            (DataType::Float, vec![Value::Int(1), Value::Float(2.5)]),
            (DataType::Boolean, vec![Value::Bool(true), Value::Bool(false)]),
            (DataType::Text, vec![Value::Null, Value::Null]),
            (DataType::Integer, vec![]),
        ];
        for (datatype, cells) in shapes {
            let mut schema = Schema::new("s");
            schema.add_table(Table::new("t", vec![Attribute::new("a", datatype)])).unwrap();
            let mut instance = Instance::empty(&schema);
            for cell in &cells {
                instance.insert(&schema, TableId(0), vec![cell.clone()]).unwrap();
            }
            let row_built = instance.table(TableId(0)).column_store(AttrId(0)).unwrap();
            assert_eq!(row_built, &Column::from_cells(cells));
        }
    }

    #[test]
    fn push_types_every_corner_shape() {
        let shapes: Vec<(Vec<Value>, &str)> = vec![
            (vec![Value::Int(1), Value::Null, Value::Int(3)], "integer column"),
            (vec![Value::Null, Value::Null, Value::Int(7)], "integer column"), // leading nulls replayed
            (
                vec![Value::Text("b".into()), Value::Text("a".into()), Value::Text("b".into())],
                "text column",
            ),
            (vec![Value::Null, Value::Text("x".into()), Value::Null], "text column"),
            (vec![Value::Float(1.5), Value::Null, Value::Float(-2.25)], "float column"),
            (vec![Value::Bool(true), Value::Null, Value::Bool(false)], "boolean column"),
            (vec![Value::Int(1), Value::Float(2.0)], "mixed column"), // demote Int -> Mixed
            (vec![Value::Text("t".into()), Value::Int(9)], "mixed column"), // demote Text -> Mixed
            (vec![Value::Null, Value::Bool(true), Value::Text("m".into())], "mixed column"),
            (vec![Value::Int(1), Value::Text("x".into()), Value::Null, Value::Int(2)], "mixed column"),
            (vec![Value::Null, Value::Null], "mixed column"),
            (vec![], "mixed column"),
        ];
        for (cells, label) in shapes {
            let mut col = Column::default();
            for c in &cells {
                col.push(ValueRef::of(c));
            }
            assert_eq!(col.type_label(), label, "{cells:?}");
            assert_eq!(col.len(), cells.len());
            assert_eq!(col.null_count(), cells.iter().filter(|v| v.is_null()).count());
            assert!(col.iter().eq(cells.iter().map(ValueRef::of)), "{cells:?}");
        }
    }

    #[test]
    fn long_null_runs_before_mixed_cells_build_in_linear_time() {
        // "Still all NULL?" is answered by a count, not a scan: scanning
        // the leading NULLs on every push would take ~10^10 steps here.
        let n = 100_000;
        let mut col = Column::default();
        for _ in 0..n {
            col.push(ValueRef::Null);
        }
        for i in 0..n {
            col.push(if i % 2 == 0 { ValueRef::Int(i as i64) } else { ValueRef::Text("x") });
        }
        assert_eq!(col.type_label(), "mixed column");
        assert_eq!((col.len(), col.null_count()), (2 * n, n));
    }

    #[test]
    fn builder_preserves_nan_bits() {
        // Column's derived PartialEq follows f64 semantics (NaN != NaN),
        // so NaN round-trips are checked at the bit level instead.
        let mut col = Column::default();
        col.push(ValueRef::Float(f64::NAN));
        col.push(ValueRef::Null);
        let Column::Float { values, nulls } = col else { panic!("expected float column") };
        assert_eq!(values[0].to_bits(), f64::NAN.to_bits());
        assert!(!nulls.is_null(0) && nulls.is_null(1));
    }

    #[test]
    fn builder_bitmap_is_word_exact_across_boundaries() {
        // 130 rows crosses two u64 word boundaries; the bitmap grown one
        // row at a time must equal a bitmap sized up front (PartialEq
        // compares the words vec, so trailing-word discipline matters).
        // The leading 70 NULLs are replayed when the first integer types
        // the column.
        let cells: Vec<Value> = (0..130)
            .map(|i| if i < 70 || i % 3 == 0 { Value::Null } else { Value::Int(i) })
            .collect();
        let Column::Int { nulls, .. } = Column::from_cells(cells.clone()) else {
            panic!("expected integer column")
        };
        let mut expected = NullBitmap::new(cells.len());
        for (i, _) in cells.iter().enumerate().filter(|(_, v)| v.is_null()) {
            expected.set(i);
        }
        assert_eq!(nulls, expected);
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
        assert_eq!(ValueRef::Null, ValueRef::Null);
        assert_eq!(ValueRef::Float(f64::NAN), ValueRef::Float(f64::NAN));
        assert_ne!(ValueRef::Float(0.0), ValueRef::Float(-0.0));
        assert_ne!(ValueRef::Int(1), ValueRef::Float(1.0));
        assert_eq!(ValueRef::Text("x"), ValueRef::Text("x"));
        assert_ne!(ValueRef::Bool(true), ValueRef::Null);
        // Hashing agrees with equality.
        let set: std::collections::HashSet<ValueRef<'_>> =
            [ValueRef::Float(f64::NAN), ValueRef::Float(f64::NAN), ValueRef::Float(-0.0)]
                .into_iter()
                .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn row_backed_iteration_matches_columnar() {
        // The row view a table derives from its columns reads the same
        // cells as iterating each column.
        let id = Column::from_cells(vec![Value::Int(1), Value::Null, Value::Int(2)]);
        let name = Column::from_cells(vec![Value::Text("x".into()), Value::Null, Value::Text("y".into())]);
        let data = crate::TableData::from_columns(vec![id.clone(), name.clone()]).unwrap();
        let rows: Vec<Vec<Value>> = data.rows().collect();
        for (attr, col) in [id, name].iter().enumerate() {
            let via_rows: Vec<Value> = rows.iter().map(|row| row[attr].clone()).collect();
            let via_column: Vec<Value> = col.iter().map(ValueRef::to_value).collect();
            assert_eq!(via_rows, via_column);
        }
    }
}
