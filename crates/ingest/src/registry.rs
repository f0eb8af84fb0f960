//! The [`DynamicRegistry`]: uploaded scenarios layered over the static
//! [`ScenarioRegistry`], with memory accounting, LRU eviction and
//! content-fingerprint deduplication.
//!
//! The server resolves every scenario name through one
//! [`ScenarioProvider`]; this type is the composition it actually uses.
//! Static entries always win name lookups and are never evicted —
//! uploads are the guests here. Each accepted upload is charged an
//! approximate resident size against a byte budget
//! ([`INGEST_BUDGET_ENV_VAR`], default 256 MiB); when an insert would
//! overflow the budget, the least-recently-*used* uploaded scenarios
//! (an estimate touches, a re-upload touches, a listing does not) are
//! evicted until it fits. A 128-bit content fingerprint — schemas,
//! constraints, correspondences, and every cell, but *not* the
//! registration name — lets a byte-identical re-upload collapse onto
//! the existing entry instead of storing a second copy, so the existing
//! entry's `ProfileCache` keeps serving both.

use crate::IngestError;
use efes::{ScenarioInfo, ScenarioProvider, ScenarioRegistry};
use efes_relational::{AttrId, Column, Database, IntegrationScenario, TableId, ValueRef};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable read for the default ingest budget, in bytes.
/// Accepts a plain integer or a `k`/`m`/`g` binary suffix
/// (`EFES_INGEST_BUDGET=512m`). Unparsable values fall back to
/// [`DEFAULT_INGEST_BUDGET`] with a warning on stderr.
pub const INGEST_BUDGET_ENV_VAR: &str = "EFES_INGEST_BUDGET";

/// Default ingest budget when neither the server config nor
/// [`INGEST_BUDGET_ENV_VAR`] says otherwise: 256 MiB.
pub const DEFAULT_INGEST_BUDGET: usize = 256 * 1024 * 1024;

/// Parse a budget string: plain bytes, or a `k`/`m`/`g` binary suffix
/// (case-insensitive).
pub fn parse_budget(raw: &str) -> Option<usize> {
    let raw = raw.trim();
    let (digits, shift) = match raw.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&raw[..i], 10),
        (i, 'm') | (i, 'M') => (&raw[..i], 20),
        (i, 'g') | (i, 'G') => (&raw[..i], 30),
        _ => (raw, 0),
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

/// The budget from [`INGEST_BUDGET_ENV_VAR`], or the default.
pub fn budget_from_env() -> usize {
    match std::env::var(INGEST_BUDGET_ENV_VAR) {
        Ok(raw) => parse_budget(&raw).unwrap_or_else(|| {
            eprintln!(
                "warning: unparsable {INGEST_BUDGET_ENV_VAR}={raw:?}; using default \
                 {DEFAULT_INGEST_BUDGET} bytes"
            );
            DEFAULT_INGEST_BUDGET
        }),
        Err(_) => DEFAULT_INGEST_BUDGET,
    }
}

// --- fingerprint and sizing ---------------------------------------------

/// Two independent 64-bit FNV-1a streams, combined into a `u128`.
/// Collision of both 64-bit halves on different content is vanishingly
/// unlikely, and [`DynamicRegistry::insert`] still deep-compares before
/// deduplicating, so a collision can never alias two scenarios.
struct Fnv128 {
    lo: u64,
    hi: u64,
}

impl Fnv128 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        // Standard FNV offset basis for one stream; a distinct basis
        // (the offset basis XOR a fixed constant, run through one FNV
        // step) decorrelates the second.
        Fnv128 {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0xaf63_bd4c_8601_b7df,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(Self::PRIME);
            self.hi = (self.hi ^ u64::from(b.wrapping_add(0x9e))).wrapping_mul(Self::PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

fn hash_cell(h: &mut Fnv128, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => h.write(&[0]),
        ValueRef::Int(i) => {
            h.write(&[1]);
            h.write(&i.to_le_bytes());
        }
        ValueRef::Float(f) => {
            h.write(&[2]);
            h.write(&f.to_bits().to_le_bytes());
        }
        ValueRef::Text(s) => {
            h.write(&[3]);
            h.write_str(s);
        }
        ValueRef::Bool(b) => h.write(&[4, u8::from(b)]),
    }
}

fn hash_database(h: &mut Fnv128, db: &Database) {
    h.write_str(db.name());
    for (ti, table) in db.schema.tables().iter().enumerate() {
        h.write_str(&table.name);
        for attr in &table.attributes {
            h.write_str(&attr.name);
            h.write_str(&attr.datatype.to_string());
        }
        let data = db.instance.table(TableId(ti));
        h.write(&(data.len() as u64).to_le_bytes());
        for ai in 0..table.arity() {
            for cell in data.column(AttrId(ai)) {
                hash_cell(h, cell);
            }
        }
    }
    // Constraint and correspondence structure ride through their stable
    // JSON form rather than a second hand-rolled traversal.
    h.write_str(
        &serde_json::to_string(&db.constraints).expect("constraint sets always serialize"),
    );
}

/// A 128-bit content fingerprint of a scenario: database names, table
/// and attribute declarations, constraints, correspondences, and every
/// cell value (type-tagged, bit-exact for floats). The scenario's own
/// registration `name` and description are deliberately excluded, so
/// the same data uploaded under two names deduplicates.
pub fn scenario_fingerprint(scenario: &IntegrationScenario) -> u128 {
    let mut h = Fnv128::new();
    h.write(&(scenario.sources.len() as u64).to_le_bytes());
    for db in &scenario.sources {
        hash_database(&mut h, db);
    }
    hash_database(&mut h, &scenario.target);
    h.write_str(
        &serde_json::to_string(&scenario.correspondences)
            .expect("correspondence sets always serialize"),
    );
    h.finish()
}

/// Approximate resident bytes of a scenario's data: what its tables'
/// typed columns hold ([`efes_relational::TableData::heap_bytes`]) —
/// per-variant slots, null bitmaps, each dictionary string once plus
/// its index, owned cells of type-mixed columns. Allocator slack is not
/// counted: the budget is a safety rail, not an allocator.
pub fn approx_scenario_bytes(scenario: &IntegrationScenario) -> usize {
    scenario
        .sources
        .iter()
        .chain(std::iter::once(&scenario.target))
        .flat_map(|db| db.instance.iter_tables())
        .map(|(_, data)| data.heap_bytes())
        .sum()
}

// --- the registry -------------------------------------------------------

struct Entry {
    scenario: Arc<IntegrationScenario>,
    description: String,
    bytes: usize,
    fingerprint: u128,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: BTreeMap<String, Entry>,
    resident: usize,
}

/// Uploaded scenarios layered over the static registry. See the module
/// docs for the eviction and deduplication rules.
pub struct DynamicRegistry {
    statics: ScenarioRegistry,
    budget: usize,
    clock: AtomicU64,
    inner: Mutex<Inner>,
}

/// How one table grew in an extension upload (see
/// [`InsertOutcome::Extended`]). Unchanged tables are listed too, with
/// `old_rows == new_rows`, so consumers can walk the full table set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableGrowth {
    /// Which database: `Some(i)` for source `i`, `None` for the target.
    pub source: Option<usize>,
    /// The table within that database.
    pub table: TableId,
    /// Rows the previous upload had.
    pub old_rows: usize,
    /// Rows the new upload has (`>= old_rows`).
    pub new_rows: usize,
}

/// What [`DynamicRegistry::insert`] did with an accepted upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was stored.
    Inserted {
        /// Resident bytes charged against the budget.
        bytes: usize,
        /// Names of uploaded scenarios evicted to make room, in
        /// eviction order. Their profile caches should be dropped.
        evicted: Vec<String>,
    },
    /// The content fingerprint (and a deep comparison) matched an
    /// existing uploaded entry — nothing was stored.
    Deduplicated {
        /// Name of the existing entry the upload collapsed onto.
        existing: String,
    },
    /// An upload under an existing uploaded name whose every table is a
    /// row-wise extension of the previous content (same schemas,
    /// constraints and correspondences; every column a bit-exact prefix
    /// of the new one). The entry was replaced in place; retained
    /// partial profiles can absorb just the appended rows.
    Extended {
        /// Resident bytes now charged for the replacement entry.
        bytes: usize,
        /// Names of *other* uploaded scenarios evicted to make room.
        evicted: Vec<String>,
        /// Per-table growth, covering every table of every database.
        growth: Vec<TableGrowth>,
    },
}

/// If `new` extends `old` — identical databases, schemas, constraints
/// and correspondences except that tables may have gained trailing rows
/// (every old column a bit-exact prefix of the new one) — the
/// per-table growth list. `None` means `new` is not a pure extension.
fn extension_growth(
    old: &IntegrationScenario,
    new: &IntegrationScenario,
) -> Option<Vec<TableGrowth>> {
    if old.sources.len() != new.sources.len() || old.correspondences != new.correspondences {
        return None;
    }
    let mut growth = Vec::new();
    let pairs = old
        .sources
        .iter()
        .zip(&new.sources)
        .enumerate()
        .map(|(i, (a, b))| (Some(i), a, b))
        .chain(std::iter::once((None, &old.target, &new.target)));
    for (source, old_db, new_db) in pairs {
        if old_db.name() != new_db.name()
            || old_db.schema != new_db.schema
            || old_db.constraints != new_db.constraints
        {
            return None;
        }
        for ti in 0..old_db.schema.tables().len() {
            let table = TableId(ti);
            let old_data = old_db.instance.table(table);
            let new_data = new_db.instance.table(table);
            let (old_rows, new_rows) = (old_data.len(), new_data.len());
            if old_rows > new_rows {
                return None;
            }
            let arity = old_db.schema.tables()[ti].arity();
            for attr in (0..arity).map(AttrId) {
                let old_col = old_data.column_store(attr).unwrap_or(Column::empty());
                let new_col = new_data.column_store(attr).unwrap_or(Column::empty());
                if !old_col.is_prefix_of(new_col) {
                    return None;
                }
            }
            growth.push(TableGrowth {
                source,
                table,
                old_rows,
                new_rows,
            });
        }
    }
    Some(growth)
}

/// Why [`DynamicRegistry::insert`] rejected an upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertError {
    /// The name is already registered (statically, or by a different
    /// upload) with different content. Maps to `409 Conflict`.
    NameTaken(String),
    /// The scenario alone exceeds the whole budget — no amount of
    /// eviction can make it fit. Maps to `413 Payload Too Large`.
    OverBudget {
        /// Approximate bytes the scenario needs.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The name is empty, longer than 128 bytes, or contains characters
    /// outside `[A-Za-z0-9._-]`. Maps to `400 Bad Request`.
    InvalidName(String),
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::NameTaken(name) => {
                write!(f, "scenario name `{name}` is already registered")
            }
            InsertError::OverBudget { needed, budget } => write!(
                f,
                "scenario needs ~{needed} resident bytes, over the ingest budget of {budget}"
            ),
            InsertError::InvalidName(name) => write!(
                f,
                "invalid scenario name {name:?}: use 1-128 characters from [A-Za-z0-9._-]"
            ),
        }
    }
}

/// Why [`DynamicRegistry::remove`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoveError {
    /// No scenario of that name exists. Maps to `404 Not Found`.
    NotFound,
    /// The name belongs to a compiled-in scenario, which cannot be
    /// deleted. Maps to `403 Forbidden`.
    Static,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

impl DynamicRegistry {
    /// Wrap `statics` with an upload layer budgeted at `budget` bytes
    /// (`None` → [`INGEST_BUDGET_ENV_VAR`] or the default).
    pub fn new(statics: ScenarioRegistry, budget: Option<usize>) -> Self {
        DynamicRegistry {
            statics,
            budget: budget.unwrap_or_else(budget_from_env),
            clock: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured budget, in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Approximate bytes currently charged by uploaded scenarios.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().unwrap().resident
    }

    /// Number of uploaded (dynamic) scenarios currently resident.
    pub fn uploaded_len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Number of compiled-in scenarios.
    pub fn static_len(&self) -> usize {
        self.statics.len()
    }

    /// `true` iff `name` is a compiled-in scenario (never evicted, never
    /// extended in place).
    pub fn is_static(&self, name: &str) -> bool {
        self.statics.contains(name)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Register an already-assembled scenario under `name`.
    ///
    /// Content-identical uploads (matching fingerprint *and* deep
    /// equality) deduplicate onto the existing entry regardless of the
    /// name they were sent under; otherwise name clashes are conflicts.
    /// Inserting may evict least-recently-used uploaded scenarios to
    /// fit the budget — never static ones.
    pub fn insert(
        &self,
        name: &str,
        description: &str,
        scenario: IntegrationScenario,
    ) -> Result<InsertOutcome, InsertError> {
        if !valid_name(name) {
            return Err(InsertError::InvalidName(name.to_owned()));
        }
        let fingerprint = scenario_fingerprint(&scenario);
        let bytes = approx_scenario_bytes(&scenario);
        let now = self.tick();
        let mut inner = self.inner.lock().unwrap();

        // Fingerprint dedup first: re-sending the same content is a
        // no-op even under its own name, so retried uploads are cheap.
        let dup = inner.entries.iter_mut().find(|(_, e)| {
            e.fingerprint == fingerprint
                && e.scenario.sources == scenario.sources
                && e.scenario.target == scenario.target
                && e.scenario.correspondences == scenario.correspondences
        });
        if let Some((existing, entry)) = dup {
            entry.last_used = now;
            return Ok(InsertOutcome::Deduplicated {
                existing: existing.clone(),
            });
        }
        if self.statics.contains(name) {
            return Err(InsertError::NameTaken(name.to_owned()));
        }
        if bytes > self.budget {
            return Err(InsertError::OverBudget {
                needed: bytes,
                budget: self.budget,
            });
        }
        // Re-upload under an existing uploaded name: accept it as an
        // in-place replacement iff the new content is a pure row-wise
        // extension of the old; anything else is a conflict.
        let growth = match inner.entries.get(name) {
            Some(old) => match extension_growth(&old.scenario, &scenario) {
                Some(growth) => {
                    let old = inner.entries.remove(name).expect("entry just found");
                    inner.resident -= old.bytes;
                    Some(growth)
                }
                None => return Err(InsertError::NameTaken(name.to_owned())),
            },
            None => None,
        };
        let mut evicted = Vec::new();
        while inner.resident + bytes > self.budget {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(n, _)| n.clone())
                .expect("resident bytes imply at least one uploaded entry");
            let gone = inner.entries.remove(&lru).expect("lru entry exists");
            inner.resident -= gone.bytes;
            evicted.push(lru);
        }
        inner.resident += bytes;
        inner.entries.insert(
            name.to_owned(),
            Entry {
                scenario: Arc::new(scenario),
                description: description.to_owned(),
                bytes,
                fingerprint,
                last_used: now,
            },
        );
        Ok(match growth {
            Some(growth) => InsertOutcome::Extended {
                bytes,
                evicted,
                growth,
            },
            None => InsertOutcome::Inserted { bytes, evicted },
        })
    }

    /// Delete the uploaded scenario `name`, returning the bytes freed.
    pub fn remove(&self, name: &str) -> Result<usize, RemoveError> {
        if self.statics.contains(name) {
            return Err(RemoveError::Static);
        }
        let mut inner = self.inner.lock().unwrap();
        match inner.entries.remove(name) {
            Some(entry) => {
                inner.resident -= entry.bytes;
                Ok(entry.bytes)
            }
            None => Err(RemoveError::NotFound),
        }
    }
}

impl ScenarioProvider for DynamicRegistry {
    fn get(&self, name: &str) -> Option<Arc<IntegrationScenario>> {
        if let Some(s) = self.statics.get(name) {
            return Some(s);
        }
        let now = self.tick();
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.entries.get_mut(name)?;
        entry.last_used = now;
        Some(Arc::clone(&entry.scenario))
    }

    fn contains(&self, name: &str) -> bool {
        self.statics.contains(name) || self.inner.lock().unwrap().entries.contains_key(name)
    }

    fn infos(&self) -> Vec<ScenarioInfo> {
        let mut infos = self.statics.infos();
        {
            let inner = self.inner.lock().unwrap();
            infos.extend(inner.entries.iter().map(|(name, e)| {
                ScenarioInfo::of_uploaded(name, &e.description, e.bytes as u64)
            }));
        }
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }
}

impl std::fmt::Debug for DynamicRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("DynamicRegistry")
            .field("statics", &self.statics)
            .field("uploaded", &inner.entries.keys().collect::<Vec<_>>())
            .field("resident", &inner.resident)
            .field("budget", &self.budget)
            .finish()
    }
}

impl From<InsertError> for IngestError {
    fn from(e: InsertError) -> Self {
        IngestError::new(e.to_string())
    }
}
