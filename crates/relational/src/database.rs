//! A database bundles a schema, its constraints and an instance.

use crate::constraint::ConstraintSet;
use crate::error::Result;
use crate::instance::{Instance, Row, Violation};
use crate::schema::Schema;
use serde::{Deserialize, Serialize};

/// A complete database: schema + constraints + instance.
///
/// This is the unit the paper calls a "source database" or "the target
/// database" (§3.1): *"Each source database consists of a relational schema,
/// an instance of this schema, and a set of constraints, which must be
/// satisfied by that instance."*
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Database {
    /// The relational schema.
    pub schema: Schema,
    /// Declared (or profiled / reverse-engineered) constraints.
    pub constraints: ConstraintSet,
    /// The data.
    pub instance: Instance,
}

impl Database {
    /// A database with an empty instance.
    pub fn new(schema: Schema, constraints: ConstraintSet) -> Self {
        let instance = Instance::empty(&schema);
        Database {
            schema,
            constraints,
            instance,
        }
    }

    /// The database name (its schema's name).
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Insert a row into the named table, with type checking.
    pub fn insert_by_name(&mut self, table: &str, row: Row) -> Result<()> {
        let tid = self
            .schema
            .table_id(table)
            .ok_or_else(|| crate::error::Error::UnknownTable(table.to_owned()))?;
        self.instance.insert(&self.schema, tid, row)
    }

    /// Replace the named table's data with pre-built typed columns (one
    /// per attribute, in declaration order), with arity and type
    /// checking. The columns become the table's storage as they are —
    /// the bulk-load twin of [`Database::insert_by_name`].
    pub fn load_columns_by_name(
        &mut self,
        table: &str,
        columns: Vec<crate::column::Column>,
    ) -> Result<()> {
        let tid = self
            .schema
            .table_id(table)
            .ok_or_else(|| crate::error::Error::UnknownTable(table.to_owned()))?;
        self.instance.load_columns(&self.schema, tid, columns)
    }

    /// Validate the instance against the declared constraints.
    pub fn validate(&self) -> Vec<Violation> {
        self.instance.validate(&self.schema, &self.constraints)
    }

    /// Assert validity; handy for scenario generators which must produce
    /// locally-consistent sources (paper §3.1 assumes "every instance is
    /// valid wrt. its schema").
    pub fn assert_valid(&self) {
        let v = self.validate();
        assert!(
            v.is_empty(),
            "database `{}` violates its own constraints: {} violations, first: {}",
            self.name(),
            v.len(),
            v[0].detail
        );
    }
}
