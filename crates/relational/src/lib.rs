//! # efes-relational
//!
//! The relational substrate underneath the EFES effort-estimation framework
//! (Kruse, Papotti, Naumann: *Estimating Data Integration and Cleaning
//! Effort*, EDBT 2015).
//!
//! The original prototype stored its case-study datasets in PostgreSQL and
//! analysed them with SQL queries. This crate replaces that substrate with a
//! small, self-contained in-memory relational engine exposing exactly what
//! EFES observes about a database:
//!
//! * typed [`Value`]s and [`DataType`]s with cast semantics,
//! * [`Schema`]s made of [`Table`]s and [`Attribute`]s,
//! * declarative [`Constraint`]s (primary key, foreign key, unique,
//!   not-null),
//! * [`Instance`]s (the data) with full constraint validation,
//! * typed, dictionary-encoded [`Column`]s — the only storage of every
//!   table's data,
//! * [`Database`] = schema + constraints + instance,
//! * the [`IntegrationScenario`] model: source databases, a target database
//!   and [`Correspondence`]s between their schema elements,
//! * a dependency-free CSV reader/writer for loading external datasets.
//!
//! Everything is deterministic and order-stable so that the reproduction
//! harness produces identical numbers on every run.

#![warn(missing_docs)]

pub mod builder;
pub mod column;
pub mod constraint;
pub mod csv;
pub mod database;
pub mod datatype;
pub mod error;
pub mod instance;
pub mod scenario;
pub mod schema;
pub mod value;

pub use builder::{DatabaseBuilder, TableBuilder};
pub use constraint::{Constraint, ConstraintKind, ConstraintSet};
pub use column::{Column, ColumnIter, DistinctCodes, TextColumn, ValueRef};
pub use database::Database;
pub use datatype::DataType;
pub use error::{Error, Result};
pub use instance::{Instance, Row, TableData};
pub use scenario::{
    AttrRef, Correspondence, CorrespondenceBuilder, CorrespondenceSet, IntegrationScenario,
    SourceId,
};
pub use schema::{AttrId, Attribute, Schema, Table, TableId};
pub use value::Value;
