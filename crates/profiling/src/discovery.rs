//! Schema reverse engineering: discover constraints that hold in the data.
//!
//! Paper §3.1: *"Oftentimes constraints are not enforced at the schema
//! level but rather at the application level [...] techniques for schema
//! reverse engineering and data profiling can reconstruct missing schema
//! descriptions and constraints from the data."* This module provides that
//! completeness step: given a [`Database`], it finds not-null attributes,
//! unique columns / composite key candidates, unary inclusion dependencies
//! (foreign-key candidates) and single-LHS functional dependencies.

use efes_exec::{parallel_map, ExecutionMode};
use efes_relational::column::NULL_CODE;
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{Column, Constraint, ConstraintKind, ConstraintSet, Database, DistinctCodes};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A unary inclusion dependency `from ⊆ to`: every non-null value of the
/// `from` column occurs in the `to` column. The classical precondition for
/// proposing a foreign key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusionDependency {
    /// Dependent (referencing) side.
    pub from: (TableId, AttrId),
    /// Referenced side.
    pub to: (TableId, AttrId),
}

/// A single-LHS functional dependency `lhs → rhs` within one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalDependency {
    /// The table both attributes live in.
    pub table: TableId,
    /// Determinant attribute.
    pub lhs: AttrId,
    /// Dependent attribute.
    pub rhs: AttrId,
}

/// Knobs for constraint discovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiscoveryOptions {
    /// Discover NOT NULL for columns without observed nulls.
    pub not_null: bool,
    /// Discover single-column UNIQUE constraints.
    pub unique: bool,
    /// Discover composite (two-column) key candidates when no single
    /// column is unique.
    pub composite_keys: bool,
    /// Discover unary inclusion dependencies (FK candidates).
    pub inclusion_dependencies: bool,
    /// Discover single-LHS functional dependencies.
    pub functional_dependencies: bool,
    /// Minimum rows a table must have before constraints are proposed —
    /// tiny tables make every property hold vacuously.
    pub min_rows: usize,
}

impl Default for DiscoveryOptions {
    fn default() -> Self {
        DiscoveryOptions {
            not_null: true,
            unique: true,
            composite_keys: false,
            inclusion_dependencies: true,
            functional_dependencies: false,
            min_rows: 3,
        }
    }
}

/// Everything discovery found.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DiscoveryResult {
    /// Constraints expressible in the relational model (not-null, unique,
    /// FK from INDs that point at a unique column).
    pub constraints: Vec<Constraint>,
    /// All unary INDs, including those not promoted to FKs.
    pub inclusion_dependencies: Vec<InclusionDependency>,
    /// All single-LHS FDs (when enabled).
    pub functional_dependencies: Vec<FunctionalDependency>,
}

impl DiscoveryResult {
    /// Merge the discovered constraints into an existing set, skipping any
    /// that duplicate what is already declared.
    pub fn merge_into(&self, declared: &mut ConstraintSet) {
        for c in &self.constraints {
            let dup = match &c.kind {
                ConstraintKind::NotNull { table, attr } => declared.is_not_null(*table, *attr),
                ConstraintKind::Unique { table, attrs } if attrs.len() == 1 => {
                    declared.is_unique(*table, attrs[0])
                }
                ConstraintKind::ForeignKey {
                    from_table,
                    from_attrs,
                    to_table,
                    to_attrs,
                } => declared.iter().any(|d| {
                    matches!(&d.kind, ConstraintKind::ForeignKey {
                        from_table: ft, from_attrs: fa, to_table: tt, to_attrs: ta,
                    } if ft == from_table && fa == from_attrs && tt == to_table && ta == to_attrs)
                }),
                _ => false,
            };
            if !dup {
                declared.push(c.clone());
            }
        }
    }
}

/// Run constraint discovery over a database.
pub fn discover_constraints(db: &Database, opts: &DiscoveryOptions) -> DiscoveryResult {
    discover_constraints_with(db, opts, ExecutionMode::from_env())
}

/// Like [`discover_constraints`], under an explicit [`ExecutionMode`]:
/// the per-column digests (null counts, each column's
/// [`Column::distinct_codes`]) dominate the cost and are independent per
/// column, so they fan out over worker threads.
/// The discovered constraint set is identical in either mode.
pub fn discover_constraints_with(
    db: &Database,
    opts: &DiscoveryOptions,
    mode: ExecutionMode,
) -> DiscoveryResult {
    let mut out = DiscoveryResult::default();

    // Per-column digests reused by all detectors: each column's one
    // first-seen numbering of its values.
    struct ColumnDigest<'a> {
        table: TableId,
        attr: AttrId,
        rows: usize,
        nulls: usize,
        distinct: DistinctCodes<'a>,
        all_distinct: bool,
    }
    let columns: Vec<(TableId, AttrId)> = db
        .instance
        .iter_tables()
        .flat_map(|(tid, _)| (0..db.schema.table(tid).arity()).map(move |ai| (tid, AttrId(ai))))
        .collect();
    let digests: Vec<ColumnDigest<'_>> = parallel_map(mode, columns, |(tid, attr)| {
        let data = db.instance.table(tid);
        let col = data.column_store(attr).unwrap_or(Column::empty());
        let distinct = col.distinct_codes();
        let nulls = col.null_count();
        ColumnDigest {
            table: tid,
            attr,
            rows: data.len(),
            nulls,
            all_distinct: distinct.len() == col.len() - nulls,
            distinct,
        }
    });
    let digest = |table: TableId, attr: usize| {
        digests
            .iter()
            .find(|d| d.table == table && d.attr == AttrId(attr))
            .expect("every attribute has a digest")
    };

    if opts.not_null {
        for d in &digests {
            if d.rows >= opts.min_rows && d.nulls == 0 && !db.constraints.is_not_null(d.table, d.attr)
            {
                out.constraints.push(Constraint::new(
                    format!(
                        "disc_{}_nn",
                        db.schema.qualified(d.table, d.attr).replace('.', "_")
                    ),
                    ConstraintKind::NotNull {
                        table: d.table,
                        attr: d.attr,
                    },
                ));
            }
        }
    }

    if opts.unique {
        for d in &digests {
            if d.rows >= opts.min_rows
                && d.all_distinct
                && d.nulls == 0
                && !db.constraints.is_unique(d.table, d.attr)
            {
                out.constraints.push(Constraint::new(
                    format!(
                        "disc_{}_uq",
                        db.schema.qualified(d.table, d.attr).replace('.', "_")
                    ),
                    ConstraintKind::Unique {
                        table: d.table,
                        attrs: vec![d.attr],
                    },
                ));
            }
        }
    }

    if opts.composite_keys {
        for (tid, data) in db.instance.iter_tables() {
            if data.len() < opts.min_rows {
                continue;
            }
            let arity = db.schema.table(tid).arity();
            let single_unique_exists = digests
                .iter()
                .any(|d| d.table == tid && d.all_distinct && d.nulls == 0 && d.rows >= opts.min_rows);
            if single_unique_exists {
                continue;
            }
            'pairs: for a in 0..arity {
                for b in (a + 1)..arity {
                    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(data.len());
                    let mut ok = true;
                    let codes_a = digest(tid, a).distinct.codes().iter().copied();
                    let codes_b = digest(tid, b).distinct.codes().iter().copied();
                    for key in codes_a.zip(codes_b) {
                        if key.0 == NULL_CODE || key.1 == NULL_CODE || !seen.insert(key) {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.constraints.push(Constraint::new(
                            format!("disc_{}_composite_uq", db.schema.table(tid).name),
                            ConstraintKind::Unique {
                                table: tid,
                                attrs: vec![AttrId(a), AttrId(b)],
                            },
                        ));
                        break 'pairs; // one candidate per table suffices
                    }
                }
            }
        }
    }

    if opts.inclusion_dependencies {
        // Group distinct sets by datatype to skip hopeless comparisons.
        for from in &digests {
            if from.rows < opts.min_rows || from.distinct.is_empty() {
                continue;
            }
            for to in &digests {
                if (from.table, from.attr) == (to.table, to.attr)
                    || to.distinct.is_empty()
                    || from.distinct.len() > to.distinct.len()
                {
                    continue;
                }
                let from_type = db.schema.table(from.table).attribute(from.attr).datatype;
                let to_type = db.schema.table(to.table).attribute(to.attr).datatype;
                if from_type != to_type {
                    continue;
                }
                let contained = (0..from.distinct.len() as u32)
                    .all(|code| to.distinct.code_of(from.distinct.value(code)).is_some());
                if contained {
                    out.inclusion_dependencies.push(InclusionDependency {
                        from: (from.table, from.attr),
                        to: (to.table, to.attr),
                    });
                    // Promote to an FK candidate when the referenced column
                    // is key-like (all distinct, no nulls) and the IND is
                    // not a trivial self-containment within one table.
                    if to.all_distinct && to.nulls == 0 && from.table != to.table {
                        out.constraints.push(Constraint::new(
                            format!(
                                "disc_{}_to_{}_fk",
                                db.schema.qualified(from.table, from.attr).replace('.', "_"),
                                db.schema.qualified(to.table, to.attr).replace('.', "_")
                            ),
                            ConstraintKind::ForeignKey {
                                from_table: from.table,
                                from_attrs: vec![from.attr],
                                to_table: to.table,
                                to_attrs: vec![to.attr],
                            },
                        ));
                    }
                }
            }
        }
    }

    if opts.functional_dependencies {
        for (tid, data) in db.instance.iter_tables() {
            if data.len() < opts.min_rows {
                continue;
            }
            let arity = db.schema.table(tid).arity();
            for lhs in 0..arity {
                for rhs in 0..arity {
                    if lhs == rhs {
                        continue;
                    }
                    // The rhs code each lhs code maps to; NULL on the
                    // right is a value like any other.
                    let (l, r) = (digest(tid, lhs), digest(tid, rhs));
                    let mut mapping: Vec<Option<u32>> = vec![None; l.distinct.len()];
                    let mut holds = true;
                    for (&lc, &rc) in l.distinct.codes().iter().zip(r.distinct.codes()) {
                        if lc == NULL_CODE {
                            continue;
                        }
                        match mapping[lc as usize] {
                            Some(prev) if prev != rc => {
                                holds = false;
                                break;
                            }
                            Some(_) => {}
                            None => mapping[lc as usize] = Some(rc),
                        }
                    }
                    // Skip trivial FDs from unique columns: everything is
                    // determined by a key; reporting those adds noise.
                    if holds && !l.all_distinct {
                        out.functional_dependencies.push(FunctionalDependency {
                            table: tid,
                            lhs: AttrId(lhs),
                            rhs: AttrId(rhs),
                        });
                    }
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use efes_relational::{DataType, DatabaseBuilder, Value};

    fn db() -> Database {
        DatabaseBuilder::new("d")
            .table("artists", |t| {
                t.attr("id", DataType::Integer).attr("name", DataType::Text)
            })
            .table("albums", |t| {
                t.attr("id", DataType::Integer)
                    .attr("artist", DataType::Integer)
                    .attr("genre", DataType::Text)
            })
            .rows(
                "artists",
                vec![
                    vec![1.into(), "Skynyrd".into()],
                    vec![2.into(), "Eminem".into()],
                    vec![3.into(), "Adele".into()],
                ],
            )
            .rows(
                "albums",
                vec![
                    vec![10.into(), 1.into(), "rock".into()],
                    vec![11.into(), 1.into(), "rock".into()],
                    vec![12.into(), 2.into(), "rap".into()],
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn discovers_not_null_and_unique() {
        let r = discover_constraints(&db(), &DiscoveryOptions::default());
        let kinds: Vec<String> = r.constraints.iter().map(|c| c.name.clone()).collect();
        assert!(kinds.iter().any(|n| n == "disc_artists_id_nn"));
        assert!(kinds.iter().any(|n| n == "disc_artists_id_uq"));
        assert!(kinds.iter().any(|n| n == "disc_albums_genre_nn"));
        // genre repeats, so no unique constraint on it
        assert!(!kinds.iter().any(|n| n == "disc_albums_genre_uq"));
    }

    #[test]
    fn discovers_fk_via_inclusion_dependency() {
        let r = discover_constraints(&db(), &DiscoveryOptions::default());
        assert!(r
            .constraints
            .iter()
            .any(|c| c.name == "disc_albums_artist_to_artists_id_fk"));
        assert!(r
            .inclusion_dependencies
            .iter()
            .any(|ind| ind.from == (TableId(1), AttrId(1)) && ind.to == (TableId(0), AttrId(0))));
    }

    #[test]
    fn small_tables_are_skipped() {
        let tiny = DatabaseBuilder::new("tiny")
            .table("t", |t| t.attr("a", DataType::Integer))
            .rows("t", vec![vec![1.into()]])
            .build()
            .unwrap();
        let r = discover_constraints(&tiny, &DiscoveryOptions::default());
        assert!(r.constraints.is_empty());
    }

    #[test]
    fn merge_skips_already_declared() {
        let mut db = db();
        let r = discover_constraints(&db, &DiscoveryOptions::default());
        let before = r.constraints.len();
        r.merge_into(&mut db.constraints);
        let declared = db.constraints.len();
        // Re-running discovery now adds nothing new.
        let r2 = discover_constraints(&db, &DiscoveryOptions::default());
        let mut cs = db.constraints.clone();
        r2.merge_into(&mut cs);
        assert_eq!(cs.len(), declared);
        assert!(before > 0);
    }

    #[test]
    fn functional_dependencies_found_when_enabled() {
        let opts = DiscoveryOptions {
            functional_dependencies: true,
            ..DiscoveryOptions::default()
        };
        let r = discover_constraints(&db(), &opts);
        // artist -> genre holds in the sample (1→rock, 2→rap).
        assert!(r
            .functional_dependencies
            .iter()
            .any(|fd| fd.table == TableId(1) && fd.lhs == AttrId(1) && fd.rhs == AttrId(2)));
    }

    #[test]
    fn functional_dependencies_skip_columns_distinct_apart_from_nulls() {
        // `a`'s non-null values are distinct, so it determines every
        // other column trivially and is skipped, NULL row and all.
        let db = DatabaseBuilder::new("n")
            .table("t", |t| {
                t.attr("a", DataType::Integer).attr("b", DataType::Text)
            })
            .rows(
                "t",
                vec![
                    vec![1.into(), "x".into()],
                    vec![2.into(), "x".into()],
                    vec![Value::Null, "y".into()],
                    vec![3.into(), "z".into()],
                ],
            )
            .build()
            .unwrap();
        let opts = DiscoveryOptions {
            functional_dependencies: true,
            ..DiscoveryOptions::default()
        };
        let r = discover_constraints(&db, &opts);
        let lhs: Vec<AttrId> = r.functional_dependencies.iter().map(|fd| fd.lhs).collect();
        assert!(!lhs.contains(&AttrId(0)), "{lhs:?}");
    }

    #[test]
    fn composite_keys_found_when_no_single_key() {
        let db = DatabaseBuilder::new("c")
            .table("credits", |t| {
                t.attr("list", DataType::Integer)
                    .attr("position", DataType::Integer)
            })
            .rows(
                "credits",
                vec![
                    vec![1.into(), 1.into()],
                    vec![1.into(), 2.into()],
                    vec![2.into(), 1.into()],
                ],
            )
            .build()
            .unwrap();
        let opts = DiscoveryOptions {
            composite_keys: true,
            ..DiscoveryOptions::default()
        };
        let r = discover_constraints(&db, &opts);
        assert!(r
            .constraints
            .iter()
            .any(|c| matches!(&c.kind, ConstraintKind::Unique { attrs, .. } if attrs.len() == 2)));
    }
}
