//! Conversion of relational databases into CSGs.
//!
//! Paper §4.1: *"for each of its relations, a corresponding table node is
//! created [...] for each attribute, an attribute node is created and
//! connected to its respective table node via a relationship. While these
//! attribute nodes hold the set of distinct values of the original
//! relational attribute, the relationships link tuples and their
//! respective attribute values. With this proceeding, any relational
//! database can be turned into a CSG without loss of information."*
//!
//! A typed column already is such an attribute node: its first-seen
//! distinct values plus one code per row
//! ([`Column::distinct_codes`](efes_relational::Column::distinct_codes)).
//! Conversion therefore stores no value. An attribute node's elements
//! are its column's codes, a table node's elements its rows, and each
//! tuple → value relationship is the `(row, code)` list of the column's
//! non-null cells. Only a foreign key's equality links are computed:
//! each referencing value is looked up in the referenced column's
//! index.

use crate::cardinality::Cardinality;
use crate::graph::{Csg, NodeId, NodeKind, RelId, RelKind};
use crate::instance::CsgInstance;
use efes_exec::{Cancelled, RunContext};
use efes_relational::column::NULL_CODE;
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{Column, ConstraintKind, Database, DistinctCodes};
use std::collections::HashMap;

/// The result of converting a database: the graph, its instance, and the
/// mapping from relational identifiers back to graph identifiers (needed
/// to anchor correspondences during relationship matching).
#[derive(Debug, Clone)]
pub struct CsgConversion {
    /// The cardinality-constrained schema graph.
    pub csg: Csg,
    /// Its instance: populated from the database's data by
    /// [`database_to_csg`], empty from [`schema_to_csg`].
    pub instance: CsgInstance,
    /// Table node per relational table.
    pub table_nodes: Vec<NodeId>,
    /// Attribute node per relational attribute, `[table][attr]`.
    pub attr_nodes: Vec<Vec<NodeId>>,
    /// The tuple→value relationship per relational attribute,
    /// `[table][attr]`.
    pub attr_rels: Vec<Vec<RelId>>,
    /// The equality relationships created for foreign keys, with the
    /// constraint name each one came from.
    pub fk_rels: Vec<(String, RelId)>,
}

impl CsgConversion {
    /// The attribute node for a relational attribute.
    pub fn attr_node(&self, table: TableId, attr: AttrId) -> NodeId {
        self.attr_nodes[table.0][attr.0]
    }

    /// The table node for a relational table.
    pub fn table_node(&self, table: TableId) -> NodeId {
        self.table_nodes[table.0]
    }

    /// The tuple→value relationship for a relational attribute.
    pub fn attr_rel(&self, table: TableId, attr: AttrId) -> RelId {
        self.attr_rels[table.0][attr.0]
    }
}

/// Convert a database (schema + constraints + instance) into a CSG with
/// its instance: [`schema_to_csg`] followed by the instance fill.
pub fn database_to_csg(db: &Database) -> CsgConversion {
    database_to_csg_ctx(db, &RunContext::unbounded()).expect("unbounded context never cancels")
}

/// Like [`database_to_csg`], but cancellable: the instance fill — the
/// only part that scales with row count — ticks `run`'s checkpoint
/// before each column and each foreign key, counting their rows and
/// values, so conversion of a very large database aborts at the next
/// column when `run` fires.
pub fn database_to_csg_ctx(db: &Database, run: &RunContext) -> Result<CsgConversion, Cancelled> {
    let mut conv = schema_to_csg(db);
    conv.instance = fill_instance(&conv, db, run)?;
    Ok(conv)
}

/// The schema half of [`database_to_csg`]: the graph, its prescribed
/// cardinalities and the identifier maps, over an empty instance. Cost
/// is independent of the row count. Conflict detection and repair
/// planning read only the *target's* graph, so the structure module
/// converts the target this way and never touches its rows.
///
/// Prescribed cardinalities encode the constraints and the two relational
/// conformity rules (§4.1):
///
/// | reading | cardinality | encodes |
/// |---|---|---|
/// | tuple → value | `1` if NOT NULL, else `0..1` | not-null; "each tuple has at most one value per attribute" |
/// | value → tuple | `1` if UNIQUE, else `1..*` | unique; "each attribute value must be contained in a tuple" |
/// | FK value → PK value (equality) | `1` | foreign key (every fk value equals exactly one referenced value) |
/// | PK value → FK value (equality) | `0..1` | equality over distinct values is partial-injective |
pub fn schema_to_csg(db: &Database) -> CsgConversion {
    let mut csg = Csg::new(db.schema.name.clone());
    let mut table_nodes = Vec::new();
    let mut attr_nodes: Vec<Vec<NodeId>> = Vec::new();
    let mut attr_rels: Vec<Vec<RelId>> = Vec::new();

    for (ti, table) in db.schema.tables().iter().enumerate() {
        let tid = TableId(ti);
        let tnode = csg.add_node(table.name.clone(), NodeKind::Table);
        table_nodes.push(tnode);
        let mut anodes = Vec::new();
        let mut arels = Vec::new();
        for (ai, attr) in table.attributes.iter().enumerate() {
            let aid = AttrId(ai);
            // Qualified names keep node names unique across tables (the
            // paper's Figure 4 uses primes: name, name', name'').
            let anode = csg.add_node(format!("{}.{}", table.name, attr.name), NodeKind::Attribute);
            let fwd = if db.constraints.is_not_null(tid, aid) {
                Cardinality::one()
            } else {
                Cardinality::zero_or_one()
            };
            let bwd = if db.constraints.is_unique(tid, aid) {
                Cardinality::one()
            } else {
                Cardinality::one_or_more()
            };
            let rel = csg.add_relationship(tnode, anode, RelKind::Attribute, fwd, bwd);
            anodes.push(anode);
            arels.push(rel);
        }
        attr_nodes.push(anodes);
        attr_rels.push(arels);
    }

    // Foreign keys become equality relationships between attribute nodes.
    let mut fk_rels = Vec::new();
    for (name, (ft, fa), (tt, ta)) in foreign_key_pairs(db) {
        let rel = csg.add_relationship(
            attr_nodes[ft.0][fa.0],
            attr_nodes[tt.0][ta.0],
            RelKind::Equality,
            Cardinality::one(),
            Cardinality::zero_or_one(),
        );
        fk_rels.push((name.to_owned(), rel));
    }

    let instance = CsgInstance::empty(&csg);
    CsgConversion {
        csg,
        instance,
        table_nodes,
        attr_nodes,
        attr_rels,
        fk_rels,
    }
}

/// Every foreign key's attribute pairs, `(constraint name, (referencing
/// table, attribute), (referenced table, attribute))`, in constraint
/// order: one per equality relationship of the converted graph.
fn foreign_key_pairs(
    db: &Database,
) -> impl Iterator<Item = (&str, (TableId, AttrId), (TableId, AttrId))> {
    db.constraints.iter().flat_map(|c| {
        let pairs: Vec<_> = match &c.kind {
            ConstraintKind::ForeignKey {
                from_table,
                from_attrs,
                to_table,
                to_attrs,
            } => from_attrs
                .iter()
                .zip(to_attrs)
                .map(|(fa, ta)| (c.name.as_str(), (*from_table, *fa), (*to_table, *ta)))
                .collect(),
            _ => Vec::new(),
        };
        pairs
    })
}

/// The instance half of [`database_to_csg`]: `db`'s rows as an instance
/// of `conv`'s graph, read off each column's first-seen distinct codes
/// ([`Column::distinct_codes`]).
///
/// A table node gets one element per row. An attribute node gets one
/// element per distinct non-null value, numbered in first-seen row
/// order, and its relationship one `(row, code)` link per non-null cell
/// in row order. A foreign key's equality relationship links each value
/// of the referencing attribute, in code order, to the equal value of
/// the referenced one, if there is one. This is the instance a
/// row-by-row walk builds, without copying a value out of a column.
fn fill_instance(
    conv: &CsgConversion,
    db: &Database,
    run: &RunContext,
) -> Result<CsgInstance, Cancelled> {
    let ck = run.checkpoint();
    let mut instance = CsgInstance::empty(&conv.csg);
    // One (referencing, referenced) attribute pair per entry of
    // `conv.fk_rels`, in the same order.
    let fk_pairs: Vec<_> = foreign_key_pairs(db)
        .map(|(_, from, to)| (from, to))
        .collect();
    // Columns a foreign key joins keep their codes until the equality
    // links are built.
    let mut joined: HashMap<(TableId, AttrId), DistinctCodes<'_>> = HashMap::new();
    for (ti, data) in db.instance.iter_tables() {
        instance.set_element_count(conv.table_nodes[ti.0], data.len());
        for (ai, (&anode, &rel)) in conv.attr_nodes[ti.0]
            .iter()
            .zip(&conv.attr_rels[ti.0])
            .enumerate()
        {
            let column = data.column_store(AttrId(ai)).unwrap_or(Column::empty());
            ck.tick_n(column.len() as u64 + 1)?;
            let distinct = column.distinct_codes();
            let mut links = Vec::with_capacity(column.len() - column.null_count());
            links.extend(
                (0u32..)
                    .zip(distinct.codes())
                    .filter(|&(_, &code)| code != NULL_CODE)
                    .map(|(row, &code)| (row, code)),
            );
            instance.set_element_count(anode, distinct.len());
            instance.set_links(rel, links);
            let key = (ti, AttrId(ai));
            if fk_pairs.iter().any(|&(from, to)| from == key || to == key) {
                joined.insert(key, distinct);
            }
        }
    }
    // Equality links: join each referencing value to the referenced
    // attribute's equal value.
    for (&(from, to), &(_, rel)) in fk_pairs.iter().zip(&conv.fk_rels) {
        let (Some(from), Some(to)) = (joined.get(&from), joined.get(&to)) else {
            continue;
        };
        ck.tick_n(from.len() as u64 + 1)?;
        let links = (0..from.len() as u32)
            .filter_map(|code| to.code_of(from.value(code)).map(|t| (code, t)))
            .collect();
        instance.set_links(rel, links);
    }
    Ok(instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RelRef;
    use efes_relational::{DataType, DatabaseBuilder, Value, ValueRef};

    /// The target schema of Figure 2a: records(id PK, title NN, artist NN,
    /// genre NN) and tracks(record FK NN, title NN, duration).
    pub(crate) fn target_db() -> Database {
        DatabaseBuilder::new("target")
            .table("records", |t| {
                t.attr("id", DataType::Integer)
                    .attr("title", DataType::Text)
                    .attr("artist", DataType::Text)
                    .attr("genre", DataType::Text)
                    .primary_key(&["id"])
                    .not_null("title")
                    .not_null("artist")
                    .not_null("genre")
            })
            .table("tracks", |t| {
                t.attr("record", DataType::Integer)
                    .attr("title", DataType::Text)
                    .attr("duration", DataType::Text)
                    .not_null("record")
                    .not_null("title")
                    .foreign_key(&["record"], "records", &["id"])
            })
            .rows(
                "records",
                vec![vec![
                    1.into(),
                    "Second Helping".into(),
                    "Lynyrd Skynyrd".into(),
                    "rock".into(),
                ]],
            )
            .rows(
                "tracks",
                vec![
                    vec![1.into(), "Sweet Home Alabama".into(), "4:43".into()],
                    vec![1.into(), "I Need You".into(), "6:55".into()],
                    vec![1.into(), "Don't Ask Me No Questions".into(), "3:26".into()],
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn figure4_target_cardinalities() {
        let db = target_db();
        let conv = database_to_csg(&db);
        let g = &conv.csg;
        let (rec_t, rec_a) = db.schema.resolve("records", "id").unwrap();
        // records→id: PK ⇒ not-null ⇒ 1; id→records: unique ⇒ 1.
        let rel = conv.attr_rel(rec_t, rec_a);
        assert_eq!(g.card_of(RelRef::fwd(rel)), &Cardinality::one());
        assert_eq!(g.card_of(RelRef::bwd(rel)), &Cardinality::one());
        // tracks→record: NN ⇒ 1; record→tracks: not unique ⇒ 1..*.
        let (tr_t, tr_a) = db.schema.resolve("tracks", "record").unwrap();
        let rel = conv.attr_rel(tr_t, tr_a);
        assert_eq!(g.card_of(RelRef::fwd(rel)), &Cardinality::one());
        assert_eq!(g.card_of(RelRef::bwd(rel)), &Cardinality::one_or_more());
        // tracks→duration: nullable ⇒ 0..1.
        let (du_t, du_a) = db.schema.resolve("tracks", "duration").unwrap();
        let rel = conv.attr_rel(du_t, du_a);
        assert_eq!(g.card_of(RelRef::fwd(rel)), &Cardinality::zero_or_one());
    }

    #[test]
    fn fk_becomes_equality_relationship() {
        let db = target_db();
        let conv = database_to_csg(&db);
        assert_eq!(conv.fk_rels.len(), 1);
        let (_, rel) = &conv.fk_rels[0];
        let r = conv.csg.relationship(*rel);
        assert_eq!(r.kind, RelKind::Equality);
        assert_eq!(r.card_fwd, Cardinality::one());
        assert_eq!(r.card_bwd, Cardinality::zero_or_one());
    }

    #[test]
    fn instance_holds_distinct_values_and_tuple_links() {
        let db = target_db();
        let conv = database_to_csg(&db);
        let (tr_t, tr_a) = db.schema.resolve("tracks", "record").unwrap();
        let record_node = conv.attr_node(tr_t, tr_a);
        // Three tracks share record value 1: one distinct value, 3 links.
        assert_eq!(conv.instance.element_count(record_node), 1);
        assert_eq!(conv.instance.links_of(conv.attr_rel(tr_t, tr_a)).len(), 3);
        // That element is the column's first-seen code 0: the value 1.
        let column = db.instance.table(tr_t).column_store(tr_a).unwrap();
        assert_eq!(column.distinct_codes().value(0), ValueRef::Int(1));
    }

    #[test]
    fn valid_instance_has_no_csg_violations() {
        let db = target_db();
        let conv = database_to_csg(&db);
        for (i, _) in conv.csg.relationships().iter().enumerate() {
            let r = RelId(i);
            assert_eq!(
                conv.instance.violations_of(&conv.csg, RelRef::fwd(r)),
                0,
                "fwd violations on ρ{i}"
            );
            assert_eq!(
                conv.instance.violations_of(&conv.csg, RelRef::bwd(r)),
                0,
                "bwd violations on ρ{i}"
            );
        }
    }

    #[test]
    fn nulls_produce_no_links() {
        let db = DatabaseBuilder::new("n")
            .table("t", |t| t.attr("a", DataType::Text))
            .rows("t", vec![vec![Value::Null], vec!["x".into()]])
            .build()
            .unwrap();
        let conv = database_to_csg(&db);
        let (tid, aid) = db.schema.resolve("t", "a").unwrap();
        assert_eq!(conv.instance.links_of(conv.attr_rel(tid, aid)).len(), 1);
        // The nullable attribute reads 0..1 forward — so no violation.
        assert_eq!(
            conv.instance
                .violations_of(&conv.csg, RelRef::fwd(conv.attr_rel(tid, aid))),
            0
        );
    }

    #[test]
    fn schema_half_is_the_full_conversion_without_rows() {
        let db = target_db();
        let full = database_to_csg(&db);
        let schema = schema_to_csg(&db);
        assert_eq!(schema.csg, full.csg);
        assert_eq!(schema.table_nodes, full.table_nodes);
        assert_eq!(schema.attr_nodes, full.attr_nodes);
        assert_eq!(schema.attr_rels, full.attr_rels);
        assert_eq!(schema.fk_rels, full.fk_rels);
        assert_eq!(schema.instance, CsgInstance::empty(&full.csg));
        assert!(full.instance != schema.instance, "the target has rows");
    }

    #[test]
    fn node_names_are_qualified() {
        let db = target_db();
        let conv = database_to_csg(&db);
        assert!(conv.csg.node_by_name("records.title").is_some());
        assert!(conv.csg.node_by_name("tracks.title").is_some());
        assert!(conv.csg.node_by_name("records").is_some());
    }
}
