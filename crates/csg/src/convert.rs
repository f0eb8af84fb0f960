//! Conversion of relational databases into CSGs.
//!
//! Paper §4.1: *"for each of its relations, a corresponding table node is
//! created [...] for each attribute, an attribute node is created and
//! connected to its respective table node via a relationship. While these
//! attribute nodes hold the set of distinct values of the original
//! relational attribute, the relationships link tuples and their
//! respective attribute values. With this proceeding, any relational
//! database can be turned into a CSG without loss of information."*

use crate::cardinality::Cardinality;
use crate::graph::{Csg, NodeId, NodeKind, RelId, RelKind};
use crate::instance::{CsgInstance, Element};
use efes_exec::{Cancelled, RunContext};
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{ConstraintKind, Database};

/// The result of converting a database: the graph, its instance, and the
/// mapping from relational identifiers back to graph identifiers (needed
/// to anchor correspondences during relationship matching).
#[derive(Debug, Clone)]
pub struct CsgConversion {
    /// The cardinality-constrained schema graph.
    pub csg: Csg,
    /// Its instance, populated from the database's data.
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
/// its instance.
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
pub fn database_to_csg(db: &Database) -> CsgConversion {
    database_to_csg_ctx(db, &RunContext::unbounded()).expect("unbounded context never cancels")
}

/// Like [`database_to_csg`], but cancellable: the instance fill — the
/// only part that scales with row count — ticks `run`'s checkpoint per
/// cell and per equality link, so conversion of a very large database
/// aborts promptly when `run` fires.
pub fn database_to_csg_ctx(db: &Database, run: &RunContext) -> Result<CsgConversion, Cancelled> {
    let ck = run.checkpoint();
    let mut csg = Csg::new(db.schema.name.clone());
    let mut instance_pending = Vec::new(); // (rel, table, attr) fill later

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
            let anode = csg.add_node(
                format!("{}.{}", table.name, attr.name),
                NodeKind::Attribute,
            );
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
            instance_pending.push((rel, tid, aid));
            anodes.push(anode);
            arels.push(rel);
        }
        attr_nodes.push(anodes);
        attr_rels.push(arels);
    }

    // Foreign keys become equality relationships between attribute nodes.
    let mut fk_rels = Vec::new();
    for c in db.constraints.iter() {
        if let ConstraintKind::ForeignKey {
            from_table,
            from_attrs,
            to_table,
            to_attrs,
        } = &c.kind
        {
            for (fa, ta) in from_attrs.iter().zip(to_attrs.iter()) {
                let from_node = attr_nodes[from_table.0][fa.0];
                let to_node = attr_nodes[to_table.0][ta.0];
                let rel = csg.add_relationship(
                    from_node,
                    to_node,
                    RelKind::Equality,
                    Cardinality::one(),
                    Cardinality::zero_or_one(),
                );
                fk_rels.push((c.name.clone(), rel));
            }
        }
    }

    // --- Instance ---
    // Column-major per table: every tuple first, then each attribute's
    // values in row order. Each node and each relationship still gets its
    // elements and links in row order, as a row-by-row walk would add them.
    let mut instance = CsgInstance::empty(&csg);
    for (ti, data) in db.instance.iter_tables() {
        let tnode = table_nodes[ti.0];
        let tuples: Vec<u32> = (0..data.len())
            .map(|ri| instance.add_element(tnode, Element::Tuple(ri)))
            .collect();
        for (ai, (&anode, &rel)) in attr_nodes[ti.0].iter().zip(&attr_rels[ti.0]).enumerate() {
            for (t_idx, v) in tuples.iter().zip(data.column(AttrId(ai))) {
                ck.tick()?;
                if v.is_null() {
                    continue;
                }
                let v_idx = instance.add_element(anode, Element::Val(v.to_value()));
                instance.add_link(rel, *t_idx, v_idx);
            }
        }
    }
    // Equality links: connect equal elements of the two attribute nodes.
    for c in db.constraints.iter() {
        if let ConstraintKind::ForeignKey {
            from_table,
            from_attrs,
            to_table,
            to_attrs,
        } = &c.kind
        {
            for ((fa, ta), (_, rel)) in from_attrs
                .iter()
                .zip(to_attrs.iter())
                .zip(fk_rels.iter().filter(|(name, _)| name == &c.name))
            {
                let from_node = attr_nodes[from_table.0][fa.0];
                let to_node = attr_nodes[to_table.0][ta.0];
                // Resolve matching indices with a read-only pass (no
                // per-element Value clones), then append the links.
                let mut eq_links: Vec<(u32, u32)> = Vec::new();
                for (idx, elem) in instance.elements(from_node).iter().enumerate() {
                    ck.tick()?;
                    if let Some(to_idx) = instance.element_index(to_node, elem) {
                        eq_links.push((idx as u32, to_idx));
                    }
                }
                for (idx, to_idx) in eq_links {
                    instance.add_link(*rel, idx, to_idx);
                }
            }
        }
    }

    Ok(CsgConversion {
        csg,
        instance,
        table_nodes,
        attr_nodes,
        attr_rels,
        fk_rels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RelRef;
    use efes_relational::{DataType, DatabaseBuilder, Value};

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
        assert_eq!(
            conv.instance.elements(record_node)[0],
            Element::Val(Value::Int(1))
        );
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
    fn node_names_are_qualified() {
        let db = target_db();
        let conv = database_to_csg(&db);
        assert!(conv.csg.node_by_name("records.title").is_some());
        assert!(conv.csg.node_by_name("tracks.title").is_some());
        assert!(conv.csg.node_by_name("records").is_some());
    }
}
