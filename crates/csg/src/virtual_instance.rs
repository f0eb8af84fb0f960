//! Virtual CSG instances: *actual* vs *prescribed* cardinalities and the
//! side-effect simulation of cleaning tasks (paper §4.2, Figure 5).
//!
//! *"In addition to the prescribed cardinalities, the target CSG is
//! annotated with actual cardinalities. [...] those describe the state of
//! the (conceptually) integrated source data. [...] As long as there are
//! actual cardinalities that are not subsets of the prescribed ones, the
//! CSG instance is invalid wrt. its constraints."*

use crate::cardinality::Cardinality;
use crate::convert::CsgConversion;
use crate::graph::{Csg, Direction, NodeId, RelId, RelKind, RelRef};
use crate::matching::RelationshipMatch;
use crate::violations::StructuralConflict;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// How many elements currently violate a reading, split by deviation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AffectedCounts {
    /// Elements with fewer links than prescribed.
    pub too_few: u64,
    /// Elements with more links than prescribed.
    pub too_many: u64,
}

impl AffectedCounts {
    /// Total affected elements.
    pub fn total(&self) -> u64 {
        self.too_few + self.too_many
    }
}

/// A violated reading of the virtual instance.
#[derive(Debug, Clone)]
pub struct VirtualViolation {
    /// The violated reading.
    pub reading: RelRef,
    /// Prescribed cardinality.
    pub prescribed: Cardinality,
    /// Current actual cardinality.
    pub actual: Cardinality,
    /// Element counts behind the violation.
    pub affected: AffectedCounts,
}

/// The virtual CSG: the **target** graph annotated with actual
/// cardinalities describing the conceptually-integrated source data.
#[derive(Debug, Clone)]
pub struct VirtualCsg<'a> {
    csg: &'a Csg,
    /// Actual cardinality per relationship, `[fwd, bwd]`.
    actual: Vec<[Cardinality; 2]>,
    /// Affected element counts per relationship, `[fwd, bwd]`.
    affected: Vec<[AffectedCounts; 2]>,
}

fn slot(dir: Direction) -> usize {
    match dir {
        Direction::Forward => 0,
        Direction::Backward => 1,
    }
}

impl<'a> VirtualCsg<'a> {
    /// A clean virtual instance over `csg`: every reading's actual
    /// cardinality equals its prescription (no observed data violates
    /// it) and no element is affected.
    pub fn new(csg: &'a Csg) -> Self {
        let n = csg.relationships().len();
        let actual = (0..n)
            .map(|i| {
                let r = RelId(i);
                [
                    csg.card_of(RelRef::fwd(r)).clone(),
                    csg.card_of(RelRef::bwd(r)).clone(),
                ]
            })
            .collect();
        VirtualCsg {
            csg,
            actual,
            affected: vec![[AffectedCounts::default(); 2]; n],
        }
    }

    /// Seed one observed violation: `reading` carries the *observed*
    /// cardinality of the source data (Figure 5a's left-hand
    /// annotations) and the offending element counts. Every planner
    /// seeding — from [`StructuralConflict`]s or from the structure
    /// module's findings — goes through here.
    pub fn observe(&mut self, reading: RelRef, observed: Cardinality, affected: AffectedCounts) {
        self.set_actual(reading, observed);
        self.set_affected(reading, affected);
    }

    /// Initialise from relationship matches and detected conflicts:
    /// readings without a conflict start clean, conflicting readings are
    /// seeded through [`observe`](Self::observe).
    pub fn from_conflicts(
        target_conv: &'a CsgConversion,
        matches: &[RelationshipMatch],
        conflicts: &[StructuralConflict],
    ) -> Self {
        let _ = matches; // matches are implied by the conflicts' observations
        let mut v = VirtualCsg::new(&target_conv.csg);
        for c in conflicts {
            v.observe(
                RelRef {
                    rel: RelId(c.target_rel),
                    dir: c.direction,
                },
                c.observed.clone(),
                AffectedCounts {
                    too_few: c.too_few,
                    too_many: c.too_many,
                },
            );
        }
        v
    }

    /// Initialise with explicit actual cardinalities (used by tests and
    /// the Figure 5 regeneration, which starts from a drawn state).
    pub fn with_actuals(
        csg: &'a Csg,
        actuals: Vec<(RelId, Cardinality, Cardinality)>,
        affected: Vec<(RelRef, AffectedCounts)>,
    ) -> Self {
        let mut v = VirtualCsg::new(csg);
        for (r, f, b) in actuals {
            v.set_actual(RelRef::fwd(r), f);
            v.set_actual(RelRef::bwd(r), b);
        }
        for (r, c) in affected {
            v.set_affected(r, c);
        }
        v
    }

    /// The underlying target graph. The returned reference borrows the
    /// graph itself (`'a`), not this virtual instance, so callers can keep
    /// it across mutations.
    pub fn graph(&self) -> &'a Csg {
        self.csg
    }

    /// Current actual cardinality of a reading.
    pub fn actual_of(&self, r: RelRef) -> &Cardinality {
        &self.actual[r.rel.0][slot(r.dir)]
    }

    /// Current affected counts of a reading.
    pub fn affected_of(&self, r: RelRef) -> AffectedCounts {
        self.affected[r.rel.0][slot(r.dir)]
    }

    /// Overwrite the actual cardinality of a reading.
    pub fn set_actual(&mut self, r: RelRef, c: Cardinality) {
        self.actual[r.rel.0][slot(r.dir)] = c;
    }

    /// Overwrite the affected counts of a reading.
    pub fn set_affected(&mut self, r: RelRef, a: AffectedCounts) {
        self.affected[r.rel.0][slot(r.dir)] = a;
    }

    /// Add to the affected counts of a reading (side effects accumulate,
    /// saturating: counts read back from a report may be arbitrary).
    pub fn add_affected(&mut self, r: RelRef, a: AffectedCounts) {
        let cur = &mut self.affected[r.rel.0][slot(r.dir)];
        cur.too_few = cur.too_few.saturating_add(a.too_few);
        cur.too_many = cur.too_many.saturating_add(a.too_many);
    }

    /// `true` iff the reading's actual cardinality satisfies (is a subset
    /// of) its prescription.
    pub fn is_satisfied(&self, r: RelRef) -> bool {
        self.actual_of(r).is_subset(self.csg.card_of(r))
    }

    /// All current violations, in deterministic order (relationship id,
    /// forward before backward) — this fixed order is what makes the
    /// repair plans reproducible.
    pub fn violations(&self) -> Vec<VirtualViolation> {
        let mut out = Vec::new();
        for i in 0..self.csg.relationships().len() {
            for dir in [Direction::Forward, Direction::Backward] {
                let r = RelRef {
                    rel: RelId(i),
                    dir,
                };
                if !self.is_satisfied(r) {
                    out.push(VirtualViolation {
                        reading: r,
                        prescribed: self.csg.card_of(r).clone(),
                        actual: self.actual_of(r).clone(),
                        affected: self.affected_of(r),
                    });
                }
            }
        }
        out
    }

    /// `true` iff no violations remain — the simulation's stop condition.
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// The table node a relationship hangs off (the `from` side for
    /// attribute relationships).
    pub fn owning_table(&self, rel: RelId) -> Option<NodeId> {
        let r = self.csg.relationship(rel);
        if r.kind == RelKind::Attribute {
            Some(r.from)
        } else {
            None
        }
    }

    /// All *other* attribute relationships of the same table node — the
    /// candidates for side effects when tuples are created or merged.
    pub fn sibling_attribute_rels(&self, rel: RelId) -> Vec<RelId> {
        let Some(table) = self.owning_table(rel) else {
            return Vec::new();
        };
        self.csg
            .relationships()
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                RelId(*i) != rel && r.kind == RelKind::Attribute && r.from == table
            })
            .map(|(i, _)| RelId(i))
            .collect()
    }

    /// The attribute relationship that *ends* in `node` (used to cascade
    /// from equality relationships into the referenced attribute).
    pub fn attribute_rel_into(&self, node: NodeId) -> Option<RelId> {
        self.csg
            .relationships()
            .iter()
            .position(|r| r.kind == RelKind::Attribute && r.to == node)
            .map(RelId)
    }

    /// Hash of the full state (actual cardinalities + affected counts) —
    /// the planner's cycle detector keys on this.
    pub fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.actual.hash(&mut h);
        self.affected.hash(&mut h);
        h.finish()
    }

    /// Render the per-relationship `actual ⊆/⊄ prescribed` annotations —
    /// the textual equivalent of a Figure 5 panel.
    pub fn describe_state(&self) -> String {
        let mut s = String::new();
        for i in 0..self.csg.relationships().len() {
            for dir in [Direction::Forward, Direction::Backward] {
                let r = RelRef {
                    rel: RelId(i),
                    dir,
                };
                let actual = self.actual_of(r);
                let prescribed = self.csg.card_of(r);
                if actual == prescribed && self.is_satisfied(r) {
                    continue; // uninteresting
                }
                let symbol = if self.is_satisfied(r) { "⊆" } else { "⊄" };
                s.push_str(&format!(
                    "  {}: {} {} {}\n",
                    self.csg.reading_label(r),
                    actual,
                    symbol,
                    prescribed
                ));
            }
        }
        if s.is_empty() {
            s.push_str("  (all actual cardinalities satisfy their prescriptions)\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    /// The Figure 5 extract: records with artist (1), title (1),
    /// gen[re] (1..*) attributes.
    fn records_graph() -> (Csg, RelId, RelId, RelId) {
        let mut g = Csg::new("tgt");
        let records = g.add_node("records", NodeKind::Table);
        let artist = g.add_node("artist", NodeKind::Attribute);
        let title = g.add_node("title", NodeKind::Attribute);
        let gen = g.add_node("gen", NodeKind::Attribute);
        let ra = g.add_relationship(
            records,
            artist,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        let rt = g.add_relationship(
            records,
            title,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        let rg = g.add_relationship(
            records,
            gen,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        (g, ra, rt, rg)
    }

    #[test]
    fn figure5a_initial_state() {
        let (g, ra, rt, _rg) = records_graph();
        // Figure 5a: records→artist actual 1..* ⊄ 1; artist→records
        // actual 0..* ⊄ 1..*; title satisfied.
        let v = VirtualCsg::with_actuals(
            &g,
            vec![(
                ra,
                Cardinality::one_or_more(),
                Cardinality::any(),
            )],
            vec![
                (RelRef::fwd(ra), AffectedCounts { too_few: 0, too_many: 503 }),
                (RelRef::bwd(ra), AffectedCounts { too_few: 102, too_many: 0 }),
            ],
        );
        assert!(!v.is_clean());
        let viols = v.violations();
        assert_eq!(viols.len(), 2);
        assert_eq!(viols[0].reading, RelRef::fwd(ra));
        assert_eq!(viols[0].affected.too_many, 503);
        assert_eq!(viols[1].reading, RelRef::bwd(ra));
        assert!(v.is_satisfied(RelRef::fwd(rt)));
    }

    #[test]
    fn figure5b_add_tuples_side_effect() {
        let (g, ra, rt, rg) = records_graph();
        let mut v = VirtualCsg::with_actuals(
            &g,
            vec![(ra, Cardinality::one(), Cardinality::any())],
            vec![(RelRef::bwd(ra), AffectedCounts { too_few: 102, too_many: 0 })],
        );
        // Simulate "Add new tuples for records": artist→records becomes
        // 1..*, records→title becomes 0..1 (new violation).
        v.set_actual(RelRef::bwd(ra), Cardinality::one_or_more());
        v.set_affected(RelRef::bwd(ra), AffectedCounts::default());
        v.set_actual(RelRef::fwd(rt), Cardinality::zero_or_one());
        v.add_affected(RelRef::fwd(rt), AffectedCounts { too_few: 102, too_many: 0 });
        let viols = v.violations();
        assert_eq!(viols.len(), 1);
        assert_eq!(viols[0].reading, RelRef::fwd(rt));
        assert_eq!(viols[0].affected.too_few, 102);
        let _ = rg;
    }

    #[test]
    fn sibling_relationships_found() {
        let (g, ra, rt, rg) = records_graph();
        let conv_free = VirtualCsg::with_actuals(&g, vec![], vec![]);
        let sibs = conv_free.sibling_attribute_rels(ra);
        assert_eq!(sibs, vec![rt, rg]);
    }

    #[test]
    fn state_hash_distinguishes_states() {
        let (g, ra, _, _) = records_graph();
        let clean = VirtualCsg::with_actuals(&g, vec![], vec![]);
        let dirty = VirtualCsg::with_actuals(
            &g,
            vec![(ra, Cardinality::any(), Cardinality::any())],
            vec![],
        );
        assert_ne!(clean.state_hash(), dirty.state_hash());
        assert!(clean.is_clean());
    }

    #[test]
    fn describe_state_renders_subset_symbols() {
        let (g, ra, _, _) = records_graph();
        let v = VirtualCsg::with_actuals(
            &g,
            vec![(ra, Cardinality::one_or_more(), Cardinality::any())],
            vec![],
        );
        let s = v.describe_state();
        assert!(s.contains("⊄"), "{s}");
        assert!(s.contains("records→artist"));
    }
}
