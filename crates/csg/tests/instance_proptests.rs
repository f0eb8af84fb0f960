//! Property-based tests for CSG instance evaluation: the operator
//! semantics of §4.1 hold on random link structures.

use efes_csg::cardinality::Cardinality;
use efes_csg::expr::RelExpr;
use efes_csg::graph::{Csg, NodeKind, RelId, RelKind, RelRef};
use efes_csg::instance::CsgInstance;
use proptest::prelude::*;

/// A random 3-node chain a→b→c with arbitrary links.
fn arb_chain() -> impl Strategy<Value = (Csg, CsgInstance, RelId, RelId)> {
    let links1 = proptest::collection::vec((0u32..5, 0u32..5), 0..16);
    let links2 = proptest::collection::vec((0u32..5, 0u32..5), 0..16);
    (links1, links2).prop_map(|(l1, l2)| {
        let mut g = Csg::new("p");
        let a = g.add_node("a", NodeKind::Table);
        let b = g.add_node("b", NodeKind::Attribute);
        let c = g.add_node("c", NodeKind::Attribute);
        let r1 = g.add_relationship(a, b, RelKind::Attribute, Cardinality::any(), Cardinality::any());
        let r2 = g.add_relationship(b, c, RelKind::Equality, Cardinality::any(), Cardinality::any());
        let mut inst = CsgInstance::empty(&g);
        for node in [a, b, c] {
            inst.set_element_count(node, 5);
        }
        inst.set_links(r1, l1);
        inst.set_links(r2, l2);
        (g, inst, r1, r2)
    })
}

proptest! {
    /// Composition agrees with brute-force relation composition.
    #[test]
    fn composition_matches_brute_force((_, inst, r1, r2) in arb_chain()) {
        let expr = RelExpr::path(&[RelRef::fwd(r1), RelRef::fwd(r2)]);
        let links = inst.eval(&expr);
        let l1 = inst.reading_links(RelRef::fwd(r1));
        let l2 = inst.reading_links(RelRef::fwd(r2));
        let mut brute = std::collections::BTreeSet::new();
        for (x, m) in &l1 {
            for (m2, y) in &l2 {
                if m == m2 {
                    brute.insert((x.clone(), y.clone()));
                }
            }
        }
        prop_assert_eq!(links, brute);
    }

    /// Reversing a reading transposes its link set.
    #[test]
    fn reverse_reading_transposes((_, inst, r1, _) in arb_chain()) {
        let fwd = inst.reading_links(RelRef::fwd(r1));
        let bwd = inst.reading_links(RelRef::bwd(r1));
        let transposed: std::collections::BTreeSet<_> =
            fwd.iter().map(|(a, b)| (b.clone(), a.clone())).collect();
        prop_assert_eq!(bwd, transposed);
    }

    /// Union evaluates to the set union of the operands' links.
    #[test]
    fn union_is_link_union((_, inst, r1, _) in arb_chain()) {
        use efes_csg::expr::UnionMode;
        let a = RelExpr::Atomic(RelRef::fwd(r1));
        let expr = RelExpr::Union(
            Box::new(a.clone()),
            Box::new(a.clone()),
            UnionMode::DisjointDomains,
        );
        prop_assert_eq!(inst.eval(&expr), inst.eval(&a));
    }

    /// Join produces only links whose codomain is shared, with compound
    /// domains of the operands' domain arities.
    #[test]
    fn join_shape_is_sound((_, inst, r1, _) in arb_chain()) {
        let a = RelExpr::Atomic(RelRef::fwd(r1));
        let joined = RelExpr::Join(Box::new(a.clone()), Box::new(a.clone()));
        let links = inst.eval(&joined);
        let base = inst.eval(&a);
        for (dom, cod) in &links {
            prop_assert_eq!(dom.len(), 2);
            prop_assert!(base.contains(&(vec![dom[0]], cod.clone())));
            prop_assert!(base.contains(&(vec![dom[1]], cod.clone())));
        }
        // Every base link joins with itself.
        for (d, c) in &base {
            prop_assert!(links.contains(&(vec![d[0], d[0]], c.clone())));
        }
    }

    /// Collateral link count is the product of the operand counts.
    #[test]
    fn collateral_counts_multiply((_, inst, r1, r2) in arb_chain()) {
        let a = RelExpr::Atomic(RelRef::fwd(r1));
        let b = RelExpr::Atomic(RelRef::fwd(r2));
        let coll = RelExpr::Collateral(Box::new(a.clone()), Box::new(b.clone()));
        let n = inst.eval(&coll).len();
        prop_assert_eq!(n, inst.eval(&a).len() * inst.eval(&b).len());
    }

    /// Per-element link counts sum to the total link count and cover
    /// every domain element.
    #[test]
    fn link_counts_are_complete((g, inst, r1, _) in arb_chain()) {
        let domain = g.node_by_name("a").unwrap();
        let counts = inst.link_counts(&RelExpr::Atomic(RelRef::fwd(r1)), domain);
        prop_assert_eq!(counts.len(), inst.element_count(domain));
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(total as usize, inst.reading_links(RelRef::fwd(r1)).len());
    }

    /// Static inference is a sound over-approximation of observed
    /// per-element counts when the prescription is `0..*` (always true)
    /// — and violations_of counts exactly the elements outside any
    /// narrower prescription.
    #[test]
    fn violations_match_manual_count((g, inst, r1, _) in arb_chain()) {
        let domain = g.node_by_name("a").unwrap();
        let counts = inst.link_counts(&RelExpr::Atomic(RelRef::fwd(r1)), domain);
        let prescribed = Cardinality::one();
        let manual = counts.iter().filter(|c| !prescribed.contains(**c)).count() as u64;
        // Rebuild the graph with prescription 1 to compare.
        let mut g2 = Csg::new("q");
        let a = g2.add_node("a", NodeKind::Table);
        let b = g2.add_node("b", NodeKind::Attribute);
        let r = g2.add_relationship(a, b, RelKind::Attribute, Cardinality::one(), Cardinality::any());
        let mut inst2 = CsgInstance::empty(&g2);
        inst2.set_element_count(a, 5);
        inst2.set_element_count(b, 5);
        inst2.set_links(r, inst.links_of(r1).to_vec());
        prop_assert_eq!(inst2.violations_of(&g2, RelRef::fwd(r)), manual);
    }
}
