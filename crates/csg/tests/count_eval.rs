//! Differential tests for the counting evaluator: over arbitrary CSG
//! instances and expression trees spanning all five operators in both
//! directions, `count_eval` must agree exactly with the per-element
//! counts derived from the `BTreeSet` oracle
//! (`link_counts_reference_ctx`) — plus cancellation, memoisation, and
//! compound-domain contract pins.

use efes_csg::cardinality::Cardinality;
use efes_csg::expr::{DomainWidth, RelExpr, UnionMode};
use efes_csg::graph::{Csg, NodeId, NodeKind, RelId, RelKind, RelRef};
use efes_csg::instance::CsgInstance;
use efes_exec::{CancellationToken, Cancelled, RunContext, CHECK_INTERVAL};
use proptest::prelude::*;

const NODES: usize = 4;
const ELEMS: u32 = 6;

/// A 4-node graph a→b→c plus a→d with arbitrary links on all three
/// relationships — enough shape for compose chains, unions of distinct
/// fragments, joins on a shared codomain, and collaterals.
fn build(l1: &[(u32, u32)], l2: &[(u32, u32)], l3: &[(u32, u32)]) -> (Csg, CsgInstance, [RelId; 3]) {
    let mut g = Csg::new("p");
    let a = g.add_node("a", NodeKind::Table);
    let b = g.add_node("b", NodeKind::Attribute);
    let c = g.add_node("c", NodeKind::Attribute);
    let d = g.add_node("d", NodeKind::Attribute);
    let r1 = g.add_relationship(a, b, RelKind::Attribute, Cardinality::any(), Cardinality::any());
    let r2 = g.add_relationship(b, c, RelKind::Equality, Cardinality::any(), Cardinality::any());
    let r3 = g.add_relationship(a, d, RelKind::Attribute, Cardinality::any(), Cardinality::any());
    let mut inst = CsgInstance::empty(&g);
    for node in [a, b, c, d] {
        inst.set_element_count(node, ELEMS as usize);
    }
    inst.set_links(r1, l1.to_vec());
    inst.set_links(r2, l2.to_vec());
    inst.set_links(r3, l3.to_vec());
    (g, inst, [r1, r2, r3])
}

fn arb_links() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..ELEMS, 0..ELEMS), 0..12)
}

fn arb_instance() -> impl Strategy<Value = (Csg, CsgInstance, [RelId; 3])> {
    (arb_links(), arb_links(), arb_links()).prop_map(|(l1, l2, l3)| build(&l1, &l2, &l3))
}

/// One preorder instruction of an encoded expression tree:
/// `(operator, relationship, forward?, union mode)`.
type ExprCode = (u8, u8, bool, u8);

/// Decode an expression tree from a preorder code stream. Each code
/// picks an operator (0 = leaf, 1 = `∘`, 2 = `∪`, 3 = `⋈`, 4 = `∥`,
/// taken modulo `ops`) plus an atomic reading for the leaf case; the
/// tree bottoms out when the depth budget or the stream runs dry, so
/// shrinking the code vector shrinks the tree.
fn decode_expr(codes: &[ExprCode], pos: &mut usize, depth: u32, ops: u8) -> RelExpr {
    let (op, rel, fwd, mode) = codes.get(*pos).copied().unwrap_or((0, 0, true, 0));
    *pos += 1;
    let r = RelId((rel % 3) as usize);
    let atom = RelExpr::Atomic(if fwd { RelRef::fwd(r) } else { RelRef::bwd(r) });
    if depth == 0 || *pos >= codes.len() {
        return atom;
    }
    let child = |pos: &mut usize| Box::new(decode_expr(codes, pos, depth - 1, ops));
    match op % ops {
        1 => RelExpr::Compose(child(pos), child(pos)),
        2 => {
            let m = match mode % 3 {
                0 => UnionMode::DisjointDomains,
                1 => UnionMode::EqualDomainsDisjointCodomains,
                _ => UnionMode::EqualDomainsOverlappingCodomains,
            };
            RelExpr::Union(child(pos), child(pos), m)
        }
        3 => RelExpr::Join(child(pos), child(pos)),
        4 => RelExpr::Collateral(child(pos), child(pos)),
        _ => atom,
    }
}

fn arb_codes() -> impl Strategy<Value = Vec<ExprCode>> {
    proptest::collection::vec((0u8..5, 0u8..3, proptest::arbitrary::any::<bool>(), 0u8..3), 1..16)
}

/// An arbitrary expression tree over all five operators. Depth is
/// capped at 2 so the worst collateral-of-collaterals oracle link set
/// stays small.
fn arb_expr() -> impl Strategy<Value = RelExpr> {
    arb_codes().prop_map(|codes| decode_expr(&codes, &mut 0, 2, 5))
}

/// A pure compose/union tree — the shape the conflict detector's hot
/// path actually evaluates — up to depth 4.
fn arb_chain_expr() -> impl Strategy<Value = RelExpr> {
    arb_codes().prop_map(|codes| decode_expr(&codes, &mut 0, 4, 3))
}

fn reference_counts(inst: &CsgInstance, expr: &RelExpr, domain: NodeId) -> Vec<u64> {
    let run = RunContext::unbounded();
    let ck = run.checkpoint();
    inst.link_counts_reference_ctx(expr, domain, &ck)
        .expect("unbounded context never cancels")
}

proptest! {
    /// The counting evaluator equals the BTreeSet-derived counts for
    /// arbitrary trees over all five operators, on every domain node.
    #[test]
    fn count_eval_matches_oracle((_, inst, _) in arb_instance(), expr in arb_expr()) {
        for n in 0..NODES {
            let domain = NodeId(n);
            prop_assert_eq!(
                inst.count_eval(&expr, domain),
                reference_counts(&inst, &expr, domain),
                "domain node {}", n
            );
        }
    }

    /// Deeper compose/union chains (the detect_conflicts shape) agree
    /// too, including through the memoised public entry point.
    #[test]
    fn chain_counts_match_oracle((_, inst, _) in arb_instance(), expr in arb_chain_expr()) {
        for n in 0..NODES {
            let domain = NodeId(n);
            let oracle = reference_counts(&inst, &expr, domain);
            prop_assert_eq!(inst.count_eval(&expr, domain), oracle.clone());
            prop_assert_eq!(inst.link_counts(&expr, domain), oracle);
        }
    }

    /// The memo returns the identical result on re-evaluation, and a
    /// mutation invalidates it (the epoch bumps and the fresh counts
    /// reflect the new link).
    #[test]
    fn memo_is_transparent_and_invalidated(
        (_, mut inst, rels) in arb_instance(),
        expr in arb_chain_expr(),
    ) {
        let domain = NodeId(0);
        let first = inst.link_counts(&expr, domain);
        prop_assert_eq!(&inst.link_counts(&expr, domain), &first);
        let epoch = inst.eval_epoch();
        let mut links = inst.links_of(rels[0]).to_vec();
        links.push((0, 0));
        inst.set_links(rels[0], links);
        prop_assert!(inst.eval_epoch() > epoch, "mutation must bump the epoch");
        prop_assert_eq!(
            inst.link_counts(&expr, domain),
            reference_counts(&inst, &expr, domain),
            "post-mutation counts must be recomputed, not replayed"
        );
    }
}

/// `count_eval_ctx` aborts mid-CSR-sweep: with the CSR already built,
/// the frontier expansion's per-edge ticks hit the cancelled token.
#[test]
fn count_eval_aborts_mid_sweep() {
    let mut g = Csg::new("cancel");
    let a = g.add_node("a", NodeKind::Table);
    let b = g.add_node("b", NodeKind::Attribute);
    let r = g.add_relationship(a, b, RelKind::Attribute, Cardinality::any(), Cardinality::any());
    let mut inst = CsgInstance::empty(&g);
    let fanout = 2 * CHECK_INTERVAL;
    inst.set_element_count(a, 1);
    inst.set_element_count(b, fanout as usize);
    inst.set_links(r, (0..fanout).map(|i| (0, i)).collect());
    // Warm the CSR cache so the abort provably happens in the sweep.
    let expr = RelExpr::Compose(
        Box::new(RelExpr::Atomic(RelRef::fwd(r))),
        Box::new(RelExpr::Atomic(RelRef::bwd(r))),
    );
    assert_eq!(inst.count_eval(&expr, a), vec![1]);

    let token = CancellationToken::new();
    token.cancel();
    let run = RunContext::new(token, None);
    let ck = run.checkpoint();
    assert_eq!(inst.count_eval_ctx(&expr, a, &ck), Err(Cancelled));
}

/// The lazy CSR build itself is cancellable, and a cancelled build is
/// not published: a later unbounded evaluation still succeeds.
#[test]
fn csr_build_aborts_and_is_not_cached_partially() {
    let mut g = Csg::new("cancel-build");
    let a = g.add_node("a", NodeKind::Table);
    let b = g.add_node("b", NodeKind::Attribute);
    let r = g.add_relationship(a, b, RelKind::Attribute, Cardinality::any(), Cardinality::any());
    let mut inst = CsgInstance::empty(&g);
    inst.set_element_count(a, 1);
    inst.set_element_count(b, 1);
    // Duplicates: CSR dedups them to one edge.
    inst.set_links(r, vec![(0, 0); 2 * CHECK_INTERVAL as usize]);
    let token = CancellationToken::new();
    token.cancel();
    let run = RunContext::new(token, None);
    let ck = run.checkpoint();
    let expr = RelExpr::Atomic(RelRef::fwd(r));
    assert_eq!(inst.count_eval_ctx(&expr, a, &ck), Err(Cancelled));
    // The aborted build left no partial cache behind.
    assert_eq!(inst.count_eval(&expr, a), vec![1]);
}

fn join_over_shared_record() -> (Csg, CsgInstance, RelExpr, NodeId) {
    let mut g = Csg::new("compound");
    let tracks = g.add_node("tracks", NodeKind::Table);
    let record = g.add_node("record", NodeKind::Attribute);
    let r = g.add_relationship(
        tracks,
        record,
        RelKind::Attribute,
        Cardinality::one(),
        Cardinality::one_or_more(),
    );
    let mut inst = CsgInstance::empty(&g);
    inst.set_element_count(tracks, 2);
    inst.set_element_count(record, 1);
    inst.set_links(r, vec![(0, 0), (1, 0)]);
    let expr = RelExpr::Join(
        Box::new(RelExpr::Atomic(RelRef::fwd(r))),
        Box::new(RelExpr::Atomic(RelRef::fwd(r))),
    );
    (g, inst, expr, tracks)
}

/// Satellite pin: a compound-key domain never tallies — the oracle
/// silently filters every link (`f.len() == 1`), the counting evaluator
/// returns the same all-zero vector, and `try_link_counts_ctx` makes
/// the contract explicit with `None`.
#[test]
fn compound_domain_counts_are_explicitly_empty() {
    let (_, inst, expr, tracks) = join_over_shared_record();
    assert_eq!(expr.domain_width(), DomainWidth::Compound);
    // The join produces 4 links — all with 2-wide domain keys.
    assert_eq!(inst.eval(&expr).len(), 4);
    // Oracle: every link dropped by the singleton-key filter.
    assert_eq!(reference_counts(&inst, &expr, tracks), vec![0, 0]);
    // Counting evaluator: same zeros, no debug assert (count_eval is
    // total over all shapes).
    assert_eq!(inst.count_eval(&expr, tracks), vec![0, 0]);
    // Explicit contract: the checked entry point refuses outright.
    let run = RunContext::unbounded();
    let ck = run.checkpoint();
    assert_eq!(inst.try_link_counts_ctx(&expr, tracks, &ck), Ok(None));
    // A mixed union still tallies its singleton branch.
    let r = RelRef::fwd(efes_csg::graph::RelId(0));
    let mixed = RelExpr::Union(
        Box::new(RelExpr::Atomic(r)),
        Box::new(expr.clone()),
        UnionMode::DisjointDomains,
    );
    assert_eq!(mixed.domain_width(), DomainWidth::Mixed);
    let counted = inst
        .try_link_counts_ctx(&mixed, tracks, &ck)
        .unwrap()
        .expect("mixed width is countable");
    assert_eq!(&*counted, &vec![1, 1]);
    assert_eq!(*counted, reference_counts(&inst, &mixed, tracks));
}

/// Satellite pin: in debug builds, `link_counts` on a compound-key
/// domain is a programming error and trips the debug assert.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "compound-key domain")]
fn link_counts_compound_domain_debug_asserts() {
    let (_, inst, expr, tracks) = join_over_shared_record();
    let _ = inst.link_counts(&expr, tracks);
}

/// Satellite pin: in release builds, `link_counts` on a compound-key
/// domain keeps the oracle's silent all-zeros behaviour.
#[test]
#[cfg(not(debug_assertions))]
fn link_counts_compound_domain_counts_zero() {
    let (_, inst, expr, tracks) = join_over_shared_record();
    assert_eq!(inst.link_counts(&expr, tracks), vec![0, 0]);
}

/// The memo counters move: a fresh evaluation records a miss, replaying
/// it records a hit (deltas, not absolutes — the counters are global).
#[test]
fn memo_counters_record_hits_and_misses() {
    let (_, inst, _) = {
        let l = [(0u32, 0u32), (1, 1), (2, 1)];
        build(&l, &l, &l)
    };
    let expr = RelExpr::Compose(
        Box::new(RelExpr::Atomic(RelRef::fwd(RelId(0)))),
        Box::new(RelExpr::Atomic(RelRef::fwd(RelId(1)))),
    );
    let (_h0, m0) = efes_csg::eval_memo_counters();
    let first = inst.link_counts(&expr, NodeId(0));
    let (h1, m1) = efes_csg::eval_memo_counters();
    assert!(m1 > m0, "first evaluation must record a miss");
    let second = inst.link_counts(&expr, NodeId(0));
    let (h2, _) = efes_csg::eval_memo_counters();
    assert!(h2 > h1, "replay must record a hit");
    assert_eq!(first, second);
}

#[test]
fn domain_width_analysis() {
    let a = RelExpr::Atomic(RelRef::fwd(RelId(0)));
    let join = RelExpr::Join(Box::new(a.clone()), Box::new(a.clone()));
    let coll = RelExpr::Collateral(Box::new(a.clone()), Box::new(a.clone()));
    assert_eq!(a.domain_width(), DomainWidth::Singleton);
    assert_eq!(join.domain_width(), DomainWidth::Compound);
    assert_eq!(coll.domain_width(), DomainWidth::Compound);
    // Compose inherits its left operand's width.
    let compose = RelExpr::Compose(Box::new(join.clone()), Box::new(a.clone()));
    assert_eq!(compose.domain_width(), DomainWidth::Compound);
    let chain = RelExpr::Compose(Box::new(a.clone()), Box::new(join.clone()));
    assert_eq!(chain.domain_width(), DomainWidth::Singleton);
    // Unions: agree → that width; disagree → mixed.
    let mixed = RelExpr::Union(Box::new(a.clone()), Box::new(join), UnionMode::DisjointDomains);
    assert_eq!(mixed.domain_width(), DomainWidth::Mixed);
    let both = RelExpr::Union(Box::new(a.clone()), Box::new(a), UnionMode::DisjointDomains);
    assert_eq!(both.domain_width(), DomainWidth::Singleton);
}
