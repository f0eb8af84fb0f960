//! Matching target relationships to source relationship expressions.
//!
//! Paper §4.1: *"The composition operator particularly allows to treat
//! the matching of target relationships to source relationships as a
//! graph search problem."* For each atomic target relationship whose
//! endpoints are matched into the source graph via correspondences, we
//! enumerate candidate source paths and select the best by the
//! **conciseness order**: a relationship is more concise if its inferred
//! cardinality is a strict subset; on equal cardinalities the shorter
//! path wins (Occam's razor).

use crate::cardinality::Cardinality;
use crate::convert::CsgConversion;
use crate::expr::RelExpr;
use crate::graph::{Csg, NodeId, RelId, RelRef};
use efes_exec::{parallel_map, Cancelled, Checkpoint, ExecutionMode, RunContext};
use efes_relational::{CorrespondenceSet, IntegrationScenario, SourceId};
use std::collections::HashMap;

/// Node-level correspondences: which source node each target node maps
/// to, derived from the scenario's table/attribute correspondences.
#[derive(Debug, Clone, Default)]
pub struct NodeCorrespondences {
    map: HashMap<NodeId, NodeId>,
}

impl NodeCorrespondences {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that target node `target` corresponds to source node
    /// `source`.
    pub fn insert(&mut self, target: NodeId, source: NodeId) {
        self.map.insert(target, source);
    }

    /// Look up the source node for a target node.
    pub fn get(&self, target: NodeId) -> Option<NodeId> {
        self.map.get(&target).copied()
    }

    /// Number of matched nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no nodes are matched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Build node correspondences from a scenario's relational
    /// correspondences, for one source database.
    pub fn from_scenario(
        scenario: &IntegrationScenario,
        source: SourceId,
        target_conv: &CsgConversion,
        source_conv: &CsgConversion,
    ) -> Self {
        Self::from_correspondences(&scenario.correspondences, source, target_conv, source_conv)
    }

    /// Build node correspondences from a correspondence set directly.
    pub fn from_correspondences(
        correspondences: &CorrespondenceSet,
        source: SourceId,
        target_conv: &CsgConversion,
        source_conv: &CsgConversion,
    ) -> Self {
        let mut nc = NodeCorrespondences::new();
        for (st, tt) in correspondences.table_correspondences(source) {
            nc.insert(target_conv.table_node(tt), source_conv.table_node(st));
        }
        for (sa, ta) in correspondences.attribute_correspondences(source) {
            nc.insert(
                target_conv.attr_node(ta.table, ta.attr),
                source_conv.attr_node(sa.table, sa.attr),
            );
        }
        nc
    }
}

/// The result of matching one target relationship.
#[derive(Debug, Clone)]
pub struct RelationshipMatch {
    /// The matched target relationship (its forward reading).
    pub target: RelRef,
    /// The selected source relationship expression.
    pub source_expr: RelExpr,
    /// Inferred cardinality of `source_expr` (start → end).
    pub inferred_fwd: Cardinality,
    /// Inferred cardinality of the reverse reading.
    pub inferred_bwd: Cardinality,
}

/// Search limits for path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct SearchLimits {
    /// Maximum path length in atomic readings.
    pub max_len: usize,
    /// Maximum number of candidate paths retained per relationship.
    pub max_candidates: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_len: 8,
            max_candidates: 256,
        }
    }
}

/// Enumerate simple paths (no repeated nodes) from `from` to `to` in
/// `g`, depth first over each node's readings in
/// [`Csg::readings_from`] order, within `limits`.
///
/// A breadth-first pass first measures every node's distance to `to`.
/// That distance ignores the no-repeat rule, so it never overestimates,
/// and the walk skips every step after which `to` lies beyond the
/// remaining length. A skipped branch holds no path, so the paths and
/// their order are those of the full walk; an unreachable `to` costs
/// O(V + E). The walk ticks `ck` once per reading it tries.
fn enumerate_paths(
    g: &Csg,
    from: NodeId,
    to: NodeId,
    limits: SearchLimits,
    ck: &Checkpoint<'_>,
) -> Result<Vec<Vec<RelRef>>, Cancelled> {
    // A simple path never returns to its start.
    if from == to {
        return Ok(Vec::new());
    }
    // Each relationship reads forward from its start and backward from
    // its end, so reachability is symmetric and a search from `to`
    // measures every node's distance to it.
    let mut readings: Vec<Vec<RelRef>> = vec![Vec::new(); g.nodes().len()];
    for (i, rel) in g.relationships().iter().enumerate() {
        readings[rel.from.0].push(RelRef::fwd(RelId(i)));
        readings[rel.to.0].push(RelRef::bwd(RelId(i)));
    }
    let mut dist = vec![usize::MAX; readings.len()];
    dist[to.0] = 0;
    let mut queue = std::collections::VecDeque::from([to]);
    while let Some(n) = queue.pop_front() {
        for &r in &readings[n.0] {
            ck.tick()?;
            let next = g.end_of(r);
            if dist[next.0] == usize::MAX {
                dist[next.0] = dist[n.0] + 1;
                queue.push_back(next);
            }
        }
    }

    struct Walk<'a, 'c> {
        g: &'a Csg,
        readings: &'a [Vec<RelRef>],
        dist: &'a [usize],
        to: NodeId,
        limits: SearchLimits,
        ck: &'a Checkpoint<'c>,
        stack: Vec<RelRef>,
        visited: Vec<NodeId>,
        results: Vec<Vec<RelRef>>,
    }

    impl Walk<'_, '_> {
        fn dfs(&mut self, current: NodeId) -> Result<(), Cancelled> {
            if self.results.len() >= self.limits.max_candidates {
                return Ok(());
            }
            if current == self.to && !self.stack.is_empty() {
                self.results.push(self.stack.clone());
                return Ok(());
            }
            if self.stack.len() >= self.limits.max_len {
                return Ok(());
            }
            let left = self.limits.max_len - self.stack.len() - 1;
            for &r in &self.readings[current.0] {
                self.ck.tick()?;
                let next = self.g.end_of(r);
                if self.dist[next.0] > left || self.visited.contains(&next) {
                    continue;
                }
                self.stack.push(r);
                self.visited.push(next);
                self.dfs(next)?;
                self.visited.pop();
                self.stack.pop();
            }
            Ok(())
        }
    }

    let mut walk = Walk {
        g,
        readings: &readings,
        dist: &dist,
        to,
        limits,
        ck,
        stack: Vec::new(),
        visited: vec![from],
        results: Vec::new(),
    };
    walk.dfs(from)?;
    Ok(walk.results)
}

/// Order two candidate paths by the paper's conciseness criterion.
/// Returns `true` iff `a` is strictly better than `b`.
fn more_concise(g: &Csg, a: &(Vec<RelRef>, Cardinality), b: &(Vec<RelRef>, Cardinality)) -> bool {
    let (pa, ka) = a;
    let (pb, kb) = b;
    if ka.is_strict_subset(kb) {
        return true;
    }
    if kb.is_strict_subset(ka) {
        return false;
    }
    if ka == kb {
        if pa.len() != pb.len() {
            return pa.len() < pb.len();
        }
        // Deterministic final tie-break.
        return render_path(g, pa) < render_path(g, pb);
    }
    // Incomparable cardinalities: prefer the narrower hull, then shorter.
    let width = |k: &Cardinality| -> u128 {
        match (k.min(), k.max()) {
            (Some(lo), Some(Some(hi))) => (hi - lo) as u128,
            (Some(_), Some(None)) => u128::MAX,
            _ => u128::MAX,
        }
    };
    let (wa, wb) = (width(ka), width(kb));
    if wa != wb {
        return wa < wb;
    }
    if pa.len() != pb.len() {
        return pa.len() < pb.len();
    }
    render_path(g, pa) < render_path(g, pb)
}

fn render_path(g: &Csg, p: &[RelRef]) -> String {
    p.iter()
        .map(|r| g.reading_label(*r))
        .collect::<Vec<_>>()
        .join("∘")
}

/// Match one target relationship into the source graph. Returns `None`
/// when an endpoint is unmatched or no path exists.
pub fn match_one(
    target_csg: &Csg,
    source_csg: &Csg,
    corr: &NodeCorrespondences,
    target_rel: RelId,
    limits: SearchLimits,
) -> Option<RelationshipMatch> {
    let run = RunContext::unbounded();
    let ck = run.checkpoint();
    match_one_ctx(target_csg, source_csg, corr, target_rel, limits, &ck)
        .expect("unbounded context never cancels")
}

/// [`match_one`], its path search ticking `ck`.
fn match_one_ctx(
    target_csg: &Csg,
    source_csg: &Csg,
    corr: &NodeCorrespondences,
    target_rel: RelId,
    limits: SearchLimits,
    ck: &Checkpoint<'_>,
) -> Result<Option<RelationshipMatch>, Cancelled> {
    let target = RelRef::fwd(target_rel);
    let t_start = target_csg.start_of(target);
    let t_end = target_csg.end_of(target);
    let (Some(s_start), Some(s_end)) = (corr.get(t_start), corr.get(t_end)) else {
        return Ok(None);
    };

    let paths = enumerate_paths(source_csg, s_start, s_end, limits, ck)?;
    if paths.is_empty() {
        return Ok(None);
    }
    let mut candidates: Vec<(Vec<RelRef>, Cardinality)> = paths
        .into_iter()
        .map(|p| {
            let k = RelExpr::path(&p).inferred_cardinality(source_csg);
            (p, k)
        })
        .collect();
    candidates.sort_by(|a, b| {
        if more_concise(source_csg, a, b) {
            std::cmp::Ordering::Less
        } else if more_concise(source_csg, b, a) {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Equal
        }
    });
    let Some((best_path, inferred_fwd)) = candidates.into_iter().next() else {
        return Ok(None);
    };
    let reversed: Vec<RelRef> = best_path.iter().rev().map(|r| r.reverse()).collect();
    let inferred_bwd = RelExpr::path(&reversed).inferred_cardinality(source_csg);
    Ok(Some(RelationshipMatch {
        target,
        source_expr: RelExpr::path(&best_path),
        inferred_fwd,
        inferred_bwd,
    }))
}

/// Match every atomic target relationship into the source graph.
/// Relationships with unmatched endpoints are skipped (they receive no
/// source data and cause no structural conflicts).
pub fn match_relationships(
    target_csg: &Csg,
    source_csg: &Csg,
    corr: &NodeCorrespondences,
) -> Vec<RelationshipMatch> {
    match_relationships_with(target_csg, source_csg, corr, ExecutionMode::from_env())
}

/// Like [`match_relationships`], under an explicit [`ExecutionMode`].
/// Each target relationship is matched independently (the path search
/// reads the graphs but shares no state), so the matches fan out over
/// worker threads; results keep target-relationship order either way.
pub fn match_relationships_with(
    target_csg: &Csg,
    source_csg: &Csg,
    corr: &NodeCorrespondences,
    mode: ExecutionMode,
) -> Vec<RelationshipMatch> {
    match_relationships_ctx(target_csg, source_csg, corr, mode, &RunContext::unbounded())
        .expect("unbounded context never cancels")
}

/// [`match_relationships_with`] under a [`RunContext`]: each path
/// search ticks a checkpoint per reading it tries, so a cancelled run
/// aborts it within one check interval.
pub fn match_relationships_ctx(
    target_csg: &Csg,
    source_csg: &Csg,
    corr: &NodeCorrespondences,
    mode: ExecutionMode,
    run: &RunContext,
) -> Result<Vec<RelationshipMatch>, Cancelled> {
    let limits = SearchLimits::default();
    let ids: Vec<usize> = (0..target_csg.relationships().len()).collect();
    let mut matches = Vec::new();
    let found = parallel_map(mode, ids, |i| {
        let ck = run.checkpoint();
        match_one_ctx(target_csg, source_csg, corr, RelId(i), limits, &ck)
    });
    for found in found {
        matches.extend(found?);
    }
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::Cardinality;
    use crate::graph::{NodeKind, RelKind};

    /// A miniature of the Figure 4 ambiguity: two paths from `albums` to
    /// `artist`, a short one (via artist_list) and a long one (via songs),
    /// both inferring 0..* — the short one must win.
    fn ambiguous_source() -> (Csg, NodeId, NodeId) {
        let mut g = Csg::new("src");
        let albums = g.add_node("albums", NodeKind::Table);
        let list = g.add_node("albums.artist_list", NodeKind::Attribute);
        let credits = g.add_node("artist_credits", NodeKind::Table);
        let artist = g.add_node("artist_credits.artist", NodeKind::Attribute);
        let songs = g.add_node("songs", NodeKind::Table);
        let album_fk = g.add_node("songs.album", NodeKind::Attribute);

        // Short route: albums → list → credits → artist.
        g.add_relationship(
            albums,
            list,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one(),
        );
        g.add_relationship(
            list,
            credits,
            RelKind::Equality,
            Cardinality::any(),
            Cardinality::one(),
        );
        g.add_relationship(
            credits,
            artist,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        // Long route: albums → songs.album (equality) → songs → … back
        // through the list: songs.album equality to albums id.
        g.add_relationship(
            album_fk,
            albums,
            RelKind::Equality,
            Cardinality::one(),
            Cardinality::zero_or_one(),
        );
        g.add_relationship(
            songs,
            album_fk,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        g.add_relationship(
            songs,
            list,
            RelKind::Attribute,
            Cardinality::zero_or_one(),
            Cardinality::one_or_more(),
        );
        (g, albums, artist)
    }

    fn target_graph() -> (Csg, RelId, NodeId, NodeId) {
        let mut g = Csg::new("tgt");
        let records = g.add_node("records", NodeKind::Table);
        let artist = g.add_node("records.artist", NodeKind::Attribute);
        let r = g.add_relationship(
            records,
            artist,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        (g, r, records, artist)
    }

    #[test]
    fn shortest_path_wins_on_equal_cardinality() {
        let (src, albums, artist) = ambiguous_source();
        let (tgt, rel, records, t_artist) = target_graph();
        let mut corr = NodeCorrespondences::new();
        corr.insert(records, albums);
        corr.insert(t_artist, artist);
        let m = match_one(&tgt, &src, &corr, rel, SearchLimits::default()).unwrap();
        // Both routes infer 0..*; the 3-step route must be selected.
        assert_eq!(m.source_expr.len(), 3);
        assert_eq!(m.inferred_fwd, Cardinality::any());
    }

    #[test]
    fn unmatched_endpoint_yields_none() {
        let (src, albums, _) = ambiguous_source();
        let (tgt, rel, records, _) = target_graph();
        let mut corr = NodeCorrespondences::new();
        corr.insert(records, albums); // artist endpoint unmatched
        assert!(match_one(&tgt, &src, &corr, rel, SearchLimits::default()).is_none());
    }

    #[test]
    fn more_specific_cardinality_beats_shorter_path() {
        // Two routes a→c: direct with 0..*, indirect (2 steps) with 1.
        let mut g = Csg::new("s");
        let a = g.add_node("a", NodeKind::Table);
        let b = g.add_node("b", NodeKind::Attribute);
        let c = g.add_node("c", NodeKind::Attribute);
        g.add_relationship(a, c, RelKind::Attribute, Cardinality::any(), Cardinality::any());
        g.add_relationship(a, b, RelKind::Attribute, Cardinality::one(), Cardinality::one());
        g.add_relationship(b, c, RelKind::Equality, Cardinality::one(), Cardinality::one());

        let mut tgt = Csg::new("t");
        let ta = tgt.add_node("ta", NodeKind::Table);
        let tc = tgt.add_node("tc", NodeKind::Attribute);
        let rel = tgt.add_relationship(
            ta,
            tc,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        let mut corr = NodeCorrespondences::new();
        corr.insert(ta, a);
        corr.insert(tc, c);
        let m = match_one(&tgt, &g, &corr, rel, SearchLimits::default()).unwrap();
        assert_eq!(m.inferred_fwd, Cardinality::one());
        assert_eq!(m.source_expr.len(), 2);
    }

    #[test]
    fn bwd_cardinality_is_inferred_from_reversed_path() {
        let (src, albums, artist) = ambiguous_source();
        let (tgt, rel, records, t_artist) = target_graph();
        let mut corr = NodeCorrespondences::new();
        corr.insert(records, albums);
        corr.insert(t_artist, artist);
        let m = match_one(&tgt, &src, &corr, rel, SearchLimits::default()).unwrap();
        // artist→credits (1..*) ∘ credits→list (1) ∘ list→albums (1) = 1..*
        assert_eq!(m.inferred_bwd, Cardinality::one_or_more());
    }

    #[test]
    fn identical_schemas_match_with_exact_cardinalities() {
        let (tgt, rel, records, t_artist) = target_graph();
        let mut corr = NodeCorrespondences::new();
        corr.insert(records, records);
        corr.insert(t_artist, t_artist);
        let m = match_one(&tgt, &tgt, &corr, rel, SearchLimits::default()).unwrap();
        assert_eq!(m.inferred_fwd, Cardinality::one());
        assert_eq!(m.source_expr.len(), 1);
    }

    /// Every simple path, depth first, with no pruning: the walk the
    /// distance bound must reproduce.
    fn unpruned_paths(g: &Csg, from: NodeId, to: NodeId, limits: SearchLimits) -> Vec<Vec<RelRef>> {
        fn dfs(
            g: &Csg,
            current: NodeId,
            to: NodeId,
            limits: SearchLimits,
            stack: &mut Vec<RelRef>,
            visited: &mut Vec<NodeId>,
            results: &mut Vec<Vec<RelRef>>,
        ) {
            if results.len() >= limits.max_candidates {
                return;
            }
            if current == to && !stack.is_empty() {
                results.push(stack.clone());
                return;
            }
            if stack.len() >= limits.max_len {
                return;
            }
            for r in g.readings_from(current) {
                let next = g.end_of(r);
                if visited.contains(&next) {
                    continue;
                }
                stack.push(r);
                visited.push(next);
                dfs(g, next, to, limits, stack, visited, results);
                visited.pop();
                stack.pop();
            }
        }
        let mut results = Vec::new();
        dfs(
            g,
            from,
            to,
            limits,
            &mut Vec::new(),
            &mut vec![from],
            &mut results,
        );
        results
    }

    proptest::proptest! {
        /// Pruning by the distance to the end drops only branches that
        /// hold no path: the paths found, their order and the cut at
        /// `max_candidates` are those of the unpruned walk.
        #[test]
        fn pruned_search_finds_the_unpruned_paths_in_order(
            nodes in 2usize..9,
            edges in proptest::collection::vec((0usize..9, 0usize..9), 0..16),
            from in 0usize..9,
            to in 0usize..9,
            max_len in 1usize..7,
            max_candidates in 1usize..40,
        ) {
            let mut g = Csg::new("g");
            let ids: Vec<NodeId> = (0..nodes)
                .map(|i| g.add_node(format!("n{i}"), NodeKind::Attribute))
                .collect();
            for (a, b) in edges {
                g.add_relationship(
                    ids[a % nodes],
                    ids[b % nodes],
                    RelKind::Equality,
                    Cardinality::any(),
                    Cardinality::any(),
                );
            }
            let limits = SearchLimits { max_len, max_candidates };
            let (from, to) = (ids[from % nodes], ids[to % nodes]);
            let run = RunContext::unbounded();
            let pruned = enumerate_paths(&g, from, to, limits, &run.checkpoint()).unwrap();
            proptest::prop_assert_eq!(pruned, unpruned_paths(&g, from, to, limits));
        }
    }

    #[test]
    fn a_cancelled_run_stops_the_path_search() {
        // A clique of 12 nodes holds millions of simple paths of up to 8
        // readings, none of which ends at the isolated node.
        let mut g = Csg::new("clique");
        let link = |g: &mut Csg, a: NodeId, b: NodeId| {
            g.add_relationship(
                a,
                b,
                RelKind::Equality,
                Cardinality::any(),
                Cardinality::any(),
            );
        };
        let ids: Vec<NodeId> = (0..12)
            .map(|i| g.add_node(format!("n{i}"), NodeKind::Attribute))
            .collect();
        for a in 0..12 {
            for b in a + 1..12 {
                link(&mut g, ids[a], ids[b]);
            }
        }
        let lone = g.add_node("lone", NodeKind::Attribute);
        let run = RunContext::unbounded();
        let limits = SearchLimits::default();
        assert!(enumerate_paths(&g, ids[0], lone, limits, &run.checkpoint())
            .unwrap()
            .is_empty());
        // Reachable through one extra node: the walk is long, and a
        // cancelled run abandons it.
        link(&mut g, ids[11], lone);
        let cancelled = RunContext::unbounded();
        cancelled.token().cancel();
        let limits = SearchLimits {
            max_len: 8,
            max_candidates: usize::MAX,
        };
        assert!(enumerate_paths(&g, ids[0], lone, limits, &cancelled.checkpoint()).is_err());
    }
}
