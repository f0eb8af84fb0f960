//! The combined matcher: weighted name + instance similarity, greedy 1:1
//! assignment, and emission of correspondence sets consumable by the EFES
//! pipeline.
//!
//! By default the matcher *prunes* the source×target attribute grid
//! before running any expensive kernel: a [`NameIndex`] over the unique
//! target attribute names yields a sound upper bound on every pair's
//! final score, and pairs that provably cannot clear `attr_threshold`
//! are skipped. Pruning never changes output — the surviving pairs are
//! scored by the identical code, the dropped pairs would have been
//! filtered by the threshold anyway (differentially tested in
//! `tests/differential.rs` against the exhaustive oracle,
//! [`PrunePolicy::Off`]).

use crate::instance::instance_similarity_cached_ctx;
use crate::name::{name_similarity, NameIndex, BOUND_SLACK};
use efes_exec::{parallel_map, parallel_map_ref, Cancelled, ExecutionMode, RunContext};
use efes_profiling::{DbTag, ProfileCache};
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{
    Correspondence, CorrespondenceSet, Database, SourceId,
};
use serde::{Deserialize, Serialize};

/// Whether the matcher prunes candidate pairs before exact scoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PrunePolicy {
    /// Prune (the default).
    #[default]
    On,
    /// Score exhaustively: the differential-test oracle.
    Off,
}

impl PrunePolicy {
    /// Whether this policy prunes.
    pub fn enabled(self) -> bool {
        self == PrunePolicy::On
    }
}

/// Counters from one attribute-matching run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Size of the full source×target attribute grid.
    pub pairs_total: usize,
    /// Pairs skipped because their score bound cannot reach the
    /// threshold (always 0 on the exhaustive path).
    pub pairs_pruned: usize,
    /// Pairs that went through exact scoring.
    pub pairs_scored: usize,
}

/// Matcher configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Weight of name similarity (instance similarity gets `1 - w`).
    pub name_weight: f64,
    /// Minimum combined score for a proposed attribute correspondence.
    pub attr_threshold: f64,
    /// Minimum aggregated score for a proposed table correspondence.
    pub table_threshold: f64,
    /// Use instance data at all (pure name matching when false — the
    /// right choice for empty targets).
    pub use_instances: bool,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            name_weight: 0.6,
            attr_threshold: 0.55,
            table_threshold: 0.45,
            use_instances: true,
        }
    }
}

/// (source attr, target attr, name score) — one candidate pair after
/// name scoring, before instance scoring.
type NameScoredPair = ((TableId, AttrId), (TableId, AttrId), f64);

/// Per-element interned name ids plus the unique-name table.
fn intern_names<'a>(attrs: &[((TableId, AttrId), &'a str)]) -> (Vec<u32>, Vec<&'a str>) {
    let mut ids = Vec::with_capacity(attrs.len());
    let mut uniq: Vec<&'a str> = Vec::new();
    let mut by_name: std::collections::HashMap<&'a str, u32> = std::collections::HashMap::new();
    for (_, name) in attrs {
        let id = *by_name.entry(name).or_insert_with(|| {
            uniq.push(name);
            (uniq.len() - 1) as u32
        });
        ids.push(id);
    }
    (ids, uniq)
}

/// One proposed correspondence with its score.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProposedMatch {
    /// Source attribute.
    pub source: (TableId, AttrId),
    /// Target attribute.
    pub target: (TableId, AttrId),
    /// Combined similarity score.
    pub score: f64,
}

/// The combined schema matcher.
#[derive(Debug, Clone, Default)]
pub struct CombinedMatcher {
    config: MatcherConfig,
    prune: PrunePolicy,
}

impl CombinedMatcher {
    /// Create a matcher with the given configuration (pruning on).
    pub fn new(config: MatcherConfig) -> Self {
        CombinedMatcher {
            config,
            prune: PrunePolicy::default(),
        }
    }

    /// Pin the pruning policy.
    pub fn with_prune(mut self, prune: PrunePolicy) -> Self {
        self.prune = prune;
        self
    }

    /// Score every source×target attribute pair and keep stable 1:1
    /// matches above the threshold (greedy on descending score, each
    /// attribute used at most once per direction).
    pub fn propose_attribute_matches(
        &self,
        source: &Database,
        target: &Database,
    ) -> Vec<ProposedMatch> {
        self.propose_attribute_matches_with(
            source,
            target,
            &ProfileCache::new(),
            ExecutionMode::from_env(),
        )
    }

    /// Like [`propose_attribute_matches`](Self::propose_attribute_matches)
    /// with an explicit profile cache and execution mode. The pair grid is
    /// O(source attrs × target attrs) and each pair profiles both columns
    /// twice, so the cache collapses the profiling cost from quadratic to
    /// linear in the attribute count; the pairs score concurrently under
    /// `mode`. `cache` keys the source as `DbTag(0)` and the target as
    /// [`DbTag::TARGET`].
    pub fn propose_attribute_matches_with(
        &self,
        source: &Database,
        target: &Database,
        cache: &ProfileCache,
        mode: ExecutionMode,
    ) -> Vec<ProposedMatch> {
        self.propose_attribute_matches_stats(source, target, cache, mode)
            .0
    }

    /// Like [`propose_attribute_matches_with`](Self::propose_attribute_matches_with),
    /// additionally reporting how much of the pair grid was pruned.
    pub fn propose_attribute_matches_stats(
        &self,
        source: &Database,
        target: &Database,
        cache: &ProfileCache,
        mode: ExecutionMode,
    ) -> (Vec<ProposedMatch>, MatchStats) {
        self.propose_attribute_matches_stats_ctx(
            source,
            target,
            cache,
            mode,
            &RunContext::unbounded(),
        )
        .expect("unbounded context never cancels")
    }

    /// Like [`propose_attribute_matches_stats`](Self::propose_attribute_matches_stats),
    /// cancellable: each pair's instance scoring checks `run` before
    /// profiling (and the profile fills themselves tick checkpoints), so
    /// a cancelled run aborts mid-grid instead of scoring out the
    /// remaining pairs. Output is byte-identical when `run` never fires.
    pub fn propose_attribute_matches_stats_ctx(
        &self,
        source: &Database,
        target: &Database,
        cache: &ProfileCache,
        mode: ExecutionMode,
        run: &RunContext,
    ) -> Result<(Vec<ProposedMatch>, MatchStats), Cancelled> {
        // Table-context similarity per table pair, computed once — the
        // same pure function the per-pair formula uses, so hoisting it
        // cannot change any score.
        let table_sims: Vec<Vec<f64>> = source
            .schema
            .tables()
            .iter()
            .map(|s_table| {
                target
                    .schema
                    .tables()
                    .iter()
                    .map(|t_table| name_similarity(&s_table.name, &t_table.name))
                    .collect()
            })
            .collect();

        let pairs = if self.prune.enabled() {
            self.pruned_name_scores(source, target, &table_sims, mode)
        } else {
            let exhaustive: Vec<NameScoredPair> = source
                .schema
                .iter_attributes()
                .flat_map(|(st, sa, s_attr)| {
                    let table_sims = &table_sims;
                    target.schema.iter_attributes().map(move |(tt, ta, t_attr)| {
                        // Attribute name similarity, boosted by
                        // table-context similarity so `albums.name`
                        // prefers `records.title` over `tracks.title`.
                        let attr_sim = name_similarity(&s_attr.name, &t_attr.name);
                        let name_score = 0.8 * attr_sim + 0.2 * table_sims[st.0][tt.0];
                        ((st, sa), (tt, ta), name_score)
                    })
                })
                .collect();
            exhaustive
        };
        let pairs_total =
            source.schema.iter_attributes().count() * target.schema.iter_attributes().count();
        let stats = MatchStats {
            pairs_total,
            pairs_pruned: pairs_total - pairs.len(),
            pairs_scored: pairs.len(),
        };

        let mut scored: Vec<ProposedMatch> = parallel_map(mode, pairs, |(s, t, name_score)| {
            let score = if self.config.use_instances
                && !source.instance.table(s.0).is_empty()
                && !target.instance.table(t.0).is_empty()
            {
                run.check()?;
                let inst = instance_similarity_cached_ctx(
                    run,
                    source,
                    DbTag(0),
                    s,
                    target,
                    DbTag::TARGET,
                    t,
                    cache,
                )?;
                self.config.name_weight * name_score + (1.0 - self.config.name_weight) * inst
            } else {
                name_score
            };
            Ok(ProposedMatch {
                source: s,
                target: t,
                score,
            })
        })
        .into_iter()
        .collect::<Result<Vec<ProposedMatch>, Cancelled>>()?
        .into_iter()
        .filter(|m| m.score >= self.config.attr_threshold)
        .collect();
        // Greedy 1:1: best scores first; deterministic tie-break by ids.
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.source.cmp(&b.source))
                .then_with(|| a.target.cmp(&b.target))
        });
        let mut used_source = std::collections::HashSet::new();
        let mut used_target = std::collections::HashSet::new();
        let accepted = scored
            .into_iter()
            .filter(|m| {
                if used_source.contains(&m.source) || used_target.contains(&m.target) {
                    return false;
                }
                used_source.insert(m.source);
                used_target.insert(m.target);
                true
            })
            .collect();
        Ok((accepted, stats))
    }

    /// The pruning front end: exact name scores for every pair whose
    /// score *bound* can still reach `attr_threshold`, skipping the rest.
    ///
    /// Soundness: the [`NameIndex`] bound dominates the exact attribute
    /// similarity, the pair bound is assembled by the same monotone
    /// expression shapes as the real score (`0.8·attr + 0.2·table`, then
    /// `w·name + (1-w)·instance` with `instance ≤ 1`), and the
    /// comparison keeps [`BOUND_SLACK`] of headroom — so every dropped
    /// pair would have scored below the threshold and been filtered.
    fn pruned_name_scores(
        &self,
        source: &Database,
        target: &Database,
        table_sims: &[Vec<f64>],
        mode: ExecutionMode,
    ) -> Vec<NameScoredPair> {
        let s_attrs: Vec<((TableId, AttrId), &str)> = source
            .schema
            .iter_attributes()
            .map(|(st, sa, a)| ((st, sa), a.name.as_str()))
            .collect();
        let t_attrs: Vec<((TableId, AttrId), &str)> = target
            .schema
            .iter_attributes()
            .map(|(tt, ta, a)| ((tt, ta), a.name.as_str()))
            .collect();
        // Attribute names repeat heavily (`id`, `name`, …): bound and
        // score per *unique* name pair, then scatter.
        let (s_name_ids, s_uniq) = intern_names(&s_attrs);
        let (t_name_ids, t_uniq) = intern_names(&t_attrs);
        let index = NameIndex::build(&t_uniq);
        let bound_rows: Vec<Vec<f64>> =
            parallel_map_ref(mode, &s_uniq, |name| index.upper_bounds(name));

        let w = self.config.name_weight;
        let threshold = self.config.attr_threshold;
        let s_nonempty: Vec<bool> = (0..source.schema.table_count())
            .map(|t| !source.instance.table(TableId(t)).is_empty())
            .collect();
        let t_nonempty: Vec<bool> = (0..target.schema.table_count())
            .map(|t| !target.instance.table(TableId(t)).is_empty())
            .collect();

        let mut survivors: Vec<(usize, usize)> = Vec::new();
        let mut needed: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for (si, ((st, _), _)) in s_attrs.iter().enumerate() {
            let bounds = &bound_rows[s_name_ids[si] as usize];
            for (ti, ((tt, _), _)) in t_attrs.iter().enumerate() {
                let attr_bound = bounds[t_name_ids[ti] as usize];
                let name_bound = 0.8 * attr_bound + 0.2 * table_sims[st.0][tt.0];
                let instances = self.config.use_instances && s_nonempty[st.0] && t_nonempty[tt.0];
                let score_bound = if instances {
                    // Instance similarity is at most 1.
                    w * name_bound + (1.0 - w)
                } else {
                    name_bound
                };
                if score_bound + BOUND_SLACK >= threshold {
                    survivors.push((si, ti));
                    needed.insert((s_name_ids[si], t_name_ids[ti]));
                }
            }
        }

        // Exact attribute-name similarity, once per surviving unique
        // name pair.
        let needed: Vec<(u32, u32)> = needed.into_iter().collect();
        let sims: std::collections::HashMap<(u32, u32), f64> =
            parallel_map(mode, needed, |(a, b)| {
                ((a, b), name_similarity(s_uniq[a as usize], t_uniq[b as usize]))
            })
            .into_iter()
            .collect();
        survivors
            .into_iter()
            .map(|(si, ti)| {
                let (s, _) = s_attrs[si];
                let (t, _) = t_attrs[ti];
                let attr_sim = sims[&(s_name_ids[si], t_name_ids[ti])];
                let name_score = 0.8 * attr_sim + 0.2 * table_sims[s.0 .0][t.0 .0];
                (s, t, name_score)
            })
            .collect()
    }

    /// Derive table correspondences from accepted attribute matches: a
    /// source table corresponds to the target table that won most of its
    /// attributes (ties by aggregate score).
    pub fn propose_table_matches(
        &self,
        source: &Database,
        target: &Database,
        attr_matches: &[ProposedMatch],
    ) -> Vec<(TableId, TableId, f64)> {
        use std::collections::HashMap;
        let mut votes: HashMap<(TableId, TableId), (usize, f64)> = HashMap::new();
        for m in attr_matches {
            let e = votes.entry((m.source.0, m.target.0)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += m.score;
        }
        let mut out: Vec<(TableId, TableId, f64)> = Vec::new();
        for st in 0..source.schema.table_count() {
            let st = TableId(st);
            let mut best: Option<(TableId, f64)> = None;
            for tt in 0..target.schema.table_count() {
                let tt = TableId(tt);
                if let Some((n, s)) = votes.get(&(st, tt)) {
                    let arity = source.schema.table(st).arity().max(1);
                    let coverage = *n as f64 / arity as f64;
                    let score = 0.5 * coverage
                        + 0.3 * (s / *n as f64)
                        + 0.2 * name_similarity(
                            &source.schema.table(st).name,
                            &target.schema.table(tt).name,
                        );
                    if best.is_none_or(|(_, bs)| score > bs) {
                        best = Some((tt, score));
                    }
                }
            }
            if let Some((tt, score)) = best {
                if score >= self.config.table_threshold {
                    out.push((st, tt, score));
                }
            }
        }
        out
    }

    /// Run the full matcher and emit a [`CorrespondenceSet`] for a
    /// single-source scenario.
    pub fn match_databases(&self, source: &Database, target: &Database) -> CorrespondenceSet {
        let attr_matches = self.propose_attribute_matches(source, target);
        let table_matches = self.propose_table_matches(source, target, &attr_matches);
        let mut set = CorrespondenceSet::new();
        for (st, tt, _) in &table_matches {
            set.push(Correspondence::Table {
                source: SourceId(0),
                source_table: *st,
                target_table: *tt,
            });
        }
        for m in &attr_matches {
            set.push(Correspondence::Attribute {
                source: SourceId(0),
                source_attr: efes_relational::AttrRef {
                    table: m.source.0,
                    attr: m.source.1,
                },
                target_attr: efes_relational::AttrRef {
                    table: m.target.0,
                    attr: m.target.1,
                },
            });
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efes_relational::{DataType, DatabaseBuilder};

    fn source() -> Database {
        DatabaseBuilder::new("src")
            .table("albums", |t| {
                t.attr("id", DataType::Integer)
                    .attr("name", DataType::Text)
                    .attr("genre", DataType::Text)
            })
            .rows(
                "albums",
                vec![
                    vec![1.into(), "Second Helping".into(), "rock".into()],
                    vec![2.into(), "Recovery".into(), "rap".into()],
                ],
            )
            .build()
            .unwrap()
    }

    fn target() -> Database {
        DatabaseBuilder::new("tgt")
            .table("records", |t| {
                t.attr("id", DataType::Integer)
                    .attr("title", DataType::Text)
                    .attr("genre", DataType::Text)
            })
            .rows(
                "records",
                vec![
                    vec![7.into(), "Nevermind".into(), "rock".into()],
                    vec![8.into(), "Horses".into(), "rock".into()],
                ],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn matches_synonymous_attributes_one_to_one() {
        let m = CombinedMatcher::new(MatcherConfig::default());
        let matches = m.propose_attribute_matches(&source(), &target());
        // genre↔genre, id↔id, name↔title all expected.
        assert_eq!(matches.len(), 3);
        let mut seen_targets = std::collections::HashSet::new();
        for pm in &matches {
            assert!(seen_targets.insert(pm.target), "1:1 violated");
        }
        let name_title = matches.iter().find(|pm| {
            pm.source == (TableId(0), AttrId(1)) && pm.target == (TableId(0), AttrId(1))
        });
        assert!(name_title.is_some(), "{matches:?}");
    }

    #[test]
    fn table_correspondence_derived_from_attributes() {
        let m = CombinedMatcher::new(MatcherConfig::default());
        let s = source();
        let t = target();
        let attrs = m.propose_attribute_matches(&s, &t);
        let tables = m.propose_table_matches(&s, &t, &attrs);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].0, TableId(0));
        assert_eq!(tables[0].1, TableId(0));
    }

    #[test]
    fn emitted_correspondences_validate_in_scenario() {
        let m = CombinedMatcher::new(MatcherConfig::default());
        let s = source();
        let t = target();
        let set = m.match_databases(&s, &t);
        assert!(set.len() >= 4); // 1 table + 3 attributes
        let scenario = efes_relational::IntegrationScenario::single_source("auto", s, t, set);
        assert!(scenario.is_ok());
    }

    #[test]
    fn name_only_mode_works_on_empty_instances() {
        let cfg = MatcherConfig {
            use_instances: false,
            ..MatcherConfig::default()
        };
        let m = CombinedMatcher::new(cfg);
        let s = DatabaseBuilder::new("s")
            .table("albums", |t| t.attr("name", DataType::Text))
            .build()
            .unwrap();
        let t = DatabaseBuilder::new("t")
            .table("records", |t| t.attr("title", DataType::Text))
            .build()
            .unwrap();
        let matches = m.propose_attribute_matches(&s, &t);
        assert_eq!(matches.len(), 1);
    }
}
