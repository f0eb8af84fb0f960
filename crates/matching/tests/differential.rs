//! Differential tests for the two matcher fast paths, replayed over
//! every scenario in the standard registry:
//!
//! * candidate pruning ([`PrunePolicy::On`]) must emit the *identical*
//!   `ProposedMatch` sequence as the exhaustive path
//!   ([`PrunePolicy::Off`]) — same pairs, same order, bit-identical
//!   scores;
//! * the sparse flooding engine must reproduce the retained reference
//!   implementation bit-for-bit.

use efes_matching::flooding::{
    similarity_flooding, similarity_flooding_reference, FloodingConfig,
};
use efes_matching::{CombinedMatcher, MatcherConfig, PrunePolicy};
use efes_profiling::ProfileCache;
use efes_scenarios::standard_registry;

fn configs() -> Vec<MatcherConfig> {
    vec![
        MatcherConfig::default(),
        MatcherConfig {
            attr_threshold: 0.3,
            ..MatcherConfig::default()
        },
        MatcherConfig {
            attr_threshold: 0.8,
            name_weight: 0.9,
            ..MatcherConfig::default()
        },
        MatcherConfig {
            use_instances: false,
            ..MatcherConfig::default()
        },
    ]
}

#[test]
fn pruned_matching_equals_exhaustive_on_every_registry_scenario() {
    let registry = standard_registry();
    let names = registry.names();
    assert!(names.len() >= 10, "registry shrank: {names:?}");
    for name in names {
        let scenario = registry.get(name).unwrap();
        for config in configs() {
            for (src_idx, source) in scenario.sources.iter().enumerate() {
                let exhaustive = CombinedMatcher::new(config.clone())
                    .with_prune(PrunePolicy::Off)
                    .propose_attribute_matches(source, &scenario.target);
                let (pruned, stats) = CombinedMatcher::new(config.clone())
                    .with_prune(PrunePolicy::On)
                    .propose_attribute_matches_stats(
                        source,
                        &scenario.target,
                        &ProfileCache::new(),
                        efes_exec::ExecutionMode::from_env(),
                    );
                assert_eq!(
                    exhaustive.len(),
                    pruned.len(),
                    "{name} source {src_idx}: match count diverged"
                );
                for (e, p) in exhaustive.iter().zip(&pruned) {
                    assert_eq!(e.source, p.source, "{name} source {src_idx}");
                    assert_eq!(e.target, p.target, "{name} source {src_idx}");
                    assert_eq!(
                        e.score.to_bits(),
                        p.score.to_bits(),
                        "{name} source {src_idx}: {:?} scored {} pruned vs {} exhaustive",
                        e.source,
                        p.score,
                        e.score
                    );
                }
                assert_eq!(stats.pairs_total, stats.pairs_pruned + stats.pairs_scored);
            }
        }
    }
}

#[test]
fn pruning_actually_prunes_on_registry_scenarios() {
    // Not just correct but useful: across the registry the default
    // matcher (pruning on) must discard a substantial share of the pair
    // grid at the default threshold.
    let registry = standard_registry();
    let (mut total, mut pruned) = (0usize, 0usize);
    for name in registry.names() {
        let scenario = registry.get(name).unwrap();
        for source in &scenario.sources {
            let (_, stats) = CombinedMatcher::new(MatcherConfig::default())
                .propose_attribute_matches_stats(
                    source,
                    &scenario.target,
                    &ProfileCache::new(),
                    efes_exec::ExecutionMode::from_env(),
                );
            total += stats.pairs_total;
            pruned += stats.pairs_pruned;
        }
    }
    assert!(total > 0);
    let ratio = pruned as f64 / total as f64;
    assert!(
        ratio > 0.2,
        "pruning removed only {pruned}/{total} pairs ({ratio:.2})"
    );
}

#[test]
fn sparse_flooding_equals_reference_on_every_registry_scenario() {
    let registry = standard_registry();
    let config = FloodingConfig::default();
    for name in registry.names() {
        let scenario = registry.get(name).unwrap();
        for (src_idx, source) in scenario.sources.iter().enumerate() {
            let sparse = similarity_flooding(source, &scenario.target, &config);
            let reference = similarity_flooding_reference(source, &scenario.target, &config);
            assert_eq!(sparse.len(), reference.len(), "{name} source {src_idx}");
            for (pair, v) in &sparse {
                let r = reference[pair];
                assert_eq!(
                    v.to_bits(),
                    r.to_bits(),
                    "{name} source {src_idx} {pair:?}: sparse {v} != reference {r}"
                );
            }
        }
    }
}
