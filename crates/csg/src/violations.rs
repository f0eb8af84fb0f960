//! The structure conflict detector: compare matched source relationships
//! against prescribed target cardinalities and count violating elements
//! in the source data (paper §4.1, Table 3).

use crate::cardinality::Cardinality;
use crate::convert::CsgConversion;
use crate::expr::RelExpr;
use crate::graph::{Direction, RelKind, RelRef};
use crate::matching::RelationshipMatch;
use serde::{Deserialize, Serialize};

/// Classification of a structural conflict — the left column of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConflictKind {
    /// A tuple lacks a required attribute value (`Not null violated`).
    NotNullViolated,
    /// A value is shared by more tuples than a unique constraint allows
    /// (`Unique violated`).
    UniqueViolated,
    /// A tuple carries more values for an attribute than the target can
    /// store (`Multiple attribute values`) — Example 3.2's multi-artist
    /// albums.
    MultipleAttributeValues,
    /// A value has no enclosing tuple (`Value w/o enclosing tuple`) —
    /// Example 3.2's artists without albums.
    ValueWithoutEnclosingTuple,
    /// A foreign-key value dangles (`FK violated`).
    FkViolated,
}

impl ConflictKind {
    /// Human-readable name as used in the paper's Table 4.
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::NotNullViolated => "Not null violated",
            ConflictKind::UniqueViolated => "Unique violated",
            ConflictKind::MultipleAttributeValues => "Multiple attribute values",
            ConflictKind::ValueWithoutEnclosingTuple => "Value w/o enclosing tuple",
            ConflictKind::FkViolated => "FK violated",
        }
    }
}

/// One structural conflict: a target-relationship reading whose matched
/// source relationship is less concise than prescribed, together with the
/// number of actually conflicting source elements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StructuralConflict {
    /// Index of the target relationship within the target CSG.
    pub target_rel: usize,
    /// Which reading of it is violated.
    pub direction: Direction,
    /// The prescribed cardinality on the target schema.
    pub prescribed: Cardinality,
    /// The inferred cardinality of the matched source relationship.
    pub inferred: Cardinality,
    /// The *observed* cardinality of the source data: the hull of actual
    /// per-element link counts, always a finite `Cardinality::range` (a
    /// conflict is only emitted after some element's count was seen).
    /// This is what the virtual CSG instance is annotated with (Figure
    /// 5's left-hand-side cardinalities).
    pub observed: Cardinality,
    /// Conflict class (drives task selection, Table 4).
    pub kind: ConflictKind,
    /// Number of source elements violating the prescription —
    /// *"determining the number of actually conflicting data elements"*.
    pub violation_count: u64,
    /// Of those, elements with too few links (e.g. zero artists).
    pub too_few: u64,
    /// Of those, elements with too many links (e.g. several artists).
    pub too_many: u64,
    /// `κ(ρ_label) = prescribed` rendering, e.g.
    /// `κ(records→artist) = 1` (Table 3's left column).
    pub constraint_label: String,
}

/// Classify a violated reading into its [`ConflictKind`].
fn classify(
    rel_kind: RelKind,
    direction: Direction,
    too_few: u64,
    too_many: u64,
) -> ConflictKind {
    match (rel_kind, direction) {
        (RelKind::Attribute, Direction::Forward) => {
            // tuple → value: too many values per tuple dominates (the
            // paper reports Example 3.2's 503 as one multiple-values
            // conflict); pure shortfalls are not-null violations.
            if too_many > 0 {
                ConflictKind::MultipleAttributeValues
            } else {
                ConflictKind::NotNullViolated
            }
        }
        (RelKind::Attribute, Direction::Backward) => {
            // value → tuple: detached values vs uniqueness.
            if too_few > 0 {
                ConflictKind::ValueWithoutEnclosingTuple
            } else {
                ConflictKind::UniqueViolated
            }
        }
        (RelKind::Equality, _) => ConflictKind::FkViolated,
    }
}

/// Detect all structural conflicts for a set of relationship matches.
///
/// For each matched target relationship and each reading direction, when
/// the inferred source cardinality is not a subset of the prescribed one,
/// the matched source expression is evaluated on the source instance and
/// the elements whose link count falls outside the prescription are
/// counted.
pub fn detect_conflicts(
    target_conv: &CsgConversion,
    source_conv: &CsgConversion,
    matches: &[RelationshipMatch],
) -> Vec<StructuralConflict> {
    let run = efes_exec::RunContext::unbounded();
    detect_conflicts_ctx(target_conv, source_conv, matches, &run)
        .expect("unbounded context never cancels")
}

/// Like [`detect_conflicts`], but cancellable: the counting
/// evaluations (the dominant cost on large sources) tick the run's
/// checkpoint and abort promptly when it fires.
pub fn detect_conflicts_ctx(
    target_conv: &CsgConversion,
    source_conv: &CsgConversion,
    matches: &[RelationshipMatch],
    run: &efes_exec::RunContext,
) -> Result<Vec<StructuralConflict>, efes_exec::Cancelled> {
    let ck = run.checkpoint();
    let mut out = Vec::new();
    for m in matches {
        let rel = m.target.rel;
        let rel_kind = target_conv.csg.relationship(rel).kind;
        for (direction, inferred) in [
            (Direction::Forward, &m.inferred_fwd),
            (Direction::Backward, &m.inferred_bwd),
        ] {
            let reading = RelRef { rel, dir: direction };
            let prescribed = target_conv.csg.card_of(reading).clone();
            if inferred.is_subset(&prescribed) {
                continue;
            }
            // Count actual offenders in the source data.
            let (expr, domain) = match direction {
                Direction::Forward => (
                    m.source_expr.clone(),
                    m.source_expr.start(&source_conv.csg),
                ),
                Direction::Backward => {
                    let reversed = reverse_expr(&m.source_expr);
                    let d = reversed.start(&source_conv.csg);
                    (reversed, d)
                }
            };
            let Some(domain) = domain else { continue };
            // Shared+memoised counting evaluation: repeated expressions
            // within one detection run (and any later evaluation against
            // the same unmutated instance) hit the memo instead of
            // re-sweeping the CSR adjacency.
            let counts = source_conv
                .instance
                .link_counts_shared_ctx(&expr, domain, &ck)?;
            let (Some(&lo), Some(&hi)) = (counts.iter().min(), counts.iter().max()) else {
                continue; // no domain elements: vacuously fine
            };
            let mut too_few = 0u64;
            let mut too_many = 0u64;
            let min = prescribed.min().unwrap_or(0);
            let max = prescribed.max().flatten();
            for &c in counts.iter() {
                if prescribed.contains(c) {
                    continue;
                }
                if c < min {
                    too_few += 1;
                } else if max.is_some_and(|mx| c > mx) {
                    too_many += 1;
                } else {
                    // Inside the hull but in a gap — rare; count as short.
                    too_few += 1;
                }
            }
            let violation_count = too_few + too_many;
            if violation_count == 0 {
                continue; // schema-level risk, but no conflicting data
            }
            let kind = classify(rel_kind, direction, too_few, too_many);
            let constraint_label = format!(
                "κ({}) = {}",
                target_conv.csg.reading_label(reading),
                prescribed
            );
            out.push(StructuralConflict {
                target_rel: rel.0,
                direction,
                prescribed,
                inferred: inferred.clone(),
                observed: Cardinality::range(lo, hi),
                kind,
                violation_count,
                too_few,
                too_many,
                constraint_label,
            });
        }
    }
    Ok(out)
}

/// Reverse a composition chain; other operators reverse structurally.
fn reverse_expr(e: &RelExpr) -> RelExpr {
    match e {
        RelExpr::Atomic(r) => RelExpr::Atomic(r.reverse()),
        RelExpr::Compose(a, b) => {
            RelExpr::Compose(Box::new(reverse_expr(b)), Box::new(reverse_expr(a)))
        }
        RelExpr::Union(a, b, m) => RelExpr::Union(
            Box::new(reverse_expr(a)),
            Box::new(reverse_expr(b)),
            *m,
        ),
        RelExpr::Join(a, b) => RelExpr::Join(Box::new(reverse_expr(a)), Box::new(reverse_expr(b))),
        RelExpr::Collateral(a, b) => {
            RelExpr::Collateral(Box::new(reverse_expr(a)), Box::new(reverse_expr(b)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::database_to_csg;
    use crate::matching::{match_relationships, NodeCorrespondences};
    use efes_relational::{DataType, DatabaseBuilder, Database};

    /// A scaled-down Example 3.2: albums with 0 or 2 artists, plus a
    /// detached artist. Source: albums(id, name) + credits(album, artist).
    fn source_db() -> Database {
        DatabaseBuilder::new("src")
            .table("albums", |t| {
                t.attr("id", DataType::Integer)
                    .attr("name", DataType::Text)
                    .primary_key(&["id"])
                    .not_null("name")
            })
            .table("credits", |t| {
                t.attr("album", DataType::Integer)
                    .attr("artist", DataType::Text)
                    .foreign_key(&["album"], "albums", &["id"])
                    .not_null("artist")
            })
            .rows(
                "albums",
                vec![
                    vec![1.into(), "Duo Album".into()],   // two artists
                    vec![2.into(), "Empty Album".into()], // zero artists
                    vec![3.into(), "Solo Album".into()],  // exactly one
                ],
            )
            .rows(
                "credits",
                vec![
                    vec![1.into(), "Alice".into()],
                    vec![1.into(), "Bob".into()],
                    vec![3.into(), "Carol".into()],
                ],
            )
            .build()
            .unwrap()
    }

    fn target_db() -> Database {
        DatabaseBuilder::new("tgt")
            .table("records", |t| {
                t.attr("id", DataType::Integer)
                    .attr("title", DataType::Text)
                    .attr("artist", DataType::Text)
                    .primary_key(&["id"])
                    .not_null("title")
                    .not_null("artist")
            })
            .build()
            .unwrap()
    }

    fn setup() -> (CsgConversion, CsgConversion, Vec<RelationshipMatch>) {
        let src = source_db();
        let tgt = target_db();
        let src_conv = database_to_csg(&src);
        let tgt_conv = database_to_csg(&tgt);
        let mut corr = NodeCorrespondences::new();
        // records ⇝ albums, records.id ⇝ albums.id, records.title ⇝
        // albums.name, records.artist ⇝ credits.artist.
        corr.insert(
            tgt_conv.csg.node_by_name("records").unwrap(),
            src_conv.csg.node_by_name("albums").unwrap(),
        );
        corr.insert(
            tgt_conv.csg.node_by_name("records.id").unwrap(),
            src_conv.csg.node_by_name("albums.id").unwrap(),
        );
        corr.insert(
            tgt_conv.csg.node_by_name("records.title").unwrap(),
            src_conv.csg.node_by_name("albums.name").unwrap(),
        );
        corr.insert(
            tgt_conv.csg.node_by_name("records.artist").unwrap(),
            src_conv.csg.node_by_name("credits.artist").unwrap(),
        );
        let matches = match_relationships(&tgt_conv.csg, &src_conv.csg, &corr);
        (tgt_conv, src_conv, matches)
    }

    #[test]
    fn detects_multi_artist_and_detached_artist_conflicts() {
        let (tgt, src, matches) = setup();
        let conflicts = detect_conflicts(&tgt, &src, &matches);
        // records→artist = 1 violated by albums 1 (two artists) and 2
        // (zero artists): count 2, classified as multiple values.
        let fwd = conflicts
            .iter()
            .find(|c| {
                c.direction == Direction::Forward
                    && c.constraint_label.contains("records→records.artist")
            })
            .expect("forward conflict");
        assert_eq!(fwd.violation_count, 2);
        assert_eq!(fwd.too_many, 1);
        assert_eq!(fwd.too_few, 1);
        assert_eq!(fwd.kind, ConflictKind::MultipleAttributeValues);
        assert_eq!(fwd.prescribed, Cardinality::one());
    }

    #[test]
    fn no_conflicts_for_identical_schema() {
        let tgt = target_db();
        let tgt_conv = database_to_csg(&tgt);
        let mut corr = NodeCorrespondences::new();
        for (i, _) in tgt_conv.csg.nodes().iter().enumerate() {
            corr.insert(crate::graph::NodeId(i), crate::graph::NodeId(i));
        }
        let matches = match_relationships(&tgt_conv.csg, &tgt_conv.csg, &corr);
        let conflicts = detect_conflicts(&tgt_conv, &tgt_conv, &matches);
        assert!(conflicts.is_empty(), "identical schemas must be clean: {conflicts:?}");
    }

    #[test]
    fn conflicts_carry_readable_labels() {
        let (tgt, src, matches) = setup();
        let conflicts = detect_conflicts(&tgt, &src, &matches);
        assert!(conflicts
            .iter()
            .all(|c| c.constraint_label.starts_with("κ(")));
    }

    #[test]
    fn reverse_expr_round_trips() {
        let (tgt, src, matches) = setup();
        let _ = tgt;
        for m in &matches {
            let rev = reverse_expr(&m.source_expr);
            let back = reverse_expr(&rev);
            assert_eq!(back.render(&src.csg), m.source_expr.render(&src.csg));
        }
    }
}
