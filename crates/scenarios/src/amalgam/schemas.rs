//! The four bibliographic schemas (s1…s4) with seeded data generators.
//!
//! Normalisation levels:
//!
//! * **s1** — fine-grained research-database style: 13 relations
//!   (persons, papers, writes, venues, publications, journals, articles,
//!   keywords, paper_keywords, institutions, affiliations, abstracts,
//!   citations);
//! * **s2** — flat digital-library export: 5 relations with concatenated
//!   author lists, textual years, spelled-out venues and `pp. n–m` page
//!   strings;
//! * **s3** — mid-level: 8 relations, `Last, First` author names,
//!   numeric page ranges split into two columns;
//! * **s4** — mid-level: 8 relations, `First Last` names, `n-m` page
//!   strings — the recurring target.

use crate::names;
use efes_relational::{DataType, Database, DatabaseBuilder, Value};
use rand::rngs::StdRng;
use rand::Rng;

/// Per-schema data sizes and injected-problem counts.
#[derive(Debug, Clone, Copy)]
pub struct BibSizes {
    /// Papers/publications in the instance.
    pub papers: usize,
    /// Persons/authors in the instance.
    pub persons: usize,
    /// Papers with two or more authors (s1 only; flat targets can hold
    /// one author value).
    pub multi_author_papers: usize,
    /// Papers with a NULL year (sources with nullable year).
    pub missing_years: usize,
    /// Persons who author no paper.
    pub detached_persons: usize,
}

impl BibSizes {
    /// The default instance sizes used by the evaluation.
    pub fn default_sizes() -> Self {
        BibSizes {
            papers: 220,
            persons: 160,
            multi_author_papers: 85,
            missing_years: 34,
            detached_persons: 41,
        }
    }

    /// Small sizes for fast unit tests.
    pub fn small() -> Self {
        BibSizes {
            papers: 30,
            persons: 22,
            multi_author_papers: 8,
            missing_years: 5,
            detached_persons: 6,
        }
    }
}

fn venue_acronym(i: usize) -> &'static str {
    names::VENUES[i % names::VENUES.len()].0
}

fn venue_full(i: usize) -> &'static str {
    names::VENUES[i % names::VENUES.len()].1
}

fn person_name(rng: &mut StdRng) -> (String, String) {
    names::full_name(rng)
}

fn pages(rng: &mut StdRng) -> (i64, i64) {
    let from = rng.gen_range(1i64..1200);
    (from, from + rng.gen_range(6i64..28))
}

fn year(rng: &mut StdRng) -> i64 {
    rng.gen_range(1988..2015)
}

/// s1 — the fine-grained schema. Author names are `First Last`; pages
/// are `from-to` strings; years are nullable integers.
pub fn build_s1(sizes: &BibSizes, rng: &mut StdRng) -> Database {
    let mut db = DatabaseBuilder::new("s1")
        .table("persons", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .primary_key(&["id"])
                .not_null("name")
        })
        .table("papers", |t| {
            t.attr("id", DataType::Integer)
                .attr("title", DataType::Text)
                .attr("year", DataType::Integer)
                .primary_key(&["id"])
                .not_null("title")
        })
        .table("writes", |t| {
            t.attr("paper", DataType::Integer)
                .attr("person", DataType::Integer)
                .attr("position", DataType::Integer)
                .not_null("paper")
                .not_null("person")
                .foreign_key(&["paper"], "papers", &["id"])
                .foreign_key(&["person"], "persons", &["id"])
        })
        .table("venues", |t| {
            t.attr("id", DataType::Integer)
                .attr("acronym", DataType::Text)
                .attr("full_name", DataType::Text)
                .primary_key(&["id"])
                .not_null("acronym")
        })
        .table("publications", |t| {
            t.attr("paper", DataType::Integer)
                .attr("venue", DataType::Integer)
                .attr("pages", DataType::Text)
                .not_null("paper")
                .not_null("venue")
                .foreign_key(&["paper"], "papers", &["id"])
                .foreign_key(&["venue"], "venues", &["id"])
        })
        .table("journals", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("publisher", DataType::Text)
                .primary_key(&["id"])
        })
        .table("articles", |t| {
            t.attr("paper", DataType::Integer)
                .attr("journal", DataType::Integer)
                .attr("volume", DataType::Integer)
                .attr("number", DataType::Integer)
                .foreign_key(&["paper"], "papers", &["id"])
                .foreign_key(&["journal"], "journals", &["id"])
        })
        .table("keywords", |t| {
            t.attr("id", DataType::Integer)
                .attr("word", DataType::Text)
                .primary_key(&["id"])
                .not_null("word")
        })
        .table("paper_keywords", |t| {
            t.attr("paper", DataType::Integer)
                .attr("keyword", DataType::Integer)
                .foreign_key(&["paper"], "papers", &["id"])
                .foreign_key(&["keyword"], "keywords", &["id"])
        })
        .table("institutions", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("country", DataType::Text)
                .primary_key(&["id"])
        })
        .table("affiliations", |t| {
            t.attr("person", DataType::Integer)
                .attr("institution", DataType::Integer)
                .foreign_key(&["person"], "persons", &["id"])
                .foreign_key(&["institution"], "institutions", &["id"])
        })
        .table("abstracts", |t| {
            t.attr("paper", DataType::Integer)
                .attr("text", DataType::Text)
                .foreign_key(&["paper"], "papers", &["id"])
        })
        .table("citations", |t| {
            t.attr("citing", DataType::Integer)
                .attr("cited", DataType::Integer)
                .foreign_key(&["citing"], "papers", &["id"])
                .foreign_key(&["cited"], "papers", &["id"])
        })
        .build()
        .unwrap();

    for p in 0..sizes.persons {
        let (first, last) = person_name(rng);
        db.insert_by_name(
            "persons",
            vec![(p as i64).into(), format!("{first} {last}").into()],
        )
        .unwrap();
    }
    for v in 0..names::VENUES.len() {
        db.insert_by_name(
            "venues",
            vec![
                (v as i64).into(),
                venue_acronym(v).into(),
                venue_full(v).into(),
            ],
        )
        .unwrap();
    }
    for j in 0..6i64 {
        db.insert_by_name(
            "journals",
            vec![j.into(), names::title(rng).into(), names::title(rng).into()],
        )
        .unwrap();
    }
    for k in 0..30i64 {
        db.insert_by_name(
            "keywords",
            vec![
                k.into(),
                names::TITLE_WORDS[k as usize % names::TITLE_WORDS.len()].into(),
            ],
        )
        .unwrap();
    }
    for i in 0..12i64 {
        db.insert_by_name(
            "institutions",
            vec![
                i.into(),
                format!("{} Institute", names::title(rng)).into(),
                "N/A".into(),
            ],
        )
        .unwrap();
    }

    // Papers: the first `missing_years` have NULL years.
    for p in 0..sizes.papers {
        let y: Value = if p < sizes.missing_years {
            Value::Null
        } else {
            year(rng).into()
        };
        db.insert_by_name(
            "papers",
            vec![(p as i64).into(), names::title(rng).into(), y],
        )
        .unwrap();
        let (from, to) = pages(rng);
        db.insert_by_name(
            "publications",
            vec![
                (p as i64).into(),
                ((p % names::VENUES.len()) as i64).into(),
                format!("{from}-{to}").into(),
            ],
        )
        .unwrap();
        db.insert_by_name(
            "paper_keywords",
            vec![(p as i64).into(), ((p % 30) as i64).into()],
        )
        .unwrap();
        if p % 3 == 0 {
            db.insert_by_name(
                "abstracts",
                vec![(p as i64).into(), names::title(rng).into()],
            )
            .unwrap();
        }
        if p > 0 {
            db.insert_by_name(
                "citations",
                vec![(p as i64).into(), ((p - 1) as i64).into()],
            )
            .unwrap();
        }
    }

    // Authorship: the last `detached_persons` persons author nothing;
    // the first `multi_author_papers` papers get two authors, the rest
    // exactly one, all drawn from the attached-person prefix.
    let attached = sizes.persons - sizes.detached_persons;
    assert!(attached >= 2, "need at least two attached persons");
    for p in 0..sizes.papers {
        let a1 = p % attached;
        db.insert_by_name(
            "writes",
            vec![(p as i64).into(), (a1 as i64).into(), 0.into()],
        )
        .unwrap();
        if p < sizes.multi_author_papers {
            let a2 = (p + 1) % attached;
            db.insert_by_name(
                "writes",
                vec![(p as i64).into(), (a2 as i64).into(), 1.into()],
            )
            .unwrap();
        }
    }
    for p in 0..attached.min(24) {
        db.insert_by_name(
            "affiliations",
            vec![(p as i64).into(), ((p % 12) as i64).into()],
        )
        .unwrap();
    }
    db
}

/// s2 — the flat schema: single author-list field (NN), textual years,
/// spelled-out venue names, `pp. n-m` page strings.
pub fn build_s2(sizes: &BibSizes, rng: &mut StdRng) -> Database {
    let mut db = DatabaseBuilder::new("s2")
        .table("publications", |t| {
            t.attr("id", DataType::Integer)
                .attr("title", DataType::Text)
                .attr("author_names", DataType::Text)
                .attr("year", DataType::Text)
                .attr("venue", DataType::Text)
                .attr("pages", DataType::Text)
                .primary_key(&["id"])
                .not_null("title")
                .not_null("author_names")
                .not_null("year")
        })
        .table("people", |t| {
            t.attr("id", DataType::Integer)
                .attr("full_name", DataType::Text)
                .attr("affiliation", DataType::Text)
                .primary_key(&["id"])
                .not_null("full_name")
        })
        .table("sources", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("kind", DataType::Text)
                .primary_key(&["id"])
        })
        .table("notes", |t| {
            t.attr("publication", DataType::Integer)
                .attr("note", DataType::Text)
                .foreign_key(&["publication"], "publications", &["id"])
        })
        .table("tags", |t| {
            t.attr("publication", DataType::Integer)
                .attr("tag", DataType::Text)
                .foreign_key(&["publication"], "publications", &["id"])
        })
        .build()
        .unwrap();

    for p in 0..sizes.papers {
        let (f, l) = person_name(rng);
        let (from, to) = pages(rng);
        db.insert_by_name(
            "publications",
            vec![
                (p as i64).into(),
                names::title(rng).into(),
                format!("{f} {l}").into(),
                year(rng).to_string().into(),
                venue_full(p).into(),
                format!("pp. {from}-{to}").into(),
            ],
        )
        .unwrap();
        if p % 4 == 0 {
            db.insert_by_name(
                "tags",
                vec![
                    (p as i64).into(),
                    names::TITLE_WORDS[p % names::TITLE_WORDS.len()].into(),
                ],
            )
            .unwrap();
        }
    }
    for p in 0..sizes.persons {
        let (f, l) = person_name(rng);
        db.insert_by_name(
            "people",
            vec![
                (p as i64).into(),
                format!("{f} {l}").into(),
                format!("{} Institute", names::title(rng)).into(),
            ],
        )
        .unwrap();
    }
    for s in 0..4i64 {
        db.insert_by_name(
            "sources",
            vec![s.into(), names::title(rng).into(), "library".into()],
        )
        .unwrap();
    }
    db
}

/// s3 — mid-level: `Last, First` names, split numeric page columns,
/// nullable years.
pub fn build_s3(sizes: &BibSizes, rng: &mut StdRng) -> Database {
    let mut db = DatabaseBuilder::new("s3")
        .table("authors", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .primary_key(&["id"])
                .not_null("name")
        })
        .table("pubs", |t| {
            t.attr("id", DataType::Integer)
                .attr("title", DataType::Text)
                .attr("year", DataType::Integer)
                .attr("venue", DataType::Integer)
                .attr("pages_from", DataType::Integer)
                .attr("pages_to", DataType::Integer)
                .primary_key(&["id"])
                .not_null("title")
                .foreign_key(&["venue"], "venues3", &["id"])
        })
        .table("authorship", |t| {
            t.attr("pub", DataType::Integer)
                .attr("author", DataType::Integer)
                .attr("rank", DataType::Integer)
                .not_null("pub")
                .not_null("author")
                .foreign_key(&["pub"], "pubs", &["id"])
                .foreign_key(&["author"], "authors", &["id"])
        })
        .table("venues3", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("location", DataType::Text)
                .primary_key(&["id"])
                .not_null("name")
        })
        .table("editors", |t| {
            t.attr("venue", DataType::Integer)
                .attr("author", DataType::Integer)
                .foreign_key(&["venue"], "venues3", &["id"])
                .foreign_key(&["author"], "authors", &["id"])
        })
        .table("series", |t| {
            t.attr("id", DataType::Integer)
                .attr("title", DataType::Text)
                .primary_key(&["id"])
        })
        .table("pub_series", |t| {
            t.attr("pub", DataType::Integer)
                .attr("series", DataType::Integer)
                .foreign_key(&["pub"], "pubs", &["id"])
                .foreign_key(&["series"], "series", &["id"])
        })
        .table("reviews", |t| {
            t.attr("pub", DataType::Integer)
                .attr("score", DataType::Integer)
                .foreign_key(&["pub"], "pubs", &["id"])
        })
        .build()
        .unwrap();

    for a in 0..sizes.persons {
        let (f, l) = person_name(rng);
        db.insert_by_name(
            "authors",
            vec![(a as i64).into(), format!("{l}, {f}").into()],
        )
        .unwrap();
    }
    for v in 0..names::VENUES.len() {
        db.insert_by_name(
            "venues3",
            vec![(v as i64).into(), venue_full(v).into(), "N/A".into()],
        )
        .unwrap();
    }
    for s in 0..5i64 {
        db.insert_by_name("series", vec![s.into(), names::title(rng).into()])
            .unwrap();
    }
    let attached = sizes.persons - sizes.detached_persons;
    for p in 0..sizes.papers {
        let (from, to) = pages(rng);
        let y: Value = if p < sizes.missing_years {
            Value::Null
        } else {
            year(rng).into()
        };
        db.insert_by_name(
            "pubs",
            vec![
                (p as i64).into(),
                names::title(rng).into(),
                y,
                ((p % names::VENUES.len()) as i64).into(),
                from.into(),
                to.into(),
            ],
        )
        .unwrap();
        db.insert_by_name(
            "authorship",
            vec![(p as i64).into(), ((p % attached) as i64).into(), 0.into()],
        )
        .unwrap();
        if p < sizes.multi_author_papers {
            db.insert_by_name(
                "authorship",
                vec![
                    (p as i64).into(),
                    (((p + 1) % attached) as i64).into(),
                    1.into(),
                ],
            )
            .unwrap();
        }
        if p % 5 == 0 {
            db.insert_by_name(
                "pub_series",
                vec![(p as i64).into(), ((p % 5) as i64).into()],
            )
            .unwrap();
            db.insert_by_name("reviews", vec![(p as i64).into(), ((p % 10) as i64).into()])
                .unwrap();
        }
    }
    for v in 0..4i64 {
        db.insert_by_name("editors", vec![v.into(), v.into()]).unwrap();
    }
    db
}

/// s4 — mid-level target: `First Last` names, `n-m` page strings,
/// non-null integer years, venue acronyms.
pub fn build_s4(sizes: &BibSizes, rng: &mut StdRng) -> Database {
    let mut db = DatabaseBuilder::new("s4")
        .table("researchers", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .primary_key(&["id"])
                .not_null("name")
        })
        .table("publications4", |t| {
            t.attr("id", DataType::Integer)
                .attr("title", DataType::Text)
                .attr("year", DataType::Integer)
                .attr("venue", DataType::Integer)
                .attr("pages", DataType::Text)
                .primary_key(&["id"])
                .not_null("title")
                .not_null("year")
                .foreign_key(&["venue"], "venues4", &["id"])
        })
        .table("author_of", |t| {
            t.attr("publication", DataType::Integer)
                .attr("researcher", DataType::Integer)
                .attr("position", DataType::Integer)
                .not_null("publication")
                .not_null("researcher")
                .foreign_key(&["publication"], "publications4", &["id"])
                .foreign_key(&["researcher"], "researchers", &["id"])
        })
        .table("venues4", |t| {
            t.attr("id", DataType::Integer)
                .attr("acronym", DataType::Text)
                .attr("name", DataType::Text)
                .primary_key(&["id"])
                .not_null("acronym")
        })
        .table("affil4", |t| {
            t.attr("researcher", DataType::Integer)
                .attr("institute", DataType::Text)
                .foreign_key(&["researcher"], "researchers", &["id"])
        })
        .table("projects", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .primary_key(&["id"])
        })
        .table("pub_projects", |t| {
            t.attr("publication", DataType::Integer)
                .attr("project", DataType::Integer)
                .foreign_key(&["publication"], "publications4", &["id"])
                .foreign_key(&["project"], "projects", &["id"])
        })
        .table("keywords4", |t| {
            t.attr("publication", DataType::Integer)
                .attr("word", DataType::Text)
                .foreign_key(&["publication"], "publications4", &["id"])
        })
        .build()
        .unwrap();

    for a in 0..sizes.persons {
        let (f, l) = person_name(rng);
        db.insert_by_name(
            "researchers",
            vec![(a as i64).into(), format!("{f} {l}").into()],
        )
        .unwrap();
    }
    for v in 0..names::VENUES.len() {
        db.insert_by_name(
            "venues4",
            vec![
                (v as i64).into(),
                venue_acronym(v).into(),
                venue_full(v).into(),
            ],
        )
        .unwrap();
    }
    for pr in 0..5i64 {
        db.insert_by_name("projects", vec![pr.into(), names::title(rng).into()])
            .unwrap();
    }
    for p in 0..sizes.papers {
        let (from, to) = pages(rng);
        db.insert_by_name(
            "publications4",
            vec![
                (p as i64).into(),
                names::title(rng).into(),
                year(rng).into(),
                ((p % names::VENUES.len()) as i64).into(),
                format!("{from}-{to}").into(),
            ],
        )
        .unwrap();
        db.insert_by_name(
            "author_of",
            vec![
                (p as i64).into(),
                ((p % sizes.persons) as i64).into(),
                0.into(),
            ],
        )
        .unwrap();
        if p % 4 == 0 {
            db.insert_by_name(
                "keywords4",
                vec![
                    (p as i64).into(),
                    names::TITLE_WORDS[p % names::TITLE_WORDS.len()].into(),
                ],
            )
            .unwrap();
            db.insert_by_name(
                "pub_projects",
                vec![(p as i64).into(), ((p % 5) as i64).into()],
            )
            .unwrap();
        }
    }
    for a in 0..sizes.persons.min(20) {
        db.insert_by_name(
            "affil4",
            vec![
                (a as i64).into(),
                format!("{} Institute", names::title(rng)).into(),
            ],
        )
        .unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn all_schemas_are_locally_valid() {
        let sizes = BibSizes::small();
        build_s1(&sizes, &mut rng()).assert_valid();
        build_s2(&sizes, &mut rng()).assert_valid();
        build_s3(&sizes, &mut rng()).assert_valid();
        build_s4(&sizes, &mut rng()).assert_valid();
    }

    #[test]
    fn schema_sizes_match_paper_ranges() {
        // "four schemas with between 5 and 27 relations, each with 3 to
        // 16 attributes" — our stand-ins sit inside that envelope.
        let sizes = BibSizes::small();
        for db in [
            build_s1(&sizes, &mut rng()),
            build_s2(&sizes, &mut rng()),
            build_s3(&sizes, &mut rng()),
            build_s4(&sizes, &mut rng()),
        ] {
            let tables = db.schema.table_count();
            assert!((5..=27).contains(&tables), "{}: {tables} tables", db.name());
            for t in db.schema.tables() {
                assert!((1..=16).contains(&t.arity()));
            }
        }
    }

    #[test]
    fn s1_injects_exact_problem_counts() {
        let sizes = BibSizes::small();
        let db = build_s1(&sizes, &mut rng());
        let (papers_t, year_a) = db.schema.resolve("papers", "year").unwrap();
        let nulls = db
            .instance
            .table(papers_t)
            .column(year_a)
            .filter(|v| v.is_null())
            .count();
        assert_eq!(nulls, sizes.missing_years);
        // Multi-author papers: count papers with 2 writes rows.
        let (writes_t, paper_a) = db.schema.resolve("writes", "paper").unwrap();
        let mut counts = std::collections::HashMap::new();
        for v in db.instance.table(writes_t).column(paper_a) {
            *counts.entry(v.to_value()).or_insert(0usize) += 1;
        }
        let multi = counts.values().filter(|c| **c >= 2).count();
        assert_eq!(multi, sizes.multi_author_papers);
    }

    #[test]
    fn s1_detached_persons_author_nothing() {
        let sizes = BibSizes::small();
        let db = build_s1(&sizes, &mut rng());
        let (writes_t, person_a) = db.schema.resolve("writes", "person").unwrap();
        let authored: std::collections::HashSet<i64> = db
            .instance
            .table(writes_t)
            .column(person_a)
            .filter_map(|v| v.as_int())
            .collect();
        let attached = sizes.persons - sizes.detached_persons;
        for p in attached..sizes.persons {
            assert!(!authored.contains(&(p as i64)), "person {p} should be detached");
        }
        assert_eq!(authored.len(), attached.min(sizes.papers + 1));
    }

    #[test]
    fn formats_differ_between_schemas() {
        let sizes = BibSizes::small();
        let s2 = build_s2(&sizes, &mut rng());
        let (t, a) = s2.schema.resolve("publications", "pages").unwrap();
        let sample = s2.instance.table(t).value(0, a).render();
        assert!(sample.starts_with("pp. "), "{sample}");
        let s3 = build_s3(&sizes, &mut rng());
        let (t, a) = s3.schema.resolve("authors", "name").unwrap();
        let sample = s3.instance.table(t).value(0, a).render();
        assert!(sample.contains(", "), "{sample}");
    }
}
