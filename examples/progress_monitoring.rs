//! Progress monitoring (paper §1: estimations help with *"monitoring
//! the progress of the project"*): re-estimate after each cleaning step
//! and watch the remaining effort shrink.
//!
//! We take the running example, simulate the practitioner performing the
//! Table 5 repairs one by one on the actual source data, and re-run EFES
//! after each step.
//!
//! ```text
//! cargo run --release --example progress_monitoring
//! ```

use efes::prelude::*;
use efes::settings::Quality;
use efes_relational::{Database, IntegrationScenario, Value};
use efes_scenarios::{music_example_scenario, MusicExampleConfig};

fn estimate(scenario: &IntegrationScenario) -> EffortEstimate {
    Estimator::with_default_modules(EstimationConfig::for_quality(Quality::HighQuality))
        .estimate(scenario)
        .expect("estimate")
}

/// Step 1 — "Merge values (artist)": keep only the first credit per
/// artist list, as if the practitioner had concatenated/merged them.
fn merge_artist_credits(db: &mut Database) {
    let (credits_t, list_a) = db.schema.resolve("artist_credits", "artist_list").unwrap();
    let mut seen = std::collections::HashSet::new();
    let rows: Vec<Vec<Value>> = db
        .instance
        .table(credits_t)
        .rows()
        .filter(|r| seen.insert(r[list_a.0].clone()))
        .collect();
    rebuild_table(db, "artist_credits", rows);
}

/// Step 2 — "Add tuples (records)" + "Add missing values (title)": give
/// every detached artist list an album, titled by the practitioner.
fn add_albums_for_detached_artists(db: &mut Database) {
    let (albums_t, album_list_a) = db.schema.resolve("albums", "artist_list").unwrap();
    let (lists_t, list_id_a) = db.schema.resolve("artist_lists", "id").unwrap();
    let referenced: std::collections::HashSet<i64> = db
        .instance
        .table(albums_t)
        .column(album_list_a)
        .filter_map(|v| v.as_int())
        .collect();
    let first_free_id = db.instance.table(albums_t).len() as i64;
    let detached: Vec<i64> = db
        .instance
        .table(lists_t)
        .column(list_id_a)
        .filter_map(|v| v.as_int())
        .filter(|l| !referenced.contains(l))
        .collect();
    for (next_id, list) in (first_free_id..).zip(detached) {
        db.insert_by_name(
            "albums",
            vec![
                next_id.into(),
                format!("Anthology of List {list}").into(),
                list.into(),
            ],
        )
        .unwrap();
    }
}

/// Step 3 — "Convert values (length → duration)": rewrite millisecond
/// lengths as m:ss strings (the source column becomes target-shaped).
fn convert_lengths(db: &mut Database) {
    let (songs_t, length_a) = db.schema.resolve("songs", "length").unwrap();
    let rows: Vec<Vec<Value>> = db
        .instance
        .table(songs_t)
        .rows()
        .map(|mut r| {
            if let Some(ms) = r[length_a.0].as_int() {
                r[length_a.0] = efes_scenarios::names::millis_to_mss(ms).into();
            }
            r
        })
        .collect();
    // The column's type changes from integer to text: rebuild the table
    // under a text-typed schema by re-declaring the database.
    retype_songs_length_to_text(db, rows);
}

fn rebuild_table(db: &mut Database, table: &str, rows: Vec<Vec<Value>>) {
    let tid = db.schema.table_id(table).unwrap();
    let mut fresh = efes_relational::Instance::empty(&db.schema);
    for (t, data) in db.instance.iter_tables() {
        if t == tid {
            continue;
        }
        for row in data.rows() {
            fresh.insert(&db.schema, t, row).unwrap();
        }
    }
    for row in rows {
        fresh.insert(&db.schema, tid, row).unwrap();
    }
    db.instance = fresh;
}

fn retype_songs_length_to_text(db: &mut Database, rows: Vec<Vec<Value>>) {
    use efes_relational::{DataType, DatabaseBuilder};
    // Rebuild the whole database with songs.length as Text.
    let mut b = DatabaseBuilder::new("source")
        .table("albums", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("artist_list", DataType::Integer)
                .primary_key(&["id"])
                .not_null("name")
                .not_null("artist_list")
                .foreign_key(&["artist_list"], "artist_lists", &["id"])
        })
        .table("songs", |t| {
            t.attr("album", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("artist_list", DataType::Integer)
                .attr("length", DataType::Text)
                .not_null("name")
                .foreign_key(&["album"], "albums", &["id"])
                .foreign_key(&["artist_list"], "artist_lists", &["id"])
        })
        .table("artist_lists", |t| t.attr("id", DataType::Integer).primary_key(&["id"]))
        .table("artist_credits", |t| {
            t.attr("artist_list", DataType::Integer)
                .attr("position", DataType::Integer)
                .attr("artist", DataType::Text)
                .primary_key(&["artist_list", "position"])
                .not_null("artist")
                .foreign_key(&["artist_list"], "artist_lists", &["id"])
        });
    for table in ["albums", "artist_lists", "artist_credits"] {
        let tid = db.schema.table_id(table).unwrap();
        b = b.rows(table, db.instance.table(tid).rows().collect());
    }
    b = b.rows("songs", rows);
    *db = b.build().expect("retyped database");
}

fn main() {
    let (mut scenario, _) = music_example_scenario(&MusicExampleConfig::scaled_down());

    println!("Remaining estimated effort after each completed cleaning step\n");
    let report = |label: &str, scenario: &IntegrationScenario| {
        let e = estimate(scenario);
        println!(
            "  {:42} {:>7.0} min remaining ({} open tasks)",
            label,
            e.total_minutes(),
            e.tasks.len()
        );
        e.total_minutes()
    };

    let t0 = report("project start", &scenario);

    merge_artist_credits(&mut scenario.sources[0]);
    let t1 = report("after Merge values (artist)", &scenario);

    add_albums_for_detached_artists(&mut scenario.sources[0]);
    let t2 = report("after Add tuples + missing titles", &scenario);

    convert_lengths(&mut scenario.sources[0]);
    // The correspondences stay valid: same table/attr indices.
    scenario.check().expect("scenario still well-formed");
    let t3 = report("after Convert values (length)", &scenario);

    assert!(t1 < t0 && t2 < t1 && t3 < t2, "estimates must shrink");
    println!("\nOnly the (quality-independent) mapping work remains: {t3:.0} min.");
}
