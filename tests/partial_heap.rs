//! What a partial-retaining profile cache holds after one estimate: at
//! most three times the charged columns it profiles, at the efesbench
//! `cold_scale` upload's shape (efes-synth seed 1, 2.5·10⁴ rows, 2
//! tables × 3 payload attributes, fan-out 2, one source), parsed as the
//! server parses it. A retained partial keeps one count per distinct
//! value and one float per row, so it holds about twice its column. A
//! test binary of its own: the counting allocator is global, so nothing
//! else may run beside it.

use efes::prelude::*;
use efes_ingest::{approx_scenario_bytes, ScenarioUpload, UploadFormat};
use efes_profiling::ProfileCache;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter only observes
// the sizes and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

#[test]
fn retained_partials_hold_at_most_three_times_their_columns() {
    let mut cfg = efes_synth::SynthConfig::default()
        .with_rows(25_000)
        .with_seed(1);
    cfg.shape.tables = 2;
    cfg.shape.payload_attrs = 3;
    cfg.shape.fanout = 2;
    cfg.shape.sources = 1;
    let synth = efes_synth::generate(&cfg);
    let body = serde_json::to_string(&ScenarioUpload::from_scenario(
        &synth.scenario,
        UploadFormat::JsonRows,
    ))
    .unwrap();
    let scenario = ScenarioUpload::parse(body.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap();
    let columns = approx_scenario_bytes(&scenario);

    // The server's configuration for an uploaded scenario.
    let mut config = EstimationConfig::for_quality(Quality::HighQuality);
    config.execution = ExecutionPolicy::Sequential;
    let cache = Arc::new(ProfileCache::bounded(4096).retaining_partials());
    Estimator::with_default_modules(config)
        .estimate_with_cache(&scenario, Arc::clone(&cache))
        .unwrap();
    let partials = cache.snapshot_partials().len();
    let with_cache = LIVE.load(Relaxed);
    drop(cache);
    let held = with_cache - LIVE.load(Relaxed);

    eprintln!(
        "{partials} partials: the cache held {:.3} MiB against {:.3} MiB of columns ({:.2}×)",
        held as f64 / MIB,
        columns as f64 / MIB,
        held as f64 / columns as f64,
    );
    assert!(partials > 0, "the estimate profiled nothing");
    assert!(
        held as f64 <= 3.0 * columns as f64,
        "the cache held {held} B, over 3 × the columns' {columns} B"
    );
}
