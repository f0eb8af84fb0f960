//! Peak heap of a parse: at most the body plus twice the columns it
//! produces, for both payload formats, at the efesbench `cold_scale`
//! upload's shape (efes-synth, 2.5·10⁴ rows, 2 tables × 3 payload
//! attributes, fan-out 2, one source). A test binary of its own: the
//! counting allocator is global, so nothing else may run beside it.

mod oracle;

use efes_ingest::{ScenarioUpload, UploadFormat};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// the sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
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
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the peak heap it held beyond what
/// was live when it started.
fn peak_extra<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

/// The cold_scale-shaped upload body in `format`.
fn body(format: UploadFormat) -> String {
    let mut cfg = efes_synth::SynthConfig::default()
        .with_rows(25_000)
        .with_seed(1);
    cfg.shape.tables = 2;
    cfg.shape.payload_attrs = 3;
    cfg.shape.fanout = 2;
    cfg.shape.sources = 1;
    let synth = efes_synth::generate(&cfg);
    serde_json::to_string(&ScenarioUpload::from_scenario(&synth.scenario, format)).unwrap()
}

fn column_bytes(upload: &ScenarioUpload) -> usize {
    upload
        .sources
        .iter()
        .chain([&upload.target])
        .flat_map(|db| &db.tables)
        .flat_map(|t| &t.columns)
        .map(|c| c.heap_bytes())
        .sum()
}

const MIB: f64 = (1 << 20) as f64;

#[test]
fn parse_peaks_within_body_plus_twice_the_columns() {
    for format in [UploadFormat::JsonRows, UploadFormat::Csv] {
        let body = body(format);
        let (upload, peak) = peak_extra(|| ScenarioUpload::parse(body.as_bytes()).unwrap());
        let columns = column_bytes(&upload);
        let bound = body.len() + 2 * columns;
        oracle::assert_same(&upload, &oracle::parse(body.as_bytes()).unwrap());
        eprintln!(
            "{format:?}: body {:.2} MiB, columns {:.2} MiB, peak extra heap {:.2} MiB \
             (bound {:.2} MiB)",
            body.len() as f64 / MIB,
            columns as f64 / MIB,
            peak as f64 / MIB,
            bound as f64 / MIB,
        );
        assert!(
            peak <= bound,
            "{format:?}: parse peaked at {peak} B extra, over body {} B + 2 × columns {columns} B",
            body.len()
        );
    }
}
