//! Self-tests of the benchmark's own arithmetic: percentile selection,
//! span self time, block-median throughput, and `/proc` parsing.
//!
//! ```text
//! cargo test --manifest-path efesbench/Cargo.toml
//! ```

use efesbench::procfs::{cpu_ticks, vm_hwm_kb};
use efesbench::span::{self_time_ns, self_times_ns, Span};
use efesbench::stats::{median, median_block_rate, nearest_rank, percentile};

#[test]
fn nearest_rank_rounds_up_and_clamps() {
    assert_eq!(nearest_rank(100, 99.0), 99);
    assert_eq!(
        nearest_rank(40, 75.0),
        30,
        "an exact product must not round up"
    );
    assert_eq!(nearest_rank(41, 75.0), 31);
    assert_eq!(nearest_rank(10, 99.9), 10);
    assert_eq!(nearest_rank(10, 0.0), 1);
    assert_eq!(nearest_rank(0, 50.0), 1);
}

#[test]
fn percentile_reports_the_samples_beyond_it() {
    let sorted: Vec<f64> = (1..=40).map(f64::from).collect();
    let tail = percentile(&sorted, 75.0).unwrap();
    assert_eq!((tail.value, tail.n, tail.beyond), (30.0, 40, 10));
    // One sample fewer leaves only 9 beyond p75: too few for an honest
    // tail, which the caller must reject.
    let tail = percentile(&sorted[..39], 75.0).unwrap();
    assert_eq!((tail.value, tail.beyond), (30.0, 9));
    let tail = percentile(&(1..=1000).map(f64::from).collect::<Vec<_>>(), 99.0).unwrap();
    assert_eq!((tail.value, tail.beyond), (990.0, 10));
    assert!(percentile(&[], 50.0).is_none());
}

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn block_rate_median_ignores_one_slow_block() {
    // Blocks of 2 completions: 1 s, 1 s, then a 10 s stall, then 1 s.
    let times = [0.5, 1.0, 1.5, 2.0, 7.0, 12.0, 12.5, 13.0, 13.4];
    // Rates 2, 2, 0.2, 2 (the trailing partial block is dropped).
    assert_eq!(median_block_rate(&times, 2), 2.0);
    assert_eq!(median_block_rate(&[], 4), 0.0);
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        op: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("op", None, 0, 100),
        // Overlapping children count once: [10, 40) ∪ [30, 50) = 40 ns.
        span("a", Some(0), 10, 40),
        span("b", Some(0), 30, 50),
        // A disjoint child: 10 ns.
        span("c", Some(0), 70, 80),
        // A child running past its parent is clipped: [95, 100) = 5 ns.
        span("d", Some(0), 95, 120),
        // A grandchild does not count against the root.
        span("e", Some(1), 12, 20),
    ];
    assert_eq!(self_time_ns(&spans[0], &spans[1..5]), 100 - 40 - 10 - 5);
    assert_eq!(self_times_ns(&spans), vec![45, 22, 20, 10, 25, 8]);
}

#[test]
fn self_time_of_a_leaf_is_its_duration() {
    let leaf = span("leaf", None, 5, 9);
    assert_eq!(self_time_ns(&leaf, []), 4);
}

#[test]
fn vm_hwm_parses_from_status() {
    let status =
        "Name:\tefes-serve\nVmPeak:\t  200000 kB\nVmHWM:\t   10788 kB\nVmRSS:\t    9000 kB\n";
    assert_eq!(vm_hwm_kb(status), Some(10788));
    assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
    assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None, "only kB is understood");
}

#[test]
fn cpu_ticks_sum_utime_and_stime_past_a_hostile_name() {
    // Field 2 is the command name in parentheses and may itself contain
    // spaces and parentheses; utime and stime are fields 14 and 15.
    let stat = "4242 (efes (serve) x) S 1 4242 4242 0 -1 4194304 512 0 0 0 731 69 0 0 20 0 4 0 100 1000 300";
    assert_eq!(cpu_ticks(stat), Some(731 + 69));
    assert_eq!(cpu_ticks("4242 (short) S 1"), None);
}
