//! Deterministic, seeded fault injection for chaos testing.
//!
//! Production failure paths — a panicking estimate, a stalled stage, a
//! spuriously cancelled request, an allocation budget trip — are
//! exercised rarely by accident and must therefore be exercised on
//! purpose. This module provides named *injection sites* that the
//! serving stack consults at well-chosen spots: `serve.estimate.job`
//! (once per admitted estimate), `ingest.upload` and `profiling.fill`
//! (once per `ProfileCache` miss). Whether a site fires, and
//! with which fault, is a pure function of the [`FAULTS_ENV_VAR`] spec
//! (seed, rate, site filter, mode set) and a per-site hit counter — so
//! a given seed replays the exact same fault schedule, run after run.
//!
//! Spec grammar (comma-separated `key=value` pairs):
//!
//! ```text
//! EFES_FAULTS="seed=42,rate=0.05,site=serve.,mode=panic|delay"
//! ```
//!
//! * `seed` — the schedule seed (default 0);
//! * `rate` — per-hit injection probability in `[0, 1]` (default 1);
//! * `site` — only sites with this prefix fire (default all);
//! * `mode` — `|`-separated subset of `panic`, `delay`, `cancel`,
//!   `alloc` (default all four); the firing hash picks among them.
//!
//! When the variable is unset every site is a no-op beyond one branch;
//! an unparsable spec warns once on stderr and disables injection
//! (failing open would turn a typo into a chaos run). Every injected
//! fault increments a per-`(site, mode)` counter surfaced by
//! [`injected_counters`] — `/metrics` renders them as
//! `efes_fault_injected_total`.

use crate::CancellationToken;
use std::collections::BTreeMap;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// Environment variable holding the fault-injection spec.
pub const FAULTS_ENV_VAR: &str = "EFES_FAULTS";

/// What a site should do, decided deterministically per hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally (the overwhelmingly common case).
    None,
    /// Panic at the site — must stay isolated (the server survives).
    Panic,
    /// Stall for the given duration before proceeding.
    Delay(Duration),
    /// Cancel the run's token, as if its caller had given up.
    Cancel,
    /// Behave as if an allocation/memory budget were exhausted.
    AllocCap,
}

impl FaultAction {
    fn label(self) -> &'static str {
        match self {
            FaultAction::None => "none",
            FaultAction::Panic => "panic",
            FaultAction::Delay(_) => "delay",
            FaultAction::Cancel => "cancel",
            FaultAction::AllocCap => "alloc",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct FaultSpec {
    seed: u64,
    rate: f64,
    site_prefix: String,
    modes: Vec<&'static str>,
}

fn parse_spec(raw: &str) -> Option<FaultSpec> {
    let mut spec = FaultSpec {
        seed: 0,
        rate: 1.0,
        site_prefix: String::new(),
        modes: vec!["panic", "delay", "cancel", "alloc"],
    };
    for pair in raw.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = pair.split_once('=')?;
        match key.trim() {
            "seed" => spec.seed = value.trim().parse().ok()?,
            "rate" => {
                let r: f64 = value.trim().parse().ok()?;
                if !(0.0..=1.0).contains(&r) {
                    return None;
                }
                spec.rate = r;
            }
            "site" => spec.site_prefix = value.trim().to_owned(),
            "mode" => {
                let mut modes = Vec::new();
                for m in value.split('|') {
                    modes.push(match m.trim() {
                        "panic" => "panic",
                        "delay" => "delay",
                        "cancel" => "cancel",
                        "alloc" => "alloc",
                        _ => return None,
                    });
                }
                if modes.is_empty() {
                    return None;
                }
                spec.modes = modes;
            }
            _ => return None,
        }
    }
    Some(spec)
}

struct FaultState {
    /// Per-site hit counters (every consultation, fired or not) — the
    /// deterministic schedule index.
    hits: BTreeMap<String, u64>,
    /// Per-(site, mode) injected-fault counters for `/metrics`.
    injected: BTreeMap<(String, &'static str), u64>,
}

fn state() -> &'static Mutex<FaultState> {
    static STATE: OnceLock<Mutex<FaultState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(FaultState {
            hits: BTreeMap::new(),
            injected: BTreeMap::new(),
        })
    })
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Consult a named injection site: returns the action this hit draws
/// under the current [`FAULTS_ENV_VAR`] spec ([`FaultAction::None`]
/// when unset, filtered out, or the rate dice miss). The spec is
/// re-read from the environment on every call — sites sit on per-job
/// paths, not per-row ones, so the lookup cost is irrelevant and tests
/// can flip the variable between requests.
pub fn at(site: &str) -> FaultAction {
    let raw = match std::env::var(FAULTS_ENV_VAR) {
        Err(_) => return FaultAction::None,
        Ok(raw) => raw,
    };
    let Some(spec) = parse_spec(&raw) else {
        static WARN_ONCE: Once = Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!(
                "warning: unparsable {FAULTS_ENV_VAR}={raw:?}; \
                 expected e.g. \"seed=7,rate=0.1,site=serve.,mode=panic|delay\"; \
                 fault injection disabled"
            );
        });
        return FaultAction::None;
    };
    if !site.starts_with(&spec.site_prefix) {
        return FaultAction::None;
    }
    let hit = {
        let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
        let n = st.hits.entry(site.to_owned()).or_insert(0);
        *n += 1;
        *n - 1
    };
    let h = splitmix64(spec.seed ^ fnv1a(site) ^ hit.wrapping_mul(0x9e37_79b9));
    // Top 53 bits → uniform in [0, 1); compare against the rate.
    if ((h >> 11) as f64) / ((1u64 << 53) as f64) >= spec.rate {
        return FaultAction::None;
    }
    let pick = spec.modes[(splitmix64(h) % spec.modes.len() as u64) as usize];
    let action = match pick {
        "panic" => FaultAction::Panic,
        "delay" => FaultAction::Delay(Duration::from_millis(1 + splitmix64(h ^ 1) % 20)),
        "cancel" => FaultAction::Cancel,
        _ => FaultAction::AllocCap,
    };
    let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
    *st.injected.entry((site.to_owned(), action.label())).or_insert(0) += 1;
    action
}

/// Consult `site` and *execute* the drawn action in place: panic,
/// sleep, or cancel `token` (ignored when `None`). Returns `true` when
/// the action was [`FaultAction::AllocCap`], which only the call site
/// knows how to translate (e.g. report its budget as exhausted).
pub fn fire(site: &str, token: Option<&CancellationToken>) -> bool {
    match at(site) {
        FaultAction::None => false,
        FaultAction::Panic => panic!("injected fault: panic at {site}"),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            false
        }
        FaultAction::Cancel => {
            if let Some(token) = token {
                token.cancel();
            }
            false
        }
        FaultAction::AllocCap => true,
    }
}

/// Snapshot of the injected-fault counters as
/// `((site, mode), count)` pairs, sorted by site then mode.
pub fn injected_counters() -> Vec<((String, &'static str), u64)> {
    let st = state().lock().unwrap_or_else(|e| e.into_inner());
    st.injected.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses_and_rejects() {
        let spec = parse_spec("seed=42,rate=0.5,site=serve.,mode=panic|delay").unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.rate, 0.5);
        assert_eq!(spec.site_prefix, "serve.");
        assert_eq!(spec.modes, vec!["panic", "delay"]);
        assert_eq!(parse_spec("").unwrap().seed, 0);
        assert_eq!(parse_spec("seed=7").unwrap().rate, 1.0);
        assert!(parse_spec("rate=2.0").is_none());
        assert!(parse_spec("mode=explode").is_none());
        assert!(parse_spec("bogus=1").is_none());
        assert!(parse_spec("seed").is_none());
    }

    #[test]
    fn schedule_is_deterministic_in_seed_site_and_hit() {
        let spec = parse_spec("seed=9,rate=0.3").unwrap();
        // Recompute the draw twice for the same (seed, site, hit) and
        // compare — the hash chain has no hidden state.
        let draw = |hit: u64| {
            let h = splitmix64(spec.seed ^ fnv1a("serve.estimate.job") ^ hit.wrapping_mul(0x9e37_79b9));
            (
                ((h >> 11) as f64) / ((1u64 << 53) as f64) < spec.rate,
                splitmix64(h) % spec.modes.len() as u64,
            )
        };
        for hit in 0..64 {
            assert_eq!(draw(hit), draw(hit));
        }
        // And the rate actually thins the schedule.
        let fired = (0..10_000).filter(|h| draw(*h).0).count();
        assert!((2000..4000).contains(&fired), "fired {fired}/10000 at rate 0.3");
    }

    #[test]
    fn unset_env_is_a_no_op() {
        // The suite does not set EFES_FAULTS; every site must be silent.
        assert_eq!(at("exec.test.site"), FaultAction::None);
        assert!(!fire("exec.test.site", None));
    }
}
