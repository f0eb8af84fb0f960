//! Where a `BENCH_*.json` report came from: the commit, whether the
//! working tree matched it, and how many hardware threads the host had.
//! `bench_smoke` and `bench_scale` capture this once, before they write
//! anything, and embed it in every report they produce.

use serde::Serialize;
use std::process::Command;

/// The provenance block of a benchmark report.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// The checked-out commit: `GITHUB_SHA` when set, else
    /// `git rev-parse HEAD`, else `"unknown"`.
    pub commit: String,
    /// Whether tracked files differed from `commit` when the run
    /// started — if so, `commit` names the parent of the measured tree.
    /// `None` when git could not tell.
    pub dirty: Option<bool>,
    /// Hardware threads available to the run.
    pub host_threads: usize,
}

fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

impl Provenance {
    /// Capture the provenance of the current working directory's tree.
    pub fn capture() -> Self {
        let commit = std::env::var("GITHUB_SHA")
            .ok()
            .filter(|sha| !sha.is_empty())
            .or_else(|| git(&["rev-parse", "HEAD"]).map(|s| s.trim().to_owned()))
            .unwrap_or_else(|| "unknown".to_owned());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
            .map(|status| !status.trim().is_empty());
        Provenance {
            commit,
            dirty,
            host_threads: efes_exec::available_threads(),
        }
    }
}
