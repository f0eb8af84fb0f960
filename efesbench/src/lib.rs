//! # efesbench — the EFES serving benchmark
//!
//! A single-process, closed-loop load generator. It launches the release
//! `efes-serve` binary as a child process, drives it over loopback with
//! inputs generated from a seed, and checks every answer byte for byte
//! against responses computed in-process from the same library before
//! timing starts. A separate traced run replays the same ops in-process
//! with spans around each call into the program's crates (see
//! [`layers`]). See `main.rs` for the command line and the metrics.

pub mod child;
pub mod client;
pub mod layers;
pub mod load;
pub mod procfs;
pub mod span;
pub mod stats;
pub mod workload;
