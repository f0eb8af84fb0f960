//! # efes-bench
//!
//! The reproduction harness: one function per paper artifact (Tables 1–9,
//! Figures 2, 4, 5, 6, 7), each returning the regenerated content as
//! text. The `repro` binary prints them; the workspace integration tests
//! assert on them; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! Run `cargo run -p efes-bench --bin repro -- all` for everything, or
//! pass an artifact name (`table5`, `figure6`, …).

pub mod artifacts;
pub mod figures;
pub mod provenance;
pub mod speedup;

pub use artifacts::*;
pub use figures::*;
pub use provenance::Provenance;
pub use speedup::*;
