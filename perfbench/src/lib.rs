//! # warpstl-perfbench
//!
//! The repository's benchmark. One command runs one workload for a fixed
//! number of seconds and prints every metric with its unit, checking the
//! program's outputs as it goes:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload stl_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all instrumentation
//! off; `--trace 1` replays the pipeline one layer at a time with spans
//! (see `src/replay.rs`) and prints the per-layer metrics. The last line of
//! standard output is always one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the command exits nonzero when
//! any output check failed.

mod client;
mod measure;
pub mod metrics;
mod replay;
mod run;
mod workloads;

pub use run::{run, Outcome, RunConfig};
pub use workloads::{Size, Workload};
