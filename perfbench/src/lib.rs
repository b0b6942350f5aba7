//! The compiler's benchmark: four seeded workloads driven through the
//! crates' public functions, end-to-end metrics with tracing off, and a
//! traced run that breaks each workload's time into its layers.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile --seed 1 --seconds 10 --trace 0
//! ```

pub mod designs;
pub mod host;
pub mod metrics;
pub mod rng;
pub mod trace;
pub mod workloads;
