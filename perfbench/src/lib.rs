//! Performance benchmark of the ferroTCAM stack.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!   --workload <lookup|similarity|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! An untraced run (`--trace 0`) measures the workload end to end; a
//! traced run (`--trace 1`) measures the same workload and then times
//! each layer of the stack in isolation through its public functions.
//! See `perfbench/README.md` for the workloads and metrics.

pub mod env;
pub mod ledger;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
