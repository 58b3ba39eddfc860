//! The GPUTx benchmark's parts: workload specs, the load driver, the
//! end-to-end run, the stepped traced replay, and result comparison. The
//! binary in `main.rs` is the command-line front; `README.md` says what is
//! measured and why.

pub mod compare;
pub mod json;
pub mod load;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod stepped;
