//! # gputx-workloads — benchmark workloads for the GPUTx reproduction
//!
//! The paper evaluates GPUTx with controlled micro benchmarks and three public
//! OLTP benchmarks (§6.1, Appendix E). This crate implements all of them as
//! stored procedures over the `gputx-storage` database:
//!
//! * [`micro`] — the §6.1 micro benchmark: `T` transaction types (branches in
//!   the combined kernel's switch), a tunable amount of computation `x`
//!   (simulated `sinf` calls), a tunable relation cardinality, and a skewed
//!   lock-acquisition distribution with parameter `α`.
//! * [`tm1`] — TM1 (the Nokia Network Database benchmark): four tables, seven
//!   transaction types, subscriber id as the partitioning key, with the
//!   string-lookup transaction splits described in Appendix E.
//! * [`tpcb`] — TPC-B: branch/teller/account/history, one transaction type,
//!   branch id as the partitioning key.
//! * [`tpcc`] — TPC-C (simplified but structurally faithful): nine tables,
//!   five transaction types, the warehouse as the partitioning key, with
//!   the customer-by-last-name splits of Appendix E.
//! * [`ledger`] — a hot-key payments ledger whose generator alternates
//!   between uniform and skewed phases, forcing a cost-driven selector to
//!   switch strategies mid-run (the adaptive-execution stress workload).
//! * [`skew`] — skewed key generators shared by the workloads.
//! * [`workload`] — the [`workload::WorkloadBundle`] abstraction consumed by
//!   the engines, examples and the figures harness.
//!
//! Scale factors are linearly scaled down from the original benchmark
//! populations so that simulation runs stay laptop-sized; the scaling constants
//! are documented on each workload's config type and in `docs/paper-map.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod micro;
pub mod skew;
pub mod tm1;
pub mod tpcb;
pub mod tpcc;
pub mod workload;

pub use ledger::LedgerConfig;
pub use micro::{MicroConfig, MicroWorkload};
pub use tm1::Tm1Config;
pub use tpcb::TpcbConfig;
pub use tpcc::TpccConfig;
pub use workload::WorkloadBundle;
