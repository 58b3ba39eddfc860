//! The four workloads. Names are stable: later issues cite them. Why each
//! exists is in `BENCHMARK.json` and `README.md`.
//!
//! Every workload is one process, loopback TCP, [`CONNECTIONS`] client
//! connections, `max_wait_us` [`MAX_WAIT_US`], the default serial executor
//! and no fault plane; what differs is the data, the strategy, the bulk size,
//! the pacing and which commit consumers are attached.

use crate::load::Pacing;
use gputx_workloads::{Tm1Config, TpcbConfig, TpccConfig, WorkloadBundle};

pub const CONNECTIONS: usize = 2;
pub const MAX_WAIT_US: u64 = 2_000;
/// Length of one timed window. A run measures `--seconds / WINDOW_SECS`
/// windows (at least one) and reports the median window; windows are never
/// shortened to fit more of them in.
pub const WINDOW_SECS: u64 = 6;
pub const WARMUP_SECS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// TM1 at `scale_factor` × 10 000 subscribers.
    Tm1 {
        scale_factor: u64,
    },
    Tpcc {
        warehouses: u64,
    },
    /// TPC-B with `scale_factor` branches.
    Tpcb {
        scale_factor: u64,
    },
}

impl Data {
    pub fn build(self) -> WorkloadBundle {
        match self {
            Data::Tm1 { scale_factor } => Tm1Config { scale_factor }.build(),
            Data::Tpcc { warehouses } => TpccConfig::default().with_warehouses(warehouses).build(),
            Data::Tpcb { scale_factor } => TpcbConfig { scale_factor }.build(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    /// `adaptive()` per-bulk selection; otherwise `ForceKset`.
    pub adaptive: bool,
    pub max_bulk_size: usize,
    pub pacing: Pacing,
    /// Durability (`PerBulk` fsync), one follower, analytics session and a
    /// scanner thread — every commit consumer the engine has.
    pub full_commit_path: bool,
    /// Pre-drawn transactions per connection, cycled.
    pub stream_len: usize,
    /// Transactions the stepped traced replay draws.
    pub traced_len: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tm1_wire_sat",
        data: Data::Tm1 { scale_factor: 10 },
        adaptive: false,
        max_bulk_size: 512,
        pacing: Pacing::Closed { in_flight: 1024 },
        full_commit_path: false,
        stream_len: 262_144,
        traced_len: 262_144,
    },
    Spec {
        name: "tpcc_wire_sat",
        data: Data::Tpcc { warehouses: 4 },
        adaptive: true,
        max_bulk_size: 256,
        pacing: Pacing::Closed { in_flight: 256 },
        full_commit_path: false,
        stream_len: 262_144,
        traced_len: 131_072,
    },
    Spec {
        name: "tpcb_wire_full",
        data: Data::Tpcb { scale_factor: 64 },
        adaptive: false,
        max_bulk_size: 512,
        pacing: Pacing::Closed { in_flight: 1024 },
        full_commit_path: true,
        stream_len: 262_144,
        traced_len: 262_144,
    },
    Spec {
        name: "tm1_wire_paced",
        data: Data::Tm1 { scale_factor: 10 },
        adaptive: false,
        max_bulk_size: 512,
        pacing: Pacing::Open {
            per_conn_rate: 20_000.0,
        },
        full_commit_path: false,
        stream_len: 262_144,
        traced_len: 262_144,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// `--quick` keeps the shape and shrinks the inputs, so the smoke test
    /// finishes in a debug build.
    pub fn quick(mut self) -> Spec {
        self.data = match self.data {
            Data::Tm1 { .. } => Data::Tm1 { scale_factor: 1 },
            Data::Tpcc { .. } => Data::Tpcc { warehouses: 1 },
            Data::Tpcb { .. } => Data::Tpcb { scale_factor: 8 },
        };
        self.stream_len = 8_192;
        // Seven segments of two 512-bulks (or four 256-bulks) each.
        self.traced_len = 7_168;
        self
    }
}
