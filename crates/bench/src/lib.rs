//! # gputx-bench — harness utilities for reproducing the paper's figures
//!
//! The `figures` binary (`cargo run -p gputx-bench --release --bin figures`)
//! regenerates every table and figure of the paper's evaluation; this library
//! holds the shared pieces: building workloads, executing bulks on the
//! simulated GPU and on the CPU counterpart, and rendering aligned text
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gputx_core::{execute_bulk, Bulk, BulkReport, EngineConfig, ExecContext, StrategyKind};
use gputx_cpu::engine::CpuEngine;
use gputx_cpu::{adhoc_cpu_single_core, adhoc_gpu_single_core};
use gputx_sim::{CpuSpec, DeviceSpec, Gpu, Throughput};
use gputx_txn::TxnSignature;
use gputx_workloads::WorkloadBundle;

/// Execute one bulk of `sigs` against a clone of the bundle's database with
/// the given strategy; returns the bulk report.
pub fn run_gpu_bulk(
    bundle: &WorkloadBundle,
    sigs: Vec<TxnSignature>,
    strategy: StrategyKind,
    config: &EngineConfig,
) -> BulkReport {
    let mut db = bundle.db.clone();
    let mut gpu = Gpu::new(config.device.clone());
    let mut ctx = ExecContext {
        gpu: &mut gpu,
        db: &mut db,
        registry: &bundle.registry,
        config,
    };
    execute_bulk(&mut ctx, strategy, &Bulk::new(sigs)).into_report()
}

/// Group a bulk into the shape PART hands the executor: one group per
/// partition key, each in ascending timestamp (id) order. Shared by the
/// executor-level figures experiments so they measure the exact schedule the
/// equivalence tests verify. Panics on cross-partition
/// transactions (`partition_key == None`).
pub fn partition_groups<'a>(
    registry: &gputx_txn::ProcedureRegistry,
    sigs: &'a [TxnSignature],
) -> Vec<Vec<&'a TxnSignature>> {
    let mut by_partition: std::collections::BTreeMap<u64, Vec<&TxnSignature>> = Default::default();
    for sig in sigs {
        let key = registry
            .partition_key(sig)
            .expect("benchmark transactions are single-partition");
        by_partition.entry(key).or_default().push(sig);
    }
    // Signatures arrive in ascending id order, so each group already is in
    // timestamp order.
    by_partition.into_values().collect()
}

/// Pick a PART partition size appropriate for a workload: the paper's tuned
/// 128 keys per partition for key domains in the millions (TM1 subscribers,
/// micro tuples) and one key per partition for small domains (TPC-B branches,
/// TPC-C warehouses), matching the per-benchmark partition counts quoted in
/// Appendix E.
pub fn partition_size_for(bundle: &WorkloadBundle) -> u64 {
    if bundle.partition_key_cardinality >= 100_000 {
        128
    } else {
        1
    }
}

/// Throughput of the GPUTx engine on a workload, split into bulks of
/// `config.bulk_size`, using the engine's automatic strategy selection.
pub fn gpu_workload_throughput(
    bundle: &mut WorkloadBundle,
    total_txns: usize,
    config: &EngineConfig,
) -> Throughput {
    let config = &config
        .clone()
        .with_partition_size(partition_size_for(bundle));
    let sigs = bundle.generate_signatures(total_txns, 0);
    let mut db = bundle.db.clone();
    let mut gpu = Gpu::new(config.device.clone());
    let mut time = gputx_sim::SimDuration::ZERO;
    for chunk in sigs.chunks(config.bulk_size) {
        let bulk = Bulk::new(chunk.to_vec());
        let strategy = gputx_core::choose_strategy(config, None, || {
            gputx_core::profiler::profile_bulk(&bundle.registry, &db, &bulk.txns)
        });
        let mut ctx = ExecContext {
            gpu: &mut gpu,
            db: &mut db,
            registry: &bundle.registry,
            config,
        };
        let out = execute_bulk(&mut ctx, strategy, &bulk);
        time += out.total();
    }
    Throughput::from_count(total_txns as u64, time)
}

/// Throughput of the H-Store-style CPU engine on a workload.
pub fn cpu_workload_throughput(
    bundle: &mut WorkloadBundle,
    total_txns: usize,
    spec: &CpuSpec,
) -> Throughput {
    let sigs = bundle.generate_signatures(total_txns, 0);
    let mut db = bundle.db.clone();
    let engine = CpuEngine::new(spec.clone());
    let report = engine.execute_bulk(&mut db, &bundle.registry, &sigs);
    report.throughput()
}

/// Throughput of ad-hoc execution on a single CPU core.
pub fn adhoc_cpu_throughput(bundle: &mut WorkloadBundle, total_txns: usize) -> Throughput {
    let sigs = bundle.generate_signatures(total_txns, 0);
    let mut db = bundle.db.clone();
    adhoc_cpu_single_core(&mut db, &bundle.registry, &sigs, &CpuSpec::xeon_e5520()).throughput()
}

/// Throughput of ad-hoc execution on a single GPU core.
pub fn adhoc_gpu_throughput(bundle: &mut WorkloadBundle, total_txns: usize) -> Throughput {
    let sigs = bundle.generate_signatures(total_txns, 0);
    let mut db = bundle.db.clone();
    adhoc_gpu_single_core(&mut db, &bundle.registry, &sigs, &DeviceSpec::tesla_c1060()).throughput()
}

/// Simple aligned text-table printer used by the figures binary.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render the table as an aligned string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gputx_workloads::{MicroConfig, MicroWorkload};

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let s = t.render();
        assert!(s.contains("bbbb"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn gpu_and_cpu_throughput_helpers_work() {
        let cfg = MicroConfig::default()
            .with_tuples(4096)
            .with_compute(1)
            .with_types(4);
        let mut bundle = MicroWorkload::build(&cfg);
        let engine_cfg = EngineConfig::default().with_bulk_size(2048);
        let gpu = gpu_workload_throughput(&mut bundle, 4096, &engine_cfg);
        let cpu = cpu_workload_throughput(&mut bundle, 4096, &CpuSpec::xeon_e5520());
        assert!(gpu.tps() > 0.0);
        assert!(cpu.tps() > 0.0);
        let sigs = bundle.generate_signatures(1000, 0);
        let report = run_gpu_bulk(&bundle, sigs, StrategyKind::Kset, &engine_cfg);
        assert_eq!(report.transactions, 1000);
    }
}
