//! Engine configuration.

use gputx_durability::DurabilityConfig;
use gputx_sim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// How the one-shot engine picks the execution strategy for a bulk. The
/// pipelined engine ignores it: it runs every bulk in timestamp order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyChoice {
    /// Always use two-phase locking.
    ForceTpl,
    /// Always use partition-based execution.
    ForcePart,
    /// Always use k-set based execution.
    ForceKset,
    /// Use the rule-based selection of Appendix D, Algorithm 1.
    Auto,
    /// Use the cost-model-driven adaptive selector (see
    /// [`crate::adaptive`]): per-bulk profiling scored through the SIMT and
    /// CPU cost models, with hysteresis and decision stats. Constructed
    /// through `EngineBuilder::adaptive()`.
    Adaptive,
}

/// Thresholds of the rule-based strategy selection (Appendix D, Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionThresholds {
    /// Minimum 0-set size for K-SET to fully utilize the GPU (`w̄0`).
    pub min_zero_set: usize,
    /// Maximum number of cross-partition transactions tolerated by PART (`c̄`).
    pub max_cross_partition: usize,
    /// Minimum T-dependency-graph depth above which PART is preferred over
    /// TPL (`d̄`).
    pub min_depth_for_part: u32,
}

impl Default for SelectionThresholds {
    fn default() -> Self {
        SelectionThresholds {
            // Enough 0-set transactions to keep 240 cores busy with several
            // warps per SM.
            min_zero_set: 7_680,
            max_cross_partition: 64,
            min_depth_for_part: 32,
        }
    }
}

/// Configuration of the GPUTx engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The simulated device to run on.
    pub device: DeviceSpec,
    /// Maximum number of transactions per bulk.
    pub bulk_size: usize,
    /// How to pick the execution strategy.
    pub strategy: StrategyChoice,
    /// Thresholds for the automatic strategy selection.
    pub thresholds: SelectionThresholds,
    /// Number of radix-partitioning passes used to group transactions by type
    /// before execution (0 disables grouping). Each pass separates one more
    /// bit of the type id (Appendix D).
    pub grouping_passes: u32,
    /// Number of partitioning-key values per partition for PART (§5.2,
    /// Figure 13; the paper's tuned value is 128).
    pub partition_size: u64,
    /// Whether undo logging is charged for transaction types that need it
    /// (Appendix D "Logging"); functional rollback always works regardless.
    pub undo_logging: bool,
    /// Relax the timestamp constraint (Appendix G): bulk generation skips the
    /// rank computation and locks only enforce mutual exclusion.
    pub relax_timestamps: bool,
    /// Crash durability: when a directory is configured, every committed
    /// bulk appends one redo record (its net typed write-set) to a
    /// write-ahead log there, fsynced per the configured policy, and
    /// `gputx_durability::recover` rebuilds the committed state after a
    /// crash. Disabled by default — the engines then behave exactly as
    /// before, paying zero logging cost.
    pub durability: DurabilityConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            device: DeviceSpec::tesla_c1060(),
            bulk_size: 65_536,
            strategy: StrategyChoice::Auto,
            thresholds: SelectionThresholds::default(),
            grouping_passes: 8,
            partition_size: 128,
            undo_logging: true,
            relax_timestamps: false,
            durability: DurabilityConfig::disabled(),
        }
    }
}

impl EngineConfig {
    /// Configuration preset matching the paper's experimental setup.
    pub fn paper_setup() -> Self {
        Self::default()
    }

    /// Builder-style: force a specific strategy.
    pub fn with_strategy(mut self, strategy: StrategyChoice) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style: set the bulk size.
    pub fn with_bulk_size(mut self, bulk_size: usize) -> Self {
        self.bulk_size = bulk_size;
        self
    }

    /// Builder-style: set the number of grouping passes.
    pub fn with_grouping_passes(mut self, passes: u32) -> Self {
        self.grouping_passes = passes;
        self
    }

    /// Builder-style: set the PART partition size.
    pub fn with_partition_size(mut self, partition_size: u64) -> Self {
        assert!(partition_size > 0, "partition size must be positive");
        self.partition_size = partition_size;
        self
    }

    /// Builder-style: relax the timestamp constraint (Appendix G).
    pub fn with_relaxed_timestamps(mut self, relax: bool) -> Self {
        self.relax_timestamps = relax;
        self
    }
}

/// Configuration of the streaming pipelined engine
/// ([`PipelinedGpuTx`](crate::pipeline::PipelinedGpuTx)).
///
/// The admission stage closes a bulk when it reaches `max_bulk_size`
/// transactions *or* when the oldest queued transaction has waited
/// `max_wait_us` microseconds, whichever comes first — large bulks amortize
/// grouping cost (throughput), the deadline bounds ticket latency, the same
/// trade-off the paper's response-time figures chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Close a bulk at this many transactions.
    pub max_bulk_size: usize,
    /// Close a non-empty bulk after its oldest transaction waited this many
    /// microseconds.
    pub max_wait_us: u64,
    /// Capacity of the bounded admission queue; a full queue blocks `submit`
    /// (backpressure) and fails `try_submit`.
    pub queue_depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_bulk_size: 8_192,
            max_wait_us: 2_000,
            queue_depth: 16_384,
        }
    }
}

impl PipelineConfig {
    /// Builder-style: set the bulk-size close threshold.
    pub fn with_max_bulk_size(mut self, max_bulk_size: usize) -> Self {
        assert!(max_bulk_size > 0, "max_bulk_size must be positive");
        self.max_bulk_size = max_bulk_size;
        self
    }

    /// Builder-style: set the admission deadline in microseconds.
    pub fn with_max_wait_us(mut self, max_wait_us: u64) -> Self {
        self.max_wait_us = max_wait_us;
        self
    }

    /// Builder-style: set the admission queue depth.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue_depth must be positive");
        self.queue_depth = queue_depth;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = EngineConfig::default();
        assert_eq!(c.partition_size, 128);
        assert_eq!(c.device.total_cores(), 240);
        assert_eq!(c.strategy, StrategyChoice::Auto);
        assert!(!c.relax_timestamps);
    }

    #[test]
    fn builder_methods_apply() {
        let c = EngineConfig::default()
            .with_strategy(StrategyChoice::ForceKset)
            .with_bulk_size(1000)
            .with_grouping_passes(2)
            .with_partition_size(64)
            .with_relaxed_timestamps(true);
        assert_eq!(c.strategy, StrategyChoice::ForceKset);
        assert_eq!(c.bulk_size, 1000);
        assert_eq!(c.grouping_passes, 2);
        assert_eq!(c.partition_size, 64);
        assert!(c.relax_timestamps);
    }

    #[test]
    fn durability_disabled_by_default() {
        assert!(!EngineConfig::default().durability.enabled());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_partition_size_rejected() {
        EngineConfig::default().with_partition_size(0);
    }

    #[test]
    fn pipeline_config_builders_apply() {
        let c = PipelineConfig::default()
            .with_max_bulk_size(1024)
            .with_max_wait_us(500)
            .with_queue_depth(32);
        assert_eq!(c.max_bulk_size, 1024);
        assert_eq!(c.max_wait_us, 500);
        assert_eq!(c.queue_depth, 32);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pipeline_bulk_size_rejected() {
        PipelineConfig::default().with_max_bulk_size(0);
    }
}
