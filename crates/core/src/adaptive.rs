//! Cost-model-driven per-bulk strategy selection (the adaptive selector).
//!
//! Where [`crate::select`] applies the paper's *rule-based* thresholds
//! (Appendix D, Algorithm 1), this module closes the selection loop the way
//! §5 motivates it: each formed bulk is profiled ([`BulkProfile`]), the three
//! execution strategies are *scored* through the existing cost models —
//! K-SET and PART through the SIMT kernel model
//! ([`gputx_sim::cost::CostModel`]), TPL through the serial CPU model
//! ([`gputx_cpu::cost`], because the engines' TPL path is the serial
//! timestamp-order host loop) — and the cheapest one wins. A configurable
//! hysteresis keeps the incumbent strategy unless a challenger beats it by a
//! clear margin, so bursty open-loop load does not thrash between strategies
//! on noise-level cost differences.
//!
//! The selector is deterministic: decisions are a pure function of the
//! profile stream (no randomness, no clocks), so any run can be replayed to
//! the same strategy sequence — the property `tests/adaptive_equivalence.rs`
//! pins down. One hard invariant is enforced on top of the scores: a
//! conflict-free bulk (`depth == 0`, no cross-partition transactions) is
//! never executed with TPL, because a single K-SET wave dominates serial
//! execution for every bulk wide enough to matter.
//!
//! Every decision is recorded into a shared [`DecisionStats`], observable
//! through `PipelinedGpuTx::decision_stats()` / `GpuTxEngine::
//! decision_stats()` while the engine runs.

use crate::config::EngineConfig;
use crate::profiler::BulkProfile;
use crate::strategy::StrategyKind;
use gputx_cpu::cost::{trace_cpu_seconds, CPU_DISPATCH_OVERHEAD_NS};
use gputx_sim::cost::CostModel;
use gputx_sim::{CpuSpec, ThreadTrace};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Tuning knobs of the [`AdaptiveSelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Relative cost advantage a challenger strategy needs over the incumbent
    /// before the selector switches (0.15 = 15 % cheaper). Zero disables
    /// hysteresis.
    pub hysteresis: f64,
    /// Upper bound for the suggested bulk size; the pipelined engine feeds
    /// its `max_bulk_size` here so suggestions never exceed the configured
    /// admission limit.
    pub bulk_ceiling: usize,
    /// Cap on the per-decision history kept in [`DecisionStats`].
    pub history_cap: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            hysteresis: 0.15,
            bulk_ceiling: 8_192,
            history_cap: 4_096,
        }
    }
}

/// Estimated execution cost of each strategy for one bulk, in seconds.
///
/// K-SET and PART are simulated-GPU kernel times; TPL is serial host time.
/// The units are comparable the same way the paper's Figure 12 compares
/// strategies: as end-to-end time for the bulk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyScores {
    /// Per-rank conflict-free waves on the simulated GPU.
    pub kset_secs: f64,
    /// One GPU thread per partition group (or the serial fallback cost when
    /// cross-partition transactions force it).
    pub part_secs: f64,
    /// Serial timestamp-order execution on the host.
    pub tpl_secs: f64,
}

impl StrategyScores {
    /// The score of one strategy.
    pub fn of(&self, strategy: StrategyKind) -> f64 {
        match strategy {
            StrategyKind::Kset => self.kset_secs,
            StrategyKind::Part => self.part_secs,
            StrategyKind::Tpl => self.tpl_secs,
        }
    }
}

/// One selector decision: the chosen strategy, the bulk sizing hint for the
/// admission stage, and the scores it was based on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The strategy the bulk should execute with.
    pub strategy: StrategyKind,
    /// Bulk size the admission stage should aim for next: large bulks for
    /// K-SET (parallelism amortizes launch overhead), smaller bulks for the
    /// serialized strategies (bounding latency costs no throughput there).
    pub suggested_bulk_size: usize,
    /// The per-strategy cost estimates behind the choice.
    pub scores: StrategyScores,
    /// True when this decision changed strategy relative to the previous
    /// bulk.
    pub switched: bool,
}

/// Running tally of adaptive decisions, shared between the selector (on the
/// grouping stage) and observers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionStats {
    /// Bulks executed with K-SET.
    pub kset: u64,
    /// Bulks executed with PART.
    pub part: u64,
    /// Bulks executed with TPL.
    pub tpl: u64,
    /// Number of decisions that changed strategy.
    pub switches: u64,
    /// Most recent bulk-size suggestion.
    pub last_suggested_bulk_size: usize,
    /// Chosen strategies in decision order, capped at
    /// [`AdaptiveConfig::history_cap`] (oldest dropped first).
    pub history: VecDeque<StrategyKind>,
}

impl DecisionStats {
    /// Total number of decisions recorded.
    pub fn total(&self) -> u64 {
        self.kset + self.part + self.tpl
    }

    /// Decisions for one strategy.
    pub fn count(&self, strategy: StrategyKind) -> u64 {
        match strategy {
            StrategyKind::Kset => self.kset,
            StrategyKind::Part => self.part,
            StrategyKind::Tpl => self.tpl,
        }
    }

    /// The decision histogram as `(strategy, count)` pairs.
    pub fn histogram(&self) -> [(StrategyKind, u64); 3] {
        [
            (StrategyKind::Kset, self.kset),
            (StrategyKind::Part, self.part),
            (StrategyKind::Tpl, self.tpl),
        ]
    }

    /// True when at least two different strategies were chosen — the signal
    /// that the workload actually exercised the selector.
    pub fn non_degenerate(&self) -> bool {
        self.histogram().iter().filter(|(_, n)| *n > 0).count() >= 2
    }

    fn record(&mut self, decision: &Decision, cap: usize) {
        match decision.strategy {
            StrategyKind::Kset => self.kset += 1,
            StrategyKind::Part => self.part += 1,
            StrategyKind::Tpl => self.tpl += 1,
        }
        if decision.switched {
            self.switches += 1;
        }
        self.last_suggested_bulk_size = decision.suggested_bulk_size;
        if self.history.len() >= cap.max(1) {
            self.history.pop_front();
        }
        self.history.push_back(decision.strategy);
    }
}

/// Cloneable observer handle onto a selector's [`DecisionStats`].
#[derive(Debug, Clone, Default)]
pub struct DecisionStatsHandle(Arc<Mutex<DecisionStats>>);

impl DecisionStatsHandle {
    /// A copy of the stats at this instant.
    pub fn snapshot(&self) -> DecisionStats {
        self.0.lock().expect("decision stats lock").clone()
    }
}

/// The per-bulk adaptive selector: cost-model scoring plus hysteresis.
#[derive(Debug)]
pub struct AdaptiveSelector {
    model: CostModel,
    cpu: CpuSpec,
    partition_size: u64,
    config: AdaptiveConfig,
    last: Option<StrategyKind>,
    stats: DecisionStatsHandle,
}

impl AdaptiveSelector {
    /// Build a selector for an engine configuration. `bulk_ceiling` bounds
    /// the sizing suggestions (the pipelined engine passes its
    /// `max_bulk_size`, the one-shot engine its `bulk_size`).
    pub fn new(engine: &EngineConfig, adaptive: AdaptiveConfig) -> Self {
        AdaptiveSelector {
            model: CostModel::new(engine.device.clone()),
            cpu: CpuSpec::xeon_e5520(),
            partition_size: engine.partition_size,
            config: adaptive,
            last: None,
            stats: DecisionStatsHandle::default(),
        }
    }

    /// The shared stats handle (clone it out before moving the selector onto
    /// the grouping stage).
    pub fn stats_handle(&self) -> DecisionStatsHandle {
        self.stats.clone()
    }

    /// Score the profile, apply hysteresis against the previous choice, and
    /// record the decision.
    pub fn decide(&mut self, profile: &BulkProfile) -> Decision {
        let scores = score_profile(&self.model, &self.cpu, self.partition_size, profile);
        let best = cheapest_allowed(&scores, profile);
        let strategy = match self.last {
            // Keep the incumbent unless the challenger is decisively cheaper
            // — but never retain a strategy the profile forbids.
            Some(last) if last != best && allowed(last, profile) => {
                if scores.of(best) < scores.of(last) * (1.0 - self.config.hysteresis) {
                    best
                } else {
                    last
                }
            }
            _ => best,
        };
        let decision = Decision {
            strategy,
            suggested_bulk_size: suggest_bulk_size(strategy, self.config.bulk_ceiling),
            scores,
            switched: self.last.is_some_and(|l| l != strategy),
        };
        self.last = Some(strategy);
        self.stats
            .0
            .lock()
            .expect("decision stats lock")
            .record(&decision, self.config.history_cap);
        decision
    }
}

/// Stateless cost-based choice (no hysteresis, no stats): what
/// [`AdaptiveSelector::decide`] would pick for the first bulk it ever sees.
/// This is the `StrategyChoice::Adaptive` resolution used by one-shot
/// call sites that have no selector to thread state through.
pub fn cost_based_choice(config: &EngineConfig, profile: &BulkProfile) -> StrategyKind {
    let model = CostModel::new(config.device.clone());
    let scores = score_profile(
        &model,
        &CpuSpec::xeon_e5520(),
        config.partition_size,
        profile,
    );
    cheapest_allowed(&scores, profile)
}

/// A conflict-free bulk must never run TPL: one K-SET wave strictly
/// dominates serial execution.
fn allowed(strategy: StrategyKind, profile: &BulkProfile) -> bool {
    let conflict_free = profile.depth == 0 && profile.cross_partition == 0 && profile.size > 0;
    !(conflict_free && strategy == StrategyKind::Tpl)
}

fn cheapest_allowed(scores: &StrategyScores, profile: &BulkProfile) -> StrategyKind {
    // Tie-break in K-SET → PART → TPL order (most to least parallel).
    let order = [StrategyKind::Kset, StrategyKind::Part, StrategyKind::Tpl];
    order
        .into_iter()
        .filter(|s| allowed(*s, profile))
        .min_by(|a, b| {
            scores
                .of(*a)
                .partial_cmp(&scores.of(*b))
                .expect("scores are finite")
        })
        .expect("K-SET is always allowed")
}

fn suggest_bulk_size(strategy: StrategyKind, ceiling: usize) -> usize {
    let ceiling = ceiling.max(1);
    match strategy {
        StrategyKind::Kset => ceiling,
        StrategyKind::Part => (ceiling / 2).max(1),
        StrategyKind::Tpl => (ceiling / 8).max(1),
    }
}

/// Prototype per-transaction thread trace used for scoring: a short OLTP
/// transaction (a few index probes, a handful of field reads and writes,
/// some arithmetic). `scale` stacks several transactions into one thread,
/// the shape of a partition group executed serially by one GPU thread.
fn prototype_trace(scale: usize) -> ThreadTrace {
    let mut t = ThreadTrace::new(0);
    for _ in 0..scale.max(1) {
        t.compute(200);
        for _ in 0..10 {
            t.read(8);
        }
        for _ in 0..4 {
            t.write(8);
        }
    }
    t
}

/// Score all three strategies for a profile. Pure: same inputs, same scores.
pub(crate) fn score_profile(
    model: &CostModel,
    cpu: &CpuSpec,
    partition_size: u64,
    profile: &BulkProfile,
) -> StrategyScores {
    let clock_hz = model.spec().clock_ghz * 1e9;
    let size = profile.size.max(1);
    let proto = prototype_trace(1);

    // TPL: the engines execute the Serial plan as a host loop in timestamp
    // order — one CPU core, one transaction at a time, plus dispatch.
    let tpl_secs = size as f64 * (trace_cpu_seconds(&proto, cpu) + CPU_DISPATCH_OVERHEAD_NS * 1e-9);

    // K-SET: one kernel launch per rank. The 0-set forms the first wave; the
    // remaining transactions are assumed evenly spread over the remaining
    // `depth` waves (the profiler only keeps the aggregate shape).
    let w0 = profile.zero_set_size.clamp(1, size);
    let mut kset_cycles = model.uniform_kernel_cost(w0, &proto).cycles;
    let rest = size - w0.min(size);
    if profile.depth > 0 && rest > 0 {
        let per_wave = rest.div_ceil(profile.depth as usize).max(1);
        let full_waves = rest / per_wave;
        let wave_cost = model.uniform_kernel_cost(per_wave, &proto).cycles;
        kset_cycles += full_waves as f64 * wave_cost;
        let tail = rest - full_waves * per_wave;
        if tail > 0 {
            kset_cycles += model.uniform_kernel_cost(tail, &proto).cycles;
        }
    }
    let kset_secs = kset_cycles / clock_hz;

    // PART: cross-partition transactions force the whole-bulk serial
    // fallback (§5.2), costed as TPL plus the wasted partitioning attempt.
    // Otherwise one GPU thread per partition group runs its group serially.
    let part_secs = if profile.cross_partition > 0 {
        tpl_secs * 1.05
    } else {
        let keys = profile.distinct_partitions.max(1);
        let groups = keys.div_ceil(partition_size.max(1) as usize).max(1);
        let per_group = size.div_ceil(groups);
        model
            .uniform_kernel_cost(groups, &prototype_trace(per_group))
            .cycles
            / clock_hz
    };

    StrategyScores {
        kset_secs,
        part_secs,
        tpl_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(
        size: usize,
        depth: u32,
        zero: usize,
        cross: usize,
        partitions: usize,
    ) -> BulkProfile {
        BulkProfile {
            size,
            depth,
            zero_set_size: zero,
            cross_partition: cross,
            distinct_partitions: partitions,
            distinct_types: 1,
            type_histogram: vec![size],
        }
    }

    fn selector() -> AdaptiveSelector {
        AdaptiveSelector::new(&EngineConfig::default(), AdaptiveConfig::default())
    }

    #[test]
    fn conflict_free_bulk_picks_kset() {
        let mut s = selector();
        let d = s.decide(&profile(8192, 0, 8192, 0, 8192));
        assert_eq!(d.strategy, StrategyKind::Kset);
        assert!(d.scores.kset_secs < d.scores.tpl_secs);
    }

    #[test]
    fn deep_chain_picks_tpl() {
        // A single hot key: depth ≈ size, one transaction per wave. Launch
        // overhead × waves dwarfs the serial host loop.
        let mut s = selector();
        let d = s.decide(&profile(4096, 4095, 1, 0, 1));
        assert_eq!(d.strategy, StrategyKind::Tpl);
        assert!(d.scores.tpl_secs < d.scores.kset_secs);
    }

    #[test]
    fn partitioned_chains_pick_part() {
        // Many partitions, each a deep chain: K-SET degenerates to thin
        // waves, TPL is serial, but PART runs the partitions in parallel.
        // Partition size 1 (one key per partition, the TPC-B/TPC-C setup)
        // keeps the 128 keys in 128 distinct groups.
        let mut s = AdaptiveSelector::new(
            &EngineConfig::default().with_partition_size(1),
            AdaptiveConfig::default(),
        );
        let d = s.decide(&profile(8192, 63, 128, 0, 128));
        assert_eq!(d.strategy, StrategyKind::Part, "scores: {:?}", d.scores);
        assert!(d.scores.part_secs < d.scores.tpl_secs);
        assert!(d.scores.part_secs < d.scores.kset_secs);
    }

    #[test]
    fn cross_partition_bulk_never_scores_part_below_tpl() {
        let scores = score_profile(
            &CostModel::new(EngineConfig::default().device),
            &CpuSpec::xeon_e5520(),
            128,
            &profile(4096, 100, 10, 200, 64),
        );
        assert!(scores.part_secs > scores.tpl_secs);
    }

    #[test]
    fn never_tpl_for_conflict_free_bulk() {
        // Even a tiny conflict-free bulk (where launch overhead makes the
        // GPU look bad) must not be retained on TPL.
        let mut s = selector();
        s.decide(&profile(4096, 4095, 1, 0, 1)); // locks in TPL
        let d = s.decide(&profile(4, 0, 4, 0, 4));
        assert_ne!(d.strategy, StrategyKind::Tpl);
    }

    #[test]
    fn hysteresis_keeps_incumbent_on_marginal_scores() {
        let mut s = selector();
        let first = s.decide(&profile(8192, 0, 8192, 0, 8192));
        assert_eq!(first.strategy, StrategyKind::Kset);
        // A profile whose PART/K-SET scores are close: slight depth. The
        // incumbent should survive unless PART wins by > hysteresis.
        let second = s.decide(&profile(8192, 1, 8000, 0, 8192));
        if second.strategy != StrategyKind::Kset {
            assert!(
                second.scores.of(second.strategy) < second.scores.kset_secs * (1.0 - 0.15),
                "a switch must clear the hysteresis margin: {:?}",
                second.scores
            );
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let profiles: Vec<BulkProfile> = (0..32)
            .map(|i| {
                profile(
                    1024 + i * 7,
                    (i as u32 * 131) % 1024,
                    1 + (i * 37) % 1024,
                    (i * 13) % 80,
                    1 + (i * 29) % 256,
                )
            })
            .collect();
        let run = |mut s: AdaptiveSelector| -> Vec<StrategyKind> {
            profiles.iter().map(|p| s.decide(p).strategy).collect()
        };
        assert_eq!(run(selector()), run(selector()));
    }

    #[test]
    fn stats_tally_decisions_and_switches() {
        let mut s = selector();
        let handle = s.stats_handle();
        s.decide(&profile(8192, 0, 8192, 0, 8192)); // Kset
        s.decide(&profile(4096, 4095, 1, 0, 1)); // Tpl (switch)
        s.decide(&profile(4096, 4095, 1, 0, 1)); // Tpl
        let stats = handle.snapshot();
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.kset, 1);
        assert_eq!(stats.tpl, 2);
        assert_eq!(stats.switches, 1);
        assert_eq!(
            stats.history,
            [StrategyKind::Kset, StrategyKind::Tpl, StrategyKind::Tpl]
        );
        assert!(stats.non_degenerate());
    }

    #[test]
    fn history_is_capped() {
        let mut s = AdaptiveSelector::new(
            &EngineConfig::default(),
            AdaptiveConfig {
                history_cap: 4,
                ..AdaptiveConfig::default()
            },
        );
        let decided: Vec<StrategyKind> = (0..10)
            .map(|i| match i % 3 {
                0 => s.decide(&profile(4096, 4095, 1, 0, 1)),    // Tpl
                _ => s.decide(&profile(8192, 0, 8192, 0, 8192)), // Kset
            })
            .map(|d| d.strategy)
            .collect();
        let stats = s.stats_handle().snapshot();
        assert_eq!(stats.history.len(), 4);
        assert!(stats.history.iter().eq(&decided[6..]), "the newest four");
        assert_eq!(stats.total(), 10);
    }

    #[test]
    fn sizing_follows_strategy() {
        assert_eq!(suggest_bulk_size(StrategyKind::Kset, 8192), 8192);
        assert_eq!(suggest_bulk_size(StrategyKind::Part, 8192), 4096);
        assert_eq!(suggest_bulk_size(StrategyKind::Tpl, 8192), 1024);
        assert_eq!(suggest_bulk_size(StrategyKind::Tpl, 4), 1);
    }

    #[test]
    fn stateless_choice_matches_first_decision() {
        let config = EngineConfig::default();
        for p in [
            profile(8192, 0, 8192, 0, 8192),
            profile(4096, 4095, 1, 0, 1),
            profile(8192, 63, 128, 0, 128),
        ] {
            let mut s = selector();
            assert_eq!(cost_based_choice(&config, &p), s.decide(&p).strategy);
        }
    }
}
