//! Rule-based execution strategy selection (Appendix D, Algorithm 1).
//!
//! The choice is driven by three structural parameters of the bulk's
//! T-dependency graph: the 0-set width `w0`, the cross-partition transaction
//! count `c` and the depth `d`.
//!
//! * If `w0 ≥ w̄0`, K-SET can fully utilize the GPU with little runtime
//!   overhead → choose K-SET.
//! * Otherwise, if `c ≤ c̄` or `d ≥ d̄`, PART's per-partition serialization is
//!   acceptable → choose PART.
//! * Otherwise → TPL.

use crate::adaptive::{cost_based_choice, AdaptiveConfig, AdaptiveSelector};
use crate::config::{EngineConfig, SelectionThresholds, StrategyChoice};
use crate::profiler::BulkProfile;
use crate::strategy::StrategyKind;

/// Apply Algorithm 1 to a bulk profile.
pub fn choose_by_rule(profile: &BulkProfile, thresholds: &SelectionThresholds) -> StrategyKind {
    if profile.zero_set_size >= thresholds.min_zero_set {
        return StrategyKind::Kset;
    }
    if profile.cross_partition <= thresholds.max_cross_partition
        || profile.depth >= thresholds.min_depth_for_part
    {
        return StrategyKind::Part;
    }
    StrategyKind::Tpl
}

/// Resolve the engine configuration's strategy choice for a concrete bulk —
/// the one place a [`StrategyChoice`] becomes a [`StrategyKind`].
///
/// `profile` is only invoked when the choice reads it (`Auto`, `Adaptive`);
/// forced choices never pay for profiling. Engines that execute a *stream*
/// of bulks pass their [`AdaptiveSelector`], which adds hysteresis
/// and decision stats on top of the cost-model scores and whose bulk-size
/// suggestion is returned beside the strategy; one-off call sites pass `None`
/// and get the stateless [`cost_based_choice`].
pub fn choose_strategy(
    config: &EngineConfig,
    selector: Option<&mut AdaptiveSelector>,
    profile: impl FnOnce() -> BulkProfile,
) -> (StrategyKind, Option<usize>) {
    match (config.strategy, selector) {
        (StrategyChoice::ForceTpl, _) => (StrategyKind::Tpl, None),
        (StrategyChoice::ForcePart, _) => (StrategyKind::Part, None),
        (StrategyChoice::ForceKset, _) => (StrategyKind::Kset, None),
        (StrategyChoice::Auto, _) => (choose_by_rule(&profile(), &config.thresholds), None),
        (StrategyChoice::Adaptive, Some(selector)) => {
            let decision = selector.decide(&profile());
            (decision.strategy, Some(decision.suggested_bulk_size))
        }
        (StrategyChoice::Adaptive, None) => (cost_based_choice(config, &profile()), None),
    }
}

/// The selector an engine threads through [`choose_strategy`]: present under
/// `StrategyChoice::Adaptive`, with sizing suggestions bounded by the
/// engine's own bulk limit.
pub(crate) fn selector_for(config: &EngineConfig, bulk_ceiling: usize) -> Option<AdaptiveSelector> {
    matches!(config.strategy, StrategyChoice::Adaptive).then(|| {
        AdaptiveSelector::new(
            config,
            AdaptiveConfig {
                bulk_ceiling,
                ..AdaptiveConfig::default()
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(zero: usize, cross: usize, depth: u32) -> BulkProfile {
        BulkProfile {
            size: 10_000,
            depth,
            zero_set_size: zero,
            cross_partition: cross,
            distinct_partitions: 64,
            distinct_types: 1,
            type_histogram: vec![10_000],
        }
    }

    #[test]
    fn wide_zero_set_picks_kset() {
        let t = SelectionThresholds::default();
        assert_eq!(
            choose_by_rule(&profile(t.min_zero_set, 0, 1), &t),
            StrategyKind::Kset
        );
        assert_eq!(
            choose_by_rule(&profile(t.min_zero_set * 10, 10_000, 100), &t),
            StrategyKind::Kset
        );
    }

    #[test]
    fn narrow_zero_set_with_few_cross_partitions_picks_part() {
        let t = SelectionThresholds::default();
        assert_eq!(choose_by_rule(&profile(10, 0, 5), &t), StrategyKind::Part);
        // Deep graphs also prefer PART even with many cross-partition txns.
        assert_eq!(
            choose_by_rule(&profile(10, 10_000, t.min_depth_for_part), &t),
            StrategyKind::Part
        );
    }

    #[test]
    fn otherwise_tpl() {
        let t = SelectionThresholds::default();
        assert_eq!(
            choose_by_rule(
                &profile(10, t.max_cross_partition + 1, t.min_depth_for_part - 1),
                &t
            ),
            StrategyKind::Tpl
        );
    }

    fn choose(config: &EngineConfig, p: &BulkProfile) -> StrategyKind {
        choose_strategy(config, None, || p.clone()).0
    }

    #[test]
    fn forced_choices_override_the_rule_without_profiling() {
        let base = EngineConfig::default();
        for (choice, kind) in [
            (StrategyChoice::ForceTpl, StrategyKind::Tpl),
            (StrategyChoice::ForcePart, StrategyKind::Part),
            (StrategyChoice::ForceKset, StrategyKind::Kset),
        ] {
            let config = base.clone().with_strategy(choice);
            let resolved = choose_strategy(&config, None, || unreachable!("forced: no profile"));
            assert_eq!(resolved, (kind, None));
        }
        assert_eq!(choose(&base, &profile(1_000_000, 0, 0)), StrategyKind::Kset);
    }

    #[test]
    fn adaptive_choice_resolves_through_the_cost_model() {
        // A wide conflict-free bulk: the cost model, like the rule, lands on
        // K-SET (and the conflict-free invariant forbids TPL outright).
        let p = profile(10_000, 0, 0);
        let c = EngineConfig::default().with_strategy(StrategyChoice::Adaptive);
        assert_eq!(choose(&c, &p), StrategyKind::Kset);
        // With the engine's selector the same scores also carry a size hint.
        let mut selector = selector_for(&c, 512).expect("adaptive installs a selector");
        let resolved = choose_strategy(&c, Some(&mut selector), || p.clone());
        assert_eq!(resolved, (StrategyKind::Kset, Some(512)));
        assert!(selector_for(&EngineConfig::default(), 512).is_none());
    }
}
