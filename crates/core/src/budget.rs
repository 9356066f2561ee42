//! Flow budgets and the deterministic degradation ladder.
//!
//! A [`FlowBudget`] bounds the three resources a pathological circuit can
//! exhaust: wall-clock time, cut-arena memory and resynthesis planning work.
//! Budgets are enforced at **phase boundaries** — never inside a kernel — by
//! degrading the flow configuration down a fixed ladder (see
//! [`plan_degradation`] and `docs/RELIABILITY.md`). Every rung is a pure
//! configuration transformation, so for the size-based caps the degraded
//! flow is exactly as deterministic as the pristine one: the same budget on
//! the same circuit yields byte-identical netlists at every thread count.
//! Only the wall-clock deadline is inherently nondeterministic; it is
//! checked once, between choice construction and mapping, and recorded in
//! the [`DegradationReport`].

use crate::MchConfig;
use mch_choice::StrategyLibrary;
use std::time::Duration;

/// Resource bounds for one flow invocation. `None` everywhere (the
/// [`unlimited`](FlowBudget::unlimited) default) turns all supervision into
/// cheap no-op comparisons at the phase boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowBudget {
    /// Wall-clock deadline for the whole flow. When choice construction
    /// alone exceeds it, the mapping phase falls back to structural cut
    /// ranking with zero area-recovery rounds (the cheapest valid mapping).
    pub deadline: Option<Duration>,
    /// Cap on predicted cut-arena slots (`nodes × cut_limit`), enforced by
    /// halving the cut limit before enumeration — once against the input
    /// network and once against the (deterministically sized) choice
    /// network.
    pub max_cut_arena_slots: Option<usize>,
    /// Cap on the predicted resynthesis planning work
    /// (`gates × candidate cap × strategy entries`, plus the snapshot-view
    /// nodes), enforced by walking the strategy-dropping rungs of the
    /// ladder.
    pub max_resynthesis_candidates: Option<usize>,
}

impl FlowBudget {
    /// No bounds: every phase runs exactly as without budgets.
    pub fn unlimited() -> Self {
        FlowBudget::default()
    }

    /// Returns the same budget with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the same budget with a cut-arena slot cap.
    pub fn with_max_cut_arena_slots(mut self, slots: usize) -> Self {
        self.max_cut_arena_slots = Some(slots);
        self
    }

    /// Returns the same budget with a resynthesis-candidate cap.
    pub fn with_max_resynthesis_candidates(mut self, candidates: usize) -> Self {
        self.max_resynthesis_candidates = Some(candidates);
        self
    }

    /// Whether any bound is set (used by the flows to skip planning work
    /// entirely on the unlimited fast path).
    pub fn is_unlimited(&self) -> bool {
        *self == FlowBudget::default()
    }
}

/// Which strategy library a [`DegradationStep::StrategyDropped`] rung
/// shrank.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StrategyClass {
    /// The area-oriented library (dropped first — area choices are the
    /// volume knob).
    Area,
    /// The level-oriented library (dropped second — critical-path choices
    /// are the quality knob).
    Level,
}

/// One rung of the degradation ladder, in the order it was taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DegradationStep {
    /// The choice-construction or mapper cut limit was halved to fit the
    /// arena slot cap.
    CutLimitShrunk {
        /// Cut limit before the halving.
        from: usize,
        /// Cut limit after the halving (floored at 2).
        to: usize,
    },
    /// The per-node candidate cap was halved to fit the resynthesis cap.
    CandidateCapReduced {
        /// Cap before the halving.
        from: usize,
        /// Cap after the halving (floored at 1).
        to: usize,
    },
    /// The last entry of one strategy library was dropped.
    StrategyDropped {
        /// Which library shrank.
        library: StrategyClass,
        /// Entries remaining in that library afterwards.
        remaining: usize,
    },
    /// Both strategy libraries ran dry: NPN resynthesis is off entirely.
    ResynthesisDisabled,
    /// The graph-mapped snapshot views were dropped from the choice mix.
    SnapshotsDropped,
    /// Cross-mapper fusion was dropped: the ASIC guide pass doubles the cut
    /// work per job, so a fused flow whose predicted guide-pass arena
    /// (`nodes × cut_limit`, on top of the LUT arena) exceeds the slot cap —
    /// or whose deadline already passed — falls back to the plain LUT cover.
    FusionDropped,
    /// The wall-clock deadline passed after choice construction: the mapper
    /// fell back to structural cut ranking with zero area-recovery rounds.
    DeadlineFallback,
}

/// What the budget supervisor did to keep a flow inside its
/// [`FlowBudget`] — empty when nothing was breached. Carried on
/// [`AsicFlowResult`](crate::AsicFlowResult) and
/// [`LutFlowResult`](crate::LutFlowResult); degraded outputs are still full
/// netlists and still equivalence-checked against the input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// The rungs taken, in order.
    pub steps: Vec<DegradationStep>,
    /// Whether the wall-clock deadline was breached.
    pub deadline_breached: bool,
}

impl DegradationReport {
    /// Whether any degradation happened.
    pub fn degraded(&self) -> bool {
        !self.steps.is_empty() || self.deadline_breached
    }
}

/// Halves `cut_limit` (floor 2) until `nodes × cut_limit` fits `cap`,
/// recording each rung. Shared between the pre-enumeration check on the
/// input network and the pre-mapping check on the choice network — both
/// sizes are deterministic, so so are the rungs.
pub(crate) fn shrink_cut_limit(
    nodes: usize,
    mut cut_limit: usize,
    cap: Option<usize>,
    report: &mut DegradationReport,
) -> usize {
    let Some(cap) = cap else {
        return cut_limit;
    };
    while cut_limit > 2 && nodes.saturating_mul(cut_limit) > cap {
        let to = (cut_limit / 2).max(2);
        report.steps.push(DegradationStep::CutLimitShrunk {
            from: cut_limit,
            to,
        });
        cut_limit = to;
    }
    cut_limit
}

/// Predicted resynthesis planning work for a configuration: every gate may
/// plan up to the candidate cap against every strategy entry, and each
/// snapshot view re-walks the whole network once.
fn candidate_estimate(gate_count: usize, network_len: usize, config: &MchConfig) -> usize {
    let entries =
        config.mch.level_strategies.entries().len() + config.mch.area_strategies.entries().len();
    let resynthesis = gate_count
        .saturating_mul(config.mch.max_candidates_per_node)
        .saturating_mul(entries);
    let snapshots = if config.mix_optimized_snapshots {
        network_len.saturating_mul(config.mch.secondary.len() + 1)
    } else {
        0
    };
    resynthesis.saturating_add(snapshots)
}

/// Applies the size-based rungs of the degradation ladder to `config`,
/// returning the (possibly) degraded configuration and the report of every
/// rung taken. Pure: depends only on the network's node/gate counts, the
/// configuration and the budget — never on timing — so it is deterministic
/// at every thread count.
///
/// Ladder order (fixed; each rung strictly shrinks the estimate, so the walk
/// terminates):
///
/// 1. halve the choice `cut_limit` while the arena estimate exceeds the slot
///    cap (floor 2);
/// 2. while the candidate estimate exceeds the resynthesis cap:
///    halve `max_candidates_per_node` (floor 1), then drop area-strategy
///    entries from the back, then level-strategy entries (recording
///    [`DegradationStep::ResynthesisDisabled`] when both run dry), then the
///    snapshot views.
pub(crate) fn plan_degradation(
    network_len: usize,
    gate_count: usize,
    config: &MchConfig,
    budget: &FlowBudget,
) -> (MchConfig, DegradationReport) {
    let mut config = config.clone();
    let mut report = DegradationReport::default();

    config.mch.cut_limit = shrink_cut_limit(
        network_len,
        config.mch.cut_limit,
        budget.max_cut_arena_slots,
        &mut report,
    );

    if let Some(cap) = budget.max_resynthesis_candidates {
        while candidate_estimate(gate_count, network_len, &config) > cap {
            if config.mch.max_candidates_per_node > 1 {
                let from = config.mch.max_candidates_per_node;
                let to = (from / 2).max(1);
                config.mch.max_candidates_per_node = to;
                report
                    .steps
                    .push(DegradationStep::CandidateCapReduced { from, to });
            } else if !config.mch.area_strategies.is_empty() {
                let mut entries = config.mch.area_strategies.entries().to_vec();
                entries.pop();
                report.steps.push(DegradationStep::StrategyDropped {
                    library: StrategyClass::Area,
                    remaining: entries.len(),
                });
                config.mch.area_strategies = StrategyLibrary::new(entries);
            } else if !config.mch.level_strategies.is_empty() {
                let mut entries = config.mch.level_strategies.entries().to_vec();
                entries.pop();
                report.steps.push(DegradationStep::StrategyDropped {
                    library: StrategyClass::Level,
                    remaining: entries.len(),
                });
                config.mch.level_strategies = StrategyLibrary::new(entries);
                if entries_empty(&config) {
                    report.steps.push(DegradationStep::ResynthesisDisabled);
                }
            } else if config.mix_optimized_snapshots {
                config.mix_optimized_snapshots = false;
                report.steps.push(DegradationStep::SnapshotsDropped);
            } else {
                // Nothing left to shed; the residual estimate is the
                // one-to-one choices, which are linear and always allowed.
                break;
            }
        }
    }
    (config, report)
}

fn entries_empty(config: &MchConfig) -> bool {
    config.mch.level_strategies.is_empty() && config.mch.area_strategies.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_changes_nothing() {
        let config = MchConfig::balanced();
        let (degraded, report) = plan_degradation(1000, 900, &config, &FlowBudget::unlimited());
        assert!(!report.degraded());
        assert_eq!(degraded.mch.cut_limit, config.mch.cut_limit);
        assert_eq!(
            degraded.mch.max_candidates_per_node,
            config.mch.max_candidates_per_node
        );
    }

    #[test]
    fn arena_cap_halves_the_cut_limit_to_its_floor() {
        let config = MchConfig::balanced();
        let budget = FlowBudget::unlimited().with_max_cut_arena_slots(1);
        let (degraded, report) = plan_degradation(1000, 900, &config, &budget);
        assert_eq!(degraded.mch.cut_limit, 2);
        assert!(report
            .steps
            .iter()
            .all(|s| matches!(s, DegradationStep::CutLimitShrunk { .. })));
        assert!(report.degraded());
    }

    #[test]
    fn candidate_cap_walks_the_full_ladder() {
        let config = MchConfig::area_oriented();
        let budget = FlowBudget::unlimited().with_max_resynthesis_candidates(0);
        let (degraded, report) = plan_degradation(1000, 900, &config, &budget);
        assert_eq!(degraded.mch.max_candidates_per_node, 1);
        assert!(degraded.mch.level_strategies.is_empty());
        assert!(degraded.mch.area_strategies.is_empty());
        assert!(!degraded.mix_optimized_snapshots);
        assert!(report.steps.contains(&DegradationStep::ResynthesisDisabled));
        assert!(report.steps.contains(&DegradationStep::SnapshotsDropped));
        // The ladder order is fixed: candidate halvings precede strategy
        // drops, area drops precede level drops.
        let first_strategy = report
            .steps
            .iter()
            .position(|s| matches!(s, DegradationStep::StrategyDropped { .. }));
        let last_cap = report
            .steps
            .iter()
            .rposition(|s| matches!(s, DegradationStep::CandidateCapReduced { .. }));
        if let (Some(s), Some(c)) = (first_strategy, last_cap) {
            assert!(c < s, "cap reductions must precede strategy drops");
        }
    }

    #[test]
    fn planning_is_deterministic() {
        let config = MchConfig::lut_area();
        let budget = FlowBudget::unlimited()
            .with_max_cut_arena_slots(500)
            .with_max_resynthesis_candidates(2000);
        let a = plan_degradation(4321, 4000, &config, &budget);
        let b = plan_degradation(4321, 4000, &config, &budget);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.mch.cut_limit, b.0.mch.cut_limit);
    }
}
