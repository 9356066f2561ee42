//! End-to-end tests of the budgeted degradation ladder.
//!
//! The size-based rungs are pure configuration transformations, so a
//! breached budget must produce the *same* degraded netlist at every thread
//! count (byte-identical serialization), the same pinned
//! `DegradationReport`, and an output that still passes combinational
//! equivalence checking against the input.

use mch::core::{DegradationStep, FlowBudget, MchConfig, StrategyClass};
use mch::benchmarks::demo_adder_gt;
use mch::techlib::{asap7_lite, LutLibrary};
use mch::io::{write_lut_blif, write_verilog};
use std::time::Duration;

/// A budget every demo-sized flow breaches on all size axes.
fn breaching_budget(network_len: usize) -> FlowBudget {
    FlowBudget::unlimited()
        .with_max_cut_arena_slots(network_len * 2)
        .with_max_resynthesis_candidates(0)
}

#[test]
fn degraded_lut_flow_is_identical_at_every_thread_count() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = breaching_budget(net.len());
    let mut serializations = Vec::new();
    for threads in [1, 2, 4] {
        let config = MchConfig::lut_area().with_threads(threads);
        let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &budget)
            .expect("breached budgets degrade, they do not fail");
        assert!(result.degradation.degraded(), "the budget must breach");
        assert!(
            result.verified,
            "degraded output must stay simulation-equivalent at {threads} threads"
        );
        serializations.push(write_lut_blif(&result.netlist));
    }
    assert_eq!(
        serializations[0], serializations[1],
        "degraded netlist differs between 1 and 2 threads"
    );
    assert_eq!(
        serializations[0], serializations[2],
        "degraded netlist differs between 1 and 4 threads"
    );
}

#[test]
fn degraded_asic_flow_is_identical_at_every_thread_count() {
    let net = demo_adder_gt();
    let lib = asap7_lite();
    let budget = breaching_budget(net.len());
    let mut serializations = Vec::new();
    for threads in [1, 2, 4] {
        let config = MchConfig::area_oriented().with_threads(threads);
        let result = mch::core::try_asic_flow_mch_with_budget(&net, &lib, &config, &budget)
            .expect("breached budgets degrade, they do not fail");
        assert!(result.degradation.degraded());
        assert!(result.verified);
        serializations.push(write_verilog(&result.netlist, &lib));
    }
    assert_eq!(serializations[0], serializations[1]);
    assert_eq!(serializations[0], serializations[2]);
}

#[test]
fn degraded_parallel_commit_is_identical_at_every_thread_count() {
    // A *partially* breaching budget over a circuit wide enough for threaded
    // cut enumeration: the candidate cap halves (a pure pre-flow config
    // transform) but resynthesis and snapshot mixing stay on, so the
    // degraded build still commits resynthesised candidates over threaded
    // enumeration at `threads > 1`. Budgets and threads must compose: the
    // same rungs taken, the same degraded netlist, at every thread count.
    let net = mch::benchmarks::adder(16);
    let lut = LutLibrary::k6();
    let budget = FlowBudget::unlimited().with_max_resynthesis_candidates(1000);
    let mut reports = Vec::new();
    let mut serializations = Vec::new();
    for threads in [1, 2, 4, 8] {
        let config = MchConfig::lut_area().with_threads(threads);
        let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &budget)
            .expect("a partially breached budget degrades, it does not fail");
        assert!(result.degradation.degraded(), "the cap must breach");
        assert!(
            !result
                .degradation
                .steps
                .contains(&DegradationStep::ResynthesisDisabled),
            "resynthesis must survive so candidates are actually committed"
        );
        assert!(result.verified, "degraded output must verify at {threads} threads");
        reports.push(result.degradation.steps.clone());
        serializations.push(write_lut_blif(&result.netlist));
    }
    for (i, (report, blif)) in reports.iter().zip(&serializations).enumerate().skip(1) {
        assert_eq!(report, &reports[0], "degradation report diverged (index {i})");
        assert_eq!(blif, &serializations[0], "degraded netlist diverged (index {i})");
    }
}

#[test]
fn forced_breach_report_is_pinned() {
    // `lut_area` starts from cut_limit 8, 3 candidates per node, one level
    // and one area strategy entry, and snapshot mixing on. A zero candidate
    // cap plus a 2-slots-per-node arena cap walks the entire ladder in its
    // fixed order; the mapper's cut limit is then re-shrunk against the
    // (larger) choice network. This exact sequence is the contract — an
    // unintended reorder of the ladder must fail this pin.
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = breaching_budget(net.len());
    let result =
        mch::core::try_lut_flow_mch_with_budget(&net, &lut, &MchConfig::lut_area(), &budget)
            .expect("flow must degrade, not fail");
    let report = &result.degradation;
    assert!(!report.deadline_breached);
    assert_eq!(
        report.steps,
        vec![
            DegradationStep::CutLimitShrunk { from: 8, to: 4 },
            DegradationStep::CutLimitShrunk { from: 4, to: 2 },
            DegradationStep::CandidateCapReduced { from: 3, to: 1 },
            DegradationStep::StrategyDropped {
                library: StrategyClass::Area,
                remaining: 0
            },
            DegradationStep::StrategyDropped {
                library: StrategyClass::Level,
                remaining: 0
            },
            DegradationStep::ResynthesisDisabled,
            DegradationStep::SnapshotsDropped,
            DegradationStep::CutLimitShrunk { from: 8, to: 4 },
            DegradationStep::CutLimitShrunk { from: 4, to: 2 },
        ],
        "the degradation ladder took an unexpected path"
    );
}

#[test]
fn zero_deadline_falls_back_to_structural_mapping() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let budget = FlowBudget::unlimited().with_deadline(Duration::ZERO);
    let result = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &MchConfig::lut_area(), &budget)
        .expect("deadline breach degrades, it does not fail");
    assert!(result.degradation.deadline_breached);
    assert!(result
        .degradation
        .steps
        .contains(&DegradationStep::DeadlineFallback));
    assert!(result.verified, "the fallback mapping must still verify");
    assert!(result.luts >= 1);
}

#[test]
fn unbreached_budget_changes_nothing() {
    let net = demo_adder_gt();
    let lut = LutLibrary::k6();
    let generous = FlowBudget::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_max_cut_arena_slots(usize::MAX)
        .with_max_resynthesis_candidates(usize::MAX);
    let config = MchConfig::lut_area();
    let plain = mch::core::lut_flow_mch(&net, &lut, &config);
    let budgeted = mch::core::try_lut_flow_mch_with_budget(&net, &lut, &config, &generous)
        .expect("generous budget must not fail");
    assert!(!budgeted.degradation.degraded());
    assert_eq!(
        write_lut_blif(&plain.netlist),
        write_lut_blif(&budgeted.netlist),
        "an unbreached budget must be a byte-level no-op"
    );
}
