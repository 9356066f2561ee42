//! The flows a workload runs, each in two forms: through its public entry
//! point in `mch_core` (the timed form), and replayed as its sequence of
//! public layer calls with a span around each call (the traced form). The
//! replay mirrors the entry point call for call, so both must return the same
//! netlist.

use crate::trace::Tracer;
use mch_core::choice::{
    add_snapshot_choices, build_mch_with_stats, dch_from_snapshots, ChoiceNetwork,
};
use mch_core::logic::{cec, Network};
use mch_core::mapper::{
    map_asic_prepared, map_lut_fused_prepared, map_lut_prepared, prepare_asic_cover,
    prepare_fusion_guide, prepare_lut_cover, AsicMapParams, CellNetlist, LutMapParams, LutNetlist,
    MappingObjective,
};
use mch_core::opt::{compress2rs_like, compress_round, graph_map};
use mch_core::techlib::{asap7_lite, Library, LutLibrary};
use mch_core::{
    try_asic_flow_baseline, try_asic_flow_dch, try_asic_flow_mch, try_lut_flow_baseline,
    try_lut_flow_mch, try_lut_flow_mch_fused, FlowError, MchConfig,
};

/// The target libraries every workload maps to.
pub struct Libs {
    pub lut: LutLibrary,
    pub cells: Library,
}

impl Libs {
    pub fn new() -> Self {
        Libs {
            lut: LutLibrary::k6(),
            cells: asap7_lite(),
        }
    }
}

/// One mapping flow of the paper's tables.
#[derive(Clone, Debug)]
pub enum Flow {
    /// Plain 6-LUT mapping of the input, area-oriented (Table II incumbent).
    LutBaseline,
    /// MCH 6-LUT mapping (`lut_flow_mch`).
    LutMch(MchConfig),
    /// MCH 6-LUT mapping with ASIC-guided fusion (`lut_flow_mch_fused`).
    LutFused(MchConfig),
    /// Plain balanced ASIC mapping, the `&nf` column of Table I.
    AsicBaseline,
    /// DCH choices from optimization snapshots, balanced ASIC mapping.
    AsicDch,
    /// MCH ASIC mapping (`asic_flow_mch`).
    AsicMch(MchConfig),
}

impl Flow {
    /// Short, stable name of the flow and the config fields that shape its
    /// output. The thread count is left out: outputs must not depend on it.
    pub fn label(&self) -> String {
        let mch = |kind: &str, c: &MchConfig| {
            format!(
                "{kind}:{}:rounds={:?}:exact={}",
                c.name, c.area_rounds, c.exact_area
            )
        };
        match self {
            Flow::LutBaseline => "lut:baseline".to_string(),
            Flow::LutMch(c) => mch("lut", c),
            Flow::LutFused(c) => mch("lutfused", c),
            Flow::AsicBaseline => "asic:baseline".to_string(),
            Flow::AsicDch => "asic:dch".to_string(),
            Flow::AsicMch(c) => mch("asic", c),
        }
    }

    /// The MCH flows feed the LUT / ASIC quality geomeans.
    pub fn quality_class(&self) -> Option<Target> {
        match self {
            Flow::LutMch(_) | Flow::LutFused(_) => Some(Target::Lut),
            Flow::AsicMch(_) => Some(Target::Asic),
            _ => None,
        }
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Target {
    Lut,
    Asic,
}

/// A mapped netlist of either kind.
#[derive(Clone, PartialEq, Debug)]
pub enum Netlist {
    Lut(LutNetlist),
    Asic(CellNetlist),
}

impl Netlist {
    /// `(LUT count, LUT levels)` or `(area, delay)`.
    pub fn quality(&self, libs: &Libs) -> (f64, f64) {
        match self {
            Netlist::Lut(n) => (n.lut_count() as f64, f64::from(n.level_count())),
            Netlist::Asic(n) => (n.area(&libs.cells), n.delay(&libs.cells)),
        }
    }

    pub fn digest(&self) -> u64 {
        match self {
            Netlist::Lut(n) => crate::check::lut_digest(n),
            Netlist::Asic(n) => crate::check::cell_digest(n),
        }
    }

    pub fn to_network(&self, libs: &Libs) -> Network {
        match self {
            Netlist::Lut(n) => n.to_network(),
            Netlist::Asic(n) => n.to_network(&libs.cells),
        }
    }
}

/// What a flow returned: its netlist and the program's own verdict.
pub struct Outcome {
    pub netlist: Netlist,
    pub verified: bool,
}

/// Runs `flow` on `net` through its public entry point.
pub fn run_entry(flow: &Flow, net: &Network, libs: &Libs) -> Result<Outcome, FlowError> {
    let lut = |r: mch_core::LutFlowResult| Outcome {
        verified: r.verified,
        netlist: Netlist::Lut(r.netlist),
    };
    let asic = |r: mch_core::AsicFlowResult| Outcome {
        verified: r.verified,
        netlist: Netlist::Asic(r.netlist),
    };
    match flow {
        Flow::LutBaseline => try_lut_flow_baseline(net, &libs.lut, MappingObjective::Area).map(lut),
        Flow::LutMch(c) => try_lut_flow_mch(net, &libs.lut, c).map(lut),
        Flow::LutFused(c) => try_lut_flow_mch_fused(net, &libs.lut, &libs.cells, c).map(lut),
        Flow::AsicBaseline => {
            try_asic_flow_baseline(net, &libs.cells, MappingObjective::Balanced).map(asic)
        }
        Flow::AsicDch => try_asic_flow_dch(net, &libs.cells, MappingObjective::Balanced).map(asic),
        Flow::AsicMch(c) => try_asic_flow_mch(net, &libs.cells, c).map(asic),
    }
}

fn lut_params(c: &MchConfig) -> LutMapParams {
    let mut p = LutMapParams::new(c.objective)
        .with_ranking(c.cut_ranking)
        .with_threads(c.threads)
        .with_exact_area(c.exact_area)
        .with_fusion(c.fusion);
    if let Some(rounds) = c.area_rounds {
        p = p.with_area_rounds(rounds);
    }
    p
}

fn asic_params(c: &MchConfig) -> AsicMapParams {
    let mut p = AsicMapParams::new(c.objective)
        .with_ranking(c.cut_ranking)
        .with_threads(c.threads)
        .with_exact_area(c.exact_area);
    if let Some(rounds) = c.area_rounds {
        p = p.with_area_rounds(rounds);
    }
    p
}

/// Replays `flow` on `net` as its public layer calls, one span per call.
/// Must be called inside a [`Tracer::flow`].
pub fn run_traced(flow: &Flow, net: &Network, libs: &Libs, t: &mut Tracer) -> Outcome {
    let netlist = match flow {
        Flow::LutBaseline => {
            let choices = ChoiceNetwork::from_network(net);
            map_lut_traced(
                &choices,
                libs,
                &LutMapParams::new(MappingObjective::Area),
                t,
            )
        }
        Flow::AsicBaseline => {
            let choices = ChoiceNetwork::from_network(net);
            map_asic_traced(
                &choices,
                libs,
                &AsicMapParams::new(MappingObjective::Balanced),
                t,
            )
        }
        Flow::AsicDch => {
            let snaps = t.span("opt.dch_snapshots", |_| {
                let s1 = compress_round(net);
                let s2 = compress2rs_like(&s1, 2);
                [s1, s2]
            });
            let choices = t.span("choice.snapshot_link", |_| dch_from_snapshots(net, &snaps));
            count_choices(&choices, choices.choice_count(), t);
            map_asic_traced(
                &choices,
                libs,
                &AsicMapParams::new(MappingObjective::Balanced),
                t,
            )
        }
        Flow::LutMch(c) => {
            let choices = mch_choices_traced(net, c, t);
            map_lut_traced(&choices, libs, &lut_params(c), t)
        }
        Flow::LutFused(c) => {
            let choices = mch_choices_traced(net, c, t);
            let params = lut_params(c);
            if !params.fusion.is_enabled() {
                map_lut_traced(&choices, libs, &params, t)
            } else {
                let lut_prep = t.span("mapper.cut_prep", |_| {
                    prepare_lut_cover(&choices, &libs.lut, &params)
                });
                let guide = t.span("mapper.cut_prep", |_| {
                    prepare_fusion_guide(&choices, &libs.cells, &params)
                });
                for cuts in [lut_prep.cuts(), guide.cuts()] {
                    t.count("cut.total_cuts", cuts.total_cuts() as f64);
                    t.count("cut.arena_bytes", cuts.approx_bytes() as f64);
                }
                Netlist::Lut(t.span("mapper.cover", |_| {
                    map_lut_fused_prepared(
                        &choices,
                        &libs.lut,
                        &libs.cells,
                        &params,
                        &lut_prep,
                        &guide,
                    )
                }))
            }
        }
        Flow::AsicMch(c) => {
            let choices = mch_choices_traced(net, c, t);
            map_asic_traced(&choices, libs, &asic_params(c), t)
        }
    };
    let verified = t.span("logic.cec", |_| cec(net, &netlist.to_network(libs)).holds());
    Outcome { netlist, verified }
}

fn count_choices(choices: &ChoiceNetwork, links: usize, t: &mut Tracer) {
    t.count("choice.snapshot_links", links as f64);
    t.count("choice.mixed_nodes", choices.network().len() as f64);
    t.count("choice.choices_added", choices.choice_count() as f64);
}

/// The choice network of an MCH flow: Algorithm 1, then one graph-mapped
/// view per representation (computed one after another here), then linking.
fn mch_choices_traced(net: &Network, c: &MchConfig, t: &mut Tracer) -> ChoiceNetwork {
    let mut params = c.mch.clone();
    params.threads = c.threads;
    let (mut choices, stats) = t.span("choice.mch_build", |_| build_mch_with_stats(net, &params));
    t.count(
        "choice.one_to_one_ms",
        stats.one_to_one_time.as_secs_f64() * 1e3,
    );
    t.count(
        "choice.cut_enum_ms",
        stats.cut_enum_time.as_secs_f64() * 1e3,
    );
    t.count(
        "choice.resynthesis_ms",
        stats.resynthesis_time.as_secs_f64() * 1e3,
    );
    t.count("choice.commit_ms", stats.commit_time.as_secs_f64() * 1e3);
    t.count("choice.npn_classes", stats.npn_classes as f64);
    t.count("choice.npn_cache_hits", stats.npn_cache_hits as f64);
    let mut links = 0;
    if c.mix_optimized_snapshots {
        let kinds = std::iter::once(net.kind()).chain(c.mch.secondary.iter().copied());
        let views: Vec<Network> = kinds
            .map(|kind| t.span("opt.graph_map", |_| graph_map(net, kind, c.objective)))
            .collect();
        for view in &views {
            links += t.span("choice.snapshot_link", |_| {
                add_snapshot_choices(&mut choices, view)
            });
        }
    }
    count_choices(&choices, links, t);
    choices
}

fn map_lut_traced(
    choices: &ChoiceNetwork,
    libs: &Libs,
    params: &LutMapParams,
    t: &mut Tracer,
) -> Netlist {
    let prep = t.span("mapper.cut_prep", |_| {
        prepare_lut_cover(choices, &libs.lut, params)
    });
    t.count("cut.total_cuts", prep.cuts().total_cuts() as f64);
    t.count("cut.arena_bytes", prep.cuts().approx_bytes() as f64);
    Netlist::Lut(t.span("mapper.cover", |_| {
        map_lut_prepared(choices, &libs.lut, &prep, params)
    }))
}

fn map_asic_traced(
    choices: &ChoiceNetwork,
    libs: &Libs,
    params: &AsicMapParams,
    t: &mut Tracer,
) -> Netlist {
    let prep = t.span("mapper.cut_prep", |_| {
        prepare_asic_cover(choices, &libs.cells, params)
    });
    t.count("cut.total_cuts", prep.cuts().total_cuts() as f64);
    t.count("cut.arena_bytes", prep.cuts().approx_bytes() as f64);
    Netlist::Asic(t.span("mapper.cover", |_| {
        map_asic_prepared(choices, &libs.cells, &prep, params)
    }))
}
