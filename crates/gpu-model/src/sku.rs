//! SKU catalog: typed heterogeneous fleets.
//!
//! The paper measures a homogeneous fleet of identical 4×MI250X blades.
//! Mixed procurement generations break that assumption: each node class
//! ("SKU") carries its own calibrated [`PowerModel`], firmware sustained
//! limit, boost headroom, and CPU-side rest-of-node power domain.  A
//! [`SkuCatalog`] holds one [`SkuSpec`] per class and a [`FleetMix`]
//! assigns a class to every node deterministically.
//!
//! SKU 0 is always the paper's MI250X blade, constructed from exactly the
//! same defaults the homogeneous simulation uses — a fleet whose mix maps
//! every node to SKU 0 must be bit-identical to the legacy code path.
//!
//! Per-component attribution follows McDaniel et al.: package energy is
//! split across `HBM`, `L2` (on-die datapath), `ALU`, and the clock
//! tree/uncore (which here also absorbs the always-on idle floor, so the
//! four components sum exactly to the device total).

use crate::consts::{GPU_BOOST_W, GPU_TDP_W};
use crate::device::NodeRestModel;
use crate::engine::Engine;
use crate::freq::Freq;
use crate::power::{PowerModel, Utilization};

/// Hard ceiling on catalog size: the resident wire codec packs the SKU
/// index into the high nibble of the slot byte.
pub const MAX_SKUS: usize = 16;

/// A per-component energy lane (McDaniel et al. granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// HBM stacks and PHY (own voltage domain).
    Hbm,
    /// On-die L2/LSU datapath movement.
    L2,
    /// SIMD pipelines.
    Alu,
    /// Clock tree / uncore, plus the always-on idle floor.
    ClockTree,
}

impl Component {
    /// Stable lane index.
    #[cfg(test)]
    pub(crate) fn index(self) -> usize {
        match self {
            Component::Hbm => 0,
            Component::L2 => 1,
            Component::Alu => 2,
            Component::ClockTree => 3,
        }
    }
}

/// Representative operating points per Table IV region, used to split a
/// region's device energy across components.  Region 1 (latency-bound)
/// uses the engine's serial-phase utilization; region 2 (memory-intensive)
/// the streaming anchor; region 3 (compute-intensive) the compute anchor;
/// region 4 (boost) every datapath saturated.
const REGION_UTIL: [Utilization; 4] = [
    Utilization {
        alu: 0.05,
        ondie: 0.03,
        hbm: 0.04,
        active: 1.0,
    },
    Utilization {
        alu: 0.016,
        ondie: 0.25,
        hbm: 1.0,
        active: 1.0,
    },
    Utilization {
        alu: 1.0,
        ondie: 0.003,
        hbm: 0.003,
        active: 1.0,
    },
    Utilization {
        alu: 1.0,
        ondie: 1.0,
        hbm: 1.0,
        active: 1.0,
    },
];

/// One node class: a GPU model plus the node's CPU-side power domain.
#[derive(Debug, Clone)]
pub struct SkuSpec {
    /// Display name, e.g. `"mi250x"`.
    pub name: &'static str,
    /// Execution engine calibrated for this SKU's GPU.
    pub engine: Engine,
    /// CPU-side rest-of-node power domain.
    pub rest: NodeRestModel,
    /// Sustained thermal design power, in watts (boost-burst baseline).
    pub tdp_w: f64,
    /// Short-excursion boost ceiling, in watts.
    pub boost_w: f64,
}

impl SkuSpec {
    /// Fraction of device energy attributed to each component lane
    /// (`[HBM, L2, ALU, clock-tree]`) for Table IV region `region`
    /// (0 = latency-bound … 3 = boost), evaluated at the region's
    /// representative operating point at the maximum clock.
    ///
    /// The clock-tree lane is the exact remainder — it absorbs the idle
    /// floor and uncore — so the four fractions always sum to 1.
    pub fn region_component_fractions(&self, region: usize) -> [f64; 4] {
        let util = REGION_UTIL[region.min(3)];
        let b = self.engine.power_model().demand(util, Freq::MAX);
        let total = b.total();
        if total <= 0.0 {
            return [0.0, 0.0, 0.0, 1.0];
        }
        let hbm = b.hbm_w / total;
        let l2 = b.ondie_w / total;
        let alu = b.alu_w / total;
        [hbm, l2, alu, 1.0 - (hbm + l2 + alu)]
    }

    /// Steady power drawn during a granted boost burst, in watts: halfway
    /// between the sustained TDP and the boost ceiling (the telemetry
    /// model's excursion midpoint).
    pub fn boosted_w(&self) -> f64 {
        self.tdp_w + 0.5 * (self.boost_w - self.tdp_w)
    }
}

/// The set of node classes a fleet may be built from.  Index 0 is always
/// the paper's MI250X blade with the default models.
#[derive(Debug, Clone)]
pub struct SkuCatalog {
    skus: Vec<SkuSpec>,
}

impl Default for SkuCatalog {
    fn default() -> Self {
        SkuCatalog::standard()
    }
}

impl SkuCatalog {
    /// The standard three-class catalog:
    ///
    /// * `0 — mi250x`: the paper's blade, bit-identical to the default
    ///   homogeneous models;
    /// * `1 — mi300a`: a hotter APU-class part (higher floors and ceilings,
    ///   560 W sustained limit);
    /// * `2 — mi210`: a cooler PCIe-class part (300 W sustained limit).
    pub fn standard() -> Self {
        let mi250x = SkuSpec {
            name: "mi250x",
            engine: Engine::default(),
            rest: NodeRestModel::default(),
            tdp_w: GPU_TDP_W,
            boost_w: GPU_BOOST_W,
        };
        let mi300a = SkuSpec {
            name: "mi300a",
            engine: Engine::new(
                PowerModel {
                    idle_w: 95.0,
                    clock_w: 48.0,
                    alu_max_w: 340.0,
                    ondie_max_w: 350.0,
                    hbm_max_w: 190.0,
                    curve: Default::default(),
                },
                560.0,
            ),
            rest: NodeRestModel {
                idle_w: 240.0,
                cpu_dyn_w: 190.0,
            },
            tdp_w: 600.0,
            boost_w: 640.0,
        };
        let mi210 = SkuSpec {
            name: "mi210",
            engine: Engine::new(
                PowerModel {
                    idle_w: 65.0,
                    clock_w: 30.0,
                    alu_max_w: 220.0,
                    ondie_max_w: 240.0,
                    hbm_max_w: 130.0,
                    curve: Default::default(),
                },
                300.0,
            ),
            rest: NodeRestModel {
                idle_w: 180.0,
                cpu_dyn_w: 140.0,
            },
            tdp_w: 300.0,
            boost_w: 330.0,
        };
        SkuCatalog {
            skus: vec![mi250x, mi300a, mi210],
        }
    }

    /// All SKUs, in index order.
    pub fn skus(&self) -> &[SkuSpec] {
        &self.skus
    }

    /// Number of classes in the catalog.
    pub fn len(&self) -> usize {
        self.skus.len()
    }

    /// Whether the catalog is empty (never true for [`standard`]).
    ///
    /// [`standard`]: SkuCatalog::standard
    pub fn is_empty(&self) -> bool {
        self.skus.is_empty()
    }

    /// The spec for SKU index `sku`, wrapping out-of-range indices back
    /// into the catalog so arbitrary mixes can never panic.
    pub fn spec(&self, sku: u8) -> &SkuSpec {
        &self.skus[sku as usize % self.skus.len().max(1)]
    }
}

/// Deterministic node-class assignment: node `n` gets
/// `pattern[n % pattern.len()]`.  The default mix maps every node to
/// SKU 0, which reproduces the homogeneous fleet exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetMix {
    pattern: Vec<u8>,
}

impl Default for FleetMix {
    fn default() -> Self {
        FleetMix::homogeneous()
    }
}

impl FleetMix {
    /// Every node is SKU 0 — the legacy homogeneous fleet.
    pub fn homogeneous() -> Self {
        FleetMix { pattern: vec![0] }
    }

    /// A mix cycling through `pattern` across node indices.  Empty
    /// patterns collapse to the homogeneous mix; indices are clamped to
    /// [`MAX_SKUS`].
    pub fn new(pattern: Vec<u8>) -> Self {
        if pattern.is_empty() {
            return FleetMix::homogeneous();
        }
        FleetMix {
            pattern: pattern.into_iter().map(|s| s % MAX_SKUS as u8).collect(),
        }
    }

    /// The repeating assignment pattern.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    /// SKU index for node `node`.
    pub fn sku_of(&self, node: usize) -> u8 {
        self.pattern[node % self.pattern.len()]
    }

    /// True when every node maps to SKU 0 (the byte-identical legacy path).
    pub fn is_homogeneous(&self) -> bool {
        self.pattern.iter().all(|&s| s == 0)
    }

    /// Named preset mixes accepted by the CLI and scenario specs.
    pub fn preset(name: &str) -> Option<FleetMix> {
        match name {
            "single-sku" => Some(FleetMix::homogeneous()),
            "mixed-50-50" => Some(FleetMix::new(vec![0, 1])),
            "mixed-datacenter" => Some(FleetMix::new(vec![0, 0, 1, 2])),
            _ => None,
        }
    }

    /// Names accepted by [`FleetMix::preset`], for help text.
    pub fn preset_names() -> &'static [&'static str] {
        &["single-sku", "mixed-50-50", "mixed-datacenter"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::GPU_PPT_W;
    use crate::power::Utilization;

    #[test]
    fn sku_zero_is_the_default_blade_exactly() {
        let cat = SkuCatalog::standard();
        let s0 = cat.spec(0);
        let dflt = Engine::default();
        // Same idle demand, same PPT, same rest-of-node, same boost params
        // — every number the fleet simulation derives from the engine.
        let idle = |e: &Engine| e.power_model().demand_w(Utilization::idle(), Freq::MAX);
        assert_eq!(idle(&s0.engine).to_bits(), idle(&dflt).to_bits());
        assert_eq!(s0.engine.ppt_w(), GPU_PPT_W);
        assert_eq!(s0.rest.power_w(0.5), NodeRestModel::default().power_w(0.5));
        assert_eq!(s0.tdp_w, GPU_TDP_W);
        assert_eq!(s0.boost_w, GPU_BOOST_W);
        assert_eq!(s0.boosted_w(), GPU_TDP_W + 0.5 * (GPU_BOOST_W - GPU_TDP_W));
    }

    #[test]
    fn component_fractions_sum_to_one_in_every_region() {
        let cat = SkuCatalog::standard();
        for sku in cat.skus() {
            for region in 0..4 {
                let f = sku.region_component_fractions(region);
                let sum: f64 = f.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "{} r{region}: {sum}", sku.name);
                assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }
    }

    #[test]
    fn memory_region_is_hbm_heavy_compute_region_is_alu_heavy() {
        let s0 = SkuCatalog::standard();
        let mi = s0.spec(0).region_component_fractions(1);
        let ci = s0.spec(0).region_component_fractions(2);
        assert!(mi[Component::Hbm.index()] > ci[Component::Hbm.index()]);
        assert!(ci[Component::Alu.index()] > mi[Component::Alu.index()]);
    }

    #[test]
    fn mix_assignment_cycles_and_wraps() {
        let mix = FleetMix::new(vec![0, 0, 1, 2]);
        assert_eq!(mix.sku_of(0), 0);
        assert_eq!(mix.sku_of(2), 1);
        assert_eq!(mix.sku_of(3), 2);
        assert_eq!(mix.sku_of(4), 0);
        assert!(!mix.is_homogeneous());
        assert!(FleetMix::homogeneous().is_homogeneous());
        assert!(FleetMix::new(vec![0, 0, 0]).is_homogeneous());
        assert!(FleetMix::new(Vec::new()).is_homogeneous());
    }

    #[test]
    fn presets_resolve_and_catalog_wraps_out_of_range() {
        for name in FleetMix::preset_names() {
            assert!(FleetMix::preset(name).is_some(), "{name}");
        }
        assert!(FleetMix::preset("nope").is_none());
        assert!(FleetMix::preset("single-sku").unwrap().is_homogeneous());
        let cat = SkuCatalog::standard();
        assert_eq!(cat.spec(3).name, cat.spec(0).name);
        assert_eq!(cat.spec(15).name, cat.skus()[15 % cat.len()].name);
    }

    #[test]
    fn skus_differ_where_it_matters() {
        let cat = SkuCatalog::standard();
        let idle = |s: &SkuSpec| {
            s.engine
                .power_model()
                .demand_w(Utilization::idle(), Freq::MAX)
        };
        assert!(idle(cat.spec(1)) > idle(cat.spec(0)));
        assert!(idle(cat.spec(2)) < idle(cat.spec(0)));
        assert!(cat.spec(1).engine.ppt_w() > cat.spec(0).engine.ppt_w());
        assert!(cat.spec(2).engine.ppt_w() < cat.spec(0).engine.ppt_w());
    }
}
