//! Typed artifact values for every paper figure and table.
//!
//! Each artifact is a plain data struct computed by the [`Pipeline`] from
//! its memoized stages, carrying exactly the numbers the original
//! per-artifact binaries printed.  Rendering lives in [`crate::render`]:
//! every artifact renders both to the byte-identical ASCII of the old
//! binaries and to structured JSON.
//!
//! `peakpower` runs one fleet pass per cap, each on every core, and
//! pushes a row per pass.  `faults` delivers one generation under every
//! row's plan and `govern` replays every policy in one pass over the
//! delivery trace; both push rows in job order.

use pmss_core::heatmap::{energy_saved, energy_used, Heatmap};
use pmss_core::project::{project, Projection, ProjectionInput};
use pmss_core::sensitivity::{boundary_sweep, input_from_histogram, Boundaries};
use pmss_core::whatif::{best_uniform, optimize_per_domain};
use pmss_core::{Coverage, EnergyLedger, Region, SavingsBounds};
use pmss_econ::{shift, EconTrace, ShiftOutcome};
use pmss_error::PmssError;
use pmss_faults::{FaultPlan, GapPolicy, PRESETS};
use pmss_govern::{run_governor, GovernorPlan};
use pmss_gpu::consts::JOULES_PER_MWH;
use pmss_gpu::{sweet_spots, GovernedTotals, Governor, GpuSettings, SkuCatalog, SweetSpot};
use pmss_graph::case_study::{networks, CaseStudy};
use pmss_obs::{edges, Stopwatch};
use pmss_sched::policy::FRONTIER_NODES;
use pmss_sched::{catalog, generate, log, JobSizeClass, TraceParams};
use pmss_stream::{Cut, CutTally, StreamConfig, StreamState, TraceReplay};
use pmss_telemetry::export::sample_storage_bytes;
use pmss_telemetry::{
    compare_sensors, simulate_fleet_metered, simulate_fleet_plans, DomainHistograms, FleetConfig,
    FleetObserver, FleetPowerSeries, GpuCpuEnergy, SystemHistogram,
};
use pmss_workloads::membench::{self, chunk_for_block, MembenchParams};
use pmss_workloads::phases::synthesize_app;
use pmss_workloads::sweep::{normalize, sweep_kernel, CapSetting, MEMBENCH_POWER_CAPS_W};
use pmss_workloads::table3::Table3;
use pmss_workloads::vai::{self, VaiParams};
use pmss_workloads::{AppClass, NormalizedPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::Json;
use crate::render;
use crate::spec::PAPER_CAMPAIGN_DAYS;
use crate::stage::{generation, ladder, Pipeline};

/// Identifies one reproducible paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactId {
    /// Fig. 2: out-of-band vs in-band telemetry; GPU vs CPU energy.
    Fig2,
    /// Fig. 3: the L2-cache benchmark access pattern and knee.
    Fig3,
    /// Fig. 4: roofline under frequency and power caps.
    Fig4,
    /// Fig. 5: normalized VAI runtime/power/energy per cap ladder.
    Fig5,
    /// Fig. 6: membench power/bandwidth/time across working sets.
    Fig6,
    /// Fig. 7: Louvain case study across networks and frequencies.
    Fig7,
    /// Fig. 8: system-wide power distribution with region masses.
    Fig8,
    /// Fig. 9: per-science-domain power distributions.
    Fig9,
    /// Fig. 10: domain x job-size energy heatmaps.
    Fig10,
    /// Table I: the Frontier system summary.
    Table1,
    /// Table II: the three dataset products.
    Table2,
    /// Table III: benchmark factors under caps.
    Table3,
    /// Table IV: the modal decomposition.
    Table4,
    /// Table V: projected system-wide savings.
    Table5,
    /// Table VI: selective savings on hot domains.
    Table6,
    /// Table VII: the Frontier scheduling policy.
    Table7,
    /// Extension: projection vs measured ground truth.
    Validate,
    /// Extension: per-domain mixed-cap what-if.
    Whatif,
    /// Extension: per-phase DVFS governors vs static caps.
    Governor,
    /// Extension: facility peak-demand shaving.
    PeakPower,
    /// Ablation: region-boundary sensitivity.
    Sensitivity,
    /// Ablation: fault-injection sensitivity of the decomposition.
    Faults,
    /// Extension: the trace replayed as a timed stream through the
    /// incremental ingest engine, with periodic snapshots.
    Stream,
    /// Extension: online cluster power governor measured against the
    /// projection's static no-slowdown ceiling.
    Govern,
    /// Extension: per-SKU, per-component energy attribution with tuned
    /// sweet-spot frequencies for heterogeneous fleets.
    Components,
    /// Extension: price- and carbon-aware economics of the fleet energy,
    /// with the temporal-shifting what-if.
    Econ,
}

impl ArtifactId {
    /// Every artifact, in paper order.
    pub fn all() -> [ArtifactId; 26] {
        use ArtifactId::*;
        [
            Fig2,
            Fig3,
            Fig4,
            Fig5,
            Fig6,
            Fig7,
            Fig8,
            Fig9,
            Fig10,
            Table1,
            Table2,
            Table3,
            Table4,
            Table5,
            Table6,
            Table7,
            Validate,
            Whatif,
            Governor,
            PeakPower,
            Sensitivity,
            Faults,
            Stream,
            Govern,
            Components,
            Econ,
        ]
    }

    /// Canonical CLI name (`fig2` … `table7`, `validate`, …).
    pub fn name(self) -> &'static str {
        use ArtifactId::*;
        match self {
            Fig2 => "fig2",
            Fig3 => "fig3",
            Fig4 => "fig4",
            Fig5 => "fig5",
            Fig6 => "fig6",
            Fig7 => "fig7",
            Fig8 => "fig8",
            Fig9 => "fig9",
            Fig10 => "fig10",
            Table1 => "table1",
            Table2 => "table2",
            Table3 => "table3",
            Table4 => "table4",
            Table5 => "table5",
            Table6 => "table6",
            Table7 => "table7",
            Validate => "validate",
            Whatif => "whatif",
            Governor => "governor",
            PeakPower => "peakpower",
            Sensitivity => "sensitivity",
            Faults => "faults",
            Stream => "stream",
            Govern => "govern",
            Components => "components",
            Econ => "econ",
        }
    }

    /// One-line description, shown by `pmss list`.
    pub(crate) fn title(self) -> &'static str {
        use ArtifactId::*;
        match self {
            Fig2 => "telemetry vs ROCm SMI; GPU vs rest-of-node energy",
            Fig3 => "L2-cache benchmark access pattern and knee",
            Fig4 => "roofline under frequency and power caps",
            Fig5 => "normalized VAI runtime/power/energy per cap",
            Fig6 => "membench across working sets under caps",
            Fig7 => "Louvain case study across networks",
            Fig8 => "system-wide GPU power distribution",
            Fig9 => "per-science-domain power distributions",
            Fig10 => "domain x job-size energy heatmaps",
            Table1 => "Frontier system summary",
            Table2 => "dataset products and storage economics",
            Table3 => "benchmark factors under caps",
            Table4 => "modal decomposition of fleet telemetry",
            Table5 => "projected system-wide energy savings",
            Table6 => "selective savings on hot domains",
            Table7 => "Frontier job scheduling policy",
            Validate => "projection vs measured ground truth",
            Whatif => "per-domain mixed-cap what-if analysis",
            Governor => "per-phase DVFS governors vs static caps",
            PeakPower => "facility peak-demand shaving",
            Sensitivity => "region-boundary sensitivity ablation",
            Faults => "telemetry fault-injection sensitivity sweep",
            Stream => "streaming ingest replay with periodic snapshots",
            Govern => "online cluster governor vs the static savings ceiling",
            Components => "per-SKU component energy attribution and tuned sweet spots",
            Econ => {
                "cost and CO2 of the fleet energy by price/carbon trace, with temporal shifting"
            }
        }
    }

    /// Parses a canonical artifact name.
    pub(crate) fn from_name(name: &str) -> Result<ArtifactId, PmssError> {
        ArtifactId::all()
            .into_iter()
            .find(|id| id.name() == name)
            .ok_or_else(|| {
                PmssError::invalid_value(
                    "artifact",
                    name,
                    "fig2..fig10 | table1..table7 | validate | whatif | governor | peakpower | sensitivity | faults | stream | govern | components | econ",
                )
            })
    }
}

/// One aligned out-of-band / in-band sample pair (Fig. 2a).
#[derive(Debug, Clone, Copy)]
pub struct SensorPairSample {
    /// Window start, seconds.
    pub t_s: f64,
    /// Out-of-band telemetry reading, watts.
    pub oob_w: f64,
    /// In-band (SMI) reading, watts.
    pub smi_w: f64,
}

/// Fig. 2 data: sensor agreement and the GPU/CPU energy split.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Number of 15 s windows compared.
    pub windows: usize,
    /// Mean out-of-band power, watts.
    pub mean_power_w: f64,
    /// Mean |telemetry − smi|, watts.
    pub mean_abs_diff_w: f64,
    /// First sample pairs shown in the figure.
    pub pairs: Vec<SensorPairSample>,
    /// GPU share of node energy, 0..1.
    pub gpu_share: f64,
    /// GPU power histogram density.
    pub gpu_density: Vec<f64>,
    /// Rest-of-node power histogram density.
    pub rest_density: Vec<f64>,
}

/// One membench working-set row (Fig. 3).
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Working-set size, bytes.
    pub bytes: u64,
    /// `"L2"` or `"HBM"`.
    pub served_from: &'static str,
    /// Achieved bandwidth, GB/s.
    pub gb_s: f64,
    /// Busy power, watts.
    pub power_w: f64,
}

/// Fig. 3 data: the access pattern and the residency knee.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// `(block, chunk)` pairs for the first blocks against 5 chunks.
    pub pattern: Vec<(u64, u64)>,
    /// Size-sweep rows.
    pub rows: Vec<Fig3Row>,
}

/// One roofline row (Fig. 4) at a single arithmetic intensity.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Arithmetic intensity, FLOP/byte.
    pub ai: f64,
    /// Achieved TFLOP/s.
    pub tflops: f64,
    /// Achieved HBM bandwidth, GB/s.
    pub gb_s: f64,
    /// Busy power, watts.
    pub power_w: f64,
    /// Time relative to uncapped.
    pub t_rel: f64,
}

/// All intensities at one cap setting (Fig. 4).
#[derive(Debug, Clone)]
pub struct Fig4Section {
    /// The cap applied.
    pub setting: CapSetting,
    /// One row per arithmetic intensity.
    pub rows: Vec<Fig4Row>,
}

/// One knob column of Fig. 4 (fixed frequency / power cap).
#[derive(Debug, Clone)]
pub struct Fig4Block {
    /// Column title.
    pub title: &'static str,
    /// One section per cap setting.
    pub sections: Vec<Fig4Section>,
}

/// Fig. 4 data.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Left and right columns.
    pub blocks: Vec<Fig4Block>,
}

/// One VAI intensity's normalized sweep (Fig. 5).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Arithmetic intensity, FLOP/byte.
    pub ai: f64,
    /// Normalized point per ladder setting.
    pub points: Vec<NormalizedPoint>,
}

/// One cap-ladder block of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Block {
    /// Block title.
    pub title: &'static str,
    /// The ladder swept.
    pub settings: Vec<CapSetting>,
    /// One row per arithmetic intensity.
    pub rows: Vec<Fig5Row>,
}

/// Fig. 5 data.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Frequency and power ladder blocks.
    pub blocks: Vec<Fig5Block>,
}

/// One membench working-set row under a cap (Fig. 6).
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Working-set size, bytes.
    pub bytes: u64,
    /// Achieved bandwidth, GB/s.
    pub gb_s: f64,
    /// Busy power, watts.
    pub power_w: f64,
    /// Time relative to uncapped.
    pub t_rel: f64,
    /// Whether the power cap was breached.
    pub breached: bool,
}

/// All sizes at one cap setting (Fig. 6).
#[derive(Debug, Clone)]
pub struct Fig6Section {
    /// The cap applied.
    pub setting: CapSetting,
    /// One row per working-set size.
    pub rows: Vec<Fig6Row>,
}

/// One knob column of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Block {
    /// Column title.
    pub title: &'static str,
    /// One section per cap setting.
    pub sections: Vec<Fig6Section>,
}

/// Fig. 6 data.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Frequency and power cap columns.
    pub blocks: Vec<Fig6Block>,
}

/// One frequency point of the Louvain sweep (Fig. 7).
#[derive(Debug, Clone, Copy)]
pub struct Fig7SweepRow {
    /// Knob value (MHz or watts).
    pub knob: f64,
    /// Runtime, seconds.
    pub runtime_s: f64,
    /// Average power, watts.
    pub avg_power_w: f64,
    /// Peak power, watts.
    pub peak_power_w: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

/// One road-network power-cap row (Fig. 7).
#[derive(Debug, Clone, Copy)]
pub struct Fig7RoadRow {
    /// Power cap, watts.
    pub cap_w: f64,
    /// Runtime relative to uncapped.
    pub runtime_ratio: f64,
    /// Energy saving, percent.
    pub saving_pct: f64,
    /// Whether the cap was breached.
    pub breached: bool,
}

/// One network case of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Case {
    /// Network name.
    pub name: String,
    /// Edge count.
    pub edges: usize,
    /// Maximum degree.
    pub d_max: usize,
    /// Mean degree.
    pub d_avg: f64,
    /// Final modularity.
    pub modularity: f64,
    /// Louvain level count.
    pub levels: usize,
    /// Frequency sweep rows.
    pub freq_rows: Vec<Fig7SweepRow>,
    /// Energy saving at 900 MHz, percent.
    pub saving_900_pct: f64,
    /// Runtime increase at 900 MHz, percent.
    pub slowdown_900_pct: f64,
    /// Power-cap sweep for road networks.
    pub road_caps: Option<Vec<Fig7RoadRow>>,
}

/// Fig. 7 data.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// One case per network.
    pub cases: Vec<Fig7Case>,
}

/// One region's share of GPU-hours (Fig. 8).
#[derive(Debug, Clone)]
pub struct RegionMass {
    /// Region label.
    pub label: &'static str,
    /// Share of samples, percent.
    pub pct: f64,
}

/// Fig. 8 data: the system-wide power distribution.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Sample count.
    pub samples: u64,
    /// Mean power, watts.
    pub mean_w: f64,
    /// Histogram density.
    pub density: Vec<f64>,
    /// Per-region sample mass.
    pub regions: Vec<RegionMass>,
    /// Distribution peak locations, watts.
    pub peaks_w: Vec<f64>,
}

/// One science domain's distribution (Fig. 9).
#[derive(Debug, Clone)]
pub struct Fig9Domain {
    /// Domain code.
    pub code: String,
    /// Domain name.
    pub name: String,
    /// Mean power, watts.
    pub mean_w: f64,
    /// Histogram density.
    pub density: Vec<f64>,
}

/// Fig. 9 data.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One entry per domain with samples.
    pub domains: Vec<Fig9Domain>,
}

/// Fig. 10 data: energy used / saved heatmaps.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Domain codes, row order.
    pub labels: Vec<String>,
    /// (a) energy used, MWh.
    pub used: Heatmap,
    /// (b) energy saved at the 1100 MHz cap, MWh.
    pub saved: Heatmap,
    /// Share of savings from job sizes A–C, percent.
    pub concentration_pct: f64,
}

/// Table I data: system summary rows.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// `(label, value)` pairs.
    pub rows: Vec<(&'static str, String)>,
}

/// One per-node placement shown in Table II(c).
#[derive(Debug, Clone)]
pub struct Table2Placement {
    /// Job id.
    pub job_id: u64,
    /// Project id.
    pub project_id: String,
    /// Placement start, seconds.
    pub begin_s: f64,
    /// Placement end, seconds.
    pub end_s: f64,
}

/// Table II data: dataset products.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Raw 2 s telemetry at Frontier scale, terabytes.
    pub raw_tb: f64,
    /// Aggregated 15 s product, terabytes.
    pub agg_tb: f64,
    /// Job count of the demo schedule.
    pub jobs: usize,
    /// First job-log lines.
    pub log_lines: Vec<String>,
    /// First placements on node 0.
    pub placements: Vec<Table2Placement>,
}

/// Table III artifact: the benchmark factor table.
#[derive(Debug, Clone)]
pub struct Table3Artifact {
    /// The computed factors.
    pub table: Table3,
}

/// Table IV data: modal decomposition shares.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// GPU-hour share per region (paper order), percent.
    pub gpu_hours_pct: [f64; 4],
}

/// Table V artifact: the savings projection at Frontier scale.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// The projection.
    pub projection: Projection,
}

/// Table VI artifact: selective savings on hot domains.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Selected domain codes.
    pub hot_codes: Vec<String>,
    /// The filtered projection.
    pub projection: Projection,
}

/// One scheduling-policy row (Table VII).
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Size-class label.
    pub label: char,
    /// Minimum node count.
    pub min_nodes: usize,
    /// Maximum node count.
    pub max_nodes: usize,
    /// Maximum walltime, hours.
    pub max_walltime_h: f64,
}

/// Table VII data.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// One row per size class.
    pub rows: Vec<Table7Row>,
}

/// One cap's projection-vs-measured comparison (validate extension).
#[derive(Debug, Clone, Copy)]
pub struct ValidateRow {
    /// Frequency cap, MHz.
    pub cap_mhz: f64,
    /// Projected savings, percent.
    pub projected_sav_pct: f64,
    /// Measured savings, percent.
    pub measured_sav_pct: f64,
    /// Projected runtime increase, percent.
    pub projected_dt_pct: f64,
    /// Measured runtime increase, percent.
    pub measured_dt_pct: f64,
}

/// Validate-extension data.
#[derive(Debug, Clone)]
pub struct Validate {
    /// Number of jobs re-executed.
    pub jobs: usize,
    /// One row per cap.
    pub rows: Vec<ValidateRow>,
}

/// One slowdown-budget row of the what-if analysis.
#[derive(Debug, Clone, Copy)]
pub struct WhatifBudgetRow {
    /// Per-domain slowdown budget, percent.
    pub budget_pct: f64,
    /// Mixed per-domain savings, percent of total.
    pub mixed_saves_pct: f64,
    /// Best uniform-cap savings, percent of total.
    pub uniform_saves_pct: f64,
    /// The best uniform cap.
    pub uniform_cap: CapSetting,
}

/// One domain's cap assignment at the 10 % budget.
#[derive(Debug, Clone)]
pub struct WhatifAssignment {
    /// Domain code.
    pub code: String,
    /// `(cap MHz, ΔT %)`, or `None` for uncapped.
    pub choice: Option<(f64, f64)>,
}

/// One slowdown budget's savings valued under the spec's econ trace.
#[derive(Debug, Clone, Copy)]
pub struct WhatifEconRow {
    /// Per-domain slowdown budget, percent.
    pub budget_pct: f64,
    /// The mixed assignment's savings valued at the trace, dollars.
    pub mixed_saving_usd: f64,
    /// The mixed assignment's carbon avoidance, tonnes CO₂.
    pub mixed_saving_t: f64,
}

/// Econ valuation of the what-if (present only when the scenario carries
/// an active econ trace, so historical artifacts keep their bytes).
#[derive(Debug, Clone)]
pub struct WhatifEcon {
    /// The trace the savings are valued under.
    pub trace: String,
    /// Total GPU energy cost under the trace, dollars at Frontier scale.
    pub total_cost_usd: f64,
    /// Total GPU carbon under the trace, tonnes at Frontier scale.
    pub total_carbon_t: f64,
    /// One valuation per budget row.
    pub rows: Vec<WhatifEconRow>,
}

/// What-if extension data.
#[derive(Debug, Clone)]
pub struct Whatif {
    /// One row per budget.
    pub budget_rows: Vec<WhatifBudgetRow>,
    /// Assignment at the 10 % budget.
    pub assignment: Vec<WhatifAssignment>,
    /// Econ valuation of each budget's savings, when a trace is active.
    pub econ: Option<WhatifEcon>,
}

/// One governor policy's outcome on a workload class.
#[derive(Debug, Clone)]
pub struct GovernorPolicyRow {
    /// Policy name.
    pub policy: &'static str,
    /// Energy saved, percent.
    pub energy_saved_pct: f64,
    /// Slowdown, percent (negative = speedup).
    pub slowdown_pct: f64,
}

/// One workload class of the governor extension.
#[derive(Debug, Clone)]
pub struct GovernorClass {
    /// Workload class name.
    pub class: String,
    /// Phase count of the synthesized application.
    pub phases: usize,
    /// One row per policy.
    pub rows: Vec<GovernorPolicyRow>,
}

/// Governor-extension data.
#[derive(Debug, Clone)]
pub struct GovernorArtifact {
    /// One entry per workload class.
    pub classes: Vec<GovernorClass>,
}

/// One frequency cap's fleet power envelope (peak-power extension).
#[derive(Debug, Clone, Copy)]
pub struct PeakPowerRow {
    /// Frequency cap, MHz.
    pub cap_mhz: f64,
    /// Extrapolated peak, MW.
    pub peak_mw: f64,
    /// Extrapolated mean, MW.
    pub mean_mw: f64,
    /// Load factor (mean / peak).
    pub load_factor: f64,
    /// Peak shaved vs uncapped, percent.
    pub shaved_pct: f64,
}

/// Peak-power extension data.
#[derive(Debug, Clone)]
pub struct PeakPower {
    /// One row per cap.
    pub rows: Vec<PeakPowerRow>,
}

/// One perturbed-boundary projection (sensitivity ablation).
#[derive(Debug, Clone, Copy)]
pub struct SensitivityVariant {
    /// Latency/MI boundary, watts.
    pub latency_mi_w: f64,
    /// MI/CI boundary, watts.
    pub mi_ci_w: f64,
    /// Best no-slowdown savings, percent.
    pub best_free_pct: f64,
    /// Best total savings, percent.
    pub best_total_pct: f64,
}

/// Sensitivity-ablation data.
#[derive(Debug, Clone)]
pub struct SensitivityArtifact {
    /// Reference no-slowdown headline, percent.
    pub reference_free_pct: f64,
    /// Number of perturbation points swept.
    pub points: usize,
    /// Spread of the headline across perturbations, percentage points.
    pub spread_pp: f64,
    /// Named boundary variants.
    pub variants: Vec<SensitivityVariant>,
}

/// One severity x gap-policy row of the fault-sensitivity sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultsRow {
    /// Severity preset name (`none`, `mild`, …).
    pub preset: &'static str,
    /// Gap policy the decomposition ran under.
    pub policy: GapPolicy,
    /// GPU samples lost to drops and node dropouts.
    pub dropped: u64,
    /// GPU samples delivered twice.
    pub duplicated: u64,
    /// GPU samples glitched to NaN or spiked.
    pub glitched: u64,
    /// Samples delivered behind a later window.
    pub reordered: u64,
    /// Whole-node windows silenced by dropout intervals.
    pub dropout_windows: u64,
    /// Per-mode GPU-seconds accounting of the decomposition.
    pub coverage: Coverage,
    /// Coverage-adjusted bounds on the best no-slowdown savings.
    pub bounds: SavingsBounds,
}

/// Fault-sensitivity artifact: the decomposition and its headline savings
/// re-derived under every severity preset and gap policy.
#[derive(Debug, Clone)]
pub struct FaultsArtifact {
    /// Best no-slowdown savings of the clean run, percent.
    pub nominal_free_pct: f64,
    /// One row per severity preset x gap policy.
    pub rows: Vec<FaultsRow>,
}

/// One periodic snapshot row of the streaming replay.
#[derive(Debug, Clone, Copy)]
pub struct StreamRow {
    /// Stream clock at the snapshot: end of the last delivered window's
    /// delivery slot, seconds.
    pub t_s: f64,
    /// Events ingested so far.
    pub events: u64,
    /// Windows released to channel partials so far.
    pub released: u64,
    /// Windows parked in reorder buffers at the snapshot.
    pub buffered: usize,
    /// Coverage fraction of the snapshot ledger (0..1).
    pub coverage: f64,
    /// Frontier-scaled total energy ingested so far, MWh.
    pub total_mwh: f64,
    /// Coverage-adjusted bounds on the best no-slowdown savings; `None`
    /// until enough energy has accumulated to project.
    pub bounds: Option<SavingsBounds>,
}

/// Streaming-ingest artifact: the scenario's telemetry replayed in
/// delivery order through the incremental `pmss-stream` engine, with
/// periodic snapshots and a final self-check against the batch ledger.
#[derive(Debug, Clone)]
pub struct StreamArtifact {
    /// Ingest shards the replay ran with.
    pub shards: usize,
    /// Reorder horizon, windows (derived from the active fault plan).
    pub reorder_horizon: u64,
    /// Declared reorder-buffer bound, windows (channels x horizon).
    pub buffer_bound: usize,
    /// Periodic snapshots, ending with the flushed final state.
    pub rows: Vec<StreamRow>,
    /// Total events ingested.
    pub events: u64,
    /// GPU power samples among them.
    pub samples: u64,
    /// Explicit gap windows among them.
    pub gaps: u64,
    /// Rest-of-node windows among them.
    pub rest_samples: u64,
    /// Events rejected for arriving beyond the horizon.
    pub late_rejects: u64,
    /// Peak windows parked across all reorder buffers.
    pub peak_buffered_windows: usize,
    /// Peak windows parked in any single channel's buffer.
    pub peak_channel_windows: usize,
    /// Whether the flushed stream ledger equals the batch-path ledger.
    pub batch_identical: bool,
}

/// One governed replay row: a policy's realized savings and its costs.
#[derive(Debug, Clone)]
pub struct GovernRow {
    /// Policy label (`static` | `greedy` | `polimer`, or `custom:<policy>`
    /// for a spec-supplied plan).
    pub policy: String,
    /// The cap the governor applied to governed channels.
    pub cap: CapSetting,
    /// The cluster power budget, watts.
    pub budget_w: f64,
    /// Realized savings, percent of delivered GPU energy.
    pub realized_pct: f64,
    /// Realized savings as a percentage of the projection ceiling.
    pub of_ceiling_pct: f64,
    /// Fleet-wide time-weighted slowdown, percent.
    pub slowdown_pct: f64,
    /// Slowdown within the memory-intensive region, percent.
    pub mi_slowdown_pct: f64,
    /// Slowdown within the compute-intensive region, percent.
    pub ci_slowdown_pct: f64,
    /// Share of memory-intensive energy captured under a cap, percent.
    pub mi_capture_pct: f64,
    /// Sync windows elapsed.
    pub rounds: u64,
    /// Rounds in which the budget rebalancer adjusted caps.
    pub rebalances: u64,
    /// Mode-cap and throttle transitions.
    pub cap_churn: u64,
    /// Mode-cap flips deferred by hysteresis.
    pub hysteresis_suppressions: u64,
    /// Node-rounds spent power-throttled.
    pub throttled_node_rounds: u64,
    /// Peak `sum(node caps) / budget`.
    pub peak_budget_utilization: f64,
    /// Whether the cluster budget was ever exceeded (must stay `false`).
    pub budget_exceeded: bool,
    /// Events the sensing engine rejected as late.
    pub late_rejects: u64,
}

/// Online-governor artifact: every policy preset (plus the spec's custom
/// plan, when present) replayed over the scenario's delivery-ordered
/// telemetry and measured against the projection's best no-slowdown
/// ceiling.
#[derive(Debug, Clone)]
pub struct GovernArtifact {
    /// The projection's best no-slowdown savings, percent (the ceiling).
    pub ceiling_pct: f64,
    /// The setting achieving that ceiling (the governors' auto cap).
    pub ceiling_setting: CapSetting,
    /// Sync-window length, seconds.
    pub interval_s: f64,
    /// Fleet size, nodes.
    pub nodes: usize,
    /// Reorder horizon of the sensing engine, windows.
    pub reorder_horizon: u64,
    /// One row per policy, in `static`, `greedy`, `polimer` order.
    pub rows: Vec<GovernRow>,
}

/// One SKU's share of the fleet and its component-level energy split.
#[derive(Debug, Clone)]
pub struct ComponentsRow {
    /// Catalog index of the node class.
    pub sku: u8,
    /// Catalog display name (`mi250x`, …).
    pub name: &'static str,
    /// Nodes of this class in the scenario fleet.
    pub nodes: usize,
    /// Device (GPU) energy attributed to this class, MWh at Frontier scale.
    pub gpu_mwh: f64,
    /// HBM-lane share of the device energy, MWh.
    pub hbm_mwh: f64,
    /// L2/on-die-lane share, MWh.
    pub l2_mwh: f64,
    /// ALU-lane share, MWh.
    pub alu_mwh: f64,
    /// Clock-tree + uncore remainder lane, MWh.
    pub clock_mwh: f64,
    /// CPU-side (rest-of-node) power-domain energy, MWh.
    pub rest_mwh: f64,
    /// `|sum(component lanes) − device| / device`; pinned near zero by the
    /// property suite (the clock lane is an exact remainder).
    pub conservation_err: f64,
    /// Auto-tuned per-mode sweet spots for this class's engine.
    pub sweet_spots: Vec<SweetSpot>,
}

/// Component-attribution artifact: the fleet decomposition re-cut along
/// the SKU lanes the ledger records, split into per-component energies by
/// each class's power model, with the sweet-spot tuner replacing the
/// paper's fixed frequency grid.
#[derive(Debug, Clone)]
pub struct ComponentsArtifact {
    /// Resolved mix preset name (`single-sku` for homogeneous runs).
    pub mix: String,
    /// Fleet size, nodes.
    pub nodes: usize,
    /// Tuner slowdown bound (1.01 = the paper's no-slowdown regime with
    /// 1 % tolerance).
    pub max_slowdown: f64,
    /// Projected best no-slowdown savings under this mix, percent — the
    /// headline that moves with the SKU mix.
    pub best_free_pct: f64,
    /// The cap achieving that projection row.
    pub best_free_setting: CapSetting,
    /// Device energy summed over every class, MWh.
    pub total_gpu_mwh: f64,
    /// CPU-domain energy summed over every class, MWh.
    pub total_rest_mwh: f64,
    /// One row per node class present in the fleet, by catalog index.
    pub rows: Vec<ComponentsRow>,
}

/// One price/carbon trace's view of the fleet energy (econ extension).
#[derive(Debug, Clone)]
pub struct EconTraceRow {
    /// Trace label (`flat`, `diurnal`, …, or `custom:<name>`).
    pub trace: String,
    /// GPU energy cost under this trace, dollars at Frontier scale.
    pub cost_usd: f64,
    /// GPU carbon under this trace, tonnes CO₂ at Frontier scale.
    pub carbon_t: f64,
    /// Cost delta versus the flat reference price, dollars.
    pub delta_cost_usd: f64,
    /// Carbon delta versus the flat reference intensity, tonnes.
    pub delta_carbon_t: f64,
    /// Dollars saved by the temporal-shifting what-if under this trace.
    pub shift_saving_usd: f64,
    /// Tonnes of CO₂ avoided by the shift.
    pub shift_saving_t: f64,
    /// The shift's edge over the uniform-placement strawman, dollars.
    pub shift_edge_usd: f64,
    /// Boosted energy the shift deferred, MWh.
    pub moved_mwh: f64,
}

/// One SKU lane priced under the econ artifact's focus trace.
#[derive(Debug, Clone)]
pub struct EconSkuRow {
    /// Catalog index of the node class.
    pub sku: u8,
    /// Catalog display name (`mi250x`, …).
    pub name: &'static str,
    /// GPU energy in this lane, MWh at Frontier scale.
    pub gpu_mwh: f64,
    /// Its cost under the focus trace, dollars.
    pub cost_usd: f64,
    /// Its carbon under the focus trace, tonnes.
    pub carbon_t: f64,
}

/// The focus trace's temporal-shifting what-if in full.
#[derive(Debug, Clone)]
pub struct EconShiftDetail {
    /// Deferral deadline, 15-minute slots.
    pub deadline_slots: usize,
    /// Cluster power budget the shift honored, megawatts.
    pub budget_mw: f64,
    /// Boosted energy deferred, MWh.
    pub moved_mwh: f64,
    /// Deferral decisions made.
    pub moves: usize,
    /// Unshifted placement cost, dollars.
    pub baseline_cost_usd: f64,
    /// Price-aware shifted cost, dollars.
    pub shifted_cost_usd: f64,
    /// Uniform-placement strawman cost, dollars.
    pub uniform_cost_usd: f64,
    /// Unshifted carbon, tonnes.
    pub baseline_carbon_t: f64,
    /// Shifted carbon, tonnes.
    pub shifted_carbon_t: f64,
}

/// Economics artifact: the fleet energy integrated against price/carbon
/// traces, with the temporal-shifting what-if under the focus trace.
#[derive(Debug, Clone)]
pub struct EconArtifact {
    /// The focus trace (the spec's active trace, else `diurnal`).
    pub focus: String,
    /// 15-minute accounting slots the campaign spans.
    pub slots: usize,
    /// GPU energy across all slots, MWh at Frontier scale.
    pub total_gpu_mwh: f64,
    /// Rest-of-node energy across all slots, MWh at Frontier scale.
    pub total_rest_mwh: f64,
    /// Reference (flat-trace) GPU cost, dollars.
    pub ref_cost_usd: f64,
    /// Reference GPU carbon, tonnes.
    pub ref_carbon_t: f64,
    /// One row per preset trace, plus `custom:<name>` when the spec's
    /// active trace is not a preset.
    pub rows: Vec<EconTraceRow>,
    /// Per-SKU lanes priced under the focus trace.
    pub sku_rows: Vec<EconSkuRow>,
    /// The focus trace's shift what-if in full.
    pub shift: EconShiftDetail,
}

/// One computed artifact value.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Fig. 2.
    Fig2(Fig2),
    /// Fig. 3.
    Fig3(Fig3),
    /// Fig. 4.
    Fig4(Fig4),
    /// Fig. 5.
    Fig5(Fig5),
    /// Fig. 6.
    Fig6(Fig6),
    /// Fig. 7.
    Fig7(Fig7),
    /// Fig. 8.
    Fig8(Fig8),
    /// Fig. 9.
    Fig9(Fig9),
    /// Fig. 10.
    Fig10(Fig10),
    /// Table I.
    Table1(Table1),
    /// Table II.
    Table2(Table2),
    /// Table III.
    Table3(Table3Artifact),
    /// Table IV.
    Table4(Table4),
    /// Table V.
    Table5(Table5),
    /// Table VI.
    Table6(Table6),
    /// Table VII.
    Table7(Table7),
    /// Validate extension.
    Validate(Validate),
    /// What-if extension.
    Whatif(Whatif),
    /// Governor extension.
    Governor(GovernorArtifact),
    /// Peak-power extension.
    PeakPower(PeakPower),
    /// Sensitivity ablation.
    Sensitivity(SensitivityArtifact),
    /// Fault-injection sensitivity sweep.
    Faults(FaultsArtifact),
    /// Streaming ingest replay.
    Stream(StreamArtifact),
    /// Online cluster governor.
    Govern(GovernArtifact),
    /// Per-SKU component energy attribution.
    Components(ComponentsArtifact),
    /// Price/carbon economics with temporal shifting.
    Econ(EconArtifact),
}

impl Artifact {
    /// The artifact's identity.
    pub fn id(&self) -> ArtifactId {
        match self {
            Artifact::Fig2(_) => ArtifactId::Fig2,
            Artifact::Fig3(_) => ArtifactId::Fig3,
            Artifact::Fig4(_) => ArtifactId::Fig4,
            Artifact::Fig5(_) => ArtifactId::Fig5,
            Artifact::Fig6(_) => ArtifactId::Fig6,
            Artifact::Fig7(_) => ArtifactId::Fig7,
            Artifact::Fig8(_) => ArtifactId::Fig8,
            Artifact::Fig9(_) => ArtifactId::Fig9,
            Artifact::Fig10(_) => ArtifactId::Fig10,
            Artifact::Table1(_) => ArtifactId::Table1,
            Artifact::Table2(_) => ArtifactId::Table2,
            Artifact::Table3(_) => ArtifactId::Table3,
            Artifact::Table4(_) => ArtifactId::Table4,
            Artifact::Table5(_) => ArtifactId::Table5,
            Artifact::Table6(_) => ArtifactId::Table6,
            Artifact::Table7(_) => ArtifactId::Table7,
            Artifact::Validate(_) => ArtifactId::Validate,
            Artifact::Whatif(_) => ArtifactId::Whatif,
            Artifact::Governor(_) => ArtifactId::Governor,
            Artifact::PeakPower(_) => ArtifactId::PeakPower,
            Artifact::Sensitivity(_) => ArtifactId::Sensitivity,
            Artifact::Faults(_) => ArtifactId::Faults,
            Artifact::Stream(_) => ArtifactId::Stream,
            Artifact::Govern(_) => ArtifactId::Govern,
            Artifact::Components(_) => ArtifactId::Components,
            Artifact::Econ(_) => ArtifactId::Econ,
        }
    }

    /// Renders the artifact to the byte-identical ASCII of the original
    /// per-artifact binary.
    pub fn render_ascii(&self) -> String {
        render::ascii(self)
    }

    /// Renders the artifact to structured JSON.
    pub fn to_json(&self) -> Json {
        render::json(self)
    }
}

impl Pipeline {
    /// Computes one artifact, reusing memoized stages.
    pub fn artifact(&mut self, id: ArtifactId) -> Result<Artifact, PmssError> {
        let sw = Stopwatch::start();
        let art = match id {
            ArtifactId::Fig2 => Artifact::Fig2(fig2(self)?),
            ArtifactId::Fig3 => Artifact::Fig3(fig3(self)),
            ArtifactId::Fig4 => Artifact::Fig4(fig4(self)),
            ArtifactId::Fig5 => Artifact::Fig5(fig5(self)?),
            ArtifactId::Fig6 => Artifact::Fig6(fig6(self)),
            ArtifactId::Fig7 => Artifact::Fig7(fig7(self)),
            ArtifactId::Fig8 => Artifact::Fig8(fig8(self)?),
            ArtifactId::Fig9 => Artifact::Fig9(fig9(self)?),
            ArtifactId::Fig10 => Artifact::Fig10(fig10(self)?),
            ArtifactId::Table1 => Artifact::Table1(table1()),
            ArtifactId::Table2 => Artifact::Table2(table2()?),
            ArtifactId::Table3 => Artifact::Table3(Table3Artifact {
                table: self.table3()?.clone(),
            }),
            ArtifactId::Table4 => Artifact::Table4(table4(self)?),
            ArtifactId::Table5 => Artifact::Table5(Table5 {
                projection: self.projection()?,
            }),
            ArtifactId::Table6 => Artifact::Table6(table6(self)?),
            ArtifactId::Table7 => Artifact::Table7(table7()),
            ArtifactId::Validate => Artifact::Validate(validate(self)?),
            ArtifactId::Whatif => Artifact::Whatif(whatif(self)?),
            ArtifactId::Governor => Artifact::Governor(governor(self)?),
            ArtifactId::PeakPower => Artifact::PeakPower(peakpower(self)?),
            ArtifactId::Sensitivity => Artifact::Sensitivity(sensitivity(self)?),
            ArtifactId::Faults => Artifact::Faults(faults(self)?),
            ArtifactId::Stream => Artifact::Stream(stream(self)?),
            ArtifactId::Govern => Artifact::Govern(govern(self)?),
            ArtifactId::Components => Artifact::Components(components(self)?),
            ArtifactId::Econ => Artifact::Econ(econ(self)?),
        };
        self.metrics.inc("artifacts.computed");
        self.metrics
            .observe("artifact.wall_s", edges::WALL_S, sw.elapsed_s());
        Ok(art)
    }
}

fn fig2(p: &mut Pipeline) -> Result<Fig2, PmssError> {
    // (a) sensor agreement on a 20-minute mixed application.
    let mut rng = StdRng::seed_from_u64(2);
    let phases = synthesize_app(AppClass::Mixed, 1200.0, &mut rng);
    let c = compare_sensors(&phases, GpuSettings::uncapped(), 7);
    let pairs = c
        .telemetry
        .iter()
        .zip(&c.smi)
        .take(12)
        .map(|(t, s)| SensorPairSample {
            t_s: t.t_s,
            oob_w: t.power_w,
            smi_w: s.power_w,
        })
        .collect();

    // (b) GPU vs CPU energy: one run of the scenario's schedule, folding
    // the split alone — the fleet stage's ledger is not read here.
    let cfg = p.fleet_config();
    let schedule = p.schedule();
    let (split, _) = generation(&mut p.metrics, &schedule, &[cfg.faults.as_ref()], || {
        let (split, stats) = simulate_fleet_metered::<GpuCpuEnergy>(&schedule, &cfg);
        Ok((split, vec![stats]))
    })?;
    Ok(Fig2 {
        windows: c.telemetry.len(),
        mean_power_w: c.mean_power_w,
        mean_abs_diff_w: c.mean_abs_diff_w,
        pairs,
        gpu_share: split.gpu_share(),
        gpu_density: split.gpu_hist.density(),
        rest_density: split.rest_hist.density(),
    })
}

fn fig3(p: &Pipeline) -> Fig3 {
    let pattern = (0..12u64).map(|b| (b, chunk_for_block(b, 5))).collect();
    let rows = membench::size_sweep()
        .into_iter()
        .map(|bytes| {
            let params = MembenchParams::paper(bytes);
            let k = membench::kernel(params);
            let ex = p.engine.execute(&k, GpuSettings::uncapped());
            Fig3Row {
                bytes,
                served_from: if params.l2_hit_fraction() > 0.5 {
                    "L2"
                } else {
                    "HBM"
                },
                gb_s: ex.perf.ondie_bw.max(ex.perf.hbm_bw) / 1e9,
                power_w: ex.busy_power_w,
            }
        })
        .collect();
    Fig3 { pattern, rows }
}

fn fig4(p: &Pipeline) -> Fig4 {
    let freqs: Vec<CapSetting> = [1700.0, 1300.0, 900.0, 700.0]
        .iter()
        .map(|&m| CapSetting::FreqMhz(m))
        .collect();
    let caps: Vec<CapSetting> = [560.0, 400.0, 300.0, 200.0]
        .iter()
        .map(|&w| CapSetting::PowerW(w))
        .collect();
    let block = |title: &'static str, settings: &[CapSetting]| -> Fig4Block {
        let sections = settings
            .iter()
            .map(|&setting| {
                let rows = vai::intensity_sweep()
                    .into_iter()
                    .map(|ai| {
                        let k = vai::kernel(VaiParams::paper(ai));
                        let base = p
                            .engine
                            .execute(&k, CapSetting::FreqMhz(1700.0).to_settings());
                        let ex = p.engine.execute(&k, setting.to_settings());
                        Fig4Row {
                            ai,
                            tflops: ex.perf.flops_per_s / 1e12,
                            gb_s: ex.perf.hbm_bw / 1e9,
                            power_w: ex.busy_power_w,
                            t_rel: ex.time_s / base.time_s,
                        }
                    })
                    .collect();
                Fig4Section { setting, rows }
            })
            .collect();
        Fig4Block { title, sections }
    };
    Fig4 {
        blocks: vec![
            block("Fig. 4 left: fixed frequency", &freqs),
            block("Fig. 4 right: power cap", &caps),
        ],
    }
}

fn fig5(p: &mut Pipeline) -> Result<Fig5, PmssError> {
    let ladders = [
        (
            "Fig. 5 left: frequency caps (MHz)",
            ladder(&p.spec.freq_caps_mhz, CapSetting::FreqMhz),
        ),
        (
            "Fig. 5 right: power caps (W)",
            ladder(&p.spec.power_caps_w, CapSetting::PowerW),
        ),
    ];
    let mut blocks = Vec::new();
    for (title, settings) in ladders {
        let rows = vai::intensity_sweep()
            .into_iter()
            .map(|ai| {
                let k = vai::kernel(VaiParams::paper(ai));
                let points = normalize(&sweep_kernel(&p.engine, &k, &settings)?)?;
                Ok(Fig5Row { ai, points })
            })
            .collect::<Result<Vec<_>, PmssError>>()?;
        blocks.push(Fig5Block {
            title,
            settings,
            rows,
        });
    }
    Ok(Fig5 { blocks })
}

fn fig6(p: &Pipeline) -> Fig6 {
    let freqs: Vec<CapSetting> = [1700.0, 1300.0, 900.0, 700.0]
        .iter()
        .map(|&m| CapSetting::FreqMhz(m))
        .collect();
    let caps: Vec<CapSetting> = MEMBENCH_POWER_CAPS_W
        .iter()
        .map(|&w| CapSetting::PowerW(w))
        .collect();
    let block = |title: &'static str, settings: &[CapSetting]| -> Fig6Block {
        let sections = settings
            .iter()
            .map(|&setting| {
                let rows = membench::size_sweep()
                    .into_iter()
                    .map(|bytes| {
                        let k = membench::kernel(MembenchParams::paper(bytes));
                        let base = p
                            .engine
                            .execute(&k, CapSetting::FreqMhz(1700.0).to_settings());
                        let ex = p.engine.execute(&k, setting.to_settings());
                        Fig6Row {
                            bytes,
                            gb_s: ex.perf.ondie_bw.max(ex.perf.hbm_bw) / 1e9,
                            power_w: ex.busy_power_w,
                            t_rel: ex.time_s / base.time_s,
                            breached: ex.cap_breached,
                        }
                    })
                    .collect();
                Fig6Section { setting, rows }
            })
            .collect();
        Fig6Block { title, sections }
    };
    Fig6 {
        blocks: vec![
            block("Fig. 6 left: frequency caps", &freqs),
            block("Fig. 6 right: power caps", &caps),
        ],
    }
}

fn fig7(p: &Pipeline) -> Fig7 {
    let cases = networks(p.spec.case_scale(), 77);
    let cases = cases
        .iter()
        .map(|case| {
            let stats = case.graph.degree_stats();
            let study = CaseStudy::prepare(case, 3);
            let freq_rows = study
                .frequency_sweep()
                .into_iter()
                .map(|pt| Fig7SweepRow {
                    knob: pt.knob,
                    runtime_s: pt.runtime_s,
                    avg_power_w: pt.avg_power_w,
                    peak_power_w: pt.peak_power_w,
                    energy_j: pt.energy_j,
                })
                .collect();
            let s = study.savings(GpuSettings::freq_capped(900.0));
            let road_caps = if case.name.starts_with("road") {
                let base = study.run(GpuSettings::uncapped());
                Some(
                    study
                        .power_cap_sweep()
                        .into_iter()
                        .map(|pt| Fig7RoadRow {
                            cap_w: pt.knob,
                            runtime_ratio: pt.runtime_s / base.runtime_s,
                            saving_pct: 100.0 * (1.0 - pt.energy_j / base.energy_j),
                            breached: pt.cap_breached,
                        })
                        .collect(),
                )
            } else {
                None
            };
            Fig7Case {
                name: case.name.clone(),
                edges: case.graph.num_edges(),
                d_max: stats.d_max,
                d_avg: stats.d_avg,
                modularity: study.result.modularity,
                levels: study.result.levels.len(),
                freq_rows,
                saving_900_pct: 100.0 * s.energy_saving,
                slowdown_900_pct: 100.0 * s.runtime_increase,
                road_caps,
            }
        })
        .collect();
    Fig7 { cases }
}

fn fig8(p: &mut Pipeline) -> Result<Fig8, PmssError> {
    let hist = p.fleet_with::<SystemHistogram>(false)?.1.hist;
    let regions = Region::all()
        .iter()
        .map(|r| {
            let (lo, hi) = r.range_w();
            RegionMass {
                label: r.label(),
                pct: 100.0 * hist.fraction_between(lo, hi.min(700.0)),
            }
        })
        .collect();
    Ok(Fig8 {
        samples: hist.total(),
        mean_w: hist.mean_w().unwrap_or(0.0),
        density: hist.density(),
        regions,
        peaks_w: hist.peaks_w(2.0, 0.01),
    })
}

fn fig9(p: &mut Pipeline) -> Result<Fig9, PmssError> {
    let (fleet, hists) = p.fleet_with::<DomainHistograms>(false)?;
    let domains = fleet
        .domains
        .iter()
        .enumerate()
        .filter_map(|(d, spec)| {
            hists.domain(d).map(|h| Fig9Domain {
                code: spec.code.to_string(),
                name: spec.name.to_string(),
                mean_w: h.mean_w().unwrap_or(0.0),
                density: h.density(),
            })
        })
        .collect();
    Ok(Fig9 { domains })
}

fn fig10(p: &mut Pipeline) -> Result<Fig10, PmssError> {
    let s = p.stages()?;
    let ledger = s.fleet.ledger.scaled(s.fleet.frontier_factor)?;
    let used = energy_used(&ledger);
    let row_1100 = s.table3.freq_row(1100.0).ok_or_else(|| {
        PmssError::missing("Table III row", "1100 MHz (not in the spec's freq ladder)")
    })?;
    let saved = energy_saved(&ledger, row_1100);
    let concentration_pct =
        100.0 * saved.rows.iter().map(|r| r[0] + r[1] + r[2]).sum::<f64>() / saved.total();
    Ok(Fig10 {
        labels: s.fleet.domains.iter().map(|d| d.code.to_string()).collect(),
        used,
        saved,
        concentration_pct,
    })
}

fn table1() -> Table1 {
    use pmss_gpu::consts as c;
    Table1 {
        rows: vec![
            ("Compute node", FRONTIER_NODES.to_string()),
            (
                "Each Compute node",
                format!("{} AMD MI250X", c::GPUS_PER_NODE),
            ),
            ("Each GPU", format!("{} GCD", c::GCDS_PER_GPU)),
            (
                "Each GCD",
                format!("{} GB HBM2E", c::GCD_HBM_BYTES / (1 << 30)),
            ),
            ("GCD max power (pkg TDP)", format!("{:.0} W", c::GPU_TDP_W)),
            ("GCD max frequency", format!("{:.0} MHz", c::F_MAX_MHZ)),
            (
                "GCD peak FP64",
                format!("{:.1} TFLOP/s", c::GCD_PEAK_FLOPS / 1e12),
            ),
            (
                "HBM bandwidth per GCD",
                format!("{:.1} TB/s", c::GCD_HBM_BW / 1e12),
            ),
            ("GPU idle power", format!("{:.0} W", c::GPU_IDLE_W)),
            ("Firmware sustained limit", format!("{:.0} W", c::GPU_PPT_W)),
        ],
    }
}

fn table2() -> Result<Table2, PmssError> {
    let cat = catalog();
    let schedule = generate(
        TraceParams {
            nodes: 8,
            duration_s: 86_400.0,
            seed: 6,
            min_job_s: 900.0,
        },
        &cat,
    );
    let mut buf = Vec::new();
    log::write_log(&mut buf, &schedule.jobs)?;
    let text = String::from_utf8(buf)
        .map_err(|e| PmssError::malformed("job-log", format!("non-UTF-8 output: {e}")))?;
    let log_lines = text.lines().take(5).map(|l| l.to_string()).collect();
    let placements = schedule.per_node[0]
        .iter()
        .take(4)
        .map(|pl| {
            let j = &schedule.jobs[pl.job];
            Table2Placement {
                job_id: j.id,
                project_id: j.project_id.clone(),
                begin_s: pl.begin_s,
                end_s: pl.end_s,
            }
        })
        .collect();
    Ok(Table2 {
        raw_tb: sample_storage_bytes(FRONTIER_NODES, 4, PAPER_CAMPAIGN_DAYS, 2.0, 16.0) / 1e12,
        agg_tb: sample_storage_bytes(FRONTIER_NODES, 4, PAPER_CAMPAIGN_DAYS, 15.0, 16.0) / 1e12,
        jobs: schedule.jobs.len(),
        log_lines,
        placements,
    })
}

fn table4(p: &mut Pipeline) -> Result<Table4, PmssError> {
    let fleet = p.fleet()?;
    let fractions = fleet.ledger.gpu_hours_fractions();
    let mut gpu_hours_pct = [0.0; 4];
    for (out, region) in gpu_hours_pct.iter_mut().zip(Region::all()) {
        *out = 100.0 * fractions[region.index()];
    }
    Ok(Table4 { gpu_hours_pct })
}

fn table6(p: &mut Pipeline) -> Result<Table6, PmssError> {
    let s = p.stages()?;
    let ledger = s.fleet.ledger.scaled(s.fleet.frontier_factor)?;
    let row_1100 = s.table3.freq_row(1100.0).ok_or_else(|| {
        PmssError::missing("Table III row", "1100 MHz (not in the spec's freq ladder)")
    })?;
    let saved = energy_saved(&ledger, row_1100);
    let threshold = 0.35
        * saved
            .rows
            .iter()
            .flat_map(|r| r.iter())
            .cloned()
            .fold(0.0, f64::max);
    let hot = saved.hot_domains(threshold);
    let input = ProjectionInput::from_ledger_filtered(&ledger, |d, size| {
        hot.contains(&d) && size <= JobSizeClass::C
    });
    Ok(Table6 {
        hot_codes: hot
            .iter()
            .map(|&d| s.fleet.domains[d].code.to_string())
            .collect(),
        projection: project(input, s.table3)?,
    })
}

fn table7() -> Table7 {
    Table7 {
        rows: JobSizeClass::all()
            .into_iter()
            .map(|class| {
                let (lo, hi) = class.node_range();
                Table7Row {
                    label: class.label(),
                    min_nodes: lo,
                    max_nodes: hi,
                    max_walltime_h: class.max_walltime_h(),
                }
            })
            .collect(),
    }
}

fn validate(p: &mut Pipeline) -> Result<Validate, PmssError> {
    let s = p.stages()?;
    let projection = project(ProjectionInput::from_ledger(&s.fleet.ledger), s.table3)?;

    let jobs: Vec<_> = s.fleet.schedule.jobs.iter().take(400).collect();
    let rows = [1500.0, 1300.0, 1100.0, 900.0, 700.0]
        .iter()
        .map(|&mhz| {
            // Each job sums its own phases first and the job totals are
            // added afterwards: the association the golden's low-order
            // bits are pinned to.
            let (mut e_b, mut e_c, mut t_b, mut t_c) = (0.0, 0.0, 0.0, 0.0);
            for job in &jobs {
                let mut rng = StdRng::seed_from_u64(job.seed);
                let mut acc = (0.0, 0.0, 0.0, 0.0);
                for phase in synthesize_app(job.app_class, job.duration_s(), &mut rng) {
                    let b = s.engine.execute(&phase, GpuSettings::uncapped());
                    let c = s.engine.execute(&phase, GpuSettings::freq_capped(mhz));
                    acc.0 += b.energy_j;
                    acc.1 += c.energy_j;
                    acc.2 += b.time_s;
                    acc.3 += c.time_s;
                }
                e_b += acc.0;
                e_c += acc.1;
                t_b += acc.2;
                t_c += acc.3;
            }
            let row = projection.freq_row(mhz).ok_or_else(|| {
                PmssError::missing(
                    "projection row",
                    format!("{mhz:.0} MHz (not in the spec's freq ladder)"),
                )
            })?;
            Ok(ValidateRow {
                cap_mhz: mhz,
                projected_sav_pct: row.savings_pct,
                measured_sav_pct: 100.0 * (1.0 - e_c / e_b),
                projected_dt_pct: row.delta_t_pct,
                measured_dt_pct: 100.0 * (t_c / t_b - 1.0),
            })
        })
        .collect::<Result<Vec<_>, PmssError>>()?;
    Ok(Validate {
        jobs: jobs.len(),
        rows,
    })
}

fn whatif(p: &mut Pipeline) -> Result<Whatif, PmssError> {
    let s = p.stages()?;
    let total_j = s.fleet.ledger.total().joules;

    let budget_rows = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0]
        .iter()
        .map(|&budget| {
            let mixed = optimize_per_domain(&s.fleet.ledger, s.table3, budget);
            let (setting, uniform_j) = best_uniform(&s.fleet.ledger, s.table3, budget)?;
            Ok(WhatifBudgetRow {
                budget_pct: budget,
                mixed_saves_pct: 100.0 * mixed.savings_fraction(total_j),
                uniform_saves_pct: 100.0 * uniform_j / total_j,
                uniform_cap: setting,
            })
        })
        .collect::<Result<Vec<_>, PmssError>>()?;

    let mixed = optimize_per_domain(&s.fleet.ledger, s.table3, 10.0);
    let assignment = mixed
        .assignment
        .iter()
        .enumerate()
        .map(|(d, choice)| WhatifAssignment {
            code: s.fleet.domains[d].code.to_string(),
            choice: choice.as_ref().map(|e| (e.setting.value(), e.delta_t_pct)),
        })
        .collect();
    // Value each budget's savings under the active econ trace, whose
    // series the stage folds for a priced spec.  Savings scale the whole
    // placement, so a saved fraction of the energy is the same fraction of
    // the trace-priced cost.
    let econ = match (s.spec.active_econ(), &s.fleet.econ) {
        (Some(trace), Some(series)) => {
            let series = series.scaled(s.fleet.frontier_factor)?;
            let total_cost_usd = series.cost_usd(trace);
            let total_carbon_t = series.carbon_kg(trace) / 1e3;
            Some(WhatifEcon {
                trace: trace.name.clone(),
                total_cost_usd,
                total_carbon_t,
                rows: budget_rows
                    .iter()
                    .map(|r| WhatifEconRow {
                        budget_pct: r.budget_pct,
                        mixed_saving_usd: r.mixed_saves_pct / 100.0 * total_cost_usd,
                        mixed_saving_t: r.mixed_saves_pct / 100.0 * total_carbon_t,
                    })
                    .collect(),
            })
        }
        _ => None,
    };
    Ok(Whatif {
        budget_rows,
        assignment,
        econ,
    })
}

fn governor(p: &Pipeline) -> Result<GovernorArtifact, PmssError> {
    let policies: Vec<(&'static str, Governor)> = vec![
        ("static 1100 MHz", Governor::Fixed(1100.0)),
        ("static 900 MHz", Governor::Fixed(900.0)),
        ("energy-optimal", Governor::EnergyOptimal),
        (
            "5% slowdown budget",
            Governor::SlowdownBudget { budget: 0.05 },
        ),
    ];
    let classes = AppClass::all()
        .into_iter()
        .map(|class| {
            let mut rng = StdRng::seed_from_u64(17);
            let phases = synthesize_app(class, 3600.0, &mut rng);
            let rows = policies
                .iter()
                .map(|(name, policy)| {
                    let t =
                        GovernedTotals::from_governed(&policy.govern_phases(&p.engine, &phases)?);
                    Ok(GovernorPolicyRow {
                        policy: name,
                        energy_saved_pct: 100.0 * t.energy_saving(),
                        slowdown_pct: 100.0 * t.slowdown(),
                    })
                })
                .collect::<Result<Vec<_>, PmssError>>()?;
            Ok(GovernorClass {
                class: format!("{class:?}"),
                phases: phases.len(),
                rows,
            })
        })
        .collect::<Result<Vec<_>, PmssError>>()?;
    Ok(GovernorArtifact { classes })
}

fn peakpower(p: &mut Pipeline) -> Result<PeakPower, PmssError> {
    let schedule = p.schedule();
    // Extrapolate fleet power to the full Frontier system.
    let node_factor = FRONTIER_NODES as f64 / p.spec.nodes as f64;
    let base_cfg = p.fleet_config();
    let mut rows = Vec::new();
    let mut base_peak = 0.0;
    // One pass per cap, one after another, each on every core.
    for mhz in [1700.0, 1500.0, 1300.0, 1100.0, 900.0] {
        let cfg = FleetConfig {
            settings: GpuSettings::freq_capped(mhz),
            ..base_cfg.clone()
        };
        let (fp, _) = generation(&mut p.metrics, &schedule, &[cfg.faults.as_ref()], || {
            let (fp, stats) = simulate_fleet_metered::<FleetPowerSeries>(&schedule, &cfg);
            Ok((fp, vec![stats]))
        })?;
        let peak_mw = fp.peak_w() * node_factor / 1e6;
        let mean_mw = fp.mean_w() * node_factor / 1e6;
        if mhz == 1700.0 {
            base_peak = peak_mw;
        }
        rows.push(PeakPowerRow {
            cap_mhz: mhz,
            peak_mw,
            mean_mw,
            load_factor: fp.load_factor(),
            shaved_pct: 100.0 * (1.0 - peak_mw / base_peak),
        });
    }
    Ok(PeakPower { rows })
}

fn sensitivity(p: &mut Pipeline) -> Result<SensitivityArtifact, PmssError> {
    let hist = p.fleet_with::<SystemHistogram>(false)?.1.hist;
    let s = p.stages()?;
    let total_j = s.fleet.ledger.total().joules;

    let report = boundary_sweep(&hist, total_j, s.table3, 40.0, 8)?;
    let variants = [
        Boundaries {
            latency_mi_w: 160.0,
            mi_ci_w: 420.0,
            ci_boost_w: 560.0,
        },
        Boundaries {
            latency_mi_w: 240.0,
            mi_ci_w: 420.0,
            ci_boost_w: 560.0,
        },
        Boundaries {
            latency_mi_w: 200.0,
            mi_ci_w: 380.0,
            ci_boost_w: 560.0,
        },
        Boundaries {
            latency_mi_w: 200.0,
            mi_ci_w: 460.0,
            ci_boost_w: 560.0,
        },
    ]
    .into_iter()
    .map(|b| {
        let proj = project(input_from_histogram(&hist, b, total_j)?, s.table3)?;
        Ok(SensitivityVariant {
            latency_mi_w: b.latency_mi_w,
            mi_ci_w: b.mi_ci_w,
            best_free_pct: proj.best_free().savings_dt0_pct,
            best_total_pct: proj.best_total().savings_pct,
        })
    })
    .collect::<Result<Vec<_>, PmssError>>()?;
    Ok(SensitivityArtifact {
        reference_free_pct: report.reference.best_free_pct,
        points: report.points.len(),
        spread_pp: report.free_savings_spread(),
        variants,
    })
}

fn faults(p: &mut Pipeline) -> Result<FaultsArtifact, PmssError> {
    let base_cfg = p.fleet_config();
    let s = p.stages()?;

    let mut jobs = Vec::new();
    let mut plans = Vec::new();
    for preset in PRESETS {
        let base = FaultPlan::preset(preset)?;
        // The clean baseline needs no gap policy; every faulted severity is
        // re-decomposed under all three so their biases can be compared.
        let policies: Vec<GapPolicy> = if base.is_noop() {
            vec![base.gap_policy]
        } else {
            GapPolicy::all().to_vec()
        };
        for policy in policies {
            jobs.push((preset, policy));
            plans.push(FaultPlan {
                gap_policy: policy,
                ..base.clone()
            });
        }
    }
    // One generation delivered under every row's plan, each folding its
    // own `EnergyLedger`; the rows are projected here, in job order.
    let schedule = &s.fleet.schedule;
    let delivered: Vec<_> = plans.iter().map(Some).collect();
    let (ledgers, stats) = generation(s.metrics, schedule, &delivered, || {
        let runs = simulate_fleet_plans(schedule, &base_cfg, &plans);
        let (ledgers, stats): (Vec<EnergyLedger>, _) = runs.into_iter().unzip();
        Ok((ledgers, stats))
    })?;
    let mut rows = Vec::new();
    for (((preset, policy), ledger), stats) in jobs.into_iter().zip(ledgers).zip(stats) {
        let coverage = ledger.coverage();
        let proj = project(
            ProjectionInput::from_ledger(&ledger.scaled(s.fleet.frontier_factor)?),
            s.table3,
        )?;
        rows.push(FaultsRow {
            preset,
            policy,
            dropped: stats.faults_dropped,
            duplicated: stats.faults_duplicated,
            glitched: stats.faults_glitched,
            reordered: stats.faults_reordered,
            dropout_windows: stats.faults_dropout_windows,
            coverage,
            bounds: proj.best_free().coverage_bounds_dt0(coverage.fraction()),
        });
    }
    // The `none` preset row is bit-identical to a clean run, so its (fully
    // covered) bound is the nominal headline every other row degrades from.
    let nominal_free_pct = rows
        .first()
        .map(|r| r.bounds.hi_pct)
        .expect("PRESETS is non-empty");
    Ok(FaultsArtifact {
        nominal_free_pct,
        rows,
    })
}

/// How many periodic snapshots the stream replay takes before the final
/// flushed one.
const STREAM_SNAPSHOTS: usize = 4;

fn stream(p: &mut Pipeline) -> Result<StreamArtifact, PmssError> {
    // Replay the trace as a timed stream: the traced fleet stage retains
    // the run's channels, and the stream engine's state is per channel, so
    // each channel is replayed on its own on every core and its partials at
    // the snapshot cuts are merged in canonical order — what a sequential
    // ingest of the delivery-ordered run holds at the same positions.
    // (Only the pipeline holds the trace; an engine stays O(channels x
    // horizon).)
    let cfg = p.fleet_config();
    let window_s = cfg.window_s;
    let sw = Stopwatch::start();
    let (s, trace) = p.traced_stages()?;

    let stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref()).with_shards(4);
    let mut replay: TraceReplay<'_, EnergyLedger, _> =
        TraceReplay::new(&s.fleet.schedule, trace, stream_cfg)?;

    // Snapshot row from a merged ledger and the counts at its cut.
    let row = |ledger: EnergyLedger, t_s: f64, at: CutTally| -> Result<StreamRow, PmssError> {
        let state = StreamState::new(ledger, s.fleet.frontier_factor);
        Ok(StreamRow {
            t_s,
            events: at.events,
            released: at.released,
            buffered: at.buffered,
            coverage: state.coverage().fraction(),
            total_mwh: ProjectionInput::from_ledger(
                &state.ledger().scaled(s.fleet.frontier_factor)?,
            )
            .total_mwh(),
            bounds: state.coverage_bounds(s.table3).ok(),
        })
    };

    // Deterministic snapshot cadence: evenly spaced cuts of the delivery
    // sequence (a run too short to space them takes none), then the
    // flushed final state.  Simulated time only — no wall clock reaches
    // the pinned bytes.
    let n = trace.len();
    let cuts: Vec<Cut> = if n > STREAM_SNAPSHOTS {
        (1..=STREAM_SNAPSHOTS)
            .map(|k| Cut::after_events(trace, n * k / (STREAM_SNAPSHOTS + 1)))
            .collect()
    } else {
        Vec::new()
    };
    // One cut per pass, so only one cut's channel ledgers are held.
    let mut rows = Vec::new();
    for cut in cuts {
        let parts = replay.cuts(&[cut]);
        let mut ledger = EnergyLedger::default();
        for (_, part) in parts.cut(0) {
            ledger.merge(part.clone());
        }
        rows.push(row(
            ledger,
            (cut.rank() + 1) as f64 * window_s,
            parts.tally(0),
        )?);
    }
    let ledger = replay.finish();
    let stats = replay.stats();
    let end = CutTally {
        events: stats.events,
        released: stats.released_windows,
        buffered: stats.buffered_windows,
    };
    let batch_identical = ledger == s.fleet.ledger;
    rows.push(row(ledger, (trace.last_rank() + 1) as f64 * window_s, end)?);

    replay.publish_metrics(s.metrics);
    // Released windows over the artifact's whole replay — the traced fleet
    // stage (generation, the batch fold and the capture), the replay and
    // snapshots — not ingest alone.
    let wall = sw.elapsed_s();
    if wall > 0.0 {
        s.metrics
            .gauge_set("stream.windows_per_s", stats.released_windows as f64 / wall);
    }
    Ok(StreamArtifact {
        shards: stream_cfg.shards,
        reorder_horizon: stream_cfg.reorder_horizon,
        buffer_bound: replay.buffer_bound(),
        rows,
        events: stats.events,
        samples: stats.samples,
        gaps: stats.gaps,
        rest_samples: stats.rest_samples,
        late_rejects: stats.late_rejects,
        peak_buffered_windows: stats.peak_buffered_windows,
        peak_channel_windows: stats.peak_channel_windows,
        batch_identical,
    })
}

fn govern(p: &mut Pipeline) -> Result<GovernArtifact, PmssError> {
    // One captured trace, governed for every policy together: sensed by a
    // per-channel replay on every core, accounted in delivery order.
    let cfg = p.fleet_config();
    let (mut s, trace) = p.traced_stages()?;
    // The ceiling the governors chase: the projection's best no-slowdown
    // row.  Its setting doubles as the auto cap for plans that name none.
    let projection = s.projection()?;
    let best = projection.best_free();
    let ceiling_pct = best.savings_dt0_pct;
    let auto_cap = best.setting;

    let nodes = s.spec.nodes;
    let stream_cfg = StreamConfig::for_plan(cfg.faults.as_ref());

    let mut jobs = Vec::new();
    for preset in pmss_govern::PRESETS {
        jobs.push((preset.to_string(), GovernorPlan::preset(preset)?));
    }
    // A spec-supplied plan rides along as an extra labelled row so custom
    // budgets/rates can be compared against the presets.
    if let Some(plan) = &s.spec.govern {
        jobs.push((format!("custom:{}", plan.policy.name()), plan.clone()));
    }
    // Resolved in job order, so the first failure is the first job's.
    let resolved = jobs
        .iter()
        .map(|(_, plan)| plan.resolve(nodes, auto_cap))
        .collect::<Result<Vec<_>, PmssError>>()?;
    let outcomes = run_governor(
        &s.fleet.schedule,
        trace,
        stream_cfg,
        &resolved,
        s.table3,
        cfg.window_s,
    )?;

    let mut interval_s = 0.0;
    let mut rows = Vec::new();
    for ((label, _), outcome) in jobs.into_iter().zip(outcomes) {
        outcome.publish_metrics(s.metrics);
        // The header reports the presets' shared sync window; a custom
        // row may use its own interval without relabeling the header.
        if rows.is_empty() {
            interval_s = outcome.interval_s;
        }
        rows.push(GovernRow {
            policy: label,
            cap: outcome.cap,
            budget_w: outcome.budget_w,
            realized_pct: outcome.realized_pct(),
            of_ceiling_pct: outcome.of_ceiling_pct(ceiling_pct),
            slowdown_pct: outcome.slowdown_pct(),
            mi_slowdown_pct: outcome.region_slowdown_pct(Region::MemoryIntensive),
            ci_slowdown_pct: outcome.region_slowdown_pct(Region::ComputeIntensive),
            mi_capture_pct: outcome.mi_capture_pct(),
            rounds: outcome.rounds,
            rebalances: outcome.rebalances,
            cap_churn: outcome.cap_churn,
            hysteresis_suppressions: outcome.hysteresis_suppressions,
            throttled_node_rounds: outcome.throttled_node_rounds,
            peak_budget_utilization: outcome.peak_budget_utilization,
            budget_exceeded: outcome.budget_exceeded,
            late_rejects: outcome.stream.late_rejects,
        });
    }

    Ok(GovernArtifact {
        ceiling_pct,
        ceiling_setting: auto_cap,
        interval_s,
        nodes,
        reorder_horizon: stream_cfg.reorder_horizon,
        rows,
    })
}

/// Tuner slowdown bound for the components artifact: the paper's
/// no-slowdown regime with 1 % tolerance.
const TUNER_MAX_SLOWDOWN: f64 = 1.01;

fn components(p: &mut Pipeline) -> Result<ComponentsArtifact, PmssError> {
    // The savings headline under this mix: mixed fleets shift the region
    // masses, so the projection's best no-slowdown row moves with the mix.
    let mut s = p.stages()?;
    let projection = s.projection()?;
    let best = projection.best_free();

    let mix = s.spec.resolved_mix();
    let mix_name = s.spec.active_mix().unwrap_or("single-sku").to_string();
    let nodes = s.spec.nodes;
    let catalog = SkuCatalog::standard();
    let ledger = s.fleet.ledger.scaled(s.fleet.frontier_factor)?;

    // The fleet simulation folds every node's SKU into catalog range, so
    // counting through the same reduction keeps rows and lanes aligned.
    let mut node_counts = vec![0usize; catalog.len()];
    for node in 0..nodes {
        node_counts[mix.sku_of(node) as usize % catalog.len()] += 1;
    }

    let mut rows = Vec::new();
    let mut total_gpu_mwh = 0.0;
    let mut total_rest_mwh = 0.0;
    for (sku, &count) in node_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let spec = catalog.spec(sku as u8);
        let regions = ledger.sku_gpu_totals(sku);
        let gpu_j: f64 = regions.iter().map(|c| c.joules).sum();
        // Split each region's energy by the class's component fractions at
        // the region's representative operating point; the clock-tree lane
        // is the exact remainder, so the four lanes conserve the device
        // total by construction (pinned by the property suite).
        let mut lanes = [0.0f64; 4];
        for (region, cell) in regions.iter().enumerate() {
            let frac = spec.region_component_fractions(region);
            for (lane, f) in lanes.iter_mut().zip(frac) {
                *lane += cell.joules * f;
            }
        }
        let rest_j = ledger.sku_rest_total(sku).joules;
        let conservation_err = if gpu_j > 0.0 {
            (lanes.iter().sum::<f64>() - gpu_j).abs() / gpu_j
        } else {
            0.0
        };
        total_gpu_mwh += gpu_j / JOULES_PER_MWH;
        total_rest_mwh += rest_j / JOULES_PER_MWH;
        rows.push(ComponentsRow {
            sku: sku as u8,
            name: spec.name,
            nodes: count,
            gpu_mwh: gpu_j / JOULES_PER_MWH,
            hbm_mwh: lanes[0] / JOULES_PER_MWH,
            l2_mwh: lanes[1] / JOULES_PER_MWH,
            alu_mwh: lanes[2] / JOULES_PER_MWH,
            clock_mwh: lanes[3] / JOULES_PER_MWH,
            rest_mwh: rest_j / JOULES_PER_MWH,
            conservation_err,
            sweet_spots: sweet_spots(&spec.engine, TUNER_MAX_SLOWDOWN).to_vec(),
        });
    }

    Ok(ComponentsArtifact {
        mix: mix_name,
        nodes,
        max_slowdown: TUNER_MAX_SLOWDOWN,
        best_free_pct: best.savings_dt0_pct,
        best_free_setting: best.setting,
        total_gpu_mwh,
        total_rest_mwh,
        rows,
    })
}

fn econ(p: &mut Pipeline) -> Result<EconArtifact, PmssError> {
    let active = p.spec.active_econ().cloned();
    let fleet = p.fleet_with::<()>(true)?.0;
    let series = fleet
        .econ
        .as_ref()
        .expect("the stage folds the series when asked")
        .scaled(fleet.frontier_factor)?;
    let flat = EconTrace::flat();
    let ref_cost_usd = series.cost_usd(&flat);
    let ref_carbon_t = series.carbon_kg(&flat) / 1e3;

    // The preset sweep, plus the active trace as `custom:<name>` when it
    // is not one of the presets verbatim.
    let mut traces: Vec<(String, EconTrace)> = EconTrace::preset_names()
        .iter()
        .map(|&n| {
            (
                n.to_string(),
                EconTrace::preset(n).expect("preset names resolve"),
            )
        })
        .collect();
    if let Some(t) = &active {
        if !traces.iter().any(|(_, preset)| preset == t) {
            traces.push((format!("custom:{}", t.name), t.clone()));
        }
    }
    let rows = traces
        .iter()
        .map(|(label, trace)| {
            let out = shift(&series, trace)?;
            Ok(EconTraceRow {
                trace: label.clone(),
                cost_usd: out.baseline_cost_usd,
                carbon_t: out.baseline_carbon_kg / 1e3,
                delta_cost_usd: out.baseline_cost_usd - ref_cost_usd,
                delta_carbon_t: out.baseline_carbon_kg / 1e3 - ref_carbon_t,
                shift_saving_usd: out.cost_saving_usd(),
                shift_saving_t: out.carbon_saving_kg() / 1e3,
                shift_edge_usd: out.edge_over_uniform_usd(),
                moved_mwh: out.moved_mwh,
            })
        })
        .collect::<Result<Vec<_>, PmssError>>()?;

    // Per-SKU lanes and the full shift detail are reported under the
    // focus trace: the spec's active trace when set, else `diurnal`.
    let (focus, focus_trace) = match &active {
        Some(t) => (t.name.clone(), t.clone()),
        None => (
            "diurnal".to_string(),
            EconTrace::preset("diurnal").expect("diurnal is a preset"),
        ),
    };
    let catalog = SkuCatalog::standard();
    let sku_rows = (0..series.num_skus().min(catalog.len()))
        .filter(|&sku| series.sku_gpu_j(sku) > 0.0)
        .map(|sku| EconSkuRow {
            sku: sku as u8,
            name: catalog.spec(sku as u8).name,
            gpu_mwh: series.sku_gpu_j(sku) / JOULES_PER_MWH,
            cost_usd: series.sku_cost_usd(sku, &focus_trace),
            carbon_t: series.sku_carbon_kg(sku, &focus_trace) / 1e3,
        })
        .collect();
    let out: ShiftOutcome = shift(&series, &focus_trace)?;
    let shift_detail = EconShiftDetail {
        deadline_slots: out.deadline_slots,
        budget_mw: out.budget_w / 1e6,
        moved_mwh: out.moved_mwh,
        moves: out.moves.len(),
        baseline_cost_usd: out.baseline_cost_usd,
        shifted_cost_usd: out.shifted_cost_usd,
        uniform_cost_usd: out.uniform_cost_usd,
        baseline_carbon_t: out.baseline_carbon_kg / 1e3,
        shifted_carbon_t: out.shifted_carbon_kg / 1e3,
    };

    Ok(EconArtifact {
        focus,
        slots: series.num_slots(),
        total_gpu_mwh: series.total_gpu_j() / JOULES_PER_MWH,
        total_rest_mwh: series.total_rest_j() / JOULES_PER_MWH,
        ref_cost_usd,
        ref_carbon_t,
        rows,
        sku_rows,
        shift: shift_detail,
    })
}
