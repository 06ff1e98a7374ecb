//! The per-slot energy series: a [`FleetObserver`] that buckets fleet
//! energy into 15-minute accounting slots so it can be integrated
//! against an [`EconTrace`].
//!
//! Accumulation mirrors the energy ledger's operations exactly — samples
//! bill `power × window`, gap fills and rest-of-node bill `value ×
//! span` — but keyed by *when* the window happened instead of which
//! mode/domain it ran in.  Like every observer it is folded per channel,
//! its per-event operations depend only on the event itself, and its merge
//! is an elementwise add, so batch simulation, streaming ingest, and
//! compressed-resident replay all produce bit-identical series.

use pmss_columns::{ColumnBlock, FleetObserver, GapFill, SampleCtx, Tag};
use pmss_core::Region;
use pmss_error::PmssError;
use pmss_sched::Schedule;

use pmss_gpu::consts::JOULES_PER_MWH;

use crate::trace::{EconTrace, SLOT_S};

/// Number of power regions (matches `pmss_core::Region::all().len()`).
const N_REGIONS: usize = 4;

/// Ceiling on the slot index a timestamp may map to (~28 000 years of
/// 15-minute slots) — the checked-conversion guard that keeps a hostile
/// timestamp from driving an unbounded allocation.
const MAX_SLOT: f64 = 1e9;

/// Maps a window-center timestamp to its accounting slot.  Non-finite
/// and negative timestamps clamp to slot 0 and absurdly large ones to
/// [`MAX_SLOT`]; the cast happens only after both clamps, so no value
/// reaches an unchecked `as`.
fn slot_of(t_s: f64) -> usize {
    if !t_s.is_finite() || t_s <= 0.0 {
        return 0;
    }
    (t_s / SLOT_S).min(MAX_SLOT) as usize
}

/// Per-slot fleet energy lanes (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EconSeries {
    /// GPU joules per slot, split by power region.
    slot_gpu_j: Vec<[f64; N_REGIONS]>,
    /// Rest-of-node joules per slot.
    slot_rest_j: Vec<f64>,
    /// GPU joules per SKU per slot (all regions combined).
    sku_slot_j: Vec<Vec<f64>>,
    /// Telemetry window seconds; 0 (the `Default`) means the standard
    /// 15 s window, mirroring the ledger.
    window_s: f64,
}

impl EconSeries {
    fn window(&self) -> f64 {
        if self.window_s > 0.0 {
            self.window_s
        } else {
            15.0
        }
    }

    fn ensure_slot(&mut self, slot: usize) {
        if self.slot_gpu_j.len() <= slot {
            self.slot_gpu_j.resize(slot + 1, [0.0; N_REGIONS]);
            self.slot_rest_j.resize(slot + 1, 0.0);
        }
    }

    fn bill_gpu(&mut self, sku: u8, t_s: f64, power_w: f64, span_s: f64) {
        if !power_w.is_finite() || !span_s.is_finite() {
            return;
        }
        let slot = slot_of(t_s);
        let joules = power_w * span_s;
        self.ensure_slot(slot);
        // `power_w` is finite here, where `bin_power` equals
        // `of_power(..).index()`.
        self.slot_gpu_j[slot][Region::bin_power(power_w)] += joules;
        let sku = sku as usize;
        if self.sku_slot_j.len() <= sku {
            self.sku_slot_j.resize(sku + 1, Vec::new());
        }
        let lane = &mut self.sku_slot_j[sku];
        if lane.len() <= slot {
            lane.resize(slot + 1, 0.0);
        }
        lane[slot] += joules;
    }

    fn bill_rest(&mut self, t_s: f64, rest_w: f64, span_s: f64) {
        if !rest_w.is_finite() || !span_s.is_finite() {
            return;
        }
        let slot = slot_of(t_s);
        self.ensure_slot(slot);
        self.slot_rest_j[slot] += rest_w * span_s;
    }

    /// Number of accounting slots seen.
    pub fn num_slots(&self) -> usize {
        self.slot_gpu_j.len()
    }

    /// Number of SKU lanes seen.
    pub fn num_skus(&self) -> usize {
        self.sku_slot_j.len()
    }

    /// GPU joules of one slot across all regions.
    pub fn slot_gpu_j(&self, slot: usize) -> f64 {
        self.slot_gpu_j
            .get(slot)
            .map(|r| r.iter().sum())
            .unwrap_or(0.0)
    }

    /// GPU joules of one slot in one region.
    pub(crate) fn slot_region_j(&self, slot: usize, region: Region) -> f64 {
        self.slot_gpu_j
            .get(slot)
            .map(|r| r[region.index()])
            .unwrap_or(0.0)
    }

    /// Total GPU joules across all slots.
    pub fn total_gpu_j(&self) -> f64 {
        (0..self.num_slots()).map(|s| self.slot_gpu_j(s)).sum()
    }

    /// Total rest-of-node joules across all slots.
    pub fn total_rest_j(&self) -> f64 {
        self.slot_rest_j.iter().sum()
    }

    /// GPU joules of one SKU lane across all slots.
    pub fn sku_gpu_j(&self, sku: usize) -> f64 {
        self.sku_slot_j
            .get(sku)
            .map(|l| l.iter().sum())
            .unwrap_or(0.0)
    }

    /// Total GPU cost under `trace`, dollars: Σ slot-energy × slot-price
    /// (an identity, since a slot never straddles a price change).
    pub fn cost_usd(&self, trace: &EconTrace) -> f64 {
        (0..self.num_slots())
            .map(|s| self.slot_gpu_j(s) / JOULES_PER_MWH * trace.price_at_slot(s))
            .sum()
    }

    /// Total GPU carbon under `trace`, kilograms (MWh × gCO₂/kWh = kg).
    pub fn carbon_kg(&self, trace: &EconTrace) -> f64 {
        (0..self.num_slots())
            .map(|s| self.slot_gpu_j(s) / JOULES_PER_MWH * trace.carbon_at_slot(s))
            .sum()
    }

    /// One SKU lane's GPU cost under `trace`, dollars.
    pub fn sku_cost_usd(&self, sku: usize, trace: &EconTrace) -> f64 {
        self.sku_slot_j
            .get(sku)
            .map(|lane| {
                lane.iter()
                    .enumerate()
                    .map(|(s, j)| j / JOULES_PER_MWH * trace.price_at_slot(s))
                    .sum()
            })
            .unwrap_or(0.0)
    }

    /// One SKU lane's GPU carbon under `trace`, kilograms.
    pub fn sku_carbon_kg(&self, sku: usize, trace: &EconTrace) -> f64 {
        self.sku_slot_j
            .get(sku)
            .map(|lane| {
                lane.iter()
                    .enumerate()
                    .map(|(s, j)| j / JOULES_PER_MWH * trace.carbon_at_slot(s))
                    .sum()
            })
            .unwrap_or(0.0)
    }

    /// Scales every lane by `factor` (Frontier extrapolation).  Like the
    /// ledger's `scaled`, a non-finite or negative factor is a typed
    /// error rather than silent NaN/negative-energy poisoning.
    pub fn scaled(&self, factor: f64) -> Result<EconSeries, PmssError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(PmssError::invalid_value(
                "econ series scale factor",
                format!("{factor}"),
                "a finite, non-negative multiplier",
            ));
        }
        let mut out = self.clone();
        for regions in &mut out.slot_gpu_j {
            for j in regions.iter_mut() {
                *j *= factor;
            }
        }
        for j in &mut out.slot_rest_j {
            *j *= factor;
        }
        for lane in &mut out.sku_slot_j {
            for j in lane.iter_mut() {
                *j *= factor;
            }
        }
        Ok(out)
    }
}

impl FleetObserver for EconSeries {
    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, power_w: f64) {
        // Non-finite readings are discarded exactly like the ledger
        // does; the coverage accounting lives there, not here.
        if !power_w.is_finite() {
            return;
        }
        let w = self.window();
        self.bill_gpu(ctx.sku, t_s, power_w, w);
    }

    fn gpu_gap(&mut self, ctx: &SampleCtx<'_>, t_s: f64, span_s: f64, fill: GapFill) {
        match fill {
            GapFill::Excluded => {}
            GapFill::Interpolated(w) | GapFill::Idle(w) => self.bill_gpu(ctx.sku, t_s, w, span_s),
        }
    }

    fn node_sample(&mut self, _ctx: &SampleCtx<'_>, t_s: f64, span_s: f64, rest_w: f64) {
        self.bill_rest(t_s, rest_w, span_s);
    }

    // Columnar fold: the `gpu_sample`/`gpu_gap`/`node_sample` calls above,
    // row by row in stored order, without per-event dispatch.  Every row
    // reaches the same `bill_gpu`/`bill_rest` call with the same
    // arguments, so the fold is bit-identical to the default replay.
    fn fold_rows(
        &mut self,
        _schedule: &Schedule,
        block: &ColumnBlock,
        rows: std::ops::Range<usize>,
    ) {
        const SAMPLE: u8 = Tag::Sample as u8;
        const GAP_INTERPOLATED: u8 = Tag::GapInterpolated as u8;
        const GAP_IDLE: u8 = Tag::GapIdle as u8;
        const NODE_REST: u8 = Tag::NodeRest as u8;
        let w = self.window();
        let sku = block.sku();
        let tags = &block.tags()[rows.clone()];
        let values = &block.values()[rows.clone()];
        let times = &block.times()[rows.clone()];
        let spans = &block.spans()[rows];
        for (i, &tag) in tags.iter().enumerate() {
            let v = values[i];
            match tag {
                // Non-finite samples are discarded, as in `gpu_sample`.
                SAMPLE if v.is_finite() => self.bill_gpu(sku, times[i], v, w),
                GAP_INTERPOLATED | GAP_IDLE => self.bill_gpu(sku, times[i], v, spans[i]),
                NODE_REST => self.bill_rest(times[i], v, spans[i]),
                _ => {}
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.ensure_slot(other.num_slots().saturating_sub(1));
        for (s, regions) in other.slot_gpu_j.iter().enumerate() {
            for (a, b) in self.slot_gpu_j[s].iter_mut().zip(regions) {
                *a += b;
            }
        }
        for (s, j) in other.slot_rest_j.iter().enumerate() {
            self.slot_rest_j[s] += j;
        }
        if self.sku_slot_j.len() < other.sku_slot_j.len() {
            self.sku_slot_j.resize(other.sku_slot_j.len(), Vec::new());
        }
        for (sku, lane) in other.sku_slot_j.into_iter().enumerate() {
            let mine = &mut self.sku_slot_j[sku];
            if mine.len() < lane.len() {
                mine.resize(lane.len(), 0.0);
            }
            for (a, b) in mine.iter_mut().zip(lane) {
                *a += b;
            }
        }
        if self.window_s == 0.0 {
            self.window_s = other.window_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::REF_PRICE_USD_PER_MWH;

    fn ctx(sku: u8) -> SampleCtx<'static> {
        SampleCtx {
            node: 0,
            slot: 0,
            sku,
            job: None,
        }
    }

    #[test]
    fn samples_land_in_their_timestamp_slot() {
        let mut s = EconSeries::default();
        s.gpu_sample(&ctx(0), 7.5, 300.0); // slot 0
        s.gpu_sample(&ctx(0), 907.5, 300.0); // slot 1
        s.gpu_sample(&ctx(1), 1807.5, 480.0); // slot 2, second SKU
        assert_eq!(s.num_slots(), 3);
        assert_eq!(s.slot_gpu_j(0), 300.0 * 15.0);
        assert_eq!(s.slot_gpu_j(1), 300.0 * 15.0);
        assert_eq!(s.slot_gpu_j(2), 480.0 * 15.0);
        assert_eq!(s.slot_region_j(2, Region::ComputeIntensive), 480.0 * 15.0);
        assert_eq!(s.num_skus(), 2);
        assert_eq!(s.sku_gpu_j(0), 600.0 * 15.0);
        assert_eq!(s.sku_gpu_j(1), 480.0 * 15.0);
    }

    #[test]
    fn hostile_timestamps_clamp_instead_of_panicking_or_allocating() {
        let mut s = EconSeries::default();
        // Negative (clock skew at trace start) and non-finite clamp to
        // slot 0; an absurd timestamp clamps to the slot ceiling and is
        // billed there rather than driving an unbounded resize.
        s.gpu_sample(&ctx(0), -3.2, 100.0);
        s.gpu_sample(&ctx(0), f64::NAN, 100.0);
        assert_eq!(s.num_slots(), 1);
        assert_eq!(s.slot_gpu_j(0), 2.0 * 100.0 * 15.0);
        assert_eq!(slot_of(1e300), MAX_SLOT as usize);
        assert_eq!(slot_of(f64::INFINITY), 0);
    }

    #[test]
    fn non_finite_values_and_excluded_gaps_bill_nothing() {
        let mut s = EconSeries::default();
        s.gpu_sample(&ctx(0), 7.5, f64::NAN);
        s.gpu_gap(&ctx(0), 7.5, 15.0, GapFill::Excluded);
        s.node_sample(&ctx(0), 7.5, 15.0, f64::INFINITY);
        assert_eq!(s.num_slots(), 0);
        assert_eq!(s.total_gpu_j(), 0.0);
    }

    #[test]
    fn gap_fills_and_partial_tail_windows_bill_their_span() {
        let mut s = EconSeries::default();
        // A partial tail window: 7 s of rest-of-node at the campaign
        // edge bills 7 s, not a full window.
        s.node_sample(&ctx(0), 907.5, 7.0, 200.0);
        assert_eq!(s.slot_rest_j[1], 200.0 * 7.0);
        // Gap fills bill value × span, like the ledger.
        s.gpu_gap(&ctx(0), 7.5, 30.0, GapFill::Interpolated(250.0));
        s.gpu_gap(&ctx(0), 7.5, 15.0, GapFill::Idle(90.0));
        assert_eq!(s.slot_gpu_j(0), 250.0 * 30.0 + 90.0 * 15.0);
        // A zero-duration window bills zero energy and stays harmless.
        s.gpu_gap(&ctx(0), 7.5, 0.0, GapFill::Idle(90.0));
        s.node_sample(&ctx(0), 7.5, 0.0, 200.0);
        assert_eq!(s.slot_gpu_j(0), 250.0 * 30.0 + 90.0 * 15.0);
        assert_eq!(s.slot_rest_j[0], 0.0);
    }

    #[test]
    fn cost_integration_matches_the_hand_computed_sum() {
        let trace = EconTrace::preset("diurnal").unwrap();
        let mut s = EconSeries::default();
        s.gpu_sample(&ctx(0), 7.5, 300.0); // slot 0 → hour 0
        s.gpu_sample(&ctx(0), 4.0 * 900.0 + 7.5, 480.0); // slot 4 → hour 1
        let mwh0 = 300.0 * 15.0 / JOULES_PER_MWH;
        let mwh1 = 480.0 * 15.0 / JOULES_PER_MWH;
        let want = mwh0 * trace.price_at_slot(0) + mwh1 * trace.price_at_slot(4);
        assert!((s.cost_usd(&trace) - want).abs() < 1e-12);
        let flat = EconTrace::flat();
        assert!(
            (s.cost_usd(&flat) - (mwh0 + mwh1) * REF_PRICE_USD_PER_MWH).abs() < 1e-12,
            "flat trace prices every slot at the reference"
        );
    }

    #[test]
    fn merge_is_an_elementwise_add_across_ragged_lanes() {
        let mut a = EconSeries::default();
        a.gpu_sample(&ctx(0), 7.5, 300.0);
        let mut b = EconSeries::default();
        b.gpu_sample(&ctx(1), 1807.5, 480.0);
        b.node_sample(&ctx(1), 7.5, 15.0, 150.0);
        let mut merged = a.clone();
        merged.merge(b.clone());
        assert_eq!(merged.num_slots(), 3);
        assert_eq!(merged.slot_gpu_j(0), 300.0 * 15.0);
        assert_eq!(merged.slot_gpu_j(2), 480.0 * 15.0);
        assert_eq!(merged.slot_rest_j[0], 150.0 * 15.0);
        assert_eq!(merged.num_skus(), 2);
        assert_eq!(merged.sku_gpu_j(1), 480.0 * 15.0);
    }

    #[test]
    fn scaled_rejects_poisonous_factors_and_scales_linearly() {
        let mut s = EconSeries::default();
        s.gpu_sample(&ctx(0), 7.5, 300.0);
        s.node_sample(&ctx(0), 7.5, 15.0, 100.0);
        assert!(s.scaled(f64::NAN).is_err());
        assert!(s.scaled(f64::INFINITY).is_err());
        assert!(s.scaled(-1.0).is_err());
        let doubled = s.scaled(2.0).unwrap();
        assert_eq!(doubled.total_gpu_j(), 2.0 * s.total_gpu_j());
        assert_eq!(doubled.total_rest_j(), 2.0 * s.total_rest_j());
        assert_eq!(doubled.sku_gpu_j(0), 2.0 * s.sku_gpu_j(0));
    }

    #[test]
    fn region_constant_matches_the_core_vocabulary() {
        assert_eq!(N_REGIONS, Region::all().len());
    }
}
