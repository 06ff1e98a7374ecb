//! The governor's sensing observer: one channel's per-region energy.
//!
//! A [`ChannelAccum`] is the observer the stream replay maintains for the
//! governor.  The replay already keeps one partial per `(node, slot)`
//! channel, and the governor's whole job is per-channel mode
//! classification, so it reads each cut's channel partials directly
//! (`pmss_stream::CutParts::cut`) instead of merging them into a map.  Each accumulator keeps only what classification needs — GPU
//! seconds and joules per Table IV region — so snapshots stay cheap at
//! sync-window cadence.
//!
//! Sensing sees exactly what the collection fabric delivered: non-finite
//! (glitched) readings are discarded, excluded gaps contribute nothing,
//! and interpolated or idle-attributed gap fills are sensed at their fill
//! power — the governor's view degrades with the telemetry, which is the
//! point of measuring it under fault presets.

use pmss_core::Region;
use pmss_telemetry::{FleetObserver, GapFill, SampleCtx};

/// Telemetry window length assumed for samples, seconds (the fleet
/// simulation's default; gap events carry their own spans).
const WINDOW_S: f64 = 15.0;

/// One channel's accumulated per-region telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ChannelAccum {
    /// GPU seconds per Table IV region.
    pub region_s: [f64; 4],
    /// GPU joules per Table IV region.
    pub region_j: [f64; 4],
}

impl ChannelAccum {
    /// Total sensed energy, joules.
    pub(crate) fn total_j(&self) -> f64 {
        self.region_j.iter().sum()
    }

    /// The region holding the most sensed energy (ties break toward the
    /// lower-power region), or `None` when nothing was sensed.
    pub(crate) fn dominant_region(&self) -> Option<Region> {
        if self.total_j() <= 0.0 {
            return None;
        }
        let mut best = Region::LatencyBound;
        for r in Region::all() {
            if self.region_j[r.index()] > self.region_j[best.index()] {
                best = r;
            }
        }
        Some(best)
    }

    /// This accumulator minus `prev` (element-wise; sensing deltas between
    /// two snapshots of a monotone accumulation).
    pub(crate) fn minus(&self, prev: &ChannelAccum) -> ChannelAccum {
        let mut out = *self;
        for i in 0..4 {
            out.region_s[i] -= prev.region_s[i];
            out.region_j[i] -= prev.region_j[i];
        }
        out
    }

    fn record(&mut self, power_w: f64, span_s: f64) {
        let r = Region::of_power(power_w).index();
        self.region_s[r] += span_s;
        self.region_j[r] += power_w * span_s;
    }
}

impl FleetObserver for ChannelAccum {
    fn gpu_sample(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, power_w: f64) {
        // A non-finite reading cannot be classified into a region; the
        // governor simply does not sense that window.
        if power_w.is_finite() {
            self.record(power_w, WINDOW_S);
        }
    }

    fn gpu_gap(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, span_s: f64, fill: GapFill) {
        match fill {
            GapFill::Excluded => {}
            GapFill::Interpolated(w) | GapFill::Idle(w) => self.record(w, span_s),
        }
    }

    fn merge(&mut self, other: Self) {
        for i in 0..4 {
            self.region_s[i] += other.region_s[i];
            self.region_j[i] += other.region_j[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(node: u32, slot: u8) -> SampleCtx<'static> {
        SampleCtx {
            node,
            slot,
            sku: 0,
            job: None,
        }
    }

    #[test]
    fn samples_land_in_their_region_and_channel() {
        // The engine keeps one accumulator per channel; each senses only
        // what its own channel delivered.
        let (mut a, mut b) = (ChannelAccum::default(), ChannelAccum::default());
        a.gpu_sample(&ctx(0, 1), 0.0, 300.0); // MI
        a.gpu_sample(&ctx(0, 1), 15.0, 500.0); // CI
        b.gpu_sample(&ctx(2, 0), 0.0, 100.0); // latency
        b.gpu_sample(&ctx(2, 0), 15.0, f64::NAN); // discarded
        assert_eq!(a.region_s[Region::MemoryIntensive.index()], WINDOW_S);
        assert_eq!(
            a.region_j[Region::ComputeIntensive.index()],
            500.0 * WINDOW_S
        );
        assert_eq!(a.dominant_region(), Some(Region::ComputeIntensive));
        assert_eq!(b.total_j(), 100.0 * WINDOW_S);
        assert_eq!(ChannelAccum::default().dominant_region(), None);
    }

    #[test]
    fn gaps_follow_their_fill_policy() {
        let mut a = ChannelAccum::default();
        a.gpu_gap(&ctx(1, 0), 0.0, 30.0, GapFill::Excluded);
        assert_eq!(a, ChannelAccum::default());
        a.gpu_gap(&ctx(1, 0), 0.0, 30.0, GapFill::Interpolated(250.0));
        a.gpu_gap(&ctx(1, 0), 30.0, 15.0, GapFill::Idle(90.0));
        assert_eq!(a.region_s[Region::MemoryIntensive.index()], 30.0);
        assert_eq!(a.region_s[Region::LatencyBound.index()], 15.0);
    }

    #[test]
    fn merge_sums_by_channel_key() {
        // Merging two partials of one channel sums them region by region.
        let mut a = ChannelAccum::default();
        a.gpu_sample(&ctx(0, 0), 0.0, 300.0);
        let mut b = ChannelAccum::default();
        b.gpu_sample(&ctx(0, 0), 15.0, 300.0);
        b.gpu_sample(&ctx(0, 0), 30.0, 450.0);
        a.merge(b);
        assert_eq!(a.region_s[1], 2.0 * WINDOW_S);
        assert_eq!(a.region_s[2], WINDOW_S);
    }

    #[test]
    fn delta_between_snapshots_isolates_one_round() {
        let mut a = ChannelAccum::default();
        a.gpu_sample(&ctx(0, 0), 0.0, 300.0);
        let prev = a;
        a.gpu_sample(&ctx(0, 0), 15.0, 500.0);
        let d = a.minus(&prev);
        assert_eq!(d.region_j[Region::MemoryIntensive.index()], 0.0);
        assert_eq!(
            d.region_j[Region::ComputeIntensive.index()],
            500.0 * WINDOW_S
        );
    }
}
