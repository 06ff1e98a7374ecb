//! The governor's sensing observer: per-channel, per-region energy.
//!
//! A [`ChannelLedger`] is the observer the streaming engine maintains for
//! the governor.  Unlike the decomposition ledger it keeps every
//! `(node, slot)` channel separate, because the governor's whole job is
//! per-channel mode classification; and it keeps only what classification
//! needs — GPU seconds and joules per Table IV region — so snapshots stay
//! cheap at sync-window cadence.
//!
//! Sensing sees exactly what the collection fabric delivered: non-finite
//! (glitched) readings are discarded, excluded gaps contribute nothing,
//! and interpolated or idle-attributed gap fills are sensed at their fill
//! power — the governor's view degrades with the telemetry, which is the
//! point of measuring it under fault presets.

use std::collections::BTreeMap;

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
    pub fn minus(&self, prev: &ChannelAccum) -> ChannelAccum {
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

/// Per-channel region accounting of a telemetry stream — the observer the
/// governor snapshots at every sync window.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ChannelLedger {
    channels: BTreeMap<(u32, u8), ChannelAccum>,
}

impl ChannelLedger {
    /// All channels with sensed telemetry, keyed by `(node, slot)`.
    pub fn channels(&self) -> &BTreeMap<(u32, u8), ChannelAccum> {
        &self.channels
    }

    /// One channel's accumulator (zero when nothing was sensed).
    pub fn channel(&self, node: u32, slot: u8) -> ChannelAccum {
        self.channels
            .get(&(node, slot))
            .copied()
            .unwrap_or_default()
    }
}

impl FleetObserver for ChannelLedger {
    // Per-channel maps merge exactly (disjoint keys per partial), so the
    // batch and streamed accumulation shapes coincide.
    const CHANNEL_GROUPED: bool = true;

    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, _t_s: f64, power_w: f64) {
        // A non-finite reading cannot be classified into a region; the
        // governor simply does not sense that window.
        if !power_w.is_finite() {
            return;
        }
        self.channels
            .entry((ctx.node, ctx.slot))
            .or_default()
            .record(power_w, WINDOW_S);
    }

    fn gpu_gap(&mut self, ctx: &SampleCtx<'_>, _t_s: f64, span_s: f64, fill: GapFill) {
        match fill {
            GapFill::Excluded => {}
            GapFill::Interpolated(w) | GapFill::Idle(w) => {
                self.channels
                    .entry((ctx.node, ctx.slot))
                    .or_default()
                    .record(w, span_s);
            }
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, acc) in other.channels {
            let mine = self.channels.entry(key).or_default();
            for i in 0..4 {
                mine.region_s[i] += acc.region_s[i];
                mine.region_j[i] += acc.region_j[i];
            }
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
        let mut l = ChannelLedger::default();
        l.gpu_sample(&ctx(0, 1), 0.0, 300.0); // MI
        l.gpu_sample(&ctx(0, 1), 15.0, 500.0); // CI
        l.gpu_sample(&ctx(2, 0), 0.0, 100.0); // latency
        l.gpu_sample(&ctx(2, 0), 15.0, f64::NAN); // discarded
        let a = l.channel(0, 1);
        assert_eq!(a.region_s[Region::MemoryIntensive.index()], WINDOW_S);
        assert_eq!(
            a.region_j[Region::ComputeIntensive.index()],
            500.0 * WINDOW_S
        );
        assert_eq!(a.dominant_region(), Some(Region::ComputeIntensive));
        let b = l.channel(2, 0);
        assert_eq!(b.total_j(), 100.0 * WINDOW_S);
        assert_eq!(l.channel(9, 9).dominant_region(), None);
    }

    #[test]
    fn gaps_follow_their_fill_policy() {
        let mut l = ChannelLedger::default();
        l.gpu_gap(&ctx(1, 0), 0.0, 30.0, GapFill::Excluded);
        assert!(l.channels().is_empty());
        l.gpu_gap(&ctx(1, 0), 0.0, 30.0, GapFill::Interpolated(250.0));
        l.gpu_gap(&ctx(1, 0), 30.0, 15.0, GapFill::Idle(90.0));
        let a = l.channel(1, 0);
        assert_eq!(a.region_s[Region::MemoryIntensive.index()], 30.0);
        assert_eq!(a.region_s[Region::LatencyBound.index()], 15.0);
    }

    #[test]
    fn merge_sums_by_channel_key() {
        let mut a = ChannelLedger::default();
        a.gpu_sample(&ctx(0, 0), 0.0, 300.0);
        let mut b = ChannelLedger::default();
        b.gpu_sample(&ctx(0, 0), 15.0, 300.0);
        b.gpu_sample(&ctx(1, 0), 0.0, 450.0);
        a.merge(b);
        assert_eq!(a.channel(0, 0).region_s[1], 2.0 * WINDOW_S);
        assert_eq!(a.channels().len(), 2);
    }

    #[test]
    fn delta_between_snapshots_isolates_one_round() {
        let mut l = ChannelLedger::default();
        l.gpu_sample(&ctx(0, 0), 0.0, 300.0);
        let prev = l.channel(0, 0);
        l.gpu_sample(&ctx(0, 0), 15.0, 500.0);
        let d = l.channel(0, 0).minus(&prev);
        assert_eq!(d.region_j[Region::MemoryIntensive.index()], 0.0);
        assert_eq!(
            d.region_j[Region::ComputeIntensive.index()],
            500.0 * WINDOW_S
        );
    }
}
