//! The telemetry consumer trait and the sample/gap vocabulary it speaks.
//!
//! It lives below `pmss-telemetry` so that every layer consuming window
//! telemetry (batch observers, the streaming engine, governor sensing)
//! can depend on the seam without depending on the generator.

use pmss_sched::{Job, Schedule};

use crate::block::ColumnBlock;
use crate::events::apply_event;

/// Attribution context of one telemetry sample.
#[derive(Debug, Clone, Copy)]
pub struct SampleCtx<'a> {
    /// Node index.
    pub node: u32,
    /// GPU slot within the node (0–3).
    pub slot: u8,
    /// SKU index of the node's class in the active [`SkuCatalog`]
    /// (0 for homogeneous fleets).
    ///
    /// [`SkuCatalog`]: pmss_gpu::SkuCatalog
    pub sku: u8,
    /// Job occupying the node at the sample time, if any.
    pub job: Option<&'a Job>,
}

/// How one telemetry window lost to faults is presented to an observer —
/// the realized gap policy of the active fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GapFill {
    /// The window is excluded: no power value exists for it.  Observers
    /// that account coverage should tally the lost seconds.
    Excluded,
    /// The gap is filled by holding the last delivered value of the same
    /// GPU slot (watts); attribution of the original window is preserved.
    Interpolated(f64),
    /// The gap is billed as unattributed idle at the given wattage.
    Idle(f64),
}

/// Consumer of fleet telemetry.  Implementations accumulate whatever view
/// they need (histograms, energy ledgers, joined series); `merge` combines
/// partials (per channel, per shard, per run).  Every consumer folds one
/// fresh partial per telemetry channel and merges the partials in
/// canonical order (nodes ascending; GPU slots `0..4`, then
/// rest-of-node) — the one accumulation shape, which the batch run, the
/// streaming engine and resident replay share bit for bit.
pub trait FleetObserver: Send + Sized {
    /// Always `true`: every observer is folded per channel (kept for
    /// callers that still name it).
    const CHANNEL_GROUPED: bool = true;

    /// One GPU power sample (window mean), stamped at the window center.
    fn gpu_sample(&mut self, ctx: &SampleCtx<'_>, t_s: f64, power_w: f64);
    /// One telemetry window lost to injected faults, handled under the
    /// plan's gap policy.  The default forwards filled values to
    /// [`FleetObserver::gpu_sample`] and ignores excluded gaps, so
    /// observers without coverage accounting keep working unchanged;
    /// coverage-aware observers override this to tally per-mode seconds.
    fn gpu_gap(&mut self, ctx: &SampleCtx<'_>, t_s: f64, _span_s: f64, fill: GapFill) {
        match fill {
            GapFill::Excluded => {}
            GapFill::Interpolated(w) | GapFill::Idle(w) => self.gpu_sample(ctx, t_s, w),
        }
    }
    /// One rest-of-node (CPU package + board) power sample per window.
    /// `ctx.slot` is the rest channel ([`crate::REST_SLOT`]) and
    /// `ctx.job` is `None`; `span_s` is the seconds the window covers
    /// (shorter than the telemetry window for a partial tail window).
    fn node_sample(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, _span_s: f64, _rest_w: f64) {}
    /// Folds a contiguous row range of one channel block into this
    /// observer, in the block's stored order.  The default replays every
    /// row through [`apply_event`], so a fold is *definitionally* the same
    /// observer-call sequence as per-event iteration — the oracle the fold
    /// differentials compare against.  Every fleet observer overrides this
    /// with a fold over the block's columns that performs the identical
    /// floating-point operations in the identical order, just without
    /// per-event dispatch.  A row's operations depend only on the row, so
    /// folding `a..b` then `b..c` is folding `a..c`: the range form serves
    /// consumers that hold a block a tile at a time (resident replay) or
    /// release a prefix (the streaming engine's in-order runs).
    fn fold_rows(
        &mut self,
        schedule: &Schedule,
        block: &ColumnBlock,
        rows: std::ops::Range<usize>,
    ) {
        for i in rows {
            apply_event(self, schedule, &block.event(i));
        }
    }
    /// Folds one whole channel block: [`FleetObserver::fold_rows`] over
    /// every row.
    fn fold_block(&mut self, schedule: &Schedule, block: &ColumnBlock) {
        self.fold_rows(schedule, block, 0..block.len());
    }
    /// Folds another observer's state into this one.
    fn merge(&mut self, other: Self);
}

/// The observer that observes nothing: drives a block generator for the
/// blocks alone (`pmss_telemetry::fleet_window_blocks`, a trace capture
/// beside an already-folded stage) at no per-row cost.
impl FleetObserver for () {
    fn gpu_sample(&mut self, _ctx: &SampleCtx<'_>, _t_s: f64, _power_w: f64) {}
    fn fold_rows(&mut self, _: &Schedule, _: &ColumnBlock, _: std::ops::Range<usize>) {}
    fn merge(&mut self, _other: ()) {}
}
