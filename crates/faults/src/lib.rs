//! # pmss-faults — deterministic fault injection for fleet telemetry
//!
//! Real Frontier out-of-band telemetry does not arrive as the clean stream
//! `pmss-telemetry` synthesizes: windows go missing, samples are delivered
//! twice or out of order, sensors glitch to NaN or spike, whole nodes drop
//! out of the collection fabric for minutes, and per-node clocks drift.
//! This crate describes such degradation as a typed, validated
//! [`FaultPlan`] and answers every injection question ("is window `w` of
//! slot `(node, slot)` dropped?") as a pure function of
//! `(plan.seed, node, slot, window)` — no RNG state is threaded through
//! the simulation, so decisions are identical regardless of worker count,
//! node iteration order, or how many streams are simulated in between.
//!
//! The decision primitive is a [splitmix64]-style avalanche hash mapped to
//! a `f64` in `[0, 1)` and compared against the plan's probability — the
//! same counter-based-RNG construction used by deterministic-replay fault
//! injectors.
//!
//! Consumers choose how missing windows are handled via [`GapPolicy`]:
//! excluded from the decomposition (with the lost seconds accounted),
//! interpolated from the last delivered value, or attributed to idle.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pmss_error::PmssError;

/// How decomposition consumers treat a telemetry window lost to faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapPolicy {
    /// Leave the gap out of the decomposition entirely; the lost seconds
    /// are tallied so savings projections can report coverage-adjusted
    /// bounds instead of silently treating missing time as observed.
    #[default]
    Exclude,
    /// Fill the gap with the last delivered sample of the same GPU slot
    /// (idle power before any sample was delivered) — sample-and-hold, the
    /// standard telemetry imputation.
    Interpolate,
    /// Bill the gap as unattributed idle time: the conservative reading
    /// when a silent node cannot be distinguished from an idle one.
    AttributeIdle,
}

impl GapPolicy {
    /// All policies.
    pub fn all() -> [GapPolicy; 3] {
        [
            GapPolicy::Exclude,
            GapPolicy::Interpolate,
            GapPolicy::AttributeIdle,
        ]
    }

    /// Canonical name (`exclude` | `interpolate` | `attribute-idle`).
    pub fn name(self) -> &'static str {
        match self {
            GapPolicy::Exclude => "exclude",
            GapPolicy::Interpolate => "interpolate",
            GapPolicy::AttributeIdle => "attribute-idle",
        }
    }

    /// Parses a canonical policy name.
    pub fn from_name(name: &str) -> Result<GapPolicy, PmssError> {
        GapPolicy::all()
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                PmssError::invalid_value(
                    "gap policy",
                    name,
                    "exclude | interpolate | attribute-idle",
                )
            })
    }
}

/// A seeded, fully deterministic description of telemetry degradation.
///
/// All probabilities are per 15-second window sample in `[0, 1]`; a plan
/// where every probability is zero and every magnitude is zero injects
/// nothing ([`FaultPlan::is_noop`]) and consumers must produce bit-identical
/// output to a run without any plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault-decision seed, independent of the simulation seed.
    pub seed: u64,
    /// Probability that a GPU window sample is dropped in transit.
    pub drop_prob: f64,
    /// Probability that a delivered GPU sample arrives twice.
    pub dup_prob: f64,
    /// Bounded reorder-buffer depth, in samples: each delivered sample may
    /// arrive up to this many positions late relative to its neighbours
    /// (0 = in-order delivery).
    pub reorder_depth: u32,
    /// Probability that a delivered sample reads NaN (sensor glitch).
    pub nan_prob: f64,
    /// Probability that a delivered sample spikes by [`Self::spike_w`].
    pub spike_prob: f64,
    /// Additive spike magnitude, watts.
    pub spike_w: f64,
    /// Probability that a whole node drops out for a dropout interval
    /// (decided once per interval, suppressing every GPU and rest-of-node
    /// sample of the node for its duration).
    pub dropout_prob: f64,
    /// Dropout-interval length, in windows.
    pub dropout_windows: u32,
    /// Maximum per-node clock skew, seconds; each node's sample timestamps
    /// shift by a deterministic offset in `[-max, +max]`.
    pub clock_skew_max_s: f64,
    /// How consumers treat windows lost to drops and dropouts.
    pub gap_policy: GapPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Named severity presets accepted anywhere a plan is (`--faults NAME`).
pub const PRESETS: [&str; 4] = ["none", "mild", "frontier-typical", "harsh"];

/// The deepest reorder buffer [`FaultPlan::validate`] accepts: no sample
/// of a valid plan is delivered more than this many ranks after its
/// window, which is what lets consumers store the lag in a narrow column.
pub const MAX_REORDER_DEPTH: u32 = 4096;

/// The largest spike, either sign, that [`FaultPlan::validate`]
/// accepts: past a GPU package's whole power range, in watts (`mild`
/// spikes 150 W, `harsh` 400 W).
const MAX_SPIKE_W: f64 = 1000.0;

/// The most a plan's spikes may take, on average, from each delivered
/// sample, in watts: `spike_w × spike_prob` must be at least its negative.
/// A spike is a sensor excursion on top of what the device draws, and the
/// least a powered GPU draws is its idle floor, 88 W (paper Sec. V-A).
/// Spikes that take at most half of that leave even a wholly idle fleet
/// with half its energy; a plan that takes more can cancel the energy the
/// spikes ride on, and the decomposition then sums to nothing or less.
const MAX_MEAN_SPIKE_LOSS_W: f64 = 44.0;

/// The largest per-node clock skew [`FaultPlan::validate`] accepts, in
/// seconds: an hour, far past any fabric's drift (`frontier-typical`
/// skews 2 s, `harsh` 10 s).  Consumers size time-indexed state from
/// skewed timestamps, so an unbounded skew is an unbounded allocation.
const MAX_CLOCK_SKEW_S: f64 = 3600.0;

impl FaultPlan {
    /// The empty plan: injects nothing, output must stay bit-identical.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_depth: 0,
            nan_prob: 0.0,
            spike_prob: 0.0,
            spike_w: 0.0,
            dropout_prob: 0.0,
            dropout_windows: 0,
            clock_skew_max_s: 0.0,
            gap_policy: GapPolicy::Exclude,
        }
    }

    /// A named severity preset.
    ///
    /// * `none` — the empty plan;
    /// * `mild` — sparse drops and duplicates only;
    /// * `frontier-typical` — the loss profile out-of-band collection
    ///   fabrics see in deployment: ~1 % window loss, occasional
    ///   duplicates and glitches, rare multi-minute node dropouts, small
    ///   clock skew, shallow reordering;
    /// * `harsh` — an order of magnitude worse on every axis.
    pub fn preset(name: &str) -> Result<FaultPlan, PmssError> {
        let plan = match name {
            "none" => FaultPlan::none(),
            "mild" => FaultPlan {
                seed: 0xFA17,
                drop_prob: 0.002,
                dup_prob: 0.002,
                ..FaultPlan::none()
            },
            "frontier-typical" => FaultPlan {
                seed: 0xFA17,
                drop_prob: 0.01,
                dup_prob: 0.005,
                reorder_depth: 4,
                nan_prob: 0.001,
                spike_prob: 0.001,
                spike_w: 150.0,
                dropout_prob: 0.002,
                dropout_windows: 12,
                clock_skew_max_s: 2.0,
                gap_policy: GapPolicy::Exclude,
            },
            "harsh" => FaultPlan {
                seed: 0xFA17,
                drop_prob: 0.10,
                dup_prob: 0.05,
                reorder_depth: 16,
                nan_prob: 0.01,
                spike_prob: 0.01,
                spike_w: 400.0,
                dropout_prob: 0.01,
                dropout_windows: 40,
                clock_skew_max_s: 10.0,
                gap_policy: GapPolicy::Exclude,
            },
            other => {
                return Err(PmssError::invalid_value(
                    "fault preset",
                    other,
                    "none | mild | frontier-typical | harsh",
                ))
            }
        };
        Ok(plan)
    }

    /// True when the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_depth == 0
            && self.nan_prob == 0.0
            && self.spike_prob == 0.0
            && self.dropout_prob == 0.0
            && self.clock_skew_max_s == 0.0
    }

    /// Validates every field; returns the first violation.
    pub fn validate(&self) -> Result<(), PmssError> {
        fn prob(what: &'static str, p: f64) -> Result<(), PmssError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(PmssError::invalid_value(
                    what,
                    format!("{p}"),
                    "a probability in [0, 1]",
                ));
            }
            Ok(())
        }
        prob("faults.drop_prob", self.drop_prob)?;
        prob("faults.dup_prob", self.dup_prob)?;
        prob("faults.nan_prob", self.nan_prob)?;
        prob("faults.spike_prob", self.spike_prob)?;
        prob("faults.dropout_prob", self.dropout_prob)?;
        if !(-MAX_SPIKE_W..=MAX_SPIKE_W).contains(&self.spike_w) {
            return Err(PmssError::invalid_value(
                "faults.spike_w",
                format!("{:?}", self.spike_w),
                format!("a wattage in [-{MAX_SPIKE_W}, {MAX_SPIKE_W}]"),
            ));
        }
        let mean_spike_w = self.spike_w * self.spike_prob;
        if mean_spike_w < -MAX_MEAN_SPIKE_LOSS_W {
            return Err(PmssError::invalid_value(
                "faults.spike_w",
                format!("{:?}", self.spike_w),
                format!(
                    "a spike whose mean over delivered samples (spike_w × spike_prob = \
                     {mean_spike_w} W) is at least -{MAX_MEAN_SPIKE_LOSS_W} W, half a \
                     GPU's 88 W idle draw"
                ),
            ));
        }
        if !(0.0..=MAX_CLOCK_SKEW_S).contains(&self.clock_skew_max_s) {
            return Err(PmssError::invalid_value(
                "faults.clock_skew_max_s",
                format!("{:?}", self.clock_skew_max_s),
                format!("a number of seconds in [0, {MAX_CLOCK_SKEW_S}]"),
            ));
        }
        if self.dropout_prob > 0.0 && self.dropout_windows == 0 {
            return Err(PmssError::invalid_value(
                "faults.dropout_windows",
                "0",
                "at least 1 window when dropout_prob > 0",
            ));
        }
        if self.reorder_depth > MAX_REORDER_DEPTH {
            return Err(PmssError::invalid_value(
                "faults.reorder_depth",
                format!("{}", self.reorder_depth),
                format!("a reorder buffer of at most {MAX_REORDER_DEPTH} samples"),
            ));
        }
        Ok(())
    }

    // --- deterministic decision functions -------------------------------

    /// Whether the GPU sample of `(node, slot, window)` is dropped.
    pub fn drops(&self, node: u32, slot: u8, window: u64) -> bool {
        decide(self.seed, node, slot, window, salt::DROP) < self.drop_prob
    }

    /// Whether the delivered sample of `(node, slot, window)` arrives twice.
    #[cfg(test)]
    pub(crate) fn duplicates(&self, node: u32, slot: u8, window: u64) -> bool {
        decide(self.seed, node, slot, window, salt::DUP) < self.dup_prob
    }

    /// The sensor glitch applied to a delivered sample, if any.
    #[cfg(test)]
    pub(crate) fn glitch(&self, node: u32, slot: u8, window: u64) -> Option<Glitch> {
        if decide(self.seed, node, slot, window, salt::NAN) < self.nan_prob {
            return Some(Glitch::Nan);
        }
        if decide(self.seed, node, slot, window, salt::SPIKE) < self.spike_prob {
            return Some(Glitch::Spike(self.spike_w));
        }
        None
    }

    /// Whether the whole node is dropped out during `window`.  Dropouts are
    /// decided once per [`FaultPlan::dropout_windows`]-long interval, so a
    /// hit suppresses a contiguous stretch of node telemetry.  The
    /// per-window oracle for [`FaultPlan::fill_node_dropout`].
    #[cfg(test)]
    pub(crate) fn node_dropout(&self, node: u32, window: u64) -> bool {
        if self.dropout_prob == 0.0 || self.dropout_windows == 0 {
            return false;
        }
        let interval = window / self.dropout_windows as u64;
        decide(self.seed, node, u8::MAX, interval, salt::DROPOUT) < self.dropout_prob
    }

    /// The node's deterministic clock-skew offset, seconds in `[-max, max]`.
    pub fn clock_skew_s(&self, node: u32) -> f64 {
        if self.clock_skew_max_s == 0.0 {
            return 0.0;
        }
        let u = decide(self.seed, node, u8::MAX, 0, salt::SKEW);
        (2.0 * u - 1.0) * self.clock_skew_max_s
    }

    /// Delivery rank of the sample of `(node, slot, window)` under the
    /// bounded reorder buffer: the sample is delivered as if its position
    /// were `window + lag` with `lag` uniform in `[0, reorder_depth]`.
    /// Sorting by `(delivery_rank, window)` yields a permutation in which
    /// no sample moves more than `reorder_depth` positions — the bounded
    /// out-of-order delivery real aggregation fabrics exhibit.
    #[cfg(test)]
    pub(crate) fn delivery_rank(&self, node: u32, slot: u8, window: u64) -> u64 {
        if self.reorder_depth == 0 {
            return window;
        }
        let lag =
            hash(self.seed, node, slot, window, salt::REORDER) % (self.reorder_depth as u64 + 1);
        window + lag
    }

    // --- columnar (per-block) decision filling --------------------------

    /// Fills `out` with whether the whole node is dropped out during each
    /// window in `windows`.  Dropouts are decided once per
    /// [`FaultPlan::dropout_windows`]-long interval, and that answer is
    /// replicated across the interval's run instead of re-hashed per
    /// window.
    pub fn fill_node_dropout(&self, node: u32, windows: std::ops::Range<u64>, out: &mut Vec<bool>) {
        let n = usize::try_from(windows.end - windows.start).expect("window range fits memory");
        out.clear();
        out.resize(n, false);
        if self.dropout_prob == 0.0 || self.dropout_windows == 0 {
            return;
        }
        let dw = self.dropout_windows as u64;
        let mut w = windows.start;
        let mut i = 0usize;
        while i < n {
            let interval = w / dw;
            let hit = decide(self.seed, node, u8::MAX, interval, salt::DROPOUT) < self.dropout_prob;
            let run_end = (interval + 1) * dw;
            let run = usize::try_from(run_end - w)
                .unwrap_or(usize::MAX)
                .min(n - i);
            if hit {
                out[i..i + run].fill(true);
            }
            i += run;
            w += run as u64;
        }
    }

    /// Fills `lane` with every per-window decision of channel
    /// `(node, slot)` over `windows`: lost (dropout or drop), duplicated,
    /// glitch, and delivery rank — one tight loop per decision column,
    /// each skipped outright when its probability is zero.  Every answer
    /// is bit-identical to the corresponding scalar decision function
    /// (same counter hashes, same comparisons), just batched.
    pub fn fill_lane(
        &self,
        node: u32,
        slot: u8,
        windows: std::ops::Range<u64>,
        lane: &mut FaultLane,
    ) {
        let start = windows.start;
        let n = usize::try_from(windows.end - start).expect("window range fits memory");
        self.fill_node_dropout(node, windows.clone(), &mut lane.lost);
        if self.drop_prob > 0.0 {
            for (i, l) in lane.lost.iter_mut().enumerate() {
                *l |= decide(self.seed, node, slot, start + i as u64, salt::DROP) < self.drop_prob;
            }
        }
        lane.dup.clear();
        lane.dup.resize(n, false);
        if self.dup_prob > 0.0 {
            for (i, d) in lane.dup.iter_mut().enumerate() {
                *d = decide(self.seed, node, slot, start + i as u64, salt::DUP) < self.dup_prob;
            }
        }
        lane.glitch.clear();
        lane.glitch.resize(n, None);
        if self.nan_prob > 0.0 {
            for (i, g) in lane.glitch.iter_mut().enumerate() {
                if decide(self.seed, node, slot, start + i as u64, salt::NAN) < self.nan_prob {
                    *g = Some(Glitch::Nan);
                }
            }
        }
        if self.spike_prob > 0.0 {
            for (i, g) in lane.glitch.iter_mut().enumerate() {
                if g.is_none()
                    && decide(self.seed, node, slot, start + i as u64, salt::SPIKE)
                        < self.spike_prob
                {
                    *g = Some(Glitch::Spike(self.spike_w));
                }
            }
        }
        lane.rank.clear();
        if self.reorder_depth == 0 {
            lane.rank.extend(start..start + n as u64);
        } else {
            let depth = self.reorder_depth as u64 + 1;
            lane.rank.extend((0..n as u64).map(|i| {
                let w = start + i;
                w + hash(self.seed, node, slot, w, salt::REORDER) % depth
            }));
        }
    }
}

/// A sensor glitch applied to one delivered sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Glitch {
    /// The sample reads NaN.
    Nan,
    /// The sample spikes additively by the given wattage.
    Spike(f64),
}

/// Columnar fault decisions for one channel over a contiguous window
/// range — the block-shaped view of the per-window decision functions.
///
/// [`FaultPlan::fill_lane`] computes each decision column in its own tight
/// loop (skipped entirely when its probability is zero, and with node
/// dropouts decided once per dropout *interval* instead of once per
/// window), using the exact same `(seed, node, slot, window)` counter
/// hashes as the scalar functions — so every answer is bit-identical to
/// calling [`FaultPlan::drops`] & co. per window, just without paying
/// four-to-six interleaved avalanche hashes and branches per window on the
/// generator's hot path.  The columns are read-only views, row `i`
/// answering for window `windows.start + i` of the filled range, so a
/// consumer scans them beside the rows of the same windows.  The buffers
/// are retained across fills, so one lane per worker serves every
/// channel.
#[derive(Debug, Clone, Default)]
pub struct FaultLane {
    /// Window lost (node dropout or individual drop).
    lost: Vec<bool>,
    /// Delivered sample arrives twice.
    dup: Vec<bool>,
    /// Sensor glitch of the delivered sample, if any.
    glitch: Vec<Option<Glitch>>,
    /// Delivery rank under the bounded reorder buffer.
    rank: Vec<u64>,
}

impl FaultLane {
    /// An empty lane (fill it with [`FaultPlan::fill_lane`]).
    pub fn new() -> FaultLane {
        FaultLane::default()
    }

    /// Per window: lost (a node dropout or [`FaultPlan::drops`]).
    #[inline]
    pub fn lost(&self) -> &[bool] {
        &self.lost
    }

    /// Per window: the delivered sample arrives twice.
    #[inline]
    pub fn duplicated(&self) -> &[bool] {
        &self.dup
    }

    /// Per window: the glitch applied to the delivered sample, if any.
    #[inline]
    pub fn glitches(&self) -> &[Option<Glitch>] {
        &self.glitch
    }

    /// Per window: delivery rank under the bounded reorder buffer.
    #[inline]
    pub fn ranks(&self) -> &[u64] {
        &self.rank
    }
}

/// Domain-separation salts: one per fault channel so e.g. drop and
/// duplicate decisions of the same window are independent.
mod salt {
    pub(crate) const DROP: u64 = 0xD20F;
    pub(crate) const DUP: u64 = 0xD0B1;
    pub const NAN: u64 = 0x0A17;
    pub(crate) const SPIKE: u64 = 0x5B1C;
    pub(crate) const DROPOUT: u64 = 0xD06A;
    pub(crate) const SKEW: u64 = 0x5CE3;
    pub(crate) const REORDER: u64 = 0x2E02;
}

/// splitmix64 avalanche: maps a counter to a well-mixed 64-bit value.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes one `(seed, node, slot, window, salt)` decision point.
fn hash(seed: u64, node: u32, slot: u8, window: u64, salt: u64) -> u64 {
    let key = seed ^ salt.rotate_left(17) ^ ((node as u64) << 40) ^ ((slot as u64) << 32);
    splitmix64(splitmix64(key) ^ window)
}

/// Maps a decision point to a uniform `f64` in `[0, 1)`.
fn decide(seed: u64, node: u32, slot: u8, window: u64, salt: u64) -> f64 {
    // 53 high bits -> exactly representable dyadic rational in [0, 1).
    (hash(seed, node, slot, window, salt) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_salted() {
        let plan = FaultPlan {
            drop_prob: 0.5,
            dup_prob: 0.5,
            ..FaultPlan::none()
        };
        for w in 0..100 {
            assert_eq!(plan.drops(3, 1, w), plan.drops(3, 1, w));
        }
        // Drop and duplicate channels disagree somewhere (independent
        // salts), and different (node, slot) streams disagree somewhere.
        assert!((0..200).any(|w| plan.drops(3, 1, w) != plan.duplicates(3, 1, w)));
        assert!((0..200).any(|w| plan.drops(3, 1, w) != plan.drops(4, 1, w)));
        assert!((0..200).any(|w| plan.drops(3, 1, w) != plan.drops(3, 2, w)));
    }

    #[test]
    fn decision_rates_track_probabilities() {
        let plan = FaultPlan {
            drop_prob: 0.1,
            ..FaultPlan::none()
        };
        let n = 20_000u64;
        let hits = (0..n).filter(|&w| plan.drops(0, 0, w)).count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "drop rate {rate}");
        // Zero probability never fires; one always does.
        let never = FaultPlan::none();
        assert!((0..1000).all(|w| !never.drops(0, 0, w)));
        let always = FaultPlan {
            drop_prob: 1.0,
            ..FaultPlan::none()
        };
        assert!((0..1000).all(|w| always.drops(0, 0, w)));
    }

    #[test]
    fn dropouts_cover_contiguous_intervals() {
        let plan = FaultPlan {
            dropout_prob: 0.05,
            dropout_windows: 10,
            ..FaultPlan::none()
        };
        // Within one interval the decision is constant.
        for node in 0..50u32 {
            for interval in 0..50u64 {
                let first = plan.node_dropout(node, interval * 10);
                for w in 0..10u64 {
                    assert_eq!(plan.node_dropout(node, interval * 10 + w), first);
                }
            }
        }
        // And some interval somewhere drops.
        assert!((0..50u32).any(|n| (0..500u64).any(|w| plan.node_dropout(n, w))));
    }

    #[test]
    fn clock_skew_is_bounded_and_per_node() {
        let plan = FaultPlan {
            clock_skew_max_s: 3.0,
            ..FaultPlan::none()
        };
        let skews: Vec<f64> = (0..100).map(|n| plan.clock_skew_s(n)).collect();
        assert!(skews.iter().all(|s| s.abs() <= 3.0));
        assert!(skews.iter().any(|s| *s != skews[0]), "all nodes identical");
        assert_eq!(FaultPlan::none().clock_skew_s(7), 0.0);
    }

    #[test]
    fn delivery_rank_respects_the_reorder_bound() {
        let plan = FaultPlan {
            reorder_depth: 5,
            ..FaultPlan::none()
        };
        let mut ranked: Vec<(u64, u64)> = (0..1000u64)
            .map(|w| (plan.delivery_rank(0, 0, w), w))
            .collect();
        ranked.sort();
        for (pos, &(_, w)) in ranked.iter().enumerate() {
            let moved = pos as i64 - w as i64;
            assert!(moved.abs() <= 5, "window {w} moved {moved} positions");
        }
        // Some sample actually moves.
        assert!(ranked
            .iter()
            .enumerate()
            .any(|(pos, &(_, w))| pos as u64 != w));
    }

    #[test]
    fn presets_parse_and_validate() {
        for name in PRESETS {
            let plan = FaultPlan::preset(name).unwrap();
            plan.validate().unwrap();
            assert_eq!(plan.is_noop(), name == "none", "{name}");
        }
        assert!(FaultPlan::preset("catastrophic").is_err());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut p = FaultPlan::none();
        p.drop_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.nan_prob = -0.1;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.spike_w = f64::INFINITY;
        assert!(p.validate().is_err());
        for w in [-1e308, -MAX_SPIKE_W - 1.0, MAX_SPIKE_W + 1.0, f64::NAN] {
            p.spike_w = w;
            assert!(p.validate().is_err(), "{w}");
        }
        for w in [-MAX_SPIKE_W, 0.0, MAX_SPIKE_W] {
            p.spike_w = w;
            assert!(p.validate().is_ok(), "{w}");
        }
        // Spikes that take more than the bound from the mean sample.
        for (w, prob, ok) in [
            (-1000.0, 1.0, false),
            (-1000.0, 0.045, false),
            (-1000.0, 0.044, true),
            (-44.0, 1.0, true),
            (-45.0, 1.0, false),
            (1000.0, 1.0, true),
        ] {
            p.spike_w = w;
            p.spike_prob = prob;
            assert_eq!(p.validate().is_ok(), ok, "{w} W at {prob}");
        }
        let mut p = FaultPlan::none();
        for s in [f64::NAN, -1.0, MAX_CLOCK_SKEW_S + 1.0, 1e300, f64::INFINITY] {
            p.clock_skew_max_s = s;
            assert!(p.validate().is_err(), "{s}");
        }
        for s in [0.0, 2.0, 10.0, 30.0, MAX_CLOCK_SKEW_S] {
            p.clock_skew_max_s = s;
            assert!(p.validate().is_ok(), "{s}");
        }
        let mut p = FaultPlan::none();
        p.dropout_prob = 0.1;
        p.dropout_windows = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn lane_decisions_match_scalar_decisions_exactly() {
        // The columnar fill must agree with the per-window decision
        // functions on every window, for plans exercising each column
        // alone and all together — including interval boundaries of the
        // dropout amortization and ranges not starting at window 0.
        let plans = [
            FaultPlan::preset("mild").unwrap(),
            FaultPlan::preset("frontier-typical").unwrap(),
            FaultPlan::preset("harsh").unwrap(),
            FaultPlan {
                seed: 99,
                dropout_prob: 0.3,
                dropout_windows: 7,
                ..FaultPlan::none()
            },
            FaultPlan {
                seed: 7,
                nan_prob: 0.4,
                spike_prob: 0.4,
                spike_w: 120.0,
                reorder_depth: 9,
                ..FaultPlan::none()
            },
            FaultPlan::none(),
        ];
        let mut lane = FaultLane::new();
        let mut dropout = Vec::new();
        for plan in &plans {
            for (node, slot, range) in [(0u32, 0u8, 0u64..500), (3, 4, 13..313), (17, 2, 95..96)] {
                plan.fill_lane(node, slot, range.clone(), &mut lane);
                let n = (range.end - range.start) as usize;
                assert_eq!(lane.lost().len(), n);
                assert_eq!(lane.duplicated().len(), n);
                assert_eq!(lane.glitches().len(), n);
                assert_eq!(lane.ranks().len(), n);
                plan.fill_node_dropout(node, range.clone(), &mut dropout);
                for w in range.clone() {
                    let i = (w - range.start) as usize;
                    assert_eq!(
                        lane.lost()[i],
                        plan.node_dropout(node, w) || plan.drops(node, slot, w),
                        "lost({node},{slot},{w})"
                    );
                    assert_eq!(dropout[i], plan.node_dropout(node, w));
                    assert_eq!(lane.duplicated()[i], plan.duplicates(node, slot, w));
                    assert_eq!(lane.glitches()[i], plan.glitch(node, slot, w));
                    assert_eq!(lane.ranks()[i], plan.delivery_rank(node, slot, w));
                }
            }
        }
    }

    #[test]
    fn gap_policy_names_round_trip() {
        for p in GapPolicy::all() {
            assert_eq!(GapPolicy::from_name(p.name()).unwrap(), p);
        }
        assert!(GapPolicy::from_name("drop").is_err());
    }
}
