//! Operating-mode taxonomy (paper Table IV): the four power regions the
//! modal decomposition classifies every 15-second GPU sample into.
//!
//! | Region | Mode                          | Range (W)  |
//! |--------|-------------------------------|------------|
//! | 1      | Latency, network & I/O bound  | <= 200     |
//! | 2      | Memory intensive (M.I.)       | 200 – 420  |
//! | 3      | Compute intensive (C.I.)      | 420 – 560  |
//! | 4      | Boosted frequency             | >= 560     |
//!
//! The boundaries come from the benchmark characterization: memory-intensive
//! operations draw 200–420 W, compute-intensive kernels 420–560 W, and only
//! boost excursions exceed the 560 W TDP.

/// Boundary between the latency-bound and memory-intensive regions, W.
pub(crate) const LATENCY_MI_BOUND_W: f64 = 200.0;
/// Boundary between the memory- and compute-intensive regions, W.
pub(crate) const MI_CI_BOUND_W: f64 = 420.0;
/// Boundary between the compute-intensive and boosted regions, W (the TDP).
pub(crate) const CI_BOOST_BOUND_W: f64 = 560.0;

/// The four regions of operation (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Region 1: latency / network / I/O bound, <= 200 W.
    LatencyBound,
    /// Region 2: memory intensive, 200–420 W.
    MemoryIntensive,
    /// Region 3: compute intensive, 420–560 W.
    ComputeIntensive,
    /// Region 4: boosted frequency, >= 560 W.
    Boosted,
}

impl Region {
    /// All regions in Table IV order.
    pub fn all() -> [Region; 4] {
        [
            Region::LatencyBound,
            Region::MemoryIntensive,
            Region::ComputeIntensive,
            Region::Boosted,
        ]
    }

    /// Classifies one power sample.
    pub fn of_power(power_w: f64) -> Region {
        if power_w < LATENCY_MI_BOUND_W {
            Region::LatencyBound
        } else if power_w < MI_CI_BOUND_W {
            Region::MemoryIntensive
        } else if power_w < CI_BOOST_BOUND_W {
            Region::ComputeIntensive
        } else {
            Region::Boosted
        }
    }

    /// Branch-free dense region index of one *finite* power sample —
    /// `Region::of_power(power_w).index()` as three comparisons summed,
    /// which the compiler turns into flag arithmetic/SIMD lanes instead
    /// of a compare chain, the shape that wins on long power columns.
    ///
    /// Finite-only contract: a NaN input yields index 0 here (every
    /// comparison is false) but [`Region::of_power`] classifies NaN as
    /// `Boosted`, so callers must discard non-finite samples first — all
    /// region-accounting observers already do, because a NaN sample must
    /// not be classified at all.
    #[inline]
    pub fn bin_power(power_w: f64) -> usize {
        debug_assert!(
            power_w.is_finite(),
            "bin_power requires a finite sample (got {power_w})"
        );
        (power_w >= LATENCY_MI_BOUND_W) as usize
            + (power_w >= MI_CI_BOUND_W) as usize
            + (power_w >= CI_BOOST_BOUND_W) as usize
    }

    /// Power range `[lo, hi)` of the region, in watts (`hi` is infinite for
    /// the boosted region).
    pub fn range_w(self) -> (f64, f64) {
        match self {
            Region::LatencyBound => (0.0, LATENCY_MI_BOUND_W),
            Region::MemoryIntensive => (LATENCY_MI_BOUND_W, MI_CI_BOUND_W),
            Region::ComputeIntensive => (MI_CI_BOUND_W, CI_BOOST_BOUND_W),
            Region::Boosted => (CI_BOOST_BOUND_W, f64::INFINITY),
        }
    }

    /// Table IV label.
    pub fn label(self) -> &'static str {
        match self {
            Region::LatencyBound => "Latency, Network & I/O bound",
            Region::MemoryIntensive => "Memory intensive (M.I.)",
            Region::ComputeIntensive => "Compute intensive (C.I.)",
            Region::Boosted => "Boosted frequency",
        }
    }

    /// Dense index 0..4.
    pub fn index(self) -> usize {
        match self {
            Region::LatencyBound => 0,
            Region::MemoryIntensive => 1,
            Region::ComputeIntensive => 2,
            Region::Boosted => 3,
        }
    }

    /// True when the benchmark study found capping opportunities in this
    /// region (paper Sec. V-B: only the memory- and compute-intensive zones
    /// show savings; latency-bound jobs only slow down, and the boosted
    /// region was not characterized).
    pub fn cappable(self) -> bool {
        matches!(self, Region::MemoryIntensive | Region::ComputeIntensive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_table_iv_boundaries() {
        assert_eq!(Region::of_power(89.0), Region::LatencyBound);
        assert_eq!(Region::of_power(199.9), Region::LatencyBound);
        assert_eq!(Region::of_power(200.0), Region::MemoryIntensive);
        assert_eq!(Region::of_power(380.0), Region::MemoryIntensive);
        assert_eq!(Region::of_power(420.0), Region::ComputeIntensive);
        assert_eq!(Region::of_power(540.0), Region::ComputeIntensive);
        assert_eq!(Region::of_power(560.0), Region::Boosted);
        assert_eq!(Region::of_power(600.0), Region::Boosted);
    }

    #[test]
    fn ranges_tile_the_power_axis() {
        let mut prev_hi = 0.0;
        for r in Region::all() {
            let (lo, hi) = r.range_w();
            assert_eq!(lo, prev_hi);
            prev_hi = hi;
        }
        assert!(prev_hi.is_infinite());
    }

    #[test]
    fn only_mi_and_ci_are_cappable() {
        assert!(!Region::LatencyBound.cappable());
        assert!(Region::MemoryIntensive.cappable());
        assert!(Region::ComputeIntensive.cappable());
        assert!(!Region::Boosted.cappable());
    }

    #[test]
    fn bin_power_matches_of_power_on_finite_samples() {
        // Dense sweep across the axis plus the exact boundaries.
        let mut w = -50.0;
        while w < 700.0 {
            assert_eq!(Region::bin_power(w), Region::of_power(w).index(), "{w}");
            w += 0.37;
        }
        for b in [
            0.0,
            LATENCY_MI_BOUND_W,
            MI_CI_BOUND_W,
            CI_BOOST_BOUND_W,
            f64::MAX,
        ] {
            assert_eq!(Region::bin_power(b), Region::of_power(b).index(), "{b}");
        }
    }

    #[test]
    fn indices_are_dense() {
        for (i, r) in Region::all().iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
