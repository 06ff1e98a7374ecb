//! Device constants for the modeled MI250X-class GPU (paper Table I).
//!
//! The model operates at **GPU granularity** (one MI250X package = two
//! Graphics Compute Dies).  This matches the paper: per-GPU power is what
//! the Frontier out-of-band telemetry reports, the benchmark figures are
//! captured "for a single GPU, while running all tiles of an MI250X", and
//! the modal decomposition (Table IV) bins per-GPU samples.
//!
//! Where the paper's Table I has an obvious typo (HBM bandwidth listed as
//! "1.6 GB/s") we use the documented MI250X value (1.6 TB/s per GCD,
//! 3.2 TB/s per GPU).

/// Number of Graphics Compute Dies per MI250X package.
pub const GCDS_PER_GPU: usize = 2;

/// Number of MI250X packages per Frontier compute node.
pub const GPUS_PER_NODE: usize = 4;

/// Peak FP64 vector throughput of a single GCD at maximum frequency, in
/// FLOP/s (paper: 23.9 TFLOP/s per GCD).
pub const GCD_PEAK_FLOPS: f64 = 23.9e12;

/// Peak FP64 vector throughput of the whole GPU (two GCDs), in FLOP/s.
pub const GPU_PEAK_FLOPS: f64 = GCD_PEAK_FLOPS * GCDS_PER_GPU as f64;

/// Peak HBM2e bandwidth of a single GCD, in bytes/s.
pub const GCD_HBM_BW: f64 = 1.6e12;

/// Peak HBM2e bandwidth of the whole GPU, in bytes/s.
pub const GPU_HBM_BW: f64 = GCD_HBM_BW * GCDS_PER_GPU as f64;

/// Peak aggregate L2 bandwidth of the whole GPU at maximum frequency, in
/// bytes/s.  The L2 sits in the core clock domain, so unlike HBM its
/// deliverable bandwidth scales with frequency (paper Fig. 6, left column).
/// The 4x-HBM ratio keeps the on-die path non-binding for HBM streaming
/// even at the bottom of the DVFS range (Table III: the membench runtime is
/// frequency-insensitive down to 700 MHz).
pub(crate) const GPU_L2_BW: f64 = 4.0 * GPU_HBM_BW;

/// Effective L2 capacity seen by a GPU-wide benchmark, in bytes (paper
/// Sec. IV-B: "the size of the data is less than 16 MB (size of L2-cache)").
pub const GPU_L2_BYTES: u64 = 16 * 1024 * 1024;

/// HBM capacity per GCD, in bytes (64 GiB).
pub const GCD_HBM_BYTES: u64 = 64 * 1024 * 1024 * 1024;

/// Maximum (default) core clock, in MHz (paper: "GCD max frequency 1700 MHz").
pub const F_MAX_MHZ: f64 = 1700.0;

/// Minimum sustainable core clock, in MHz.
pub(crate) const F_MIN_MHZ: f64 = 500.0;

/// Thermal design power of the GPU package, in watts (paper: 560 W).  This
/// is also the boundary of the "boosted frequency" telemetry region.
pub const GPU_TDP_W: f64 = 560.0;

/// Sustained package power target enforced by the device's own firmware
/// power manager, in watts.  The paper observes a steady-state maximum of
/// 540 W ("the maximum power consumption of the GPU is 540 W"), reached only
/// near the roofline ridge; short boost excursions above it up to the TDP
/// and slightly beyond appear in the 15 s telemetry (Table IV region 4).
pub const GPU_PPT_W: f64 = 540.0;

/// Maximum transient (boost) package power, in watts.
pub(crate) const GPU_BOOST_W: f64 = 600.0;

/// Idle package power band, in watts (paper Sec. V-A: "the idle power of a
/// GPU is between 88 to 90 W").
pub const GPU_IDLE_W: f64 = 89.0;

/// Baseline node power outside the GPUs (CPU package idle, DIMMs, NIC,
/// fans/pumps share), in watts.  Only used for whole-node telemetry, which
/// the paper notes is dwarfed (<20 %) by GPU power on a busy node.
pub(crate) const NODE_REST_IDLE_W: f64 = 220.0;

/// Peak additional CPU package power under full load, in watts.
pub(crate) const NODE_CPU_DYN_W: f64 = 170.0;

/// Joules per megawatt-hour, for reporting in the paper's units.
pub const JOULES_PER_MWH: f64 = 3.6e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_sits_near_four_flops_per_byte() {
        // Paper Sec. IV-A: power peaks at AI = 4, the memory/compute ridge.
        let ridge = GPU_PEAK_FLOPS / GPU_HBM_BW;
        assert!((ridge - 14.9).abs() < 0.1, "ridge {ridge}");
        // NOTE: the *hardware* ridge (47.8 TF / 3.2 TB/s ~ 14.9) differs from
        // the paper's observed power peak at AI = 4; the power peak location
        // is reproduced by the power model (see power.rs tests), not by the
        // roofline ridge itself.
    }

    #[test]
    fn totals_scale_from_gcd() {
        assert_eq!(GPU_PEAK_FLOPS, 47.8e12);
        assert_eq!(GPU_HBM_BW, 3.2e12);
        assert_eq!(GCDS_PER_GPU * GPUS_PER_NODE, 8);
    }

    #[test]
    fn power_ordering_is_sane() {
        // Compile-time ordering guarantees (clippy flags runtime asserts
        // on constants, so enforce the invariant in const context).
        const _: () = assert!(GPU_IDLE_W < GPU_PPT_W);
        const _: () = assert!(GPU_PPT_W < GPU_TDP_W);
        const _: () = assert!(GPU_TDP_W < GPU_BOOST_W);
    }
}
