//! Kernel descriptors: the workload abstraction executed on the GPU model.
//!
//! A [`KernelProfile`] summarizes a GPU workload by the quantities the
//! paper's methodology actually depends on — total FLOPs, bytes moved at
//! each level of the memory hierarchy, and a few efficiency parameters that
//! capture *how* the kernel exercises the machine (issue-limited vs.
//! latency-hiding memory access, SIMD divergence, serial/latency-bound and
//! stalled phases).  Everything else about the paper's benchmarks and fleet
//! workloads is expressed through these descriptors.

use pmss_error::PmssError;

/// Work description for one kernel (or one phase of an application).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Human-readable label carried into results and telemetry.
    pub name: String,
    /// Useful double-precision floating-point operations.
    pub flops: f64,
    /// Bytes transferred to/from HBM.
    pub hbm_bytes: f64,
    /// Bytes moved on-die (L2/LSU datapath traffic).  For a streaming kernel
    /// this equals `hbm_bytes`; for a cache-resident kernel it is the full
    /// reuse traffic while `hbm_bytes` only covers compulsory misses.
    pub ondie_bytes: f64,
    /// Fraction of the hardware's peak FLOP rate this kernel can reach when
    /// compute-bound, in `(0, 1]`.  The paper's VAI kernel (a dependent FMA
    /// chain without packed math) tops out well below the Table I peak --
    /// its observed roofline ridge sits at AI = 4 FLOP/byte rather than the
    /// hardware ridge near 15 (paper Fig. 4).
    pub flop_efficiency: f64,
    /// Memory-level-parallelism oversubscription.  Deliverable HBM bandwidth
    /// is `peak * min(bw_sustain, (f/f_max) * bw_oversub)`: a kernel with
    /// enough outstanding loads (`bw_oversub` > 1) keeps HBM at its
    /// sustainable rate even when the core clock is capped — the paper's
    /// L2/membench case (Table III, MB columns) — while an issue-limited
    /// kernel (`bw_oversub` ~ 1) loses bandwidth proportionally with
    /// frequency, the paper's VAI case.
    pub bw_oversub: f64,
    /// Fraction of peak HBM bandwidth this kernel can sustain regardless of
    /// frequency, in `(0, 1]`.  Irregular access patterns (graph kernels,
    /// strided reads) cap out below the STREAM rate even with abundant
    /// memory-level parallelism.
    pub bw_sustain: f64,
    /// Fraction of issued SIMD lanes that do no useful work, in `[0, 1)`.
    /// Irregular graph workloads on bounded-degree networks waste lanes to
    /// divergence; the wasted lanes still consume issue slots and power
    /// (paper Sec. IV-C).
    pub divergence: f64,
    /// Serial / latency-bound execution time at the maximum clock, in
    /// seconds.  Scales as `1/f`: capping frequency proportionally stretches
    /// it while power stays low — the paper's "latency, network & I/O bound"
    /// region where capping saves nothing (Table IV region 1).
    pub serial_at_fmax_s: f64,
    /// GPU-idle wait (network, file I/O, host) in seconds.  Unaffected by
    /// GPU frequency or power caps.
    pub stall_s: f64,
}

impl KernelProfile {
    /// Starts a builder with neutral defaults (fully efficient, latency
    /// hiding, no divergence, no serial or stalled phases).
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            profile: KernelProfile {
                name: name.into(),
                flops: 0.0,
                hbm_bytes: 0.0,
                ondie_bytes: 0.0,
                flop_efficiency: 1.0,
                bw_oversub: 2.0,
                bw_sustain: 1.0,
                divergence: 0.0,
                serial_at_fmax_s: 0.0,
                stall_s: 0.0,
            },
        }
    }

    /// Arithmetic intensity against HBM traffic, in FLOP/byte.
    ///
    /// Returns `f64::INFINITY` for compute-only kernels.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.hbm_bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.hbm_bytes
        }
    }

    /// FLOPs issued including divergence waste.
    pub(crate) fn issued_flops(&self) -> f64 {
        self.flops / (1.0 - self.divergence)
    }

    /// Scales all work (flops, bytes, serial and stall time) by `factor`,
    /// e.g. to repeat a kernel or to slice a fraction of it.
    pub fn scaled(&self, factor: f64) -> KernelProfile {
        KernelProfile {
            name: self.name.clone(),
            flops: self.flops * factor,
            hbm_bytes: self.hbm_bytes * factor,
            ondie_bytes: self.ondie_bytes * factor,
            serial_at_fmax_s: self.serial_at_fmax_s * factor,
            stall_s: self.stall_s * factor,
            ..*self
        }
    }

    /// Validates parameter ranges; the engine calls this before execution.
    pub(crate) fn validate(&self) -> Result<(), PmssError> {
        let invalid = |reason: String| PmssError::InvalidKernel {
            kernel: self.name.clone(),
            reason,
        };
        if !(self.flops >= 0.0 && self.hbm_bytes >= 0.0 && self.ondie_bytes >= 0.0) {
            return Err(invalid("negative work".into()));
        }
        if !(self.flop_efficiency > 0.0 && self.flop_efficiency <= 1.0) {
            return Err(invalid(format!(
                "flop_efficiency {} outside (0,1]",
                self.flop_efficiency
            )));
        }
        if self.bw_oversub.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(invalid("bw_oversub must be positive".into()));
        }
        if !(self.bw_sustain > 0.0 && self.bw_sustain <= 1.0) {
            return Err(invalid(format!(
                "bw_sustain {} outside (0,1]",
                self.bw_sustain
            )));
        }
        if !(0.0..1.0).contains(&self.divergence) {
            return Err(invalid(format!(
                "divergence {} outside [0,1)",
                self.divergence
            )));
        }
        if self.serial_at_fmax_s < 0.0 || self.stall_s < 0.0 {
            return Err(invalid("negative phase time".into()));
        }
        if self.flops == 0.0
            && self.hbm_bytes == 0.0
            && self.ondie_bytes == 0.0
            && self.serial_at_fmax_s == 0.0
            && self.stall_s == 0.0
        {
            return Err(invalid("empty kernel".into()));
        }
        Ok(())
    }
}

/// Fluent builder for [`KernelProfile`].
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    profile: KernelProfile,
}

impl KernelBuilder {
    /// Useful FLOPs performed by the kernel.
    pub fn flops(mut self, flops: f64) -> Self {
        self.profile.flops = flops;
        self
    }

    /// Bytes to/from HBM; on-die traffic defaults to the same volume unless
    /// [`Self::ondie_bytes`] is called afterwards.
    pub fn hbm_bytes(mut self, bytes: f64) -> Self {
        self.profile.hbm_bytes = bytes;
        if self.profile.ondie_bytes < bytes {
            self.profile.ondie_bytes = bytes;
        }
        self
    }

    /// On-die (L2/LSU) traffic in bytes.
    pub fn ondie_bytes(mut self, bytes: f64) -> Self {
        self.profile.ondie_bytes = bytes;
        self
    }

    /// Achievable fraction of peak FLOP rate, in `(0, 1]`.
    pub fn flop_efficiency(mut self, eff: f64) -> Self {
        self.profile.flop_efficiency = eff;
        self
    }

    /// Memory-level-parallelism oversubscription factor.
    pub fn bw_oversub(mut self, oversub: f64) -> Self {
        self.profile.bw_oversub = oversub;
        self
    }

    /// Sustainable fraction of peak HBM bandwidth, in `(0, 1]`.
    pub fn bw_sustain(mut self, sustain: f64) -> Self {
        self.profile.bw_sustain = sustain;
        self
    }

    /// Wasted-lane fraction from SIMD divergence, in `[0, 1)`.
    pub fn divergence(mut self, d: f64) -> Self {
        self.profile.divergence = d;
        self
    }

    /// Serial / latency-bound time at maximum clock, in seconds.
    pub fn serial_at_fmax(mut self, secs: f64) -> Self {
        self.profile.serial_at_fmax_s = secs;
        self
    }

    /// GPU-idle stall time (I/O, network, host), in seconds.
    pub fn stall(mut self, secs: f64) -> Self {
        self.profile.stall_s = secs;
        self
    }

    /// Finalizes the profile, panicking on invalid parameters.
    pub fn build(self) -> KernelProfile {
        self.profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid kernel profile: {e}"));
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> KernelProfile {
        KernelProfile::builder("k")
            .flops(1e12)
            .hbm_bytes(1e11)
            .build()
    }

    #[test]
    fn builder_defaults_ondie_to_hbm_traffic() {
        let k = simple();
        assert_eq!(k.ondie_bytes, 1e11);
        assert_eq!(k.arithmetic_intensity(), 10.0);
    }

    #[test]
    fn compute_only_kernel_has_infinite_ai() {
        let k = KernelProfile::builder("c").flops(1e12).build();
        assert!(k.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn scaling_scales_work_linearly() {
        let k = simple().scaled(2.5);
        assert_eq!(k.flops, 2.5e12);
        assert_eq!(k.hbm_bytes, 2.5e11);
        assert_eq!(k.ondie_bytes, 2.5e11);
    }

    #[test]
    fn divergence_inflates_issued_flops() {
        let k = KernelProfile::builder("d")
            .flops(1e12)
            .hbm_bytes(1e10)
            .divergence(0.5)
            .build();
        assert_eq!(k.issued_flops(), 2e12);
    }

    #[test]
    #[should_panic(expected = "empty kernel")]
    fn empty_kernel_rejected() {
        let _ = KernelProfile::builder("nothing").build();
    }

    #[test]
    fn validate_catches_bad_efficiency() {
        let mut k = simple();
        k.flop_efficiency = 0.0;
        assert!(k.validate().is_err());
        k.flop_efficiency = 1.5;
        assert!(k.validate().is_err());
    }
}
