//! The Variable Arithmetic Intensity (VAI) benchmark — paper Algorithm 1.
//!
//! The paper's VAI kernel traces the roofline: it reads three arrays,
//! performs `2 * LOOPSIZE` FMA operations per element, and writes one array
//! back, giving an arithmetic intensity of `2*LOOPSIZE / 32 bytes =
//! LOOPSIZE/16` FLOP/byte for `double` elements.  `LOOPSIZE = 0` degenerates
//! to a stream copy (`c[i] = b[i]`, AI = 0).
//!
//! Two implementations live here:
//!
//! * [`run_reference`] executes Algorithm 1 *for real* on the CPU (scaled
//!   down), validating the FLOP/byte bookkeeping against a closed form;
//! * [`kernel`] emits the [`KernelProfile`] the GPU model executes for the
//!   paper-scale sweeps (Figs. 4, 5 and Table III).

use pmss_gpu::KernelProfile;

/// Calibrated fraction of the hardware FLOP peak the VAI kernel reaches.
///
/// The kernel is a dependent FMA chain without packed math; the paper's
/// measured roofline ridge sits at AI = 4 FLOP/byte, i.e. an effective
/// compute peak of 4 x 3.2 TB/s = 12.8 TF — 26.8 % of the Table I peak.
pub(crate) const VAI_FLOP_EFFICIENCY: f64 = 0.268;

/// Memory-level-parallelism oversubscription of the VAI kernel: issue
/// limited, so deliverable bandwidth scales with the core clock (the
/// paper: "both memory and FLOPS-bound parts are affected by frequency
/// throttling similarly").
pub(crate) const VAI_BW_OVERSUB: f64 = 1.0;

/// Bytes touched per work-item per repeat: 3 reads + 1 write of `f64`.
pub(crate) const BYTES_PER_ITEM: f64 = 32.0;

/// Work-items of a paper-scale run.  The GPU model is scale-invariant (see
/// the `work_scaling_is_linear` property), so any size deep in its steady
/// state reproduces the figures; this one is the size every artifact uses.
pub(crate) const PAPER_WIS: u64 = 1 << 28;

/// Outer repeats of a paper-scale run.
pub(crate) const PAPER_REPEAT: u64 = 4;

/// Parameters of one VAI run (paper Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaiParams {
    /// Number of work-items (`globalWIs`).
    pub global_wis: u64,
    /// Outer repetitions (`REPEAT`), sized for >= 20 s steady state.
    pub repeat: u64,
    /// Unrolled FMA count (`LOOPSIZE`); `0` selects the stream-copy variant.
    pub loopsize: u64,
}

impl VaiParams {
    /// Parameters for a requested arithmetic intensity (FLOP/byte).
    ///
    /// `ai` must be `k/16` for integer `k` (the paper sweeps 1/16 … 1024 in
    /// powers of two) or `0.0` for the stream-copy variant.
    pub fn for_intensity(ai: f64, global_wis: u64, repeat: u64) -> Self {
        let loopsize = (ai * 16.0).round() as u64;
        assert!(
            ((loopsize as f64 / 16.0) - ai).abs() < 1e-12,
            "AI {ai} is not expressible as LOOPSIZE/16"
        );
        VaiParams {
            global_wis,
            repeat,
            loopsize,
        }
    }

    /// The paper-scale run at arithmetic intensity `ai` (Figs. 4, 5 and
    /// Table III).
    pub fn paper(ai: f64) -> Self {
        VaiParams::for_intensity(ai, PAPER_WIS, PAPER_REPEAT)
    }

    /// Arithmetic intensity in FLOP/byte.
    pub(crate) fn intensity(&self) -> f64 {
        self.loopsize as f64 / 16.0
    }

    /// Total useful FLOPs (2 ops per unrolled iteration).
    pub(crate) fn total_flops(&self) -> f64 {
        2.0 * self.loopsize as f64 * self.global_wis as f64 * self.repeat as f64
    }

    /// Total bytes moved (stream copy touches 16 B/item, the FMA variant
    /// 32 B/item).
    pub(crate) fn total_bytes(&self) -> f64 {
        let per_item = if self.loopsize == 0 {
            16.0
        } else {
            BYTES_PER_ITEM
        };
        per_item * self.global_wis as f64 * self.repeat as f64
    }
}

/// GPU-model kernel descriptor for a VAI run.
pub fn kernel(params: VaiParams) -> KernelProfile {
    KernelProfile::builder(format!("vai-ai{}", params.intensity()))
        .flops(params.total_flops().max(0.0))
        .hbm_bytes(params.total_bytes())
        .flop_efficiency(VAI_FLOP_EFFICIENCY)
        .bw_oversub(VAI_BW_OVERSUB)
        .build()
}

/// The arithmetic intensities swept in the paper (Fig. 5): stream copy plus
/// 1/16 … 1024 in powers of two.
pub fn intensity_sweep() -> Vec<f64> {
    let mut v = vec![0.0];
    v.extend((0..=14).map(|i| 2f64.powi(i - 4)));
    v
}

/// Result of executing Algorithm 1 for real on the CPU.
#[derive(Debug, Clone)]
pub struct VaiReference {
    /// Final contents of array `c`.
    pub c: Vec<f64>,
    /// FLOPs actually performed.
    pub flops: f64,
    /// Bytes actually moved through the arrays.
    pub bytes: f64,
}

/// Executes paper Algorithm 1 literally (CPU, scaled down): arrays `a`, `b`,
/// `c`; per repeat and element, 3 reads, `2*LOOPSIZE` FMA ops, 1 write.
pub fn run_reference(params: VaiParams) -> VaiReference {
    let n = params.global_wis as usize;
    let a = vec![1.3f64; n];
    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut c = vec![1.3f64; n];

    for _ in 0..params.repeat {
        for i in 0..n {
            let x = a[i]; // Read 1
            let y = b[i]; // Read 2
            let mut z = c[i]; // Read 3
            if params.loopsize == 0 {
                z = y; // stream copy variant: c[i] <- b[i]
            } else {
                for _ in 0..params.loopsize {
                    z = x.mul_add(y, z); // 2 ops
                }
            }
            c[i] = z; // Write 1
        }
    }

    VaiReference {
        c,
        flops: params.total_flops(),
        bytes: params.total_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_closed_form() {
        // After REPEAT repeats of LOOPSIZE fused z += 1.3*i starting from
        // c[i] = 1.3:  c[i] = 1.3 + REPEAT*LOOPSIZE*1.3*i.
        let p = VaiParams {
            global_wis: 64,
            repeat: 3,
            loopsize: 4,
        };
        let r = run_reference(p);
        for (i, &c) in r.c.iter().enumerate() {
            let expect = 1.3 + 3.0 * 4.0 * 1.3 * i as f64;
            assert!((c - expect).abs() < 1e-9, "i={i}: {c} vs {expect}");
        }
    }

    #[test]
    fn stream_copy_variant_copies_b() {
        let p = VaiParams {
            global_wis: 16,
            repeat: 2,
            loopsize: 0,
        };
        let r = run_reference(p);
        for (i, &c) in r.c.iter().enumerate() {
            assert_eq!(c, i as f64);
        }
        assert_eq!(r.flops, 0.0);
    }

    #[test]
    fn intensity_bookkeeping_is_consistent() {
        for ai in [0.0625, 0.5, 4.0, 64.0] {
            let p = VaiParams::for_intensity(ai, 1024, 5);
            assert_eq!(p.intensity(), ai);
            assert!((p.total_flops() / p.total_bytes() - ai).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_matches_paper_range() {
        let s = intensity_sweep();
        assert_eq!(s[0], 0.0);
        assert_eq!(s[1], 0.0625);
        assert_eq!(*s.last().unwrap(), 1024.0);
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn kernel_descriptor_carries_algorithm_accounting() {
        let p = VaiParams::for_intensity(4.0, 1 << 20, 10);
        let k = kernel(p);
        assert_eq!(k.flops, p.total_flops());
        assert_eq!(k.hbm_bytes, p.total_bytes());
        assert!((k.arithmetic_intensity() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not expressible")]
    fn rejects_inexpressible_intensity() {
        let _ = VaiParams::for_intensity(0.03, 16, 1);
    }
}
