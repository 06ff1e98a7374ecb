//! Empirical Roofline Tool (ERT) checks on the device model.
//!
//! The paper builds its VAI benchmark as an extension of the Empirical
//! Roofline Toolkit (Sec. III-B-a): ERT finds a machine's attainable
//! compute and bandwidth ceilings by running FMA micro-kernels over a grid
//! of unroll depths and working-set sizes and taking the best observed
//! rates.  These tests run that probe against the device model and check
//! that the empirical roofs match the analytic ones in `pmss_gpu::perf`.

#[cfg(test)]
mod tests {
    use pmss_gpu::consts::{GPU_HBM_BW, GPU_L2_BYTES, GPU_PEAK_FLOPS};
    use pmss_gpu::{Engine, Freq, GpuSettings, KernelProfile};

    use crate::vai::{VAI_BW_OVERSUB, VAI_FLOP_EFFICIENCY};

    const UNROLLS: [u64; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];
    const TRAFFIC: f64 = 64e9;

    /// Best observed rates at one frequency.
    struct EmpiricalRoofline {
        freq: Freq,
        peak_flops: f64,
        peak_hbm_bw: f64,
        peak_l2_bw: f64,
    }

    fn compute_probe(unroll: u64) -> KernelProfile {
        KernelProfile::builder(format!("ert-fma-u{unroll}"))
            .flops(TRAFFIC * (2.0 * unroll as f64) / 32.0)
            .hbm_bytes(TRAFFIC)
            .flop_efficiency(VAI_FLOP_EFFICIENCY)
            .bw_oversub(VAI_BW_OVERSUB)
            .build()
    }

    /// Cache-resident sets stress the on-die path, spilled sets stress HBM.
    fn bandwidth_probe(working_set: u64) -> KernelProfile {
        let hbm = if working_set <= GPU_L2_BYTES {
            working_set as f64
        } else {
            TRAFFIC
        };
        KernelProfile::builder(format!("ert-bw-{working_set}"))
            .ondie_bytes(TRAFFIC)
            .hbm_bytes(hbm)
            .flops(0.0)
            .bw_oversub(3.0)
            .build()
    }

    fn probe(freq: Freq) -> EmpiricalRoofline {
        let engine = Engine::default();
        let settings = GpuSettings::freq_capped(freq.mhz());
        let peak_flops = UNROLLS
            .iter()
            .map(|&u| engine.execute(&compute_probe(u), settings).perf.flops_per_s)
            .fold(0.0, f64::max);
        let (mut peak_hbm_bw, mut peak_l2_bw) = (0.0f64, 0.0f64);
        for ws in (0..12).map(|k| (512 * 1024u64) << k) {
            let perf = engine.execute(&bandwidth_probe(ws), settings).perf;
            if ws <= GPU_L2_BYTES {
                peak_l2_bw = peak_l2_bw.max(perf.ondie_bw);
            } else {
                peak_hbm_bw = peak_hbm_bw.max(perf.hbm_bw);
            }
        }
        EmpiricalRoofline {
            freq,
            peak_flops,
            peak_hbm_bw,
            peak_l2_bw,
        }
    }

    fn probe_ladder() -> Vec<EmpiricalRoofline> {
        [1700.0, 1500.0, 1300.0, 1100.0, 900.0, 700.0, 500.0]
            .iter()
            .map(|&mhz| probe(Freq::from_mhz(mhz)))
            .collect()
    }

    #[test]
    fn empirical_flop_peak_matches_vai_ceiling() {
        let r = probe(Freq::MAX);
        let expected = GPU_PEAK_FLOPS * VAI_FLOP_EFFICIENCY;
        assert!(
            (r.peak_flops / expected - 1.0).abs() < 0.02,
            "empirical {} vs analytic {}",
            r.peak_flops,
            expected
        );
    }

    #[test]
    fn empirical_bandwidth_matches_hbm_peak() {
        let r = probe(Freq::MAX);
        assert!((r.peak_hbm_bw / GPU_HBM_BW - 1.0).abs() < 0.05);
        assert!(r.peak_l2_bw > 2.0 * r.peak_hbm_bw, "L2 roof above HBM roof");
    }

    #[test]
    fn empirical_ridge_is_at_four() {
        let r = probe(Freq::MAX);
        let ridge = r.peak_flops / r.peak_hbm_bw;
        assert!((ridge - 4.0).abs() < 0.2, "ridge {ridge}");
    }

    #[test]
    fn ladder_probe_scales_compute_linearly() {
        let ladder = probe_ladder();
        let top = &ladder[0];
        let mid = ladder.iter().find(|r| r.freq.mhz() == 900.0).unwrap();
        let ratio = mid.peak_flops / top.peak_flops;
        assert!((ratio - 900.0 / 1700.0).abs() < 0.01, "ratio {ratio}");
        // HBM roof survives moderate capping (oversubscribed probe).
        assert!((mid.peak_hbm_bw / top.peak_hbm_bw - 1.0).abs() < 0.02);
    }

    #[test]
    fn l2_roof_scales_with_frequency() {
        let ladder = probe_ladder();
        let top = &ladder[0];
        let low = ladder.last().unwrap();
        let ratio = low.peak_l2_bw / top.peak_l2_bw;
        assert!((ratio - 500.0 / 1700.0).abs() < 0.02, "ratio {ratio}");
    }
}
