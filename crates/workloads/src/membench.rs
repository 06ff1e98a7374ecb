//! GPU memory/L2-cache benchmark — the paper's modified `gpu-benches`
//! L2-cache sweep (Sec. III-B-b, Fig. 3, Fig. 6).
//!
//! The benchmark launches a kernel of 100,000 blocks x 1,024 threads; each
//! block repeatedly loads one memory chunk (`block_id % n_chunks`), so the
//! same chunks are streamed to many blocks, saturating whichever level of
//! the hierarchy the working set fits in.  The working set starts at 384 KB
//! and doubles; below the 16 MB L2 capacity the traffic is served on-die
//! (frequency-sensitive bandwidth), above it the traffic spills to HBM
//! (frequency-insensitive but power-hungry) — the knee in Fig. 6.

use pmss_gpu::consts::{GPU_HBM_BW, GPU_L2_BYTES};
use pmss_gpu::KernelProfile;

/// Thread-block geometry of the paper's kernel.
pub const BLOCKS: u64 = 100_000;
/// Threads per block.
pub const THREADS_PER_BLOCK: u64 = 1_024;

/// The benchmark keeps HBM at its sustainable rate across most of the DVFS
/// range: with 100 K blocks in flight the memory system is heavily
/// oversubscribed, which is why Table III's MB runtime column barely moves
/// between 1700 and 900 MHz.  The oversubscription runs out near the bottom
/// of the ladder, where runtime starts to regress (the paper's MB energy
/// column jumps at 700 MHz).
pub(crate) const MB_BW_OVERSUB: f64 = 2.0;

/// Working-set size at which the sustained bandwidth starts to decay, in
/// bytes.  Below this the streaming is page-friendly and reaches peak HBM
/// rate.
const SUSTAIN_KNEE_BYTES: f64 = 64.0 * 1024.0 * 1024.0;

/// Sustained-bandwidth floor for the largest working sets.
const SUSTAIN_FLOOR: f64 = 0.55;

/// Residual L2 hit fraction once the working set exceeds the cache: the
/// cyclic block-to-chunk assignment leaves a little reuse, decaying with
/// the over-capacity ratio.
const SPILL_REUSE: f64 = 0.3;

/// Seconds of traffic at peak HBM bandwidth in a paper-scale run.
pub(crate) const PAPER_SECONDS: f64 = 5.0;

/// One working-set size in the sweep.
#[derive(Debug, Clone, Copy)]
pub struct MembenchParams {
    /// Working-set (total chunk) size, in bytes.
    pub data_bytes: u64,
    /// Total bytes the kernel loads over the run (repeat traffic).
    pub traffic_bytes: f64,
}

impl MembenchParams {
    /// A run over `data_bytes` sized for roughly `seconds` of execution at
    /// peak HBM bandwidth.
    pub fn sized_for(data_bytes: u64, seconds: f64) -> Self {
        MembenchParams {
            data_bytes,
            traffic_bytes: seconds * GPU_HBM_BW,
        }
    }

    /// The paper-scale run over `data_bytes`: five seconds of traffic
    /// (Figs. 3, 6 and Table III).
    pub fn paper(data_bytes: u64) -> Self {
        MembenchParams::sized_for(data_bytes, PAPER_SECONDS)
    }

    /// Fraction of loads served by the L2 (1.0 when resident, decaying once
    /// the working set spills).
    pub fn l2_hit_fraction(&self) -> f64 {
        if self.data_bytes <= GPU_L2_BYTES {
            1.0
        } else {
            SPILL_REUSE * GPU_L2_BYTES as f64 / self.data_bytes as f64
        }
    }

    /// Sustained fraction of peak HBM bandwidth for this working-set size.
    ///
    /// Deliverable bandwidth decays once the working set dwarfs the page
    /// and row-buffer locality of the chunked access pattern (the paper's
    /// Fig. 6 shows both bandwidth and power varying with size beyond the
    /// L2 knee; the 140 W and 200 W cap curves sit at visibly different
    /// sustained powers).  This spread is what makes moderate *power* caps
    /// touch only the hottest sizes while a *frequency* cap cuts them all —
    /// the asymmetry behind the paper's "frequency capping provides maximum
    /// potential savings" conclusion.
    pub fn sustained_bw_fraction(&self) -> f64 {
        let d = self.data_bytes as f64;
        if d <= SUSTAIN_KNEE_BYTES {
            return 1.0;
        }
        // Log-linear decay from 1.0 at the knee to the floor at 4 GiB.
        let span = (4.0 * 1024.0 * 1024.0 * 1024.0f64 / SUSTAIN_KNEE_BYTES).ln();
        let x = ((d / SUSTAIN_KNEE_BYTES).ln() / span).min(1.0);
        1.0 - (1.0 - SUSTAIN_FLOOR) * x
    }
}

/// Chunk index served to a block, mirroring the paper's Fig. 3 addressing
/// (`chunk = block_id % n_chunks`).
pub fn chunk_for_block(block_id: u64, n_chunks: u64) -> u64 {
    block_id % n_chunks
}

/// GPU-model kernel descriptor for one working-set size.
pub fn kernel(params: MembenchParams) -> KernelProfile {
    let hit = params.l2_hit_fraction();
    let hbm = params.traffic_bytes * (1.0 - hit) + params.data_bytes as f64;
    KernelProfile::builder(format!("membench-{}KB", params.data_bytes / 1024))
        .ondie_bytes(params.traffic_bytes)
        .hbm_bytes(hbm.min(params.traffic_bytes))
        .bw_oversub(MB_BW_OVERSUB)
        .bw_sustain(params.sustained_bw_fraction())
        .flops(0.0)
        .build()
}

/// The paper's working-set sweep: 384 KB doubling to 3 GiB (past the 16 MB
/// L2 knee and deep into HBM residency).
pub fn size_sweep() -> Vec<u64> {
    (0..14).map(|k| (384 * 1024u64) << k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_gpu::{Bottleneck, Engine, GpuSettings};

    #[test]
    fn sweep_starts_at_384kb_and_crosses_l2() {
        let s = size_sweep();
        assert_eq!(s[0], 384 * 1024);
        assert!(s.iter().any(|&b| b < GPU_L2_BYTES));
        assert!(s.iter().any(|&b| b > GPU_L2_BYTES));
        assert!(*s.last().unwrap() >= (1 << 31));
    }

    #[test]
    fn chunk_assignment_is_cyclic() {
        assert_eq!(chunk_for_block(0, 7), 0);
        assert_eq!(chunk_for_block(9, 7), 2);
    }

    #[test]
    fn resident_set_hits_l2_completely() {
        let p = MembenchParams::paper(4 * 1024 * 1024);
        assert_eq!(p.l2_hit_fraction(), 1.0);
        let k = kernel(p);
        // Only compulsory traffic reaches HBM.
        assert!(k.hbm_bytes < 0.01 * k.ondie_bytes);
    }

    #[test]
    fn spilled_set_streams_from_hbm() {
        let p = MembenchParams::paper(1 << 30);
        assert!(p.l2_hit_fraction() < 0.01);
        let k = kernel(p);
        assert!(k.hbm_bytes > 0.98 * k.ondie_bytes);
    }

    #[test]
    fn l2_resident_runtime_is_frequency_sensitive() {
        // Paper Fig. 6: below the L2 capacity, lower frequency caps mean
        // lower bandwidth and longer runtime.
        let eng = Engine::default();
        let k = kernel(MembenchParams::paper(8 * 1024 * 1024));
        let hi = eng.execute(&k, GpuSettings::uncapped());
        let lo = eng.execute(&k, GpuSettings::freq_capped(900.0));
        assert_eq!(hi.bottleneck(), Bottleneck::OnDie);
        assert!(
            lo.time_s > 1.5 * hi.time_s,
            "{} vs {}",
            lo.time_s,
            hi.time_s
        );
    }

    #[test]
    fn hbm_resident_runtime_is_frequency_insensitive() {
        // Paper Fig. 6: beyond 16 MB, "increasing the frequency cap has no
        // effect on the performance".
        let eng = Engine::default();
        let k = kernel(MembenchParams::paper(1 << 30));
        let hi = eng.execute(&k, GpuSettings::uncapped());
        let lo = eng.execute(&k, GpuSettings::freq_capped(700.0));
        assert_eq!(hi.bottleneck(), Bottleneck::Hbm);
        assert!((lo.time_s / hi.time_s - 1.0).abs() < 0.02);
    }

    #[test]
    fn low_power_caps_are_breached_by_hbm_resident_sets() {
        // Paper Fig. 6d: 140 W and 200 W caps are breached once the data
        // comes from HBM.
        let eng = Engine::default();
        let k = kernel(MembenchParams::paper(1 << 30));
        for cap in [140.0, 200.0] {
            let ex = eng.execute(&k, GpuSettings::power_capped(cap));
            assert!(ex.cap_breached, "cap {cap} should be breached");
            assert!(ex.busy_power_w > cap);
        }
        // ... while the same caps hold for L2-resident sets at reduced speed.
        let k2 = kernel(MembenchParams::paper(4 * 1024 * 1024));
        let ex = eng.execute(&k2, GpuSettings::power_capped(200.0));
        assert!(!ex.cap_breached);
        assert!(ex.busy_power_w <= 200.0 + 1e-6);
    }

    #[test]
    fn hbm_power_cannot_be_shed_by_frequency() {
        // Fetching from HBM "costs additional power" (paper Sec. IV-B): the
        // HBM component sits outside the core voltage domain, so under a
        // frequency cap the HBM-resident run keeps drawing far more power
        // than the L2-resident one, whose power collapses with the clock.
        let eng = Engine::default();
        let settings = GpuSettings::freq_capped(900.0);
        let l2 = eng.execute(&kernel(MembenchParams::paper(8 * 1024 * 1024)), settings);
        let hbm = eng.execute(&kernel(MembenchParams::paper(1 << 30)), settings);
        assert!(
            hbm.busy_power_w > l2.busy_power_w + 50.0,
            "hbm {} vs l2 {}",
            hbm.busy_power_w,
            l2.busy_power_w
        );
        // And the frequency cap sheds proportionally less of the
        // HBM-resident run's power.
        let l2_base = eng.execute(
            &kernel(MembenchParams::paper(8 * 1024 * 1024)),
            GpuSettings::uncapped(),
        );
        let hbm_base = eng.execute(
            &kernel(MembenchParams::paper(1 << 30)),
            GpuSettings::uncapped(),
        );
        let l2_ratio = l2.busy_power_w / l2_base.busy_power_w;
        let hbm_ratio = hbm.busy_power_w / hbm_base.busy_power_w;
        assert!(hbm_ratio > l2_ratio + 0.1);
    }
}
