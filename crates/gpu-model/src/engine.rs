//! Execution engine: combines the roofline performance model, the power
//! model, and the cap controller into a single steady-state execution
//! estimate — the model analog of "run the benchmark and read runtime and
//! sustained power".
//!
//! Like the paper's measurements, the engine reports *steady-state* power:
//! boost excursions above the sustained firmware limit are a telemetry-side
//! phenomenon (see [`crate::boost`] and [`crate::trace`]) and do not affect
//! time-to-solution here.

use crate::cap::{solve_freq_for_cap, CapOutcome};
use crate::consts::GPU_PPT_W;
use crate::freq::Freq;
use crate::kernel::KernelProfile;
use crate::perf::{self, Bottleneck, PerfEstimate};
use crate::power::{PowerBreakdown, PowerModel, Utilization};
use pmss_error::PmssError;

/// Software power-management settings applied to a GPU, i.e. the paper's
/// two knobs: a DVFS frequency cap and a package power cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSettings {
    /// Maximum allowed core clock.
    pub freq_cap: Freq,
    /// Software package power cap, in watts; `None` leaves only the firmware
    /// sustained limit in force.
    pub power_cap_w: Option<f64>,
}

impl Default for GpuSettings {
    fn default() -> Self {
        GpuSettings {
            freq_cap: Freq::MAX,
            power_cap_w: None,
        }
    }
}

impl GpuSettings {
    /// Uncapped operation.
    pub fn uncapped() -> Self {
        Self::default()
    }

    /// Frequency cap at `mhz`, no power cap.
    pub fn freq_capped(mhz: f64) -> Self {
        GpuSettings {
            freq_cap: Freq::from_mhz(mhz),
            power_cap_w: None,
        }
    }

    /// Power cap at `watts`, frequency uncapped.
    pub fn power_capped(watts: f64) -> Self {
        GpuSettings {
            freq_cap: Freq::MAX,
            power_cap_w: Some(watts),
        }
    }

    /// The effective package power limit: the software cap if set, clamped
    /// from above by the firmware sustained limit.
    pub(crate) fn effective_limit_w(&self, ppt_w: f64) -> f64 {
        self.power_cap_w.map_or(ppt_w, |c| c.min(ppt_w))
    }
}

/// Utilization assumed during latency-bound serial phases: pipelines mostly
/// idle, a trickle of dependent instructions and memory traffic.  Yields
/// ~150 W at the maximum clock — inside the paper's region-1 band (< 200 W).
const SERIAL_UTIL: Utilization = Utilization {
    alu: 0.05,
    ondie: 0.03,
    hbm: 0.04,
    active: 1.0,
};

/// Completed (estimated) execution of one kernel.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Kernel label.
    pub kernel_name: String,
    /// Settings in force.
    pub settings: GpuSettings,
    /// Operating frequency chosen by the cap controller.
    pub freq: Freq,
    /// Total wall time, in seconds.
    pub time_s: f64,
    /// Total GPU package energy, in joules.
    pub energy_j: f64,
    /// Mean package power over the whole execution, in watts.
    pub avg_power_w: f64,
    /// Package power during the throughput-bound portion, in watts.
    pub busy_power_w: f64,
    /// Package power during latency-bound serial phases, in watts.
    pub serial_power_w: f64,
    /// Package power while stalled (GPU idle), in watts.
    pub idle_power_w: f64,
    /// Power breakdown during the throughput-bound portion.
    pub breakdown: PowerBreakdown,
    /// Performance detail at the operating point.
    pub perf: PerfEstimate,
    /// True when the power limit could not be met even at the frequency
    /// floor (observed power exceeds the cap, paper Fig. 6d).
    pub cap_breached: bool,
    /// True when the firmware sustained limit (not the software cap) is what
    /// throttled the kernel — only happens near the roofline ridge.
    pub ppt_throttled: bool,
    /// Demand evaluations spent by the two cap solves (throughput-bound and
    /// serial phases) that produced this execution; observability only.
    pub solver_iters: u32,
}

impl Execution {
    /// Dominant bottleneck shorthand.
    pub fn bottleneck(&self) -> Bottleneck {
        self.perf.bottleneck
    }
}

/// The execution engine: owns a calibrated power model and the firmware
/// sustained power limit.
#[derive(Debug, Clone)]
pub struct Engine {
    power: PowerModel,
    ppt_w: f64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            power: PowerModel::default(),
            ppt_w: GPU_PPT_W,
        }
    }
}

impl Engine {
    /// Engine with a custom power model and firmware limit.
    pub(crate) fn new(power: PowerModel, ppt_w: f64) -> Self {
        Engine { power, ppt_w }
    }

    /// The calibrated power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The firmware sustained power limit, in watts.
    pub fn ppt_w(&self) -> f64 {
        self.ppt_w
    }

    /// Package power demand of `kernel`'s throughput phase at frequency `f`.
    pub(crate) fn busy_demand_w(&self, kernel: &KernelProfile, f: Freq) -> f64 {
        let est = perf::estimate(kernel, f);
        if est.roofline_s > 0.0 {
            self.power.demand_w(est.util, f)
        } else {
            self.power.demand_w(SERIAL_UTIL, f)
        }
    }

    /// Runs `kernel` under `settings`, returning the steady-state estimate.
    ///
    /// # Panics
    /// Panics if the kernel profile fails validation; use
    /// [`Engine::try_execute`] for a fallible variant.
    pub fn execute(&self, kernel: &KernelProfile, settings: GpuSettings) -> Execution {
        self.try_execute(kernel, settings)
            .unwrap_or_else(|e| panic!("invalid kernel profile: {e}"))
    }

    /// Fallible variant of [`Engine::execute`]: returns the validation
    /// error instead of panicking on a malformed kernel profile.
    pub fn try_execute(
        &self,
        kernel: &KernelProfile,
        settings: GpuSettings,
    ) -> Result<Execution, PmssError> {
        kernel.validate()?;

        let limit = settings.effective_limit_w(self.ppt_w);

        // The DVFS controller tracks phases: the throughput-bound portion
        // and the latency-bound serial portion throttle independently, each
        // to the highest frequency that satisfies the limit for *its* power
        // draw.  (A 140 W cap must also bind during a ~150 W serial phase.)
        let roof_outcome: CapOutcome =
            solve_freq_for_cap(limit, settings.freq_cap, |f| self.busy_demand_w(kernel, f));
        let serial_outcome: CapOutcome = solve_freq_for_cap(limit, settings.freq_cap, |f| {
            self.power.demand_w(SERIAL_UTIL, f)
        });

        let freq = roof_outcome.freq;
        let mut est = perf::estimate(kernel, freq);
        if kernel.serial_at_fmax_s > 0.0 {
            let serial_s = kernel.serial_at_fmax_s / serial_outcome.freq.ratio();
            est.time_s += serial_s - est.serial_s;
            est.serial_s = serial_s;
        }

        let breakdown = if est.roofline_s > 0.0 {
            self.power.demand(est.util, freq)
        } else {
            PowerBreakdown::default()
        };
        let busy_power_w = breakdown.total();
        let serial_power_w = self.power.demand_w(SERIAL_UTIL, serial_outcome.freq);
        let idle_power_w = self.power.demand_w(Utilization::idle(), freq);

        let energy_j = busy_power_w * est.roofline_s
            + serial_power_w * est.serial_s
            + idle_power_w * est.stall_s;
        let avg_power_w = if est.time_s > 0.0 {
            energy_j / est.time_s
        } else {
            idle_power_w
        };

        let cap_breached = (est.roofline_s > 0.0 && roof_outcome.breached)
            || (est.serial_s > 0.0 && serial_outcome.breached);

        // The firmware limit throttled (rather than the software cap) when
        // demand at the settings' frequency cap exceeds the PPT even though
        // the software cap alone would have allowed it.
        let unconstrained = self.busy_demand_w(kernel, settings.freq_cap);
        let ppt_throttled =
            unconstrained > self.ppt_w && settings.power_cap_w.is_none_or(|c| c >= self.ppt_w);

        Ok(Execution {
            kernel_name: kernel.name.clone(),
            settings,
            freq,
            time_s: est.time_s,
            energy_j,
            avg_power_w,
            busy_power_w: if est.roofline_s > 0.0 {
                busy_power_w
            } else {
                serial_power_w
            },
            serial_power_w,
            idle_power_w,
            breakdown,
            perf: est,
            cap_breached,
            ppt_throttled,
            solver_iters: roof_outcome.iters + serial_outcome.iters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{GPU_HBM_BW, GPU_TDP_W};

    fn vai(ai: f64) -> KernelProfile {
        let bytes = 64e9;
        KernelProfile::builder(format!("vai-{ai}"))
            .flops(ai * bytes)
            .hbm_bytes(bytes)
            .flop_efficiency(0.268)
            .bw_oversub(1.0)
            .build()
    }

    #[test]
    fn uncapped_streaming_matches_anchor() {
        let eng = Engine::default();
        let ex = eng.execute(&vai(1.0 / 16.0), GpuSettings::uncapped());
        assert!(
            (375.0..=392.0).contains(&ex.busy_power_w),
            "streaming power {}",
            ex.busy_power_w
        );
        assert!(!ex.cap_breached);
        assert!(!ex.ppt_throttled);
        // >90% of HBM peak, like the paper's ">90% performance" claim.
        assert!(ex.perf.hbm_bw > 0.9 * GPU_HBM_BW);
    }

    #[test]
    fn ridge_saturates_at_the_firmware_limit() {
        let eng = Engine::default();
        let ex = eng.execute(&vai(4.0), GpuSettings::uncapped());
        assert!(ex.ppt_throttled, "ridge must hit the PPT");
        assert!(
            (ex.busy_power_w - GPU_PPT_W).abs() < 2.0,
            "ridge power {} vs PPT",
            ex.busy_power_w
        );
        assert!(ex.busy_power_w < GPU_TDP_W);
    }

    #[test]
    fn power_peaks_at_the_ridge_across_intensities() {
        let eng = Engine::default();
        let power_at = |ai: f64| eng.execute(&vai(ai), GpuSettings::uncapped()).busy_power_w;
        let ridge = power_at(4.0);
        for ai in [1.0 / 16.0, 0.25, 1.0, 64.0, 1024.0] {
            assert!(power_at(ai) <= ridge + 1e-9, "ai {ai} exceeds ridge power");
        }
        // Compute-bound tail settles near 420 W (paper: "decreases to 420").
        let tail = power_at(1024.0);
        assert!((410.0..=430.0).contains(&tail), "tail {tail}");
    }

    #[test]
    fn frequency_cap_reduces_power_and_stretches_runtime() {
        let eng = Engine::default();
        let k = vai(1024.0);
        let base = eng.execute(&k, GpuSettings::uncapped());
        let capped = eng.execute(&k, GpuSettings::freq_capped(900.0));
        assert!(capped.busy_power_w < base.busy_power_w);
        assert!(capped.time_s > base.time_s);
        assert_eq!(capped.freq.mhz(), 900.0);
    }

    #[test]
    fn compute_bound_energy_is_u_shaped_in_frequency() {
        // Paper Fig. 5 / Table III: energy-to-solution improves at moderate
        // caps and regresses at 700 MHz (106.3 % average).
        let eng = Engine::default();
        let k = vai(1024.0);
        let e = |mhz: f64| eng.execute(&k, GpuSettings::freq_capped(mhz)).energy_j;
        let e1700 = e(1700.0);
        let e1300 = e(1300.0);
        let e700 = e(700.0);
        assert!(e1300 < e1700, "moderate cap saves energy");
        assert!(
            e700 > e1300,
            "deep cap regresses toward the idle-energy wall"
        );
    }

    #[test]
    fn power_cap_only_affects_kernels_that_exceed_it() {
        // Paper Sec. IV-A: "a power limit only affects codes surpassing the
        // limit, while a set frequency affects all".
        let eng = Engine::default();
        let mem = vai(1.0 / 16.0); // ~380 W uncapped
        let base = eng.execute(&mem, GpuSettings::uncapped());
        let capped_high = eng.execute(&mem, GpuSettings::power_capped(500.0));
        assert!((capped_high.time_s - base.time_s).abs() / base.time_s < 1e-9);
        let capped_low = eng.execute(&mem, GpuSettings::power_capped(300.0));
        assert!(capped_low.time_s > base.time_s);
        assert!(capped_low.busy_power_w <= 300.0 + 1e-6);
    }

    #[test]
    fn hbm_heavy_kernel_breaches_low_caps() {
        // Paper Fig. 6d: 140 W / 200 W caps are breached by HBM-resident
        // loads because HBM power cannot be shed by the core clock.
        let eng = Engine::default();
        let mb = KernelProfile::builder("mb-hbm")
            .hbm_bytes(64e9)
            .bw_oversub(3.0)
            .flops(1.0)
            .build();
        let ex = eng.execute(&mb, GpuSettings::power_capped(200.0));
        assert!(ex.cap_breached);
        assert!(ex.busy_power_w > 200.0);
        assert_eq!(ex.freq.mhz(), Freq::MIN.mhz());
    }

    #[test]
    fn energy_integrates_phases() {
        let eng = Engine::default();
        let k = KernelProfile::builder("phased")
            .flops(1e13)
            .hbm_bytes(1e11)
            .serial_at_fmax(2.0)
            .stall(3.0)
            .build();
        let ex = eng.execute(&k, GpuSettings::uncapped());
        assert!(ex.perf.stall_s == 3.0);
        assert!(ex.energy_j > 0.0);
        assert!((ex.avg_power_w * ex.time_s - ex.energy_j).abs() < 1e-6);
        // Average power must sit below the busy power because of the
        // low-power serial and stall phases.
        assert!(ex.avg_power_w < ex.busy_power_w);
    }

    #[test]
    fn stalled_kernel_draws_idle_power() {
        let eng = Engine::default();
        let k = KernelProfile::builder("io").stall(10.0).build();
        let ex = eng.execute(&k, GpuSettings::uncapped());
        assert!((ex.avg_power_w - 89.0).abs() < 1.0, "{}", ex.avg_power_w);
    }
}

#[cfg(test)]
mod combined_cap_tests {
    use super::*;
    use crate::kernel::KernelProfile;

    fn streaming() -> KernelProfile {
        KernelProfile::builder("s")
            .hbm_bytes(64e9)
            .flops(4e9)
            .bw_oversub(1.0)
            .build()
    }

    #[test]
    fn both_caps_together_bind_at_the_tighter_one() {
        let eng = Engine::default();
        let k = streaming();
        // Frequency cap that alone gives ~200 W, power cap far above it:
        // frequency binds.
        let both = GpuSettings {
            freq_cap: Freq::from_mhz(700.0),
            power_cap_w: Some(500.0),
        };
        let freq_only = eng.execute(&k, GpuSettings::freq_capped(700.0));
        let combined = eng.execute(&k, both);
        assert!((combined.time_s - freq_only.time_s).abs() < 1e-9);

        // Power cap tighter than what the frequency cap alone reaches:
        // power binds.
        let tight = GpuSettings {
            freq_cap: Freq::from_mhz(1500.0),
            power_cap_w: Some(200.0),
        };
        let ex = eng.execute(&k, tight);
        assert!(ex.busy_power_w <= 200.0 + 1e-6);
        assert!(ex.freq.mhz() < 1500.0);
    }

    #[test]
    fn effective_limit_combines_software_cap_and_ppt() {
        let s = GpuSettings::power_capped(900.0);
        // A software cap above the firmware limit is clamped by it.
        assert_eq!(s.effective_limit_w(540.0), 540.0);
        let s = GpuSettings::power_capped(300.0);
        assert_eq!(s.effective_limit_w(540.0), 300.0);
    }
}

#[cfg(test)]
mod try_execute_tests {
    use super::*;
    use crate::kernel::KernelProfile;

    #[test]
    fn invalid_kernel_is_an_error_not_a_panic() {
        let mut k = KernelProfile::builder("bad")
            .flops(1e9)
            .hbm_bytes(1e9)
            .build();
        k.flop_efficiency = 2.0;
        let err = Engine::default()
            .try_execute(&k, GpuSettings::uncapped())
            .unwrap_err();
        assert!(err.to_string().contains("flop_efficiency"), "{err}");
    }

    #[test]
    fn valid_kernel_matches_infallible_path() {
        let k = KernelProfile::builder("ok")
            .flops(1e12)
            .hbm_bytes(1e10)
            .build();
        let eng = Engine::default();
        let a = eng.execute(&k, GpuSettings::uncapped());
        let b = eng.try_execute(&k, GpuSettings::uncapped()).unwrap();
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
    }
}
