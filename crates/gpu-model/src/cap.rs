//! Power-cap controller: finds the operating frequency that keeps package
//! power under a limit.
//!
//! The hardware mechanism on the modeled device (like RAPL on CPUs or the
//! MI250X PPT loop) sheds power exclusively by lowering the core clock and
//! voltage.  Components outside the core voltage domain — the idle floor and
//! HBM — cannot be shed, so a sufficiently low cap combined with heavy HBM
//! traffic is *breached*: the device bottoms out at the frequency floor with
//! power still above the limit.  The paper observes exactly this for 140 W
//! and 200 W caps on the memory benchmark (Fig. 6d).

use crate::freq::Freq;

/// Result of a power-cap solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CapOutcome {
    /// Chosen operating frequency.
    pub freq: Freq,
    /// Power demand at that frequency, in watts.
    pub power_w: f64,
    /// True when even the frequency floor exceeds the limit (the observed
    /// power breaches the cap).
    pub breached: bool,
    /// Demand evaluations the solve cost: 1 when the limit never binds,
    /// 2 on a breach, and the bisection count otherwise.  Purely
    /// observability — it never feeds back into the result.
    pub iters: u32,
}

/// Maximum frequency `f` in `[F_MIN, f_max_allowed]` such that
/// `demand(f) <= limit_w`, assuming `demand` is non-decreasing in `f`.
///
/// `demand` takes the candidate frequency and returns package watts;
/// callers close over the kernel's utilization profile.
pub(crate) fn solve_freq_for_cap(
    limit_w: f64,
    f_max_allowed: Freq,
    mut demand: impl FnMut(Freq) -> f64,
) -> CapOutcome {
    let hi = f_max_allowed;
    let lo = Freq::MIN;

    let demand_hi = demand(hi);
    if demand_hi <= limit_w {
        return CapOutcome {
            freq: hi,
            power_w: demand_hi,
            breached: false,
            iters: 1,
        };
    }
    let demand_lo = demand(lo);
    if demand_lo > limit_w {
        return CapOutcome {
            freq: lo,
            power_w: demand_lo,
            breached: true,
            iters: 2,
        };
    }

    // Bisection: invariant demand(lo) <= limit < demand(hi).
    let mut iters = 2u32;
    let (mut lo_mhz, mut hi_mhz) = (lo.mhz(), hi.mhz());
    for _ in 0..60 {
        let mid = Freq::from_mhz(0.5 * (lo_mhz + hi_mhz));
        iters += 1;
        if demand(mid) <= limit_w {
            lo_mhz = mid.mhz();
        } else {
            hi_mhz = mid.mhz();
        }
        if hi_mhz - lo_mhz < 0.01 {
            break;
        }
    }
    let freq = Freq::from_mhz(lo_mhz);
    iters += 1;
    CapOutcome {
        freq,
        power_w: demand(freq),
        breached: false,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{F_MAX_MHZ, F_MIN_MHZ};

    /// Toy monotone demand: 80 W floor + 400 W scaled by f/f_max.
    fn linear_demand(f: Freq) -> f64 {
        80.0 + 400.0 * f.ratio()
    }

    #[test]
    fn uncapped_when_limit_above_max_demand() {
        let out = solve_freq_for_cap(1000.0, Freq::MAX, linear_demand);
        assert!(!out.breached);
        assert_eq!(out.freq.mhz(), F_MAX_MHZ);
    }

    #[test]
    fn breach_when_floor_exceeds_limit() {
        let out = solve_freq_for_cap(100.0, Freq::MAX, linear_demand);
        assert!(out.breached);
        assert_eq!(out.freq.mhz(), F_MIN_MHZ);
        assert!(out.power_w > 100.0);
    }

    #[test]
    fn solves_interior_limit_to_tolerance() {
        let out = solve_freq_for_cap(280.0, Freq::MAX, linear_demand);
        assert!(!out.breached);
        // 80 + 400*r = 280 -> r = 0.5 -> 850 MHz.
        assert!((out.freq.mhz() - 850.0).abs() < 1.0, "{}", out.freq.mhz());
        assert!(out.power_w <= 280.0 + 1e-6);
    }

    #[test]
    fn iteration_counts_reflect_the_solve_shape() {
        // Limit never binds: one evaluation, no bisection.
        let hi = solve_freq_for_cap(1000.0, Freq::MAX, linear_demand);
        assert_eq!(hi.iters, 1);
        // Breach: both endpoints evaluated, nothing else.
        let lo = solve_freq_for_cap(100.0, Freq::MAX, linear_demand);
        assert_eq!(lo.iters, 2);
        // Interior solve: endpoints + bisection steps + the final probe,
        // bounded by the 60-iteration budget.
        let mid = solve_freq_for_cap(280.0, Freq::MAX, linear_demand);
        assert!(mid.iters > 3 && mid.iters <= 63, "iters {}", mid.iters);
        // The count mirrors the actual demand() calls.
        let mut calls = 0u32;
        let counted = solve_freq_for_cap(280.0, Freq::MAX, |f| {
            calls += 1;
            linear_demand(f)
        });
        assert_eq!(counted.iters, calls);
    }

    #[test]
    fn respects_software_frequency_cap() {
        let out = solve_freq_for_cap(1000.0, Freq::from_mhz(900.0), linear_demand);
        assert_eq!(out.freq.mhz(), 900.0);
    }

    #[test]
    fn chosen_power_never_exceeds_limit_unless_breached() {
        for limit in [150.0, 200.0, 300.0, 450.0, 600.0] {
            let out = solve_freq_for_cap(limit, Freq::MAX, linear_demand);
            if !out.breached {
                assert!(
                    out.power_w <= limit + 1e-6,
                    "limit {limit}: {}",
                    out.power_w
                );
            }
        }
    }
}
