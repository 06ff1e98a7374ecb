//! Boost model: short excursions above the sustained power limit.
//!
//! The paper's Table IV region 4 ("boosted frequency", ≥ 560 W, 1.1 % of
//! GPU hours) exists only in the *telemetry*: steady-state benchmark runs
//! never sustain it, but the 15-second out-of-band samples occasionally
//! catch the device drawing boost power while thermal headroom lasts.
//!
//! The model is a thermal token bucket: headroom accumulates while the
//! device runs below the sustained limit and is spent during excursions.

/// Thermal/boost budget for one GPU.
#[derive(Debug, Clone)]
pub struct BoostBudget {
    /// Maximum stored boost time, in seconds.
    capacity_s: f64,
    /// Currently stored boost time, in seconds.
    stored_s: f64,
    /// Seconds of headroom gained per second spent below the sustained
    /// limit.
    recharge_rate: f64,
}

impl Default for BoostBudget {
    fn default() -> Self {
        BoostBudget {
            capacity_s: 10.0,
            stored_s: 10.0,
            recharge_rate: 0.12,
        }
    }
}

impl BoostBudget {
    /// Creates a budget with the given capacity and recharge rate.
    pub fn new(capacity_s: f64, recharge_rate: f64) -> Self {
        assert!(capacity_s >= 0.0 && recharge_rate >= 0.0);
        BoostBudget {
            capacity_s,
            stored_s: capacity_s,
            recharge_rate,
        }
    }

    /// Remaining boost time, in seconds.
    pub fn stored_s(&self) -> f64 {
        self.stored_s
    }

    /// Advances time by `dt` seconds with the device *below* the sustained
    /// limit; headroom recharges.
    pub fn recharge(&mut self, dt: f64) {
        self.stored_s = (self.stored_s + dt * self.recharge_rate).min(self.capacity_s);
    }

    /// Requests `dt` seconds of boost; returns the granted duration (may be
    /// shorter when the budget runs dry).
    pub fn spend(&mut self, dt: f64) -> f64 {
        let granted = dt.min(self.stored_s);
        self.stored_s -= granted;
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_is_limited_by_stored_budget() {
        let mut b = BoostBudget::new(5.0, 0.1);
        assert_eq!(b.spend(3.0), 3.0);
        assert_eq!(b.spend(3.0), 2.0);
        assert_eq!(b.spend(1.0), 0.0);
    }

    #[test]
    fn recharge_caps_at_capacity() {
        let mut b = BoostBudget::new(5.0, 0.5);
        b.spend(5.0);
        b.recharge(100.0);
        assert_eq!(b.stored_s(), 5.0);
    }

    #[test]
    fn alternating_spend_recharge_converges() {
        let mut b = BoostBudget::new(10.0, 0.12);
        let mut boosted = 0.0;
        let mut total = 0.0;
        for _ in 0..100_000 {
            let got = b.spend(0.5);
            boosted += got;
            total += 0.5;
            b.recharge(2.0);
            total += 2.0;
        }
        let frac = boosted / total;
        assert!((0.08..0.12).contains(&frac), "boost fraction {frac}");
    }
}
