//! Boost model: short excursions above the sustained power limit.
//!
//! The paper's Table IV region 4 ("boosted frequency", ≥ 560 W, 1.1 % of
//! GPU hours) exists only in the *telemetry*: steady-state benchmark runs
//! never sustain it, but the 15-second out-of-band samples occasionally
//! catch the device drawing boost power while thermal headroom lasts.
//!
//! The model is a thermal token bucket: headroom accumulates while the
//! device runs below the sustained limit and is spent during excursions.

/// Maximum stored boost time, in seconds.
const CAPACITY_S: f64 = 10.0;

/// Seconds of headroom gained per second spent below the sustained limit.
const RECHARGE_RATE: f64 = 0.12;

/// Thermal/boost budget for one GPU; it starts full.
#[derive(Debug, Clone)]
pub struct BoostBudget {
    /// Currently stored boost time, in seconds.
    stored_s: f64,
}

impl Default for BoostBudget {
    fn default() -> Self {
        BoostBudget {
            stored_s: CAPACITY_S,
        }
    }
}

impl BoostBudget {
    /// Remaining boost time, in seconds.
    pub fn stored_s(&self) -> f64 {
        self.stored_s
    }

    /// Advances time by `dt` seconds with the device *below* the sustained
    /// limit; headroom recharges.
    pub fn recharge(&mut self, dt: f64) {
        self.stored_s = (self.stored_s + dt * RECHARGE_RATE).min(CAPACITY_S);
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
        let mut b = BoostBudget::default();
        assert_eq!(b.spend(6.0), 6.0);
        assert_eq!(b.spend(6.0), 4.0);
        assert_eq!(b.spend(1.0), 0.0);
    }

    #[test]
    fn recharge_caps_at_capacity() {
        let mut b = BoostBudget::default();
        b.spend(CAPACITY_S);
        b.recharge(1000.0);
        assert_eq!(b.stored_s(), CAPACITY_S);
    }

    #[test]
    fn alternating_spend_recharge_converges() {
        let mut b = BoostBudget::default();
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
