//! Time-varying electricity price and grid carbon-intensity traces.
//!
//! An [`EconTrace`] is a pair of step functions on a shared bucket grid:
//! `price_usd_per_mwh[i]` and `carbon_g_per_kwh[i]` hold for simulated
//! time `[i * bucket_s, (i + 1) * bucket_s)`, and the series tiles
//! cyclically past its last bucket (a day-long trace prices every day of
//! a 90-day campaign).  Buckets must be whole multiples of the
//! 15-minute accounting slot ([`SLOT_S`]) so that a slot never straddles
//! a price change — that is what makes "total cost = Σ slot-energy ×
//! slot-price" an identity instead of an approximation.

use pmss_error::PmssError;

/// The accounting slot the per-slot energy series uses, seconds.  Trace
/// buckets must be whole multiples of this.
pub const SLOT_S: f64 = 900.0;

/// Slots in the paper's 90-day campaign (Table II): 8 640 of [`SLOT_S`].
const CAMPAIGN_SLOTS: usize = (90.0 * 86_400.0 / SLOT_S) as usize;

/// Buckets a price or carbon series may hold: ten times the campaign's
/// slots.  A series arrives in a spec, so one daemon OPEN frame must not
/// be able to size it.
const MAX_SERIES_LEN: usize = 10 * CAMPAIGN_SLOTS;

/// Reference (flat) electricity price, $/MWh — the value against which
/// cost deltas are reported.
pub(crate) const REF_PRICE_USD_PER_MWH: f64 = 60.0;

/// Reference (flat) grid carbon intensity, gCO₂/kWh.
pub(crate) const REF_CARBON_G_PER_KWH: f64 = 400.0;

/// Default temporal-shifting deadline, in slots (16 × 15 min = 4 h).
pub(crate) const DEFAULT_SHIFT_DEADLINE_SLOTS: u32 = 16;

/// Default temporal-shifting power budget as a fraction of the baseline
/// peak slot power.
pub(crate) const DEFAULT_SHIFT_BUDGET_FRAC: f64 = 1.0;

/// A validated price/carbon scenario input (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct EconTrace {
    /// Trace name (a preset name, or free-form for file-loaded traces).
    pub name: String,
    /// Bucket width of both series, seconds; a whole multiple of
    /// [`SLOT_S`].
    pub bucket_s: f64,
    /// Electricity price per bucket, $/MWh.
    pub price_usd_per_mwh: Vec<f64>,
    /// Grid carbon intensity per bucket, gCO₂/kWh.
    pub carbon_g_per_kwh: Vec<f64>,
    /// Temporal-shifting deadline: how many slots boosted-mode work may
    /// be deferred past its original slot.
    pub shift_deadline_slots: u32,
    /// Temporal-shifting power budget as a fraction of the baseline
    /// peak slot power.
    pub shift_budget_frac: f64,
}

/// 24-hour diurnal price profile, $/MWh: cheap nights, evening peak.
const DIURNAL_PRICE: [f64; 24] = [
    38.0, 36.0, 35.0, 34.0, 35.0, 38.0, 45.0, 55.0, 65.0, 70.0, 72.0, 74.0, 75.0, 76.0, 78.0, 80.0,
    85.0, 92.0, 98.0, 90.0, 75.0, 60.0, 50.0, 42.0,
];

/// 24-hour diurnal carbon profile, gCO₂/kWh: dirty nights, clean midday.
const DIURNAL_CARBON: [f64; 24] = [
    520.0, 530.0, 535.0, 540.0, 535.0, 520.0, 490.0, 450.0, 410.0, 380.0, 360.0, 350.0, 345.0,
    340.0, 345.0, 355.0, 380.0, 420.0, 470.0, 500.0, 515.0, 520.0, 520.0, 520.0,
];

/// 24-hour duck-curve price profile: a deep midday solar glut and a
/// steep evening ramp.
const DUCK_PRICE: [f64; 24] = [
    55.0, 52.0, 50.0, 49.0, 50.0, 54.0, 60.0, 58.0, 45.0, 30.0, 18.0, 12.0, 10.0, 12.0, 20.0, 35.0,
    60.0, 95.0, 110.0, 105.0, 85.0, 70.0, 62.0, 58.0,
];

/// 24-hour duck-curve carbon profile, tracking the solar share.
const DUCK_CARBON: [f64; 24] = [
    480.0, 485.0, 490.0, 492.0, 490.0, 480.0, 450.0, 400.0, 330.0, 260.0, 210.0, 190.0, 185.0,
    195.0, 230.0, 290.0, 380.0, 470.0, 520.0, 530.0, 510.0, 495.0, 485.0, 480.0,
];

/// First day of the `grid-2024` preset, $/MWh.
const GRID_2024_PRICE: [f64; 24] = [
    42.0, 40.0, 39.0, 38.0, 39.0, 43.0, 52.0, 61.0, 58.0, 47.0, 35.0, 28.0, 26.0, 29.0, 41.0, 57.0,
    79.0, 103.0, 112.0, 99.0, 81.0, 66.0, 55.0, 47.0,
];

/// First day of the `grid-2024` preset, gCO₂/kWh.
const GRID_2024_CARBON: [f64; 24] = [
    505.0, 512.0, 516.0, 519.0, 516.0, 505.0, 472.0, 430.0, 385.0, 330.0, 285.0, 255.0, 245.0,
    258.0, 300.0, 360.0, 435.0, 495.0, 528.0, 535.0, 520.0, 510.0, 505.0, 505.0,
];

impl EconTrace {
    /// The flat trace at the reference price and carbon intensity — the
    /// spelled-out no-op.
    pub fn flat() -> EconTrace {
        EconTrace {
            name: "flat".to_string(),
            bucket_s: 3600.0,
            price_usd_per_mwh: vec![REF_PRICE_USD_PER_MWH],
            carbon_g_per_kwh: vec![REF_CARBON_G_PER_KWH],
            shift_deadline_slots: DEFAULT_SHIFT_DEADLINE_SLOTS,
            shift_budget_frac: DEFAULT_SHIFT_BUDGET_FRAC,
        }
    }

    /// All preset names, in stable order.
    pub fn preset_names() -> [&'static str; 4] {
        ["flat", "diurnal", "duck-curve", "grid-2024"]
    }

    /// Looks up a named preset.
    pub fn preset(name: &str) -> Option<EconTrace> {
        let hourly = |price: &[f64], carbon: &[f64]| EconTrace {
            name: name.to_string(),
            bucket_s: 3600.0,
            price_usd_per_mwh: price.to_vec(),
            carbon_g_per_kwh: carbon.to_vec(),
            shift_deadline_slots: DEFAULT_SHIFT_DEADLINE_SLOTS,
            shift_budget_frac: DEFAULT_SHIFT_BUDGET_FRAC,
        };
        match name {
            "flat" => Some(EconTrace::flat()),
            "diurnal" => Some(hourly(&DIURNAL_PRICE, &DIURNAL_CARBON)),
            "duck-curve" => Some(hourly(&DUCK_PRICE, &DUCK_CARBON)),
            "grid-2024" => {
                // Two calendar days; the second models a DST
                // spring-forward (the clock skips an hour), so its
                // profile lands one hour early and the series carries a
                // genuine discontinuity at the day boundary.
                let mut price = GRID_2024_PRICE.to_vec();
                let mut carbon = GRID_2024_CARBON.to_vec();
                price.extend((0..24).map(|h| GRID_2024_PRICE[(h + 1) % 24]));
                carbon.extend((0..24).map(|h| GRID_2024_CARBON[(h + 1) % 24]));
                Some(EconTrace {
                    name: name.to_string(),
                    bucket_s: 3600.0,
                    price_usd_per_mwh: price,
                    carbon_g_per_kwh: carbon,
                    shift_deadline_slots: DEFAULT_SHIFT_DEADLINE_SLOTS,
                    shift_budget_frac: DEFAULT_SHIFT_BUDGET_FRAC,
                })
            }
            _ => None,
        }
    }

    /// Validates every field; returns the first violation as a typed
    /// error (arbitrary series — NaN, negative, empty, off-grid — must
    /// be rejected here, never panic downstream).
    pub fn validate(&self) -> Result<(), PmssError> {
        if self.name.is_empty() {
            return Err(PmssError::InvalidSpec {
                field: "econ.name",
                reason: "must not be empty".into(),
            });
        }
        if !(self.bucket_s.is_finite() && self.bucket_s > 0.0) {
            return Err(PmssError::InvalidSpec {
                field: "econ.bucket_s",
                reason: format!("must be finite and positive, got {}", self.bucket_s),
            });
        }
        let ratio = self.bucket_s / SLOT_S;
        if !((1.0..=1e6).contains(&ratio) && (ratio - ratio.round()).abs() < 1e-9) {
            return Err(PmssError::InvalidSpec {
                field: "econ.bucket_s",
                reason: format!(
                    "must be a whole multiple of the {SLOT_S} s slot, got {}",
                    self.bucket_s
                ),
            });
        }
        let series = |field: &'static str, values: &[f64]| -> Result<(), PmssError> {
            if values.len() > MAX_SERIES_LEN {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: format!(
                        "must be at most {MAX_SERIES_LEN} buckets (10x the paper's campaign), got {}",
                        values.len()
                    ),
                });
            }
            if values.is_empty() {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: "must contain at least one bucket".into(),
                });
            }
            if let Some(bad) = values.iter().find(|v| !v.is_finite() || **v < 0.0) {
                return Err(PmssError::InvalidSpec {
                    field,
                    reason: format!("entries must be finite and non-negative, got {bad}"),
                });
            }
            Ok(())
        };
        series("econ.price_usd_per_mwh", &self.price_usd_per_mwh)?;
        series("econ.carbon_g_per_kwh", &self.carbon_g_per_kwh)?;
        if self.price_usd_per_mwh.len() != self.carbon_g_per_kwh.len() {
            return Err(PmssError::InvalidSpec {
                field: "econ.carbon_g_per_kwh",
                reason: format!(
                    "must match the price series length ({} vs {})",
                    self.carbon_g_per_kwh.len(),
                    self.price_usd_per_mwh.len()
                ),
            });
        }
        if self.shift_deadline_slots == 0 {
            return Err(PmssError::InvalidSpec {
                field: "econ.shift_deadline_slots",
                reason: "must be at least 1".into(),
            });
        }
        if !(self.shift_budget_frac.is_finite()
            && self.shift_budget_frac > 0.0
            && self.shift_budget_frac <= 10.0)
        {
            return Err(PmssError::InvalidSpec {
                field: "econ.shift_budget_frac",
                reason: format!(
                    "must be finite and in (0, 10], got {}",
                    self.shift_budget_frac
                ),
            });
        }
        Ok(())
    }

    /// Whether this trace changes nothing: every bucket sits exactly at
    /// the reference price and carbon intensity, so every delta it could
    /// report is zero.  The scenario layer treats such a trace exactly
    /// like an absent one, which is what keeps `--econ flat` bit-exact
    /// against the historical goldens.
    pub fn is_noop(&self) -> bool {
        self.price_usd_per_mwh
            .iter()
            .all(|p| *p == REF_PRICE_USD_PER_MWH)
            && self
                .carbon_g_per_kwh
                .iter()
                .all(|c| *c == REF_CARBON_G_PER_KWH)
    }

    /// Number of buckets in the series.
    pub(crate) fn len(&self) -> usize {
        self.price_usd_per_mwh.len()
    }

    /// Whether the series is empty (never true for a validated trace).
    pub(crate) fn is_empty(&self) -> bool {
        self.price_usd_per_mwh.is_empty()
    }

    /// Accounting slots per trace bucket (≥ 1 for a validated trace).
    pub(crate) fn slots_per_bucket(&self) -> usize {
        let ratio = self.bucket_s / SLOT_S;
        if ratio.is_finite() && ratio >= 1.0 {
            ratio.round().min(1e6) as usize
        } else {
            1
        }
    }

    fn bucket_of_slot(&self, slot: usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        (slot / self.slots_per_bucket()) % self.len()
    }

    /// Price of accounting slot `slot`, tiling cyclically past the end
    /// of the series (a trace shorter than the campaign repeats; a trace
    /// longer than the campaign simply has unused tail buckets).
    pub fn price_at_slot(&self, slot: usize) -> f64 {
        self.price_usd_per_mwh
            .get(self.bucket_of_slot(slot))
            .copied()
            .unwrap_or(REF_PRICE_USD_PER_MWH)
    }

    /// Carbon intensity of accounting slot `slot`, tiling cyclically.
    pub fn carbon_at_slot(&self, slot: usize) -> f64 {
        self.carbon_g_per_kwh
            .get(self.bucket_of_slot(slot))
            .copied()
            .unwrap_or(REF_CARBON_G_PER_KWH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_only_flat_is_a_noop() {
        for name in EconTrace::preset_names() {
            let t = EconTrace::preset(name).unwrap();
            t.validate().unwrap();
            assert_eq!(t.name, name);
            assert_eq!(t.is_noop(), name == "flat", "{name}");
        }
        assert!(EconTrace::preset("peak-shaving").is_none());
    }

    #[test]
    fn validation_rejects_malformed_series() {
        let mut t = EconTrace::flat();
        t.price_usd_per_mwh = vec![];
        t.carbon_g_per_kwh = vec![];
        assert!(t.validate().is_err(), "empty series");

        let mut t = EconTrace::flat();
        t.price_usd_per_mwh = vec![f64::NAN];
        assert!(t.validate().is_err(), "NaN price");

        let mut t = EconTrace::flat();
        t.carbon_g_per_kwh = vec![-1.0];
        assert!(t.validate().is_err(), "negative carbon");

        let mut t = EconTrace::flat();
        t.carbon_g_per_kwh = vec![400.0, 400.0];
        assert!(t.validate().is_err(), "length mismatch");

        let mut t = EconTrace::flat();
        t.bucket_s = 1000.0; // not a multiple of 900
        assert!(t.validate().is_err(), "off-grid bucket");

        let mut t = EconTrace::flat();
        t.bucket_s = f64::INFINITY;
        assert!(t.validate().is_err(), "non-finite bucket");

        let mut t = EconTrace::flat();
        t.bucket_s = 450.0; // finer than a slot
        assert!(t.validate().is_err(), "sub-slot bucket");

        let mut t = EconTrace::flat();
        t.shift_deadline_slots = 0;
        assert!(t.validate().is_err(), "zero deadline");

        let mut t = EconTrace::flat();
        t.shift_budget_frac = f64::NAN;
        assert!(t.validate().is_err(), "NaN budget fraction");
    }

    #[test]
    fn slot_lookup_steps_per_bucket_and_tiles_cyclically() {
        let t = EconTrace::preset("diurnal").unwrap();
        assert_eq!(t.slots_per_bucket(), 4);
        // All four slots of hour 0 price alike; hour 1 differs.
        for slot in 0..4 {
            assert_eq!(t.price_at_slot(slot), DIURNAL_PRICE[0]);
        }
        assert_eq!(t.price_at_slot(4), DIURNAL_PRICE[1]);
        // A trace shorter than the schedule tiles: slot 96 (day 2,
        // hour 0) prices like slot 0.
        assert_eq!(t.price_at_slot(96), t.price_at_slot(0));
        assert_eq!(t.carbon_at_slot(96 + 7), t.carbon_at_slot(7));
    }

    #[test]
    fn grid_2024_carries_a_dst_style_discontinuity() {
        let t = EconTrace::preset("grid-2024").unwrap();
        assert_eq!(t.len(), 48);
        // Day two's profile is shifted one hour early relative to day
        // one — a spring-forward clock jump, not a smooth wrap.
        assert_eq!(t.price_usd_per_mwh[24], GRID_2024_PRICE[1]);
        assert_ne!(t.price_usd_per_mwh[24], GRID_2024_PRICE[0]);
        for h in 0..24 {
            assert_eq!(t.price_usd_per_mwh[24 + h], GRID_2024_PRICE[(h + 1) % 24]);
            assert_eq!(t.carbon_g_per_kwh[24 + h], GRID_2024_CARBON[(h + 1) % 24]);
        }
        // The series still tiles cyclically past its two days.
        assert_eq!(t.price_at_slot(48 * 4), t.price_at_slot(0));
    }

    #[test]
    fn longer_trace_than_schedule_leaves_tail_buckets_unused() {
        // A 48-bucket trace queried only in its first day simply never
        // touches the tail; no wrap, no error.
        let t = EconTrace::preset("grid-2024").unwrap();
        for slot in 0..96 {
            assert_eq!(t.price_at_slot(slot), GRID_2024_PRICE[slot / 4]);
        }
    }
}
