//! The temporal-shifting what-if: defer boosted-mode work to cheaper,
//! cleaner slots under a deadline and a cluster power budget.
//!
//! Only boosted-region energy is movable — it is the deliberately
//! throughput-optimized slice of the fleet (batch-style work tolerant of
//! deferral), while latency-bound, memory- and compute-intensive
//! regions model work pinned to its submission slot.  The planner is a
//! greedy marginal-price matcher: it drains the most expensive source
//! slots first into the cheapest strictly-later, strictly-cheaper slots
//! within the deadline, never pushing a destination slot above the
//! cluster power budget.  It is compared against a *uniform-placement*
//! baseline that smears each movable slice evenly across its deadline
//! horizon without looking at prices — the natural "just spread the
//! batch queue" strawman.

use pmss_core::Region;
use pmss_error::PmssError;

use crate::series::EconSeries;
use pmss_gpu::consts::JOULES_PER_MWH;

use crate::trace::{EconTrace, SLOT_S};

/// Shifting knobs, resolved from an [`EconTrace`]'s scenario fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShiftPlan {
    /// Maximum slots a unit of work may be deferred (≥ 1).
    pub deadline_slots: usize,
    /// Cluster power budget as a fraction of the pre-shift GPU peak.
    pub budget_frac: f64,
}

impl ShiftPlan {
    /// Resolves the plan carried on a trace.
    pub(crate) fn from_trace(trace: &EconTrace) -> ShiftPlan {
        ShiftPlan {
            deadline_slots: trace.shift_deadline_slots.max(1) as usize,
            budget_frac: trace.shift_budget_frac,
        }
    }
}

/// One deferral decision: `joules` of boosted work moved from slot
/// `from` to slot `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftMove {
    /// Source slot index.
    pub from: usize,
    /// Destination slot index (`from < to ≤ from + deadline`).
    pub to: usize,
    /// Energy moved, joules.
    pub joules: f64,
}

/// The what-if result: pre/post placement and the three priced ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftOutcome {
    /// Deferral decisions, in the order the planner made them.
    pub moves: Vec<ShiftMove>,
    /// Total GPU joules per slot before shifting.
    pub pre_slot_j: Vec<f64>,
    /// Total GPU joules per slot after shifting.
    pub post_slot_j: Vec<f64>,
    /// Cost of the unshifted placement, dollars.
    pub baseline_cost_usd: f64,
    /// Carbon of the unshifted placement, kilograms.
    pub baseline_carbon_kg: f64,
    /// Cost after price-aware shifting, dollars.
    pub shifted_cost_usd: f64,
    /// Carbon after price-aware shifting, kilograms.
    pub shifted_carbon_kg: f64,
    /// Cost of the uniform-placement strawman, dollars.
    pub uniform_cost_usd: f64,
    /// Carbon of the uniform-placement strawman, kilograms.
    pub uniform_carbon_kg: f64,
    /// Boosted energy actually deferred, MWh.
    pub moved_mwh: f64,
    /// The cluster power budget the shift honored, watts.
    pub budget_w: f64,
    /// The deadline the shift honored, slots.
    pub deadline_slots: usize,
}

impl ShiftOutcome {
    /// Dollars saved by shifting versus the unshifted placement.
    pub fn cost_saving_usd(&self) -> f64 {
        self.baseline_cost_usd - self.shifted_cost_usd
    }

    /// Kilograms of CO₂ avoided versus the unshifted placement.
    pub fn carbon_saving_kg(&self) -> f64 {
        self.baseline_carbon_kg - self.shifted_carbon_kg
    }

    /// Dollars saved versus the uniform-placement strawman.
    pub fn edge_over_uniform_usd(&self) -> f64 {
        self.uniform_cost_usd - self.shifted_cost_usd
    }
}

fn priced(slot_j: &[f64], trace: &EconTrace) -> (f64, f64) {
    let mut usd = 0.0;
    let mut kg = 0.0;
    for (s, j) in slot_j.iter().enumerate() {
        let mwh = j / JOULES_PER_MWH;
        usd += mwh * trace.price_at_slot(s);
        kg += mwh * trace.carbon_at_slot(s);
    }
    (usd, kg)
}

/// Runs the temporal-shifting what-if for `series` under `trace`.
///
/// Guarantees, enforced structurally and pinned by the property suite:
/// energy is conserved; every move lands strictly later than its source
/// and within the deadline; no destination slot exceeds
/// `max(pre-shift load, power budget)`; a flat trace produces no moves
/// (a move must strictly improve cost).
pub fn shift(series: &EconSeries, trace: &EconTrace) -> Result<ShiftOutcome, PmssError> {
    trace.validate()?;
    let plan = ShiftPlan::from_trace(trace);
    let n = series.num_slots();
    if n == 0 {
        return Err(PmssError::missing(
            "econ shift input",
            "a simulated fleet with at least one accounting slot",
        ));
    }

    // Deferral may push work past the last *recorded* slot — the price
    // trace keeps tiling past the campaign edge — so the planning
    // horizon extends one deadline beyond the series.
    let horizon = n + plan.deadline_slots;
    let mut pre: Vec<f64> = (0..n).map(|s| series.slot_gpu_j(s)).collect();
    pre.resize(horizon, 0.0);
    let movable: Vec<f64> = (0..n)
        .map(|s| series.slot_region_j(s, Region::Boosted))
        .collect();

    let peak_w = pre.iter().cloned().fold(0.0, f64::max) / SLOT_S;
    let budget_w = plan.budget_frac * peak_w;
    let budget_e = budget_w * SLOT_S;

    // Price-aware greedy placement: drain expensive sources first.
    let mut post = pre.clone();
    let mut moves = Vec::new();
    let mut sources: Vec<usize> = (0..n).filter(|&s| movable[s] > 0.0).collect();
    sources.sort_by(|&a, &b| {
        trace
            .price_at_slot(b)
            .partial_cmp(&trace.price_at_slot(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &from in &sources {
        let mut remaining = movable[from];
        let price_from = trace.price_at_slot(from);
        let hi = from + plan.deadline_slots;
        let mut dests: Vec<usize> = (from + 1..=hi)
            .filter(|&j| trace.price_at_slot(j) < price_from)
            .collect();
        dests.sort_by(|&a, &b| {
            trace
                .price_at_slot(a)
                .partial_cmp(&trace.price_at_slot(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for to in dests {
            if remaining <= 0.0 {
                break;
            }
            let headroom = budget_e - post[to];
            if headroom <= 0.0 {
                continue;
            }
            let amount = remaining.min(headroom);
            post[from] -= amount;
            post[to] += amount;
            remaining -= amount;
            moves.push(ShiftMove {
                from,
                to,
                joules: amount,
            });
        }
    }

    // Uniform-placement strawman: smear each movable slice evenly over
    // its deadline horizon, blind to prices and the budget.
    let mut uniform = pre.clone();
    for (from, &m) in movable.iter().enumerate() {
        if m <= 0.0 {
            continue;
        }
        let hi = from + plan.deadline_slots;
        let span = hi - from + 1;
        let share = m / span as f64;
        uniform[from] -= m;
        for slot in uniform.iter_mut().take(hi + 1).skip(from) {
            *slot += share;
        }
    }

    let (baseline_cost_usd, baseline_carbon_kg) = priced(&pre, trace);
    let (shifted_cost_usd, shifted_carbon_kg) = priced(&post, trace);
    let (uniform_cost_usd, uniform_carbon_kg) = priced(&uniform, trace);
    let moved_mwh = moves.iter().map(|m| m.joules).sum::<f64>() / JOULES_PER_MWH;

    Ok(ShiftOutcome {
        moves,
        pre_slot_j: pre,
        post_slot_j: post,
        baseline_cost_usd,
        baseline_carbon_kg,
        shifted_cost_usd,
        shifted_carbon_kg,
        uniform_cost_usd,
        uniform_carbon_kg,
        moved_mwh,
        budget_w,
        deadline_slots: plan.deadline_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmss_columns::{FleetObserver, GapFill, SampleCtx};

    fn ctx() -> SampleCtx<'static> {
        SampleCtx {
            node: 0,
            slot: 0,
            sku: 0,
            job: None,
        }
    }

    /// A day of boosted work placed on the diurnal grid: `watts` of
    /// boosted-region power in each hour of the day, as gap fills so a
    /// single call covers a whole slot.
    fn boosted_day(watts_by_hour: &[f64]) -> EconSeries {
        let mut s = EconSeries::default();
        for (h, &w) in watts_by_hour.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            for q in 0..4 {
                let t = (h * 4 + q) as f64 * SLOT_S + SLOT_S / 2.0;
                // Boosted region sits above 560 W on the region ladder.
                s.gpu_gap(&ctx(), t, SLOT_S, GapFill::Interpolated(w));
            }
        }
        s
    }

    #[test]
    fn shifting_on_diurnal_beats_uniform_and_holds_invariants() {
        let trace = EconTrace::preset("diurnal").unwrap();
        // Boosted work concentrated in the evening price peak.
        let mut watts = [0.0; 24];
        for w in watts.iter_mut().take(20).skip(16) {
            *w = 700.0;
        }
        let series = boosted_day(&watts);
        let out = shift(&series, &trace).unwrap();

        assert!(!out.moves.is_empty());
        assert!(
            out.shifted_cost_usd < out.baseline_cost_usd,
            "shifting must save money on the diurnal peak"
        );
        assert!(
            out.shifted_cost_usd < out.uniform_cost_usd,
            "price-aware shifting must beat uniform placement"
        );
        // Energy conservation.
        let pre: f64 = out.pre_slot_j.iter().sum();
        let post: f64 = out.post_slot_j.iter().sum();
        assert!((pre - post).abs() <= 1e-6 * pre.max(1.0));
        // Deadline and direction.
        for m in &out.moves {
            assert!(m.to > m.from);
            assert!(m.to - m.from <= out.deadline_slots);
            assert!(m.joules > 0.0);
        }
        // Budget: no destination rises above max(pre, budget).
        let budget_e = out.budget_w * SLOT_S;
        for (s, &j) in out.post_slot_j.iter().enumerate() {
            assert!(
                j <= out.pre_slot_j[s].max(budget_e) + 1e-6,
                "slot {s} exceeds the power budget"
            );
        }
    }

    #[test]
    fn a_flat_trace_moves_nothing() {
        let trace = EconTrace::flat();
        let mut watts = [0.0; 24];
        watts[18] = 700.0;
        let out = shift(&boosted_day(&watts), &trace).unwrap();
        assert!(out.moves.is_empty(), "no strictly cheaper slot exists");
        assert_eq!(out.pre_slot_j, out.post_slot_j);
        assert_eq!(out.cost_saving_usd(), 0.0);
        // Uniform smearing is cost-neutral under a flat price too.
        assert!((out.uniform_cost_usd - out.baseline_cost_usd).abs() < 1e-9);
    }

    #[test]
    fn a_tight_budget_caps_what_each_destination_accepts() {
        let mut trace = EconTrace::preset("diurnal").unwrap();
        trace.shift_budget_frac = 1.0; // destinations may only fill to the pre-shift peak
        let mut watts = [0.0; 24];
        watts[18] = 700.0; // the peak slot
        watts[2] = 100.0; // cheap early slots already carry some load
        let series = boosted_day(&watts);
        let out = shift(&series, &trace).unwrap();
        let budget_e = out.budget_w * SLOT_S;
        assert!((budget_e - 700.0 * SLOT_S).abs() < 1e-6);
        for &j in &out.post_slot_j {
            assert!(j <= budget_e + 1e-6);
        }
    }

    #[test]
    fn pinned_work_never_moves() {
        let trace = EconTrace::preset("duck-curve").unwrap();
        let mut s = EconSeries::default();
        // Compute-intensive power (not boosted) in the evening peak.
        s.gpu_gap(
            &ctx(),
            18.0 * 3600.0 + 450.0,
            SLOT_S,
            GapFill::Interpolated(480.0),
        );
        let out = shift(&s, &trace).unwrap();
        assert!(out.moves.is_empty());
        assert_eq!(out.moved_mwh, 0.0);
        assert_eq!(out.pre_slot_j, out.post_slot_j);
    }

    #[test]
    fn an_empty_series_is_a_typed_error() {
        let trace = EconTrace::flat();
        let err = shift(&EconSeries::default(), &trace).unwrap_err();
        assert!(matches!(err, PmssError::Missing { .. }));
    }
}
