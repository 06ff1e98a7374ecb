//! Online cluster power governor: from the paper's static ceiling to a
//! closed control loop.
//!
//! The paper's headline is an *offline* bound — project per-mode scaling
//! factors (Table III) onto recorded telemetry and report the best
//! no-slowdown savings a static cap could have realized.  This crate asks
//! the follow-up question the paper's discussion motivates: how much of
//! that ceiling can an *online* controller realize when it only sees the
//! telemetry stream as it arrives, possibly degraded by collection faults?
//!
//! The governor senses every telemetry channel's stream state at a
//! periodic sync window (the PoLiMEr rebalancing discipline), replayed
//! per channel on every core by [`pmss_stream::TraceReplay`]: it
//! classifies each `(node, slot)` telemetry channel's current operating
//! mode from the last window of delivered samples, applies the projection's
//! best no-slowdown cap to channels it believes are memory-intensive, and
//! — under the `polimer` policy — reallocates a cluster-wide power budget
//! across nodes by observed slack, with configurable increase/decrease
//! rates, hysteresis, and per-node floor/ceiling caps.
//!
//! Realized savings are accounted with the same Table III factors the
//! projection uses, applied window by window to the cap each decision
//! actually had in force — so the gap between the governor and the ceiling
//! is exactly the cost of sensing lag, misclassification, hysteresis, and
//! budget pressure.
//!
//! * [`GovernorPlan`] — typed, validated configuration with
//!   `static | greedy | polimer` presets;
//! * `ChannelAccum` — the mode-sensing observer the stream replay keeps
//!   one of per channel;
//! * [`run_governor`] — the deterministic replay: one sensing replay and
//!   one accounting pass over the delivered telemetry for any number of
//!   plans, one controller per plan, producing a [`GovernOutcome`] per
//!   plan in plan order.  Sensing does not depend on the plan, so the
//!   plans share its snapshots; each outcome equals a replay of its plan
//!   alone.

mod channels;
mod plan;
mod sim;

pub use plan::{GovernorPlan, Policy, PRESETS};
pub use sim::{run_governor, GovernOutcome};
