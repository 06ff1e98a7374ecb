//! The loop oracle: the sequential pass over a run's channels that the
//! channel loop replaced — every node on the calling thread, each channel
//! generated whole and folded into a fresh partial merged at once and,
//! when the run retains, put into arrival order and handed whole to `map`
//! and then `keep`, one channel after the other until a `keep` breaks.
//! [`FleetRun::channels`] must give every consumer the same bits at any
//! worker count.

use super::*;

impl FleetRun<'_> {
    /// The sequential loop, for a run delivered under one plan.
    pub(super) fn channels_in_order<O, T>(
        &self,
        mut retain: Option<Retain<'_, T>>,
    ) -> (O, FleetRunStats)
    where
        O: FleetObserver + Default,
    {
        assert_eq!(self.plans.len(), 1, "one delivery per sequential run");
        // Generation order is already arrival order unless a plan reorders.
        let reordering = self.plans[0].is_some_and(|(p, _)| p.reorder_depth > 0);
        let mut scratch = self.scratch(true);
        let (mut obs, mut stats) = (O::default(), FleetRunStats::default());
        let mut broken = false;
        for node in 0..self.schedule.per_node.len() {
            let node_stats = self.node_channel_blocks(node, &mut scratch, |_, block, _| {
                let mut channel = O::default();
                channel.fold_block(self.schedule, block);
                obs.merge(channel);
                if let Some(Retain { map, keep, .. }) = retain.as_mut().filter(|_| !broken) {
                    if reordering && block.slot() != REST_SLOT {
                        block.sort_arrival();
                    }
                    broken = keep(map(None, block)).is_break();
                }
            });
            stats.add(&node_stats[0]);
            if broken {
                break;
            }
        }
        (obs, stats)
    }
}
