//! The rest-of-node power model: everything on a compute node that is not
//! one of its four GPUs (paper Fig. 1).

use crate::consts::{NODE_CPU_DYN_W, NODE_REST_IDLE_W};

/// Rest-of-node power model (CPU package, DIMMs, NIC, cooling share).
///
/// The paper's analysis is GPU-centric — "the other components are dwarfed
/// (< 20 %) by the GPU power consumption on a fully utilized node" — but the
/// node-level telemetry stream (Table II a) reports the whole node, so the
/// fleet simulation needs this term for Fig. 2(b).
#[derive(Debug, Clone, Copy)]
pub struct NodeRestModel {
    /// Baseline non-GPU node power, in watts.
    pub idle_w: f64,
    /// Additional CPU package power at full host utilization, in watts.
    pub cpu_dyn_w: f64,
}

impl Default for NodeRestModel {
    fn default() -> Self {
        NodeRestModel {
            idle_w: NODE_REST_IDLE_W,
            cpu_dyn_w: NODE_CPU_DYN_W,
        }
    }
}

impl NodeRestModel {
    /// Non-GPU node power at the given host CPU utilization in `[0, 1]`.
    pub fn power_w(&self, cpu_util: f64) -> f64 {
        self.idle_w + self.cpu_dyn_w * cpu_util.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::GPUS_PER_NODE;

    #[test]
    fn node_power_sums_components() {
        let rest = NodeRestModel::default();
        assert_eq!(rest.power_w(0.5), NODE_REST_IDLE_W + 0.5 * NODE_CPU_DYN_W);
        assert_eq!(rest.power_w(2.0), rest.power_w(1.0));
        assert_eq!(rest.power_w(-1.0), NODE_REST_IDLE_W);
    }

    #[test]
    fn gpu_dominates_busy_node_power() {
        // Paper Sec. VI: non-GPU components are < 20 % of a busy node.
        let gpu = 500.0 * GPUS_PER_NODE as f64;
        let non_gpu = NodeRestModel::default().power_w(1.0);
        let share = non_gpu / (gpu + non_gpu);
        assert!(share < 0.2, "non-GPU share {share}");
    }
}
