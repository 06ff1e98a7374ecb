//! Storage cost of a telemetry campaign.
//!
//! The paper notes that telemetry-driven studies "struggle with collecting
//! and managing extensive datasets"; [`sample_storage_bytes`] makes the
//! cost concrete for a Frontier-scale collection campaign (Table II).

/// Estimated raw storage for a telemetry campaign, in bytes.
///
/// * `nodes` — fleet size;
/// * `gpus_per_node` — sensors per node (4 GPU channels on Frontier);
/// * `days` — campaign length;
/// * `period_s` — sampling period (2 s raw, 15 s aggregated);
/// * `bytes_per_sample` — storage per sample (16 B for a packed
///   timestamp+value pair, more for CSV).
pub fn sample_storage_bytes(
    nodes: usize,
    gpus_per_node: usize,
    days: f64,
    period_s: f64,
    bytes_per_sample: f64,
) -> f64 {
    let samples = nodes as f64 * gpus_per_node as f64 * days * 86_400.0 / period_s;
    samples * bytes_per_sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_scale_storage_is_terabytes_raw() {
        // The paper's infrastructure point: 2 s raw sampling of 9408 nodes
        // x 4 GPUs for 90 days is a multi-TB dataset even in a packed
        // binary format — hence the 15 s aggregation.
        let raw = sample_storage_bytes(9408, 4, 90.0, 2.0, 16.0);
        let aggregated = sample_storage_bytes(9408, 4, 90.0, 15.0, 16.0);
        assert!(raw > 2e12, "raw {raw}");
        assert!(aggregated < raw / 7.0);
    }
}
