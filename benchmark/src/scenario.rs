//! Generated inputs.  The workload seed becomes `ScenarioSpec.seed` in spec
//! files written under the output directory; the program only ever sees
//! those generated files (or, in process, the same spec value).

use std::path::{Path, PathBuf};

use crate::surface::{ScalePreset, ScenarioSpec};

/// Fleet shape of one workload: `(nodes, days)`, full size and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub full: (usize, f64),
    pub smoke: (usize, f64),
}

/// `batch-cold`: the `medium` preset's shape, 12.9 M window-events.
pub const BATCH_COLD: Shape = Shape {
    full: (64, 7.0),
    smoke: (8, 1.0),
};
/// `batch-multirun`: small, because each of its three commands runs the
/// fleet several times.
pub const BATCH_MULTIRUN: Shape = Shape {
    full: (16, 2.0),
    smoke: (4, 0.5),
};
/// `replay-resident`: sized so that three cold captures fit in set-up.
pub const REPLAY_RESIDENT: Shape = Shape {
    full: (64, 7.0),
    smoke: (8, 1.0),
};
/// `daemon-mixed`: 20 channel blocks of 80.6 k rows per daemon lifetime —
/// few frames, because each costs a 40 ms stall on the wire today, but
/// enough rows that a frame is real work once it does not.
pub const DAEMON_MIXED: Shape = Shape {
    full: (4, 14.0),
    smoke: (2, 0.5),
};

/// The scenario for `shape` at `seed`: the quick preset's cap ladders and
/// boundaries with the shape and seed swapped in.
pub fn spec(name: &str, shape: Shape, seed: u64, smoke: bool) -> ScenarioSpec {
    let (nodes, days) = if smoke { shape.smoke } else { shape.full };
    ScenarioSpec {
        name: name.to_string(),
        nodes,
        days,
        seed,
        ..ScenarioSpec::preset(ScalePreset::Quick)
    }
}

/// Window-events of one fleet run of `spec`: five channels per node (four
/// GPU slots and rest-of-node), one event per 15 s window.
pub fn window_events(spec: &ScenarioSpec) -> u64 {
    let windows = (spec.days * 86_400.0 / 15.0).ceil() as u64;
    spec.nodes as u64 * 5 * windows
}

/// Writes `spec` as the JSON file `pmss --spec` reads and returns its path.
pub fn write_spec(out_dir: &Path, spec: &ScenarioSpec) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("spec-{}-{}.json", spec.name, spec.seed));
    std::fs::write(&path, spec.to_json().to_string_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Json;

    #[test]
    fn same_seed_gives_byte_identical_spec_files() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        let a = write_spec(&dir, &spec("batch-cold", BATCH_COLD, 11, false)).unwrap();
        let first = std::fs::read(&a).unwrap();
        let b = write_spec(&dir, &spec("batch-cold", BATCH_COLD, 11, false)).unwrap();
        assert_eq!(a, b);
        assert_eq!(first, std::fs::read(&b).unwrap());
        let c = write_spec(&dir, &spec("batch-cold", BATCH_COLD, 12, false)).unwrap();
        assert_ne!(first, std::fs::read(&c).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generated_specs_validate_and_carry_the_seed() {
        for shape in [BATCH_COLD, BATCH_MULTIRUN, REPLAY_RESIDENT, DAEMON_MIXED] {
            for smoke in [false, true] {
                let s = spec("w", shape, 2024, smoke);
                s.validate().expect("a valid scenario");
                let back =
                    ScenarioSpec::from_json(&Json::parse(&s.to_json().to_string_pretty()).unwrap());
                assert_eq!(back.unwrap(), s);
            }
        }
        assert_eq!(window_events(&spec("w", BATCH_COLD, 1, false)), 12_902_400);
    }
}
