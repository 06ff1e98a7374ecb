//! Process-level error paths of the `pmss` binary: hostile input ends in
//! a one-line typed error and exit code 1, never a signal.

use std::process::Command;

/// A `--spec` file nested two million levels deep used to overflow the
/// recursive JSON parser's stack and abort (exit 134).
#[test]
fn deeply_nested_spec_file_is_a_typed_error_not_an_abort() {
    let path = std::env::temp_dir().join(format!("pmss-deep-spec-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(2_000_000)).expect("spec file written");
    let out = Command::new(env!("CARGO_BIN_EXE_pmss"))
        .args(["table", "5", "--spec"])
        .arg(&path)
        .output()
        .expect("pmss runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("pmss: malformed json data: nesting deeper than 128 levels"),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A spec sized far past the paper's machine used to abort (`nodes`: an
/// allocation failure, exit 134) or grow until killed (`days`: exit 137),
/// and a cap ladder or price series of any length was accepted.  All are
/// bounded in `ScenarioSpec::validate` now.
#[test]
fn oversized_specs_are_typed_errors_not_aborts() {
    let list = |n: usize| {
        let entries: Vec<String> = (0..n).map(|i| (1_000_000 - i).to_string()).collect();
        format!("[{}]", entries.join(","))
    };
    for (name, body, field) in [
        (
            "nodes",
            r#"{"nodes": 4000000000000}"#.to_string(),
            "`nodes`",
        ),
        ("days", r#"{"days": 1e300}"#.to_string(), "`days`"),
        (
            "node-days",
            r#"{"nodes": 90000, "days": 800}"#.to_string(),
            "`nodes x days`",
        ),
        (
            "freq-ladder",
            format!(r#"{{"freq_caps_mhz": {}}}"#, list(100_000)),
            "`freq_caps_mhz`",
        ),
        (
            "power-ladder",
            format!(r#"{{"power_caps_w": {}}}"#, list(61)),
            "`power_caps_w`",
        ),
        (
            "price-series",
            format!(
                r#"{{"econ": {{"price_usd_per_mwh": {0}, "carbon_g_per_kwh": {0}}}}}"#,
                list(86_401)
            ),
            "`econ.price_usd_per_mwh`",
        ),
    ] {
        let path =
            std::env::temp_dir().join(format!("pmss-oversized-{name}-{}.json", std::process::id()));
        std::fs::write(&path, &body).expect("spec file written");
        let out = Command::new(env!("CARGO_BIN_EXE_pmss"))
            .args(["table", "5", "--spec"])
            .arg(&path)
            .output()
            .expect("pmss runs");
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "{name}: {:?}", out.status);
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        let prefix = format!("pmss: invalid scenario spec: {field} must be at most");
        assert!(stderr.starts_with(&prefix), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
}

/// A bad value is reported under the name the user gave it: `--scale` on
/// the command line, `PMSS_SCALE` from the environment, and a what-if
/// value without the word "value" twice.
#[test]
fn errors_name_the_flag_or_variable_that_carried_the_value() {
    let run = |args: &[&str], scale_env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmss"));
        cmd.args(args).env_remove("PMSS_SCALE");
        if let Some(value) = scale_env {
            cmd.env("PMSS_SCALE", value);
        }
        cmd.output().expect("pmss runs")
    };
    for (args, scale_env, expected) in [
        (
            &["stats", "--scale", "nope"][..],
            None,
            "pmss: invalid --scale value \"nope\": expected quick | medium | large\n",
        ),
        (
            &["stats"][..],
            Some("nope"),
            "pmss: invalid PMSS_SCALE value \"nope\": expected quick | medium | large\n",
        ),
        (
            &["query", "whatif", "freq_mhz", "NaN"][..],
            None,
            "pmss: invalid what-if value \"NaN\": expected a finite cap value\n",
        ),
        (
            &["query", "whatif", "power_w", "four hundred"][..],
            None,
            "pmss: invalid what-if value \"four hundred\": expected a finite cap value\n",
        ),
    ] {
        let out = run(args, scale_env);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {:?}", out.status);
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{args:?}");
    }
}

/// A reader that closes the pipe early (`pmss fig 8 | head -1`) ends the
/// process quietly: `print!` used to panic on the broken pipe and exit
/// 101 with a backtrace.
#[test]
fn closed_stdout_pipe_is_a_quiet_exit_not_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_pmss"))
        .args(["fig", "8"])
        .env_remove("PMSS_SCALE")
        .stdout(writer)
        .output()
        .expect("pmss runs");
    assert_eq!(out.status.code(), Some(0), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

/// A fault plan whose spike is past any sensor's range used to run the
/// whole fleet and then fail on the energy it summed; it is rejected
/// before the run, under the field's name.
#[test]
fn spike_beyond_a_kilowatt_is_rejected_before_the_run() {
    let path = std::env::temp_dir().join(format!("pmss-spike-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"faults": {"spike_w": -1e308, "spike_prob": 0.5}}"#,
    )
    .expect("spec file written");
    let out = Command::new(env!("CARGO_BIN_EXE_pmss"))
        .args(["table", "5", "--spec"])
        .arg(&path)
        .output()
        .expect("pmss runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "pmss: invalid faults.spike_w value \"-1e308\": expected a wattage in [-1000, 1000]\n"
    );
}

/// A clock skew past an hour used to validate, then abort `pmss econ`
/// allocating slots for the skewed timestamps; it is rejected before the
/// run, under the field's name.
#[test]
fn clock_skew_beyond_an_hour_is_rejected_before_the_run() {
    let path = std::env::temp_dir().join(format!("pmss-skew-{}.json", std::process::id()));
    std::fs::write(&path, r#"{"faults": {"clock_skew_max_s": 1e300}}"#).expect("spec file written");
    let out = Command::new(env!("CARGO_BIN_EXE_pmss"))
        .args(["econ", "--spec"])
        .arg(&path)
        .output()
        .expect("pmss runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "pmss: invalid faults.clock_skew_max_s value \"1e300\": \
         expected a number of seconds in [0, 3600]\n"
    );
}
