//! The environment a result was measured in, recorded beside it so two
//! results are only compared when they came from like machines.

use crate::surface::Json;

#[derive(Debug, Clone)]
pub struct Environment {
    pub git_commit: String,
    pub seed: u64,
    pub nproc: usize,
    /// As the user had it; the harness never sets it.  The load comes from
    /// one harness thread and one connection.
    pub rayon_num_threads: String,
    pub rustc: String,
    pub cpu_model: String,
    pub load_1m: f64,
    /// The 1-minute load average at start exceeded half of `nproc`.
    pub noisy: bool,
    pub smoke: bool,
}

/// `run.sh` exports what only a child process could find out (the harness
/// spawns none of its own besides the program: its children's peak RSS is a
/// metric).
fn exported(var: &str) -> String {
    std::env::var(var)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

impl Environment {
    pub fn capture(seed: u64, smoke: bool) -> Environment {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let load_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|t| t.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        Environment {
            git_commit: exported("PMSS_BENCH_COMMIT"),
            seed,
            nproc,
            rayon_num_threads: std::env::var("RAYON_NUM_THREADS")
                .unwrap_or_else(|_| "unset".to_string()),
            rustc: exported("PMSS_BENCH_RUSTC"),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            load_1m,
            noisy: load_1m > nproc as f64 / 2.0,
            smoke,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("git_commit", self.git_commit.as_str())
            .field("seed", self.seed)
            .field("nproc", self.nproc)
            .field("rayon_num_threads", self.rayon_num_threads.as_str())
            .field("rustc", self.rustc.as_str())
            .field("cpu_model", self.cpu_model.as_str())
            .field("load_1m", self.load_1m)
            .field("noisy", self.noisy)
            .field("smoke", self.smoke)
    }
}

/// What this process holds resident right now, in MB; 0 where `/proc` does
/// not say.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set, in MB, of this process (`children == false`) or of
/// the largest child it has waited for (`children == true`).  64-bit Linux
/// only, like the `/proc` reads above.
pub fn peak_rss_mb(children: bool) -> f64 {
    // `struct rusage` there: two `timeval`s (four longs) followed by
    // fourteen longs, of which the first is `ru_maxrss` in KiB.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: `getrusage` writes one `struct rusage` (144 bytes on 64-bit
    // Linux) through the pointer; `usage` is exactly that size, writable,
    // and lives past the call.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage takes no argument that can be invalid here"
    );
    usage[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_json_parses_and_flags_noise() {
        let mut env = Environment::capture(7, true);
        env.cpu_model = "Some \"quoted\" CPU \\ model".to_string();
        let doc = Json::parse(&env.to_json().to_string_compact()).expect("environment JSON parses");
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            doc.get("cpu_model").and_then(Json::as_str),
            Some("Some \"quoted\" CPU \\ model")
        );
        assert_eq!(env.noisy, env.load_1m > env.nproc as f64 / 2.0);
    }

    #[test]
    fn this_process_has_a_resident_set() {
        assert!(peak_rss_mb(false) > 1.0);
    }
}
