#!/usr/bin/env bash
# Builds `pmss` and the benchmark harness from source, then runs the harness.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is its JSON result
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#       every workload, untraced then traced; writes benchmark/out/results.json
#
# Exits non-zero when a build fails or an output check does.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds.  A relative CARGO_TARGET_DIR means
# relative to the checkout root, where the caller stands.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the run's own lines.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin pmss >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

# What the harness records beside every result but must not spawn a child
# to learn.  The driver's checkout is not a git repository.
export PMSS_BENCH_RUSTC="$(rustc -V 2>/dev/null || true)"
export PMSS_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"

mode=()
case " $* " in
    *" --workload "*) ;;
    *" suite "* | *" repeat "*) ;;
    *) mode=(suite) ;;
esac

# Not `exec`: the harness reads its children's peak RSS, and a process
# that replaces this shell would inherit cargo and rustc as children.
"$target/release/pmss-benchmark" \
    --pmss "$target/release/pmss" --out "$root/benchmark/out" "${mode[@]}" "$@"
