#!/usr/bin/env bash
# Runs the benchmark twice on the same build and judges every workload ×
# end-to-end metric against its own bound: two sets of 10 untraced runs per
# workload, each run on another seed.  Prints both
# medians, how much worse the second is, both interquartile spreads, the
# bound, and PASS/FAIL; exits non-zero on any FAIL.
#
#   benchmark/repeat.sh [--seed <n>] [--seconds <s>]
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" repeat "$@"
