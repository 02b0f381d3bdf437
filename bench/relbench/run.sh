#!/usr/bin/env bash
# Builds relbench (Release, into build-relbench/ at the repository root;
# build/ is never touched) and runs it from the repository root.
#
#   bench/relbench/run.sh --seed 1                   # all four workloads
#   bench/relbench/run.sh --workload orders --seed 3 --seconds 20 --trace 1
#
# Arguments pass through to the relbench binary (see README.md). Without
# --workload every workload runs in turn, each in its own process. Build
# output goes to stderr, so the last line of stdout is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-relbench"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2

# Provenance for the result records: the commit when this is a git
# checkout, and a digest of the library sources either way.
RELBENCH_GIT_SHA=unknown
if [ -d "$root/.git" ]; then
  RELBENCH_GIT_SHA="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
RELBENCH_SOURCE_DIGEST="$(cd "$root" && find src -type f -print0 | sort -z |
  xargs -0 sha256sum | sha256sum | cut -c1-16)"
export RELBENCH_GIT_SHA RELBENCH_SOURCE_DIGEST

cd "$root"
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then exec "$build/relbench" "$@"; fi
done
status=0
for workload in analytics orders reach_serve reach_update; do
  "$build/relbench" --seconds 20 --trace 0 --workload "$workload" "$@" ||
    status=1
done
exit "$status"
