#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cg-1024 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# profiles, span dumps) goes under .bench_build/ in the repository root.
# The last line of standard output is the result JSON; build output and
# progress notes go to standard error.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/results"

# Keep the toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	for w in cg-1024 fuzz-matrix paper-quick; do
		"$out/perfbench" --results "$out/results" --commit "$commit" --workload "$w" "$@"
	done
	exit 0
fi
exec "$out/perfbench" --results "$out/results" --commit "$commit" "$@"
