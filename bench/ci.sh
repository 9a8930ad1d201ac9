#!/usr/bin/env bash
# CI for the benchmark itself: static checks, the tier-1-fast tests
# (helpers, profile fixture, 1/20-scale smoke of all four workloads and
# every probe), then two small result sets of the same commit compared
# with themselves.
#
#   bash bench/ci.sh
#
# The self-compare must find every same-seed digest and virtual-clock
# metric identical (exit 4 otherwise). Timing verdicts at smoke scale
# are printed but not gated: a 1/20-scale window lasts a few hundred
# milliseconds, far too short to hold the bounds BENCHMARK.json fixes for
# the full-size runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$here"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: $unformatted" >&2
	exit 1
fi
go vet ./...
go test -short -count=1 ./...

cd "$root"
smoke=(-scale 0.05 -seconds 1 -setups 1 -runs 2)
bash bench/run.sh "${smoke[@]}" -out "$build/ci-a.json" >/dev/null
bash bench/run.sh "${smoke[@]}" -out "$build/ci-b.json" >/dev/null
status=0
bash bench/run.sh -compare "$build/ci-a.json" "$build/ci-b.json" || status=$?
case "$status" in
0 | 1) echo "bench ci: ok (digests and virtual-clock metrics identical)" ;;
*) exit "$status" ;;
esac
