#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary)
# stays under .bench_build at the repository root. The build needs the
# repository's Go module one directory up; without it the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" HOME="$out/home" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
