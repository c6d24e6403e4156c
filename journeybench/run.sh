#!/usr/bin/env bash
# Builds the journey benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash journeybench/run.sh --workload hop_chain --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary and Go build cache) stay under .bench_build/ in
# the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/journeybench" .)
# Provenance: the commit when the checkout is a git repository, and in
# any case a digest of the Go sources the binary was built from.
JOURNEYBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
JOURNEYBENCH_SOURCE="$(cd "$root" && find . \( -path ./.bench_build -o -path ./.git \) -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
export JOURNEYBENCH_COMMIT JOURNEYBENCH_SOURCE
exec "$out/journeybench" "$@"
