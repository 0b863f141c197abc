#!/usr/bin/env bash
# The command of BENCHMARK.json: builds unifybench from source and runs it with
# the arguments given. The current directory must be the root of a checkout of
# the repository. Everything the build and the run write — Go's build cache,
# temp files and telemetry, the binary, durable_burst's journal — stays under
# .bench_build there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/data"
export TMPDIR="$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
	go build -o "$build/unifybench" ./cmd/unifybench
)
exec "$build/unifybench" -data-root "$build/data" "$@"
