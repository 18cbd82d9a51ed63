#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/.build/ and runs it from
# the repository root. Everything the Go toolchain writes (build cache,
# module cache, temp files, telemetry) is kept under benchmark/.build/ so a
# run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		go build -o "$build/ccxbench" .
)
cd "$here/.."
exec "$build/ccxbench" "$@"
