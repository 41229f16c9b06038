#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# repo root. Everything it writes (Go build cache, binary, span files) goes
# under .bench_build/, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/afmm-benchmark" .)
cd "$root"
exec "$build/afmm-benchmark" -spans "$build/spans" "$@"
