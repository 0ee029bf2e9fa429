#!/usr/bin/env bash
# Runs every fuzz target in the module, each for the given -fuzztime. The
# targets are discovered (`go test -list '^Fuzz'`, package by package), so a
# new one is fuzzed by ci.yml's smoke and nightly.yml's long run without
# either workflow naming it.
#
#   scripts/fuzz.sh 10s
set -euo pipefail
fuzztime=${1:?usage: scripts/fuzz.sh <fuzztime, e.g. 10s or 5m>}
cd "$(dirname "$0")/.."

found=0
for pkg in $(go list ./...); do
  # -fuzz takes one target of one package per run.
  for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
    found=$((found + 1))
    echo "== $pkg $target ($fuzztime)"
    go test -fuzz="^${target}\$" -fuzztime="$fuzztime" -run='^$' "$pkg"
  done
done
if [ "$found" -eq 0 ]; then
  echo "scripts/fuzz.sh: no fuzz target found" >&2
  exit 1
fi
echo "fuzzed $found targets"
