#!/usr/bin/env sh
# CI gate: every paper figure/table binary must print exactly the
# committed numbers.
#
# Runs the 16 `ianus-bench` binaries in a fixed order, concatenates
# their stdout (each preceded by a `### <binary>` header line) and
# diffs the result against `benches/canonical/figures.txt`. The
# binaries are deterministic and print no wall-clock, so ANY diff
# means a change moved a reproduced paper number.
#
# Usage: ./benches/compare_figures.sh           (check)
#        ./benches/compare_figures.sh --update  (rewrite the golden file)
#   (run from the repo root; builds the binaries if needed)

set -eu

cd "$(dirname "$0")/.."

golden=benches/canonical/figures.txt
bins="ablations cost_analysis fig02 fig08 fig09 fig10 fig11 fig12 fig13 \
fig14 fig15 fig16_functional fig17 fig18 motivation tables"

cargo build --release -p ianus-bench --bins --quiet

current=$(mktemp)
for bin in $bins; do
    echo "### $bin"
    "./target/release/$bin"
done >"$current"

if [ "${1:-}" = "--update" ]; then
    mv "$current" "$golden"
    echo "wrote $golden"
    exit 0
fi

if ! diff -u "$golden" "$current"; then
    echo "FAIL: figure binaries drifted from $golden" >&2
    echo "      (if the change is intentional, regenerate it with" >&2
    echo "       ./benches/compare_figures.sh --update)" >&2
    rm -f "$current"
    exit 1
fi
rm -f "$current"
echo "OK: all 16 figure binaries print the committed numbers"
