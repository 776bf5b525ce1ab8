#!/bin/sh
# Counts non-test Rust lines in the workspace: for each source file, the
# lines before its first `#[cfg(test)]` (the whole file if it has none).
# Integration tests (`tests/`, `crates/*/tests`), the vendored shims
# (`vendor/`), the benchmark harness (`perfbench/`) and build output
# (`target/`) are excluded.
#
# Usage: scripts/nontest_lines.sh [-v]
#   -v  also print the count per file, largest first.
set -eu
cd "$(dirname "$0")/.."
files=$(find . -name '*.rs' \
    -not -path './target/*' \
    -not -path './vendor/*' \
    -not -path './perfbench/*' \
    -not -path './tests/*' \
    -not -path './crates/*/tests/*' | sort)
# shellcheck disable=SC2086
awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { n[FILENAME]++; total++ }
    END {
        if (verbose) for (f in n) printf "%7d %s\n", n[f], f | "sort -rn"
        close("sort -rn")
        printf "%d\n", total
    }
' verbose="$( [ "${1:-}" = "-v" ] && echo 1 || echo 0 )" $files
