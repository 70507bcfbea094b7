#!/usr/bin/env bash
# Non-test Rust lines: every .rs file under crates/*/src and src/, counted
# up to its first `#[cfg(test)]` at column 0, the line that opens the
# file's unit-test module (an indented `#[cfg(test)]` on a field or an
# item does not stop the count). Prints one line per source directory,
# then the total.
#
# Usage: scripts/loc.sh [repo-root]   (default: this script's repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in crates/*/src src; do
  lines="$(find "$dir" -name '*.rs' -print0 | sort -z \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')"
  printf '%7d  %s\n' "$lines" "$dir"
  total=$((total + lines))
done
printf '%7d  total\n' "$total"
