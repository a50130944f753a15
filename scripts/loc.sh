#!/usr/bin/env bash
# Non-test, non-comment source lines under crates/*/src, per crate and in
# total: the size figure each change reports in CHANGES.md.
#
# A file counts up to its first `#[cfg(test)]` that starts in column 0
# (the unit-test module; the attribute quoted inside a doc comment does
# not end the count). Blank lines and lines whose first non-blank
# characters are `//` (comments and doc comments) are skipped.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's repo)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }
    ' | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
