#!/usr/bin/env bash
# Per-crate and total counts of two things in the shipped sources
# (crates/*/src/**/*.rs and src/**/*.rs):
#   lines  non-test lines: the lines before each file's first `#[cfg(test)]`
#   pub    of those, the lines starting (after indentation) with `pub ` or `pub(`
#
# Usage: scripts/loc.sh [REPO_ROOT]   (defaults to the repository holding this script)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() {
    # Prints "<lines> <pub>" for the .rs files under the given directory.
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live {
            lines++
            if ($0 ~ /^[[:space:]]*pub[ (]/) pubs++
        }
        END { printf "%d %d\n", lines, pubs }
    ' | awk '{ lines += $1; pubs += $2 } END { printf "%d %d\n", lines, pubs }'
}

printf '%-12s %8s %6s\n' crate lines pub
total_lines=0
total_pub=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    if [ "$dir" = src ]; then name=memo; else name=$(basename "$(dirname "$dir")"); fi
    read -r lines pubs < <(count "$dir")
    printf '%-12s %8d %6d\n' "$name" "$lines" "$pubs"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pubs))
done
printf '%-12s %8d %6d\n' total "$total_lines" "$total_pub"
