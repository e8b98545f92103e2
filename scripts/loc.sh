#!/usr/bin/env bash
# Per-crate and total counts of two things in the shipped sources
# (crates/*/src/**/*.rs and src/**/*.rs):
#   lines  non-test lines: every line except the items gated by `#[cfg(test)]`
#          (the attribute, any attributes after it, and the item: one line
#          for a `use` or other `;` item, otherwise up to its closing brace)
#   pub    of those, the lines starting (after indentation) with `pub ` or `pub(`
#
# Braces are counted as written, so a gated item with an unbalanced brace in a
# string or char literal would end early or late; the sources have none.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (defaults to the repository holding this script)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() {
    # Prints "<lines> <pub>" for the .rs files under the given directory.
    # State per file: `gated` while skipping a `#[cfg(test)]` item, `opened`
    # once its body brace was seen, `depth` its open braces.
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        # Skip one line of a gated item; clears `gated` once the item ends.
        function skip(line,    opens) {
            opens = gsub(/\{/, "{", line)
            depth += opens - gsub(/\}/, "}", line)
            if (opens > 0) opened = 1
            if (opened ? depth <= 0 : line ~ /;[[:space:]]*(\/\/.*)?$/) gated = 0
        }
        FNR == 1 { gated = 0 }
        gated {
            # Attributes and comments between `#[cfg(test)]` and its item.
            if (!opened && $0 ~ /^[[:space:]]*(#\[|\/\/|$)/) next
            skip($0)
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ {
            gated = 1
            opened = 0
            depth = 0
            rest = $0
            sub(/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*/, "", rest)
            if (rest != "") skip(rest)
            next
        }
        {
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
