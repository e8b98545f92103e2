#!/usr/bin/env bash
# Per-crate and total counts of five things in the shipped sources
# (crates/*/src/**/*.rs and src/**/*.rs) and manifests:
#   lines  non-test lines: every line except the items gated by `#[cfg(test)]`
#          (the attribute, any attributes after it, and the item: one line
#          for a `use` or other `;` item, otherwise up to its closing brace)
#   pub    of those, the lines starting (after indentation) with a bare `pub `;
#          `pub(crate)`, `pub(super)` and `pub(in ..)` lines do not count
#   panics of those, the lines containing `.unwrap()`, `.expect(`, `panic!` or
#          `unreachable!` (comments included; `assert!` and `debug_assert!`
#          do not count)
#   unref  of those, the top-level (unindented) `pub` fn, struct, enum, union,
#          const, trait, type, static and mod items whose name appears in no
#          `.rs` file outside the library's own `src/`: not in another crate,
#          not in a bin (`src/bin/`), not in any `tests/` or `examples/`. Such
#          an item is public only because it is re-exported or sits in a
#          public signature; anything else should be `pub(crate)`.
#   deps   workspace crates (the packages under crates/) the package's
#          Cargo.toml lists under `[dependencies]`; dev-dependencies and
#          the stand-ins under third_party/ do not count
#
# Braces are counted as written, so a gated item with an unbalanced brace in a
# string or char literal would end early or late; the sources have none.
# Names are matched as whole identifiers anywhere in a file, comments included.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (defaults to the repository holding this script)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Every .rs file a library's public items can be named from.
all_sources() {
    find crates src tests examples -name '*.rs' 2>/dev/null | sort
}

count() {
    # Prints one "name <ident>" line per top-level `pub` item of the library
    # sources under the given directory (bins excluded), then
    # "<lines> <pub> <panics>" for all of its sources.
    # State per file: `gated` while skipping a `#[cfg(test)]` item, `opened`
    # once its body brace was seen, `depth` its open braces.
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk -v bin="$1/bin/" '
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
            if ($0 ~ /\.unwrap\(\)|\.expect\(|panic!|unreachable!/) panics++
            if ($0 !~ /^[[:space:]]*pub /) next
            pubs++
            if (index(FILENAME, bin) == 1) next
            item = $0
            if (!sub(/^pub ((const|async|unsafe) )*(fn|struct|enum|union|const|trait|type|static( mut)?|mod) /, "", item)) next
            if (match(item, /^[A-Za-z_][A-Za-z0-9_]*/)) print "name", substr(item, 1, RLENGTH)
        }
        END { printf "%d %d %d\n", lines, pubs, panics }
    '
}

# Prints how many of the names in `$2` (one a line) appear in no source
# outside `$1` (bins under `$1/bin/` count as outside).
unref() {
    all_sources | awk -v own="$1/" -v bin="$1/bin/" 'index($0, own) != 1 || index($0, bin) == 1' |
        xargs -r grep -ohE '[A-Za-z_][A-Za-z0-9_]*' |
        awk -v names="$2" '
            { named[$0] = 1 }
            END {
                k = split(names, list, "\n")
                for (i = 1; i <= k; i++) if (list[i] != "" && !(list[i] in named)) n++
                print n + 0
            }'
}

# The package names of the workspace crates, one a line.
crate_names() {
    awk '
        /^\[/ { in_pkg = ($0 == "[package]"); next }
        in_pkg && match($0, /^name[[:space:]]*=[[:space:]]*"[^"]+"/) {
            split(substr($0, RSTART, RLENGTH), parts, "\"")
            print parts[2]
        }
    ' crates/*/Cargo.toml
}

# Prints how many of the crates named in `$2` (one a line) the manifest `$1`
# lists under `[dependencies]`.
deps() {
    awk -v names="$2" '
        BEGIN { k = split(names, list, "\n"); for (i = 1; i <= k; i++) crate[list[i]] = 1 }
        /^\[/ { in_deps = ($0 == "[dependencies]"); next }
        in_deps && match($0, /^[A-Za-z0-9_-]+/) && (substr($0, RSTART, RLENGTH) in crate) { n++ }
        END { print n + 0 }
    ' "$1"
}

crates=$(crate_names)
printf '%-12s %8s %6s %6s %6s %6s\n' crate lines pub panics unref deps
total_lines=0
total_pub=0
total_panics=0
total_unref=0
total_deps=0
for dir in crates/*/src src; do
    [ -d "$dir" ] || continue
    if [ "$dir" = src ]; then
        name=memo
        manifest=Cargo.toml
    else
        name=$(basename "$(dirname "$dir")")
        manifest=$(dirname "$dir")/Cargo.toml
    fi
    out=$(count "$dir")
    lines=0
    pubs=0
    panics=0
    while read -r a b c _; do
        [ "$a" = name ] || { lines=$((lines + a)); pubs=$((pubs + b)); panics=$((panics + c)); }
    done <<<"$out"
    unrefs=$(unref "$dir" "$(awk '$1 == "name" { print $2 }' <<<"$out")")
    ndeps=$(deps "$manifest" "$crates")
    printf '%-12s %8d %6d %6d %6d %6d\n' "$name" "$lines" "$pubs" "$panics" "$unrefs" "$ndeps"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pubs))
    total_panics=$((total_panics + panics))
    total_unref=$((total_unref + unrefs))
    total_deps=$((total_deps + ndeps))
done
printf '%-12s %8d %6d %6d %6d %6d\n' total "$total_lines" "$total_pub" "$total_panics" "$total_unref" "$total_deps"
