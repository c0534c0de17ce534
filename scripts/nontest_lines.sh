#!/usr/bin/env bash
# Prints the number of non-test Rust lines under crates/.
#
# A non-test line is a line of a `.rs` file outside any `tests/`
# directory that comes before the file's first `#[cfg(test)]`; files
# without one count whole. Blank lines and comments count too: this is
# the size of the code a reader has to hold, not a token count.
#
# Usage: scripts/nontest_lines.sh [repo-root]   (default: this repo)
#
# This is the count CHANGES.md has quoted per change since the text
# assembler was deleted. Until this script, each entry counted by hand,
# and one entry read 29,078 for a tree that reads 29,077 here. Tracked
# and untracked files agree on that tree, no file ends without a
# newline, and every `#[cfg(test)]` opens the file's one `mod tests`, so
# no variant of the definition gives 29,078; the hand count was off by
# one. From here on, quote this script's output.
set -euo pipefail
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"
find crates -name '*.rs' -not -path '*/tests/*' -print0 |
    sort -z |
    xargs -0 awk 'FNR == 1 { done = 0 } /#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }' |
    awk '{ total += $1 } END { print total + 0 }'   # xargs may split the file list
