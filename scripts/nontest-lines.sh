#!/usr/bin/env bash
# Count the repository's non-test lines of Rust: for every `.rs` file under
# crates/, src/, shims/ and examples/ (skipping tests/ and benches/
# directories), the lines before its first `#[cfg(test)]` line, or all of
# its lines if it has none.  Prints one total.
#
# Run from anywhere inside the repository:
#
#   ./scripts/nontest-lines.sh
#
# The count is how a change that deletes code shows its size: compare the
# total before and after the change.

set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

find crates src shims examples -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' -print0 |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { total++ }
        END { print total + 0 }
    ' |
    # xargs may split a long file list over several awk runs: add them up.
    awk '{ sum += $1 } END { print sum }'
