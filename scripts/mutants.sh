#!/usr/bin/env bash
# Mutation check without a mutation-testing tool: each mutant below is one
# exact line of the source replaced by another.  For each, the script
# applies it to a scratch copy of the working tree under target/mutants/,
# runs the test named to kill it (a debug build, as the tier-1 tests run),
# and restores the line.  docs/ARCHITECTURE.md ("Mutants the tests kill")
# lists every other test known to kill each one.
#
# Run from anywhere inside the repository:
#
#   ./scripts/mutants.sh
#
# Exits non-zero if a mutant survives its test, if its original line is no
# longer in its file exactly once (edit the list along with the code), or
# if a mutant does not compile.  The first run builds the copy from
# scratch; later runs rebuild only what each mutant touches.

set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
root=$PWD
tree=$root/target/mutants/tree
export CARGO_TARGET_DIR=$root/target/mutants/target
# Some mutants leave an import or a binding unused; that must not stop the
# build where warnings are denied.
export RUSTFLAGS="${RUSTFLAGS:-} --cap-lints=warn"

# The working tree as git sees it: tracked and untracked files, ignored ones
# skipped, uncommitted edits included.
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    tar --null --files-from=- --ignore-failed-read -cf - 2>/dev/null |
    tar -xf - -C "$tree"
cd "$tree"

failures=0

# mutant NAME FILE TEST_ARGS TEST ORIGINAL REPLACEMENT
#   TEST_ARGS selects the test binary (`-p <package> --lib` or
#   `-p <package> --test <target>`); TEST is the killing test's full name.
mutant() {
    local name=$1 file=$2 test_args=$3 test=$4 original=$5 replacement=$6
    local target=$tree/$file log=$root/target/mutants/$name.log
    local found
    found=$(grep -cxF -- "$original" "$target" || true)
    if [ "$found" != 1 ]; then
        echo "MISSING  $name: the original line occurs $found times in $file"
        failures=$((failures + 1))
        return
    fi
    OLD=$original NEW=$replacement awk '
        $0 == ENVIRON["OLD"] { print ENVIRON["NEW"]; next }
        { print }
    ' "$root/$file" > "$target"
    # shellcheck disable=SC2086 # TEST_ARGS is a word list on purpose.
    if ! cargo test -q $test_args --no-run > "$log" 2>&1; then
        echo "BROKEN   $name: does not compile (see $log)"
        failures=$((failures + 1))
    elif cargo test -q $test_args -- --exact "$test" >> "$log" 2>&1; then
        if grep -q '^running 1 test' "$log"; then
            echo "SURVIVED $name: $test passes"
        else
            echo "MISSING  $name: no test named $test"
        fi
        failures=$((failures + 1))
    else
        echo "KILLED   $name by $test"
    fi
    cp "$root/$file" "$target"
}

mutant router-front-not-refreshed crates/sim/src/router.rs \
    "-p wnoc-sim --lib" router::tests::wormhole_hold_keeps_output_for_the_whole_packet \
    '                    let id = self.pop(arena, ii, vc);' \
    '                    let id = self.inputs[ii * self.vc_count + vc].as_mut().and_then(FlitBuffer::pop).expect("held front"); self.buffered -= 1;'

mutant drain-values-ignored crates/core/src/analysis/incremental.rs \
    "-p wnoc-core --lib" analysis::incremental::tests::a_changed_drain_value_invalidates_readers_off_the_changed_route \
    '            for &((router, output), before) in &self.delta.dropped_drains {' \
    '            for &((router, output), before) in &self.delta.dropped_drains[..0] {'

mutant flip-never-reported crates/core/src/weights.rs \
    "-p wnoc-core --lib" analysis::regular::tests::dropped_drains_carry_their_values_from_before_the_delta \
    '        flipped' \
    '        false'

mutant re-offer-period-loosened crates/core/src/analysis/preemptive.rs \
    "-p wnoc-conformance --lib" campaign::tests::saturating_vc_scenarios_pass_by_bound \
    '                    lone_message_latency(hops, max_packet_flits)' \
    '                    crate::config::zero_load_head_latency(hops) + u64::from(max_packet_flits) - 1'

mutant support-toggled-only-on-add crates/core/src/weights.rs \
    "-p wnoc-core --lib" analysis::regular::tests::apply_route_delta_matches_fresh_model \
    '        if flipped {' \
    '        if flipped && add {'

mutant touched-marks-never-cleared crates/core/src/analysis/incremental.rs \
    "-p wnoc-core --lib" analysis::incremental::tests::mutation_sequence_matches_suite \
    '            self.touched_marks[column] = false;' \
    ''

mutant link-failures-uncounted crates/core/src/fault.rs \
    "-p wnoc-core --lib" fault::tests::repeated_adds_count_once_and_outside_adds_are_ignored \
    '            self.failed += 1;' \
    '            self.failed += usize::from(matches!(kind, FaultKind::Router { .. }));'

if [ "$failures" -ne 0 ]; then
    echo "$failures mutant check(s) failed"
    exit 1
fi
echo "every mutant killed"
