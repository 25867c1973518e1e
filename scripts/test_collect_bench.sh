#!/bin/sh
# Regression test for collect_bench.sh's previous-trajectory selection
# (the --print-prev entry point): the numeric PR suffix decides — not
# lexicographic or version order — and artifacts that ride the same
# BENCH_PR* glob without being per-PR trajectories (threads variants,
# non-numeric suffixes) are ignored. The last cases run whole collections
# over stub fig4 harnesses: the counter diff against the previous
# trajectory, the smoke guard on inconclusive native cells and the one on
# fig3's explorer. Registered as the ctest `collect_bench_select_prev`.
set -eu

script_dir=$(CDPATH='' cd -- "$(dirname -- "$0")" && pwd)
collect="$script_dir/collect_bench.sh"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
cd "$tmp"

fail() {
  echo "test_collect_bench: FAIL: $1" >&2
  exit 1
}

# check <description> <output-file> <expected-basename-or-empty>
check() {
  got=$("$collect" --print-prev "$2")
  if [ -n "$got" ]; then got=$(basename "$got"); fi
  [ "$got" = "$3" ] || fail "$1: want '$3', got '$got'"
}

# No candidates at all: selection is empty, not an error.
check "empty directory selects nothing" BENCH_PR1.json ""

: > BENCH_PR2.json
: > BENCH_PR9.json
: > BENCH_PR10.json

# PR9 sorts after PR10 lexicographically and version-sort ranks the
# basenames, not the PR numbers, once suffixes enter the glob — the
# numeric suffix must decide.
check "numeric suffix beats lexicographic order" \
  BENCH_PR11.json BENCH_PR10.json

# The output file itself is never its own previous trajectory.
check "output file is excluded" BENCH_PR10.json BENCH_PR9.json

# Artifacts riding the glob without a strictly numeric suffix are not
# trajectories: the threads variant and a malformed name must not win
# even though both version-sort after BENCH_PR10.json.
: > BENCH_PR10_threads4.json
: > BENCH_PRx.json
check "non-numeric suffixes are ignored" BENCH_PR11.json BENCH_PR10.json

# A default-named output still diffs against the newest PR trajectory.
check "BENCH.json output compares against newest PR" \
  BENCH.json BENCH_PR10.json

# Candidates next to an output in another directory are found too (and
# compete numerically with the current directory's trajectories).
mkdir sub
: > sub/BENCH_PR12.json
check "siblings of the output directory are candidates" \
  sub/BENCH_PR13.json BENCH_PR12.json

# Counter diff: a stub build whose only harness prints three fig4 cells.
# Against the previous trajectory, the sequential native cell 2x2 dir 1
# changed its conflicts and decisions and must be listed; 2x2 dir 0 is
# unchanged, and the z3 and probe_threads 4 cells changed but are not
# sequential native cells, so none of those three may appear.
mkdir diff
cd diff
cell() {  # cell <backend> <node> <probe_threads> <conflicts> <decisions>
  printf '{"bench":"fig4_queue_sizes","backend":"%s","mesh":2,' "$1"
  printf '"directory_node":%s,"probe_threads":%s,' "$2" "$3"
  printf '"conflicts":%s,"decisions":%s,"propagations":70,' "$4" "$5"
  printf '"seconds":0.01}\n'
}
{
  cell native 0 1 10 20
  cell native 1 1 11 21
  cell z3 1 1 12 22
  cell native 2 4 13 23
} > BENCH_PR16.json
mkdir -p build/bench
{
  echo '#!/bin/sh'
  printf "echo 'BENCH_JSON %s'\n" "$(cell native 0 1 10 20)" \
    "$(cell native 1 1 15 25)" "$(cell z3 1 1 99 22)" \
    "$(cell native 2 4 99 23)"
} > build/bench/fig4_queue_sizes
chmod +x build/bench/fig4_queue_sizes
ADVOCAT_SMOKE='' BENCH_PR='' "$collect" build BENCH_PR17.json 2> log \
  || fail "collection over the stub harness failed: $(cat log)"
grep -q '^  2x2 dir 1: conflicts 11 -> 15, decisions 21 -> 25$' log \
  || fail "changed cell not listed: $(cat log)"
grep -q '^  1 of 2 cells changed$' log \
  || fail "wrong changed-cell count: $(cat log)"
if grep -q 'dir 0:\|dir 2:' log; then
  fail "unchanged or parallel cell listed: $(cat log)"
fi
# A cell whose search counters hold but whose simplex pivots moved is
# listed too; a trajectory without the simplex counters compares only the
# search ones.
pivots() {  # pivots <node> [theory_pivots]: none recorded when omitted
  printf '{"bench":"fig4_queue_sizes","backend":"native","mesh":2,'
  printf '"directory_node":%s,"conflicts":1,"decisions":2,' "$1"
  if [ $# -gt 1 ]; then
    printf '"theory_pivots":%s,"farkas_explanations":4,' "$2"
  fi
  printf '"propagations":3}\n'
}
{ pivots 0 5; pivots 1 6; pivots 2; } > BENCH_PR17.json
{
  echo '#!/bin/sh'
  printf "echo 'BENCH_JSON %s'\n" "$(pivots 0 5)" "$(pivots 1 7)" \
    "$(pivots 2 9)"
} > build/bench/fig4_queue_sizes
ADVOCAT_SMOKE='' BENCH_PR='' "$collect" build BENCH_PR18.json 2> log \
  || fail "collection over the pivot stub failed: $(cat log)"
grep -q '^  2x2 dir 1: theory_pivots 6 -> 7$' log \
  || fail "cell with changed pivots not listed: $(cat log)"
grep -q '^  1 of 3 cells changed$' log \
  || fail "wrong changed-cell count with pivots: $(cat log)"
cd ..

# Smoke guard: a native fig4 cell reporting "conclusive":false fails a
# smoke collection even with clause learning active; the same cell
# reported conclusive passes. A fig3 stub whose explorer reaches the
# deadlock rides along, so only the fig4 cell decides.
mkdir smoke
cd smoke
mkdir -p build/bench
smoke_stub() {  # smoke_stub <true|false>
  {
    echo '#!/bin/sh'
    printf "echo 'BENCH_JSON %s'\n" \
      "{\"bench\":\"fig4_queue_sizes\",\"backend\":\"native\",\"mesh\":2,\"conclusive\":$1,\"learned_clauses\":5}"
  } > build/bench/fig4_queue_sizes
  chmod +x build/bench/fig4_queue_sizes
}
fig3_stub() {  # fig3_stub <true|false>: did the explorer reach the deadlock
  {
    echo '#!/bin/sh'
    printf "echo 'BENCH_JSON %s'\n" \
      "{\"bench\":\"fig3_crosslayer_deadlock\",\"capacity\":2,\"verdict\":\"deadlock\",\"explorer_deadlock\":$1,\"explorer_states\":1012}" \
      "{\"bench\":\"fig3_crosslayer_deadlock\",\"capacity\":3,\"verdict\":\"free\"}"
  } > build/bench/fig3_crosslayer_deadlock
  chmod +x build/bench/fig3_crosslayer_deadlock
}
fig3_stub true
smoke_stub false
if ADVOCAT_SMOKE=1 BENCH_PR='' "$collect" build BENCH.json 2> log; then
  fail "inconclusive native cell passed the smoke guard: $(cat log)"
fi
grep -q 'SMOKE GUARD: native fig4 cells are inconclusive' log \
  || fail "smoke guard did not name the inconclusive cell: $(cat log)"
smoke_stub true
ADVOCAT_SMOKE=1 BENCH_PR='' "$collect" build BENCH.json 2> log \
  || fail "conclusive native cell failed the smoke guard: $(cat log)"

# Smoke guard: fig3's capacity-2 line must report that the explorer
# reached the deadlock; with every fig4 cell fine, "explorer_deadlock":
# false alone fails the collection.
fig3_stub false
if ADVOCAT_SMOKE=1 BENCH_PR='' "$collect" build BENCH.json 2> log; then
  fail "unreached fig3 deadlock passed the smoke guard: $(cat log)"
fi
grep -q "SMOKE GUARD: fig3's explorer no longer reaches the capacity-2 deadlock" log \
  || fail "smoke guard did not name fig3's explorer: $(cat log)"
cd ..

echo "test_collect_bench: PASS"
