#!/bin/sh
# Collects the BENCH_JSON result trajectories from every built bench
# harness into one JSON-lines file (see ROADMAP "Collect BENCH_*.json").
#
# Usage: scripts/collect_bench.sh <build-dir> [output-file]
#
# The output file defaults to BENCH.json; set BENCH_PR=<n> (or pass an
# explicit output file) to write the per-PR trajectory name BENCH_PR<n>.json
# that CI uploads as an artifact.
#
# Environment:
#   BENCH_PR=<n>     name the default output BENCH_PR<n>.json
#   ADVOCAT_SMOKE=1  minimal instances (CI regression mode, seconds); also
#                    enables the learned-clause regression guard below
#   ADVOCAT_FULL=1   paper-scale instances (hours)
#
# Exit status is non-zero when any harness fails, so CI fails fast on
# sizing regressions (fig4 exits non-zero when a conclusive cell's minimal
# capacity *definitely* differs from its reference table — an
# unknown/timeout verdict is reported but is not a failure). In smoke mode
# the script additionally fails when the native solver reports zero learned
# clauses on the 2x2 fig4 sizing probe: that would mean CDCL clause
# learning silently stopped working and the incremental speedups are gone.
# It also fails when any native fig4 cell reports "conclusive":false: the
# smoke instances are small enough that an inconclusive cell means a leaf
# degraded to Unknown. And it fails unless fig3's capacity-2 line reports
# "explorer_deadlock":true: the explicit-state explorer must still reach
# the paper's Fig. 3 deadlock.
#
# After collecting, the script diffs the new native sizing times against
# the newest *other* BENCH_PR*.json next to the output (and in the repo
# root) and prints per-scenario and total old/new ratios, so the
# cross-PR perf trajectory is visible directly in CI logs. It then lists
# every sequential native fig4 cell (probe_threads 1) whose conflicts,
# decisions or propagations differ from that trajectory, or whose
# theory_pivots or farkas_explanations do where both trajectories record
# them: those counters are deterministic, so a listed cell means the
# search or the simplex itself changed.
# Both diffs are informational only — they never change the exit status
# (timings on shared CI runners are too noisy to gate on, and a search
# change may be intended).
set -eu

# Previous-trajectory selection, shared by the diff below and the
# --print-prev test mode. Reads candidate paths on stdin (one per line,
# unexpanded globs included) and prints the candidate whose BENCH_PR<n>
# numeric suffix is largest, excluding the output file itself. The suffix
# must be strictly numeric: BENCH_PR9_threads4.json and BENCH.json ride
# the same glob without being per-PR trajectories, and a lexicographic or
# version sort would rank BENCH_PR9 after BENCH_PR10.
select_prev() {
  sp_out_abs=$1
  sp_best=""
  sp_best_num=-1
  while IFS= read -r sp_cand; do
    [ -f "$sp_cand" ] || continue
    sp_num=$(basename "$sp_cand")
    sp_num=${sp_num##BENCH_PR}
    sp_num=${sp_num%.json}
    case $sp_num in
      '' | *[!0-9]*) continue ;;
    esac
    sp_cand_abs="$(cd "$(dirname "$sp_cand")" && pwd)/$(basename "$sp_cand")"
    [ "$sp_cand_abs" = "$sp_out_abs" ] && continue
    if [ "$sp_num" -gt "$sp_best_num" ]; then
      sp_best_num=$sp_num
      sp_best=$sp_cand
    fi
  done
  printf '%s\n' "$sp_best"
}

# List the previous-trajectory candidates for an output path: siblings of
# the output plus the current directory. Unmatched globs survive as
# literals; select_prev's -f test drops them.
prev_candidates() {
  pc_out=$1
  printf '%s\n' "$(dirname "$pc_out")"/BENCH_PR*.json BENCH_PR*.json
}

# Test mode: print the previous trajectory that would be compared against
# the given output file, and exit. scripts/test_collect_bench.sh pins the
# selection rules with this entry point (registered as a ctest).
if [ "${1:-}" = "--print-prev" ]; then
  out=${2:?usage: collect_bench.sh --print-prev <output-file>}
  out_abs="$(cd "$(dirname "$out")" && pwd)/$(basename "$out")"
  prev_candidates "$out" | select_prev "$out_abs"
  exit 0
fi

build_dir=${1:?usage: collect_bench.sh <build-dir> [output-file]}
if [ -n "${2:-}" ]; then
  out=$2
elif [ -n "${BENCH_PR:-}" ]; then
  out="BENCH_PR${BENCH_PR}.json"
else
  out=BENCH.json
fi

if [ ! -d "$build_dir/bench" ]; then
  echo "collect_bench: no bench/ under $build_dir (built with ADVOCAT_BUILD_BENCH=ON?)" >&2
  exit 2
fi

: > "$out"
status=0
for bench in "$build_dir"/bench/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "== running $name" >&2
  log=$(mktemp)
  if ! "$bench" >"$log" 2>&1; then
    echo "!! $name FAILED; last lines:" >&2
    tail -n 20 "$log" >&2
    status=1
  fi
  # Strip everything up to the marker so the output file is plain JSON
  # lines, one per result. The marker is not always at column 0: harnesses
  # that render tables emit it mid-line (e.g. fig4's grid cells).
  sed -n "s/^.*BENCH_JSON //p" "$log" >> "$out"
  rm -f "$log"
done

# Smoke-mode regression guard: clause learning must be *active* on the
# native 2x2 sizing probe. The fig4 harness emits one line per backend
# with the session-cumulative solver stats; a native line with
# "learned_clauses":0 (or no native line at all) fails the run.
if [ -n "${ADVOCAT_SMOKE:-}" ]; then
  native_2x2=$(grep '"bench":"fig4_queue_sizes"' "$out" \
      | grep '"backend":"native"' | grep '"mesh":2' || true)
  if [ -z "$native_2x2" ]; then
    echo "collect_bench: SMOKE GUARD: no native 2x2 fig4 sizing line in $out" >&2
    status=1
  elif echo "$native_2x2" | grep -q '"learned_clauses":0[,}]'; then
    echo "collect_bench: SMOKE GUARD: native 2x2 sizing reports zero learned clauses — CDCL learning is inactive:" >&2
    echo "$native_2x2" >&2
    status=1
  fi
  inconclusive=$(grep '"bench":"fig4_queue_sizes"' "$out" \
      | grep '"backend":"native"' | grep '"conclusive":false' || true)
  if [ -n "$inconclusive" ]; then
    echo "collect_bench: SMOKE GUARD: native fig4 cells are inconclusive — a leaf degraded to Unknown:" >&2
    echo "$inconclusive" >&2
    status=1
  fi
  fig3_reached=$(grep '"bench":"fig3_crosslayer_deadlock"' "$out" \
      | grep '"capacity":2[,}]' | grep '"explorer_deadlock":true' || true)
  if [ -z "$fig3_reached" ]; then
    echo "collect_bench: SMOKE GUARD: fig3's explorer no longer reaches the capacity-2 deadlock:" >&2
    grep '"bench":"fig3_crosslayer_deadlock"' "$out" >&2 || echo "(no fig3 line in $out)" >&2
    status=1
  fi
fi

echo "collect_bench: wrote $(wc -l < "$out" | tr -d ' ') result lines to $out" >&2

# Trajectory diff: the BENCH_PR<n>.json with the largest numeric PR
# suffix (other than $out) wins — see select_prev above. Lines are
# matched per scenario; old trajectories that predate the per-backend
# "backend" field count as native-comparable only when they were collected
# without Z3 — PR2's were Auto/Z3, which the ratio labels call out.
# Candidates are compared against $out by absolute path: the same file can
# show up under two spellings when $out lives in the current directory.
out_abs="$(cd "$(dirname "$out")" && pwd)/$(basename "$out")"
prev=$(prev_candidates "$out" | select_prev "$out_abs")
if [ -n "$prev" ] && command -v python3 >/dev/null 2>&1; then
  echo "collect_bench: trajectory vs $prev (ratio >1 = faster now):" >&2
  python3 - "$prev" "$out" >&2 <<'PYEOF' || true
import json, sys

def load(path):
    rows = {}
    for line in open(path):
        try:
            j = json.loads(line)
        except ValueError:
            continue
        bench = j.get("bench")
        time_key = next(
            (k for k in ("seconds", "sizing_seconds", "total_seconds")
             if k in j), None)
        if bench is None or time_key is None:
            continue
        id_keys = ("mesh", "directory_node", "capacity", "nodes", "vcs",
                   "scenario", "name", "variant", "width", "height")
        ident = tuple((k, j[k]) for k in id_keys if k in j)
        rows.setdefault((bench, ident, j.get("backend")), j[time_key])
    return rows

old, new = load(sys.argv[1]), load(sys.argv[2])
old_backends = {b for (_, _, b) in old}
totals = {}
for (bench, ident, backend), secs in sorted(new.items()):
    # Pre-backend-field trajectories: match any backend's line.
    prev = old.get((bench, ident, backend))
    label = backend or "?"
    if prev is None and None in old_backends:
        prev = old.get((bench, ident, None))
        label = f"{backend or '?'} vs pre-PR4 default backend"
    if prev is None or secs <= 0:
        continue
    key = (bench, label)
    t = totals.setdefault(key, [0.0, 0.0])
    t[0] += prev
    t[1] += secs
for (bench, label), (p, n) in sorted(totals.items()):
    print(f"  {bench} [{label}]: {p:.3f}s -> {n:.3f}s  ratio {p / n:.2f}x")
if not totals:
    print("  (no comparable scenarios)")
PYEOF
  python3 - "$prev" "$out" >&2 <<'PYEOF' || true
import json, sys

COUNTERS = ("conflicts", "decisions", "propagations")
# Compared where both trajectories record them (older ones may not).
SIMPLEX = ("theory_pivots", "farkas_explanations")

def cells(path):
    rows = {}
    for line in open(path):
        try:
            j = json.loads(line)
        except ValueError:
            continue
        if (j.get("bench") != "fig4_queue_sizes"
                or j.get("backend") != "native"
                or j.get("probe_threads", 1) != 1
                or j.get("threads", 1) != 1
                or any(k not in j for k in COUNTERS)):
            continue
        rows[(j.get("mesh"), j.get("directory_node"))] = j
    return rows

old, new = cells(sys.argv[1]), cells(sys.argv[2])
shared = sorted(k for k in new if k in old)
changed = 0
print(f"collect_bench: sequential native fig4 counters vs {sys.argv[1]}:")
for mesh, node in shared:
    o, n = old[(mesh, node)], new[(mesh, node)]
    keys = COUNTERS + tuple(k for k in SIMPLEX if k in o and k in n)
    diffs = [f"{k} {o[k]} -> {n[k]}" for k in keys if o[k] != n[k]]
    if diffs:
        changed += 1
        print(f"  {mesh}x{mesh} dir {node}: " + ", ".join(diffs))
print(f"  {changed} of {len(shared)} cells changed")
PYEOF
fi
exit "$status"
