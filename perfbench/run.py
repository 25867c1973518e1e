#!/usr/bin/env python3
"""ADVOCAT benchmark: build the driver, run one workload, print its metrics.

  python3 perfbench/run.py --workload sizing_4x4 --seed 1 --seconds 30 --trace 0

Builds perfbench_driver from the checkout's sources (an optimized, native-only
build under .bench_build, or $CARGO_TARGET_DIR when set), then runs whole
passes of the workload, each in a fresh process, until --seconds have been
measured (at least one pass). Every answer is checked against the paper's
reference values, and every exact counter against the earlier runs of the
same build. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass and writes its spans as Chrome trace-event JSON. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("sizing_4x4", "certified_3x3", "hunt_5x5")

# Each of these changes the program under measurement; the driver refuses
# to run with any of them set, so they are removed from its environment.
FOREIGN_ENV = (
    "ADVOCAT_THREADS", "ADVOCAT_PARALLEL", "ADVOCAT_DETERMINISTIC",
    "ADVOCAT_AUDIT", "ADVOCAT_FAULTS", "ADVOCAT_REDUCE_BASE",
    "ADVOCAT_REDUCE_INC", "ADVOCAT_NATIVE_STATS",
)

# A run must end within this many seconds once the build is done.
RUN_BUDGET_S = 170.0

MIB = 1024.0 * 1024.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build_driver():
    """Configures and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no ADVOCAT sources next to {BENCH_DIR.name}/; nothing to build")
        sys.exit(2)
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "perfbench_driver"


def build_id():
    """Hash of every source the driver is built from: one build, one id."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    files += sorted(p for p in BENCH_DIR.iterdir()
                    if p.suffix in (".cpp", ".hpp", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    for var in FOREIGN_ENV:
        if env.pop(var, None) is not None:
            log(f"removed {var} from the driver's environment")
    return env


def run_pass(driver, args, trace_file, timeout):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--input-seed", str(args.input_seed), "--scale", args.scale,
           "--reference-offset", str(args.reference_offset)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("driver pass timed out")
        return None
    if proc.returncode != 0 or not out.strip():
        log(f"driver exited with {proc.returncode}: {err.strip()[-2000:]}")
        return None
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------ determinism

def exact_counters(result):
    """The counters a sequential run must repeat exactly, in task-id order."""
    return sorted(({"id": t["id"], **t["exact"]} for t in result["tasks"]),
                  key=lambda c: c["id"])


def check_counters(state_file, counters, untraced_run_s=None):
    """Compares counters with the first run of this build on these inputs.

    Returns a list of mismatch descriptions (empty when they repeat). The
    first run records them; untraced runs also record their run_s so a
    traced run can report the tracing overhead.
    """
    state = {}
    if state_file.is_file():
        state = json.loads(state_file.read_text())
    mismatches = []
    if "exact" not in state:
        state["exact"] = counters
    elif state["exact"] != counters:
        for old, new in zip(state["exact"], counters):
            for key in sorted(set(old) | set(new)):
                if old.get(key) != new.get(key):
                    mismatches.append(f"{old.get('id')}.{key}: "
                                      f"{old.get(key)} -> {new.get(key)}")
        if len(state["exact"]) != len(counters):
            mismatches.append("task count differs")
    if untraced_run_s is not None:
        state.setdefault("untraced_run_s", []).append(untraced_run_s)
    state_file.parent.mkdir(parents=True, exist_ok=True)
    state_file.write_text(json.dumps(state))
    return mismatches


# ---------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def harrell_davis_median(values):
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-
    weighted mean of the order statistics. Unlike the sample median it
    does not rest on one task's time, so host noise on that task moves it
    far less."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2.0
    steps = 4000  # midpoint rule for the Beta(a, a) CDF at i/n
    dens = [((k + 0.5) / steps * (1 - (k + 0.5) / steps)) ** (a - 1)
            for k in range(steps)]
    total = sum(dens)
    cdf = [sum(dens[:round(steps * i / n)]) / total for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(passes):
    med = statistics.median
    return {
        "run_s": metric(med(p["run_s"] for p in passes), "s"),
        "setup_s": metric(
            med(sum(t["setup_s"] for t in p["tasks"]) for p in passes), "s"),
        "task_s_p50": metric(med(
            harrell_davis_median([t["seconds"] for t in p["tasks"]])
            for p in passes), "s"),
        "peak_rss_mb": metric(med(p["peak_rss_mb"] for p in passes), "MiB"),
    }


def load_spans(trace_file):
    events = json.loads(Path(trace_file).read_text())["traceEvents"]
    return [{"name": e["name"], "start": e["ts"] / 1e6,
             "end": (e["ts"] + e["dur"]) / 1e6, **e["args"]} for e in events]


def self_times(spans):
    """A span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(result, spans):
    tasks = result["tasks"]
    layers = [t["layer"] for t in tasks]
    exact = [t["exact"] for t in tasks]
    bd = result["breakdown"]

    def total(key, rows=layers):
        return sum(r.get(key, 0) for r in rows)

    def span_sum(name, task=None):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name
                   and (task is None or s["task"] == task))

    # Search: the replayed probes of a sizing workload, or the hunt's checks.
    checks = [s for s in spans if s["name"] in ("smt.probe", "smt.check")]
    dur = [s["end"] - s["start"] for s in checks]
    check_s = sum(dur)
    conflicts = total("conflicts", exact)
    proof_mb = total("proof_bytes") / MIB
    check_time = total("check_s")
    attempted = total("witness_attempted")
    front = {name: span_sum(span) for name, span in (
        ("analysis.s", "analysis.analyze"), ("typing.s", "xmas.typing"),
        ("invariants.s", "invariants.generate"),
        ("encode.s", "deadlock.encode"))}
    ctor_s = total("ctor_s")
    overhead = 0.0
    for i, (t, lay) in enumerate(zip(tasks, layers)):
        if "sizing_s" in lay:
            overhead += (lay["sizing_s"] - lay["ctor_s"]
                         - span_sum("smt.probe", i) - lay["sizing_build_s"]
                         - lay.get("proof_log_s", 0.0))
    m = {
        "smt.check_s": metric(check_s, "s"),
        "smt.check_s_p50": metric(percentile(dur, 50), "s"),
        "smt.check_s_p90": metric(percentile(dur, 90), "s"),
        "smt.sat_check_s": metric(sum(
            d for d, s in zip(dur, checks) if s["verdict"] == "sat"), "s"),
        "smt.unsat_check_s": metric(sum(
            d for d, s in zip(dur, checks) if s["verdict"] == "unsat"), "s"),
        "smt.checks": metric(len(checks), "count"),
        "smt.conflicts": metric(conflicts, "count"),
        "smt.decisions": metric(total("decisions", exact), "count"),
        "smt.propagations": metric(total("propagations", exact), "count"),
        "smt.learned": metric(total("learned", exact), "count"),
        "smt.learned_hits": metric(total("learned_hits"), "count"),
        "smt.peak_arena_mb": metric(
            max(lay["peak_arena_bytes"] for lay in layers) / MIB, "MiB"),
        "smt.us_per_conflict": metric(
            check_s / conflicts * 1e6 if conflicts else 0.0, "us"),
        "proof.certs": metric(total("proof_certs"), "count"),
        "proof.incomplete": metric(total("proof_incomplete"), "count"),
        "proof.mb": metric(proof_mb, "MiB"),
        "proof.log_s": metric(total("proof_log_s"), "s"),
        "check.s": metric(check_time, "s"),
        "check.steps": metric(total("check_steps"), "count"),
        "check.clauses": metric(total("check_clauses"), "count"),
        "check.rejected": metric(total("check_rejected"), "count"),
        "check.mb_per_s": metric(
            proof_mb / check_time if check_time else 0.0, "MiB/s"),
        "witness.s": metric(total("witness_s"), "s"),
        "witness.states": metric(total("witness_states"), "count"),
        "witness.attempted": metric(attempted, "count"),
        "witness.confirmed": metric(total("witness_confirmed"), "count"),
        "witness.confirmed_ratio": metric(
            total("witness_confirmed") / attempted if attempted else 0.0,
            "ratio"),
        **{k: metric(v, "s") for k, v in front.items()},
        "invariants.rows": metric(bd["invariant_rows"], "count"),
        "encode.definitions": metric(bd["encode_definitions"], "count"),
        "translate.s": metric(bd["translate_s"] + total("translate_s"), "s"),
        "advocat.probes": metric(total("probes"), "count"),
        "advocat.make_net_calls": metric(
            total("make_net_calls", exact), "count"),
        "model.build_s": metric(total("model_build_s"), "s"),
        "advocat.overhead_s": metric(overhead, "s"),
    }
    # The traced pass's run_s split across the layers; the remainder is
    # time the benchmark spent outside every layer call it spans.
    run_s = result["run_s"]
    certify = (m["proof.log_s"]["value"] + check_time
               + m["witness.s"]["value"])
    attributed = (check_s + certify + ctor_s + m["model.build_s"]["value"]
                  + overhead)
    m.update({
        "trace.run_s": metric(run_s, "s"),
        "trace.spans": metric(result["spans"], "count"),
        "trace.unattributed_s": metric(run_s - attributed, "s"),
        "trace.search_share": metric(check_s / run_s, "ratio"),
        "trace.certify_share": metric(certify / run_s, "ratio"),
        "trace.front_end_share": metric(ctor_s / run_s, "ratio"),
    })
    return m


def median_metrics(per_pass):
    names = per_pass[0].keys()
    return {n: metric(statistics.median(p[n]["value"] for p in per_pass),
                      per_pass[0][n]["unit"]) for n in names}


def print_split(spans, metrics):
    """Human-readable self time per span name, before the result line."""
    by_name = {}
    for s, self_s in zip(spans, self_times(spans)):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + self_s
    print("self time by span:")
    for name, secs in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:22s} {secs:10.4f} s")
    run_s = metrics["trace.run_s"]["value"]
    print(f"traced run_s {run_s:.4f} s: search "
          f"{metrics['trace.search_share']['value']:.1%}, proof+check+witness "
          f"{metrics['trace.certify_share']['value']:.1%}, front end "
          f"{metrics['trace.front_end_share']['value']:.1%}, unattributed "
          f"{metrics['trace.unattributed_s']['value']:.4f} s")


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="recorded only: no workload's inputs depend on it")
    ap.add_argument("--input-seed", type=int, default=1,
                    help="draws the hunt_5x5 capacities (1 is the default "
                         "table; 2 is held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: 2x2 sizing, 2x2 certified, 3x3 hunt")
    ap.add_argument("--state-dir", default=None,
                    help="where counters of earlier runs are kept")
    ap.add_argument("--reference-offset", type=int, default=0,
                    help="shift every reference capacity (tests only)")
    args = ap.parse_args()

    driver = build_driver()
    started = time.monotonic()
    bid = build_id()
    state_dir = Path(args.state_dir) if args.state_dir else (
        build_root() / "perfbench-state")
    inputs = (f"input{args.input_seed}" if args.workload == "hunt_5x5"
              else "fixed")
    state_file = state_dir / bid / f"{args.workload}-{args.scale}-{inputs}.json"
    trace_file = None
    if args.trace:
        trace_dir = build_root() / "perfbench-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-{args.scale}-seed{args.seed}.trace.json"
        trace_file = trace_dir / name

    passes, layer_passes, problems = [], [], []
    attempted = failed = 0
    while True:
        t0 = time.monotonic()
        result = run_pass(driver, args, trace_file,
                          RUN_BUDGET_S - (t0 - started))
        pass_s = time.monotonic() - t0
        if result is None:
            problems.append("a driver pass failed")
            attempted, failed = max(attempted, 1), max(failed, 1)
            break
        passes.append(result)
        attempted += len(result["tasks"])
        for t in result["tasks"]:
            if not t["ok"]:
                failed += 1
                problems.append(f"task {t['id']}: {t['why']} (expected "
                                f"{t['expected']}, got {t['answer']})")
        problems += check_counters(
            state_file, exact_counters(result),
            None if args.trace else result["run_s"])
        if args.trace:
            bd = result["breakdown"]
            sized = sum(t["exact"].get("conflicts", 0)
                        for t in result["tasks"] if "probes" in t["exact"])
            if bd["replay_verdict_mismatches"] or (
                    args.workload != "hunt_5x5"
                    and bd["replay_conflicts"] != sized):
                problems.append("probe replay did not repeat the sizing run")
            spans = load_spans(trace_file)
            layer_passes.append(per_layer(result, spans))
        # Another pass of about the same length must still fit.
        measured = time.monotonic() - started
        if measured + pass_s > min(args.seconds, RUN_BUDGET_S * 0.8):
            break

    env = passes[0]["env"] if passes else {}
    print("perfbench env: " + json.dumps({**env, "build_id": bid,
                                          "passes": len(passes)}))
    for p in problems:
        log(p)
    if args.trace and layer_passes:
        metrics = median_metrics(layer_passes)
        print_split(spans, metrics)
        state = json.loads(state_file.read_text())
        if state.get("untraced_run_s"):
            # Host speed drifts over minutes, so compare with the untraced
            # run closest in time.
            base = state["untraced_run_s"][-1]
            over = metrics["trace.run_s"]["value"] - base
            print(f"tracing overhead: {over:+.4f} s ({over / base:+.2%}) "
                  f"against the last untraced run_s of this build")
        print(f"trace written to {trace_file}")
    elif passes:
        metrics = end_to_end(passes)
    else:
        metrics = {}
    record = {"correct": not problems and bool(passes),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(build_root() / "perfbench-results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "scale": args.scale,
                            "env": env, "build_id": bid, **record}) + "\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
