#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last line.

    python3 perfbench/run.py --workload paper_batch --seed 1 --seconds 30 \\
        --trace 0

Builds perfbench/ (which compiles the dmtl library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
runs the helper tests, then runs the workload in processes of its own. With
--trace 0 the result carries every end-to-end metric BENCHMARK.json lists;
with --trace 1 every per-layer metric (a layer the workload never calls
reports 0). The deterministic counts of a correct run are stored in the
build directory per (source fingerprint, workload, seed, seconds, trace),
and a later run of the same sources and input that disagrees fails. Exits
nonzero, without a result line, when the sources or the build are missing;
exits 1 after the result line when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_batch", "live_window", "fleet_drain")
RUN_BUDGET_S = 175  # a run must end within 180 s
BUILD_BUDGET_S = 890  # ... or 900 s when it builds first

# An untraced run splits its work over this many processes, one after the
# other, each with its own warm-up. A process keeps the speed of the memory
# its heap landed on for its whole life, and on a shared host that differs
# by up to 20% from process to process, so one process is one draw of it.
# fleet_drain spreads over every core and already varies least.
PARTS = {"paper_batch": 3, "live_window": 2, "fleet_drain": 1}

# How the parts' end-to-end metrics combine into the run's.
MERGE = {
    "setup_s": lambda v: sum(v) / len(v),
    "wall_s": sum,
    "op_mean_ms": lambda v: sum(v) / len(v),  # the parts do equal work
    "peak_rss_mb": max,
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds; returns whether anything was built."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dmtl sources under {ROOT / 'src'}; run from a full checkout")
    fresh = not (out / "CMakeCache.txt").is_file()
    if fresh:
        out.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return fresh


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    return json.loads(spec_path.read_text())


def complete_metrics(metrics, declared, fill_missing):
    """Checks the binary's metrics against the declared list.

    With fill_missing, an absent metric reads 0: a per-layer metric of a
    layer the workload never calls, or any metric of a run that failed
    before measuring it. Otherwise an absent or undeclared metric is a bug.
    """
    unknown = sorted(set(metrics) - {m["name"] for m in declared})
    if unknown:
        fail(f"undeclared metrics: {unknown}", 1)
    out = {}
    for m in declared:
        if m["name"] not in metrics and not fill_missing:
            fail(f"missing metric {m['name']}", 1)
        got = metrics.get(m["name"], {"value": 0.0, "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}", 1)
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def merge(parts):
    """Combines the results of a run's processes."""
    if len(parts) == 1:
        return parts[0]
    metrics = {}
    for name, combine in MERGE.items():
        got = [p["metrics"][name] for p in parts if name in p["metrics"]]
        if got:  # a part that failed early may lack its metrics
            metrics[name] = {"value": combine([m["value"] for m in got]),
                             "unit": got[0]["unit"]}
    return {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
        "counts": {f"part{i}.{k}": v
                   for i, p in enumerate(parts) for k, v in p["counts"].items()},
        "host": {f"part{i}.{k}": v
                 for i, p in enumerate(parts) for k, v in p["host"].items()},
        "errors": [e for p in parts for e in p["errors"]],
    }


def source_fingerprint():
    """Hash of every file the binary is built from (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_counts(out, args, counts, correct):
    """Deterministic counts must repeat exactly across runs of one input.

    Only runs of the same sources are compared, and only a correct run's
    counts are stored, so a change that moves a count (or a failed run)
    never poisons a later run.
    """
    path = (out / "counts" /
            f"{source_fingerprint()}-{args.workload}-seed{args.seed}"
            f"-s{args.seconds}-t{args.trace}.json")
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counts:
            return [f"deterministic counts differ from an earlier run: "
                    f"{before} != {counts}"]
        return []
    if correct:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    start = time.monotonic()
    spec = load_spec()
    out = build_dir()
    try:
        built = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    deadline = start + (BUILD_BUDGET_S if built else RUN_BUDGET_S)

    tests = subprocess.run([str(out / "perfbench_helpers_test")],
                           stdout=sys.stderr, stderr=sys.stderr)
    if tests.returncode != 0:
        fail("helper tests failed", 1)

    # A traced run is one process that does every op twice, untraced and
    # traced, so it sizes its work for half the run length.
    parts = 1 if args.trace else PARTS[args.workload]
    seconds = max(1, args.seconds // (2 if args.trace else parts))
    results = []
    for part in range(parts):
        cmd = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace), "--part", str(part)]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish in time", 1)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"{args.workload} exited with {proc.returncode}", 1)
        results.append(json.loads(lines[-1]))
    raw = merge(results)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = complete_metrics(raw["metrics"], declared,
                               fill_missing=args.trace or not raw["correct"])
    errors = list(raw["errors"]) + check_counts(out, args, raw["counts"],
                                                raw["correct"])
    failed = raw["failed"] + (len(errors) - len(raw["errors"]))
    correct = bool(raw["correct"]) and not errors

    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:>18.6f} {m['unit']}")
    for name, value in sorted(raw["counts"].items()):
        print(f"{args.workload:12s} count {name:34s} {value:>18.0f}")
    # The host reading taken between this run's own ops, outside the gated
    # metrics: it tells host drift from code drift for these very figures.
    for name, m in sorted(raw["host"].items()):
        print(f"{args.workload:12s} host {name:35s} {m['value']:>18.6f} "
              f"{m['unit']}")
    for err in errors:
        print(f"{args.workload:12s} FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
