#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts and flag timing regressions.

Usage: tools/bench_diff.py BASELINE.json CANDIDATE.json [CANDIDATE.json ...]
           [--threshold 0.10]

Several candidate files are runs of the same bench in separate processes.
They are merged into one candidate first: each time-like leaf takes the
median of its values across the files, and every other leaf the first
file's value (semantic counters must agree across the files, or the diff
fails). A slow process then moves the gate only when it is the majority.
A committed baseline is regenerated the same way, as median_tree() over
the same number of processes.

Walks both JSON trees in parallel and compares every time-like numeric
leaf (keys ending in "_s" or "_seconds", or named "runtime_s"). Arrays of
measurement points are paired by identity (events/window, pattern/depth,
benchmark name), not by position, so reordering or appending points never
misaligns the diff - but a point present in the baseline and missing from
the candidate is a hard failure: a silently dropped point would hide a
regression. Semantic counters (rounds, derived) must match exactly per
point; a drift there means the two runs did different
work and the timing comparison is void. A time leaf that got more than
`threshold` slower in the candidate is a regression; the script prints
every compared leaf with its delta and exits 1 if any leaf regressed (or
drifted), 2 when the artifacts are not comparable at all. Other numeric
leaves (speedups, thread widths) are reported when they differ but never
fail the diff. One absolute gate applies to the candidate alone: a
contract_scaling artifact whose guard_overhead.overhead_frac is
GUARD_OVERHEAD_LIMIT or more fails (exit 1), whatever the baseline says.
Stdlib only - runs anywhere python3 exists.
"""

import argparse
import json
import statistics
import sys

# Keys that identify a measurement point inside an array, in preference
# order. A point's pairing key is the tuple of values of every identity
# key it carries.
IDENTITY_KEYS = ("name", "run_name", "pattern", "events", "window_s",
                 "trades", "depth", "facts", "timeline", "shards",
                 "sessions", "workers")

# Per-point counters that must be bit-identical between comparable runs:
# they count derivation work, so a mismatch means the engines computed
# different things and timings are not comparable for that point.
SEMANTIC_KEYS = ("rounds", "derived")

# The promise bench/contract_scaling.cc makes for its guard-overhead row: an
# armed execution guard that never trips costs less than 2% of the run.
GUARD_OVERHEAD_LIMIT = 0.02


def is_time_key(key):
    return key.endswith("_s") or key.endswith("_seconds") or key == "runtime_s"


def point_key(elem):
    """Identity tuple of a measurement point, or None when it has none."""
    if not isinstance(elem, dict):
        return None
    parts = tuple((k, elem[k]) for k in IDENTITY_KEYS if k in elem)
    return parts or None


def walk(base, cand, path, out, errors):
    """Collects (path, kind, base_val, cand_val) leaf pairs.

    kind: "time" | "semantic" | "note" | None (shape mismatch).
    """
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            if key not in base or key not in cand:
                out.append((f"{path}.{key}" if path else key, None,
                            base.get(key), cand.get(key)))
                continue
            walk(base[key], cand[key], f"{path}.{key}" if path else key,
                 out, errors)
        return
    if isinstance(base, list) and isinstance(cand, list):
        base_keys = [point_key(e) for e in base]
        cand_keys = [point_key(e) for e in cand]
        if all(k is not None for k in base_keys + cand_keys):
            cand_by_key = {k: e for k, e in zip(cand_keys, cand)}
            for k, elem in zip(base_keys, base):
                label = "/".join(str(v) for _, v in k)
                sub = f"{path}[{label}]"
                if k not in cand_by_key:
                    errors.append(
                        f"baseline point {sub} has no counterpart in the "
                        f"candidate - a dropped point can hide a "
                        f"regression; re-run the candidate bench with the "
                        f"full point set")
                    continue
                walk(elem, cand_by_key[k], sub, out, errors)
            for k in cand_by_key:
                if k not in base_keys:
                    label = "/".join(str(v) for _, v in k)
                    print(f"  note  {path}[{label}]: new point, "
                          f"no baseline to compare")
            return
        for i in range(max(len(base), len(cand))):
            sub = f"{path}[{i}]"
            if i >= len(base) or i >= len(cand):
                out.append((sub, None,
                            base[i] if i < len(base) else None,
                            cand[i] if i < len(cand) else None))
                continue
            walk(base[i], cand[i], sub, out, errors)
        return
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if is_time_key(key):
        kind = "time"
    elif key in SEMANTIC_KEYS:
        kind = "semantic"
    else:
        kind = "note"
    out.append((path, kind, base, cand))


def median_tree(trees, path, errors):
    """Merges same-shaped runs: medians for time leaves, else the first."""
    first = trees[0]
    if isinstance(first, dict):
        return {k: median_tree([t[k] for t in trees
                                if isinstance(t, dict) and k in t],
                               f"{path}.{k}" if path else k, errors)
                for k in first}
    if isinstance(first, list):
        keys = [point_key(e) for e in first]
        if keys and all(k is not None for k in keys):
            by_key = [{point_key(e): e for e in t} for t in trees]
            return [median_tree([m[k] for m in by_key if k in m],
                                f"{path}[{'/'.join(str(v) for _, v in k)}]",
                                errors)
                    for k in keys]
        return [median_tree([t[i] for t in trees if i < len(t)],
                            f"{path}[{i}]", errors)
                for i in range(len(first))]
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    numbers = [t for t in trees
               if isinstance(t, (int, float)) and not isinstance(t, bool)]
    if is_time_key(key) and len(numbers) == len(trees):
        return statistics.median(numbers)
    if key in SEMANTIC_KEYS and any(t != first for t in trees):
        errors.append(f"candidates disagree on {path}: {trees!r}")
    return first


def guard_overhead_error(cand):
    """Returns an error string when the candidate breaks the guard gate."""
    row = cand.get("guard_overhead")
    if not isinstance(row, dict):
        return None
    frac = row.get("overhead_frac")
    if not isinstance(frac, (int, float)) or frac < GUARD_OVERHEAD_LIMIT:
        return None
    return (f"guard_overhead.overhead_frac = {frac:.4f} is at or above the "
            f"{GUARD_OVERHEAD_LIMIT:.0%} limit")


def check_comparable(base, cand):
    """Returns an error string when the runs are not like-with-like."""
    base_ctx = base.get("context", {})
    cand_ctx = cand.get("context", {})
    # Timings taken with an armed execution guard are not comparable to
    # unguarded ones - the guard's poll sites add a small but real cost.
    # Artifacts from before the field existed default to unguarded.
    bg = base_ctx.get("guards_enabled", False)
    cg = cand_ctx.get("guards_enabled", False)
    if bg != cg:
        return (f"baseline guards_enabled={bg} but candidate "
                f"guards_enabled={cg} (guarded and unguarded timings are "
                f"not like-with-like)")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidates", nargs="+", metavar="candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional slowdown that counts as a "
                             "regression (default 0.10 = 10%%)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    runs = []
    for path in args.candidates:
        with open(path) as f:
            runs.append(json.load(f))
    disagreements = []
    cand = median_tree(runs, "", disagreements)

    # Like-with-like check: refuse rather than report phantom regressions.
    error = check_comparable(base, cand)
    if error is not None:
        print(f"cannot compare: {error}")
        return 2

    leaves = []
    errors = []
    walk(base, cand, "", leaves, errors)

    regressions = []
    improvements = []
    drifts = list(disagreements)
    for line in disagreements:
        print(f"  DRIFT      {line} (the candidate runs did different work)")
    for path, kind, b, c in leaves:
        if kind is None:
            print(f"  shape mismatch at {path}: baseline={b!r} "
                  f"candidate={c!r}")
            continue
        if kind == "semantic":
            if b != c:
                drifts.append(path)
                print(f"  DRIFT      {path}: {b!r} -> {c!r} (semantic "
                      f"counter changed: the runs did different work)")
            else:
                print(f"  same       {path}: {b!r}")
            continue
        if kind == "note":
            # A JSON null means the metric was undefined for that run (e.g.
            # speedup when the pool resolved to one thread) - nothing to
            # compare, not a change worth flagging.
            if b is None or c is None:
                continue
            if b != c and not isinstance(b, str):
                print(f"  note  {path}: {b!r} -> {c!r}")
            continue
        if b is None or c is None:
            continue
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
            print(f"  shape mismatch at {path}: baseline={b!r} "
                  f"candidate={c!r}")
            continue
        delta = (c - b) / b if b > 0 else 0.0
        line = f"{path}: {b:.4f}s -> {c:.4f}s ({delta:+.1%})"
        if delta > args.threshold:
            regressions.append(line)
            print(f"  REGRESSION {line}")
        elif delta < -args.threshold:
            improvements.append(line)
            print(f"  improved   {line}")
        else:
            print(f"  ok         {line}")

    for error in errors:
        print(f"  MISSING    {error}")
    guard_error = guard_overhead_error(cand)
    if guard_error is not None:
        print(f"  GATE       {guard_error}")

    print(f"\n{len(regressions)} regression(s), {len(improvements)} "
          f"improvement(s) beyond {args.threshold:.0%}, "
          f"{len(drifts)} semantic drift(s), {len(errors)} missing point(s)"
          f"{', guard-overhead gate failed' if guard_error else ''}")
    return 1 if regressions or drifts or errors or guard_error else 0


if __name__ == "__main__":
    sys.exit(main())
