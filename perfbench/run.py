"""Benchmark for congsym: the exact pipeline from a named group to its Hecke
decomposition and eigensystem, driven through the library's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each attempt is a fresh, single-threaded
Python process (perfbench/attempt.py) on the library in src/; attempts run
one at a time for about S seconds, and every answer is checked against
perfbench/reference.json.  The metrics are the ones BENCHMARK.json declares:
its end-to-end metrics with --trace 0, its per-layer metrics with --trace 1
(which alternates untraced and traced attempts).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

NAME is a workload of BENCHMARK.json, "all" for all of them in turn, or
"smoke" for gamma0 11 through the same three code paths in a few seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from attempt import SMOKE_WORKLOADS, WORKLOADS   # perfbench/ is sys.path[0]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ATTEMPT = os.path.join(HERE, "attempt.py")
HARD_LIMIT_S = 170     # a run of one workload ends within this, whatever S is
MIN_SETUP_SAMPLES = 5  # setup_s is the median of at least this many set-ups


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # one thread, no bytecode written, same hashing in every attempt
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def attempt(name, seed, trace, deadline, setup_only=False):
    """Run one attempt; return its record, with "ok" and "wall_s" set."""
    cmd = [sys.executable, ATTEMPT, "--workload", name, "--seed", str(seed),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": "timed out",
                "wall_s": time.monotonic() - t_spawn}
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [""]
        return {"ok": False, "wall_s": wall,
                "why": "exit %d: %s" % (proc.returncode, lines[-1])}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "why": "no record", "wall_s": wall}
    # wall time runs from the spawn to the verified answer (both stamps are
    # CLOCK_MONOTONIC, which is shared by all processes)
    rec["wall_s"] = rec["t_done"] - t_spawn
    if setup_only:
        rec["ok"] = True
    elif not rec["ok"]:
        rec["why"] = "answer differs from the reference at %r" % rec["mismatch"]
    return rec


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """Attempts of one workload; returns (records, setup samples, traced records)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # warm-up: pulls the interpreter, sympy and the library into the page
    # cache so that the first timed set-up is not a cold one; not counted
    attempt(name, seed, 0, deadline, setup_only=True)
    records, traced = [], []
    loop_start = time.monotonic()
    while True:
        records.append(attempt(name, seed, 0, deadline))
        if trace:
            traced.append(attempt(name, seed, 1, deadline))
        done = len(records) + len(traced)
        now = time.monotonic()
        next_round = (now - loop_start) / done * (1 + trace)
        # at least two attempts, so that one slow attempt is not the result
        if done >= 2 and now + next_round - start > seconds:
            break
        if now + next_round > deadline:
            break
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - 10:
        probe = attempt(name, seed, 0, deadline, setup_only=True)
        if "setup_s" not in probe:
            records.append(probe)     # a set-up that raised is a failure
            break
        setups.append(probe["setup_s"])
    return records, setups, traced


def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def report(name, seed, seconds, trace):
    e2e_units, layer_units = load_declared()
    records, setups, traced = run_workload(name, seed, seconds, trace)
    everything = records + traced
    failed = [r for r in everything if not r["ok"]]
    for r in failed:
        print("failed attempt: %s" % r["why"], file=sys.stderr)
    if trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        metrics = {k: median_of(layers, k)
                   for k in (layers[0] if layers else layer_units)}
        metrics["trace.overhead_s"] = (median_of(traced, "wall_s")
                                       - median_of(records, "wall_s"))
        units = layer_units
    else:
        metrics = {
            "wall_s": median_of(records, "wall_s"),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "cpu_s": median_of(records, "cpu_s"),
            "peak_rss_mb": median_of(records, "peak_rss_mb"),
            "correct_frac": 1.0 - len(failed) / len(everything),
        }
        units = e2e_units
    if set(metrics) != set(units):
        sys.exit("metrics %s do not match BENCHMARK.json %s"
                 % (sorted(metrics), sorted(units)))
    env = next((r["env"] for r in everything if "env" in r), None)
    print("workload %s  seed %d  seconds %g  trace %d" % (name, seed, seconds,
                                                          trace))
    print("env %s" % json.dumps(env))
    print("attempts %d untraced, %d traced, %d set-ups; walls %s" % (
        len(records), len(traced), len(setups),
        " ".join("%.2f" % r["wall_s"] for r in everything)))
    for key, unit in units.items():
        print("  %-32s %14.6f %s" % (key, metrics[key], unit))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }), flush=True)


def main(argv=None):
    groups = {"all": list(WORKLOADS), "smoke": list(SMOKE_WORKLOADS)}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + list(SMOKE_WORKLOADS)
                    + list(groups))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "congsym", "__init__.py")):
        sys.exit("congsym sources not found under %s" % os.path.join(ROOT, "src"))
    for name in groups.get(args.workload, [args.workload]):
        report(name, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
