#!/usr/bin/env python3
"""Repository benchmark: closed-loop GCN training workloads on the cagnet
library, with end-to-end metrics and a traced per-layer run.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

The first form builds perfbench/ (the library from src/ plus the program in
perfbench.cpp) into .bench_build/perfbench, runs the workload in a fresh
process with only the CAGNET_* variables the workload sets (every other
CAGNET_* variable is removed, so an ambient CAGNET_FAULT or CAGNET_STALE
cannot change what is measured), and prints one JSON result as the last
line of stdout: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. The line before it states the
effective knobs, world size, thread budget and git commit. The Chrome
trace of a traced run is written to .bench_build/traces/.

Each workload trains a fixed number of epochs, round(EPOCHS_PER_SECOND *
seconds), so for a given --seconds the losses and word counts repeat
exactly per seed. The exit code is 0 only when the program's correctness
check passed and the emitted metric names and units match BENCHMARK.json
exactly.

--self-check runs every workload briefly in both modes and checks the
names, the units, and the traced run's phase accounting: every Profiler
phase that ran has a metric, no epoch's phases exceed its span, and the
phase metrics plus core.unaccounted_s sum to core.epoch_s.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "perfbench"
MIN_EPOCHS = 15  # three per repeat
# Timed epochs per --seconds. Every workload takes ~0.13-0.18 s per epoch on
# a 4-vCPU host, so one rate keeps each run's timed loop near --seconds.
EPOCHS_PER_SECOND = 8
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
# The Profiler phase metrics; with core.unaccounted_s they sum to
# core.epoch_s.
PHASE_METRICS = ["sparse.spmm_s", "dense.misc_s", "comm.dcomm_s",
                 "comm.scomm_s", "comm.trpose_s", "core.hpack_s"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_specs():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(BENCH_DIR / "map.json") as f:
        table = json.load(f)
    return bench, table


def check_specs(bench, table):
    """Problems in map.json relative to BENCHMARK.json (empty when in sync)."""
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(table["workloads"]):
        problems.append(f"workloads differ: BENCHMARK.json {names}, "
                        f"map.json {sorted(table['workloads'])}")
    # "failed" is the result's failed-epoch count, not a metric.
    e2e = {m["name"] for m in bench["end_to_end"]} | {"failed"}
    layer_names = [m["name"] for m in bench["per_layer"]]
    if sorted(layer_names) != sorted(table["per_layer"]):
        problems.append("per-layer metrics differ between BENCHMARK.json "
                        "and map.json")
    for name, row in table["per_layer"].items():
        if row["moves"] not in e2e:
            problems.append(f"{name}: moves unknown metric {row['moves']}")
        for key in ("most", "least"):
            if row[key] != "all" and row[key] not in names:
                problems.append(f"{name}: {key} names unknown workload "
                                f"{row[key]}")
    return problems


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not (BENCH_DIR / "CMakeLists.txt").is_file():
        log("perfbench/CMakeLists.txt missing")
        return False
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step exited {done.returncode}: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def git_commit():
    """HEAD of a checkout that carries its .git directory, else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(bench, table, name, seed, seconds, trace):
    """Run one workload; returns (result dict, problems list)."""
    spec = table["workloads"][name]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAGNET_")}
    env.update(spec["env"])
    epochs = max(MIN_EPOCHS, round(EPOCHS_PER_SECOND * seconds))
    cmd = [str(BINARY), "--seed", str(seed), "--epochs", str(epochs),
           "--trace", str(trace)]
    for key, value in spec["shape"].items():
        cmd += ["--" + key, str(value)]
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"{name}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{name}: perfbench exceeded {RUN_TIMEOUT_S} s"]
    lines = done.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, [f"{name}: perfbench exited {done.returncode} without a "
                      f"result"]
    knobs = " ".join(f"{k}={v}" for k, v in sorted(spec["env"].items()))
    info = out["info"]
    print(f"perfbench: workload={name} seed={seed} epochs={epochs} "
          f"trace={trace} knobs[{knobs}] world={info['world']} "
          f"thread_budget={info['thread_budget']} "
          f"partitioner={info['partitioner']} commit={git_commit()}",
          flush=True)

    problems = []
    if done.returncode != 0 or not out["correct"]:
        problems.append(f"{name}: correctness check failed "
                        f"(exit {done.returncode})")
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = out["metrics"]
    for metric, unit in expected.items():
        if metric not in emitted:
            problems.append(f"{name}: metric {metric} not emitted")
        elif emitted[metric]["unit"] != unit:
            problems.append(f"{name}: metric {metric} has unit "
                            f"{emitted[metric]['unit']}, expected {unit}")
    for metric in emitted:
        if metric not in expected:
            problems.append(f"{name}: unnamed metric {metric} emitted")
    return out, problems


def phase_sum_problems(name, out):
    """Problems in a traced run's accounting of the epoch span."""
    metrics, info = out["metrics"], out["info"]
    problems = []
    if info["unmetered_phase_s"] != 0:
        problems.append(f"{name}: {info['unmetered_phase_s']} s/epoch in "
                        f"Profiler phases that have no metric")
    if info["min_unaccounted_s"] < 0:
        problems.append(f"{name}: an epoch's Profiler phases exceed its span "
                        f"by {-info['min_unaccounted_s']} s")
    total = sum(metrics[m]["value"] for m in PHASE_METRICS)
    total += metrics["core.unaccounted_s"]["value"]
    span = metrics["core.epoch_s"]["value"]
    if abs(total - span) > 1e-9 * max(span, 1.0):
        problems.append(f"{name}: phases + unaccounted = {total} != epoch "
                        f"span {span}")
    return problems


def self_check(bench, table):
    problems = check_specs(bench, table)
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            out, found = run_workload(bench, table, name, 1, 1, trace)
            if out is not None and trace and not found:
                found = phase_sum_problems(name, out)
            problems += found
            log(f"self-check {name} trace={trace}: "
                f"{'ok' if not found else 'FAILED'}")
    for p in problems:
        log(p)
    print(json.dumps({"self_check": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        bench, table = load_specs()
    except (OSError, KeyError, json.JSONDecodeError) as e:
        log(f"cannot load BENCHMARK.json / perfbench/map.json: {e}")
        return 2
    if not build():
        return 1
    if args.self_check:
        return self_check(bench, table)
    if args.workload not in table["workloads"]:
        log(f"unknown workload {args.workload!r}")
        return 2
    out, problems = run_workload(bench, table, args.workload, args.seed,
                                 args.seconds, args.trace)
    for p in problems:
        log(p)
    if out is None:
        return 1
    print(json.dumps({"correct": out["correct"] and not problems,
                      "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": out["metrics"]}))
    return 0 if out["correct"] and not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
