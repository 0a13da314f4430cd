#!/usr/bin/env python3
"""Chaos drill: drive bench_recovery across the fault matrix and enforce
the recovery contract from DESIGN.md ("Fault model and recovery
contract"):

  * every injection either completes after automatic restart — bitwise
    identical to the uninterrupted baseline in exact mode — or surfaces a
    typed CommAborted (recorded as recovered=false in the JSON);
  * never a hang (per-run wall-clock timeout) and never a crash
    (non-zero exit, sanitizer report).

The binary already sweeps algebras x compress x injection points
internally; this script shards the sweep into one process per
algebra so a hang in one cell cannot mask the others, applies the
timeout, and validates every emitted record.

Usage:  python3 tools/chaos_drill.py [--build build] [--timeout 120]
                                     [--smoke]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ALGEBRAS = ["1d", "1.5d-c2", "2d", "3d"]

# The recovery_drill schema_version bench_recovery emits today (kept in
# step with tools/check_bench_schema.py).
SCHEMA_VERSION = 2

REQUIRED_FIELDS = {
    "schema_version", "bench", "algebra", "world", "compress",
    "action", "site", "category", "nth", "epochs", "ckpt_every",
    "restarts", "retrained_epochs", "checkpoints_written",
    "checkpoint_write_seconds", "recovered", "bitwise_identical",
    "seconds", "baseline_seconds", "recovery_overhead_s",
}


def run_shard(binary: Path, algebra: str, smoke: bool, timeout: float):
    cmd = [str(binary), "--algebras", algebra]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"{algebra}: HANG — no result within {timeout}s "
                      f"(the unwind guarantee is broken)"]
    if proc.returncode != 0:
        return None, [f"{algebra}: CRASH — exit {proc.returncode}\n"
                      f"{proc.stderr.strip()}"]
    return proc.stdout, []


def validate(records, errors):
    for r in records:
        where = (f"{r.get('algebra')}/{r.get('compress')}/"
                 f"{r.get('action')}@{r.get('site')}")
        missing = REQUIRED_FIELDS - r.keys()
        if missing:
            errors.append(f"{where}: missing fields {sorted(missing)}")
            continue
        if r["schema_version"] != SCHEMA_VERSION:
            errors.append(f"{where}: schema_version "
                          f"{r['schema_version']!r} != {SCHEMA_VERSION}")
        if not r["recovered"]:
            # A typed abort after exhausted restarts is an acceptable
            # outcome, but with max_restarts=3 and one-shot triggers it
            # means the supervision loop failed to make progress.
            errors.append(f"{where}: did not recover within the restart "
                          f"budget (restarts={r['restarts']})")
        if r["compress"] == "off" and r["recovered"] \
                and not r["bitwise_identical"]:
            errors.append(f"{where}: exact-mode recovery is not bitwise "
                          f"identical to the uninterrupted baseline")
        if r["restarts"] > 0 and r["ckpt_every"] > 0 \
                and r["retrained_epochs"] > r["ckpt_every"] + r["epochs"]:
            errors.append(f"{where}: retrained {r['retrained_epochs']} "
                          f"epochs — more than a checkpoint interval of "
                          f"work was lost per restart")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--build", default="build",
                    help="build directory containing bench_recovery")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-shard wall-clock hang limit (seconds)")
    ap.add_argument("--smoke", action="store_true",
                    help="smaller graph / fewer epochs per cell")
    args = ap.parse_args()

    binary = Path(args.build) / "bench_recovery"
    if not binary.exists():
        print(f"missing binary: {binary} (build the repo first)",
              file=sys.stderr)
        return 1

    errors = []
    cells = 0
    for algebra in ALGEBRAS:
        stdout, shard_errors = run_shard(binary, algebra, args.smoke,
                                         args.timeout)
        errors.extend(shard_errors)
        if stdout is None:
            continue
        records = []
        for line in stdout.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                errors.append(f"{algebra}: bad JSON line ({e}): {line!r}")
        if not records:
            errors.append(f"{algebra}: emitted no drill records")
        cells += len(records)
        validate(records, errors)

    if errors:
        print(f"chaos drill: {len(errors)} contract violation(s) across "
              f"{cells} cells", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"chaos drill: {cells} cells — every injection recovered, "
          f"exact mode bitwise, no hangs, no crashes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
