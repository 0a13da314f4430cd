#!/usr/bin/env python3
"""A/B pairs of the repository benchmark: a parent checkout against a
change checkout, run alternately, summarized per workload and metric.

Usage:
  python3 tools/ab_pairs.py --parent DIR --change DIR --workloads W1,W2 \\
      --pairs N --seconds S --seed K [--raw FILE]
  python3 tools/ab_pairs.py --self-test

Each pair runs `python3 perfbench/run.py --workload W --seed K --seconds S
--trace 0` once in each checkout (from the checkout's root, so each builds
and measures its own tree), alternating which side goes first: the parent
leads even-numbered pairs, the change odd-numbered ones. Put both checkouts
at paths of the same length; the binaries embed their source paths. Every
run's result line is kept, with its side, workload, pair and position, as
one JSON line in --raw (default: the change's .bench_build/ab_pairs.jsonl).

For each workload and each end-to-end metric of the change's
BENCHMARK.json, the summary prints each side's median [Q1, Q3], the
number of pairs in which the change is better (by the metric's `better`
direction; ties count for neither side) and a verdict:
  worse       the change's median is worse than the parent's by more than
              the metric's `bound`, taken relative to the parent's median;
  unresolved  not worse, but the parent's spread (Q3 - Q1, relative to
              its median) is wider than the bound, and not every run of
              the change is better than every run of the parent;
  equal       every run on both sides read the same value;
  ok          otherwise.

perfbench/run.py configures its build only when
.bench_build/perfbench/CMakeCache.txt is missing, so a checkout copied
together with its .bench_build keeps building the tree it was copied
from. Before any run, each side's cache must name that side's own
perfbench/ as its source directory; otherwise the script names the side
and exits with status 2.

The exit status is nonzero when any run is not `correct` (or printed no
result); the summary is printed either way. --self-test checks the
summary on a fixed synthetic table and the build check on temporary
checkouts. Nothing under perfbench/ is changed.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(Q1, median, Q3) of `values`, inclusive quantiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, relative to |parent|;
    negative when it is better."""
    delta = change - parent if better == "lower" else parent - change
    if delta == 0:
        return 0.0
    if parent == 0:
        return math.copysign(math.inf, delta)
    return delta / abs(parent)


def is_better(parent, change, better):
    return change < parent if better == "lower" else change > parent


def summarize(runs, specs):
    """Per-(workload, metric) rows from `runs`, a list of
    {side, workload, pair, result} records, and `specs`, BENCHMARK.json's
    end_to_end list. Pairs missing a side or a metric are skipped."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        for spec in specs:
            name, better, bound = spec["name"], spec["better"], spec["bound"]
            pairs = []
            for pair in sorted(by_pair):
                sides = by_pair[pair]
                try:
                    pairs.append(tuple(sides[s]["metrics"][name]["value"]
                                       for s in SIDES))
                except KeyError:
                    continue
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            wins = sum(is_better(p, c, better) for p, c in pairs)
            worse = worse_by(p_med, c_med, better)
            spread = (p_q3 - p_q1) / abs(p_med) if p_med != 0 else 0.0
            all_better = all(is_better(p, c, better)
                             for p in parent for c in change)
            if len(set(parent) | set(change)) == 1:
                verdict = "equal"
            elif worse > bound:
                verdict = "worse"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "pairs": len(pairs),
                "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
                "wins": wins, "worse_by": worse, "bound": bound,
                "verdict": verdict,
            })
    return rows


def print_summary(rows):
    def cell(q):
        return f"{q[0]:.6g} [{q[1]:.6g}, {q[2]:.6g}]"
    last = None
    for row in rows:
        if row["workload"] != last:
            last = row["workload"]
            print(f"\n{last} ({row['pairs']} pairs)")
            print(f"  {'metric':<16} {'parent median [Q1, Q3]':<32} "
                  f"{'change median [Q1, Q3]':<32} {'better':>7}  verdict")
        print(f"  {row['metric']:<16} {cell(row['parent']):<32} "
              f"{cell(row['change']):<32} "
              f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']} "
              f"({row['worse_by']:+.1%} worse, bound {row['bound']:.0%})")


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; (result dict or None, raw line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return None, ""
    try:
        return json.loads(lines[-1]), lines[-1]
    except json.JSONDecodeError:
        return None, lines[-1]


def foreign_build(checkout):
    """The source directory of `checkout`'s perfbench build when it is
    not the checkout's own perfbench/, else None (no build yet, or the
    right one)."""
    cache = checkout / ".bench_build" / "perfbench" / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            home = Path(line.split("=", 1)[1].strip())
            own = home.resolve() == (checkout / "perfbench").resolve()
            return None if own else home
    return None


def run_pairs(args):
    dirs = {"parent": Path(args.parent).resolve(),
            "change": Path(args.change).resolve()}
    wrong = {side: foreign_build(d) for side, d in dirs.items()}
    wrong = {side: home for side, home in wrong.items() if home is not None}
    for side, home in wrong.items():
        print(f"ab_pairs: the {side} side ({dirs[side]}) has a perfbench "
              f"build of {home}; remove {dirs[side] / '.bench_build'} so "
              "it builds its own tree", file=sys.stderr)
    if wrong:
        return 2
    with open(dirs["change"] / "BENCHMARK.json") as f:
        specs = json.load(f)["end_to_end"]
    raw_path = (Path(args.raw) if args.raw else
                dirs["change"] / ".bench_build" / "ab_pairs.jsonl")
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    with open(raw_path, "w") as raw:
        for pair in range(args.pairs):
            for workload in args.workloads.split(","):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result, line = run_once(dirs[side], workload, args.seed,
                                            args.seconds)
                    record = {"side": side, "workload": workload,
                              "pair": pair, "position": position,
                              "seed": args.seed, "seconds": args.seconds,
                              "result": result, "raw": line}
                    runs.append(record)
                    raw.write(json.dumps(record) + "\n")
                    raw.flush()
                    ok = result is not None and result.get("correct")
                    print(f"pair {pair} {workload} {side}: "
                          f"{'correct' if ok else 'NOT CORRECT'}",
                          file=sys.stderr, flush=True)
    print_summary(summarize(runs, specs))
    print(f"\nraw results: {raw_path}")
    bad = [r for r in runs
           if r["result"] is None or not r["result"].get("correct")]
    for r in bad:
        print(f"not correct: {r['workload']} pair {r['pair']} {r['side']}",
              file=sys.stderr)
    return 1 if bad else 0


def self_test():
    specs = [{"name": "t", "better": "lower", "bound": 0.25},
             {"name": "acc", "better": "higher", "bound": 0.05},
             {"name": "rss", "better": "lower", "bound": 0.1},
             {"name": "loss", "better": "lower", "bound": 0.1}]
    table = {  # workload -> per pair: ((parent t, acc, rss), (change ...))
        "w": [((1.0, 0.80, 100), (0.9, 0.80, 150)),
              ((2.0, 0.80, 100), (1.0, 0.80, 150)),
              ((3.0, 0.80, 100), (4.0, 0.80, 150)),
              ((4.0, 0.80, 100), (3.5, 0.80, 150)),
              ((5.0, 0.80, 100), (5.0, 0.80, 150))],
    }
    runs = []
    for workload, pairs in table.items():
        for pair, sides in enumerate(pairs):
            for side, (t, acc, rss) in zip(SIDES, sides):
                metrics = {"t": {"value": t}, "acc": {"value": acc},
                           "rss": {"value": rss}}
                if not (side == "change" and pair == 4):
                    metrics["loss"] = {"value": 1.0}
                runs.append({"side": side, "workload": workload,
                             "pair": pair,
                             "result": {"correct": True,
                                        "metrics": metrics}})
    rows = {row["metric"]: row for row in summarize(runs, specs)}
    expect = {
        # parent 1..5: median 3 [2, 4]; change 0.9,1,4,3.5,5: 3.5 [1, 4].
        # Better in pairs 0, 1, 3; tie in pair 4. Worse by 1/6 < 0.25,
        # but the parent's spread 2/3 exceeds the bound.
        "t": {"parent": (3.0, 2.0, 4.0), "change": (3.5, 1.0, 4.0),
              "wins": 3, "pairs": 5, "verdict": "unresolved"},
        "acc": {"wins": 0, "pairs": 5, "verdict": "equal"},
        "rss": {"parent": (100, 100, 100), "change": (150, 150, 150),
                "wins": 0, "verdict": "worse"},
        # The change's pair 4 lacks the metric: that pair is skipped.
        "loss": {"pairs": 4, "verdict": "equal"},
    }
    failures = []
    for metric, fields in expect.items():
        row = rows.get(metric)
        if row is None:
            failures.append(f"{metric}: no row")
            continue
        for key, want in fields.items():
            got = row[key]
            if isinstance(want, tuple):
                same = all(abs(g - w) < 1e-12 for g, w in zip(got, want))
            else:
                same = got == want
            if not same:
                failures.append(f"{metric}.{key}: got {got}, want {want}")
    if abs(rows["t"]["worse_by"] - 0.5 / 3.0) > 1e-12:
        failures.append(f"t.worse_by: got {rows['t']['worse_by']}")
    # A change that beats every parent run is never unresolved.
    fast = [{"side": s, "workload": "w", "pair": i,
             "result": {"correct": True,
                        "metrics": {"t": {"value": v}}}}
            for i, (p, c) in enumerate([(1.0, 0.5), (3.0, 0.6), (5.0, 0.7)])
            for s, v in zip(SIDES, (p, c))]
    if summarize(fast, specs[:1])[0]["verdict"] != "ok":
        failures.append("a change better than every parent run is not ok")
    failures += check_foreign_builds()
    for failure in failures:
        print(f"ab_pairs --self-test: {failure}")
    if failures:
        return 1
    print_summary(summarize(runs, specs))
    print(f"\nab_pairs --self-test: OK ({len(expect) + 2} checks)")
    return 0


def check_foreign_builds():
    """A side whose .bench_build was copied from another tree is refused
    before any run; a side with its own build, or none, is accepted."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, home in (("own", tmp / "own" / "perfbench"),
                           ("copied", tmp / "own" / "perfbench")):
            cache = tmp / name / ".bench_build" / "perfbench"
            cache.mkdir(parents=True)
            (cache / "CMakeCache.txt").write_text(
                f"CMAKE_HOME_DIRECTORY:INTERNAL={home}\n")
        (tmp / "fresh").mkdir()
        for name, want in (("own", None), ("fresh", None),
                           ("copied", tmp / "own" / "perfbench")):
            got = foreign_build(tmp / name)
            if got != want:
                failures.append(f"foreign_build({name}): got {got}, "
                                f"want {want}")
        global run_once
        real_run_once, calls = run_once, []

        def record_run(*args):
            calls.append(args)
            return None, ""

        run_once = record_run
        try:
            args = argparse.Namespace(parent=str(tmp / "own"),
                                      change=str(tmp / "copied"))
            status = run_pairs(args)
        finally:
            run_once = real_run_once
        if status != 2 or calls:
            failures.append(f"a copied build: status {status} after "
                            f"{len(calls)} runs, want 2 after none")
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--raw")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workloads):
        parser.error("--parent, --change and --workloads are required")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
