#!/usr/bin/env python3
"""Compares two sets of bench_svr results, as run.sh writes them.

    python3 svrbench/compare.py bench_runs/parent bench_runs/change \\
        [--claim churn_mixed:dml_p50_us]
    python3 svrbench/compare.py --self-test

For every (workload, end-to-end metric) it prints both sides' medians and
quartiles and applies the metric's bound from BENCHMARK.json: the change's
median may be worse than the parent's by at most bound x parent median.
When the parent's own spread (interquartile range / median) is wider than
the bound, the row is "unresolved" unless every change run beats every
parent run. A claim (workload:metric) must in addition win at least 9 of
every 10 pairs (runs paired by seed, ties count for neither) by a median
gap larger than the parent's interquartile range, over at least ten pairs.
Exits 1 when a row regresses, a claim is not met, any run of either side
reports a failed operation, or the runs do not all share one window
length and smoke setting.
"""

import argparse
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{workload: {seed: result}} of the untraced runs in `directory`."""
    runs = {}
    for f in sorted(directory.glob("*.json")):
        r = json.loads(f.read_text())
        if not r.get("traced"):
            runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(metric: dict, a: float, b: float) -> bool:
    """a reads better than b."""
    return a < b if metric["better"] == "lower" else a > b


def compare(parent: dict, change: dict, spec: dict, claims: list) -> tuple:
    """Returns (rows, problems). Each row is a dict describing one
    (workload, metric) pairing; problems lists what fails the comparison."""
    rows, problems = [], []
    settings = set()
    for side, runs in (("parent", parent), ("change", change)):
        for workload, by_seed in runs.items():
            for seed, r in by_seed.items():
                settings.add((r["seconds"], r["smoke"]))
                if r["failed"] or not r["correct"]:
                    problems.append(f"{side} {workload} seed {seed}: "
                                    f"{r['failed']} failed operations")
    if len(settings) > 1:
        problems.append("runs differ in (seconds, smoke): "
                        f"{sorted(settings)}; both sets must measure the "
                        "same window")
        return rows, problems
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"]
                  for r in parent[workload].values()]
            cv = [r["metrics"][name]["value"]
                  for r in change[workload].values()]
            pq, cq = quartiles(pv), quartiles(cv)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (cq[1] - pq[1]) / pq[1]
            spread = (pq[2] - pq[0]) / pq[1]
            if spread > m["bound"]:
                verdict = ("better in every run"
                           if all(better(m, c, p) for c in cv for p in pv)
                           else "unresolved")
            elif worse_by > m["bound"]:
                verdict = "REGRESSION"
                problems.append(f"{workload} {name}: worse by "
                                f"{100 * worse_by:.1f}% > "
                                f"{100 * m['bound']:.0f}%")
            else:
                verdict = "ok"
            row = {"workload": workload, "metric": name, "parent": pq,
                   "change": cq, "worse_by": worse_by, "bound": m["bound"],
                   "verdict": verdict}
            if f"{workload}:{name}" in claims:
                row["claim"] = claim_verdict(m, parent[workload],
                                             change[workload], pq, cq)
                if not row["claim"].startswith("met"):
                    problems.append(f"claim {workload}:{name} {row['claim']}")
            rows.append(row)
    for claim in claims:
        if not any(f"{r['workload']}:{r['metric']}" == claim for r in rows):
            problems.append(f"claim {claim}: no such workload and metric")
    return rows, problems


def claim_verdict(m: dict, parent: dict, change: dict, pq: tuple,
                  cq: tuple) -> str:
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < 10:
        return f"not met: {len(seeds)} pairs, at least 10 needed"
    pairs = [(parent[s]["metrics"][m["name"]]["value"],
              change[s]["metrics"][m["name"]]["value"]) for s in seeds]
    wins = sum(better(m, c, p) for p, c in pairs)
    gap = abs(cq[1] - pq[1])
    if wins < 0.9 * len(pairs):
        return f"not met: won {wins}/{len(pairs)} pairs"
    if not better(m, cq[1], pq[1]) or gap <= pq[2] - pq[0]:
        return "not met: median gap within the parent's interquartile range"
    return f"met: won {wins}/{len(pairs)} pairs"


def report(rows: list, problems: list) -> None:
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"
    print(f"| {'workload':14} | {'metric':19} | {'parent median [q1, q3]':34} "
          f"| {'change median [q1, q3]':34} | {'change':>7} | {'bound':>5} "
          f"| verdict")
    print("|" + "|".join("-" * w for w in (16, 21, 36, 36, 9, 7, 22)) + "|")
    for r in rows:
        verdict = r["verdict"] + (f"; claim {r['claim']}" if "claim" in r
                                  else "")
        print(f"| {r['workload']:14} | {r['metric']:19} | {q(r['parent']):34} "
              f"| {q(r['change']):34} | {100 * r['worse_by']:+6.1f}% "
              f"| {100 * r['bound']:4.0f}% | {verdict}")
    for p in problems:
        print(f"FAIL {p}")


def self_test(spec: dict) -> int:
    """Fixtures: an unchanged change passes, a seeded regression, a seeded
    failed operation and a shorter window fail, a real gain meets its
    claim."""
    rng = random.Random(2005)
    base = {m["name"]: 100.0 for m in spec["end_to_end"]}

    def write(directory: Path, scale: dict, failed_seed=None,
              seconds=spec["run_seconds"]) -> None:
        directory.mkdir()
        for seed in range(1, 11):
            metrics = {n: {"value": v * scale.get(n, 1.0)
                           * rng.uniform(0.99, 1.01), "unit": "x", "n": 1}
                       for n, v in base.items()}
            failed = 1 if seed == failed_seed else 0
            result = {"workload": "w", "seed": seed, "seconds": seconds,
                      "smoke": False, "traced": False,
                      "correct": not failed, "attempted": 10,
                      "failed": failed, "metrics": metrics}
            (directory / f"w-run-{seed}.json").write_text(json.dumps(result))

    lower = next(m["name"] for m in spec["end_to_end"]
                 if m["better"] == "lower")
    higher = next(m["name"] for m in spec["end_to_end"]
                  if m["better"] == "higher")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(tmp / "parent", {})
        write(tmp / "same", {})
        write(tmp / "slower", {lower: 1.5})
        write(tmp / "failed", {}, failed_seed=3)
        write(tmp / "faster", {higher: 1.2})
        write(tmp / "shorter", {}, seconds=spec["run_seconds"] / 2)
        parent = load(tmp / "parent")
        cases = [
            ("unchanged", "same", [], True),
            ("seeded regression", "slower", [], False),
            ("seeded failed operation", "failed", [], False),
            ("different window", "shorter", [], False),
            ("claimed gain", "faster", [f"w:{higher}"], True),
            ("claim without a gain", "same", [f"w:{higher}"], False),
        ]
        failures = 0
        for what, directory, claims, should_pass in cases:
            _, problems = compare(parent, load(tmp / directory), spec, claims)
            passed = not problems
            status = "ok" if passed == should_pass else "WRONG"
            failures += passed != should_pass
            print(f"{status:5} {what}: {'passes' if passed else problems}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--claim", action="append", default=[],
                    help="workload:metric the change claims to improve")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    if args.self_test:
        return self_test(spec)
    if args.parent is None or args.change is None:
        ap.error("give two result directories, or --self-test")
    rows, problems = compare(load(args.parent), load(args.change), spec,
                             args.claim)
    report(rows, problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
