#!/usr/bin/env python3
"""Builds bench_svr from this checkout, runs one workload, and prints the
result as the last line of standard output.

    python3 svrbench/run.py --workload search_cached --seed 7 --trace 0

The last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where "metrics" holds every end_to_end metric of
BENCHMARK.json (--trace 0) or every per_layer metric (--trace 1), each as
{"value", "unit"}. Everything the build and the run write stays under
.bench_build/ at the root of the checkout. Exits non-zero, without a
result line, when the build or the run fails or a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build() -> Path:
    tree = BUILD / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(tree),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(tree), "-j", jobs, "--target", "bench_svr"],
    ):
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    return tree / "bench_svr"


def select(result: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json names, checked for presence, unit and
    sample count."""
    have = result["layers" if result["traced"] else "metrics"]
    out = {}
    for m in wanted:
        got = have.get(m["name"])
        if got is None or got["unit"] != m["unit"] or "n" not in got:
            raise ValueError(f"metric {m['name']} missing, not in {m['unit']}"
                             " or without its sample count")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=float,
                    help="timed window (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="docs/10 per workload, for a quick end-to-end check")
    ap.add_argument("--json-out", help="also keep bench_svr's full JSON here")
    ap.add_argument("--commit", default="unknown",
                    help="recorded in the JSON context block")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    run_dir = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = run_dir / "result.json"
    cmd = [str(binary), f"workload={args.workload}", f"seed={args.seed}",
           f"seconds={seconds}", f"traced={args.trace}",
           f"smoke={int(args.smoke)}", f"dir={run_dir / 'wal'}", f"out={out}",
           f"commit={args.commit}"]
    try:
        sys.stdout.flush()
        subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        result = json.loads(out.read_text())
        line = {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": select(result, wanted)}
        if args.json_out:
            Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out, args.json_out)
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
