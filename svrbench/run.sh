#!/usr/bin/env bash
# Runs the benchmark several times per workload and keeps every result, as
# input for compare.py:
#
#   svrbench/run.sh label=parent runs=10 [traced=1] [seed=1] [smoke=1]
#
# Run i of a workload uses seed+i-1, so two labels measured with the same
# settings pair up run by run. Every run measures BENCHMARK.json's
# run_seconds, so two labels always compare equal windows. Results land in
# bench_runs/<label>/<workload>-run-<i>.json, plus <workload>-traced.json
# when traced=1. smoke=1 shrinks every workload to docs/10 and 2 s windows
# with one run each, an end-to-end check that takes well under a minute
# once built. Fails when a run fails, reports a failed operation, or lacks
# a BENCHMARK.json metric, its unit or its sample count.
set -euo pipefail

cd "$(dirname "$0")/.."
label=local runs=5 traced=0 seed=1 smoke=0
for arg in "$@"; do
  case "$arg" in
    label=*|runs=*|traced=*|seed=*|smoke=*)
      declare "${arg%%=*}=${arg#*=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
extra=()
if [[ "$smoke" == 1 ]]; then
  runs=1 seconds=2 extra=(--smoke)
fi
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
out="bench_runs/$label"
mkdir -p "$out"

run_one() {  # workload seed trace json
  local line
  line=$(python3 svrbench/run.py --workload "$1" --seed "$2" --seconds "$seconds" \
           --trace "$3" --json-out "$4" --commit "$commit" "${extra[@]}" | tail -n 1)
  python3 -c 'import json, sys
r = json.loads(sys.argv[1])
if not r["correct"] or r["failed"] != 0:
    sys.exit("%s: %d of %d operations failed" % (sys.argv[2], r["failed"], r["attempted"]))' \
    "$line" "$4"
  echo "$4: ok" >&2
}

for w in $workloads; do
  for ((i = 1; i <= runs; i++)); do
    run_one "$w" $((seed + i - 1)) 0 "$out/$w-run-$i.json"
  done
  if [[ "$traced" == 1 ]]; then
    run_one "$w" "$seed" 1 "$out/$w-traced.json"
  fi
done
echo "results in $out"
