#!/usr/bin/env bash
# repeat.sh N [first-seed]: runs the benchmark command 2N times on each
# workload, every run with another seed, and assigns the runs alternately
# to set A and set B. For each workload and end-to-end metric it prints
# the two medians, by how much B is worse than A as a share of A, the
# distance between the quartiles of all 2N values as a share of their
# median, and the bound from BENCHMARK.json. Two sets of the same commit
# must agree within the bound, and the spread should stay under a third
# of it. Run from the root of the checkout; results are kept in
# .bench_build/repeat.
set -euo pipefail
n="${1:?usage: repeat.sh N [first-seed]}"
seed="${2:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=".bench_build/repeat"
rm -rf "$out"
mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for ((i = 0; i < 2 * n; i++)); do
  set=A
  ((i % 2)) && set=B
  for w in $workloads; do
    echo "run $((i + 1))/$((2 * n)) $w seed $((seed + i)) -> set $set" >&2
    bash benchmark/run.sh --workload "$w" --seed "$((seed + i))" --seconds "$seconds" --trace 0 |
      tail -n 1 >"$out/$w.$set.$i.json"
  done
done
python3 - "$out" <<'PY'
import glob, json, statistics, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
print(f"{'workload':18} {'metric':18} {'median A':>12} {'median B':>12} {'B worse':>8} {'spread':>8} {'bound':>7}")
bad = 0
for w in spec["workloads"]:
    sets = {s: [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{w['name']}.{s}.*.json"))] for s in "AB"}
    for r in sets["A"] + sets["B"]:
        if not r["correct"]:
            sys.exit(f"{w['name']}: a run was incorrect")
    for m in spec["end_to_end"]:
        vals = {s: [r["metrics"][m["name"]]["value"] for r in sets[s]] for s in "AB"}
        a, b = statistics.median(vals["A"]), statistics.median(vals["B"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        both = vals["A"] + vals["B"]
        q = statistics.quantiles(both, n=4)
        spread = (q[2] - q[0]) / statistics.median(both)
        flag = ""
        if worse > m["bound"] or (m["name"] != "setup_s" and spread > m["bound"]):
            flag, bad = "  OVER", bad + 1
        elif m["name"] != "setup_s" and spread > m["bound"] / 3:
            flag = "  wide"
        print(f"{w['name']:18} {m['name']:18} {a:12.5g} {b:12.5g} {worse:+8.2%} {spread:8.2%} {m['bound']:7.2%}{flag}")
sys.exit(1 if bad else 0)
PY
