#!/usr/bin/env bash
# repeat.sh N: two sets of N untraced runs of every workload, the workloads
# taking turns and every run on a seed of its own. Prints, per workload and
# end-to-end metric, each set's median, quartiles and spread (quartile
# distance as a share of the median, as `statistics.quantiles(v, n=4)`
# gives them), and fails when a spread exceeds the metric's bound or the
# second set's median is worse than the first's by more than the bound.
set -euo pipefail
n="${1:?usage: repeat.sh N}"
cd "$(dirname "$0")/.."
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
for set in 1 2; do
    for i in $(seq "$n"); do
        for workload in $workloads; do
            bash benchmark/run.sh --workload "$workload" --seed $((set * 1000 + i)) \
                --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >> "$out/$workload.$set.jsonl"
        done
    done
done
python3 - "$out" <<'PY'
import json, statistics, sys
out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
bad = []
for w in manifest["workloads"]:
    sets = [[json.loads(l) for l in open(f"{out}/{w['name']}.{s}.jsonl")] for s in (1, 2)]
    for runs in sets:
        if any(not r["correct"] or r["failed"] for r in runs):
            bad.append(f"{w['name']}: a run failed")
    jobs = {r["attempted"] for runs in sets for r in runs}
    print(f"{w['name']}: {len(sets[0])} + {len(sets[1])} runs, jobs per run {sorted(jobs)}")
    if len(jobs) != 1:
        bad.append(f"{w['name']}: job counts differ between runs: {sorted(jobs)}")
    for m in manifest["end_to_end"]:
        medians = []
        for runs in sets:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            print(f"  {m['name']:18} median {med:14.6g} {m['unit']:4} q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:7.4f} bound {m['bound']}")
            if m["name"] != "setup_s" and spread > m["bound"]:
                bad.append(f"{w['name']} {m['name']}: spread {spread:.4f} > bound {m['bound']}")
        worse = (medians[1] - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
        print(f"  {'':18} second median worse by {worse:+.4f}")
        if worse > m["bound"]:
            bad.append(f"{w['name']} {m['name']}: second median worse by {worse:.4f} > bound {m['bound']}")
print("\n".join(bad) if bad else "repeat: the two sets agree within the bounds")
sys.exit(1 if bad else 0)
PY
