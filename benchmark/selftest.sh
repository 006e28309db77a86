#!/usr/bin/env bash
# Run every workload at smoke size, untraced and traced, and hold the
# output against BENCHMARK.json: every named metric present exactly once,
# finite, with its unit; no unnamed metric; no failed job; and the traced
# run did exactly the work of the untraced one.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out/selftest
mkdir -p "$out"
for workload in $(python3 -c 'import json; print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])'); do
    for trace in 0 1; do
        bash benchmark/run.sh --workload "$workload" --seed 7 --smoke --trace "$trace" \
            | tail -n 1 > "$out/$workload.$trace.json"
    done
done
python3 - "$out" <<'PY'
import json, math, re, sys
out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
bad = []
for w in manifest["workloads"]:
    work = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        path = f"{out}/{w['name']}.{trace}.json"
        text = open(path).read()
        result = json.loads(text)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            bad.append(f"{path}: keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            bad.append(f"{path}: correct={result['correct']} failed={result['failed']}")
        want = {m["name"]: m["unit"] for m in manifest[group]}
        got = result["metrics"]
        for name in want.keys() - got.keys():
            bad.append(f"{path}: {name} missing")
        for name in got.keys() - want.keys():
            bad.append(f"{path}: {name} is not in BENCHMARK.json")
        for name, unit in want.items():
            if len(re.findall(rf'"{re.escape(name)}":', text)) != 1:
                bad.append(f"{path}: {name} printed more or less than once")
            m = got.get(name)
            if m and (m["unit"] != unit or not math.isfinite(m["value"])):
                bad.append(f"{path}: {name} = {m}")
        work[trace] = result["attempted"]
        if trace:
            work["jobs"] = got.get("bench.jobs", {}).get("value")
    if work[0] != work[1] or work[1] != work["jobs"]:
        bad.append(f"{w['name']}: untraced ran {work[0]} jobs, traced {work[1]}, bench.jobs {work['jobs']}")
print("\n".join(bad) if bad else "selftest: ok")
sys.exit(1 if bad else 0)
PY
