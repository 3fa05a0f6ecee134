#!/usr/bin/env python3
"""Regenerate the reference figures of README.md.

    python3 perfbench/reference.py --seeds 1-10 [--seeds 11-20]

Runs run.py once per workload of BENCHMARK.json and seed with --trace 0
(and, for the first TRACED_SEEDS seeds of the first set, with --trace 1),
from the repository root, one run at a time. Prints, per set, workload and
end-to-end metric, the median and quartiles with the quartile spread as a
share of the median; with two sets, the change of each median from one
set to the other in both directions; and the traced runs' overhead. Raw
results go to perfbench/results/reference.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACED_SEEDS = 2


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench, name, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, action="append", required=True)
    args = parser.parse_args(argv)

    log = HERE / "results" / "reference.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    with log.open("a") as f:
        for k, seeds in enumerate(args.seeds):
            for name in names:
                for i, seed in enumerate(seeds):
                    for trace in (0, 1) if k == 0 and i < TRACED_SEEDS else (0,):
                        rec = {"set": k, "workload": name, "seed": seed, "trace": trace,
                               "result": _run(bench, name, seed, trace)}
                        f.write(json.dumps(rec) + "\n")
                        f.flush()
                        rows.append(rec)

    medians = {}
    print("| set | workload | metric | median | q1 | q3 | (q3-q1)/median | bound | runs |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for k in range(len(args.seeds)):
        for name in names:
            runs = [r["result"] for r in rows
                    if r["set"] == k and r["workload"] == name and r["trace"] == 0]
            if not all(r["correct"] for r in runs):
                print(f"set {k + 1} {name}: a check failed", file=sys.stderr)
            for m in bench["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
                medians[k, name, m["name"]] = med
                print(f"| {k + 1} | {name} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} "
                      f"| {q3:.4g} | {(q3 - q1) / med:.3f} | {m['bound']} | {len(vals)} |")
    if len(args.seeds) > 1:
        print()
        print("| workload | metric | set 2 / set 1 - 1 | set 1 / set 2 - 1 | bound |")
        print("| --- | --- | --- | --- | --- |")
        for name in names:
            for m in bench["end_to_end"]:
                a, b = medians[0, name, m["name"]], medians[1, name, m["name"]]
                print(f"| {name} | {m['name']} | {b / a - 1:+.3f} | {a / b - 1:+.3f} "
                      f"| {m['bound']} |")
    print()
    print("| workload | traced run_s | overhead_s | overhead share | spans |")
    print("| --- | --- | --- | --- | --- |")
    for name in names:
        traced = [r["result"]["metrics"] for r in rows
                  if r["workload"] == name and r["trace"] == 1]
        if traced:
            def med(key):
                return statistics.median(t[key]["value"] for t in traced)
            print(f"| {name} | {med('trace.run_s'):.4g} | {med('trace.overhead_s'):.3g} "
                  f"| {med('trace.overhead_share'):.3f} | {med('trace.spans'):.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
