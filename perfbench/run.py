#!/usr/bin/env python3
"""Benchmark for chiralcp: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. The workload runs in a child
interpreter (workload.py) with one BLAS/OpenMP thread and workers=1.
With --trace 0 the result holds the end-to-end metrics (run_s, setup_s,
peak_rss_mib); with --trace 1 the per-layer metrics of a traced round.
The last stdout line is the JSON result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Workloads: beam_ensemble, trap_release_histories, thermal_scan,
cavity_orders (see README.md).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("beam_ensemble", "trap_release_histories", "thermal_scan", "cavity_orders")
TIMEOUT_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chiralcp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = Path.cwd() / "src"
    if not (src / "chiralcp" / "__init__.py").is_file():
        print(f"no chiralcp source under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "workload.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)]
    # A terminated launcher takes its workload process down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(t0)], stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(out.strip().splitlines()[-1])

    print(f"{args.workload} seed={args.seed} rounds={child['rounds']} "
          f"round_run_s={['%.3f' % t for t in child['round_run_s']]}")
    for name, m in child["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {child['attempted']}, failed {child['failed']}, "
          f"correct {child['correct']}")
    result = {k: child[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
