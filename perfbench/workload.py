"""One benchmark workload in a fresh interpreter; started by run.py.

Usage (run.py supplies every argument):
    python3 perfbench/workload.py WORKLOAD SEED SECONDS TRACE T0

T0 is the launcher's time.monotonic() just before it started this
process, so setup_s covers interpreter start, importing chiralcp (numpy,
scipy, yaml) and loading the workload's scenario YAML. The scenario then
runs through run_scenario repeatedly, each round identical: at least
MIN_ROUNDS rounds, and more as long as one more round (timed as the last
one) still ends within SECONDS. run_s is the fastest round, the one least
disturbed by other load on the host; peak_rss_mib is the peak after the
first round, so it does not depend on how many rounds fit. With TRACE=1
one further round runs with every layer boundary wrapped (tracing.py) and
the per-layer metrics are reported instead. The outputs of the last round
are then checked (checks.py). The result is the last stdout line, as JSON.
"""

import sys
import time

T_READY = None
MIN_ROUNDS = 2


def _setup(scenario_path):
    global T_READY
    from chiralcp import load_scenario

    t = time.perf_counter()
    cfg = load_scenario(scenario_path)
    parse_s = time.perf_counter() - t
    T_READY = time.monotonic()
    return cfg, parse_s


def main(argv):
    workload, seed, seconds, trace, t0 = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), trace == "1", float(t0)
    from pathlib import Path

    here = Path(__file__).resolve().parent
    cfg, parse_s = _setup(here / "scenarios" / f"{workload}.yaml")
    setup_s = T_READY - t0

    import json
    import resource
    import shutil

    import chiralcp
    import chiralcp.scenarios as scen
    import verify
    from tracing import Tracer

    src = here.parent / "src" / "chiralcp"
    if Path(chiralcp.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"chiralcp imported from {chiralcp.__file__}, not {src}")

    out_root = here / "results" / workload
    out_dir = out_root / "out"
    seed_override = seed if cfg.command == "ensemble" else None
    ops_per_round = verify.operations_per_round(cfg)

    # Keep the force fields of the latest round, for the ensemble oracle.
    fields = []
    build_fields = scen.force_field_pair

    def keep_fields(*args, **kwargs):
        pair = build_fields(*args, **kwargs)
        fields[:] = [pair]
        return pair

    scen.force_field_pair = keep_fields

    def one_round():
        shutil.rmtree(out_dir, ignore_errors=True)
        t = time.perf_counter()
        manifest = scen.run_scenario(cfg, out_dir, workers=1, seed_override=seed_override)
        return time.perf_counter() - t, manifest

    run_times, digests = [], []
    started = time.perf_counter()
    while (len(run_times) < MIN_ROUNDS
           or time.perf_counter() - started + run_times[-1] <= seconds):
        run_s, manifest = one_round()
        run_times.append(run_s)
        digests.append(manifest.outputs)
        if len(run_times) == 1:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        tracer = Tracer()
        with tracer.install(), tracer.span("scenarios.run"):
            traced_s, manifest = one_round()
        digests.append(manifest.outputs)
    scen.force_field_pair = build_fields

    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("outputs differ between identical rounds")
    stats = None
    if cfg.command == "ensemble":
        stats = json.loads((out_dir / "ensemble_stats.json").read_text())
    check, extra = verify.check_outputs(cfg, seed, out_dir, fields[-1] if fields else None)
    problems += check
    failed = 0
    if stats is not None:
        failed = (stats["positive"]["n_errors"] + stats["negative"]["n_errors"]) * len(digests)

    if trace:
        metrics = tracer.layer_metrics()
        out_root.mkdir(parents=True, exist_ok=True)
        tracer.save(out_root / f"trace-seed{seed}.npz")
        problems += verify.check_trace_totals(cfg, metrics, stats, fields[-1] if fields else None)
        untraced = min(run_times)
        # The manifest records wall time, so only the files it lists are counted.
        out_bytes = sum((out_dir / name).stat().st_size for name in manifest.outputs)
        metrics.update({
            "scenarios.parse_s": (parse_s, "s"),
            "scenarios.output_bytes": (out_bytes, "bytes"),
            "trace.run_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced, "s"),
            "trace.overhead_share": ((traced_s - untraced) / untraced, "ratio"),
        })
        metrics.update(extra)
    else:
        metrics = {
            "run_s": (min(run_times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": ops_per_round * len(digests),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(digests),
        "round_run_s": run_times,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
