"""The measured process: one fresh interpreter per benchmark run.

It imports tomolens, parses the workload's scenario configs, then runs the
workload's operations one after another (closed loop, one client) through
``scenarios.run_scenario`` / ``scenarios.run_audit``, the path ``tomolens
run`` / ``tomolens audit`` takes.  A pass is one run of every operation.
Passes repeat while another one fits in ``--seconds``; at least two run.
Outputs are verified after the last pass, outside the timed region.

With ``--probe`` it stops once set-up is done, which gives the benchmark
further set-up samples.  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones report per-layer metrics.

Usage (normally started by run.py):
    python3 worker.py --spawned-at T --ops OPS.json --out DIR --result RESULT.json
        [--seconds S] [--trace 0|1] [--probe]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

# Importing the package loads every tomolens module and numpy and scipy;
# set-up time covers it.
from tomolens import scenarios

MAX_REPORTED_FAILURES = 20
MIN_PASSES = 2


def load_operations(path: str) -> list:
    """[(name, parsed config or None for the audit)] from the ops file."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    return [(e["name"], scenarios.parse_config(e["config"]) if e["config"] else None)
            for e in entries]


def run_pass(ops: list, pass_dir: str) -> dict:
    """One timed pass over every operation; exceptions count as failed ops."""
    outcomes = []
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for name, cfg in ops:
        try:
            if cfg is None:
                outcomes.append((name, scenarios.run_audit(), None))
            else:
                scenarios.run_scenario(cfg, os.path.join(pass_dir, name))
                outcomes.append((name, None, None))
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            outcomes.append((name, None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {"dir": pass_dir, "wall_s": wall, "cpu_s": cpu, "outcomes": outcomes}


def _dir_digest(path: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.blake2b(fh.read(), digest_size=16).digest())
    return h.hexdigest()


def verify_passes(ops: list, passes: list) -> tuple:
    """(ops attempted, failure messages) over every pass.

    Scenario outputs are deterministic, so an output directory whose bytes
    equal an already verified one takes that verdict; any other output is
    checked in full.
    """
    import verify

    configs = dict(ops)
    verdicts: dict = {}
    attempted, failures = 0, []
    for p in passes:
        for name, audit_results, error in p["outcomes"]:
            attempted += 1
            if error is not None:
                fails = [error]
            elif configs[name] is None:
                fails = verify.verify_audit(audit_results)
            else:
                out_dir = os.path.join(p["dir"], name)
                key = (name, _dir_digest(out_dir))
                if key not in verdicts:
                    verdicts[key] = verify.verify_scenario(configs[name], out_dir)
                fails = verdicts[key]
            if fails:
                failures.append(f"{os.path.basename(p['dir'])}/{name}: " + "; ".join(fails))
    return attempted, failures


def measure(ops: list, out_dir: str, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`, alternating untraced and traced when tracing."""
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    passes, walls, cpus, traced_walls, layers = [], [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        pass_dir = os.path.join(out_dir, f"pass{len(passes):03d}")
        if traced:
            tracer.reset()
            with tracer:
                p = run_pass(ops, pass_dir)
            traced_walls.append(p["wall_s"])
            layers.append(layer_metrics(tracer.spans, p["wall_s"]))
        else:
            p = run_pass(ops, pass_dir)
            walls.append(p["wall_s"])
            cpus.append(p["cpu_s"])
        passes.append(p)
        if len(passes) == 1:
            # Later passes reuse a heap shaped by earlier ones; the peak of
            # set-up plus one pass is what a fresh `tomolens run` reaches.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Stop before a pass that would overrun the budget, after at least
        # two passes (one untraced and one traced when tracing).
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and (tracer is None or traced_walls) and \
                elapsed + elapsed / len(passes) > seconds:
            break
    attempted, failures = verify_passes(ops, passes)
    result = {
        "passes": len(passes),
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        "ops": attempted,
        "ops_failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if tracer is not None:
        merged = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        merged["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["traced_wall_s"] = traced_walls
        result["layers"] = merged
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="monotonic clock reading taken just before this process started")
    parser.add_argument("--ops", required=True, help="JSON list of {name, config path or null}")
    parser.add_argument("--out", required=True, help="directory for scenario outputs")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    ops = load_operations(args.ops)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.probe:
        shutil.rmtree(args.out, ignore_errors=True)
        result.update(measure(ops, args.out, args.seconds, bool(args.trace)))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
