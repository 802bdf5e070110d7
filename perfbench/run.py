"""tomolens benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload two-mode --seed 1 --seconds 20 --trace 0

The workloads are defined in workloads.py and described in BENCHMARK.json.
Every run starts fresh worker processes with the checkout's ``src`` first on
``PYTHONPATH`` and with ``TOMOLENS_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` removed, so the program's default threading is measured.
Several probe processes only set up; their set-up times and the measuring
worker's give the median ``setup_s``.  The measuring worker repeats passes
over the workload for ``--seconds``; ``wall_s`` and ``cpu_s`` are the median
pass, and ``peak_rss_mb`` is its peak resident set over set-up and the first
pass.

``--trace 0`` prints the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb); ``--trace 1`` prints the per-layer metrics of traced passes
and the tracing overhead.  Ops and failed ops are printed on every run, and
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("TOMOLENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150.0
OUT_ROOT = ".bench_out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
COUNT_UNITS = {"calls": "count", "values": "count", "dim": "count", "kept": "count",
               "out_dim": "count", "distinct_ratio": "ratio", "concurrency": "ratio",
               "bytes": "B", "artifact_bytes": "B", "tensor_mb": "MB"}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    return "s" if last.endswith("_s") else COUNT_UNITS[last]


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(src: str) -> dict:
    """Machine, interpreter and library versions, and the thread settings."""
    cpu_model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = (
        "import json, numpy, scipy\n"
        "blas = numpy.__config__.CONFIG.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
        "                  'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(src), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **json.loads(out.strip().splitlines()[-1]),
        # The caller's values; worker processes run with these unset.
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_worker(src: str, ops_path: str, out: str, result_path: str, *extra: str) -> dict:
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--ops", ops_path, "--out", out,
           "--result", result_path, *extra]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=child_env(src),
                            stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tomolens benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "tomolens", "__init__.py")):
        print("error: run from the root of a tomolens checkout (src/tomolens not found)",
              file=sys.stderr)
        return 2

    work = os.path.abspath(os.path.join(OUT_ROOT, args.workload))
    os.makedirs(os.path.join(work, "configs"), exist_ok=True)
    entries = []
    for name, config in workloads.operations(args.workload, args.seed):
        path = None
        if config is not None:
            path = os.path.join(work, "configs", f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workloads.config_text(config))
        entries.append({"name": name, "config": path})
    ops_path = os.path.join(work, "ops.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)

    try:
        env = environment(src)
        probe_result = os.path.join(work, "probe.json")
        setups = [run_worker(src, ops_path, os.path.join(work, "out"), probe_result,
                             "--probe")["setup_s"] for _ in range(SETUP_PROBES)]
        res = run_worker(src, ops_path, os.path.join(work, "out"), os.path.join(work, "worker.json"),
                         "--seconds", repr(args.seconds), "--trace", str(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {name: {"value": v, "unit": unit_of(name) if args.trace else dict(END_TO_END)[name]}
               for name, v in values.items()}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": res["passes"], "setup_samples_s": setups, "wall_samples_s": res["wall_s"],
        "cpu_samples_s": res["cpu_s"], "traced_wall_samples_s": res.get("traced_wall_s"),
        "ops": res["ops"], "ops_failed": res["ops_failed"], "failures": res["failures"],
        "metrics": metrics, "env": env,
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"ops {res['ops']} count")
    print(f"ops_failed {res['ops_failed']} count")
    print(json.dumps({"correct": res["ops_failed"] == 0, "attempted": res["ops"],
                      "failed": res["ops_failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
