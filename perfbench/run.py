"""Benchmark entry point: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs the workloads listed in ``BENCHMARK.json``; any
workload defined in ``workloads.py`` also runs alone by name.
Each workload runs in its own process with BLAS pinned to one thread.
Set-up time is the median over fresh processes that only import
``fredholm`` and build the workload's inputs.  Both time metrics are
scaled to a fixed host speed, gauged by the reference unit of
``reference.py``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable copy with the environment and the unscaled times.
This file imports nothing outside the standard library, so the processes
it starts are the only ones that load numpy.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PROBES = 3
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _worker(args, timeout):
    env = dict(os.environ, **PINNED)
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, spec):
    """Run one workload and return (result JSON, environment)."""
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    try:
        # the first probe warms the file and byte-code caches, so it is not counted
        probes = [_worker(["probe", workload, str(seed), workdir], 60) for _ in range(PROBES + 1)][1:]
        run = _worker(["run", workload, str(seed), str(seconds), "1" if trace else "0", workdir],
                      120)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = dict(run["metrics"])
    raw["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    raw["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        raise BenchError(f"workload {workload} did not report {', '.join(missing)}")
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = dict(run["env"], samples=run["samples"], rounds=run["rounds"])
    env.update(run.get("wall", {}), setup_wall_s=statistics.median(p["setup_wall_s"] for p in probes),
               probe_unit_s=statistics.median(p["unit_s"] for p in probes))
    return result, env


def _print_readable(workload, seed, result, env):
    print(f"# workload {workload}  seed {seed}  env {json.dumps(env, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"#   {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"#   attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join("src", "fredholm", "__init__.py")):
            raise BenchError("run from the root of a fredholm checkout (src/fredholm is missing)")
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        if args.workload == "all":
            names = [w["name"] for w in spec["workloads"]]
        else:
            names = [args.workload]
        results = {}
        for name in names:
            result, env = measure(name, args.seed, args.seconds, bool(args.trace), spec)
            _print_readable(name, args.seed, result, env)
            results[name] = result
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
