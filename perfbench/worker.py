"""One benchmark process: ``probe`` times set-up, ``run`` times operations.

Started by ``run.py`` with BLAS pinned to one thread in the environment, so
the pinning is in place before numpy loads.  Prints one JSON object on its
last line of standard output.

    python3 perfbench/worker.py probe WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR
"""

import os
import sys
import time

# a traced run goes on until it has attempted this many plain/traced pairs
MIN_TRACED = 6
# in an untraced run, the reference (reference.py) runs after each operation
# for this share of the operation's time, so it samples the host's speed all
# through the run
GAUGE_SHARE = 0.25
# a probe runs the reference for this long after set-up
PROBE_GAUGE_S = 0.3


def import_fredholm():
    """Import the package from the checkout's ``src`` and nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "fredholm", "__init__.py")):
        raise SystemExit(f"no fredholm sources under {src}")
    sys.path.insert(0, src)
    import fredholm
    import fredholm.cli

    return fredholm


def probe(name, seed, workdir):
    t0 = time.perf_counter()
    fh = import_fredholm()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    t2 = time.perf_counter()
    WORKLOADS[name](fh, seed, workdir)
    t3 = time.perf_counter()
    from reference import Gauge

    gauge = Gauge()
    gauge.sample(PROBE_GAUGE_S)
    scale = gauge.scale()
    return {"import_s": (t1 - t0) * scale, "setup_s": ((t1 - t0) + (t3 - t2)) * scale,
            "setup_wall_s": (t1 - t0) + (t3 - t2), "unit_s": gauge.unit_s()}


def _median(values):
    s = sorted(values)
    n = len(s)
    return 0.5 * (s[(n - 1) // 2] + s[n // 2])


def run(name, seed, seconds, trace, workdir):
    import contextlib
    import resource
    import traceback

    import numpy as np
    import scipy

    fh = import_fredholm()
    from reference import Gauge
    from spans import SpanRecorder, targets
    from workloads import WORKLOADS

    wl = WORKLOADS[name](fh, seed, workdir)
    wl.prepare()
    wl.warmup()
    ops = wl.operations()
    recorder = SpanRecorder(fh) if trace else None
    gauge = None if trace else Gauge()

    attempted = failed = 0
    problems = []
    plain_s, traced_s, overhead, layer_samples = [], [], [], []
    start = time.perf_counter()
    rounds = 0
    # Whole rounds only.  A traced run times every operation plain and traced,
    # back to back and in alternating order, so the overhead is a median of
    # paired ratios.
    while (rounds < 1 or time.perf_counter() - start < seconds
           or (trace and attempted < 2 * MIN_TRACED)):
        kinds = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for label, op in ops:
            times = {}
            for traced in kinds:
                attempted += 1
                try:
                    with recorder if traced else contextlib.nullcontext():
                        t0 = time.perf_counter()
                        result = op()
                        times[traced] = time.perf_counter() - t0
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                (traced_s if traced else plain_s).append(times[traced])
                if gauge:
                    gauge.sample(GAUGE_SHARE * times[traced])
                if traced:
                    sample = recorder.take()
                    if hasattr(wl, "output_bytes"):
                        sample["cli.output_bytes"] = wl.output_bytes(result)
                    layer_samples.append(sample)
                problems += [f"{label}: {msg}" for msg in wl.check(label, result)]
            if len(times) == 2:
                overhead.append(times[True] / times[False] - 1.0)
        rounds += 1

    for msg in problems[:20]:
        print("check failed:", msg, file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if not trace:
        # The mean, not the median: this host switches between a fast and a
        # slow speed every few seconds, so the operation times of a run are
        # bimodal and their median jumps between the two modes from run to
        # run, while the mean follows the share of time spent in each.
        # reference.py explains the scaling to a fixed host speed.
        wall = sum(plain_s) / len(plain_s)
        out["metrics"] = {
            "op_s": wall * gauge.scale(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out["samples"] = len(plain_s)
        out["wall"] = {"op_wall_s": wall, "op_median_wall_s": _median(plain_s),
                       "unit_s": gauge.unit_s()}
    else:
        names = {name for _, _, name, _ in targets(fh)}
        keys = {f"{n}.{kind}" for n in names for kind in ("calls", "self_s")}
        keys |= {"discrete.cells", "cli.output_bytes"}
        for sample in layer_samples:
            keys |= set(sample)
        layers = {k: _median([s.get(k, 0) for s in layer_samples]) for k in sorted(keys)}
        layers["trace.overhead_pct"] = 100.0 * _median(overhead)
        out["metrics"] = layers
        out["samples"] = len(traced_s)
    return out


def main(argv):
    import json

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "probe":
        result = probe(name, seed, argv[3])
    else:
        result = run(name, seed, float(argv[3]), argv[4] == "1", argv[5])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
