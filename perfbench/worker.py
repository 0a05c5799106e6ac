"""One workload in a fresh process; started by run.py.

Prints "ready" when setup is done (imports, inputs, the socket prover
child), then runs operations in a closed loop until `--seconds` have
passed, checks them, and prints one JSON line of raw measurements.  With
--setup-only it stops after "ready".

Between operations, at most every PROBE_EVERY_S, it times `speed_probe`,
a fixed computation independent of parrsp.  On a shared 2-vCPU VM the host
can slow a vCPU by up to 1.8x for seconds at a time.  Each operation's
latency is also reported scaled by the probe times around it, so that
commits measured at different times compare at one nominal speed.

    python3 perfbench/worker.py --workload session-narrow --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_ERRORS = 3
PROBE_EVERY_S = 0.25
PROBE_NOMINAL_MS = 3.0  # speed_probe's usual time on a 2-vCPU Xeon VM, Python 3.11
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_M = np.random.default_rng(0).standard_normal((64, 64)) + 0j


def speed_probe() -> None:
    """A fixed mix of the kinds of work parrsp does: small numpy products,
    dict and tuple churn, integer arithmetic, one 64x64 product."""
    table = {}
    v = np.zeros(32, dtype=complex)
    v[3] = 1.0
    for i in range(60):
        v = np.kron(np.kron(_H, np.eye(2)), np.eye(8)) @ v
        table[i] = [v.sum(), (i, 2 * i)]
    acc = 0
    for i in range(3000):
        acc += i * i
    _M @ _M
    sorted(table)


class SpeedProbes:
    """Timed runs of speed_probe, between operations and between the steps
    of a long operation."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # (start, end)

    def take(self) -> None:
        start = time.perf_counter()
        speed_probe()
        self.spans.append((start, time.perf_counter()))

    def due(self) -> bool:
        return not self.spans or time.perf_counter() - self.spans[-1][1] >= PROBE_EVERY_S

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(ms the operation [t0, t1] ran outside probes, the same ms at the
        speed where speed_probe takes PROBE_NOMINAL_MS).

        Each stretch between two probes is scaled by the mean of those two.
        """
        starts = [start for start, _ in self.spans]
        marks = self.spans[bisect.bisect_right(starts, t0) - 1 : bisect.bisect_left(starts, t1) + 1]
        bounds = [t0] + [t for mark in marks[1:-1] for t in mark] + [t1]
        raw = scaled = 0.0
        for j in range(len(marks) - 1):
            stretch = bounds[2 * j + 1] - bounds[2 * j]
            probe_s = (marks[j][1] - marks[j][0] + marks[j + 1][1] - marks[j + 1][0]) / 2
            raw += stretch
            scaled += stretch * PROBE_NOMINAL_MS / (probe_s * 1e3)
        return raw * 1e3, scaled * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run(workload, seconds: float, tracer) -> dict:
    op_times: list[tuple[float, float]] = []
    work = 0
    failed: set[int] = set()
    errors: list[str] = []
    probes = SpeedProbes()
    rss = None
    start = time.perf_counter()
    while True:
        if probes.due():
            probes.take()
        i = len(op_times)
        op = workload.next_op(i)
        root = tracer.root("op", i) if tracer else contextlib.nullcontext()
        t0 = t1 = None
        try:
            with root:
                t0 = time.perf_counter()
                out = workload.run(op, probes.take)
                t1 = time.perf_counter()
            ok, units = workload.check(i, op, out)
        except Exception:  # an operation that raises is a failed operation
            t0 = t0 or time.perf_counter()
            t1 = t1 or time.perf_counter()
            ok, units = False, 0
            if len(errors) < MAX_REPORTED_ERRORS:
                errors.append(traceback.format_exc())
                print(errors[-1], file=sys.stderr)
        op_times.append((t0, t1))
        work += units
        if not ok:
            failed.add(i)
        if i + 1 == workload.rss_after:
            rss = peak_rss_mb()
        if time.perf_counter() - start >= seconds:
            break
    probes.take()
    if rss is None:
        rss = peak_rss_mb()
    if tracer:
        tracer.active = False  # checks after the window are not traced
    failed.update(workload.finish())
    workload.close()
    latency_ms, scaled_ms = zip(*(probes.scale(t0, t1) for t0, t1 in op_times))
    return {
        "op_unit": workload.op_unit,
        "work_unit": workload.work_unit,
        "latency_ms": latency_ms,
        "scaled_ms": scaled_ms,
        "probe_ms": [(end - begin) * 1e3 for begin, end in probes.spans],
        "work": work,
        "rss_mb": rss,
        "rss_after": min(workload.rss_after, len(op_times)),
        "failed": len(failed),
        "errors": errors,
        "extra": workload.extra(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", help="write spans here and trace every layer")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    roots = lambda name, i: contextlib.nullcontext()  # noqa: E731
    if args.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer)
        roots = tracer.root
    child_trace = args.trace_out.replace("-spans.jsonl", "-prover") if args.trace_out else None
    workload = workloads.make(args.workload, args.seed, roots, child_trace)
    print("ready", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    result = run(workload, args.seconds, tracer)
    result["env"] = environment(args.seed)
    if tracer:
        child = workload.child_trace() if hasattr(workload, "child_trace") else None
        result["trace"] = {"bench": tracer.aggregates(), "prover": child}
        tracer.dump(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
