"""parrsp benchmark runner.

    python3 perfbench/run.py --workload session-narrow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in its own fresh worker
process (perfbench/worker.py) with BLAS pinned to one thread.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  setup_s is the
median, over several fresh worker processes, of the time from process start
to the first timed operation.

--trace 1 reports the per-layer metrics instead.  It runs the workload twice
for half the window each: once untraced and once with every layer wrapped
by perfbench/spans.py; tracing overhead is traced minus untraced.  Layer
metrics are per operation.  Spans and a full record of every run are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5  # worker processes whose set-up is timed, the measured one included
DEADLINE_S = 170  # a run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its prover child
    except ProcessLookupError:
        pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return (seconds until it was ready, its result)."""
    env = dict(os.environ, **BLAS_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        _kill_group(proc)
        proc.wait()
    command = " ".join(args)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit {proc.returncode}): {command}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    operations beyond it, but never below the 90th (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = min(max(n - 11, math.ceil(0.9 * n) - 1, 0), n - 1)
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    latency = result["scaled_ms"]
    return {
        "setup_s": setup_s,
        "work_per_s": result["work"] / (sum(latency) / 1e3),
        "op_ms.p50": statistics.median(latency),
        "op_ms.tail": tail(latency)[0],
        "peak_rss_mb": result["rss_mb"],
    }


def layer_values(result: dict) -> dict[str, float]:
    bench, prover = result["trace"]["bench"], result["trace"]["prover"]
    ops = len(result["latency_ms"])
    values = spans.layer_metrics(spans.merge(bench, prover), ops)
    values["trace.wall_ms"] = bench["root_ms"] / ops
    values["trace.coverage"] = bench["layer_ms"] / bench["root_ms"]
    return values


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    base = ["--workload", name, "--seed", str(seed)]
    if trace == 0:
        setup = [spawn(base + ["--seconds", "0", "--setup-only"], deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, result = spawn(base + ["--seconds", str(seconds)], deadline)
        setup.append(setup_s)
        metrics = end_to_end(result, statistics.median(setup))
        record = {"setup_s": setup, "result": result}
    else:
        half = str(seconds / 2)
        trace_out = str(OUT / f"{name}-spans.jsonl")  # overwritten by the next traced run
        plain_setup, plain = spawn(base + ["--seconds", half], deadline)
        traced_setup, traced = spawn(base + ["--seconds", half, "--trace-out", trace_out], deadline)
        metrics = layer_values(traced)
        untraced_e2e = end_to_end(plain, plain_setup)
        traced_e2e = end_to_end(traced, traced_setup)
        for key in untraced_e2e:
            metrics[f"trace.overhead.{key}"] = traced_e2e[key] - untraced_e2e[key]
        result = traced
        record = {"untraced": plain, "traced": traced, "untraced_e2e": untraced_e2e, "traced_e2e": traced_e2e}
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace, metrics=metrics)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return {"result": result, "metrics": metrics}


def report_lines(name: str, seed: int, trace: int, run: dict, units: dict[str, str]) -> list[str]:
    result, metrics = run["result"], run["metrics"]
    n = len(result["latency_ms"])
    lines = [f"workload {name}  seed {seed}  trace {trace}  op = {result['op_unit']}, work = {result['work_unit']}"]
    for key, value in metrics.items():
        lines.append(f"  {key:<44} {value:>14.6g} {units.get(key, '')}")
    _, pct = tail(result["scaled_ms"])
    lines.append(f"  op_ms.tail is p{pct:.1f} of {n} operations; peak_rss_mb after {result['rss_after']}")
    raw = result["latency_ms"]
    lines.append(
        f"  unscaled: op_ms.p50 {statistics.median(raw):.6g}, work_per_s {result['work'] / sum(raw) * 1e3:.6g};"
        f" speed probe median {statistics.median(result['probe_ms']):.4g} ms"
    )
    lines.append(f"  fail_frac {result['failed']}/{n}")
    replay = result["extra"].get("replay_ms")
    if replay:
        lines.append(f"  replay_ms.p50 {statistics.median(replay):.4f} ms over {len(replay)} transcripts")
    extra = {k: v for k, v in result["extra"].items() if k != "replay_ms"}
    if extra:
        lines.append(f"  {json.dumps(extra)}")
    lines.append(f"  env {json.dumps(result['env'])}")
    return lines


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="parrsp benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "parrsp" / "__init__.py").is_file():
        print(f"error: no parrsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    selected = names if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in selected:
        try:
            run = run_workload(name, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        missing = set(units) - set(run["metrics"])
        if missing:
            print(f"error: {name} did not measure {sorted(missing)}", file=sys.stderr)
            return 1
        print("\n".join(report_lines(name, args.seed, args.trace, run, units)))
        attempted += len(run["result"]["latency_ms"])
        failed += run["result"]["failed"]
        prefix = f"{name}/" if len(selected) > 1 else ""
        metrics.update({
            prefix + key: {"value": run["metrics"][key], "unit": unit} for key, unit in units.items()
        })
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
