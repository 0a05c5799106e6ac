"""Prover side of the socket workload: `parrsp rsp serve-prover` in a child.

Runs `parrsp.cli.main` unchanged, with additions made from outside the
package: it prints "ready" once the server listens, it serves sessions
until SIGTERM, and with --trace-out it installs the benchmark's span
wrappers and on exit writes their aggregates to PREFIX.json and its spans
to PREFIX-spans.jsonl.

    python3 perfbench/prover.py --port 9100 --seed 7 [--trace-out PREFIX]
"""

from __future__ import annotations

import argparse
import itertools
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parrsp import cli, wire  # noqa: E402

import spans  # noqa: E402

MAX_SESSIONS = 10**9  # served until stopped


class Stop(BaseException):
    """Raised by the SIGTERM handler; not caught by cli.main."""


class _Ready:
    def set(self):
        print("ready", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    serve_prover = wire.serve_prover  # untraced: its time is idle waiting
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer)
        serve_connection = wire.serve_prover_connection
        sessions = itertools.count()

        def serve_one(conn, prover):
            with tracer.root("op", next(sessions)):
                return serve_connection(conn, prover)

        wire.serve_prover_connection = serve_one

    def serve_when_ready(host, port, factory, sessions=1, ready_event=None):
        return serve_prover(host, port, factory, sessions, ready_event=_Ready())

    wire.serve_prover = serve_when_ready

    def stop(signum, frame):
        raise Stop()

    signal.signal(signal.SIGTERM, stop)
    try:
        code = cli.main(["rsp", "serve-prover", "--host", "127.0.0.1", "--port", str(args.port),
                         "--seed", str(args.seed), "--sessions", str(MAX_SESSIONS)])
    except Stop:
        code = 0
    if tracer is not None:
        tracer.active = False
        with open(args.trace_out + ".json", "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregates(), fh)
        tracer.dump(args.trace_out + "-spans.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
