"""The benchmark's workloads: inputs, the timed operation, and its checks.

Every workload is a closed loop with one client: an operation starts only
when the previous one has ended.  All inputs derive from the workload seed
through `parrsp.seeds.derive_seed`, and no session or trial seed repeats
within a process, because entcf's table caches are keyed by the key seed
and a repeated seed would measure a warm cache that real sessions never see.

A workload object offers
  next_op(i)         inputs of operation i (not timed)
  run(op, between)   the timed operation; a long one calls between() after
                     each of its steps, to sample the machine's speed there
  check(i, op, out)  -> (ok, work units); a replay runs under `roots`
  finish()           -> indices of operations failed by checks made after
                     the timed window (pooled statistics, socket byte identity)
  close()            stops whatever set-up started
  extra()            figures printed beside the metrics, not gated
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from parrsp import cli, copyprotect, protocol, provers, transcript, unclonable, wire
from parrsp.seeds import derive_seed, derived_rng

HERE = Path(__file__).resolve().parent
DELTA = 0.05


# -- protocol sessions -----------------------------------------------------------


def session_shape(seed: int, m_blocks: int) -> tuple[int, int]:
    """(s_blocks, r_draw) of the session with this seed.

    These are the first two draws VerifierSession.run_multi_round makes from
    its session RNG.  An honest session plays s_blocks * M + r_draw - 1 test
    rounds and one preparation round.
    """
    rng = derived_rng(seed, "verifier", "session")
    return int(rng.integers(0, m_blocks)), int(rng.integers(1, m_blocks + 1))


def bit_reversed_shapes(m_blocks: int) -> list[tuple[int, int]]:
    """All M^2 shapes, ordered so that every prefix spreads evenly over
    session lengths; M must be a power of two."""
    count = m_blocks * m_blocks
    bits = count.bit_length() - 1
    order = [int(format(k, f"0{bits}b")[::-1], 2) for k in range(count)]
    return [(k // m_blocks, k % m_blocks + 1) for k in order]


class SessionPlan:
    """Fresh session seeds that visit the given shapes in cycle.

    Session length varies from 1 to M^2 rounds with the seed, so a run's
    median session latency would otherwise vary with the workload seed by
    more than any bound worth setting.  Candidate seeds are derived in order
    and each is used at most once.
    """

    def __init__(self, root: int, label: str, m_blocks: int, shapes: list[tuple[int, int]]):
        self.root, self.label, self.m_blocks, self.shapes = root, label, m_blocks, shapes
        self.pending: dict[tuple[int, int], list[int]] = {shape: [] for shape in shapes}
        self.candidates = 0
        self.sessions = 0

    def next(self) -> tuple[int, tuple[int, int]]:
        """The next session's seed and its shape."""
        want = self.shapes[self.sessions % len(self.shapes)]
        self.sessions += 1
        while not self.pending[want]:
            seed = derive_seed(self.root, self.label, "session", self.candidates)
            self.candidates += 1
            shape = session_shape(seed, self.m_blocks)
            if shape in self.pending:
                self.pending[shape].append(seed)
        return self.pending[want].pop(0), want


def rounds_played(result) -> int:
    """Test rounds plus the preparation round when it ran."""
    return len(result.flags) + (1 if result.accepted else 0)


def bb84_states_ok(result) -> bool:
    """Each committed qubit equals H^theta_i |v_i> with fidelity 1 (1e-10)."""
    states = result.prover_final_state
    if states is None or len(states) != len(result.theta_vec):
        return False
    for state, theta, v in zip(states, result.theta_vec, result.v_vec):
        if theta == 0:
            expected = np.array([1 - v, v], dtype=complex)
        else:
            expected = np.array([1, (-1) ** v], dtype=complex) / np.sqrt(2.0)
        if abs(abs(np.vdot(expected, state.amplitudes)) ** 2 - 1.0) > 1e-10:
            return False
    return True


class Session(NamedTuple):
    strategy: str  # "honest" or a registry cheater
    shape: tuple[int, int]  # planned (s_blocks, r_draw)
    config: protocol.MultiRoundConfig
    prover: object  # None when the prover is remote


class InProcessSessions:
    """`rsp run` sessions with the prover in the benchmark process.

    Sessions whose index is `cheat_every - 1` modulo `cheat_every` are played
    by the registry cheaters in turn, so the reject path is timed as well.
    Every transcript is replayed after its session.
    """

    op_unit, work_unit = "session", "round"

    def __init__(self, seed, roots, *, n, m_blocks, width, shapes, cheaters=(), cheat_every=0, rss_after):
        self.n, self.m_blocks, self.width = n, m_blocks, width
        self.roots = roots
        # cheaters get a cycle of their own, so both kinds cover every shape
        self.plans = {kind: SessionPlan(seed, f"w{width}-{kind}", m_blocks, shapes) for kind in ("honest", "cheat")}
        self.cheaters, self.cheat_every = cheaters, cheat_every
        self.rss_after = rss_after
        self.replay_ms: list[float] = []
        self.shape_misses = 0  # nonzero if session_shape no longer matches the verifier

    def config(self, seed: int) -> protocol.MultiRoundConfig:
        return protocol.MultiRoundConfig(n=self.n, m_blocks=self.m_blocks, delta=DELTA, width=self.width, seed=seed)

    def next_op(self, i: int):
        strategy = "honest"
        if self.cheat_every and i % self.cheat_every == self.cheat_every - 1:
            strategy = self.cheaters[(i // self.cheat_every) % len(self.cheaters)]
        seed, shape = self.plans["honest" if strategy == "honest" else "cheat"].next()
        prover_seed = derive_seed(seed, "prover")  # as `rsp run` derives it
        if strategy == "honest":
            prover = provers.HonestProver(prover_seed)
        else:
            prover = provers.cheating_prover(strategy, prover_seed)
        return Session(strategy, shape, self.config(seed), prover)

    def run(self, op, between):
        return protocol.run_multi_round(op.config, op.prover)

    def _verify(self, i, op, result):
        """Replay under a root span; note a session whose shape was mispredicted."""
        if (result.s_blocks, result.r_draw) != op.shape:
            self.shape_misses += 1
        with self.roots("verify", i):
            start = time.perf_counter()
            report = transcript.replay(result.transcript)
            self.replay_ms.append((time.perf_counter() - start) * 1e3)
        return report

    def check(self, i, op, result):
        # replay recomputes the accept decision, so ok also covers cheaters
        ok = self._verify(i, op, result).ok
        if op.strategy == "honest":
            ok = ok and result.accepted and bb84_states_ok(result)
        return ok, rounds_played(result)

    def finish(self):
        return []

    def close(self):
        pass

    def extra(self):
        return {"replay_ms": self.replay_ms, "shape_misses": self.shape_misses}


class SocketSessions(InProcessSessions):
    """Honest sessions against `parrsp rsp serve-prover` in a child process.

    The child serves every session under one `--seed`, as serve-prover does;
    the key seeds, which key the caches, are fresh per session.  After the
    timed window every IDENTITY_EVERY-th transcript is compared byte for
    byte with an in-process run of the same seeds.
    """

    IDENTITY_EVERY = 4  # bounds the untimed reruns to a quarter of the sessions

    def __init__(self, seed, roots, *, trace_out, **kw):
        super().__init__(seed, roots, **kw)
        self.server_seed = derive_seed(seed, "socket", "server")
        self.transcripts: list[tuple[int, int, bytes]] = []
        self.host = "127.0.0.1"
        with socket.socket() as probe:
            probe.bind((self.host, 0))
            self.port = probe.getsockname()[1]
        cmd = [sys.executable, str(HERE / "prover.py"), "--port", str(self.port),
               "--seed", str(self.server_seed)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.trace_out = trace_out
        self.child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        if self.child.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("prover child did not start")

    def next_op(self, i: int):
        seed, shape = self.plans["honest"].next()
        return Session("honest", shape, self.config(seed), None)

    def run(self, op, between):
        client = wire.SocketProverClient.connect(self.host, self.port)
        try:
            return protocol.run_multi_round(op.config, client)
        finally:
            client.close()

    def check(self, i, op, result):
        report = self._verify(i, op, result)
        if i % self.IDENTITY_EVERY == 0:
            self.transcripts.append((i, op.config.seed, result.transcript.to_bytes()))
        return report.ok and result.accepted, rounds_played(result)

    def finish(self):
        self.close()
        failed = []
        prover_seed = derive_seed(self.server_seed, "prover")
        for i, seed, remote in self.transcripts:
            local = protocol.run_multi_round(self.config(seed), provers.HonestProver(prover_seed))
            if local.transcript.to_bytes() != remote or not bb84_states_ok(local):
                failed.append(i)
        return failed

    def close(self):
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        self.child.stdout.close()

    def extra(self):
        # the prover child has been waited for by now
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {**super().extra(), "prover_peak_rss_mb": child_kb / 1024}

    def child_trace(self):
        if self.trace_out is None or not os.path.exists(self.trace_out + ".json"):
            return None
        with open(self.trace_out + ".json", encoding="utf-8") as fh:
            return json.load(fh)


# -- application paths ---------------------------------------------------------

# the perturbed report is the same for every seed; recorded at commit 7a3d761
PERTURBED_REFERENCE = {
    "anticommutation": [-0.6999999999999998],
    "bb84_max_distance": 0.10606601717798211,
    "epsilon": 0.3,
    "gamma_H": 0.14999999999999997,
    "gamma_P": 5.551115123125783e-17,
    "isometry_relation_gap": 0.0,
    "n": 1,
    "pauli_max_deviation": 0.6000000000000001,
    "structure": {
        "equation_kraus_gap": 0.0,
        "preimage_projectivity_gap": 0.0,
        "question_projectivity_gap": 2.220446049250313e-16,
        "state_normalization_gap": 2.220446049250313e-16,
    },
    "success_relation_max_gap": 0.30000000000000016,
    "width": 2,
}
HONEST_ZEROS = ("gamma_P", "gamma_H", "pauli_max_deviation", "success_relation_max_gap",
                "isometry_relation_gap", "bb84_max_distance")


def _close(a, b, tol: float) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    return isinstance(b, (int, float)) and abs(a - b) <= tol


def honest_report_ok(report: dict) -> bool:
    return (
        report["n"] == 2 and report["width"] == 2 and report["epsilon"] == 0.0
        and all(abs(report[key]) <= 1e-9 for key in HONEST_ZEROS)
        and all(abs(value + 1.0) <= 1e-9 for value in report["anticommutation"])
        and all(abs(value) <= 1e-9 for value in report["structure"].values())
    )


class AppsCycle:
    """One operation runs each application path once, each timed on its own:

    wkd        WKD_TRIALS wrong-key-detection Monte Carlo trials at lambda = 4,
               through the real encrypt/decrypt path; the run's pooled
               acceptance must lie within 4 standard errors of the closed form
    piracy     PIRACY_TRIALS piracy trials at lambda = 1 with ForwardPirate and
               the marked challenge, each running its own protect session; no
               trial may abort, and the pooled success must lie within 5
               standard errors of 1/2
    cloning    the exact Breidbart cloning experiment at lambda = 3, which must
               equal cos^2(pi/8)^3 within 1e-9 (it has no random inputs)
    diagnose   `rsp diagnose --json` through parrsp.cli.main, honest n=2 width 2
               (exact within 1e-9) and n=1 width 2 epsilon 0.3 (equal to the
               recorded reference within 1e-9)
    """

    op_unit, work_unit = "cycle of the four paths", "cycle"
    WKD_LAMBDA, WKD_TRIALS = 4, 75
    PIRACY_TRIALS = 75
    HONEST = ["rsp", "diagnose", "--n", "2", "--width", "2", "--json"]
    PERTURBED = ["rsp", "diagnose", "--n", "1", "--width", "2", "--epsilon", "0.3", "--json"]

    def __init__(self, seed, roots, rss_after):
        self.seed, self.rss_after = seed, rss_after
        # piracy_experiment draws each trial's session seed from its rng
        self.piracy_config = protocol.MultiRoundConfig(
            n=2, m_blocks=2, delta=DELTA, width=4, seed=0, reveal_theta=False
        )
        self.path_s: dict[str, list[float]] = {"wkd": [], "piracy": [], "cloning": [], "diagnose": []}
        self.wkd_hits = self.wkd_trials = 0
        self.piracy_wins = self.piracy_trials = 0

    def next_op(self, i):
        rng = lambda label: np.random.default_rng(derive_seed(self.seed, label, i))  # noqa: E731
        return {"wkd": rng("wkd"), "piracy": rng("piracy"), "diagnose": str(derive_seed(self.seed, "diagnose", i))}

    def _diagnose(self, seed: str):
        outputs = []
        for argv in (self.HONEST, self.PERTURBED):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + ["--seed", seed])
            outputs.append((code, buf.getvalue()))
        return outputs

    def run(self, op, between):
        paths = {
            "wkd": lambda: unclonable.wkd_wrong_key_acceptance_mc(self.WKD_LAMBDA, self.WKD_TRIALS, op["wkd"]),
            "piracy": lambda: copyprotect.piracy_experiment(
                1, copyprotect.MarkedChallenge(), copyprotect.ForwardPirate(), self.piracy_config,
                trials=self.PIRACY_TRIALS, rng=op["piracy"],
            ),
            "cloning": lambda: unclonable.cloning_experiment(unclonable.breidbart_attack(3), 3, mode="exact"),
            "diagnose": lambda: self._diagnose(op["diagnose"]),
        }
        out = {}
        for name, path in paths.items():
            if out:
                between()
            start = time.perf_counter()
            out[name] = path()
            self.path_s[name].append(time.perf_counter() - start)
        return out

    def check(self, i, op, out):
        wkd, piracy, cloning = out["wkd"], out["piracy"], out["cloning"]
        self.wkd_hits += round(wkd["acceptance"] * wkd["trials"])
        self.wkd_trials += wkd["trials"]
        self.piracy_wins += round(piracy["success"] * piracy["trials"])
        self.piracy_trials += piracy["trials"]
        (code_h, text_h), (code_p, text_p) = out["diagnose"]
        ok = (
            wkd["trials"] == self.WKD_TRIALS
            and piracy["trials"] == self.PIRACY_TRIALS and piracy["aborts"] == 0
            and cloning["instances"] == 512
            and abs(cloning["success"] - unclonable.BREIDBART_SINGLE_SUCCESS ** 3) <= 1e-9
            and code_h == 0 and honest_report_ok(json.loads(text_h))
            and code_p == 0 and _close(PERTURBED_REFERENCE, json.loads(text_p), 1e-9)
        )
        return ok, 1

    def finish(self):
        p0 = unclonable.wkd_wrong_key_acceptance_formula(self.WKD_LAMBDA)
        wkd_ok = abs(self.wkd_hits / self.wkd_trials - p0) <= 4 * math.sqrt(p0 * (1 - p0) / self.wkd_trials)
        piracy_ok = abs(self.piracy_wins / self.piracy_trials - 0.5) <= 5 * math.sqrt(0.25 / self.piracy_trials)
        return [] if wkd_ok and piracy_ok else list(range(len(self.path_s["wkd"])))

    def close(self):
        pass

    def extra(self):
        med = {name: statistics.median(times) for name, times in self.path_s.items()}
        return {
            "wkd_trials_per_s": self.WKD_TRIALS / med["wkd"],
            "piracy_trials_per_s": self.PIRACY_TRIALS / med["piracy"],
            "cloning_s": med["cloning"],
            "diagnose_s": med["diagnose"],
            "wkd_acceptance": self.wkd_hits / self.wkd_trials,
            "wkd_expected": unclonable.wkd_wrong_key_acceptance_formula(self.WKD_LAMBDA),
            "piracy_success": self.piracy_wins / self.piracy_trials,
        }


# -- registry --------------------------------------------------------------------

NARROW = dict(n=8, m_blocks=8, width=4)
# s_blocks = 0, r_draw = 1: the preparation round alone, 2 keys.  Its cost is
# the per-key cost; test rounds add only verifier checks that are cheap at any
# width, and their random round type would spread the latency of so few sessions
WIDE_SHAPE = [(0, 1)]


def make(name: str, seed: int, roots, trace_out=None):
    """The workload object, set up and ready for its first operation.

    `rss_after` is the operation after which peak RSS is read, so the
    figure covers the same work on a faster or a slower commit.
    """
    if name == "session-narrow":
        return InProcessSessions(seed, roots, **NARROW, shapes=bit_reversed_shapes(8),
                                 cheaters=("wrong_basis", "random_answer"), cheat_every=4, rss_after=40)
    if name == "session-wide":
        return InProcessSessions(seed, roots, n=2, m_blocks=2, width=16, shapes=WIDE_SHAPE, rss_after=12)
    if name == "socket":
        return SocketSessions(seed, roots, trace_out=trace_out, **NARROW, shapes=bit_reversed_shapes(8),
                              rss_after=30)
    if name == "apps":
        return AppsCycle(seed, roots, rss_after=3)
    raise ValueError(f"unknown workload {name!r}")
