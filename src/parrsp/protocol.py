"""Verifier state machines for the remote BB84-preparation protocol.

Three layers of interaction, mirrored by three entry points:

- ``run_test_round``: one test round.  The verifier picks a single basis
  bit for all n copies, sends fresh keys, collects image points, then
  either demands preimages (checked with the public predicate) or runs the
  equation/question exchange (checked with the trapdoor decodings).
- ``run_prep_round``: one preparation round.  Same shape as a Hadamard-type
  test round, but the per-copy basis is an arbitrary bit vector, no
  question is sent, and the verifier records the decoded bit string
  instead of checking anything.  The prover keeps its committed qubits.
- ``run_multi_round``: the full protocol.  A random number of M-round test
  blocks (aborting when a block's failure fraction exceeds the tolerance),
  a random partial stretch of further test rounds, then one preparation
  round whose basis/bit strings form the verifier's output.

Failures in the trailing partial stretch are logged but do not abort by
default; ``strict_trailing`` applies the same fraction rule to them.  The
message parsers, decodings, flags and the block schedule live in
:mod:`parrsp.rules`.  Replay re-runs this verifier against the recorded
replies; an abort quotes a reply as canonical JSON, on every transport.

All verifier randomness derives from ``config.seed`` through the seed tree
(one child per round), so a fixed seed fixes the whole transcript.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entcf, rules
from .rules import (  # re-exported: part of this module's interface
    FLAG_FAIL_HAD,
    FLAG_FAIL_PRE,
    FLAG_OK,
    HADAMARD_ROUND,
    PREIMAGE_ROUND,
    ProtocolAbort,
)
from .seeds import derived_rng
from .transcript import TranscriptRecorder, canonical_json
from .wire import bits_to_hex


@dataclass(frozen=True)
class MultiRoundConfig:
    """Parameters of one protocol session.

    ``m_blocks`` is the block size M; at most M^2 test rounds are played.
    ``delta`` is the tolerated failure fraction per block.
    """

    MAX_BLOCK_SIZE = 64  # largest M (4096 test rounds); unannotated, so not a field
    MAX_COPIES = 256  # largest n; unannotated, so not a field

    n: int
    m_blocks: int
    delta: float
    width: int = 4
    seed: int = 0
    strict_trailing: bool = False
    reveal_theta: bool = True

    def __post_init__(self):
        if not 1 <= self.n <= self.MAX_COPIES:
            raise ValueError(f"parallel copy count must lie in [1, {self.MAX_COPIES}], not {self.n}")
        if not 1 <= self.m_blocks <= self.MAX_BLOCK_SIZE:
            raise ValueError(f"block size must lie in [1, {self.MAX_BLOCK_SIZE}], not {self.m_blocks}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not entcf.MIN_KEY_WIDTH <= self.width <= entcf.MAX_KEY_WIDTH:
            raise ValueError(f"width {self.width} outside supported key range")

    def summary_config(self) -> dict:
        """The session parameters a SUMMARY records and replay reads back."""
        return {"n": self.n, "m": self.m_blocks, "delta": self.delta, "width": self.width, "seed": self.seed,
                "strict_trailing": self.strict_trailing}

    def session_id(self) -> str:
        params = self.summary_config()
        del params["strict_trailing"]
        return hashlib.blake2b(canonical_json(params).encode(), digest_size=6).hexdigest()


@dataclass
class TestRoundRecord:
    round_index: int
    theta: int
    keys: list[entcf.EntcfKey]
    images: list[int]
    round_type: str
    flag: str
    preimage_answers: list[tuple[int, int]] | None = None
    equations: list[int] | None = None
    question: int | None = None
    answers: list[int] | None = None


@dataclass
class ProtocolResult:
    accepted: bool
    theta_vec: tuple[int, ...] | None
    v_vec: tuple[int, ...] | None
    flags: list[str]
    transcript: TranscriptRecorder
    prover_final_state: object | None = None
    abort_block: int | None = None
    abort_reason: str | None = None
    s_blocks: int | None = None
    r_draw: int | None = None


class VerifierSession:
    """Drives one strictly alternating session against a prover endpoint."""

    def __init__(self, config: MultiRoundConfig, prover, recorder: TranscriptRecorder | None = None):
        self.config = config
        self.prover = prover
        self.recorder = recorder if recorder is not None else TranscriptRecorder()
        self.session = config.session_id()

    def _exchange(self, msg: dict, expect: str | None) -> dict | None:
        self.recorder.record("v->p", msg)
        reply = self.prover.handle(msg)
        if reply is not None:  # recorded before any check, so that replay sees what made an abort
            reply = reply if isinstance(reply, dict) else {"type": type(reply).__name__}
            try:
                self.recorder.record("p->v", reply)
            except RecursionError:  # nested too deeply to copy: kept as its type, like a non-object
                reply = {"type": type(reply).__name__}
                self.recorder.record("p->v", reply)
        if expect is None:
            if reply is not None:
                raise ProtocolAbort(f"unexpected reply to {msg['type']}")
            return None
        if reply is None or reply.get("type") != expect:
            shown = reply and {k: reply[k] for k in reply.keys() - {"dir", "seq"}}  # a transcript overwrites these
            raise ProtocolAbort(f"expected {expect} message, got {canonical_json(shown)}")
        if type(reply.get("round")) is not int or reply["round"] != msg["round"]:
            raise ProtocolAbort(f"{expect} for round {canonical_json(reply.get('round'))}, not {msg['round']}")
        return reply

    # -- round drivers ------------------------------------------------

    def _commit_phase(self, round_index: int, modes: Sequence[int], rng: np.random.Generator):
        """Fresh keys, which are their own trapdoors here, and the images the prover commits to."""
        keys = [entcf.gen(mode, self.config.width, rng) for mode in modes]
        msg = {
            "type": "KEYS",
            "session": self.session,
            "round": round_index,
            "keys": [entcf.key_to_wire(key) for key in keys],
        }
        reply = self._exchange(msg, "IMAGES")
        return keys, rules.parse_images(reply, self.config.n, self.config.width)

    def run_test_round(self, round_index: int, force_round_type: str | None = None) -> TestRoundRecord:
        cfg = self.config
        rng = derived_rng(cfg.seed, "verifier", round_index)
        theta = int(rng.integers(0, 2))
        keys, images = self._commit_phase(round_index, [theta] * cfg.n, rng)

        round_type = rules.ROUND_TYPES[int(rng.integers(0, 2))] if force_round_type is None else force_round_type
        if round_type not in rules.ROUND_TYPES:
            raise ValueError(f"unknown round type {round_type!r}")
        rt_msg = {"type": "ROUND_TYPE", "round": round_index, "round_type": round_type}

        record = TestRoundRecord(
            round_index=round_index,
            theta=theta,
            keys=keys,
            images=images,
            round_type=round_type,
            flag=FLAG_OK,
        )

        if round_type == PREIMAGE_ROUND:
            reply = self._exchange(rt_msg, "PREIMAGES")
            record.preimage_answers = rules.parse_preimages(reply, cfg.n, cfg.width)
            record.flag = rules.preimage_flag(record.keys, images, record.preimage_answers)
        else:
            reply = self._exchange(rt_msg, "EQUATIONS")
            record.equations = rules.parse_equations(reply, cfg.n, cfg.width)
            record.question = theta
            reply = self._exchange({"type": "QUESTION", "round": round_index, "q": theta}, "ANSWERS")
            record.answers = rules.parse_answers(reply, cfg.n)
            record.flag = rules.hadamard_flag(keys, images, record.equations, record.answers)

        self._exchange({"type": "VERDICT", "round": round_index, "flag": record.flag}, None)
        return record

    def run_prep_round(self, round_index: int, theta_vec: Sequence[int]):
        cfg = self.config
        theta_vec = tuple(theta_vec)
        if len(theta_vec) != cfg.n or any(t not in (0, 1) for t in theta_vec):
            raise ValueError("theta_vec must be n bits")
        rng = derived_rng(cfg.seed, "verifier", round_index)
        keys, images = self._commit_phase(round_index, theta_vec, rng)
        reply = self._exchange(
            {"type": "ROUND_TYPE", "round": round_index, "round_type": HADAMARD_ROUND}, "EQUATIONS"
        )
        equations = rules.parse_equations(reply, cfg.n, cfg.width)
        v_vec = rules.decode_all(keys, images, equations)
        return v_vec, keys, images, equations

    def run_multi_round(self, prep_theta: Sequence[int] | None = None) -> ProtocolResult:
        cfg = self.config
        s_blocks, r_draw, rng_top = rules.session_draws(cfg.seed, cfg.m_blocks)
        if prep_theta is None:
            theta_vec = tuple(int(b) for b in rng_top.integers(0, 2, size=cfg.n))
        else:
            theta_vec = tuple(int(b) for b in prep_theta)

        flags: list[str] = []

        def play_round() -> str:
            flags.append(self.run_test_round(len(flags)).flag)
            return flags[-1]

        v_vec = None
        try:
            abort_block, abort_reason = rules.run_schedule(
                cfg.m_blocks, s_blocks, r_draw, cfg.delta, cfg.strict_trailing, play_round
            )
            if abort_block is None:
                v_vec, _, _, _ = self.run_prep_round(len(flags), theta_vec)
        except ProtocolAbort as exc:
            abort_block, abort_reason = -1, f"protocol abort: {exc}"

        accepted = abort_block is None
        if not accepted:
            theta_vec = None
        final = {"type": "FINAL", "accepted": accepted, "note": "prepared" if accepted else abort_reason}
        if accepted and cfg.reveal_theta:
            final["theta"] = bits_to_hex(theta_vec)
        self._exchange(final, None)
        self.recorder.summary({
            "type": "SUMMARY",
            "session": self.session,
            "accepted": accepted,
            "theta": bits_to_hex(theta_vec) if accepted else None,
            "v": bits_to_hex(v_vec) if accepted else None,
            "flags": flags,
            "s_blocks": s_blocks,
            "r_draw": r_draw,
            "abort_reason": abort_reason,
            "config": cfg.summary_config(),
        })
        final_state = self.prover.final_states() if accepted and hasattr(self.prover, "final_states") else None
        return ProtocolResult(
            accepted=accepted,
            theta_vec=theta_vec,
            v_vec=v_vec,
            flags=flags,
            transcript=self.recorder,
            prover_final_state=final_state,
            abort_block=abort_block,
            abort_reason=abort_reason,
            s_blocks=s_blocks,
            r_draw=r_draw,
        )


def run_test_round(
    config: MultiRoundConfig,
    prover,
    round_index: int = 0,
    recorder: TranscriptRecorder | None = None,
    force_round_type: str | None = None,
) -> TestRoundRecord:
    return VerifierSession(config, prover, recorder).run_test_round(round_index, force_round_type)


def run_prep_round(
    config: MultiRoundConfig,
    theta_vec: Sequence[int],
    prover,
    round_index: int = 0,
    recorder: TranscriptRecorder | None = None,
):
    """One standalone preparation round; returns (v_vec, prover final state)."""
    session = VerifierSession(config, prover, recorder)
    v_vec, _, _, _ = session.run_prep_round(round_index, theta_vec)
    final_state = prover.final_states() if hasattr(prover, "final_states") else None
    return v_vec, final_state


def run_multi_round(
    config: MultiRoundConfig,
    prover,
    recorder: TranscriptRecorder | None = None,
    prep_theta: Sequence[int] | None = None,
) -> ProtocolResult:
    return VerifierSession(config, prover, recorder).run_multi_round(prep_theta)
