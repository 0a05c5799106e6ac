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
default; ``strict_trailing`` applies the same fraction rule to them.

All verifier randomness derives from ``config.seed`` through the seed tree
(one child per round), so a fixed seed fixes the whole transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entcf
from .seeds import derived_rng
from .transcript import TranscriptRecorder, canonical_json
from .wire import bits_to_hex, hex_to_int

PREIMAGE_ROUND = "preimage"
HADAMARD_ROUND = "hadamard"

FLAG_OK = "ok"
FLAG_FAIL_PRE = "fail_Pre"
FLAG_FAIL_HAD = "fail_Had"


class ProtocolAbort(RuntimeError):
    """Malformed or out-of-contract prover message; distinct from fail flags."""


@dataclass(frozen=True)
class MultiRoundConfig:
    """Parameters of one protocol session.

    ``m_blocks`` is the block size M; at most M^2 test rounds are played.
    ``delta`` is the tolerated failure fraction per block.
    """

    n: int
    m_blocks: int
    delta: float
    width: int = 4
    seed: int = 0
    strict_trailing: bool = False
    reveal_theta: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one parallel copy")
        if self.m_blocks < 1:
            raise ValueError("block size must be at least 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not entcf.MIN_KEY_WIDTH <= self.width <= entcf.MAX_KEY_WIDTH:
            raise ValueError(f"width {self.width} outside supported key range")

    @property
    def max_test_rounds(self) -> int:
        return self.m_blocks**2

    def session_id(self) -> str:
        import hashlib

        text = canonical_json(
            {"n": self.n, "m": self.m_blocks, "delta": self.delta, "width": self.width, "seed": self.seed}
        )
        return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


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

    # -- wire helpers -------------------------------------------------

    def _exchange(self, msg: dict, expect: str | None) -> dict | None:
        self.recorder.record("v->p", msg)
        reply = self.prover.handle(msg)
        if expect is None:
            if reply is not None:
                raise ProtocolAbort(f"unexpected reply to {msg['type']}")
            return None
        if not isinstance(reply, dict) or reply.get("type") != expect:
            raise ProtocolAbort(f"expected {expect} message, got {reply!r}")
        if type(reply.get("round")) is not int or reply["round"] != msg["round"]:
            raise ProtocolAbort(f"{expect} for round {reply.get('round')!r}, not {msg['round']}")
        self.recorder.record("p->v", reply)
        return reply

    def _parse_images(self, reply: dict) -> list[int]:
        y_list = reply.get("y")
        if not isinstance(y_list, list) or len(y_list) != self.config.n:
            raise ProtocolAbort("IMAGES must carry one image per copy")
        images = []
        for h in y_list:
            try:
                images.append(hex_to_int(h, self.config.width + 1))
            except (ValueError, TypeError) as exc:
                raise ProtocolAbort(f"bad image encoding: {exc}") from exc
        return images

    # -- round drivers ------------------------------------------------

    def _commit_phase(self, round_index: int, modes: Sequence[int], rng: np.random.Generator):
        keypairs = [entcf.gen(mode, self.config.width, rng) for mode in modes]
        msg = {
            "type": "KEYS",
            "session": self.session,
            "round": round_index,
            "keys": [entcf.key_to_wire(kp.key) for kp in keypairs],
        }
        reply = self._exchange(msg, "IMAGES")
        images = self._parse_images(reply)
        return keypairs, images

    def run_test_round(self, round_index: int, force_round_type: str | None = None) -> TestRoundRecord:
        cfg = self.config
        rng = derived_rng(cfg.seed, "verifier", round_index)
        theta = int(rng.integers(0, 2))
        keypairs, images = self._commit_phase(round_index, [theta] * cfg.n, rng)

        round_type = (PREIMAGE_ROUND, HADAMARD_ROUND)[int(rng.integers(0, 2))]
        if force_round_type is not None:
            if force_round_type not in (PREIMAGE_ROUND, HADAMARD_ROUND):
                raise ValueError(f"unknown round type {force_round_type!r}")
            round_type = force_round_type
        rt_msg = {"type": "ROUND_TYPE", "round": round_index, "round_type": round_type}

        record = TestRoundRecord(
            round_index=round_index,
            theta=theta,
            keys=[kp.key for kp in keypairs],
            images=images,
            round_type=round_type,
            flag=FLAG_OK,
        )

        if round_type == PREIMAGE_ROUND:
            reply = self._exchange(rt_msg, "PREIMAGES")
            pairs = reply.get("pairs")
            if not isinstance(pairs, list) or len(pairs) != cfg.n:
                raise ProtocolAbort("PREIMAGES must carry one pair per copy")
            answers = []
            for entry in pairs:
                try:
                    b = int(entry["b"])
                    x = hex_to_int(entry["x"], cfg.width)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ProtocolAbort(f"bad preimage encoding: {exc}") from exc
                if b not in (0, 1):
                    raise ProtocolAbort("preimage bit out of range")
                answers.append((b, x))
            record.preimage_answers = answers
            ok = all(
                entcf.chk(kp.key, y, b, x)
                for kp, y, (b, x) in zip(keypairs, images, answers)
            )
            record.flag = FLAG_OK if ok else FLAG_FAIL_PRE
        else:
            reply = self._exchange(rt_msg, "EQUATIONS")
            record.equations = self._parse_equations(reply)
            question = theta
            reply = self._exchange({"type": "QUESTION", "round": round_index, "q": question}, "ANSWERS")
            record.question = question
            record.answers = self._parse_answers(reply)
            record.flag = self._check_hadamard(keypairs, images, record.equations, theta, record.answers)

        self._exchange({"type": "VERDICT", "round": round_index, "flag": record.flag}, None)
        return record

    def _parse_equations(self, reply: dict) -> list[int]:
        d_list = reply.get("d")
        if not isinstance(d_list, list) or len(d_list) != self.config.n:
            raise ProtocolAbort("EQUATIONS must carry one vector per copy")
        try:
            return [hex_to_int(h, self.config.width) for h in d_list]
        except (ValueError, TypeError) as exc:
            raise ProtocolAbort(f"bad equation encoding: {exc}") from exc

    def _parse_answers(self, reply: dict) -> list[int]:
        v_list = reply.get("v")
        if not isinstance(v_list, list) or len(v_list) != self.config.n:
            raise ProtocolAbort("ANSWERS must carry one bit per copy")
        if any(v not in (0, 1) for v in v_list):
            raise ProtocolAbort("answer bits out of range")
        return [int(v) for v in v_list]

    @staticmethod
    def _check_hadamard(keypairs, images, equations, theta: int, answers: Sequence[int]) -> str:
        for kp, y, d, v in zip(keypairs, images, equations, answers):
            if theta == 0:
                expected = entcf.decode_b(kp.trapdoor, y)
            else:
                expected = entcf.decode_u(kp.trapdoor, y, d)
            if expected != v:
                return FLAG_FAIL_HAD
        return FLAG_OK

    def run_prep_round(self, round_index: int, theta_vec: Sequence[int]):
        cfg = self.config
        theta_vec = tuple(theta_vec)
        if len(theta_vec) != cfg.n or any(t not in (0, 1) for t in theta_vec):
            raise ValueError("theta_vec must be n bits")
        rng = derived_rng(cfg.seed, "verifier", round_index)
        keypairs, images = self._commit_phase(round_index, theta_vec, rng)
        reply = self._exchange(
            {"type": "ROUND_TYPE", "round": round_index, "round_type": HADAMARD_ROUND}, "EQUATIONS"
        )
        equations = self._parse_equations(reply)
        v_vec = []
        for kp, y, d, theta in zip(keypairs, images, equations, theta_vec):
            if theta == 0:
                v_vec.append(entcf.decode_b(kp.trapdoor, y))
            else:
                v_vec.append(entcf.decode_u(kp.trapdoor, y, d))
        return tuple(v_vec), keypairs, images, equations

    def _final(self, accepted: bool, theta_vec=None, note: str = ""):
        msg: dict = {"type": "FINAL", "accepted": accepted, "note": note}
        if accepted and theta_vec is not None and self.config.reveal_theta:
            msg["theta"] = bits_to_hex(theta_vec)
        self._exchange(msg, None)

    def run_multi_round(self, prep_theta: Sequence[int] | None = None) -> ProtocolResult:
        cfg = self.config
        rng_top = derived_rng(cfg.seed, "verifier", "session")
        s_blocks = int(rng_top.integers(0, cfg.m_blocks))
        r_draw = int(rng_top.integers(1, cfg.m_blocks + 1))
        if prep_theta is None:
            theta_vec = tuple(int(b) for b in rng_top.integers(0, 2, size=cfg.n))
        else:
            theta_vec = tuple(int(b) for b in prep_theta)

        flags: list[str] = []
        round_index = 0
        abort_block = None
        abort_reason = None

        try:
            for block in range(s_blocks):
                failures = 0
                for _ in range(cfg.m_blocks):
                    record = self.run_test_round(round_index)
                    flags.append(record.flag)
                    if record.flag != FLAG_OK:
                        failures += 1
                    round_index += 1
                if failures / cfg.m_blocks > cfg.delta:
                    abort_block = block + 1
                    abort_reason = f"block {block + 1} failure fraction {failures}/{cfg.m_blocks}"
                    break

            if abort_block is None:
                trailing_failures = 0
                trailing = r_draw - 1
                for _ in range(trailing):
                    record = self.run_test_round(round_index)
                    flags.append(record.flag)
                    if record.flag != FLAG_OK:
                        trailing_failures += 1
                    round_index += 1
                if cfg.strict_trailing and trailing > 0 and trailing_failures / trailing > cfg.delta:
                    abort_block = s_blocks + 1
                    abort_reason = f"trailing failure fraction {trailing_failures}/{trailing} (strict mode)"
        except ProtocolAbort as exc:
            abort_block = -1
            abort_reason = f"protocol abort: {exc}"

        if abort_block is None:
            try:
                v_vec, _, _, _ = self.run_prep_round(round_index, theta_vec)
            except ProtocolAbort as exc:
                abort_block = -1
                abort_reason = f"protocol abort: {exc}"

        if abort_block is not None:
            self._final(False, note=abort_reason or "abort")
            self.recorder.summary(
                self._summary_dict(False, None, None, flags, s_blocks, r_draw, abort_reason)
            )
            return ProtocolResult(
                accepted=False,
                theta_vec=None,
                v_vec=None,
                flags=flags,
                transcript=self.recorder,
                abort_block=abort_block,
                abort_reason=abort_reason,
                s_blocks=s_blocks,
                r_draw=r_draw,
            )

        self._final(True, theta_vec, note="prepared")
        self.recorder.summary(self._summary_dict(True, theta_vec, v_vec, flags, s_blocks, r_draw, None))
        final_state = self.prover.final_states() if hasattr(self.prover, "final_states") else None
        return ProtocolResult(
            accepted=True,
            theta_vec=theta_vec,
            v_vec=v_vec,
            flags=flags,
            transcript=self.recorder,
            prover_final_state=final_state,
            s_blocks=s_blocks,
            r_draw=r_draw,
        )

    def _summary_dict(self, accepted, theta_vec, v_vec, flags, s_blocks, r_draw, abort_reason):
        return {
            "type": "SUMMARY",
            "session": self.session,
            "accepted": accepted,
            "theta": bits_to_hex(theta_vec) if theta_vec is not None else None,
            "v": bits_to_hex(v_vec) if v_vec is not None else None,
            "flags": list(flags),
            "s_blocks": s_blocks,
            "r_draw": r_draw,
            "abort_reason": abort_reason,
            "config": {
                "n": self.config.n,
                "m": self.config.m_blocks,
                "delta": self.config.delta,
                "width": self.config.width,
                "seed": self.config.seed,
                "strict_trailing": self.config.strict_trailing,
            },
        }


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
