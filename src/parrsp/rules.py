"""Verifier decision rules, one implementation each.

One parser per prover message (bits must be JSON integers, hex fields the
canonical strings of ``wire.int_to_hex``); the decoding rule (decode_b
under an injective key, decode_u under a claw-free one), which gives both a
Hadamard test's expected answers and the preparation round's v; the
preimage test; and the session schedule, S blocks of M test rounds and then
R - 1 trailing rounds, where a block whose failure fraction exceeds delta
aborts the session (the trailing block only under ``strict_trailing``).
``protocol.VerifierSession`` plays these rules against a prover, and
``transcript.replay`` re-runs that session against the recorded replies.
A message outside the contract raises ProtocolAbort, whose reason quotes
a peer's value as canonical JSON, the same on every transport.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from . import entcf, wire
from .seeds import CoinStream, derived_rng

PREIMAGE_ROUND = "preimage"
HADAMARD_ROUND = "hadamard"
ROUND_TYPES = (PREIMAGE_ROUND, HADAMARD_ROUND)

FLAG_OK = "ok"
FLAG_FAIL_PRE = "fail_Pre"
FLAG_FAIL_HAD = "fail_Had"


class ProtocolAbort(RuntimeError):
    """Malformed or out-of-contract prover message; distinct from fail flags."""


# -- message parsers -------------------------------------------------------


def _per_copy(msg: dict, field: str, n: int, what: str) -> list:
    """The list in `field`, which must hold one entry per copy."""
    values = msg.get(field)
    if not isinstance(values, (list, tuple)) or len(values) != n:  # a tuple is recorded as a list
        raise ProtocolAbort(f"{msg.get('type')} must carry one {what} per copy")
    return values


def _hexes(values: list, width: int, what: str) -> list[int]:
    try:
        return [wire.hex_to_int(h, width) for h in values]
    except ValueError as exc:
        raise ProtocolAbort(f"bad {what} encoding: {exc}") from exc


def _bit(value, what: str) -> int:
    if type(value) is not int or value not in (0, 1):  # no bools, no floats
        from .transcript import canonical_json  # only an abort needs it
        raise ProtocolAbort(f"{what} {canonical_json(value)} is not a bit")
    return value


def parse_images(msg: dict, n: int, width: int) -> list[int]:
    return _hexes(_per_copy(msg, "y", n, "image"), width + 1, "image")


def parse_preimages(msg: dict, n: int, width: int) -> list[tuple[int, int]]:
    pairs = _per_copy(msg, "pairs", n, "pair")
    if not all(isinstance(entry, dict) for entry in pairs):
        raise ProtocolAbort("preimage pairs must be objects")
    bits = [_bit(entry.get("b"), "preimage bit") for entry in pairs]
    return list(zip(bits, _hexes([entry.get("x") for entry in pairs], width, "preimage")))


def parse_equations(msg: dict, n: int, width: int) -> list[int]:
    return _hexes(_per_copy(msg, "d", n, "vector"), width, "equation")


def parse_answers(msg: dict, n: int) -> list[int]:
    return [_bit(v, "answer") for v in _per_copy(msg, "v", n, "bit")]


# -- decisions -------------------------------------------------------------


def decode(trapdoor: entcf.EntcfTrapdoor, y: int, d: int) -> int:
    """The bit the verifier reads from one copy's image y and equation d."""
    return entcf.decode_b(trapdoor, y) if trapdoor.mode == entcf.INJECTIVE else entcf.decode_u(trapdoor, y, d)


def decode_all(trapdoors, images: Sequence[int], equations: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(decode, trapdoors, images, equations))


def preimage_flag(keys: Sequence[entcf.EntcfKey], images: Sequence[int], pairs) -> str:
    ok = all(entcf.chk(key, y, b, x) for key, y, (b, x) in zip(keys, images, pairs, strict=True))
    return FLAG_OK if ok else FLAG_FAIL_PRE


def hadamard_flag(trapdoors, images, equations, answers: Sequence[int]) -> str:
    ok = all(decode(*copy) == v for *copy, v in zip(trapdoors, images, equations, answers, strict=True))
    return FLAG_OK if ok else FLAG_FAIL_HAD


# -- session schedule ------------------------------------------------------


def session_draws(seed: int, m_blocks: int) -> tuple[int, int, CoinStream]:
    """Block count S, trailing draw R, and the generator that draws the
    preparation basis next."""
    rng = derived_rng(seed, "verifier", "session")
    return int(rng.integers(0, m_blocks)), int(rng.integers(1, m_blocks + 1)), rng


def run_schedule(
    m_blocks: int, s_blocks: int, r_draw: int, delta: float, strict_trailing: bool, next_flag: Callable[[], str]
) -> tuple[int | None, str | None]:
    """Play the test rounds of one session, one block at a time.

    ``next_flag()`` plays the next test round and returns its flag.
    Returns (abort block, reason) for the first failing block, whose rounds
    are all played first, or (None, None) when every block passes.
    """
    for index, size in enumerate(itertools.chain(itertools.repeat(m_blocks, s_blocks), [r_draw - 1])):
        failures = 0
        for _ in range(size):
            failures += next_flag() != FLAG_OK
        if size and failures / size > delta:
            if index < s_blocks:
                return index + 1, f"block {index + 1} failure fraction {failures}/{size}"
            if strict_trailing:
                return index + 1, f"trailing failure fraction {failures}/{size} (strict mode)"
    return None, None
