"""Prover endpoints: the honest strategy and a menu of cheating ones.

A prover is anything with ``handle(msg) -> reply | None`` obeying the wire
contract (KEYS -> IMAGES, ROUND_TYPE -> PREIMAGES or EQUATIONS,
QUESTION -> ANSWERS, VERDICT/FINAL -> no reply).  ``LocalProver.handle``
raises ValueError on a `round` or `q` that is not a JSON integer (`q` must
be a bit) and on an unknown `round_type`.  Everything here keeps a
per-round derived RNG so behavior is identical in-process and over a
socket.

The honest prover keeps per copy only what the protocol leaves in its
register.  For each key it draws a uniform pair (b, x) and reports
y = f(b, x), the Born distribution of measuring the image register of the
uniform superposition over all pairs; the register then holds |b, x>
(injective key) or the equal-weight claw (b, x), (1 - b, x XOR delta)
(claw-free key).  Preimage challenges measure it by picking one term.
Equation challenges return a uniform d, the outcome law of Hadamard-
measuring the preimage part, and keep the single qubit sum (-1)^(d.x) |b>
over the terms: |b> for one term, H|d . delta> for a claw, up to a global
sign.  The register of all copies is one ``qcore.BB84Product``; it is
either measured (test round question, one uniform draw per copy) or kept
as the protocol's output state (preparation round).
"""

from __future__ import annotations

from . import entcf, qcore
from .rules import PREIMAGE_ROUND, ROUND_TYPES
from .seeds import derived_rng
from .wire import int_to_hex


class LocalProver:
    """Base class implementing message routing and per-round RNG."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._round = None
        self._rng = None
        self._keys: list[entcf.EntcfKey] = []
        self._width = 0

    # -- message dispatch ---------------------------------------------

    def handle(self, msg: dict) -> dict | None:
        mtype = msg.get("type")
        if mtype == "KEYS":
            self._round = _wire_int(msg, "round")
            self._rng = derived_rng(self.seed, "prover", self._round)
            self._keys = [entcf.key_from_wire(k) for k in msg["keys"]]
            self._width = self._keys[0].width
            images = self.commit(self._keys)
            return {
                "type": "IMAGES",
                "round": self._round,
                "y": [int_to_hex(y, self._width + 1) for y in images],
            }
        if mtype == "ROUND_TYPE":
            if msg["round_type"] not in ROUND_TYPES:
                raise ValueError(f"unknown round type {msg['round_type']!r}")
            if msg["round_type"] == PREIMAGE_ROUND:
                pairs = self.preimage_answers()
                return {
                    "type": "PREIMAGES",
                    "round": self._round,
                    "pairs": [{"b": b, "x": int_to_hex(x, self._width)} for b, x in pairs],
                }
            equations = self.equation_answers()
            return {
                "type": "EQUATIONS",
                "round": self._round,
                "d": [int_to_hex(d, self._width) for d in equations],
            }
        if mtype == "QUESTION":
            q = _wire_int(msg, "q")
            if q not in (0, 1):
                raise ValueError(f"question basis {q} is not a bit")
            return {"type": "ANSWERS", "round": self._round, "v": self.question_answers(q)}
        if mtype in ("VERDICT", "FINAL"):
            return None
        raise ValueError(f"unknown message type {mtype!r}")

    # -- strategy hooks -------------------------------------------------

    def commit(self, keys: list[entcf.EntcfKey]) -> list[int]:
        raise NotImplementedError

    def preimage_answers(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def equation_answers(self) -> list[int]:
        raise NotImplementedError

    def question_answers(self, q: int) -> list[int]:
        raise NotImplementedError

    def final_states(self):
        return None


def _wire_int(msg: dict, field: str) -> int:
    """`msg[field]`, which must be a JSON integer (no bool, no float)."""
    value = msg[field]
    if type(value) is not int:
        raise ValueError(f"{msg.get('type')} field {field!r} must be an integer, got {value!r}")
    return value


def claw_terms(key: entcf.EntcfKey, b: int, x: int) -> tuple[tuple[int, int], ...]:
    """Basis terms (equal amplitudes) of the register committed to f(b, x)."""
    if key.mode == entcf.CLAW_FREE:
        return (b, x), (1 - b, x ^ key.delta)
    return ((b, x),)


def kept_qubit(terms: tuple[tuple[int, int], ...], d: int) -> qcore.BB84Product:
    """Committed qubit left after the preimage register is Hadamard-measured as d.

    One term leaves |b>; a claw (b, x0), (1 - b, x1) leaves H|d . (x0 XOR x1)>,
    both up to a global sign.
    """
    if len(terms) == 1:
        return qcore.BB84Product((terms[0][0],), (0,))
    (_, x0), (_, x1) = terms
    return qcore.BB84Product((bin(d & (x0 ^ x1)).count("1") & 1,), (1,))


class HonestProver(LocalProver):
    """Follows the protocol exactly; succeeds with probability 1 here."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._terms: list[tuple[tuple[int, int], ...]] = []
        self._register: qcore.BB84Product | None = None

    def commit(self, keys):
        self._register = None
        self._terms = []
        images = []
        for key in keys:
            b, x = divmod(int(self._rng.integers(0, 2 ** (key.width + 1))), 2**key.width)
            self._terms.append(claw_terms(key, b, x))
            images.append(entcf.eval_point(key, b, x))
        return images

    def preimage_answers(self):
        return [terms[int(self._rng.integers(0, len(terms)))] for terms in self._terms]

    def equation_answers(self):
        equations = [int(self._rng.integers(0, 2**self._width)) for _ in self._terms]
        kept = [kept_qubit(terms, d) for terms, d in zip(self._terms, equations)]
        self._register = qcore.BB84Product(sum((k.bits for k in kept), ()), sum((k.bases for k in kept), ()))
        return equations

    def question_answers(self, q):
        # one draw per copy, even where the outcome is certain, as the dense
        # measurement of each qubit makes
        register = self._register
        bits = tuple(
            qcore.BB84Product((bit,), (basis,)).measure((q,), self._rng.random())[0]
            for bit, basis in zip(register.bits, register.bases)
        )
        self._register = qcore.BB84Product(bits, (q,) * len(bits))
        return list(bits)

    def final_states(self):
        """The committed qubits after a preparation round, one per copy."""
        return self._register


class RandomAnswerProver(LocalProver):
    """Answers every challenge uniformly at random, images included."""

    def commit(self, keys):
        return [int(self._rng.integers(0, 2 ** (k.width + 1))) for k in keys]

    def preimage_answers(self):
        return [
            (int(self._rng.integers(0, 2)), int(self._rng.integers(0, 2**self._width)))
            for _ in self._keys
        ]

    def equation_answers(self):
        return [int(self._rng.integers(0, 2**self._width)) for _ in self._keys]

    def question_answers(self, q):
        return [int(self._rng.integers(0, 2)) for _ in self._keys]


class WrongBasisProver(HonestProver):
    """Honest until the question, which it answers in the opposite basis."""

    def question_answers(self, q):
        return super().question_answers(1 - q)


class ConstantVProver(HonestProver):
    """Honest commitment but always answers 0 to the question."""

    def question_answers(self, q):
        return [0] * len(self._keys)


class DelayedClassicalProver(HonestProver):
    """Measures its register in the computational basis right after
    committing, then answers all later challenges from the classical record."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._record: list[tuple[int, int]] = []

    def commit(self, keys):
        images = super().commit(keys)
        self._record = super().preimage_answers()
        return images

    def preimage_answers(self):
        return list(self._record)

    def equation_answers(self):
        # Hadamard-measuring a computational-basis register yields a
        # uniformly random equation vector.
        return [int(self._rng.integers(0, 2**self._width)) for _ in self._keys]

    def question_answers(self, q):
        if q == 0:
            return [b for b, _ in self._record]
        return [int(self._rng.integers(0, 2)) for _ in self._keys]


class AlwaysWrongProver(HonestProver):
    """Deterministically fails every check: corrupts its honest answers."""

    def preimage_answers(self):
        return [(b, x ^ 1) for b, x in super().preimage_answers()]

    def question_answers(self, q):
        return [1 - v for v in super().question_answers(q)]


_STRATEGIES = {
    "random_answer": RandomAnswerProver,
    "wrong_basis": WrongBasisProver,
    "constant_v": ConstantVProver,
    "delayed_classical": DelayedClassicalProver,
    "always_wrong": AlwaysWrongProver,
}

# Every strategy name a caller may ask for: the honest prover plus the registry.
PROVER_NAMES = ("honest", *sorted(_STRATEGIES))


def cheating_prover(strategy: str, seed: int = 0) -> LocalProver:
    """Factory over the named cheating strategies."""
    try:
        cls = _STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}") from None
    return cls(seed)
