"""Delegated-computation glue: one-time pad, state preparation binding,
and a transparent reference evaluator.

The interactive preparation protocol replaces the quantum channel of a
computing-on-encrypted-data scheme: Setup fixes the classical input pad
and the protocol parameters, StatePrep runs the protocol and binds the
resulting (bits, bases) pair as the computation key, and Dec unpads.

Evaluate is intentionally a sealed seam.  The only shipped backend is a
NON-PRIVATE reference evaluator that simulates the circuit directly in one
process; it exists so the surrounding pipeline can be tested end to end,
and it makes no secrecy claims whatsoever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import qcore
from .protocol import MultiRoundConfig, run_multi_round

GATE_SET = ("X", "Z", "H", "S", "CNOT", "T")

_GATES_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": qcore.hadamard().entries,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_SET:
            raise ValueError(f"gate {self.name!r} outside the supported set {GATE_SET}")
        expected = 2 if self.name == "CNOT" else 1
        if len(self.targets) != expected:
            raise ValueError(f"{self.name} takes {expected} target(s)")


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not 1 <= self.qubit_count <= qcore.MAX_QUBITS:
            raise ValueError(f"circuits take 1 <= n <= {qcore.MAX_QUBITS} qubits, not {self.qubit_count}")
        for g in self.gates:
            if any(not 0 <= t < self.qubit_count for t in g.targets):
                raise ValueError(f"gate {g} targets out of range")

    @property
    def t_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "T")

    def apply(self, state: qcore.StateVector) -> qcore.StateVector:
        """Apply every gate, in order."""
        for g in self.gates:
            op = qcore.LinearOperator(_CNOT if g.name == "CNOT" else _GATES_1Q[g.name], unitary=True)
            state = qcore.apply_operator(op, state, g.targets)
        return state

    @classmethod
    def from_json(cls, obj: dict) -> "Circuit":
        try:
            n, specs = obj["n"], [(g["gate"], tuple(g["targets"])) for g in obj["gates"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed circuit: {exc!r}") from None
        if any(type(v) is not int for v in (n, *(t for _, targets in specs for t in targets))):
            raise ValueError("circuit width and gate targets must be integers")
        return cls(qubit_count=n, gates=tuple(Gate(name, targets) for name, targets in specs))

    @classmethod
    def load(cls, path) -> "Circuit":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def otp_enc(key: Sequence[int], m: Sequence[int]) -> tuple[int, ...]:
    key, m = tuple(key), tuple(m)
    if len(key) != len(m):
        raise ValueError("pad and message lengths differ")
    return tuple(k ^ b for k, b in zip(key, m))


otp_dec = otp_enc  # XOR is its own inverse


@dataclass(frozen=True)
class QcedKeys:
    """Client-side key material; the computation key appears at StatePrep."""

    sk_in: tuple[int, ...]
    rsp_config: MultiRoundConfig | None
    sk_comp: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    transcript: object | None = None


def qced_setup(
    circuit: Circuit,
    n: int,
    rng: np.random.Generator,
    width: int = 4,
    m_blocks: int = 2,
    delta: float = 0.05,
) -> QcedKeys:
    """Sample the input pad and fix protocol parameters for the T-gate count."""
    if n != circuit.qubit_count:
        raise ValueError("input length must match the circuit width")
    sk_in = tuple(int(b) for b in rng.integers(0, 2, size=n))
    t_count = circuit.t_count
    config = None
    if t_count > 0:
        config = MultiRoundConfig(
            n=t_count,
            m_blocks=m_blocks,
            delta=delta,
            width=width,
            seed=int(rng.integers(0, 2**63)),
            reveal_theta=False,
        )
    return QcedKeys(sk_in=sk_in, rsp_config=config)


def qced_stateprep(keys: QcedKeys, prover):
    """Run the preparation protocol and bind its outputs as sk_comp.

    Returns (keys with sk_comp, receiver register as a ``qcore.BB84Product``)
    or (None, None) on abort.  Circuits without T gates skip the protocol entirely.
    """
    if keys.rsp_config is None:
        return replace(keys, sk_comp=((), ())), []
    result = run_multi_round(keys.rsp_config, prover)
    if not result.accepted:
        return None, None
    bound = replace(keys, sk_comp=(result.v_vec, result.theta_vec), transcript=result.transcript)
    return bound, result.prover_final_state


def qced_output_distribution(keys: QcedKeys, circuit: Circuit, ct: Sequence[int]) -> dict:
    """Exact plaintext-output distribution of the reference evaluator.

    NON-PRIVATE: this is the single-process testing backend, which may
    touch both parties' data.  The returned dict maps output bit strings
    (after unpadding) to probabilities.
    """
    m = otp_dec(keys.sk_in, ct)
    state = circuit.apply(qcore.StateVector.basis_state(m))
    branches = qcore.enumerate_measurement(state, range(circuit.qubit_count))
    return {outcome: p for outcome, p, _ in branches}


def qced_evaluate_reference(keys: QcedKeys, circuit: Circuit, ct: Sequence[int], rng: np.random.Generator):
    """One sampled run of the reference evaluator: (fresh pad, padded output)."""
    dist = qced_output_distribution(keys, circuit, ct)
    outcomes = sorted(dist)
    probs = np.array([dist[o] for o in outcomes])
    pick = outcomes[qcore.born_index(probs, rng)]
    sk_star = tuple(int(b) for b in rng.integers(0, 2, size=circuit.qubit_count))
    return sk_star, otp_enc(sk_star, pick)


def qced_dec(sk_star: Sequence[int], ct_star: Sequence[int]) -> tuple[int, ...]:
    return otp_dec(sk_star, ct_star)
