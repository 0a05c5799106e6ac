"""Reference copy-protection evaluation with an explicit comparison ancilla.

The circuit the package evaluates without an ancilla: append |0>, rotate
into the input's bases, flip the ancilla iff the prefix matches the
pattern (a dense permutation), measure the ancilla, uncompute, and either
rotate back (mismatch) or read the register out (match).  It draws from
the rng exactly as `copyprotect.cp_eval` does, so seeded runs of the two
can be compared branch for branch.  Its programs are `DenseProgram`s, whose
register is a dense state (`dense_state` builds it from a product or a sum);
the Breidbart pirate's dense split is here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from parrsp import copyprotect, gf2, qcore, unclonable


@dataclass(frozen=True)
class DenseProgram:
    """A copy-protected program with its register as a dense StateVector."""

    sigma: qcore.StateVector
    r: tuple[int, ...]
    perm: gf2.PermKey
    t: tuple[int, ...]

    @property
    def lam(self) -> int:
        return len(self.r)


def dense_state(sigma) -> qcore.StateVector:
    """The dense register of a `BB84Product`, a `copyprotect.ProductSum` or a `StateVector`."""
    if isinstance(sigma, copyprotect.ProductSum):
        prefix = sum(c * p.to_state().amplitudes for c, p in sigma.terms)
        return qcore.StateVector(qcore.kron(prefix, sigma.suffix.to_state().amplitudes))
    return sigma.to_state()


def dense(prog) -> DenseProgram:
    """The dense form of a `copyprotect.ProtectedProgram` (or of a DenseProgram)."""
    return DenseProgram(dense_state(prog.sigma), prog.r, prog.perm, prog.t)


def prefix_compare_operator(lam: int, pattern: Sequence[int]) -> qcore.LinearOperator:
    """Flip the last of lam+1 qubits iff the first lam match the pattern."""
    pattern_index = qcore.bits_to_index(pattern)
    dim = 2 ** (lam + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for p in range(2**lam):
        for anc in (0, 1):
            src = (p << 1) | anc
            dst = (p << 1) | (anc ^ (1 if p == pattern_index else 0))
            mat[dst, src] = 1.0
    return qcore.LinearOperator(mat, unitary=True)


def eval_prepared(prog, x: Sequence[int]):
    """Rotated state with the ancilla after the prefix check."""
    lam = prog.lam
    x = tuple(x)
    s_theta = gf2.pip_eval(prog.perm, x)
    s_x, theta_x = s_theta[: 2 * lam], s_theta[2 * lam :]
    pattern = tuple(a ^ b for a, b in zip(prog.r, s_x[:lam]))
    state = qcore.tensor_product(dense_state(prog.sigma), qcore.StateVector.basis_state([0]))
    state = qcore.hadamard_layer(state, theta_x + (0,))
    compare = prefix_compare_operator(lam, pattern)
    targets = list(range(lam)) + [2 * lam]
    state = qcore.apply_operator(compare, state, targets)
    return state, s_x, theta_x, compare, targets


def accept_probability(prog, x: Sequence[int]) -> float:
    state, _, _, _, _ = eval_prepared(prog, x)
    branches = qcore.enumerate_measurement(state, [2 * prog.lam])
    return float(sum(p for outcome, p, _ in branches if outcome == (1,)))


def cp_eval(prog, x: Sequence[int], rng: np.random.Generator):
    """(output bits, post-program as a DenseProgram, accepted), as `copyprotect.cp_eval`."""
    prog, lam = dense(prog), prog.lam
    state, s_x, theta_x, compare, targets = eval_prepared(prog, x)
    verdict, state = qcore.measure_computational(state, [2 * lam], rng)
    state = qcore.apply_operator(compare, state, targets)  # self-inverse uncompute
    if verdict == (0,):
        state = qcore.hadamard_layer(state, theta_x + (0,))
        program_state = qcore.StateVector(state.amplitudes.reshape(-1, 2)[:, 0])
        return (0,) * lam, replace(prog, sigma=program_state), False
    w, state = qcore.measure_computational(state, range(2 * lam), rng)
    out = tuple(a ^ b ^ c for a, b, c in zip(w[lam:], s_x[lam:], prog.t))
    return out, replace(prog, sigma=qcore.BB84Product(w, theta_x).to_state()), True


def breidbart_split(prog, rng: np.random.Generator):
    """`copyprotect.BreidbartPirate.split` on the dense register: rotate every
    qubit into the intermediate basis and measure them all with one draw."""
    sigma = dense_state(prog.sigma)
    rotate = qcore.LinearOperator(unclonable.BREIDBART_BASIS, unitary=True)
    for i in range(sigma.qubit_count):
        sigma = qcore.apply_operator(rotate, sigma, [i])
    w, _ = qcore.measure_computational(sigma, range(sigma.qubit_count), rng)
    share = (w, prog.r, prog.perm, prog.t)
    return share, share
