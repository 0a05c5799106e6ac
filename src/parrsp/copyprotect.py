"""Classical-client copy-protection of multi-bit point functions.

A point function maps its 4*lam-bit marked input to a lam-bit marked
output and everything else to zeros.  Protection hides the marked input
inside a permuted pair (prefix tag, basis string), delegates the basis
string to the receiver through the interactive preparation protocol, and
publishes the classical offsets needed for evaluation.  Evaluation measures
the projector P onto the prefix the input selects, in the input's bases: the
effect of a prefix comparison into an ancilla that is measured and then
uncomputed, with no ancilla simulated.  A mismatch rotates (1 - P) of the
program back (output zeros); a match reads the program out.  A fresh
program is the prover's ``qcore.BB84Product``, evaluated in closed form;
only a mismatch whose verdict was uncertain makes it a dense
``StateVector``, so that path takes lam <= MAX_DENSE_LAMBDA.

The marked output length is lam: the offset arithmetic (the published
correction is the XOR of a lam-bit half of the prepared string with the
output) fixes it, and the implementation follows the arithmetic.

Nothing here is secure at simulation scale; the harness measures piracy
success rates against the trivial baseline exactly where feasible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import gf2, qcore, unclonable
from .protocol import MultiRoundConfig, run_multi_round

MAX_LAMBDA = gf2.MAX_WIDTH // 4  # the permutation acts on 4*lam bits
MAX_DENSE_LAMBDA = qcore.MAX_QUBITS // 2  # a dense register of 2*lam qubits


@dataclass(frozen=True)
class PointFunction:
    """Marked input (4*lam bits) and marked output (lam bits)."""

    y: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        if len(self.y) != 4 * len(self.m):
            raise ValueError("marked input must be four times the output length")
        if any(b not in (0, 1) for b in self.y + self.m):
            raise ValueError("point functions take bit vectors")

    @property
    def lam(self) -> int:
        return len(self.m)

    def evaluate(self, x: Sequence[int]) -> tuple[int, ...]:
        x = tuple(x)
        if len(x) != len(self.y):
            raise ValueError("input length mismatch")
        return self.m if x == self.y else (0,) * self.lam


def random_point_function(lam: int, rng: np.random.Generator) -> PointFunction:
    y = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
    m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
    return PointFunction(y, m)


@dataclass(frozen=True)
class ProtectedProgram:
    """Receiver-side quantum payload plus the published classical offsets."""

    sigma: qcore.BB84Product | qcore.StateVector  # 2*lam qubits
    r: tuple[int, ...]  # lam bits
    perm: gf2.PermKey  # over 4*lam bits
    t: tuple[int, ...]  # lam bits

    @property
    def lam(self) -> int:
        return len(self.r)

    def __post_init__(self):
        if (len(self.sigma) if isinstance(self.sigma, qcore.BB84Product) else self.sigma.qubit_count) != 2 * self.lam:
            raise ValueError("program register must hold 2*lam qubits")
        if len(self.t) != self.lam or self.perm.width != 4 * self.lam:
            raise ValueError("inconsistent program lengths")
        if any(b not in (0, 1) for b in self.r + self.t):
            raise ValueError("program offsets r and t must be bit vectors")


def check_lambda(lam: int) -> None:
    if not 1 <= lam <= MAX_LAMBDA:
        raise ValueError(f"protection takes 1 <= lam <= {MAX_LAMBDA} (permutation width 4*lam), not {lam}")


def cp_protect(lam: int, f: PointFunction, config: MultiRoundConfig, prover, rng: np.random.Generator):
    """Interactive protection; returns (program, protocol result).

    The program is None when the preparation protocol aborts.
    """
    if f.lam != lam:
        raise ValueError("function length does not match lam")
    check_lambda(lam)
    if config.n != 2 * lam:
        raise ValueError("protocol must prepare 2*lam states")
    perm = gf2.pip_sample(4 * lam, rng)
    s_theta = gf2.pip_eval(perm, f.y)
    s, theta = s_theta[: 2 * lam], s_theta[2 * lam :]
    result = run_multi_round(config, prover, prep_theta=theta)
    if not result.accepted:
        return None, result
    v = result.v_vec
    s0, s1 = s[:lam], s[lam:]
    v0, v1 = v[:lam], v[lam:]
    r = tuple(a ^ b for a, b in zip(v0, s0))
    u = tuple(a ^ b for a, b in zip(v1, s1))
    t = tuple(a ^ b for a, b in zip(u, f.m))
    return ProtectedProgram(sigma=result.prover_final_state, r=r, perm=perm, t=t), result


def _select(prog: ProtectedProgram, x: Sequence[int]):
    """The prefix row x's check expects, s_x and theta_x."""
    lam = prog.lam
    x = tuple(x)
    if len(x) != 4 * lam:
        raise ValueError("evaluation input must have 4*lam bits")
    s_theta = gf2.pip_eval(prog.perm, x)
    s_x, theta_x = s_theta[: 2 * lam], s_theta[2 * lam :]
    return tuple(a ^ b for a, b in zip(prog.r, s_x[:lam])), s_x, theta_x


def _match(sigma, row, theta_x):
    """The match probability, and a dense register in x's bases as a 2^lam x 2^lam matrix whose
    rows are the prefix qubits (None for a product)."""
    if isinstance(sigma, qcore.BB84Product):
        # per prefix qubit: 1/2 across bases, else whether its bit is the row's
        return float(math.prod(0.5 if own != basis else bit == want
                               for bit, own, want, basis in zip(sigma.bits, sigma.bases, row, theta_x))), None
    side = 2 ** (len(theta_x) // 2)
    rotated = qcore.hadamard_layer(sigma, theta_x).amplitudes.reshape(side, side)
    matched = rotated[qcore.bits_to_index(row)]
    return float(np.vdot(matched, matched).real), rotated


def cp_accept_probability(prog: ProtectedProgram, x: Sequence[int]) -> float:
    """Exact probability that evaluation takes the matching branch."""
    row, _, theta_x = _select(prog, x)
    return _match(prog.sigma, row, theta_x)[0]


def cp_eval(lam: int, prog: ProtectedProgram, x: Sequence[int], rng: np.random.Generator):
    """Run the program on x; returns (output bits, post-program, accepted).

    Only the verdict is measured on the mismatch branch, so the program
    survives (gently disturbed when the verdict was not deterministic).
    On the matching branch the register is read out and re-prepared from
    the observed outcome, which restores the program exactly whenever the
    verdict was deterministic.  The boolean reports which branch ran.
    """
    if prog.lam != lam:
        raise ValueError("program does not match lam")
    row, s_x, theta_x = _select(prog, x)
    sigma = prog.sigma
    p, rotated = _match(sigma, row, theta_x)
    verdict = qcore.born_index(np.array([1.0 - p, p]), rng)
    if not verdict and p == 0.0:
        return (0,) * lam, prog, False
    if verdict and isinstance(sigma, qcore.BB84Product):
        # the matched prefix is the row in x's bases; the suffix is as prepared
        w = qcore.BB84Product(row + sigma.bits[lam:], theta_x[:lam] + sigma.bases[lam:]).measure(theta_x, rng.random())
    else:
        if rotated is None:  # a product is densified here, within lam <= MAX_DENSE_LAMBDA
            rotated = _match(sigma.to_state(), row, theta_x)[1]
        matches = np.arange(rotated.shape[0])[:, None] == qcore.bits_to_index(row)
        branch = np.where(matches == bool(verdict), rotated, 0.0).ravel()  # P psi or (1 - P) psi
        state = qcore.StateVector(branch / np.linalg.norm(branch))
        if not verdict:
            return (0,) * lam, replace(prog, sigma=qcore.hadamard_layer(state, theta_x)), False
        w, _ = qcore.measure_computational(state, range(2 * lam), rng)
    out = tuple(a ^ b ^ c for a, b, c in zip(w[lam:], s_x[lam:], prog.t))
    return out, replace(prog, sigma=qcore.BB84Product(w, theta_x)), True


# -- piracy experiment -------------------------------------------------------


class ChallengeDistribution:
    """Sampler over challenge input pairs, with an exact trivial baseline."""

    def sample(self, f: PointFunction, rng: np.random.Generator):
        raise NotImplementedError

    def p_trivial(self, lam: int) -> float:
        """Baseline from forwarding the program to one party: the forwarding
        party always answers correctly, the other wins whenever its
        challenge is unmarked (it answers zeros)."""
        raise NotImplementedError


class MarkedChallenge(ChallengeDistribution):
    """Both parties are challenged on the marked input."""

    def sample(self, f, rng):
        return f.y, f.y

    def p_trivial(self, lam):
        return 0.0


class UnmarkedChallenge(ChallengeDistribution):
    """Both challenges uniform over inputs distinct from the marked one."""

    def sample(self, f, rng):
        lam = f.lam

        def draw():
            while True:
                x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
                if x != f.y:
                    return x

        return draw(), draw()

    def p_trivial(self, lam):
        return 1.0


class UniformChallenge(ChallengeDistribution):
    """Challenges uniform over the whole input space."""

    def sample(self, f, rng):
        lam = f.lam
        x_b = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
        x_c = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
        return x_b, x_c

    def p_trivial(self, lam):
        q = 2.0 ** -(4 * lam)
        return (1 - q) * (1 - q) + q * (1 - q)


class Pirate:
    """Splits one program into two shares answered independently."""

    def split(self, prog: ProtectedProgram, rng: np.random.Generator):
        raise NotImplementedError

    def answer_b(self, share, x, rng) -> tuple[int, ...]:
        raise NotImplementedError

    def answer_c(self, share, x, rng) -> tuple[int, ...]:
        raise NotImplementedError


class ForwardPirate(Pirate):
    """Forwards the program to B; C keeps the classical parts and guesses."""

    def split(self, prog, rng):
        return prog, (prog.r, prog.perm, prog.t)

    def answer_b(self, share, x, rng):
        out, _, _ = cp_eval(share.lam, share, x, rng)
        return out

    def answer_c(self, share, x, rng):
        r, _, _ = share
        return tuple(int(b) for b in rng.integers(0, 2, size=len(r)))


class ZeroPirate(Pirate):
    """Both parties always answer zeros (optimal for unmarked challenges)."""

    def split(self, prog, rng):
        return prog.lam, prog.lam

    def answer_b(self, share, x, rng):
        return (0,) * share

    answer_c = answer_b


class BreidbartPirate(Pirate):
    """Measures every program qubit in the intermediate basis up front and
    gives both parties the classical outcome plus the published offsets;
    a product program is read qubit by qubit, a dense one with the same draw."""

    def split(self, prog, rng):
        sigma = prog.sigma
        if isinstance(sigma, qcore.BB84Product):
            w = unclonable.breidbart_outcome(sigma, rng.random())
        else:
            rotate = qcore.LinearOperator(unclonable.BREIDBART_BASIS, unitary=True)
            for i in range(sigma.qubit_count):
                sigma = qcore.apply_operator(rotate, sigma, [i])
            w, _ = qcore.measure_computational(sigma, range(sigma.qubit_count), rng)
        share = (w, prog.r, prog.perm, prog.t)
        return share, share

    def _answer(self, share, x, rng):
        w, r, perm, t = share
        lam = len(r)
        s_theta = gf2.pip_eval(perm, tuple(x))
        s_x = s_theta[: 2 * lam]
        pattern = tuple(a ^ b for a, b in zip(r, s_x[:lam]))
        if w[:lam] != pattern:
            return (0,) * lam
        return tuple(a ^ b ^ c for a, b, c in zip(w[lam:], s_x[lam:], t))

    answer_b = _answer
    answer_c = _answer


def piracy_experiment(
    lam: int,
    challenge_dist: ChallengeDistribution,
    pirate: Pirate,
    config: MultiRoundConfig,
    trials: int,
    rng: np.random.Generator,
    prover_factory=None,
) -> dict:
    """Success rate of a pirate over fresh protect runs and challenges."""
    from .provers import HonestProver

    if trials < 1:
        raise ValueError("trials must be at least 1")
    if lam > MAX_DENSE_LAMBDA and isinstance(pirate, ForwardPirate) and not isinstance(challenge_dist, MarkedChallenge):
        raise ValueError(f"forward piracy on unmarked challenges takes lam <= {MAX_DENSE_LAMBDA}, not {lam}")
    if prover_factory is None:
        prover_factory = HonestProver
    wins = 0
    aborts = 0
    for _ in range(trials):
        f = random_point_function(lam, rng)
        cfg = replace(config, seed=int(rng.integers(0, 2**63)), reveal_theta=False)
        prog, result = cp_protect(lam, f, cfg, prover_factory(int(rng.integers(0, 2**63))), rng)
        if prog is None:
            aborts += 1
            continue
        share_b, share_c = pirate.split(prog, rng)
        x_b, x_c = challenge_dist.sample(f, rng)
        ans_b = pirate.answer_b(share_b, x_b, rng)
        ans_c = pirate.answer_c(share_c, x_c, rng)
        if ans_b == f.evaluate(x_b) and ans_c == f.evaluate(x_c):
            wins += 1
    p = wins / trials
    return {
        "success": p,
        "stderr": float(np.sqrt(max(p * (1 - p), 1e-12) / trials)),
        "p_trivial": challenge_dist.p_trivial(lam),
        "aborts": aborts,
        "trials": trials,
    }


# -- serialization (simulation artifact; the quantum part is non-physical) --


def save_program(prog: ProtectedProgram, json_path, state_path=None) -> None:
    """Write a product register as bits and bases, a dense one to the side file (by default the one
    json_path names already); the JSON keeps that path relative to its own directory."""
    base = os.path.dirname(os.path.abspath(json_path))
    if state_path is None:
        with open(json_path, "r", encoding="utf-8") as fh:
            state_path = os.path.join(base, json.load(fh)["state_file"])
    meta = {
        "note": "SIMULATION ARTIFACT: the quantum register recorded here is not a physical object",
        "lam": prog.lam,
        "r": "".join(map(str, prog.r)),
        "t": "".join(map(str, prog.t)),
        "perm_a": prog.perm.a.bits,
        "perm_b": prog.perm.b.bits,
        "perm_width": prog.perm.width,
        "state_file": os.path.relpath(os.path.abspath(state_path), base),
    }
    if isinstance(prog.sigma, qcore.BB84Product):
        meta.update(form="product", bits="".join(map(str, prog.sigma.bits)), bases="".join(map(str, prog.sigma.bases)))
    else:
        meta["form"] = "dense"
        prog.sigma.amplitudes.astype("<c16").tofile(state_path)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_program(json_path) -> ProtectedProgram:
    """Read a program; a dense side file's size is checked against 16 * 4^lam bytes before it is read."""
    with open(json_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    try:
        r, t = tuple(int(c) for c in meta["r"]), tuple(int(c) for c in meta["t"])
        lam = len(r)
        if not 1 <= lam <= MAX_LAMBDA:
            raise ValueError(f"programs take 1 <= lam <= {MAX_LAMBDA}, not {lam}")
        perm = gf2.PermKey(*(gf2.FieldElement(int(meta[k]), int(meta["perm_width"])) for k in ("perm_a", "perm_b")))
        if meta.get("form") == "product":
            sigma = qcore.BB84Product(tuple(int(c) for c in meta["bits"]), tuple(int(c) for c in meta["bases"]))
        else:
            path = os.path.join(os.path.dirname(os.path.abspath(json_path)), meta["state_file"])
            size = os.path.getsize(path)
            if lam > MAX_DENSE_LAMBDA or size != 16 * 4**lam:
                raise ValueError(f"state file {path} holds {size} bytes, not a dense lam = {lam} register")
            sigma = qcore.StateVector(np.fromfile(path, dtype="<c16"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed program file {json_path}: {exc!r}") from None
    return ProtectedProgram(sigma=sigma, r=r, perm=perm, t=t)
