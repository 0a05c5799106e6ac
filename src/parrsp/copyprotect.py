"""Classical-client copy-protection of multi-bit point functions.

A point function maps its 4*lam-bit marked input to a lam-bit marked
output and everything else to zeros.  Protection hides the marked input
inside a permuted pair (prefix tag, basis string), delegates the basis
string to the receiver through the interactive preparation protocol, and
publishes the classical offsets needed for evaluation.  Evaluation measures
the projector P onto the prefix the input selects, in the input's bases: the
effect of a prefix comparison into an ancilla that is measured and then
uncomputed, with no ancilla simulated.  A mismatch keeps (1 - P) of the
program (output zeros); a match reads the program out as one product.  A
fresh program is the prover's ``qcore.BB84Product``.  P projects only the
lam-qubit prefix, onto one BB84 product, so an uncertain mismatch leaves a
``ProductSum``: real-weighted BB84 prefixes times the unchanged suffix, one
term more per such mismatch and at most MAX_TERMS.  Nothing is ever dense.

The marked output length is lam: the offset arithmetic (the published
correction is the XOR of a lam-bit half of the prepared string with the
output) fixes it, and the implementation follows the arithmetic.

Nothing here is secure at simulation scale; the harness measures piracy
success rates against the trivial baseline exactly where feasible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import gf2, qcore, unclonable
from .protocol import MultiRoundConfig, run_multi_round

MAX_LAMBDA = gf2.MAX_WIDTH // 4  # the permutation acts on 4*lam bits
MAX_TERMS = 256  # prefix terms of one program, each added by an uncertain mismatch
_SQRT_HALF = math.sqrt(0.5)


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
class ProductSum:
    """sum_j c_j prefix_j (x) suffix with real c_j: a product program after uncertain mismatches.
    Its norm costs O(T^2 lam) for T terms, so `load_program` checks it and construction does not."""

    terms: tuple[tuple[float, qcore.BB84Product], ...]
    suffix: qcore.BB84Product

    def __post_init__(self):
        if not 1 <= len(self.terms) <= MAX_TERMS or any(len(p) != len(self.suffix) for _, p in self.terms):
            raise ValueError(f"a program sum holds 1 to MAX_TERMS = {MAX_TERMS} prefix terms as long as its suffix")

    def __len__(self) -> int:
        return 2 * len(self.suffix)

    def amplitude(self, bits, bases) -> float:
        """<bits in bases|prefixes>, in O(T lam) and real: per qubit 1 or 0 in a shared basis,
        (-1)^(x y)/sqrt(2) across bases."""
        return sum(c * _row_overlap(bits, bases, p) for c, p in self.terms)


def _row_overlap(bits, bases, prefix: qcore.BB84Product) -> float:
    """<bits in bases|prefix>, the qubits' factors multiplied in order, and +0.0 at the first zero.

    A full product could be -0.0 there; `amplitude`'s sum starts at +0.0, so it cannot tell."""
    value = 1.0
    for x, x_basis, y, y_basis in zip(bits, bases, prefix.bits, prefix.bases):
        if x_basis != y_basis:
            value *= -_SQRT_HALF if x & y else _SQRT_HALF
        elif x != y:
            return 0.0
    return value


@dataclass(frozen=True)
class ProtectedProgram:
    """Receiver-side quantum payload plus the published classical offsets."""

    sigma: qcore.BB84Product | ProductSum  # 2*lam qubits
    r: tuple[int, ...]  # lam bits
    perm: gf2.PermKey  # over 4*lam bits
    t: tuple[int, ...]  # lam bits

    @property
    def lam(self) -> int:
        return len(self.r)

    def __post_init__(self):
        if len(self.sigma) != 2 * self.lam:
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


def _match(sigma, row, bases) -> tuple[float, float | None]:
    """Probability that the prefix is the row in the given bases, and for a sum <row|prefixes>."""
    if isinstance(sigma, qcore.BB84Product):
        # exact per prefix qubit: 1/2 across bases, else whether its bit is the row's
        return float(math.prod(0.5 if own != basis else bit == want
                               for bit, own, want, basis in zip(sigma.bits, sigma.bases, row, bases))), None
    amplitude = sigma.amplitude(row, bases)
    return amplitude**2, amplitude


def cp_accept_probability(prog: ProtectedProgram, x: Sequence[int]) -> float:
    """Exact probability that evaluation takes the matching branch."""
    row, _, theta_x = _select(prog, x)
    return _match(prog.sigma, row, theta_x[: prog.lam])[0]


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
    sigma, bases = prog.sigma, theta_x[:lam]
    p, amplitude = _match(sigma, row, bases)
    verdict = qcore.born_index(np.array([1.0 - p, p]), rng)
    if not verdict:
        if p == 0.0:
            return (0,) * lam, prog, False
        # (1 - P) sigma / sqrt(1 - p): every term rescaled, and the row in x's bases added with weight
        # -<row|prefixes> / sqrt(1 - p), merged into the term that already holds that product
        if isinstance(sigma, qcore.BB84Product):
            sigma = ProductSum(((1.0, sigma[:lam]),), sigma[lam:])
            amplitude = sigma.amplitude(row, bases)
        scale, target = 1.0 / math.sqrt(1.0 - p), qcore.BB84Product(row, bases)
        coeffs = {prefix: c * scale for c, prefix in sigma.terms}
        coeffs[target] = coeffs.get(target, 0.0) - amplitude * scale
        sigma = ProductSum(tuple((c, prefix) for prefix, c in coeffs.items()), sigma.suffix)
        return (0,) * lam, replace(prog, sigma=sigma), False
    # P sigma is the row in x's bases times the untouched suffix: one product to read out
    tail = sigma if isinstance(sigma, qcore.BB84Product) else sigma.suffix
    w = qcore.BB84Product(row + tail.bits[-lam:], bases + tail.bases[-lam:]).measure(theta_x, rng.random())
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
    gives both parties the classical outcome plus the published offsets.
    Pirates receive fresh programs, which are products, read qubit by qubit."""

    def split(self, prog, rng):
        if not isinstance(prog.sigma, qcore.BB84Product):
            raise ValueError("the Breidbart pirate splits fresh (product) programs only")
        share = (unclonable.breidbart_outcome(prog.sigma, rng.random()), prog.r, prog.perm, prog.t)
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


def save_program(prog: ProtectedProgram, json_path) -> None:
    """Write a program as bit strings: the register of a product ("form": "product"), or the suffix
    of a sum ("form": "sum") with its prefix terms as [coefficient, bits, bases] under "terms"."""
    sigma = prog.sigma
    tail = sigma if isinstance(sigma, qcore.BB84Product) else sigma.suffix
    meta = {
        "note": "SIMULATION ARTIFACT: the quantum register recorded here is not a physical object",
        "lam": prog.lam,
        "r": "".join(map(str, prog.r)),
        "t": "".join(map(str, prog.t)),
        "perm_a": prog.perm.a.bits,
        "perm_b": prog.perm.b.bits,
        "perm_width": prog.perm.width,
        "form": "product" if tail is sigma else "sum",
        "bits": "".join(map(str, tail.bits)),
        "bases": "".join(map(str, tail.bases)),
    }
    if tail is not sigma:
        meta["terms"] = [[c, "".join(map(str, p.bits)), "".join(map(str, p.bases))] for c, p in sigma.terms]
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _bits(value, name) -> tuple[int, ...]:
    if not isinstance(value, str) or not set(value) <= {"0", "1"}:
        raise ValueError(f"{name} must be a string of 0s and 1s: program fields hold bit vectors")
    return tuple(map(int, value))


def load_program(json_path) -> ProtectedProgram:
    """Read a program and validate every field; a sum's norm, O(T^2 lam), is checked last."""
    with open(json_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    try:
        form = meta["form"]
        if form not in ("product", "sum"):
            raise ValueError(f"program form {form!r} is not supported; programs are stored as a product or a sum")
        r, t = _bits(meta["r"], "r"), _bits(meta["t"], "t")
        check_lambda(len(r))
        a, b, width = (meta[k] for k in ("perm_a", "perm_b", "perm_width"))
        if not type(a) is type(b) is type(width) is int:
            raise ValueError("perm_a, perm_b and perm_width must be integers")
        sigma = qcore.BB84Product(_bits(meta["bits"], "bits"), _bits(meta["bases"], "bases"))
        if form == "sum":
            if not all(type(c) in (int, float) and math.isfinite(c) for c, _, _ in meta["terms"]):
                raise ValueError("term coefficients must be finite numbers")
            sigma = ProductSum(tuple((float(c), qcore.BB84Product(_bits(x, "term bits"), _bits(z, "term bases")))
                                     for c, x, z in meta["terms"]), sigma)
        prog = ProtectedProgram(sigma, r, gf2.PermKey(gf2.FieldElement(a, width), gf2.FieldElement(b, width)), t)
        if form == "sum":
            norm = math.sqrt(abs(sum(c * sigma.amplitude(p.bits, p.bases) for c, p in sigma.terms)))
            if abs(norm - 1.0) > qcore.NORM_ATOL:
                raise ValueError(f"the program's terms have norm {norm!r}, not 1")
    except KeyError as exc:
        raise ValueError(f"malformed program file {json_path}: missing field {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed program file {json_path}: {exc}") from None
    return prog
