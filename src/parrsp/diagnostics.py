"""Explicit device matrices and numerical checks of the rigidity relations.

A device captures one round of an arbitrary prover's behavior: a family of
post-commitment states indexed by a per-copy basis vector and the returned
image points, plus three measurement families (preimage answers, equation
answers, question answers).  Here devices are built from the honest prover
in a compressed representation and optionally perturbed, and a battery of
diagnostics evaluates the success probabilities, binary-observable
relations, Pauli-group behavior, rounding isometries, and the BB84 product
form on explicit (small) matrices.

Representation.  Per copy the committed space is compressed to dimension
2, spanned by the two preimage branches of the returned image; the
equation measurement, projective on the full space, becomes a Kraus family
{K} with sum K^dag K = 1 in this compression.  A perturbed device is a
classical mixture: with weight p_0 it answers honestly, and with weight p_j
(j >= 1) it gives the fixed answer j-1 regardless of the quantum state.
That ancilla index j is classical, so it is a weight list and not a tensor
factor: every operator the diagnostics use is block-diagonal in j.  A
`BlockObservable` holds its honest 2^n x 2^n block plus one scalar per
forced answer, and a `BlockIsometry` yields one block per index.
Expectations are p-weighted sums over j, trace norms are sums over j, and
operator norms are maxima over j; every perturbed quantity is an exact
expectation (no sampling noise).

Class form.  A post-equation block, indexed by the image and equation
outcomes (y_vec, d_vec), depends on them only through the string v_vec the
verifier decodes: an injective copy holds |b_hat(y)>, a claw-free copy
holds H|u(d)> with u(d) = d . delta.  So sigma^(theta) is exactly 2^n class
blocks sigma^(theta, v) = W(v) (x)_i rho_i(v_i), where rho_i(v_i) is the
BB84 projector H^theta_i |v_i><v_i| H^theta_i and the class weight W(v) is
a product of per-copy weights.  Every sign the diagnostics use (the Xtilde
sign, the sign-corrected isometry, the anticommutation sign) is a function
of v alone, so they all evaluate on `Device.sigma_by_v`, cached per theta.
The post-commitment state is a product over copies as well, so the
preimage-round pass probability and the structural checks of
`validate_device` are per-copy sums.  The per-(y, d) blocks on the
committed x ancilla space, from which all of this follows, are built only
in the test suite, as the reference the class form is checked against.

The 4^n Pauli-twirl terms of the rounding isometry depend on the device
alone, so `Device.rounding_terms` builds them once, as `sigma_by_v` does
the class blocks, and every isometry of the device sums over those terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import entcf, qcore

MAX_DIAG_COPIES = 5
MAX_DIAG_WIDTH = 4


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _dot(u: Sequence[int], a: Sequence[int]) -> int:
    return sum(x & y for x, y in zip(u, a)) % 2


@dataclass(frozen=True)
class BlockObservable:
    """An operator that is block-diagonal in the classical ancilla index j.

    On index 0 (the honest answer) it acts as `honest`, a 2^n x 2^n matrix;
    on each index j >= 1 (a forced answer) as forced[j - 1] times the
    identity.
    """

    honest: np.ndarray
    forced: np.ndarray

    def __matmul__(self, other: BlockObservable) -> BlockObservable:
        return BlockObservable(self.honest @ other.honest, self.forced * other.forced)

    def __add__(self, other: BlockObservable) -> BlockObservable:
        return BlockObservable(self.honest + other.honest, self.forced + other.forced)

    def __sub__(self, other: BlockObservable) -> BlockObservable:
        return BlockObservable(self.honest - other.honest, self.forced - other.forced)

    def projector(self, v: int) -> BlockObservable:
        """(1 + (-1)^v O) / 2 for this binary observable O."""
        sign = (-1.0) ** v
        eye = np.eye(len(self.honest), dtype=complex)
        return BlockObservable(0.5 * (eye + sign * self.honest), 0.5 * (1.0 + sign * self.forced))

    def max_abs(self) -> float:
        """The largest entry modulus of the operator."""
        return float(max(np.max(np.abs(self.honest)), np.max(np.abs(self.forced), initial=0.0)))

    def blocks(self) -> list[np.ndarray]:
        """The dense block of every ancilla index, honest first."""
        eye = np.eye(len(self.honest), dtype=complex)
        return [self.honest] + [value * eye for value in self.forced]


class Device:
    """Compressed-representation device with one key tuple per mode."""

    def __init__(self, n: int, width: int, keypairs_by_mode, anc_probs=None, anc_answers=()):
        self.n = n
        self.width = width
        self.keypairs = {mode: tuple(kps) for mode, kps in keypairs_by_mode.items()}
        self.anc_probs = np.array([1.0] if anc_probs is None else anc_probs, dtype=float)
        self.anc_answers = tuple(anc_answers)  # fixed answer (int over n bits) per ancilla index >= 1
        if len(self.anc_answers) != len(self.anc_probs) - 1:
            raise ValueError("need one fixed answer per non-honest ancilla index")
        if abs(self.anc_probs.sum() - 1.0) > 1e-12:
            raise ValueError("ancilla probabilities must sum to 1")
        self._sigma_by_v: dict[tuple[int, ...], dict[tuple[int, ...], np.ndarray]] = {}
        self._rounding_terms: tuple | None = None

    # -- dimensions -----------------------------------------------------

    @property
    def committed_dim(self) -> int:
        return 2**self.n

    @property
    def anc_dim(self) -> int:
        return len(self.anc_probs)

    # -- per-copy structure ----------------------------------------------

    def _pair(self, mode: int, copy: int) -> entcf.EntcfKey:
        return self.keypairs[mode][copy]

    def copy_y_list(self, mode: int, copy: int) -> list[tuple[int, float, int]]:
        """Honest (y, weight, bit) triples for one copy; the committed qubit is H^mode |bit>.

        An injective image holds |b_hat(y)>, a claw-free one the claw state |+>.
        """
        kp = self._pair(mode, copy)
        w = self.width
        if mode == entcf.INJECTIVE:
            return [(y, 2.0 ** -(w + 1), entcf.decode_b(kp.trapdoor, y)) for y in range(2 ** (w + 1))]
        return [(y, 2.0**-w, 0) for y in range(2 ** (w + 1)) if entcf.decode_x(kp.trapdoor, y, 0) is not None]

    def copy_terms(self, mode: int, copy: int) -> list[tuple[int, int, int, float]]:
        """Post-equation terms (y, d, decoded bit, weight) of one copy.

        The committed qubit of a term is again H^mode |bit>: the Kraus factor
        of an injective block only rescales |b_hat(y)>, and the one of a
        claw-free block turns |+> into H|d . delta>.  Each term weighs its
        image weight times 2^-w, the squared Kraus scale.
        """
        scale = 2.0**-self.width
        return [
            (y, d, bit ^ (mode and self.copy_u(copy, d)), weight * scale)
            for y, weight, bit in self.copy_y_list(mode, copy)
            for d in range(2**self.width)
        ]

    def copy_u(self, copy: int, d: int) -> int:
        kp = self._pair(entcf.CLAW_FREE, copy)
        return _parity(d & kp.trapdoor.delta)

    def copy_kraus(self, mode: int, copy: int, y: int, d: int) -> np.ndarray:
        """Compressed equation-measurement Kraus factor for one copy."""
        kp = self._pair(mode, copy)
        signs = []
        for b in (0, 1):
            x = entcf.decode_x(kp.trapdoor, y, b)
            signs.append((-1.0) ** _parity(d & x))
        return np.diag(signs).astype(complex) * 2.0 ** (-self.width / 2.0)

    # -- the post-equation state --------------------------------------------

    def sigma_by_v(self, theta_vec: Sequence[int]) -> dict[tuple[int, ...], np.ndarray]:
        """Class form of sigma: decoded string v_vec -> sigma^(theta, v), cached per theta.

        A class block is the BB84 projector of v_vec weighted by the product
        of per-copy class weights (sums over `copy_terms`).  It is the same
        on every ancilla index; `trace` applies the ancilla weights.  Every
        caller shares the cached blocks, so they are read-only arrays.
        """
        theta_vec = tuple(theta_vec)
        if theta_vec not in self._sigma_by_v:
            weights = []
            for i, theta in enumerate(theta_vec):
                per_bit = [0.0, 0.0]
                for _, _, bit, weight in self.copy_terms(theta, i):
                    per_bit[bit] += weight
                weights.append(per_bit)
            classes = {}
            for v_vec in itertools.product((0, 1), repeat=self.n):
                ket = qcore.BB84Product(v_vec, theta_vec).to_state().amplitudes
                block = float(np.prod([w[v] for w, v in zip(weights, v_vec)])) * np.outer(ket, ket.conj())
                block.setflags(write=False)
                classes[v_vec] = block
            self._sigma_by_v[theta_vec] = classes
        return self._sigma_by_v[theta_vec]

    def trace(self, op: BlockObservable, block: np.ndarray) -> complex:
        """Tr[op sigma] for a class block sigma: ancilla index j weighs p_j."""
        honest = np.einsum("ij,ji->", op.honest, block)
        return complex(self.anc_probs[0] * honest + (self.anc_probs[1:] @ op.forced) * np.trace(block))

    def v_parity(self, theta_vec, v_vec, a: Sequence[int]) -> int:
        """Xtilde sign bit a . v_vec of a decoded string; needs theta_i = 1 where a_i = 1."""
        if any(ai and theta != 1 for theta, ai in zip(theta_vec, a)):
            raise ValueError("Xtilde sign needs a claw-free key wherever a_i = 1")
        return _dot(v_vec, a)

    # -- measurements ------------------------------------------------------

    def identity(self) -> BlockObservable:
        return BlockObservable(np.eye(self.committed_dim, dtype=complex), np.ones(len(self.anc_answers)))

    def question_projector(self, q: int, v_vec: Sequence[int]) -> BlockObservable:
        """P_q^{(v)}: the honest BB84 projector, or 1 where the forced answer is v."""
        v_index = qcore.bits_to_index(v_vec)
        ket = qcore.BB84Product(v_vec, (q,) * self.n).to_state().amplitudes
        forced = np.array([float(answer == v_index) for answer in self.anc_answers])
        return BlockObservable(np.outer(ket, ket.conj()), forced)

    def observable_matrix(self, kind: str, a: Sequence[int]) -> BlockObservable:
        """Z(a) or X(a): the honest Pauli string, or the sign (-1)^(a . answer) of a forced answer."""
        single = (qcore.pauli_z() if kind == "Z" else qcore.pauli_x()).entries
        honest = qcore.kron(*[single if bit else np.eye(2, dtype=complex) for bit in a]) if a else np.eye(1)
        a_int = qcore.bits_to_index(a)
        forced = np.array([(-1.0) ** _parity(answer & a_int) for answer in self.anc_answers])
        return BlockObservable(honest, forced)

    def rounding_terms(self) -> tuple[tuple[tuple[int, ...], tuple[np.ndarray, ...]], ...]:
        """The 4^n rounding-isometry terms (a, columns), cached as read-only arrays.

        Term (a, b) holds, per ancilla index j, block j of X(a) Z(b) tensored
        with the column (sigma_X^a sigma_Z^b (x) 1)|EPR>.
        """
        n = self.n
        if n > 2:
            raise ValueError("rounding isometries are limited to 2 copies")
        if self._rounding_terms is None:
            epr = np.eye(2**n, dtype=complex).reshape(-1) / np.sqrt(2**n)  # maximally entangled on A x Q
            terms = []
            for a in itertools.product((0, 1), repeat=n):
                x = self.observable_matrix("X", a)
                for b in itertools.product((0, 1), repeat=n):
                    z = self.observable_matrix("Z", b)
                    pauli = qcore.pauli_string(a, b).entries
                    w = (qcore.kron(pauli, np.eye(2**n, dtype=complex)) @ epr).reshape(-1, 1)
                    columns = tuple(qcore.kron(block, w) for block in (x @ z).blocks())
                    for column in columns:
                        column.setflags(write=False)
                    terms.append((a, columns))
            self._rounding_terms = tuple(terms)
        return self._rounding_terms


def device_from_honest(n: int, width: int, rng: np.random.Generator) -> Device:
    """Honest device for one fixed key tuple per mode."""
    if not 1 <= n <= MAX_DIAG_COPIES:
        raise ValueError(f"diagnostics support 1 to {MAX_DIAG_COPIES} copies, not {n}")
    if width > MAX_DIAG_WIDTH:
        raise ValueError(f"diagnostics support widths up to {MAX_DIAG_WIDTH}")
    keypairs = {
        entcf.INJECTIVE: [entcf.gen(entcf.INJECTIVE, width, rng) for _ in range(n)],
        entcf.CLAW_FREE: [entcf.gen(entcf.CLAW_FREE, width, rng) for _ in range(n)],
    }
    return Device(n=n, width=width, keypairs_by_mode=keypairs)


def perturb_device(device: Device, epsilon: float) -> Device:
    """Mix each question answer with a uniform one with probability epsilon.

    Realized exactly: a classical ancilla carries the mixing weights, with
    one index per forced answer, so the perturbed measurements stay
    projective and every derived quantity is a deterministic expectation.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if device.anc_dim != 1:
        raise ValueError("perturb an unperturbed device")
    if epsilon == 0.0:
        return device
    n = device.n
    answers = tuple(range(2**n))
    probs = [1.0 - epsilon] + [epsilon / 2**n] * 2**n
    return Device(
        n=n,
        width=device.width,
        keypairs_by_mode=device.keypairs,
        anc_probs=probs,
        anc_answers=answers,
    )


def _partial(sigma: dict, a: Sequence[int], v: int) -> np.ndarray:
    """Sum of the class blocks sigma^(theta, v_vec) with a . v_vec = v."""
    zero = np.zeros_like(next(iter(sigma.values())))
    return sum((m for v_vec, m in sigma.items() if _dot(v_vec, a) == v), zero)


def _sign_split(sigma: dict, a: Sequence[int]) -> np.ndarray:
    """Sum over classes of (-1)^(a . v_vec) sigma^(theta, v_vec)."""
    return _partial(sigma, a, 0) - _partial(sigma, a, 1)


def _copy_preimage_pass(device: Device, mode: int, copy: int) -> float:
    """Probability that one copy's measured preimage passes the public check."""
    kp = device.keypairs[mode][copy]
    total = 0.0
    for y, weight, bit in device.copy_y_list(mode, copy):
        qubit = qcore.BB84Product((bit,), (mode,)).to_state().amplitudes
        for b in (0, 1):
            x = entcf.decode_x(kp.trapdoor, y, b)
            if x is not None and entcf.chk(kp.key, y, b, x):
                total += weight * abs(qubit[b]) ** 2
    return total


def gammas(device: Device) -> tuple[float, float]:
    """Exact preimage- and Hadamard-round failure probabilities.

    Averaged uniformly over the single-basis choices theta in {0, 1}, as in
    a test round.
    """
    n = device.n
    gamma_p_terms = []
    gamma_h_terms = []
    for theta in (0, 1):
        theta_vec = (theta,) * n
        # preimage round: the committed state and the check are products over
        # copies, so the pass probability is a product of per-copy sums
        pass_pre = float(np.prod([_copy_preimage_pass(device, theta, i) for i in range(n)]))
        gamma_p_terms.append(1.0 - pass_pre)

        # Hadamard round: the device answers with P_theta, checked against the decoding
        pass_had = sum(
            device.trace(device.question_projector(theta, v_vec), block).real
            for v_vec, block in device.sigma_by_v(theta_vec).items()
        )
        gamma_h_terms.append(1.0 - pass_had)

    return 0.5 * sum(gamma_p_terms), 0.5 * sum(gamma_h_terms)


def success_relations_report(device: Device) -> dict:
    """Gaps in the three observable success relations, for every (a, v)."""
    n = device.n
    rows = {"z": [], "x": [], "xtilde": []}
    max_gap = 0.0
    sigma0 = device.sigma_by_v((0,) * n)
    sigma1 = device.sigma_by_v((1,) * n)

    for a in itertools.product((0, 1), repeat=n):
        z = device.observable_matrix("Z", a)
        x = device.observable_matrix("X", a)
        for v in (0, 1):
            for name, sigma, obs in (("z", sigma0, z), ("x", sigma1, x)):
                part = _partial(sigma, a, v)
                lhs = device.trace(obs.projector(v), part).real
                rhs = float(np.trace(part).real)
                gap = abs(lhs - rhs)
                rows[name].append({"a": list(a), "v": v, "lhs": lhs, "rhs": rhs, "gap": gap})
                max_gap = max(max_gap, gap)

        # Xtilde(a) carries the sign (-1)^(a . v) on the class decoded as v
        lhs = device.trace(x, _sign_split(sigma1, a)).real
        gap = abs(lhs - 1.0)
        rows["xtilde"].append({"a": list(a), "lhs": lhs, "rhs": 1.0, "gap": gap})
        max_gap = max(max_gap, gap)
    return {"rows": rows, "max_gap": max_gap}


def pauli_relation_grid(device: Device) -> dict:
    """All 4^n values Tr[Z(a) Xt(b) Z(a) Xt(b) sigma^(1...1)] plus the worst deviation from (-1)^(a.b).

    Both Xtilde factors carry the same sign on a block, so the signs cancel
    and each value is a trace against the whole of sigma^(1...1).  The
    operators and that sum are built once per grid."""
    n = device.n
    strings = list(itertools.product((0, 1), repeat=n))
    zs = [device.observable_matrix("Z", a) for a in strings]
    xs = [device.observable_matrix("X", b) for b in strings]
    total = sum(device.sigma_by_v((1,) * n).values())
    entries = []
    worst = 0.0
    for a, z in zip(strings, zs):
        for b, x in zip(strings, xs):
            value = device.trace(z @ x @ z @ x, total)
            expected = (-1.0) ** _dot(a, b)
            dev_abs = abs(value - expected)
            worst = max(worst, dev_abs)
            entries.append(
                {"a": list(a), "b": list(b), "value_re": value.real, "value_im": value.imag,
                 "expected": expected, "deviation": dev_abs}
            )
    return {"entries": entries, "max_deviation": worst, "n": n}


def anticommutation_value(device: Device, i: int) -> float:
    """Tr[Z_i Xt_i Z_i sigma^(e_i)] where e_i has a single claw-free copy."""
    n = device.n
    if not 0 <= i < n:
        raise ValueError(f"copy index {i} out of range")
    e_i = tuple(1 if j == i else 0 for j in range(n))
    z = device.observable_matrix("Z", e_i)
    x = device.observable_matrix("X", e_i)
    # the Xtilde_i sign of a block is (-1)^(v_i), v_i = u(d_i) its decoded bit
    return device.trace(z @ x @ z, _sign_split(device.sigma_by_v(e_i), e_i)).real


# -- rounding isometries ---------------------------------------------------


@dataclass
class BlockIsometry:
    """Isometry from the device space into device x A x Q, one block per ancilla index."""

    device: Device
    use_tilde: bool
    base_terms: tuple  # Device.rounding_terms(): [(a, one column block per ancilla index)]

    def matrix_for_v(self, theta_vec, v_vec) -> list[np.ndarray]:
        """The blocks shared by every (y, d) block decoded as v_vec (any v_vec without use_tilde)."""
        signs = [
            (-1.0) ** self.device.v_parity(theta_vec, v_vec, a) if self.use_tilde else 1.0
            for a, _ in self.base_terms
        ]
        return [
            sum(s * columns[j] for s, (_, columns) in zip(signs, self.base_terms)) / 2**self.device.n
            for j in range(self.device.anc_dim)
        ]


def rounding_isometry(device: Device, use_tilde: bool) -> BlockIsometry:
    """The explicit Pauli-twirl isometry over all 4^n observable pairs.

    Normalization 2^-n * sum (not the plain average) makes V^dag V = 1.
    """
    return BlockIsometry(device=device, use_tilde=use_tilde, base_terms=device.rounding_terms())


def isometry_relation_gap(device: Device) -> float:
    """Max operator-norm gap of V = sigma_Z(u)_A sigma_Z(u)_Q Vtilde per block.

    A block's Vtilde and correction depend on it only through its decoded
    string u, and V on nothing, so the maximum runs over the 2^n classes.
    Both sides are block-diagonal in the ancilla index, so the operator
    norm is the largest over those blocks.
    """
    n = device.n
    theta1 = (1,) * n
    zeros = (0,) * n
    v_blocks = rounding_isometry(device, use_tilde=False).matrix_for_v(theta1, zeros)
    vt_iso = rounding_isometry(device, use_tilde=True)
    eye = np.eye(device.committed_dim, dtype=complex)
    worst = 0.0
    for u_vec in device.sigma_by_v(theta1):
        sz_u = qcore.pauli_string(zeros, u_vec).entries
        corr = qcore.kron(eye, qcore.kron(sz_u, sz_u))
        for v_mat, vt_mat in zip(v_blocks, vt_iso.matrix_for_v(theta1, u_vec)):
            worst = max(worst, float(np.linalg.norm(v_mat - corr @ vt_mat, ord=2)))
    return worst


def _partial_trace_last(matrix: np.ndarray, rest_dim: int, traced_dim: int) -> np.ndarray:
    t = matrix.reshape(rest_dim, traced_dim, rest_dim, traced_dim)
    return np.einsum("ikjk->ij", t)


def bb84_report(device: Device, theta_vec: Sequence[int]) -> dict:
    """Distance of the rounded state from the BB84 x side-state product form.

    For each decoded string v the report compares V sigma^(theta, v) V^dag
    against (BB84 states on Q) tensor alpha with alpha the Q-marginal.  The
    blocks decoded as v are all proportional to the class block, so the
    blockwise sum of trace distances equals the class block's distance.
    Both states are block-diagonal in the ancilla index, so each trace norm
    is a sum over those blocks.  The spread entry compares the ancillary
    alpha states across different v after summing out the classical block
    index (keeping it would make the comparison trivially maximal:
    different v live on disjoint classical outcomes).
    """
    n = device.n
    theta_vec = tuple(theta_vec)
    v_blocks = rounding_isometry(device, use_tilde=False).matrix_for_v(theta_vec, (0,) * n)
    q_dim = 2**n
    per_v = []
    alphas = {}
    for v_vec, block in device.sigma_by_v(theta_vec).items():
        bb84_ket = qcore.BB84Product(v_vec, theta_vec).to_state().amplitudes
        bb84 = np.outer(bb84_ket, bb84_ket.conj())
        distance = 0.0
        alpha = []
        for prob, v_mat in zip(device.anc_probs, v_blocks):
            rho = prob * (v_mat @ block @ v_mat.conj().T)
            alpha.append(_partial_trace_last(rho, rho.shape[0] // q_dim, q_dim))
            distance += 0.5 * qcore.trace_norm(rho - qcore.kron(alpha[-1], bb84))
        weight = float(np.trace(block).real)
        per_v.append({"v": list(v_vec), "trace_distance": distance, "weight": weight})
        if weight > 1e-14:
            alphas[v_vec] = [part / weight for part in alpha]
    spread = max(
        (
            0.5 * sum(qcore.trace_norm(x - y) for x, y in zip(xs, ys))
            for xs, ys in itertools.combinations(alphas.values(), 2)
        ),
        default=0.0,
    )
    return {
        "theta": list(theta_vec),
        "per_v": per_v,
        "max_distance": max((row["trace_distance"] for row in per_v), default=0.0),
        "alpha_spread": spread,
    }


def validate_device(device: Device) -> dict:
    """Structural checks: normalization, projectivity, Kraus completeness.

    The post-commitment state is a product over copies, so its trace for a
    basis vector theta is the product of per-copy image weights, and the
    equation measurement is complete when each copy's Kraus family is.
    """
    n = device.n
    report = {}
    copy_mass = [[sum(w for _, w, _ in device.copy_y_list(mode, i)) for mode in (0, 1)] for i in range(n)]
    report["state_normalization_gap"] = max(
        abs(float(np.prod([mass[theta] for mass, theta in zip(copy_mass, theta_vec)]) * device.anc_probs.sum()) - 1.0)
        for theta_vec in itertools.product((0, 1), repeat=n)
    )

    worst_proj = 0.0
    for q in (0, 1):
        projectors = [device.question_projector(q, v_vec) for v_vec in itertools.product((0, 1), repeat=n)]
        for p in projectors:
            worst_proj = max(worst_proj, (p @ p - p).max_abs())
        total = sum(projectors[1:], projectors[0])
        worst_proj = max(worst_proj, (total - device.identity()).max_abs())
    report["question_projectivity_gap"] = worst_proj

    # Kraus completeness of the compressed equation measurement, per copy
    worst_kraus = 0.0
    for mode in (0, 1):
        for i in range(n):
            for y, _, _ in device.copy_y_list(mode, i):
                acc = np.zeros((2, 2), dtype=complex)
                for d in range(2**device.width):
                    k = device.copy_kraus(mode, i, y, d)
                    acc += k.conj().T @ k
                worst_kraus = max(worst_kraus, float(np.max(np.abs(acc - np.eye(2)))))
    report["equation_kraus_gap"] = worst_kraus

    # the preimage measurement projects on the committed computational basis,
    # one family for every image tuple
    eye = np.eye(device.committed_dim)
    total = sum(np.outer(row, row) for row in eye)
    report["preimage_projectivity_gap"] = float(np.max(np.abs(total - eye)))
    return report
