"""Explicit device matrices and numerical checks of the rigidity relations.

A device captures one round of an arbitrary prover's behavior: a family of
post-commitment states indexed by a per-copy basis vector and the returned
image points, plus three measurement families (preimage answers, equation
answers, question answers).  Here devices are built from the honest prover
in a compressed representation and optionally perturbed, and a battery of
diagnostics evaluates the success probabilities, binary-observable
relations, Pauli-group behavior, rounding isometries, and the BB84 product
form on explicit (small) matrices.

Representation.  Everything is block-diagonal in the classical image and
equation outcomes (y_vec, d_vec).  Per copy the committed space is
compressed to dimension 2, spanned by the two preimage branches of the
returned image; the equation measurement, projective on the full space,
becomes a Kraus family {K} with sum K^dag K = 1 in this compression.  A
perturbed device additionally carries a classical ancilla register whose
state holds the mixing weights: index 0 answers honestly, index j >= 1
forces the fixed answer j-1 regardless of the quantum state.  Question
measurements remain projective on the enlarged space, and every perturbed
quantity is an exact expectation (no sampling noise).

Block keys are pairs (y_vec, d_vec) of integer tuples.  The device space
is committed (2^n) x ancilla (A); operators on it are dense numpy arrays.

Class form.  A post-equation block depends on (y_vec, d_vec) only through
the string v_vec the verifier decodes from it: an injective copy holds
|b_hat(y)>, a claw-free copy holds H|u(d)> with u(d) = d . delta, and the
ancilla factor is the same for every block.  So sigma^(theta) is exactly
2^n class blocks sigma^(theta, v) = W(v) (x)_i rho_i(v_i) (x) anc, where
rho_i(v_i) is the BB84 projector H^theta_i |v_i><v_i| H^theta_i and the
class weight W(v) is a product of per-copy weights.  Every sign the
diagnostics use (the Xtilde sign, the sign-corrected isometry, the
anticommutation sign) is a function of v alone, so they all evaluate on
`Device.sigma_by_v`, cached per theta.  The per-(y, d) blocks of
`Device.sigma_blocks` are expanded from the same per-copy terms and stay
the reference form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import entcf, qcore, rules

MAX_DIAG_COPIES = 3
MAX_DIAG_WIDTH = 2

_H = qcore.hadamard().entries


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _dot(u: Sequence[int], a: Sequence[int]) -> int:
    return sum(x & y for x, y in zip(u, a)) % 2


def _kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _bb84_ket(theta_vec: Sequence[int], v_vec: Sequence[int]) -> np.ndarray:
    """(x)_i H^theta_i |v_i> as a vector."""
    eye = np.eye(2, dtype=complex)
    return _kron_all([(_H if theta else eye)[:, v] for theta, v in zip(theta_vec, v_vec)])


def _expect(op: np.ndarray, rho: np.ndarray) -> float:
    """Re Tr[op rho]."""
    return float(np.einsum("ij,ji->", op, rho).real)


@dataclass(frozen=True)
class ObservableSpec:
    kind: str  # "Z", "X", or "Xtilde"
    a: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("Z", "X", "Xtilde"):
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if any(bit not in (0, 1) for bit in self.a):
            raise ValueError("a must be a bit vector")


@dataclass
class SigmaState:
    """(y_vec, d_vec)-indexed subnormalized blocks of a post-equation state."""

    theta: tuple[int, ...]
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray]

    def total_trace(self) -> float:
        return float(sum(np.trace(m).real for m in self.blocks.values()))


class Device:
    """Compressed-representation device with one key tuple per mode."""

    def __init__(self, n: int, width: int, keypairs_by_mode, anc_probs=None, anc_answers=(), epsilon=0.0):
        self.n = n
        self.width = width
        self.keypairs = {mode: tuple(kps) for mode, kps in keypairs_by_mode.items()}
        self.anc_probs = np.array([1.0] if anc_probs is None else anc_probs, dtype=float)
        self.anc_answers = tuple(anc_answers)  # fixed answer (int over n bits) per ancilla index >= 1
        self.epsilon = float(epsilon)
        if len(self.anc_answers) != len(self.anc_probs) - 1:
            raise ValueError("need one fixed answer per non-honest ancilla index")
        if abs(self.anc_probs.sum() - 1.0) > 1e-12:
            raise ValueError("ancilla probabilities must sum to 1")
        self._sigma_by_v: dict[tuple[int, ...], dict[tuple[int, ...], np.ndarray]] = {}

    # -- dimensions -----------------------------------------------------

    @property
    def committed_dim(self) -> int:
        return 2**self.n

    @property
    def anc_dim(self) -> int:
        return len(self.anc_probs)

    @property
    def block_dim(self) -> int:
        return self.committed_dim * self.anc_dim

    # -- per-copy structure ----------------------------------------------

    def _pair(self, mode: int, copy: int) -> entcf.EntcfKeyPair:
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

    # -- state families ---------------------------------------------------

    def _anc_matrix(self) -> np.ndarray:
        return np.diag(self.anc_probs).astype(complex)

    def psi_blocks(self, theta_vec: Sequence[int]):
        """Post-commitment state: dict y_vec -> subnormalized block matrix."""
        theta_vec = tuple(theta_vec)
        units = self._class_units(theta_vec)
        per_copy = [self.copy_y_list(theta, i) for i, theta in enumerate(theta_vec)]
        blocks = {}
        for combo in itertools.product(*per_copy):
            weight = float(np.prod([t[1] for t in combo]))
            blocks[tuple(t[0] for t in combo)] = weight * units[tuple(t[2] for t in combo)]
        return blocks

    def _class_units(self, theta_vec: tuple[int, ...]) -> dict[tuple[int, ...], np.ndarray]:
        """v_vec -> (x)_i H^theta_i |v_i><v_i| H^theta_i (x) anc, for every v_vec; trace 1."""
        anc = self._anc_matrix()
        units = {}
        for v_vec in itertools.product((0, 1), repeat=self.n):
            ket = _bb84_ket(theta_vec, v_vec)
            units[v_vec] = np.kron(np.outer(ket, ket.conj()), anc)
        return units

    def sigma_blocks(self, theta_vec: Sequence[int]) -> SigmaState:
        """Post-equation state sigma: blocks over (y_vec, d_vec)."""
        theta_vec = tuple(theta_vec)
        units = self._class_units(theta_vec)
        per_copy = [self.copy_terms(theta, i) for i, theta in enumerate(theta_vec)]
        blocks = {}
        for combo in itertools.product(*per_copy):
            key = (tuple(t[0] for t in combo), tuple(t[1] for t in combo))
            weight = float(np.prod([t[3] for t in combo]))
            blocks[key] = weight * units[tuple(t[2] for t in combo)]
        return SigmaState(theta=theta_vec, blocks=blocks)

    def sigma_by_v(self, theta_vec: Sequence[int]) -> dict[tuple[int, ...], np.ndarray]:
        """Class form of sigma: decoded string v_vec -> sigma^(theta, v), cached per theta.

        Each class block is the sum of the `sigma_blocks` blocks decoding to
        v_vec, built from the per-copy class weights (sums over
        `copy_terms`) rather than from those blocks.  Every caller shares
        the cached blocks, so they are read-only arrays.
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
            for v_vec, unit in self._class_units(theta_vec).items():
                classes[v_vec] = float(np.prod([w[v] for w, v in zip(weights, v_vec)])) * unit
                classes[v_vec].setflags(write=False)
            self._sigma_by_v[theta_vec] = classes
        return self._sigma_by_v[theta_vec]

    def _committed_part(self, block: np.ndarray) -> np.ndarray:
        """Trace out the ancilla from a block (blocks are kron(committed, anc))."""
        d, a = self.committed_dim, self.anc_dim
        return np.einsum("ikjk->ij", block.reshape(d, a, d, a))

    def decode_block(self, theta_vec: Sequence[int], y_vec, d_vec) -> tuple[int, ...]:
        """The bit string the verifier decodes for this block."""
        trapdoors = [self._pair(theta, i).trapdoor for i, theta in enumerate(theta_vec)]
        return rules.decode_all(trapdoors, y_vec, d_vec)

    def v_parity(self, theta_vec, v_vec, a: Sequence[int]) -> int:
        """Xtilde sign bit a . v_vec of a decoded string; needs theta_i = 1 where a_i = 1."""
        if any(ai and theta != 1 for theta, ai in zip(theta_vec, a)):
            raise ValueError("Xtilde sign needs a claw-free key wherever a_i = 1")
        return _dot(v_vec, a)

    def u_vector(self, theta_vec, d_vec, a: Sequence[int]) -> int:
        """Parity a . u over claw-free copies; requires theta_i = 1 where a_i = 1."""
        return self.v_parity(theta_vec, [self.copy_u(i, d) for i, d in enumerate(d_vec)], a)

    # -- measurements ------------------------------------------------------

    def _on_anc(self, honest: np.ndarray, forced: Callable[[int], float]) -> np.ndarray:
        """honest on ancilla index 0, plus forced(answer) * 1 on each index j >= 1."""
        a = self.anc_dim
        out = np.zeros((self.block_dim, self.block_dim), dtype=complex)
        out[::a, ::a] = honest
        for j, answer in enumerate(self.anc_answers, start=1):
            out[j::a, j::a] = forced(answer) * np.eye(self.committed_dim)
        return out

    def question_projector(self, q: int, v_vec: Sequence[int]) -> np.ndarray:
        """P_q^{(v)} on the enlarged space (honest part + forced answers)."""
        v_index = qcore.bits_to_index(v_vec)
        ket = _bb84_ket((q,) * self.n, v_vec)
        return self._on_anc(np.outer(ket, ket.conj()), lambda answer: float(answer == v_index))

    def observable_matrix(self, kind: str, a: Sequence[int]) -> np.ndarray:
        """Block-independent part of Z(a) or X(a) on the enlarged space."""
        single = (qcore.pauli_z() if kind == "Z" else qcore.pauli_x()).entries
        honest = _kron_all([single if bit else np.eye(2, dtype=complex) for bit in a]) if a else np.eye(1)
        a_int = qcore.bits_to_index(a)
        return self._on_anc(honest, lambda answer: (-1.0) ** _parity(answer & a_int))


@dataclass
class BlockObservable:
    """Binary observable; Xtilde carries a per-block sign."""

    spec: ObservableSpec
    base: np.ndarray
    sign: Callable  # sign(theta_vec, y_vec, d_vec) -> +1/-1

    def matrix_for(self, theta_vec, y_vec, d_vec) -> np.ndarray:
        return self.sign(theta_vec, y_vec, d_vec) * self.base


def device_from_honest(n: int, width: int, rng: np.random.Generator) -> Device:
    """Honest device for one fixed key tuple per mode."""
    if n > MAX_DIAG_COPIES:
        raise ValueError(f"diagnostics support at most {MAX_DIAG_COPIES} copies")
    if width > MAX_DIAG_WIDTH:
        raise ValueError(f"diagnostics support widths up to {MAX_DIAG_WIDTH}")
    keypairs = {
        entcf.INJECTIVE: [entcf.gen(entcf.INJECTIVE, width, rng) for _ in range(n)],
        entcf.CLAW_FREE: [entcf.gen(entcf.CLAW_FREE, width, rng) for _ in range(n)],
    }
    return Device(n=n, width=width, keypairs_by_mode=keypairs)


def averaged_over_keys(n: int, width: int, rng: np.random.Generator, diagnostic, samples: int = 32):
    """Average a scalar diagnostic over freshly sampled key tuples.

    Diagnostics default to one fixed key tuple per mode (every honest
    quantity is exact); this helper provides the key-averaged variant.
    """
    values = [diagnostic(device_from_honest(n, width, rng)) for _ in range(samples)]
    return float(np.mean(values))


def perturb_device(device: Device, epsilon: float, rng: np.random.Generator | None = None) -> Device:
    """Mix each question answer with a uniform one with probability epsilon.

    Realized exactly: a classical ancilla carries the mixing weights, with
    one index per forced answer, so the perturbed measurements stay
    projective and every derived quantity is a deterministic expectation.
    The rng parameter is accepted for interface uniformity but unused.
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
        epsilon=epsilon,
    )


def sigma_state(device: Device, theta_vec: Sequence[int]) -> SigmaState:
    return device.sigma_blocks(theta_vec)


def sigma_for_v(device: Device, theta_vec: Sequence[int], v_vec: Sequence[int]) -> SigmaState:
    """Restriction of sigma to the blocks the verifier decodes as v_vec."""
    theta_vec, v_vec = tuple(theta_vec), tuple(v_vec)
    full = device.sigma_blocks(theta_vec)
    blocks = {
        key: m
        for key, m in full.blocks.items()
        if device.decode_block(theta_vec, key[0], key[1]) == v_vec
    }
    return SigmaState(theta=theta_vec, blocks=blocks)


def partial_sigma(device: Device, theta_vec: Sequence[int], v: int, a: Sequence[int]) -> SigmaState:
    """Sum of sigma^(theta, v_vec) over v_vec with a . v_vec = v."""
    theta_vec, a = tuple(theta_vec), tuple(a)
    full = device.sigma_blocks(theta_vec)
    blocks = {}
    for key, m in full.blocks.items():
        if _dot(device.decode_block(theta_vec, key[0], key[1]), a) == v:
            blocks[key] = m
    return SigmaState(theta=theta_vec, blocks=blocks)


def _partial(sigma: dict, a: Sequence[int], v: int) -> np.ndarray:
    """Sum of the class blocks sigma^(theta, v_vec) with a . v_vec = v."""
    zero = np.zeros_like(next(iter(sigma.values())))
    return sum((m for v_vec, m in sigma.items() if _dot(v_vec, a) == v), zero)


def _sign_split(sigma: dict, a: Sequence[int]) -> np.ndarray:
    """Sum over classes of (-1)^(a . v_vec) sigma^(theta, v_vec)."""
    return _partial(sigma, a, 0) - _partial(sigma, a, 1)


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
        # preimage round: project committed registers, check the public predicate
        psi = device.psi_blocks(theta_vec)
        pass_pre = 0.0
        for y_vec, block in psi.items():
            committed = device._committed_part(block)
            for b_vec in itertools.product((0, 1), repeat=n):
                ok = True
                for i, b in enumerate(b_vec):
                    kp = device.keypairs[theta][i]
                    x = entcf.decode_x(kp.trapdoor, y_vec[i], b)
                    if x is None or not entcf.chk(kp.key, y_vec[i], b, x):
                        ok = False
                        break
                if not ok:
                    continue
                idx = qcore.bits_to_index(b_vec)
                pass_pre += float(committed[idx, idx].real)
        gamma_p_terms.append(1.0 - pass_pre)

        # Hadamard round: the device answers with P_theta, checked against the decoding
        pass_had = sum(
            _expect(device.question_projector(theta, v_vec), block)
            for v_vec, block in device.sigma_by_v(theta_vec).items()
        )
        gamma_h_terms.append(1.0 - pass_had)

    return 0.5 * sum(gamma_p_terms), 0.5 * sum(gamma_h_terms)


def observable(device: Device, spec: ObservableSpec) -> BlockObservable:
    """Binary observable Z(a), X(a), or the sign-corrected Xtilde(a)."""
    a = tuple(spec.a)
    if len(a) != device.n:
        raise ValueError("observable index length must equal the copy count")
    base_kind = "Z" if spec.kind == "Z" else "X"
    base = device.observable_matrix(base_kind, a)
    if spec.kind == "Xtilde":

        def sign(theta_vec, y_vec, d_vec):
            return (-1.0) ** device.u_vector(theta_vec, d_vec, a)

    else:

        def sign(theta_vec, y_vec, d_vec):
            return 1.0

    return BlockObservable(spec=spec, base=base, sign=sign)


def success_relations_report(device: Device) -> dict:
    """Gaps in the three observable success relations, for every (a, v)."""
    n = device.n
    rows = {"z": [], "x": [], "xtilde": []}
    max_gap = 0.0
    sigma0 = device.sigma_by_v((0,) * n)
    sigma1 = device.sigma_by_v((1,) * n)
    eye = np.eye(device.block_dim, dtype=complex)

    for a in itertools.product((0, 1), repeat=n):
        z = device.observable_matrix("Z", a)
        x = device.observable_matrix("X", a)
        for v in (0, 1):
            for name, sigma, obs in (("z", sigma0, z), ("x", sigma1, x)):
                part = _partial(sigma, a, v)
                lhs = _expect(0.5 * (eye + (-1.0) ** v * obs), part)
                rhs = float(np.trace(part).real)
                gap = abs(lhs - rhs)
                rows[name].append({"a": list(a), "v": v, "lhs": lhs, "rhs": rhs, "gap": gap})
                max_gap = max(max_gap, gap)

        # Xtilde(a) carries the sign (-1)^(a . v) on the class decoded as v
        lhs = _expect(x, _sign_split(sigma1, a))
        gap = abs(lhs - 1.0)
        rows["xtilde"].append({"a": list(a), "lhs": lhs, "rhs": 1.0, "gap": gap})
        max_gap = max(max_gap, gap)
    return {"rows": rows, "max_gap": max_gap}


def pauli_relation_value(device: Device, a: Sequence[int], b: Sequence[int]) -> complex:
    """Tr[Z(a) Xt(b) Z(a) Xt(b) sigma^(1...1)], evaluated blockwise.

    Both Xtilde factors carry the same sign on a block, so the signs cancel
    and the value is a trace against the whole of sigma^(1...1).
    """
    z = device.observable_matrix("Z", a)
    x = device.observable_matrix("X", b)
    total = sum(device.sigma_by_v((1,) * device.n).values())
    return complex(np.trace(z @ x @ z @ x @ total))


def pauli_relation_grid(device: Device) -> dict:
    """All 4^n relation values plus the worst deviation from (-1)^(a.b)."""
    n = device.n
    entries = []
    worst = 0.0
    for a in itertools.product((0, 1), repeat=n):
        for b in itertools.product((0, 1), repeat=n):
            value = pauli_relation_value(device, a, b)
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
    return _expect(z @ x @ z, _sign_split(device.sigma_by_v(e_i), e_i))


def state_dep_distance(a, b, psi) -> float:
    """Tr[(A - B)^dag (A - B) psi] for matrices A, B and a state psi."""
    a = a.entries if isinstance(a, qcore.LinearOperator) else np.asarray(a, dtype=complex)
    b = b.entries if isinstance(b, qcore.LinearOperator) else np.asarray(b, dtype=complex)
    if isinstance(psi, qcore.DensityMatrix):
        psi = psi.entries
    psi = np.asarray(psi, dtype=complex)
    if a.shape != b.shape or a.shape[0] != psi.shape[0]:
        raise ValueError("dimension mismatch")
    diff = a - b
    return float(np.trace(diff.conj().T @ diff @ psi).real)


# -- rounding isometries ---------------------------------------------------


def _epr_vector(n: int) -> np.ndarray:
    return np.eye(2**n, dtype=complex).reshape(-1) / np.sqrt(2**n)


@dataclass
class BlockIsometry:
    """Blockwise isometry from the device space into device x A x Q."""

    device: Device
    use_tilde: bool
    base_terms: list  # [(pauli_vec_column, X(a)Z(b) matrix, a)] precomputed

    def matrix_for(self, theta_vec, y_vec, d_vec) -> np.ndarray:
        return self._matrix(lambda a: self.device.u_vector(theta_vec, d_vec, a))

    def matrix_for_v(self, theta_vec, v_vec) -> np.ndarray:
        """The matrix shared by every block decoded as v_vec (any v_vec without use_tilde)."""
        return self._matrix(lambda a: self.device.v_parity(theta_vec, v_vec, a))

    def _matrix(self, parity: Callable) -> np.ndarray:
        total = sum(
            ((-1.0) ** parity(a) if self.use_tilde else 1.0) * np.kron(op, w_col)
            for w_col, op, a in self.base_terms
        )
        return total / 2**self.device.n


def rounding_isometry(device: Device, use_tilde: bool) -> BlockIsometry:
    """The explicit Pauli-twirl isometry over all 4^n observable pairs.

    Normalization 2^-n * sum (not the plain average) makes V^dag V = 1.
    """
    n = device.n
    if n > 2:
        raise ValueError("rounding isometries are limited to 2 copies")
    epr = _epr_vector(n)
    terms = []
    for a in itertools.product((0, 1), repeat=n):
        x = device.observable_matrix("X", a)
        for b in itertools.product((0, 1), repeat=n):
            z = device.observable_matrix("Z", b)
            pauli = qcore.pauli_string(a, b).entries
            w = (np.kron(pauli, np.eye(2**n, dtype=complex)) @ epr).reshape(-1, 1)
            terms.append((w, x @ z, a))
    return BlockIsometry(device=device, use_tilde=use_tilde, base_terms=terms)


def isometry_relation_gap(device: Device) -> float:
    """Max operator-norm gap of V = sigma_Z(u)_A sigma_Z(u)_Q Vtilde per block.

    A block's Vtilde and correction depend on it only through its decoded
    string u, and V on nothing, so the maximum runs over the 2^n classes.
    """
    n = device.n
    theta1 = (1,) * n
    zeros = (0,) * n
    v_mat = rounding_isometry(device, use_tilde=False).matrix_for_v(theta1, zeros)
    vt_iso = rounding_isometry(device, use_tilde=True)
    eye = np.eye(device.block_dim, dtype=complex)
    worst = 0.0
    for u_vec in device.sigma_by_v(theta1):
        sz_u = qcore.pauli_string(zeros, u_vec).entries
        corr = np.kron(eye, np.kron(sz_u, sz_u))
        gap = float(np.linalg.norm(v_mat - corr @ vt_iso.matrix_for_v(theta1, u_vec), ord=2))
        worst = max(worst, gap)
    return worst


def _partial_trace_last(matrix: np.ndarray, rest_dim: int, traced_dim: int) -> np.ndarray:
    t = matrix.reshape(rest_dim, traced_dim, rest_dim, traced_dim)
    return np.einsum("ikjk->ij", t)


def bb84_report(device: Device, theta_vec: Sequence[int]) -> dict:
    """Distance of the rounded state from the BB84 x side-state product form.

    For each decoded string v the report compares V sigma^(theta, v) V^dag
    against (BB84 states on Q) tensor alpha with alpha the Q-marginal.  The
    blocks decoded as v are all proportional to the class block, so the
    blockwise sum of trace distances equals the class block's distance.  The
    spread entry compares the ancillary alpha states across different v
    after summing out the classical block index (keeping it would make the
    comparison trivially maximal: different v live on disjoint classical
    outcomes).
    """
    n = device.n
    theta_vec = tuple(theta_vec)
    v_mat = rounding_isometry(device, use_tilde=False).matrix_for_v(theta_vec, (0,) * n)
    q_dim = 2**n
    per_v = []
    alphas = {}
    for v_vec, block in device.sigma_by_v(theta_vec).items():
        bb84_ket = _bb84_ket(theta_vec, v_vec)
        rho = v_mat @ block @ v_mat.conj().T
        alpha = _partial_trace_last(rho, rho.shape[0] // q_dim, q_dim)
        target = np.kron(alpha, np.outer(bb84_ket, bb84_ket.conj()))
        distance = 0.5 * qcore.trace_norm(rho - target)
        weight = float(np.trace(block).real)
        per_v.append({"v": list(v_vec), "trace_distance": distance, "weight": weight})
        if weight > 1e-14:
            alphas[v_vec] = alpha / weight
    spread = max(
        (0.5 * qcore.trace_norm(x - y) for x, y in itertools.combinations(alphas.values(), 2)), default=0.0
    )
    return {
        "theta": list(theta_vec),
        "per_v": per_v,
        "max_distance": max((row["trace_distance"] for row in per_v), default=0.0),
        "alpha_spread": spread,
    }


def validate_device(device: Device) -> dict:
    """Structural checks: normalization, projectivity, Kraus completeness."""
    n = device.n
    report = {}
    worst_norm = 0.0
    for theta_vec in itertools.product((0, 1), repeat=n):
        total = sum(np.trace(b).real for b in device.psi_blocks(theta_vec).values())
        worst_norm = max(worst_norm, abs(total - 1.0))
    report["state_normalization_gap"] = float(worst_norm)

    worst_proj = 0.0
    eye = np.eye(device.block_dim, dtype=complex)
    for q in (0, 1):
        total = np.zeros_like(eye)
        for v_vec in itertools.product((0, 1), repeat=n):
            p = device.question_projector(q, v_vec)
            worst_proj = max(worst_proj, float(np.max(np.abs(p @ p - p))))
            total += p
        worst_proj = max(worst_proj, float(np.max(np.abs(total - eye))))
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

    # preimage measurement is an explicit projector family per block
    worst_pre = 0.0
    for mode in (0, 1):
        theta_vec = (mode,) * n
        for y_vec in device.psi_blocks(theta_vec):
            total = np.zeros((device.committed_dim, device.committed_dim), dtype=complex)
            for b_vec in itertools.product((0, 1), repeat=n):
                idx = qcore.bits_to_index(b_vec)
                proj = np.zeros_like(total)
                proj[idx, idx] = 1.0
                total += proj
            worst_pre = max(worst_pre, float(np.max(np.abs(total - np.eye(device.committed_dim)))))
    report["preimage_projectivity_gap"] = worst_pre
    return report


def accept_reject_consistency(device: Device) -> dict:
    """The same Hadamard-round pass probability along two code paths.

    Path one evaluates the protocol check directly on the device's
    measurement outcomes; path two reassembles it from partial states and
    observable projectors.
    """
    n = device.n
    eye = np.eye(device.block_dim, dtype=complex)
    out = {}
    for theta in (0, 1):
        sigma = device.sigma_by_v((theta,) * n)
        singles = [
            device.observable_matrix("Z" if theta == 0 else "X", tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)
        ]
        direct = 0.0
        via_observables = 0.0
        for v_vec, block in sigma.items():
            direct += _expect(device.question_projector(theta, v_vec), block)
            proj = eye
            for v, obs in zip(v_vec, singles):
                proj = proj @ (0.5 * (eye + (-1.0) ** v * obs))
            via_observables += _expect(proj, block)
        out[theta] = {"direct": direct, "via_observables": via_observables,
                      "gap": abs(direct - via_observables)}
    return out
