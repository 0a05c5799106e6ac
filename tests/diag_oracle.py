"""Reference construction of diagnostics devices on the enlarged space.

`parrsp.diagnostics` evaluates every report on class blocks, one per decoded
string, and keeps the perturbation ancilla as a weight list.  This module
builds the same device the direct way: post-commitment and post-equation
blocks indexed by the image and equation outcomes (y_vec, d_vec), each a
dense matrix on committed (2^n) x ancilla space, with the ancilla weights
as a diagonal tensor factor, and every observable, projector and isometry
as a dense matrix on that space.  Tests compare the class form against it.
The last section keeps two pointwise references on the class form itself:
one Pauli-relation value, against which `pauli_relation_grid` is checked,
and the Hadamard-round pass probability along two code paths.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from parrsp import entcf, qcore, rules


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _dot(u: Sequence[int], a: Sequence[int]) -> int:
    return sum(x & y for x, y in zip(u, a)) % 2


def _kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _bb84_ket(theta_vec, v_vec) -> np.ndarray:
    h = qcore.hadamard().entries
    eye = np.eye(2, dtype=complex)
    return _kron_all([(h if theta else eye)[:, v] for theta, v in zip(theta_vec, v_vec)])


def _expect(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", op, rho).real)


# -- the enlarged space --------------------------------------------------------


def block_dim(device) -> int:
    return device.committed_dim * device.anc_dim


def anc_matrix(device) -> np.ndarray:
    return np.diag(device.anc_probs).astype(complex)


def enlarge(device, honest: np.ndarray, forced: Sequence[float]) -> np.ndarray:
    """honest on ancilla index 0, plus forced[j - 1] * 1 on each index j >= 1."""
    a = device.anc_dim
    out = np.zeros((block_dim(device), block_dim(device)), dtype=complex)
    out[::a, ::a] = honest
    for j, value in enumerate(forced, start=1):
        out[j::a, j::a] = value * np.eye(device.committed_dim)
    return out


def dense(device, op) -> np.ndarray:
    """A `diagnostics.BlockObservable` as a matrix on the enlarged space."""
    return enlarge(device, op.honest, op.forced)


def question_projector(device, q: int, v_vec) -> np.ndarray:
    """P_q^{(v)} on the enlarged space (honest part + forced answers)."""
    v_index = qcore.bits_to_index(v_vec)
    ket = _bb84_ket((q,) * device.n, v_vec)
    return enlarge(device, np.outer(ket, ket.conj()), [float(ans == v_index) for ans in device.anc_answers])


def observable_matrix(device, kind: str, a) -> np.ndarray:
    """Z(a) or X(a) on the enlarged space."""
    single = (qcore.pauli_z() if kind == "Z" else qcore.pauli_x()).entries
    honest = _kron_all([single if bit else np.eye(2, dtype=complex) for bit in a])
    a_int = qcore.bits_to_index(a)
    return enlarge(device, honest, [(-1.0) ** _parity(ans & a_int) for ans in device.anc_answers])


# -- per-(y, d) state blocks ---------------------------------------------------


def _class_units(device, theta_vec) -> dict:
    """v_vec -> (x)_i H^theta_i |v_i><v_i| H^theta_i (x) anc, for every v_vec; trace 1."""
    anc = anc_matrix(device)
    units = {}
    for v_vec in itertools.product((0, 1), repeat=device.n):
        ket = _bb84_ket(theta_vec, v_vec)
        units[v_vec] = np.kron(np.outer(ket, ket.conj()), anc)
    return units


def psi_blocks(device, theta_vec) -> dict:
    """Post-commitment state: dict y_vec -> subnormalized block matrix."""
    theta_vec = tuple(theta_vec)
    units = _class_units(device, theta_vec)
    per_copy = [device.copy_y_list(theta, i) for i, theta in enumerate(theta_vec)]
    blocks = {}
    for combo in itertools.product(*per_copy):
        weight = float(np.prod([t[1] for t in combo]))
        blocks[tuple(t[0] for t in combo)] = weight * units[tuple(t[2] for t in combo)]
    return blocks


def committed_part(device, block: np.ndarray) -> np.ndarray:
    """Trace out the ancilla from a block (blocks are kron(committed, anc))."""
    d, a = device.committed_dim, device.anc_dim
    return np.einsum("ikjk->ij", block.reshape(d, a, d, a))


@dataclass
class SigmaState:
    """(y_vec, d_vec)-indexed subnormalized blocks of a post-equation state."""

    theta: tuple
    blocks: dict

    def total_trace(self) -> float:
        return float(sum(np.trace(m).real for m in self.blocks.values()))


def sigma_state(device, theta_vec) -> SigmaState:
    """Post-equation state sigma: blocks over (y_vec, d_vec)."""
    theta_vec = tuple(theta_vec)
    units = _class_units(device, theta_vec)
    per_copy = [device.copy_terms(theta, i) for i, theta in enumerate(theta_vec)]
    blocks = {}
    for combo in itertools.product(*per_copy):
        key = (tuple(t[0] for t in combo), tuple(t[1] for t in combo))
        weight = float(np.prod([t[3] for t in combo]))
        blocks[key] = weight * units[tuple(t[2] for t in combo)]
    return SigmaState(theta=theta_vec, blocks=blocks)


def decode_block(device, theta_vec, y_vec, d_vec) -> tuple:
    """The bit string the verifier decodes for this block."""
    trapdoors = [device.keypairs[theta][i].trapdoor for i, theta in enumerate(theta_vec)]
    return rules.decode_all(trapdoors, y_vec, d_vec)


def sigma_for_v(device, theta_vec, v_vec) -> SigmaState:
    """Restriction of sigma to the blocks the verifier decodes as v_vec."""
    theta_vec, v_vec = tuple(theta_vec), tuple(v_vec)
    full = sigma_state(device, theta_vec)
    blocks = {key: m for key, m in full.blocks.items() if decode_block(device, theta_vec, *key) == v_vec}
    return SigmaState(theta=theta_vec, blocks=blocks)


def partial_sigma(device, theta_vec, v: int, a) -> SigmaState:
    """Sum of sigma^(theta, v_vec) over v_vec with a . v_vec = v."""
    theta_vec, a = tuple(theta_vec), tuple(a)
    full = sigma_state(device, theta_vec)
    blocks = {key: m for key, m in full.blocks.items() if _dot(decode_block(device, theta_vec, *key), a) == v}
    return SigmaState(theta=theta_vec, blocks=blocks)


def u_vector(device, theta_vec, d_vec, a) -> int:
    """Parity a . u over claw-free copies; requires theta_i = 1 where a_i = 1."""
    return device.v_parity(theta_vec, [device.copy_u(i, d) for i, d in enumerate(d_vec)], a)


# -- per-(y, d) observables and isometries -------------------------------------


@dataclass(frozen=True)
class ObservableSpec:
    kind: str  # "Z", "X", or "Xtilde"
    a: tuple

    def __post_init__(self):
        if self.kind not in ("Z", "X", "Xtilde"):
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if any(bit not in (0, 1) for bit in self.a):
            raise ValueError("a must be a bit vector")


@dataclass
class DenseObservable:
    """Binary observable; Xtilde carries a per-block sign."""

    spec: ObservableSpec
    base: np.ndarray
    sign: Callable  # sign(theta_vec, y_vec, d_vec) -> +1/-1

    def matrix_for(self, theta_vec, y_vec, d_vec) -> np.ndarray:
        return self.sign(theta_vec, y_vec, d_vec) * self.base


def observable(device, spec: ObservableSpec) -> DenseObservable:
    """Binary observable Z(a), X(a), or the sign-corrected Xtilde(a)."""
    a = tuple(spec.a)
    if len(a) != device.n:
        raise ValueError("observable index length must equal the copy count")
    base = observable_matrix(device, "Z" if spec.kind == "Z" else "X", a)
    if spec.kind == "Xtilde":
        return DenseObservable(spec, base, lambda theta_vec, y_vec, d_vec: (-1.0) ** u_vector(device, theta_vec, d_vec, a))
    return DenseObservable(spec, base, lambda theta_vec, y_vec, d_vec: 1.0)


@dataclass
class DenseIsometry:
    """Blockwise isometry from the enlarged space into enlarged x A x Q."""

    device: object
    use_tilde: bool
    base_terms: list  # [(pauli_vec_column, X(a)Z(b) matrix, a)]

    def matrix_for(self, theta_vec, y_vec, d_vec) -> np.ndarray:
        total = sum(
            ((-1.0) ** u_vector(self.device, theta_vec, d_vec, a) if self.use_tilde else 1.0) * np.kron(op, w_col)
            for w_col, op, a in self.base_terms
        )
        return total / 2**self.device.n


def rounding_isometry(device, use_tilde: bool) -> DenseIsometry:
    """The Pauli-twirl isometry over all 4^n observable pairs, 2^-n * sum."""
    n = device.n
    epr = np.eye(2**n, dtype=complex).reshape(-1) / np.sqrt(2**n)
    terms = []
    for a in itertools.product((0, 1), repeat=n):
        x = observable_matrix(device, "X", a)
        for b in itertools.product((0, 1), repeat=n):
            z = observable_matrix(device, "Z", b)
            pauli = qcore.pauli_string(a, b).entries
            w = (np.kron(pauli, np.eye(2**n, dtype=complex)) @ epr).reshape(-1, 1)
            terms.append((w, x @ z, a))
    return DenseIsometry(device=device, use_tilde=use_tilde, base_terms=terms)


# -- reports, one (y, d) block at a time ---------------------------------------


def gammas(device) -> tuple:
    """Preimage- and Hadamard-round failure probabilities over every block."""
    n = device.n
    gamma_p = gamma_h = 0.0
    for theta in (0, 1):
        theta_vec = (theta,) * n
        pass_pre = 0.0
        for y_vec, block in psi_blocks(device, theta_vec).items():
            committed = committed_part(device, block)
            for b_vec in itertools.product((0, 1), repeat=n):
                ok = True
                for i, b in enumerate(b_vec):
                    kp = device.keypairs[theta][i]
                    x = entcf.decode_x(kp.trapdoor, y_vec[i], b)
                    if x is None or not entcf.chk(kp.key, y_vec[i], b, x):
                        ok = False
                        break
                if ok:
                    idx = qcore.bits_to_index(b_vec)
                    pass_pre += float(committed[idx, idx].real)
        pass_had = sum(
            _expect(question_projector(device, theta, decode_block(device, theta_vec, y_vec, d_vec)), block)
            for (y_vec, d_vec), block in sigma_state(device, theta_vec).blocks.items()
        )
        gamma_p += 0.5 * (1.0 - pass_pre)
        gamma_h += 0.5 * (1.0 - pass_had)
    return gamma_p, gamma_h


def validate_device(device) -> dict:
    """Structural checks over every theta and image tuple."""
    n = device.n
    report = {}
    worst_norm = 0.0
    for theta_vec in itertools.product((0, 1), repeat=n):
        total = sum(np.trace(b).real for b in psi_blocks(device, theta_vec).values())
        worst_norm = max(worst_norm, abs(total - 1.0))
    report["state_normalization_gap"] = float(worst_norm)

    worst_proj = 0.0
    eye = np.eye(block_dim(device), dtype=complex)
    for q in (0, 1):
        total = np.zeros_like(eye)
        for v_vec in itertools.product((0, 1), repeat=n):
            p = question_projector(device, q, v_vec)
            worst_proj = max(worst_proj, float(np.max(np.abs(p @ p - p))))
            total += p
        worst_proj = max(worst_proj, float(np.max(np.abs(total - eye))))
    report["question_projectivity_gap"] = worst_proj

    worst_kraus = 0.0
    for mode in (0, 1):
        for i in range(n):
            for y, _, _ in device.copy_y_list(mode, i):
                acc = sum(k.conj().T @ k for k in (device.copy_kraus(mode, i, y, d) for d in range(2**device.width)))
                worst_kraus = max(worst_kraus, float(np.max(np.abs(acc - np.eye(2)))))
    report["equation_kraus_gap"] = worst_kraus

    worst_pre = 0.0
    for mode in (0, 1):
        for _ in psi_blocks(device, (mode,) * n):
            total = np.zeros((device.committed_dim, device.committed_dim), dtype=complex)
            for b_vec in itertools.product((0, 1), repeat=n):
                idx = qcore.bits_to_index(b_vec)
                total[idx, idx] += 1.0
            worst_pre = max(worst_pre, float(np.max(np.abs(total - np.eye(device.committed_dim)))))
    report["preimage_projectivity_gap"] = worst_pre
    return report


# -- pointwise references on the class form -------------------------------------


def pauli_relation_value(device, a: Sequence[int], b: Sequence[int]) -> complex:
    """Tr[Z(a) Xt(b) Z(a) Xt(b) sigma^(1...1)], evaluated blockwise.

    Both Xtilde factors carry the same sign on a block, so the signs cancel
    and the value is a trace against the whole of sigma^(1...1).
    """
    z = device.observable_matrix("Z", a)
    x = device.observable_matrix("X", b)
    total = sum(device.sigma_by_v((1,) * device.n).values())
    return device.trace(z @ x @ z @ x, total)


def accept_reject_consistency(device) -> dict:
    """The same Hadamard-round pass probability along two code paths.

    Path one evaluates the protocol check directly on the device's
    measurement outcomes; path two reassembles it from partial states and
    observable projectors.
    """
    n = device.n
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
            direct += device.trace(device.question_projector(theta, v_vec), block).real
            proj = device.identity()
            for v, obs in zip(v_vec, singles):
                proj = proj @ obs.projector(v)
            via_observables += device.trace(proj, block).real
        out[theta] = {"direct": direct, "via_observables": via_observables,
                      "gap": abs(direct - via_observables)}
    return out
