"""Reference cloning harness: dense splitting channels and per-key decoder POVMs.

Each attack maps a ciphertext's density matrix to a dense 4^lam-square
rho_BC, and each key has decoder POVMs on B and C, so the success of one
(key, message) instance is the closed trace Tr[(E_b^m (x) E_c^m) rho_BC].
`unclonable` scores the same attacks qubit by qubit; this module keeps the
dense route as the reference.  The Monte Carlo loop draws from the rng
exactly as `unclonable.cloning_experiment` does, so seeded runs of the two
can be compared trial by trial.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from parrsp import qcore
from parrsp import unclonable as uc

# largest lambda whose dense 2^(2 lambda)-square split output an attack can
# hold: lambda = 6 runs in 0.9 GB, lambda = 7 would need 4.3 GB for it alone
MAX_ATTACK_BITS = 6


def cc_enc(key: uc.ConjKey, m: Sequence[int]) -> qcore.StateVector:
    """Dense form of :func:`unclonable.cc_enc_product`."""
    return uc.cc_enc_product(key, m).to_state()


def cc_average_ciphertext(lam: int, m: Sequence[int]) -> qcore.DensityMatrix:
    """Exact key-averaged ciphertext (enumerates all 4^lam keys)."""
    m = uc._check_message(m, lam)
    dim = 2**lam
    acc = np.zeros((dim, dim), dtype=complex)
    for r_int in range(dim):
        for t_int in range(dim):
            key = uc.ConjKey(qcore.index_to_bits(r_int, lam), qcore.index_to_bits(t_int, lam))
            psi = cc_enc(key, m).amplitudes
            acc += np.outer(psi, psi.conj())
    return qcore.DensityMatrix(acc / 4**lam, weight=1.0)


class CloningAttack:
    """Splitting channel plus per-key decoder POVMs for both halves."""

    def __init__(self, lam: int):
        # checked before any subclass allocates its 2^lam-sized matrices
        if not 1 <= lam <= MAX_ATTACK_BITS:
            raise ValueError(f"cloning attacks need 1 <= lambda <= {MAX_ATTACK_BITS}, got {lam}")
        self.lam = lam

    def split(self, ciphertext: qcore.DensityMatrix) -> qcore.DensityMatrix:
        raise NotImplementedError

    def decoder_povm_b(self, key: uc.ConjKey) -> dict[tuple[int, ...], np.ndarray]:
        raise NotImplementedError

    def decoder_povm_c(self, key: uc.ConjKey) -> dict[tuple[int, ...], np.ndarray]:
        raise NotImplementedError

    def scorer(self, key: uc.ConjKey):
        """Success rule of one key: (m, rho_BC) -> Tr[(E_b^m (x) E_c^m) rho_BC].

        The key's POVMs are built once; the trace contracts the reshaped rho_BC without the tensor product.
        """
        povm_b, povm_c = self.decoder_povm_b(key), self.decoder_povm_c(key)

        def success(m, rho_bc):
            e_b, e_c = povm_b[m], povm_c[m]
            rho = rho_bc.entries.reshape(len(e_b), len(e_c), len(e_b), len(e_c))
            return float(np.einsum("ij,kl,jlik->", e_b, e_c, rho).real)

        return success


def _basis_proj(bits: Sequence[int]) -> np.ndarray:
    dim = 2 ** len(bits)
    idx = qcore.bits_to_index(bits)
    out = np.zeros((dim, dim), dtype=complex)
    out[idx, idx] = 1.0
    return out


def all_bitstrings(lam: int):
    for v in range(2**lam):
        yield qcore.index_to_bits(v, lam)


class ForwardAttack(CloningAttack):
    """Hands the ciphertext to the first decoder; the second guesses blind."""

    def split(self, ciphertext: qcore.DensityMatrix) -> qcore.DensityMatrix:
        blank = qcore.StateVector.basis_state([0] * self.lam).to_density()
        return qcore.tensor_product(ciphertext, blank)

    def decoder_povm_b(self, key: uc.ConjKey):
        povm = {}
        for m in all_bitstrings(self.lam):
            psi = cc_enc(key, m).amplitudes
            povm[m] = np.outer(psi, psi.conj())
        return povm

    def decoder_povm_c(self, key: uc.ConjKey):
        dim = 2**self.lam
        return {m: np.eye(dim, dtype=complex) / dim for m in all_bitstrings(self.lam)}


class BreidbartAttack(CloningAttack):
    """Measures every qubit in the intermediate (pi/8-rotated) basis and
    broadcasts the classical outcome to both decoders."""

    def __init__(self, lam: int):
        super().__init__(lam)
        # row w is <beta_w|, the intermediate-basis bra of outcome w (real)
        self._bras = qcore.kron(*[uc.BREIDBART_BASIS] * lam)
        dim = 2**lam
        self._markers = np.arange(dim) * (dim + 1)  # index of |w>|w> on BC

    def split(self, ciphertext: qcore.DensityMatrix) -> qcore.DensityMatrix:
        # p(w) = <beta_w| rho |beta_w>: the diagonal of rho in the rotated basis
        p = np.real(((self._bras @ ciphertext.entries) * self._bras).sum(axis=1))
        dim = 2**self.lam
        p = np.where(p > 1e-16, p, 0.0)
        # a nonnegative real diagonal is Hermitian and PSD: only the trace is left to check
        if abs(p.sum() - ciphertext.weight) > qcore.NORM_ATOL * dim * dim:
            raise ValueError(f"split trace {p.sum()} does not match the input weight {ciphertext.weight}")
        out = np.zeros((dim * dim, dim * dim), dtype=complex)
        out[self._markers, self._markers] = p
        return qcore.DensityMatrix._unchecked(out, weight=ciphertext.weight)

    def _relabel_povm(self, key: uc.ConjKey):
        return {m: _basis_proj([mi ^ ri for mi, ri in zip(m, key.r)]) for m in all_bitstrings(self.lam)}

    def decoder_povm_b(self, key: uc.ConjKey):
        return self._relabel_povm(key)

    def decoder_povm_c(self, key: uc.ConjKey):
        return self._relabel_povm(key)

    def scorer(self, key: uc.ConjKey):
        """Both decoders project on |m XOR r>: the success is rho_BC's diagonal entry there, for any rho_BC."""

        def success(m, rho_bc):
            marker = self._markers[qcore.bits_to_index([mi ^ ri for mi, ri in zip(m, key.r)])]
            return float(rho_bc.entries[marker, marker].real)

        return success


def breidbart_attack(lam: int) -> CloningAttack:
    return BreidbartAttack(lam)


def forward_attack(lam: int) -> CloningAttack:
    return ForwardAttack(lam)


def dense_twin(attack: uc.CloningAttack) -> CloningAttack:
    """The dense form of an attack that `unclonable` scores qubit by qubit."""
    return (BreidbartAttack if isinstance(attack, uc.BreidbartAttack) else ForwardAttack)(attack.lam)


def instance_success(attack: CloningAttack, register: qcore.BB84Product, key: uc.ConjKey, m) -> float:
    """Exact success of one instance whose receiver holds `register` (honest or not)."""
    return attack.scorer(key)(tuple(m), attack.split(register.to_density()))


def attack_success_given(attack: CloningAttack, key: uc.ConjKey, m: tuple[int, ...]) -> float:
    """Exact success probability of one honest (key, message) instance."""
    return instance_success(attack, uc.cc_enc_product(key, m), key, m)


def exact_success(attack: CloningAttack, lam: int) -> float:
    """Average over all 4^lam keys and 2^lam messages (lam <= 4).

    It walks theta, then r, then m: the ciphertext depends on (r, m) only
    through m XOR r, so each theta's 2^lam distinct ciphertexts are split
    once and held while its keys are scored, and each key's scorer is
    built once.
    """
    if lam > 4:
        raise ValueError("exhaustive cloning experiment capped at lam = 4")
    strings = list(all_bitstrings(lam))
    total = 0.0
    for theta in strings:
        splits = [attack.split(qcore.BB84Product(x, theta).to_density()) for x in strings]
        for r_index, r in enumerate(strings):
            score = attack.scorer(uc.ConjKey(r, theta))
            for m_index, m in enumerate(strings):
                total += score(m, splits[m_index ^ r_index])
    return total / len(strings) ** 3


def mc_values(attack: CloningAttack, lam: int, trials: int, rng: np.random.Generator) -> list[float]:
    """Per-trial successes of `unclonable.cloning_experiment`'s Monte Carlo mode, with its draws."""
    values = []
    for _ in range(trials):
        key = uc.cc_keygen(lam, rng)
        m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
        values.append(attack_success_given(attack, key, m))
    return values
