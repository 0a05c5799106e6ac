"""Conjugate coding encryption and the cloning-experiment machinery.

Covers the quantum-channel scheme (encrypt each message bit as a
basis-hidden one-time-padded qubit), its classical-client variant (the
interactive preparation protocol stands in for sending qubits), the
wrong-key-detection transform (random prefix plus a pairwise-independent
permutation of the key space), the hybrid scheme on top of it, and an
exact harness for cloning attacks.

Key spaces.  A conjugate-coding key for mu-bit messages is (r, theta),
both mu bits.  The WKD transform wraps the 2*lambda-qubit inner scheme, so
its keys are the full serialized inner key: 4*lambda bits, permuted by an
affine map over GF(2^(4*lambda)).

Product form.  An honest ciphertext is a product of BB84 qubits: qubit i
is the padded bit m_i XOR r_i in basis theta_i: a ``qcore.BB84Product``,
the type the honest prover's register has too, and WKD ciphertexts carry
it.  Decoding it under a key is that type's
``measure``: qubit i gives its bit where the bases agree and a uniform bit
where they differ, all read from one uniform draw.  The dense state is
built only where something needs it: an attack's ``split``, a decoder
POVM, or a caller of ``to_state``/``to_density``.

The cloning harness is exact where feasible: attacks expose their splitting
channel and per-key decoder POVMs, so success probabilities are computed
as closed traces with no sampling noise.  Each attack scores a key by its
own rule (``scorer``), building that key's decoders at most once.
Breidbart's decoders both project on m XOR r, so E_b (x) E_c is a
rank-one projector and its success is one diagonal entry of rho_BC, read
without any POVM.  A ciphertext depends on the key and message only
through (m XOR r, theta), so the exhaustive mode splits each distinct
ciphertext once.  Monte Carlo mode samples keys and messages
but still evaluates the conditional success exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import gf2, qcore
from .protocol import MultiRoundConfig, run_multi_round

MAX_CC_BITS = 12  # simulation bound on conjugate-coding message length
# largest lambda whose dense 2^(2 lambda)-square split output an attack can
# hold: lambda = 6 runs in 0.9 GB, lambda = 7 would need 4.3 GB for it alone
MAX_ATTACK_BITS = 6

_COS = np.cos(np.pi / 8)
_SIN = np.sin(np.pi / 8)
# Breidbart's intermediate basis, rotated by pi/8: row w is <beta_w|, the bra of
# outcome w.  A BB84 qubit reads its own bit with probability cos^2(pi/8) in either basis.
BREIDBART_BASIS = np.array([[_COS, _SIN], [-_SIN, _COS]])
BREIDBART_SINGLE_SUCCESS = float(_COS**2)


def breidbart_outcome(qubits: qcore.BB84Product, u: float) -> tuple[int, ...]:
    """Intermediate-basis outcome of every qubit from one uniform u in [0, 1): the product CDF
    inverted, most significant qubit first, is the index ``rng.choice`` draws over the dense law."""
    out = []
    for bit in qubits.bits:
        p0 = BREIDBART_SINGLE_SUCCESS if bit == 0 else 1.0 - BREIDBART_SINGLE_SUCCESS
        out.append(int(u >= p0))
        u = (u - p0) / (1.0 - p0) if out[-1] else u / p0
    return tuple(out)


@dataclass(frozen=True)
class ConjKey:
    """One-time-pad bits and basis bits, one of each per message bit."""

    r: tuple[int, ...]
    theta: tuple[int, ...]

    def __post_init__(self):
        if len(self.r) != len(self.theta):
            raise ValueError("key: bit and basis vectors must have equal length")
        if any(b not in (0, 1) for b in self.r + self.theta):
            raise ValueError("key components must be bit vectors")

    @property
    def bits(self) -> int:
        return len(self.r)


def _check_message(m: Sequence[int], bits: int) -> tuple[int, ...]:
    m = tuple(m)
    if len(m) != bits:
        raise ValueError(f"message length {len(m)} does not match {bits}")
    if any(b not in (0, 1) for b in m):
        raise ValueError("messages are bit vectors")
    return m


def cc_keygen(lam: int, rng: np.random.Generator) -> ConjKey:
    if lam > MAX_CC_BITS:
        raise ValueError(f"message length capped at {MAX_CC_BITS} for simulation")
    r = tuple(int(b) for b in rng.integers(0, 2, size=lam))
    theta = tuple(int(b) for b in rng.integers(0, 2, size=lam))
    return ConjKey(r, theta)


def cc_enc_product(key: ConjKey, m: Sequence[int]) -> qcore.BB84Product:
    """Product ciphertext: qubit i carries m_i XOR r_i in basis theta_i."""
    m = _check_message(m, key.bits)
    return qcore.BB84Product(tuple(mi ^ ri for mi, ri in zip(m, key.r)), key.theta)


def cc_enc(key: ConjKey, m: Sequence[int]) -> qcore.StateVector:
    """Dense form of :func:`cc_enc_product`."""
    return cc_enc_product(key, m).to_state()


def cc_dec(key: ConjKey, state, rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """Undo the basis layer, measure, strip the pad.

    A product ciphertext decodes in closed form, with one uniform draw
    when some basis differs from the key's (the draw the dense path's
    ``rng.choice`` makes); a dense state is rotated and measured.  Honest
    ciphertexts decode deterministically; anything else needs an rng.
    """
    if isinstance(state, qcore.BB84Product):
        bits = state.measure(key.theta, rng.random() if rng is not None and state.bases != key.theta else None)
    else:
        rotated = qcore.hadamard_layer(state, key.theta)
        bits = qcore.sample_outcome(rotated, range(key.bits), rng)
    return tuple(b ^ r for b, r in zip(bits, key.r))


def cc_average_ciphertext(lam: int, m: Sequence[int]) -> qcore.DensityMatrix:
    """Exact key-averaged ciphertext (enumerates all 4^lam keys)."""
    m = _check_message(m, lam)
    dim = 2**lam
    acc = np.zeros((dim, dim), dtype=complex)
    for r_int in range(dim):
        for t_int in range(dim):
            key = ConjKey(qcore.index_to_bits(r_int, lam), qcore.index_to_bits(t_int, lam))
            psi = cc_enc(key, m).amplitudes
            acc += np.outer(psi, psi.conj())
    return qcore.DensityMatrix(acc / 4**lam, weight=1.0)


def cc_enc_classical_client(lam: int, m: Sequence[int], config: MultiRoundConfig, prover):
    """Interactive encryption: the receiver ends up holding the ciphertext.

    Runs the preparation protocol with lam copies; on acceptance the key is
    (v XOR m, theta) and the honest receiver's register equals cc_enc of it.
    Returns (key, receiver register, protocol result); key is None on abort.
    """
    m = _check_message(m, lam)
    if config.n != lam:
        raise ValueError("protocol must be configured with one copy per message bit")
    result = run_multi_round(config, prover)
    if not result.accepted:
        return None, None, result
    r = tuple(v ^ mi for v, mi in zip(result.v_vec, m))
    key = ConjKey(r, result.theta_vec)
    return key, result.prover_final_state, result


# -- cloning attacks --------------------------------------------------------


class CloningAttack:
    """Splitting channel plus per-key decoder POVMs for both halves."""

    b_qubits: int
    c_qubits: int

    def __init__(self, lam: int):
        # checked before any subclass allocates its 2^lam-sized matrices
        if not 1 <= lam <= MAX_ATTACK_BITS:
            raise ValueError(f"cloning attacks need 1 <= lambda <= {MAX_ATTACK_BITS}, got {lam}")
        self.lam = lam
        self.b_qubits = lam
        self.c_qubits = lam

    def split(self, ciphertext: qcore.DensityMatrix) -> qcore.DensityMatrix:
        raise NotImplementedError

    def decoder_povm_b(self, key: ConjKey) -> dict[tuple[int, ...], np.ndarray]:
        raise NotImplementedError

    def decoder_povm_c(self, key: ConjKey) -> dict[tuple[int, ...], np.ndarray]:
        raise NotImplementedError

    def scorer(self, key: ConjKey):
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


def _all_bitstrings(lam: int):
    for v in range(2**lam):
        yield qcore.index_to_bits(v, lam)


class ForwardAttack(CloningAttack):
    """Hands the ciphertext to the first decoder; the second guesses blind."""

    def split(self, ciphertext: qcore.DensityMatrix) -> qcore.DensityMatrix:
        blank = qcore.StateVector.basis_state([0] * self.lam).to_density()
        return qcore.tensor_product(ciphertext, blank)

    def decoder_povm_b(self, key: ConjKey):
        povm = {}
        for m in _all_bitstrings(self.lam):
            psi = cc_enc(key, m).amplitudes
            povm[m] = np.outer(psi, psi.conj())
        return povm

    def decoder_povm_c(self, key: ConjKey):
        dim = 2**self.lam
        return {m: np.eye(dim, dtype=complex) / dim for m in _all_bitstrings(self.lam)}


class BreidbartAttack(CloningAttack):
    """Measures every qubit in the intermediate (pi/8-rotated) basis and
    broadcasts the classical outcome to both decoders."""

    def __init__(self, lam: int):
        super().__init__(lam)
        # row w is <beta_w|, the intermediate-basis bra of outcome w (real)
        self._bras = qcore.kron(*[BREIDBART_BASIS] * lam)
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

    def _relabel_povm(self, key: ConjKey):
        return {m: _basis_proj([mi ^ ri for mi, ri in zip(m, key.r)]) for m in _all_bitstrings(self.lam)}

    def decoder_povm_b(self, key: ConjKey):
        return self._relabel_povm(key)

    def decoder_povm_c(self, key: ConjKey):
        return self._relabel_povm(key)

    def scorer(self, key: ConjKey):
        """Both decoders project on |m XOR r>: the success is rho_BC's diagonal entry there, for any rho_BC."""

        def success(m, rho_bc):
            marker = self._markers[qcore.bits_to_index([mi ^ ri for mi, ri in zip(m, key.r)])]
            return float(rho_bc.entries[marker, marker].real)

        return success


def breidbart_attack(lam: int) -> CloningAttack:
    return BreidbartAttack(lam)


def forward_attack(lam: int) -> CloningAttack:
    return ForwardAttack(lam)


def _attack_success_given(attack: CloningAttack, key: ConjKey, m: tuple[int, ...]) -> float:
    """Exact success probability of one (key, message) instance."""
    return attack.scorer(key)(m, attack.split(cc_enc(key, m).to_density()))


def cloning_experiment(
    attack: CloningAttack,
    lam: int,
    mode: str = "exact",
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> dict:
    """Key- and message-averaged success of a cloning attack.

    Exact mode enumerates all 4^lam keys and 2^lam messages (lam <= 4).
    It walks theta, then r, then m: the ciphertext depends on (r, m) only
    through m XOR r, so each theta's 2^lam distinct ciphertexts are split
    once and held while its keys are scored, and each key's scorer is
    built once.  Monte Carlo samples keys and messages but
    evaluates each instance exactly, so the reported standard error covers
    all the randomness there is.
    """
    if mode == "exact":
        if lam > 4:
            raise ValueError("exhaustive cloning experiment capped at lam = 4")
        strings = list(_all_bitstrings(lam))
        total = 0.0
        for theta in strings:
            splits = [attack.split(qcore.BB84Product(x, theta).to_density()) for x in strings]
            for r_index, r in enumerate(strings):
                score = attack.scorer(ConjKey(r, theta))
                for m_index, m in enumerate(strings):
                    total += score(m, splits[m_index ^ r_index])
        count = len(strings) ** 3
        return {"success": total / count, "stderr": None, "mode": "exact", "instances": count}
    if mode == "mc":
        if rng is None:
            raise ValueError("Monte Carlo mode needs an rng")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        values = []
        for _ in range(trials):
            key = cc_keygen(lam, rng)
            m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
            values.append(_attack_success_given(attack, key, m))
        arr = np.array(values)
        return {
            "success": float(arr.mean()),
            "stderr": float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else None,
            "mode": "mc",
            "instances": trials,
        }
    raise ValueError(f"unknown mode {mode!r}")


def cloning_experiment_classical_client(
    attack: CloningAttack,
    lam: int,
    config: MultiRoundConfig,
    prover_factory,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Cloning experiment against the interactive scheme.

    Each trial delegates a fresh ciphertext through the protocol (an abort
    counts as a loss), splits the receiver's actual register, and evaluates
    both decoders exactly.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = []
    aborts = 0
    for t in range(trials):
        m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
        cfg = replace(config, seed=int(rng.integers(0, 2**63)), reveal_theta=False)
        key, states, result = cc_enc_classical_client(lam, m, cfg, prover_factory(int(rng.integers(0, 2**63))))
        if key is None:
            aborts += 1
            values.append(0.0)
            continue
        values.append(attack.scorer(key)(m, attack.split(states.to_density())))
    arr = np.array(values)
    return {
        "success": float(arr.mean()),
        "stderr": float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else None,
        "aborts": aborts,
        "mode": "mc_classical_client",
        "instances": trials,
    }


# -- wrong-key detection and hybrid encryption ------------------------------


@dataclass(frozen=True)
class WkdCiphertext:
    quantum: qcore.BB84Product  # 2*lam qubits
    r: tuple[int, ...]  # lam-bit prefix tag, in the clear
    perm: gf2.PermKey  # key-space permutation, in the clear

    @property
    def lam(self) -> int:
        return len(self.r)


def wkd_keygen(lam: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Key of the transformed scheme: the full 4*lam-bit inner key space."""
    return tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))


def _inner_key(bits_4lam: Sequence[int]) -> ConjKey:
    bits = tuple(bits_4lam)
    if len(bits) % 4:
        raise ValueError("inner keys have 4*lam bits")
    two_lam = len(bits) // 2
    return ConjKey(bits[:two_lam], bits[two_lam:])


def wkd_enc(k: Sequence[int], m: Sequence[int], rng: np.random.Generator) -> WkdCiphertext:
    """Prefix the message with a fresh tag and encrypt under the permuted key."""
    k = tuple(k)
    lam = len(k) // 4
    m = _check_message(m, lam)
    if 2 * lam > MAX_CC_BITS:
        raise ValueError("wkd simulation bound exceeded")
    r = tuple(int(b) for b in rng.integers(0, 2, size=lam))
    perm = gf2.pip_sample(4 * lam, rng)
    inner = _inner_key(gf2.pip_eval(perm, k))
    return WkdCiphertext(quantum=cc_enc_product(inner, r + m), r=r, perm=perm)


def wkd_dec(
    k: Sequence[int], ct: WkdCiphertext, rng: np.random.Generator | None = None
) -> tuple[int, ...] | None:
    """Decrypt under the permuted key; None signals a wrong-key detection."""
    k = tuple(k)
    lam = ct.lam
    if len(k) != 4 * lam:
        raise ValueError("key length does not match ciphertext")
    inner = _inner_key(gf2.pip_eval(ct.perm, k))
    plain = cc_dec(inner, ct.quantum, rng)
    if plain[:lam] != ct.r:
        return None
    return plain[lam:]


def wkd_wrong_key_acceptance_formula(lam: int) -> float:
    """Closed form (2^(3*lam) - 1) / (2^(4*lam) - 1).

    Per prefix position the wrong-key decryption matches the tag bit with
    probability 1 (bases and pads agree), 1/2 (bases differ), or 0 (same
    basis, different pad); averaged over independent inner keys that is
    1/2 per position, and excluding the equal pair gives the closed form.
    """
    n = 1 << (4 * lam)
    return (n * 2.0**-lam - 1.0) / (n - 1.0)


def wkd_wrong_key_acceptance_exact(lam: int) -> float:
    """Average wrong-key acceptance by enumerating distinct inner-key pairs.

    By pairwise independence the permutation average over any fixed
    distinct key pair equals the average over uniformly random distinct
    inner-key pairs, so the enumeration runs over those: per prefix
    position the branch probability is 1, 1/2, or 0 as in
    :func:`wkd_wrong_key_acceptance_formula`, and the acceptance is the
    product over positions.  Vectorized over the second key; lam <= 3.
    """
    if lam > 3:
        raise ValueError("full pair enumeration capped at lam = 3; use the closed form")
    n_bits = 4 * lam
    n = 1 << n_bits
    keys = np.arange(n, dtype=np.uint64)
    total = 0.0
    # per prefix position i: pad bit at position i of the first 2*lam
    # block, basis bit at position i of the second block
    for k_val in range(n):
        factors = np.ones(n, dtype=np.float64)
        for i in range(lam):
            pad_shift = n_bits - 1 - i
            basis_shift = n_bits - 1 - (2 * lam + i)
            pa = (k_val >> pad_shift) & 1
            ta = (k_val >> basis_shift) & 1
            pb = (keys >> np.uint64(pad_shift)) & np.uint64(1)
            tb = (keys >> np.uint64(basis_shift)) & np.uint64(1)
            same_basis = tb == ta
            f = np.where(same_basis, np.where(pb == pa, 1.0, 0.0), 0.5)
            factors *= f
        factors[k_val] = 0.0  # exclude the equal pair
        total += float(factors.sum())
    return total / (n * (n - 1))


def wkd_wrong_key_acceptance_mc(lam: int, trials: int, rng: np.random.Generator) -> dict:
    """Sampled wrong-key acceptance through the real encrypt/decrypt path."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    hits = 0
    for _ in range(trials):
        k = wkd_keygen(lam, rng)
        while True:
            k_wrong = wkd_keygen(lam, rng)
            if k_wrong != k:
                break
        m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
        ct = wkd_enc(k, m, rng)
        if wkd_dec(k_wrong, ct, rng) is not None:
            hits += 1
    p = hits / trials
    return {"acceptance": p, "stderr": float(np.sqrt(max(p * (1 - p), 1e-12) / trials)), "trials": trials}


def hybrid_enc(k: Sequence[int], m: Sequence[int], rng: np.random.Generator):
    """Quantum part carries a fresh pad; classical part is pad XOR message."""
    k = tuple(k)
    lam = len(k) // 4
    m = _check_message(m, lam)
    pad = tuple(int(b) for b in rng.integers(0, 2, size=lam))
    ct_q = wkd_enc(k, pad, rng)
    ct_c = tuple(p ^ mi for p, mi in zip(pad, m))
    return ct_q, ct_c


def hybrid_dec(
    k: Sequence[int], ct: tuple[WkdCiphertext, tuple[int, ...]], rng: np.random.Generator | None = None
) -> tuple[int, ...] | None:
    ct_q, ct_c = ct
    pad = wkd_dec(k, ct_q, rng)
    if pad is None:
        return None
    return tuple(p ^ c for p, c in zip(pad, ct_c))
