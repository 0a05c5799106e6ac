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
where they differ, all read from one uniform draw.  Nothing here builds
the dense state; only a caller of ``to_state``/``to_density`` does.

Cloning attacks.  Both shipped attacks split each qubit on its own, and
their decoders read each half qubit by qubit, so an attack's ``split`` of
a product register under a key is one pair per qubit: the probability
that both decoders output 0, and that both output 1.  An instance's
success is the product over qubits of the pair's entry at the message
bit, in every mode.  Exact mode averages the eight one-qubit instances
(r, theta, m) and raises that to the power lambda, which gives the
Broadbent-Lord values 2^-lambda (forward) and cos^2(pi/8)^lambda
(Breidbart); Monte Carlo and classical-client mode score their sampled
instances the same way.  Attacks take 1 <= lambda <= MAX_CC_BITS.  The
dense channel-and-POVM form of the same attacks is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import gf2, qcore
from .protocol import MultiRoundConfig, run_multi_round

MAX_CC_BITS = 12  # simulation bound on conjugate-coding message length, cloning attacks included

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


def cc_dec(key: ConjKey, state: qcore.BB84Product, rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """Measure a product ciphertext in the key's bases and strip the pad.  Honest ciphertexts decode
    deterministically; qubits outside the key's bases read uniform bits from one rng draw."""
    bits = state.measure(key.theta, rng.random() if rng is not None and state.bases != key.theta else None)
    return tuple(b ^ r for b, r in zip(bits, key.r))


def cc_enc_classical_client(lam: int, m: Sequence[int], config: MultiRoundConfig, prover):
    """Interactive encryption: the receiver ends up holding the ciphertext.

    Runs the preparation protocol with lam copies; on acceptance the key is
    (v XOR m, theta) and the honest receiver's register equals cc_enc_product of it.
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
    """A splitting channel that acts on each qubit alone, with decoders that
    read their halves qubit by qubit in the key's basis and strip the pad.

    ``LAW[same_basis][o]`` is the pair (P both decoders output 0, P both
    output 1) for a qubit whose bit XOR the key's pad bit is o, held in the
    key's basis (same_basis) or in the other one.
    """

    LAW: dict[bool, tuple[tuple[float, float], tuple[float, float]]]

    def __init__(self, lam: int):
        if not 1 <= lam <= MAX_CC_BITS:
            raise ValueError(f"cloning attacks need 1 <= lambda <= {MAX_CC_BITS}, got {lam}")
        self.lam = lam

    def split(self, register: qcore.BB84Product, key: ConjKey) -> list[tuple[float, float]]:
        """Per qubit: the probability that both decoders output 0, and that both output 1."""
        if len(register) != key.bits:
            raise ValueError(f"{len(register)}-qubit register does not match a {key.bits}-bit key")
        return [
            self.LAW[own == basis][bit ^ r]
            for bit, own, r, basis in zip(register.bits, register.bases, key.r, key.theta)
        ]

    def success(self, register: qcore.BB84Product, key: ConjKey, m: Sequence[int]) -> float:
        """Probability that both decoders output m: a product over qubits."""
        return float(np.prod([pair[mi] for pair, mi in zip(self.split(register, key), m)]))


class ForwardAttack(CloningAttack):
    """Hands the ciphertext to the first decoder; the second guesses blind.
    The first reads o in the key's basis and a uniform bit across bases."""

    LAW = {True: ((0.5, 0.0), (0.0, 0.5)), False: ((0.25, 0.25), (0.25, 0.25))}


_BREIDBART_HIT = (BREIDBART_SINGLE_SUCCESS, 1.0 - BREIDBART_SINGLE_SUCCESS)


class BreidbartAttack(CloningAttack):
    """Measures every qubit in the intermediate (pi/8-rotated) basis and
    broadcasts the classical outcome to both decoders: in either basis the
    outcome is the qubit's bit with probability cos^2(pi/8)."""

    LAW = dict.fromkeys((True, False), (_BREIDBART_HIT, _BREIDBART_HIT[::-1]))


def breidbart_attack(lam: int) -> CloningAttack:
    return BreidbartAttack(lam)


def forward_attack(lam: int) -> CloningAttack:
    return ForwardAttack(lam)


def _check_attack(attack: CloningAttack, lam: int) -> None:
    if lam != attack.lam:
        raise ValueError(f"the attack splits {attack.lam} qubits, not lambda = {lam}")


def cloning_experiment(
    attack: CloningAttack,
    lam: int,
    mode: str = "exact",
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> dict:
    """Key- and message-averaged success of a cloning attack.

    An instance's success is a product over qubits, and keys and messages
    are uniform bit by bit, so the exact average over all 8^lam instances
    is the average over the eight one-qubit instances (r, theta, m),
    raised to the power lam.  Monte Carlo samples keys and messages but
    scores each instance exactly, so the reported standard error covers
    all the randomness there is.
    """
    _check_attack(attack, lam)
    if mode == "exact":
        keys = [ConjKey((r,), (t,)) for r in (0, 1) for t in (0, 1)]
        one = sum(attack.success(cc_enc_product(key, (m,)), key, (m,)) for key in keys for m in (0, 1)) / 8
        return {"success": one**lam, "stderr": None, "mode": "exact", "instances": 8**lam}
    if mode == "mc":
        if rng is None:
            raise ValueError("Monte Carlo mode needs an rng")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        values = []
        for _ in range(trials):
            key = cc_keygen(lam, rng)
            m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
            values.append(attack.success(cc_enc_product(key, m), key, m))
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
    counts as a loss) and scores the receiver's actual register exactly.
    An accepted session whose prover exposes no register is an error.
    """
    _check_attack(attack, lam)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = []
    aborts = 0
    for _ in range(trials):
        m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
        cfg = replace(config, seed=int(rng.integers(0, 2**63)), reveal_theta=False)
        prover = prover_factory(int(rng.integers(0, 2**63)))
        key, register, result = cc_enc_classical_client(lam, m, cfg, prover)
        if key is None:
            aborts += 1
            values.append(0.0)
            continue
        if not isinstance(register, qcore.BB84Product):
            raise ValueError(f"session accepted, but {type(prover).__name__} exposes no register to score ({register!r})")
        values.append(attack.success(register, key, m))
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
