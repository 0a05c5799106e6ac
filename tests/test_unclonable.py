"""Conjugate coding, cloning experiments, wrong-key detection, hybrid."""

import itertools

import cloning_oracle
import numpy as np
import pytest

from parrsp import gf2, qcore
from parrsp import unclonable as uc
from parrsp.protocol import MultiRoundConfig, run_multi_round
from parrsp.provers import AlwaysWrongProver, HonestProver, RandomAnswerProver

COS2_PI8 = (2 + np.sqrt(2)) / 4  # single-qubit intermediate-basis success


def _bitstrings(lam):
    return list(itertools.product((0, 1), repeat=lam))


class TestConjugateCoding:
    def test_roundtrip_exhaustive_lam3(self):
        rng = np.random.default_rng(0)
        for m in _bitstrings(3):
            for _ in range(5):
                key = uc.cc_keygen(3, rng)
                assert uc.cc_dec(key, uc.cc_enc_product(key, m)) == m

    def test_roundtrip_exhaustive_keys_lam2(self):
        for r in _bitstrings(2):
            for theta in _bitstrings(2):
                key = uc.ConjKey(r, theta)
                for m in _bitstrings(2):
                    assert uc.cc_dec(key, uc.cc_enc_product(key, m)) == m

    def test_computational_mode_reduces_to_otp(self):
        key = uc.ConjKey((1, 0, 1), (0, 0, 0))
        ct = uc.cc_enc_product(key, (0, 1, 1))
        # ciphertext is the padded basis state, no superposition
        assert np.count_nonzero(np.abs(ct.to_state().amplitudes) > 1e-12) == 1
        assert uc.cc_dec(key, ct) == (0, 1, 1)

    def test_key_average_is_maximally_mixed(self):
        for lam in (1, 2, 3):
            for m in _bitstrings(lam)[:4]:
                avg = cloning_oracle.cc_average_ciphertext(lam, m)
                delta = avg.entries - np.eye(2**lam) / 2**lam
                assert qcore.trace_norm(delta) < 1e-12

    def test_nondeterministic_decode_needs_rng(self):
        key = uc.ConjKey((0,), (0,))
        plus = qcore.BB84Product((0,), (1,))
        with pytest.raises(ValueError, match="uniform draw"):
            uc.cc_dec(key, plus)
        out = uc.cc_dec(key, plus, np.random.default_rng(0))
        assert out in {(0,), (1,)}

    def test_length_validation(self):
        key = uc.ConjKey((0, 1), (1, 0))
        with pytest.raises(ValueError):
            cloning_oracle.cc_enc(key, (0,))
        with pytest.raises(ValueError):
            uc.ConjKey((0, 1), (1,))

    def test_roundtrip_lam4(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            key = uc.cc_keygen(4, rng)
            m = tuple(int(b) for b in rng.integers(0, 2, size=4))
            assert uc.cc_dec(key, uc.cc_enc_product(key, m)) == m

    def test_simulation_bound(self):
        with pytest.raises(ValueError, match="capped"):
            uc.cc_keygen(13, np.random.default_rng(0))


class TestClassicalClient:
    def test_honest_receiver_holds_ciphertext(self):
        lam = 3
        for seed in range(6):
            cfg = MultiRoundConfig(n=lam, m_blocks=2, delta=0.05, width=4, seed=seed,
                                   reveal_theta=False)
            m = tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, size=lam))
            key, states, result = uc.cc_enc_classical_client(lam, m, cfg, HonestProver(seed=seed))
            assert result.accepted and key is not None
            joint = states[0]
            for s in states[1:]:
                joint = qcore.tensor_product(joint, s)
            assert qcore.fidelity(joint, cloning_oracle.cc_enc(key, m)) > 1 - 1e-9

    def test_zero_message_key_equals_v(self):
        cfg = MultiRoundConfig(n=2, m_blocks=2, delta=0.05, width=4, seed=7, reveal_theta=False)
        key, _, result = uc.cc_enc_classical_client(2, (0, 0), cfg, HonestProver(seed=7))
        assert key.r == result.v_vec
        assert key.theta == result.theta_vec

    def test_abort_propagates_as_none(self):
        hits = 0
        for seed in range(30):
            cfg = MultiRoundConfig(n=2, m_blocks=4, delta=0.1, width=4, seed=seed,
                                   reveal_theta=False)
            key, states, result = uc.cc_enc_classical_client(
                2, (0, 1), cfg, AlwaysWrongProver(seed=seed)
            )
            if not result.accepted:
                hits += 1
                assert key is None and states is None
        assert hits > 0

    def test_config_mismatch(self):
        cfg = MultiRoundConfig(n=3, m_blocks=2, delta=0.05, width=4, seed=0)
        with pytest.raises(ValueError, match="one copy per message bit"):
            uc.cc_enc_classical_client(2, (0, 0), cfg, HonestProver(0))


class TestAttacks:
    @pytest.mark.parametrize("make", [uc.breidbart_attack, uc.forward_attack])
    @pytest.mark.parametrize("lam", [0, -1, uc.MAX_CC_BITS + 1, 99])
    def test_size_checked_before_allocation(self, make, lam):
        with pytest.raises(ValueError, match="lambda"):
            make(lam)

    def test_experiment_checks_the_attack_width(self):
        with pytest.raises(ValueError, match="splits 2 qubits"):
            uc.cloning_experiment(uc.forward_attack(2), 3, mode="exact")

    def test_split_preserves_trace(self):
        rng = np.random.default_rng(4)
        for attack in (cloning_oracle.breidbart_attack(2), cloning_oracle.forward_attack(2)):
            key = uc.cc_keygen(2, rng)
            ct = cloning_oracle.cc_enc(key, (1, 0)).to_density()
            out = attack.split(ct)
            assert abs(np.trace(out.entries).real - 1.0) < 1e-10

    def test_breidbart_single_qubit_overlap_oracle(self):
        # oracle: |<beta_w | H^theta | v>|^2 for all four BB84 states
        cos, sin = np.cos(np.pi / 8), np.sin(np.pi / 8)
        betas = [np.array([cos, sin]), np.array([-sin, cos])]
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for theta in (0, 1):
            for v in (0, 1):
                ket = np.eye(2)[:, v]
                if theta:
                    ket = h @ ket
                assert abs(abs(betas[v] @ ket) ** 2 - COS2_PI8) < 1e-12

    def test_breidbart_success_is_product_across_qubits(self):
        res1 = uc.cloning_experiment(uc.breidbart_attack(1), 1, mode="exact")
        res2 = uc.cloning_experiment(uc.breidbart_attack(2), 2, mode="exact")
        assert abs(res2["success"] - res1["success"] ** 2) < 1e-10

    def test_breidbart_matches_bound_value(self):
        for lam in (1, 2, 3):
            res = uc.cloning_experiment(uc.breidbart_attack(lam), lam, mode="exact")
            assert abs(res["success"] - COS2_PI8**lam) < 1e-9

    def test_forward_attack_blind_guess(self):
        for lam in (1, 2):
            res = uc.cloning_experiment(uc.forward_attack(lam), lam, mode="exact")
            assert abs(res["success"] - 2.0**-lam) < 1e-12

    def test_shipped_attacks_obey_bound(self):
        for lam in (1, 2):
            bound = COS2_PI8**lam
            for attack in (uc.breidbart_attack(lam), uc.forward_attack(lam)):
                res = uc.cloning_experiment(attack, lam, mode="exact")
                assert res["success"] <= bound + 1e-9
                assert res["success"] <= 1.0 + 1e-12

    def test_breidbart_outcomes_unbiased_over_keys(self):
        lam = 1
        attack = cloning_oracle.breidbart_attack(lam)
        acc = np.zeros(2)
        count = 0
        for r in _bitstrings(lam):
            for theta in _bitstrings(lam):
                ct = cloning_oracle.cc_enc(uc.ConjKey(r, theta), (0,)).to_density()
                rho = attack.split(ct).entries
                acc[0] += rho[0, 0].real  # w = 0 component (|00><00| BC block)
                acc[1] += rho[3, 3].real
                count += 1
        assert abs(acc[0] / count - 0.5) < 1e-12
        assert abs(acc[1] / count - 0.5) < 1e-12

    def test_mc_mode_agrees(self):
        res = uc.cloning_experiment(
            uc.breidbart_attack(2), 2, mode="mc", trials=400, rng=np.random.default_rng(8)
        )
        assert abs(res["success"] - COS2_PI8**2) < 5 * res["stderr"] + 1e-9

    def test_classical_client_keeps_strict_trailing(self, monkeypatch):
        seen = []

        def recording_run(config, prover, *args, **kwargs):
            seen.append(config)
            return run_multi_round(config, prover, *args, **kwargs)

        monkeypatch.setattr(uc, "run_multi_round", recording_run)
        cfg = MultiRoundConfig(n=1, m_blocks=2, delta=0.05, width=4, seed=0, strict_trailing=True)
        uc.cloning_experiment_classical_client(
            uc.breidbart_attack(1), 1, cfg, HonestProver, trials=3, rng=np.random.default_rng(3)
        )
        assert len(seen) == 3
        assert all(c.strict_trailing and not c.reveal_theta for c in seen)
        assert len({c.seed for c in seen}) == 3

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trial_count_checked_before_work(self, trials):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        cfg = MultiRoundConfig(n=1, m_blocks=2, delta=0.05, width=4, seed=0)
        experiments = [
            lambda: uc.cloning_experiment(uc.breidbart_attack(1), 1, mode="mc", trials=trials, rng=rng),
            lambda: uc.cloning_experiment_classical_client(uc.breidbart_attack(1), 1, cfg, HonestProver, trials, rng),
            lambda: uc.wkd_wrong_key_acceptance_mc(4, trials, rng),
        ]
        for experiment in experiments:
            with pytest.raises(ValueError, match="trials"):
                experiment()
        assert rng.bit_generator.state == state

    def test_classical_client_rejects_an_accepted_session_without_register(self):
        # a random answerer is accepted now and then, but holds no quantum register
        cfg = MultiRoundConfig(n=1, m_blocks=1, delta=0.5, width=4, seed=0, reveal_theta=False)
        with pytest.raises(ValueError, match="RandomAnswerProver exposes no register"):
            uc.cloning_experiment_classical_client(
                uc.breidbart_attack(1), 1, cfg, RandomAnswerProver, trials=50, rng=np.random.default_rng(1)
            )

    def test_classical_client_cloning(self):
        cfg = MultiRoundConfig(n=1, m_blocks=2, delta=0.05, width=4, seed=0, reveal_theta=False)
        res = uc.cloning_experiment_classical_client(
            uc.breidbart_attack(1), 1, cfg, HonestProver, trials=150, rng=np.random.default_rng(3)
        )
        assert res["aborts"] == 0
        assert abs(res["success"] - COS2_PI8) < 5 * res["stderr"] + 1e-9


def _quantum_wrong_key_oracle_lam1(outer_pairs):
    """Independent oracle: enumerate the whole permutation family and both
    tag/message bits, decrypting through explicit statevector simulation."""
    total = 0.0
    count = 0
    for k, k_wrong in outer_pairs:
        for perm in gf2.all_perm_keys(4):
            inner = uc._inner_key(gf2.pip_eval(perm, k))
            inner_wrong = uc._inner_key(gf2.pip_eval(perm, k_wrong))
            for r_bit in (0, 1):
                for m_bit in (0, 1):
                    ct = cloning_oracle.cc_enc(inner, (r_bit, m_bit))
                    rotated = qcore.hadamard_layer(ct, inner_wrong.theta)
                    branches = qcore.enumerate_measurement(rotated, range(2))
                    total += sum(
                        p for bits, p, _ in branches if bits[0] ^ inner_wrong.r[0] == r_bit
                    )
                    count += 1
    return total / count


class TestWrongKeyDetection:
    def test_roundtrip_exhaustive_lam2(self):
        rng = np.random.default_rng(1)
        for k_int in range(256):
            k = tuple((k_int >> (7 - i)) & 1 for i in range(8))
            m = tuple(int(b) for b in rng.integers(0, 2, size=2))
            ct = uc.wkd_enc(k, m, rng)
            assert uc.wkd_dec(k, ct) == m

    def test_identity_permutation_reduces_to_prefix_check(self):
        # with pi = identity the inner key is the outer key bits directly
        rng = np.random.default_rng(2)
        k = uc.wkd_keygen(2, rng)
        ct = uc.wkd_enc(k, (1, 0), rng)
        ident = gf2.PermKey(gf2.FieldElement(1, 8), gf2.FieldElement(0, 8))
        inner = uc._inner_key(k)
        plain = uc.cc_dec(inner, uc.cc_enc_product(inner, ct.r + (1, 0)))
        assert plain == ct.r + (1, 0)

    def test_wrong_key_exact_enumeration_matches_formula(self):
        for lam in (1, 2, 3):
            enum = uc.wkd_wrong_key_acceptance_exact(lam)
            formula = uc.wkd_wrong_key_acceptance_formula(lam)
            assert abs(enum - formula) < 1e-12

    def test_wrong_key_quantum_oracle_lam1(self):
        # full quantum route over the permutation family, three key pairs
        pairs = [
            ((0, 0, 0, 0), (0, 0, 0, 1)),
            ((1, 0, 1, 1), (0, 1, 0, 0)),
            ((1, 1, 1, 1), (1, 1, 1, 0)),
        ]
        oracle = _quantum_wrong_key_oracle_lam1(pairs)
        assert abs(oracle - uc.wkd_wrong_key_acceptance_exact(1)) < 1e-12

    def test_wrong_key_quantum_spot_checks_lam2(self):
        # per-instance: quantum branch enumeration equals the position product
        rng = np.random.default_rng(5)
        lam = 2
        for _ in range(60):
            k = uc.wkd_keygen(lam, rng)
            while True:
                k_wrong = uc.wkd_keygen(lam, rng)
                if k_wrong != k:
                    break
            perm = gf2.pip_sample(4 * lam, rng)
            inner = uc._inner_key(gf2.pip_eval(perm, k))
            inner_wrong = uc._inner_key(gf2.pip_eval(perm, k_wrong))
            r = tuple(int(b) for b in rng.integers(0, 2, size=lam))
            m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
            ct = cloning_oracle.cc_enc(inner, r + m)
            rotated = qcore.hadamard_layer(ct, inner_wrong.theta)
            quantum = sum(
                p
                for bits, p, _ in qcore.enumerate_measurement(rotated, range(2 * lam))
                if tuple(b ^ rr for b, rr in zip(bits[:lam], inner_wrong.r[:lam])) == r
            )
            product = 1.0
            for i in range(lam):
                if inner.theta[i] == inner_wrong.theta[i]:
                    product *= 1.0 if inner.r[i] == inner_wrong.r[i] else 0.0
                else:
                    product *= 0.5
            assert abs(quantum - product) < 1e-12

    def test_wrong_key_mc_lam4(self):
        res = uc.wkd_wrong_key_acceptance_mc(4, trials=2000, rng=np.random.default_rng(12))
        formula = uc.wkd_wrong_key_acceptance_formula(4)
        assert abs(res["acceptance"] - formula) < 5 * res["stderr"]

    def test_roundtrip_lam4_spot(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            k = uc.wkd_keygen(4, rng)
            m = tuple(int(b) for b in rng.integers(0, 2, size=4))
            assert uc.wkd_dec(k, uc.wkd_enc(k, m, rng)) == m

    def test_key_length_validation(self):
        rng = np.random.default_rng(0)
        ct = uc.wkd_enc(uc.wkd_keygen(2, rng), (0, 0), rng)
        with pytest.raises(ValueError, match="length"):
            uc.wkd_dec((0, 1), ct)


class TestHybrid:
    def test_roundtrip_all_messages_lam3(self):
        rng = np.random.default_rng(3)
        k = uc.wkd_keygen(3, rng)
        for m in _bitstrings(3):
            assert uc.hybrid_dec(k, uc.hybrid_enc(k, m, rng)) == m

    def test_roundtrip_lam4_spot(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = uc.wkd_keygen(4, rng)
            m = tuple(int(b) for b in rng.integers(0, 2, size=4))
            assert uc.hybrid_dec(k, uc.hybrid_enc(k, m, rng)) == m

    def test_zero_message_classical_part_is_pad(self):
        rng = np.random.default_rng(4)
        k = uc.wkd_keygen(2, rng)
        ct_q, ct_c = uc.hybrid_enc(k, (0, 0), rng)
        assert uc.wkd_dec(k, ct_q) == ct_c

    def test_wrong_key_rate_matches_wkd(self):
        rng = np.random.default_rng(6)
        lam, trials = 2, 1500
        hits = 0
        for _ in range(trials):
            k = uc.wkd_keygen(lam, rng)
            while True:
                kw = uc.wkd_keygen(lam, rng)
                if kw != k:
                    break
            ct = uc.hybrid_enc(k, (1, 0), rng)
            hits += uc.hybrid_dec(kw, ct, rng) is not None
        p = hits / trials
        expected = uc.wkd_wrong_key_acceptance_formula(lam)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(p - expected) < 5 * sigma


class _FixedDraw:
    """Stands in for a Generator whose uniform draw is always u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _product_decode_law(key, ct):
    # u = (j + 1/2) / 2^lam for each j < 2^lam, each weighing 2^-lam, is a
    # uniform law on every k <= lam leading binary digits of u
    size = 2**key.bits
    law = {}
    for j in range(size):
        plain = uc.cc_dec(key, ct, _FixedDraw((j + 0.5) / size))
        law[plain] = law.get(plain, 0.0) + 1.0 / size
    return law


def _dense_decode_law(key, ct):
    # conjugate the whole density matrix by the key's Hadamard layer
    layer = np.array([[1.0]])
    for t in key.theta:
        layer = np.kron(layer, qcore.hadamard().entries if t else np.eye(2))
    rotated = layer @ ct.to_density().entries @ layer.conj().T
    law = {}
    for index, p in enumerate(np.real(np.diag(rotated))):
        bits = qcore.index_to_bits(index, key.bits)
        plain = tuple(b ^ r for b, r in zip(bits, key.r))
        law[plain] = law.get(plain, 0.0) + float(p)
    return law


def _laws_agree(a, b):
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-12 for k in set(a) | set(b))


def _dense_wkd_mc(lam, trials, rng):
    """wkd_wrong_key_acceptance_mc with the ciphertext decoded as a dense
    state vector: rotate by the wrong key's bases, one Born draw unless the
    outcome is certain."""
    hits = 0
    for _ in range(trials):
        k = uc.wkd_keygen(lam, rng)
        while True:
            k_wrong = uc.wkd_keygen(lam, rng)
            if k_wrong != k:
                break
        m = tuple(int(b) for b in rng.integers(0, 2, size=lam))
        ct = uc.wkd_enc(k, m, rng)
        inner = uc._inner_key(gf2.pip_eval(ct.perm, k_wrong))
        probs = qcore.hadamard_layer(ct.quantum.to_state(), inner.theta).probabilities()
        support = np.flatnonzero(probs > 1e-12)
        if support.shape[0] == 1:
            index = int(support[0])
        else:
            index = int(rng.choice(probs.shape[0], p=probs / probs.sum()))
        plain = tuple(b ^ r for b, r in zip(qcore.index_to_bits(index, 2 * lam), inner.r))
        hits += plain[:lam] == ct.r
    return hits


class TestProductForm:
    def test_to_density_equals_dense_encryption(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            key = uc.cc_keygen(3, rng)
            m = tuple(int(b) for b in rng.integers(0, 2, size=3))
            ct = uc.cc_enc_product(key, m)
            assert ct.bases == key.theta
            assert np.allclose(ct.to_density().entries, cloning_oracle.cc_enc(key, m).to_density().entries, atol=1e-15)

    def test_decode_law_matches_dense_exhaustive_lam1(self):
        inner_keys = [uc.ConjKey(r, t) for r in _bitstrings(2) for t in _bitstrings(2)]
        for key in inner_keys:
            for m in _bitstrings(2):
                ct = uc.cc_enc_product(key, m)
                for wrong in inner_keys:
                    assert _laws_agree(_product_decode_law(wrong, ct), _dense_decode_law(wrong, ct))

    def test_decode_law_matches_dense_sampled_lam2(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            key, wrong = uc.cc_keygen(4, rng), uc.cc_keygen(4, rng)
            ct = uc.cc_enc_product(key, tuple(int(b) for b in rng.integers(0, 2, size=4)))
            assert _laws_agree(_product_decode_law(wrong, ct), _dense_decode_law(wrong, ct))

    def test_wrong_key_mc_matches_dense_reference_stream(self):
        rng_product, rng_dense = np.random.default_rng(12), np.random.default_rng(12)
        res = uc.wkd_wrong_key_acceptance_mc(4, 2000, rng_product)
        hits = _dense_wkd_mc(4, 2000, rng_dense)
        assert round(res["acceptance"] * 2000) == hits
        assert rng_product.bit_generator.state == rng_dense.bit_generator.state

    def test_mismatched_ciphertext_length_rejected(self):
        ct = qcore.BB84Product((0, 1), (1, 1))
        with pytest.raises(ValueError, match="does not match"):
            uc.cc_dec(uc.ConjKey((0,), (1,)), ct)
        with pytest.raises(ValueError, match="equal length"):
            qcore.BB84Product((0, 1), (1,))

    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize("make_attack", [uc.breidbart_attack, uc.forward_attack])
    def test_exact_loop_equals_instance_sum(self, lam, make_attack):
        # the product rule and the dense oracle score the same 8^lam instances
        attack = make_attack(lam)
        dense = cloning_oracle.dense_twin(attack)
        instances = [(uc.ConjKey(r, theta), m) for r in _bitstrings(lam) for theta in _bitstrings(lam) for m in _bitstrings(lam)]
        total = sum(attack.success(uc.cc_enc_product(key, m), key, m) for key, m in instances)
        oracle_total = sum(cloning_oracle.attack_success_given(dense, key, m) for key, m in instances)
        res = uc.cloning_experiment(attack, lam, mode="exact")
        assert res["instances"] == 8**lam
        assert abs(res["success"] - total / 8**lam) < 1e-12
        assert abs(res["success"] - oracle_total / 8**lam) < 1e-12

    def test_breidbart_split_checks_its_trace(self):
        # the split validates only the trace of its diagonal output
        attack = cloning_oracle.breidbart_attack(2)
        wrong_weight = qcore.DensityMatrix._unchecked(np.eye(4, dtype=complex) / 2, weight=1.0)
        with pytest.raises(ValueError, match="trace"):
            attack.split(wrong_weight)
        out = attack.split(qcore.DensityMatrix.maximally_mixed(2))
        assert np.all(np.diag(out.entries).real >= 0) and abs(np.trace(out.entries) - 1) < 1e-12

    def test_breidbart_split_matches_projector_oracle(self):
        # arbitrary dense states, not just honest ciphertexts
        lam = 2
        attack = cloning_oracle.breidbart_attack(lam)
        cos, sin = np.cos(np.pi / 8), np.sin(np.pi / 8)
        single = [np.outer(b, b) for b in (np.array([cos, sin]), np.array([-sin, cos]))]
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            state = qcore.DensityMatrix(rho / np.trace(rho).real)
            expected = np.zeros((16, 16), dtype=complex)
            for w in _bitstrings(lam):
                proj = np.kron(single[w[0]], single[w[1]])
                marker = np.zeros((4, 4))
                marker[qcore.bits_to_index(w), qcore.bits_to_index(w)] = 1.0
                expected += np.trace(proj @ state.entries).real * np.kron(marker, marker)
            assert np.abs(attack.split(state).entries - expected).max() < 1e-12

    def test_breidbart_diagonal_read_equals_povm_rule(self):
        # the diagonal read is exact for any state on BC, not just split outputs:
        # the generic rule contracts the decoder projectors against every entry
        lam = 2
        attack = cloning_oracle.breidbart_attack(lam)
        rng = np.random.default_rng(17)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho_bc = qcore.DensityMatrix(rho / np.trace(rho).real)
        for r in _bitstrings(lam):
            for theta in _bitstrings(lam):
                key = uc.ConjKey(r, theta)
                diagonal = attack.scorer(key)
                generic = cloning_oracle.CloningAttack.scorer(attack, key)
                for m in _bitstrings(lam):
                    assert diagonal(m, rho_bc) == generic(m, rho_bc)


def _random_bits(lam, rng):
    return tuple(int(b) for b in rng.integers(0, 2, size=lam))


class TestDenseOracle:
    """The per-qubit law against the dense channel-and-POVM harness of cloning_oracle."""

    @pytest.mark.parametrize("lam", [1, 2])
    @pytest.mark.parametrize("make_attack", [uc.breidbart_attack, uc.forward_attack])
    def test_every_instance_matches(self, lam, make_attack):
        # every register, including those whose bases differ from the key's
        attack = make_attack(lam)
        dense = cloning_oracle.dense_twin(attack)
        keys = [uc.ConjKey(r, theta) for r in _bitstrings(lam) for theta in _bitstrings(lam)]
        scorers = {key: dense.scorer(key) for key in keys}
        for bits in _bitstrings(lam):
            for bases in _bitstrings(lam):
                register = qcore.BB84Product(bits, bases)
                rho_bc = dense.split(register.to_density())
                for key in keys:
                    for m in _bitstrings(lam):
                        assert abs(attack.success(register, key, m) - scorers[key](m, rho_bc)) < 1e-12

    @pytest.mark.parametrize("make_attack", [uc.breidbart_attack, uc.forward_attack])
    def test_sampled_instances_match_lam3(self, make_attack):
        attack = make_attack(3)
        dense = cloning_oracle.dense_twin(attack)
        rng = np.random.default_rng(19)
        crossed = 0
        for _ in range(200):
            register = qcore.BB84Product(_random_bits(3, rng), _random_bits(3, rng))
            key = uc.ConjKey(_random_bits(3, rng), _random_bits(3, rng))
            m = _random_bits(3, rng)
            crossed += register.bases != key.theta
            expected = cloning_oracle.instance_success(dense, register, key, m)
            assert abs(attack.success(register, key, m) - expected) < 1e-12
        assert 0 < crossed < 200

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_attack", [uc.breidbart_attack, uc.forward_attack])
    def test_exact_average_matches(self, lam, make_attack):
        attack = make_attack(lam)
        expected = cloning_oracle.exact_success(cloning_oracle.dense_twin(attack), lam)
        assert abs(uc.cloning_experiment(attack, lam, mode="exact")["success"] - expected) < 1e-12

    @pytest.mark.parametrize("lam", [1, 4])
    @pytest.mark.parametrize("make_attack", [uc.breidbart_attack, uc.forward_attack])
    def test_mc_matches_oracle_stream(self, lam, make_attack):
        attack = make_attack(lam)
        rng, rng_trials, rng_ref = (np.random.default_rng(23) for _ in range(3))
        reference = cloning_oracle.mc_values(cloning_oracle.dense_twin(attack), lam, 30, rng_ref)
        res = uc.cloning_experiment(attack, lam, mode="mc", trials=30, rng=rng)
        # one-trial runs expose each trial's value
        values = [uc.cloning_experiment(attack, lam, mode="mc", trials=1, rng=rng_trials)["success"] for _ in range(30)]
        assert max(abs(a - b) for a, b in zip(values, reference)) < 1e-12
        assert abs(res["success"] - np.mean(reference)) < 1e-12
        assert rng.bit_generator.state == rng_trials.bit_generator.state == rng_ref.bit_generator.state
