"""Honest prover against the dense oracle it replaced.

The oracle prepares the uniform superposition over all (b, x) pairs,
measures the image register (keeping the uniform superposition over the
preimages of y), then Hadamard-measures the preimage register: a dense
2^(w+1) simulation, affordable only at small widths.
"""

import copy

import numpy as np
import pytest

from parrsp import entcf, protocol, provers, qcore, transcript
from parrsp.wire import hex_to_int


def dense_commitment(key, y):
    """Post-measurement register for image y: uniform over its preimages."""
    preimages = entcf.preimage_table(key)[y]
    amps = np.zeros(2 ** (key.width + 1), dtype=complex)
    for b, x in preimages:
        amps[(b << key.width) | x] = 1 / np.sqrt(len(preimages))
    return qcore.StateVector(amps)


def dense_equation_branch(state, width, d):
    """Hadamard the preimage register and project it on d.

    Returns the outcome probability and the normalized committed qubit.
    """
    rotated = qcore.hadamard_layer(state, (0,) + (1,) * width)
    branch = rotated.amplitudes.reshape(2, 2**width)[:, d]
    prob = float(np.vdot(branch, branch).real)
    return prob, qcore.StateVector(branch / np.sqrt(prob))


def terms_state(terms, width):
    amps = np.zeros(2 ** (width + 1), dtype=complex)
    for b, x in terms:
        amps[(b << width) | x] = 1 / np.sqrt(len(terms))
    return qcore.StateVector(amps)


@pytest.mark.parametrize("mode", [entcf.INJECTIVE, entcf.CLAW_FREE])
@pytest.mark.parametrize("width", [2, 3, 4])
def test_two_term_commitment_matches_dense_oracle(width, mode):
    kp = entcf.gen(mode, width, np.random.default_rng(10 * width + mode))
    table = entcf.preimage_table(kp.key)
    seen = set()
    for b in (0, 1):
        for x in range(2**width):
            y = entcf.eval_point(kp.key, b, x)
            seen.add(y)
            terms = provers.claw_terms(kp.key, b, x)
            assert sorted(terms) == sorted(table[y])
            dense = dense_commitment(kp.key, y)
            assert np.allclose(terms_state(terms, width).amplitudes, dense.amplitudes, atol=1e-12)
            for d in range(2**width):
                prob, qubit = dense_equation_branch(dense, width, d)
                assert abs(prob - 2.0**-width) < 1e-12
                bit, basis = provers.kept_qubit(terms, d)
                assert abs(qcore.fidelity(qcore.BB84Product((bit,), (basis,)), qubit) - 1) < 1e-12
    assert seen == set(table)


def _keys_message(keypairs, round_index):
    return {
        "type": "KEYS",
        "round": round_index,
        "keys": [entcf.key_to_wire(kp.key) for kp in keypairs],
    }


@pytest.mark.parametrize("width", [2, 3, 4])
def test_prover_final_states_match_dense_oracle(width):
    rng = np.random.default_rng(width)
    for seed in range(30):
        modes = [int(m) for m in rng.integers(0, 2, size=3)]
        keypairs = [entcf.gen(mode, width, rng) for mode in modes]
        prover = provers.HonestProver(seed=seed)
        images = prover.handle(_keys_message(keypairs, seed))
        ys = [hex_to_int(h, width + 1) for h in images["y"]]
        reply = prover.handle({"type": "ROUND_TYPE", "round": seed, "round_type": "hadamard"})
        ds = [hex_to_int(h, width) for h in reply["d"]]
        for kp, y, d, qubit in zip(keypairs, ys, ds, prover.final_states()):
            _, expected = dense_equation_branch(dense_commitment(kp.key, y), width, d)
            assert abs(qcore.fidelity(qubit, expected) - 1) < 1e-12


def dense_question_answers(states, q, rng):
    """Measure each qubit through the dense path: H when q = 1, then a Born draw."""
    out = []
    for state in states:
        if q == 1:
            state = qcore.apply_operator(qcore.hadamard(), state, [0])
        bits, post = qcore.measure_computational(state, [0], rng)
        out.append((bits[0], post))
    return out


@pytest.mark.parametrize("q", [0, 1])
def test_question_answers_match_dense_measurement(q):
    rng = np.random.default_rng(40 + q)
    for seed in range(40):
        keypairs = [entcf.gen(int(mode), 3, rng) for mode in rng.integers(0, 2, size=4)]
        prover = provers.HonestProver(seed=seed)
        prover.handle(_keys_message(keypairs, seed))
        prover.handle({"type": "ROUND_TYPE", "round": seed, "round_type": "hadamard"})
        oracle_rng = np.random.Generator(copy.deepcopy(prover._rng.bit_generator))
        expected = dense_question_answers(prover.final_states(), q, oracle_rng)
        reply = prover.handle({"type": "QUESTION", "round": seed, "q": q})
        assert reply["v"] == [bit for bit, _ in expected]
        assert prover.final_states() == qcore.BB84Product(tuple(reply["v"]), (q,) * len(keypairs))
        for factor, (_, dense_post) in zip(prover.final_states(), expected):
            if q == 1:  # the dense post-state is in the measured frame
                dense_post = qcore.apply_operator(qcore.hadamard(), dense_post, [0])
            assert abs(qcore.fidelity(factor, dense_post) - 1) < 1e-12
        # one draw per qubit on both paths: the streams are still in step
        assert prover._rng.random() == oracle_rng.random()


@pytest.mark.parametrize("prover_cls", [provers.HonestProver, provers.DelayedClassicalProver])
def test_preimage_answers_lie_in_dense_support(prover_cls):
    rng = np.random.default_rng(99)
    for seed in range(30):
        keypairs = [entcf.gen(mode, 3, rng) for mode in (entcf.INJECTIVE, entcf.CLAW_FREE)]
        prover = prover_cls(seed)
        images = prover.handle(_keys_message(keypairs, 0))
        reply = prover.handle({"type": "ROUND_TYPE", "round": 0, "round_type": "preimage"})
        for kp, h, pair in zip(keypairs, images["y"], reply["pairs"]):
            answer = (pair["b"], hex_to_int(pair["x"], 3))
            assert answer in entcf.preimage_table(kp.key)[hex_to_int(h, 4)]


def test_width16_honest_session_is_exact():
    cfg = protocol.MultiRoundConfig(n=2, m_blocks=2, delta=0.05, width=16, seed=5)
    result = protocol.run_multi_round(cfg, provers.HonestProver(seed=5))
    assert result.accepted
    for state, theta, v in zip(result.prover_final_state, result.theta_vec, result.v_vec):
        expected = qcore.StateVector.basis_state([v])
        if theta:
            expected = qcore.apply_operator(qcore.hadamard(), expected, [0])
        assert abs(qcore.fidelity(state, expected) - 1) < 1e-10
    assert transcript.replay(result.transcript).ok
