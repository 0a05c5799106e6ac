"""One-time pad, state-preparation binding, reference evaluator."""

import itertools

import numpy as np
import pytest

from parrsp import delegation as dl
from parrsp import qcore
from parrsp.provers import AlwaysWrongProver, HonestProver


def circuit_of(n, *gate_specs):
    return dl.Circuit(n, tuple(dl.Gate(name, tuple(targets)) for name, targets in gate_specs))


def circuit_json(circuit):
    """The JSON object `Circuit.from_json` reads, as a circuit file holds it."""
    return {
        "n": circuit.qubit_count,
        "gates": [{"gate": g.name, "targets": list(g.targets)} for g in circuit.gates],
    }


class TestOtp:
    def test_zero_key_identity(self):
        assert dl.otp_enc((0, 0, 0), (1, 0, 1)) == (1, 0, 1)

    def test_double_application_identity(self):
        key, m = (1, 0, 1), (0, 1, 1)
        assert dl.otp_dec(key, dl.otp_enc(key, m)) == m

    def test_ciphertext_marginal_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(2)
        n_draws = 10_000
        for _ in range(n_draws):
            key = tuple(int(b) for b in rng.integers(0, 2, size=1))
            counts[dl.otp_enc(key, (1,))[0]] += 1
        sigma = np.sqrt(n_draws * 0.25)
        assert abs(counts[0] - n_draws / 2) < 4 * sigma

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dl.otp_enc((0, 1), (1,))


class TestCircuit:
    def test_gate_validation(self):
        with pytest.raises(ValueError, match="outside the supported set"):
            dl.Gate("RX", (0,))
        with pytest.raises(ValueError, match="target"):
            dl.Gate("CNOT", (0,))
        with pytest.raises(ValueError, match="out of range"):
            circuit_of(1, ("CNOT", (0, 1)))

    def test_json_roundtrip(self):
        c = circuit_of(2, ("H", (0,)), ("T", (0,)), ("CNOT", (0, 1)))
        assert dl.Circuit.from_json(circuit_json(c)) == c

    def test_t_count(self):
        c = circuit_of(1, ("T", (0,)), ("H", (0,)), ("T", (0,)))
        assert c.t_count == 2

    def test_apply_matches_manual(self):
        c = circuit_of(2, ("H", (0,)), ("CNOT", (0, 1)))
        out = c.apply(qcore.StateVector.basis_state((0, 0)))
        assert np.allclose(out.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestQcedPipeline:
    def test_zero_t_circuit_skips_stateprep(self):
        c = circuit_of(1, ("X", (0,)))
        keys = dl.qced_setup(c, 1, np.random.default_rng(0))
        assert keys.rsp_config is None
        bound, states = dl.qced_stateprep(keys, prover=None)
        assert bound.sk_comp == ((), ()) and states == []

    def test_stateprep_binds_outputs(self):
        c = circuit_of(2, ("T", (0,)), ("T", (1,)), ("CNOT", (0, 1)))
        keys = dl.qced_setup(c, 2, np.random.default_rng(1))
        assert keys.rsp_config.n == 2
        bound, states = dl.qced_stateprep(keys, HonestProver(seed=1))
        v, theta = bound.sk_comp
        assert len(v) == 2 and len(theta) == 2
        for vi, ti, state in zip(v, theta, states):
            target = qcore.StateVector.basis_state([vi])
            if ti:
                target = qcore.apply_operator(qcore.hadamard(), target, [0])
            assert qcore.fidelity(state, target) > 1 - 1e-9

    def test_abort_propagates(self):
        c = circuit_of(1, ("T", (0,)))
        aborted = False
        for seed in range(40):
            keys = dl.qced_setup(c, 1, np.random.default_rng(seed), m_blocks=4, delta=0.1)
            bound, states = dl.qced_stateprep(keys, AlwaysWrongProver(seed=seed))
            if bound is None:
                assert states is None
                aborted = True
                break
        assert aborted

    def test_identity_circuit(self):
        c = dl.Circuit(2, ())
        rng = np.random.default_rng(2)
        keys = dl.qced_setup(c, 2, rng)
        bound, _ = dl.qced_stateprep(keys, None)
        m = (1, 0)
        ct = dl.otp_enc(bound.sk_in, m)
        sk_star, ct_star = dl.qced_evaluate_reference(bound, c, ct, rng)
        assert dl.qced_dec(sk_star, ct_star) == m

    def test_x_circuit(self):
        c = circuit_of(2, ("X", (0,)))
        rng = np.random.default_rng(3)
        keys = dl.qced_setup(c, 2, rng)
        bound, _ = dl.qced_stateprep(keys, None)
        m = (1, 1)
        ct = dl.otp_enc(bound.sk_in, m)
        sk_star, ct_star = dl.qced_evaluate_reference(bound, c, ct, rng)
        assert dl.qced_dec(sk_star, ct_star) == (0, 1)

    def test_all_short_single_qubit_circuits(self):
        # end-to-end pipeline equals direct simulation, distributionally
        gates_1q = ["X", "Z", "H", "S", "T"]
        circuits = [()]
        circuits += [((g, (0,)),) for g in gates_1q]
        circuits += [((g1, (0,)), (g2, (0,))) for g1 in gates_1q for g2 in gates_1q]
        rng = np.random.default_rng(4)
        for spec in circuits:
            c = circuit_of(1, *spec)
            for m in [(0,), (1,)]:
                keys = dl.qced_setup(c, 1, rng, m_blocks=1)
                bound, _ = dl.qced_stateprep(keys, HonestProver(seed=0))
                ct = dl.otp_enc(bound.sk_in, m)
                dist = dl.qced_output_distribution(bound, c, ct)
                direct = {
                    o: p
                    for o, p, _ in qcore.enumerate_measurement(
                        c.apply(qcore.StateVector.basis_state(m)), range(1)
                    )
                }
                assert set(dist) == set(direct)
                for key in dist:
                    assert abs(dist[key] - direct[key]) < 1e-12

    def test_random_clifford_circuits_match_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gates = []
            for _ in range(6):
                name = ["X", "Z", "H", "S", "CNOT"][int(rng.integers(0, 5))]
                if name == "CNOT":
                    a, b = rng.choice(3, size=2, replace=False)
                    gates.append(("CNOT", (int(a), int(b))))
                else:
                    gates.append((name, (int(rng.integers(0, 3)),)))
            c = circuit_of(3, *gates)
            m = tuple(int(b) for b in rng.integers(0, 2, size=3))
            keys = dl.qced_setup(c, 3, rng, m_blocks=1)
            bound, _ = dl.qced_stateprep(keys, HonestProver(seed=1))
            ct = dl.otp_enc(bound.sk_in, m)
            dist = dl.qced_output_distribution(bound, c, ct)
            direct = {
                o: p
                for o, p, _ in qcore.enumerate_measurement(
                    c.apply(qcore.StateVector.basis_state(m)), range(3)
                )
            }
            assert set(dist) == set(direct)
            for key in dist:
                assert abs(dist[key] - direct[key]) < 1e-12

    def test_prover_visible_data_independent_of_message(self):
        # the ciphertext distribution over pads is exactly uniform for every
        # message, and the transcript never touches the message at all
        c = circuit_of(2, ("T", (0,)), ("T", (1,)))
        for m in [(0, 0), (1, 1)]:
            counts = {}
            for sk_int in range(4):
                sk = ((sk_int >> 1) & 1, sk_int & 1)
                ct = dl.otp_enc(sk, m)
                counts[ct] = counts.get(ct, 0) + 1
            assert set(counts.values()) == {1} and len(counts) == 4
        transcripts = []
        for m in [(0, 0), (1, 1)]:
            keys = dl.qced_setup(c, 2, np.random.default_rng(77))
            bound, _ = dl.qced_stateprep(keys, HonestProver(seed=9))
            transcripts.append(bound.transcript.to_bytes())
        assert transcripts[0] == transcripts[1]
