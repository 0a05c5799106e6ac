"""Quantum core: states, operators, measurement, distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrsp import qcore

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ket(*bits):
    return qcore.StateVector.basis_state(list(bits))


def plus_state():
    return qcore.apply_operator(qcore.hadamard(), ket(0), [0])


class TestStateConstruction:
    def test_basis_state_indexing(self):
        # qubit 0 is most significant: |01> has index 1, |10> has index 2
        assert np.argmax(np.abs(ket(0, 1).amplitudes)) == 1
        assert np.argmax(np.abs(ket(1, 0).amplitudes)) == 2

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            qcore.StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of two"):
            qcore.StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))

    def test_register_cap(self):
        with pytest.raises(ValueError, match="cap"):
            amps = np.zeros(2**21, dtype=complex)
            amps[0] = 1.0
            qcore.StateVector(amps)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qcore.DensityMatrix(np.array([[1.5, 0], [0, -0.5]], dtype=complex))
        with pytest.raises(ValueError, match="weight"):
            qcore.DensityMatrix(np.eye(2, dtype=complex) / 2, weight=0.7)

    def test_subnormalized_density_matrix(self):
        rho = qcore.DensityMatrix(0.25 * np.eye(2, dtype=complex) / 2, weight=0.25)
        assert rho.weight == 0.25
        assert rho.normalized().weight == 1.0

    def test_operator_flags_verified(self):
        qcore.LinearOperator(H, unitary=True)
        with pytest.raises(ValueError, match="unitary"):
            qcore.LinearOperator(2 * H, unitary=True)
        with pytest.raises(ValueError, match="projector"):
            qcore.LinearOperator(H, projector=True)

    def test_immutability(self):
        s = ket(0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.5


class TestTensorProduct:
    def test_computational_basis(self):
        out = qcore.tensor_product(ket(0), ket(1))
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_identity_operators(self):
        i2 = qcore.LinearOperator(np.eye(2, dtype=complex), unitary=True)
        out = qcore.tensor_product(i2, i2)
        assert np.allclose(out.entries, np.eye(4))
        assert out.unitary

    def test_plus_plus_direct_expansion(self):
        # oracle: expand (|0>+|1>)(|0>+|1>)/2 coefficient by coefficient
        expected = np.zeros(4, dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[2 * i + j] = 0.5
        out = qcore.tensor_product(plus_state(), plus_state())
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_kind_mismatch(self):
        with pytest.raises(TypeError):
            qcore.tensor_product(ket(0), qcore.hadamard())

    def test_qubit_counts_add(self):
        out = qcore.tensor_product(ket(0, 0), ket(1))
        assert out.qubit_count == 3


class TestKron:
    """qcore.kron against numpy's own Kronecker product as the oracle."""

    @staticmethod
    def factors(rng, count, shape, complex_):
        fs = []
        for i in range(count):
            f = rng.standard_normal(shape(i))
            if complex_:
                f = f + 1j * rng.standard_normal(shape(i))
            fs.append(f)
        return fs

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize(
        "shape",
        [lambda i: (i + 2,), lambda i: (2, 2), lambda i: (i + 1, 1), lambda i: (2, i + 1)],
        ids=["vector", "square", "column", "rectangular"],
    )
    def test_bit_identical_to_numpy(self, count, complex_, shape):
        import functools

        fs = self.factors(np.random.default_rng(count), count, shape, complex_)
        out = qcore.kron(*fs)
        expected = functools.reduce(np.kron, fs)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    def test_mixed_real_and_complex(self):
        import functools

        fs = [np.array([[1.0, -2.0], [0.5, 3.0]]), H, np.array([[0, 1j], [-1j, 0]])]
        assert np.array_equal(qcore.kron(*fs), functools.reduce(np.kron, fs))

    def test_mixed_ndims_rejected(self):
        with pytest.raises(ValueError, match="all vectors or all matrices"):
            qcore.kron(np.ones(2), np.eye(2))
        with pytest.raises(ValueError, match="all vectors or all matrices"):
            qcore.kron(np.eye(2), np.ones((2, 1)), np.ones(2))

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError, match="one or more"):
            qcore.kron()

    def test_package_has_one_kronecker_product(self):
        # every Kronecker product in the package goes through qcore.kron
        import pathlib
        import re

        import parrsp

        package = pathlib.Path(parrsp.__file__).parent
        offenders = [
            f"{path.name}:{i}"
            for path in sorted(package.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\b(np|numpy)\.kron\b", line)
        ]
        assert offenders == []


class TestSharedOperators:
    def test_validated_once_and_shared(self):
        for make in (qcore.hadamard, qcore.pauli_x, qcore.pauli_z):
            assert make() is make()
            assert make().unitary and not make().entries.flags.writeable


class TestApplyOperator:
    def test_hadamard_on_zero(self):
        assert np.allclose(plus_state().amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_pauli_z_on_plus(self):
        out = qcore.apply_operator(qcore.pauli_z(), plus_state(), [0])
        assert np.allclose(out.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_cnot(self):
        cnot = qcore.LinearOperator(
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
            unitary=True,
        )
        out = qcore.apply_operator(cnot, ket(1, 0), [0, 1])
        assert np.allclose(out.amplitudes, ket(1, 1).amplitudes)

    def test_density_matrix_conjugation(self):
        rho = plus_state().to_density()
        out = qcore.apply_operator(qcore.pauli_z(), rho, [0])
        minus = qcore.apply_operator(qcore.pauli_z(), plus_state(), [0]).to_density()
        assert np.allclose(out.entries, minus.entries)

    def test_target_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            qcore.apply_operator(qcore.hadamard(), ket(0), [1])
        with pytest.raises(ValueError, match="distinct"):
            qcore.apply_operator(
                qcore.LinearOperator(np.eye(4, dtype=complex)), ket(0, 0), [0, 0]
            )
        with pytest.raises(ValueError, match="dimension"):
            qcore.apply_operator(qcore.LinearOperator(np.eye(4, dtype=complex)), ket(0, 0), [0])

    def test_middle_qubit_of_three(self):
        out = qcore.apply_operator(qcore.pauli_x(), ket(0, 0, 0), [1])
        assert np.allclose(out.amplitudes, ket(0, 1, 0).amplitudes)

    def test_unordered_targets(self):
        # CNOT with control listed first, acting on (qubit 2, qubit 0)
        cnot = qcore.LinearOperator(
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
            unitary=True,
        )
        out = qcore.apply_operator(cnot, ket(0, 0, 1), [2, 0])
        assert np.allclose(out.amplitudes, ket(1, 0, 1).amplitudes)


class TestHadamardLayer:
    def test_zero_mask_is_identity(self):
        s = qcore.tensor_product(plus_state(), ket(1))
        out = qcore.hadamard_layer(s, (0, 0))
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_single_qubit(self):
        assert np.allclose(qcore.hadamard_layer(ket(0), (1,)).amplitudes, plus_state().amplitudes)

    def test_partial_mask_direct_expansion(self):
        # oracle for H(x)I |00>: amplitudes (1,0,1,0)/sqrt(2)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[2] = 1 / np.sqrt(2)
        out = qcore.hadamard_layer(ket(0, 0), (1, 0))
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mask length"):
            qcore.hadamard_layer(ket(0, 0), (1,))

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5, 6])
    def test_density_matches_kron_oracle(self, qubits):
        rng = np.random.default_rng(qubits)
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        dim = 2**qubits
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = qcore.DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        masks = {(0,) * qubits, (1,) * qubits}
        masks.update(tuple(int(b) for b in rng.integers(0, 2, size=qubits)) for _ in range(4))
        for mask in masks:
            layer = np.ones((1, 1), dtype=complex)
            for bit in mask:
                layer = np.kron(layer, h if bit else np.eye(2))
            out = qcore.hadamard_layer(rho, mask)
            assert isinstance(out, qcore.DensityMatrix)
            assert np.abs(out.entries - layer @ rho.entries @ layer).max() < 1e-12


class TestPauliString:
    def test_identity(self):
        assert np.allclose(qcore.pauli_string((0,), (0,)).entries, np.eye(2))

    def test_xz_product_oracle(self):
        # oracle: explicit 2x2 multiplication of sigma_X then sigma_Z
        sx = np.array([[0, 1], [1, 0]])
        sz = np.array([[1, 0], [0, -1]])
        assert np.allclose(qcore.pauli_string((1,), (1,)).entries, sx @ sz)
        assert np.allclose(qcore.pauli_string((1,), (1,)).entries, [[0, -1], [1, 0]])

    @pytest.mark.parametrize("n", [1, 2])
    def test_group_relation_exhaustive(self, n):
        # sigma_X(a) sigma_Z(b) sigma_X(a') sigma_Z(b') =
        #     (-1)^(a'.b) sigma_X(a+a') sigma_Z(b+b'), all tuples
        import itertools

        for a, b, a2, b2 in itertools.product(
            itertools.product((0, 1), repeat=n), repeat=4
        ):
            lhs = qcore.pauli_string(a, b).entries @ qcore.pauli_string(a2, b2).entries
            phase = (-1) ** (sum(x & y for x, y in zip(a2, b)) % 2)
            a_sum = tuple(x ^ y for x, y in zip(a, a2))
            b_sum = tuple(x ^ y for x, y in zip(b, b2))
            rhs = phase * qcore.pauli_string(a_sum, b_sum).entries
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            qcore.pauli_string((1, 0), (1,))


class TestMeasurement:
    def test_deterministic_zero(self):
        branches = qcore.enumerate_measurement(ket(0), [0])
        assert len(branches) == 1
        outcome, p, post = branches[0]
        assert outcome == (0,) and abs(p - 1.0) < 1e-12

    def test_plus_distribution(self):
        branches = qcore.enumerate_measurement(plus_state(), [0])
        dist = {o[0]: p for o, p, _ in branches}
        assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12

    def test_epr_projection_oracle(self):
        # oracle: project (|00>+|11>)/sqrt(2) on qubit 0 by hand
        epr = qcore.StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
        branches = qcore.enumerate_measurement(epr, [0])
        assert len(branches) == 2
        for outcome, p, post in branches:
            assert abs(p - 0.5) < 1e-12
            expected = ket(0, 0) if outcome == (0,) else ket(1, 1)
            assert np.allclose(post.amplitudes, expected.amplitudes)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = qcore.StateVector(amps / np.linalg.norm(amps))
            branches = qcore.enumerate_measurement(state, [0, 2])
            assert abs(sum(p for _, p, _ in branches) - 1.0) < 1e-10

    def test_zero_norm_branch_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            qcore.project_computational(ket(0), [0], [1])

    def test_sampled_measurement_reproducible(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        s = qcore.tensor_product(plus_state(), plus_state())
        assert qcore.measure_computational(s, [0, 1], rng1)[0] == qcore.measure_computational(
            s, [0, 1], rng2
        )[0]

    def test_measurement_on_density_matrix(self):
        rho = plus_state().to_density()
        branches = qcore.enumerate_measurement(rho, [0])
        assert {o[0]: round(p, 12) for o, p, _ in branches} == {0: 0.5, 1: 0.5}

    def test_outcome_order_follows_requested_targets(self):
        # measuring (qubit 1, qubit 0) of |01> reports bits in that order
        branches = qcore.enumerate_measurement(ket(0, 1), [1, 0])
        assert len(branches) == 1
        assert branches[0][0] == (1, 0)


class TestCheckedAtTheBoundary:
    """Norm checks run on caller input and non-unitary steps, not on steps
    whose result is normalised by construction."""

    def test_non_unitary_operator_still_validates(self):
        with pytest.raises(ValueError, match="norm"):
            qcore.apply_operator(qcore.LinearOperator(2 * np.eye(2)), ket(0), [0])
        project_zero = qcore.LinearOperator(np.diag([1.0, 0.0]), projector=True)
        with pytest.raises(ValueError, match="norm"):
            qcore.apply_operator(project_zero, plus_state(), [0])

    def test_unchecked_results_are_frozen_states(self):
        results = [
            plus_state(),
            qcore.project_computational(qcore.tensor_product(plus_state(), ket(1)), [0], [1]),
            qcore.BB84Product((1, 0, 1), (1, 1, 0)).to_state(),
        ]
        for state, qubits in zip(results, (1, 2, 3)):
            assert type(state) is qcore.StateVector and state.qubit_count == qubits
            assert not state.amplitudes.flags.writeable
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_born_index_is_one_clipped_choice(self):
        probs = np.array([0.25, -1e-18, 0.5, 0.25])
        for seed in range(20):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            clipped = np.clip(probs, 0.0, None)
            assert qcore.born_index(probs, ours) == theirs.choice(4, p=clipped / clipped.sum())
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert qcore.born_index(probs, ours) != 1


class TestBB84Product:
    def test_dense_forms_and_qubits(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            bits, bases = (tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(2))
            prod = qcore.BB84Product(bits, bases)
            dense = qcore.hadamard_layer(qcore.StateVector.basis_state(bits), bases)
            assert np.allclose(prod.to_state().amplitudes, dense.amplitudes, atol=1e-15)
            assert np.allclose(prod.to_density().entries, dense.to_density().entries, atol=1e-15)
            assert len(prod) == n and prod[1:] == qcore.BB84Product(bits[1:], bases[1:])
            for i, qubit in enumerate(prod):
                single = qcore.hadamard_layer(qcore.StateVector.basis_state([bits[i]]), (bases[i],))
                assert np.allclose(qubit.amplitudes, single.amplitudes, atol=1e-15)
        assert qcore.fidelity(qcore.BB84Product((1,), (1,)), qcore.hadamard_layer(ket(1), (1,))) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            qcore.BB84Product((0, 1), (1,))
        with pytest.raises(ValueError, match="bit vectors"):
            qcore.BB84Product((2,), (0,))
        with pytest.raises(ValueError, match="does not match"):
            qcore.BB84Product((0,), (0,)).measure((0, 1), 0.5)
        with pytest.raises(ValueError, match="uniform draw"):
            qcore.BB84Product((0,), (0,)).measure((1,))

    def test_measure_is_the_dense_draw(self):
        # one rng.random() read as the digits of floor(u 2^k) picks the
        # outcome rng.choice picks from the same stream on the dense state
        rng = np.random.default_rng(22)
        for seed in range(300):
            n = int(rng.integers(1, 6))
            bits, bases, measured = (tuple(int(b) for b in rng.integers(0, 2, size=n)) for _ in range(3))
            prod = qcore.BB84Product(bits, bases)
            rng_product, rng_dense = np.random.default_rng(seed), np.random.default_rng(seed)
            outcome = prod.measure(measured, rng_product.random() if bases != measured else None)
            rotated = qcore.hadamard_layer(prod.to_state(), measured)
            assert outcome == qcore.sample_outcome(rotated, range(n), rng_dense)
            assert rng_product.bit_generator.state == rng_dense.bit_generator.state


class TestDistances:
    def test_self_distance_zero(self):
        rho = plus_state().to_density()
        assert qcore.trace_distance(rho, rho) < 1e-14

    def test_orthogonal_states(self):
        assert abs(qcore.trace_distance(ket(0).to_density(), ket(1).to_density()) - 1.0) < 1e-12

    def test_zero_vs_plus_eigenvalue_oracle(self):
        # oracle: eigenvalues of the 2x2 difference are +-1/sqrt(2)
        diff = ket(0).to_density().entries - plus_state().to_density().entries
        eigs = np.linalg.eigvalsh(diff)
        oracle = 0.5 * np.sum(np.abs(eigs))
        assert abs(oracle - 1 / np.sqrt(2)) < 1e-12
        d = qcore.trace_distance(ket(0).to_density(), plus_state().to_density())
        assert abs(d - oracle) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            qcore.trace_distance(ket(0).to_density(), ket(0, 0).to_density())

    def test_fidelity_pure_states(self):
        assert abs(qcore.fidelity(ket(0), plus_state()) - 0.5) < 1e-12
        assert abs(qcore.fidelity(ket(0), ket(0)) - 1.0) < 1e-12

    def test_fidelity_mixed(self):
        mixed = qcore.DensityMatrix(np.eye(2) / 2)
        assert abs(qcore.fidelity(ket(0).to_density(), mixed) - 0.5) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), qubits=st.integers(1, 4))
def test_unitary_preserves_norm(seed, qubits):
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = qcore.StateVector(amps / np.linalg.norm(amps))
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    out = qcore.apply_operator(qcore.LinearOperator(u, unitary=True), state, range(qubits))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
