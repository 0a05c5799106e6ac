"""Device formalism and the numerical rigidity checks."""

import itertools

import numpy as np
import pytest

import diag_oracle as oracle
from parrsp import diagnostics as dg
from parrsp import entcf, qcore


@pytest.fixture(scope="module")
def dev1():
    return dg.device_from_honest(1, 2, np.random.default_rng(101))


@pytest.fixture(scope="module")
def dev2():
    return dg.device_from_honest(2, 2, np.random.default_rng(202))


class TestDeviceConstruction:
    def test_structure_gaps(self, dev2):
        report = dg.validate_device(dev2)
        assert report["state_normalization_gap"] < 1e-10
        assert report["question_projectivity_gap"] < 1e-10
        assert report["equation_kraus_gap"] < 1e-10
        assert report["preimage_projectivity_gap"] < 1e-10

    def test_injective_blocks_are_decoded_basis_states(self, dev1):
        # oracle: each block must be |b_hat><b_hat| at the decoded bit
        blocks = oracle.psi_blocks(dev1, (0,))
        kp = dev1.keypairs[entcf.INJECTIVE][0]
        assert len(blocks) == 8  # all (w+1)-bit images reachable
        for (y,), block in blocks.items():
            b_hat = entcf.decode_b(kp.trapdoor, y)
            expected = np.zeros((2, 2), dtype=complex)
            expected[b_hat, b_hat] = 1 / 8
            assert np.allclose(block, expected, atol=1e-12)

    def test_clawfree_blocks_are_claw_superpositions(self, dev1):
        blocks = oracle.psi_blocks(dev1, (1,))
        assert len(blocks) == 4  # half the images carry claws
        plus = np.full((2, 2), 0.25, dtype=complex)
        for _, block in blocks.items():
            assert np.allclose(block, plus / 4 * 2, atol=1e-12)  # weight 1/4, |+><+|

    def test_block_traces_sum_to_one_every_theta(self, dev2):
        for theta in itertools.product((0, 1), repeat=2):
            total = sum(np.trace(b).real for b in oracle.psi_blocks(dev2, theta).values())
            assert abs(total - 1.0) < 1e-10

    def test_dimension_guards(self):
        rng = np.random.default_rng(0)
        for n in (0, dg.MAX_DIAG_COPIES + 1):
            with pytest.raises(ValueError, match="copies"):
                dg.device_from_honest(n, 2, rng)
        with pytest.raises(ValueError, match="width"):
            dg.device_from_honest(2, dg.MAX_DIAG_WIDTH + 1, rng)


class TestSigmaStates:
    def test_partition_identity(self, dev2):
        # sigma^(theta,0,a) + sigma^(theta,1,a) = sigma^(theta) blockwise
        theta = (1, 0)
        full = oracle.sigma_state(dev2, theta)
        for a in itertools.product((0, 1), repeat=2):
            p0 = oracle.partial_sigma(dev2, theta, 0, a)
            p1 = oracle.partial_sigma(dev2, theta, 1, a)
            for key, block in full.blocks.items():
                combined = p0.blocks.get(key, 0) + p1.blocks.get(key, 0)
                assert np.max(np.abs(combined - block)) < 1e-12

    def test_zero_vector_degenerate(self, dev2):
        theta = (0, 1)
        full_trace = oracle.sigma_state(dev2, theta).total_trace()
        p0 = oracle.partial_sigma(dev2, theta, 0, (0, 0))
        p1 = oracle.partial_sigma(dev2, theta, 1, (0, 0))
        assert abs(p0.total_trace() - full_trace) < 1e-12
        assert p1.total_trace() < 1e-14

    def test_partial_trace_matches_key_enumeration(self, dev1):
        # oracle: Pr[b_hat = v] counted over the image points directly
        kp = dev1.keypairs[entcf.INJECTIVE][0]
        counts = {0: 0, 1: 0}
        for y in range(8):
            counts[entcf.decode_b(kp.trapdoor, y)] += 1
        for v in (0, 1):
            part = oracle.partial_sigma(dev1, (0,), v, (1,))
            assert abs(part.total_trace() - counts[v] / 8) < 1e-12

    def test_sigma_total_is_normalized(self, dev2):
        for theta in [(0, 0), (1, 1), (0, 1)]:
            assert abs(oracle.sigma_state(dev2, theta).total_trace() - 1.0) < 1e-10


class TestGammas:
    def test_honest_is_exactly_zero(self, dev2):
        gamma_p, gamma_h = dg.gammas(dev2)
        assert gamma_p < 1e-12 and gamma_h < 1e-12

    def test_full_perturbation(self, dev2):
        p = dg.perturb_device(dev2, 1.0)
        gamma_p, gamma_h = dg.gammas(p)
        assert gamma_p < 1e-12  # preimage measurement untouched
        assert abs(gamma_h - (1 - 2**-2)) < 1e-10

    def test_linear_in_epsilon(self, dev1):
        for eps in (0.1, 0.5, 0.9):
            _, gamma_h = dg.gammas(dg.perturb_device(dev1, eps))
            assert abs(gamma_h - eps * 0.5) < 1e-10

    def test_monotone_sweep(self, dev1):
        values = [dg.gammas(dg.perturb_device(dev1, e))[1] for e in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_perturb_validation(self, dev1):
        with pytest.raises(ValueError):
            dg.perturb_device(dev1, 1.5)
        with pytest.raises(ValueError, match="unperturbed"):
            dg.perturb_device(dg.perturb_device(dev1, 0.5), 0.5)

    def test_epsilon_zero_is_same_device(self, dev1):
        assert dg.perturb_device(dev1, 0.0) is dev1


class TestObservables:
    def test_z_zero_vector_is_identity(self, dev2):
        z = oracle.dense(dev2, dev2.observable_matrix("Z", (0, 0)))
        assert np.allclose(z, np.eye(oracle.block_dim(dev2)))

    def test_honest_z_is_diagonal_pm_one(self, dev1):
        z = oracle.dense(dev1, dev1.observable_matrix("Z", (1,)))
        assert np.allclose(z, np.diag([1, -1]))

    def test_observables_are_involutions(self, dev2):
        pdev = dg.perturb_device(dev2, 0.3)
        for device in (dev2, pdev):
            for kind in ("Z", "X"):
                for a in itertools.product((0, 1), repeat=2):
                    m = oracle.dense(device, device.observable_matrix(kind, a))
                    assert np.allclose(m @ m, np.eye(oracle.block_dim(device)), atol=1e-10)

    def test_xtilde_blockwise_involution(self, dev2):
        spec = oracle.ObservableSpec("Xtilde", (1, 1))
        obs = oracle.observable(dev2, spec)
        sigma = oracle.sigma_state(dev2, (1, 1))
        for (y, d) in list(sigma.blocks)[:5]:
            m = obs.matrix_for((1, 1), y, d)
            assert np.allclose(m @ m, np.eye(oracle.block_dim(dev2)), atol=1e-10)

    def test_xtilde_requires_clawfree_copy(self, dev2):
        obs = oracle.observable(dev2, oracle.ObservableSpec("Xtilde", (1, 0)))
        with pytest.raises(ValueError, match="claw-free"):
            obs.matrix_for((0, 1), ((0, 0)), ((0, 0)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            oracle.ObservableSpec("Y", (1,))


class TestSuccessRelations:
    def test_honest_gaps_vanish(self, dev2):
        report = dg.success_relations_report(dev2)
        assert report["max_gap"] < 1e-10

    def test_zero_vector_rows_identically_satisfied(self, dev2):
        report = dg.success_relations_report(dev2)
        for row in report["rows"]["z"]:
            if row["a"] == [0, 0]:
                assert row["gap"] < 1e-14

    def test_perturbed_xtilde_gap_tracks_gamma(self, dev1):
        # gap equals eps while gamma_H = eps/2; measured ratio stays <= 4
        for eps in (0.2, 0.6):
            p = dg.perturb_device(dev1, eps)
            report = dg.success_relations_report(p)
            xtilde_gap = max(r["gap"] for r in report["rows"]["xtilde"])
            _, gamma_h = dg.gammas(p)
            assert xtilde_gap <= 4 * gamma_h + 1e-12

    def test_perturbed_gap_monotone_sweep(self, dev1):
        gaps = [
            dg.success_relations_report(dg.perturb_device(dev1, e))["max_gap"]
            for e in np.linspace(0.0, 1.0, 11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] < 1e-10


class TestPauliRelations:
    @pytest.mark.parametrize("n", [1, 2])
    def test_honest_grid(self, n):
        device = dg.device_from_honest(n, 2, np.random.default_rng(n))
        for a in itertools.product((0, 1), repeat=n):
            for b in itertools.product((0, 1), repeat=n):
                value = oracle.pauli_relation_value(device, a, b)
                expected = (-1) ** (sum(x & y for x, y in zip(a, b)) % 2)
                assert abs(value - expected) < 1e-9

    def test_zero_string_exact_one(self, dev2):
        assert oracle.pauli_relation_value(dev2, (0, 0), (0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_helper_matches_pointwise(self, dev2):
        grid = dg.pauli_relation_grid(dev2)
        assert grid["max_deviation"] < 1e-9
        for entry in grid["entries"]:
            direct = oracle.pauli_relation_value(dev2, tuple(entry["a"]), tuple(entry["b"]))
            assert abs(direct - complex(entry["value_re"], entry["value_im"])) < 1e-12

    def test_perturbed_value_scaling(self, dev1):
        # n=1, a=b=1: value = -(1-eps) + eps = -1 + 2 eps
        eps = 0.1
        p = dg.perturb_device(dev1, eps)
        value = oracle.pauli_relation_value(p, (1,), (1,))
        assert abs(value - (-1 + 2 * eps)) < 1e-10
        _, gamma_h = dg.gammas(p)
        assert abs(value - (-1)) <= 4 * gamma_h ** 0.25

    def test_perturbed_monotone_sweep(self, dev1):
        values = [
            abs(oracle.pauli_relation_value(dg.perturb_device(dev1, e), (1,), (1,)) - (-1))
            for e in np.linspace(0, 1, 11)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] < 1e-10


class TestAnticommutation:
    def test_honest_minus_one(self, dev2):
        for i in range(2):
            assert abs(dg.anticommutation_value(dev2, i) - (-1)) < 1e-9

    def test_fully_randomized_is_zero(self, dev1):
        p = dg.perturb_device(dev1, 1.0)
        assert abs(dg.anticommutation_value(p, 0)) < 1e-10

    def test_reduces_to_pauli_relation_at_n1(self, dev1):
        anticomm = dg.anticommutation_value(dev1, 0)
        pauli = oracle.pauli_relation_value(dev1, (1,), (1,))
        assert abs(anticomm - pauli) < 1e-9

    def test_index_validation(self, dev1):
        with pytest.raises(ValueError):
            dg.anticommutation_value(dev1, 3)


class TestRoundingIsometry:
    @pytest.mark.parametrize("n", [1, 2])
    def test_isometry_property_blockwise(self, n):
        device = dg.device_from_honest(n, 2, np.random.default_rng(10 + n))
        theta1 = (1,) * n
        for use_tilde in (False, True):
            iso = oracle.rounding_isometry(device, use_tilde)
            sigma = oracle.sigma_state(device, theta1)
            eye = np.eye(oracle.block_dim(device))
            for key in list(sigma.blocks)[:8]:
                v = iso.matrix_for(theta1, key[0], key[1])
                assert np.max(np.abs(v.conj().T @ v - eye)) < 1e-9

    def test_tilde_relation(self, dev2):
        assert dg.isometry_relation_gap(dev2) < 1e-10

    def test_relation_on_perturbed_device(self, dev1):
        # the sign-correction identity is representation-level: it holds
        # for any device, perturbed or not
        p = dg.perturb_device(dev1, 0.4)
        assert dg.isometry_relation_gap(p) < 1e-10

    def test_isometry_property_on_perturbed_device(self, dev1):
        # perturbed observables are still involutions, so V stays an isometry
        p = dg.perturb_device(dev1, 0.4)
        sigma = oracle.sigma_state(p, (1,))
        eye = np.eye(oracle.block_dim(p))
        for use_tilde in (False, True):
            iso = oracle.rounding_isometry(p, use_tilde)
            for key in list(sigma.blocks)[:4]:
                v = iso.matrix_for((1,), key[0], key[1])
                assert np.max(np.abs(v.conj().T @ v - eye)) < 1e-9

    def test_copies_guard(self):
        device = dg.device_from_honest(3, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="2 copies"):
            dg.rounding_isometry(device, False)

    def test_terms_built_once_per_device(self, monkeypatch):
        # the 4^2 terms need 4 X(a) and 16 Z(b) observables, whatever the
        # number of isometries built from them
        calls = []
        observable_matrix = dg.Device.observable_matrix

        def counted(self, kind, a):
            calls.append((kind, tuple(a)))
            return observable_matrix(self, kind, a)

        monkeypatch.setattr(dg.Device, "observable_matrix", counted)
        device = dg.device_from_honest(2, 2, np.random.default_rng(7))
        dg.isometry_relation_gap(device)
        for theta in itertools.product((0, 1), repeat=2):
            dg.bb84_report(device, theta)
        assert len(calls) == 20
        iso = dg.rounding_isometry(device, use_tilde=True)
        assert iso.base_terms is dg.rounding_isometry(device, use_tilde=False).base_terms
        assert all(not column.flags.writeable for _, columns in iso.base_terms for column in columns)


class TestBb84Form:
    def test_honest_every_theta(self, dev2):
        for theta in itertools.product((0, 1), repeat=2):
            report = dg.bb84_report(dev2, theta)
            assert report["max_distance"] < 1e-8
            assert abs(sum(r["weight"] for r in report["per_v"]) - 1.0) < 1e-10

    def test_honest_alpha_spread_vanishes(self, dev1):
        report = dg.bb84_report(dev1, (1,))
        assert report["alpha_spread"] < 1e-9

    def test_perturbed_distance_monotone_sweep(self, dev1):
        values = [
            dg.bb84_report(dg.perturb_device(dev1, e), (1,))["max_distance"]
            for e in np.linspace(0.0, 1.0, 11)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] < 1e-9 and values[-1] > 0.1


def test_accept_reject_two_code_paths(dev2):
    out = oracle.accept_reject_consistency(dev2)
    for theta in (0, 1):
        assert out[theta]["gap"] < 1e-10


def test_accept_reject_consistency_perturbed(dev1):
    out = oracle.accept_reject_consistency(dg.perturb_device(dev1, 0.35))
    for theta in (0, 1):
        assert out[theta]["gap"] < 1e-10


class TestDeviceMatchesSimulatedProver:
    """The analytic device blocks must agree with the straight simulation."""

    def test_post_commit_states_and_weights(self):
        rng = np.random.default_rng(77)
        device = dg.device_from_honest(1, 2, rng)
        w = device.width
        for mode in (entcf.INJECTIVE, entcf.CLAW_FREE):
            kp = device.keypairs[mode][0]
            table = entcf.preimage_table(kp.key)
            blocks = oracle.psi_blocks(device, (mode,))
            # same support and the same commitment weights
            assert set(y for (y,) in blocks) == set(table)
            for (y,), block in blocks.items():
                preimages = table[y]
                assert abs(np.trace(block).real - len(preimages) / 2 ** (w + 1)) < 1e-12
                # the simulated prover state, compressed onto the claw basis
                amps = np.zeros(2 ** (w + 1), dtype=complex)
                for b, x in preimages:
                    amps[(b << w) | x] = 1 / np.sqrt(len(preimages))
                compressed = np.zeros(2, dtype=complex)
                for b in (0, 1):
                    x_hat = entcf.decode_x(kp.trapdoor, y, b)
                    if x_hat is not None:
                        compressed[b] = amps[(b << w) | x_hat]
                expected = np.outer(compressed, compressed.conj())
                normalized = block / np.trace(block).real
                assert np.max(np.abs(normalized - expected)) < 1e-12

    def test_post_equation_states_match_prover_qubit(self):
        rng = np.random.default_rng(78)
        device = dg.device_from_honest(1, 2, rng)
        w = device.width
        kp = device.keypairs[entcf.CLAW_FREE][0]
        sigma = oracle.sigma_state(device, (1,))
        for ((y,), (d,)), block in list(sigma.blocks.items())[:8]:
            # simulate: claw superposition, Hadamard the preimage register,
            # project on outcome d, read off the committed qubit
            x0 = entcf.decode_x(kp.trapdoor, y, 0)
            x1 = entcf.decode_x(kp.trapdoor, y, 1)
            amps = np.zeros(2 ** (w + 1), dtype=complex)
            amps[(0 << w) | x0] = amps[(1 << w) | x1] = 1 / np.sqrt(2)
            state = qcore.StateVector(amps)
            rotated = qcore.hadamard_layer(state, (0,) + (1,) * w)
            post = qcore.project_computational(
                rotated, range(1, w + 1), qcore.index_to_bits(d, w)
            )
            qubit = post.amplitudes.reshape(2, 2**w)[:, d]
            expected = np.outer(qubit, qubit.conj())
            normalized = block / np.trace(block).real
            assert np.max(np.abs(normalized - expected)) < 1e-12


def test_key_averaging_option(dev1):
    # averaging diagnostics over sampled key tuples keeps honest exactness
    rng = np.random.default_rng(55)
    values = [dg.anticommutation_value(dg.device_from_honest(1, 2, rng), 0) for _ in range(32)]
    assert abs(float(np.mean(values)) - (-1)) < 1e-9


class TestClassFormMatchesBlockLoop:
    """The class-form diagnostics against the per-(y, d) block loops.

    The oracle (`diag_oracle`) rebuilds sigma the way the diagnostics first
    did, from the post-commitment blocks and the compressed Kraus factors,
    with the ancilla as a tensor factor, and then evaluates every quantity
    one (y, d) block at a time with dense operators on the enlarged space.
    """

    @staticmethod
    def kraus_blocks(device, theta):
        anc = np.diag(device.anc_probs).astype(complex)
        d, a = device.committed_dim, device.anc_dim
        blocks = {}
        for y_vec, block in oracle.psi_blocks(device, theta).items():
            committed = np.einsum("ikjk->ij", block.reshape(d, a, d, a))
            for d_vec in itertools.product(range(2**device.width), repeat=device.n):
                k = np.eye(1, dtype=complex)
                for i, (y, dd) in enumerate(zip(y_vec, d_vec)):
                    k = np.kron(k, device.copy_kraus(theta[i], i, y, dd))
                blocks[(y_vec, d_vec)] = np.kron(k @ committed @ k.conj().T, anc)
        return blocks

    @pytest.fixture(
        scope="class",
        params=[(n, eps) for n in (1, 2) for eps in (0.1, 0.3, 1.0)],
        ids=lambda p: f"n{p[0]}-eps{p[1]}",
    )
    def device(self, request):
        n, eps = request.param
        return dg.perturb_device(dg.device_from_honest(n, 2, np.random.default_rng(500 + n)), eps)

    def test_sigma_blocks_match_kraus_construction(self, device):
        for theta in itertools.product((0, 1), repeat=device.n):
            kraus = self.kraus_blocks(device, theta)
            blocks = oracle.sigma_state(device, theta).blocks
            assert blocks.keys() == kraus.keys()
            assert max(np.max(np.abs(blocks[k] - kraus[k])) for k in kraus) < 1e-12

    def test_bb84_report(self, device):
        # the rounded blocks of the oracle are 4^n * block_dim wide; n = 2
        # keeps to the all-claw-free basis to bound the number of SVDs
        thetas = itertools.product((0, 1), repeat=device.n) if device.n == 1 else [(1, 1)]
        for theta in thetas:
            v_iso = oracle.rounding_isometry(device, use_tilde=False)
            q_dim = 2**device.n
            report = dg.bb84_report(device, theta)
            for row in report["per_v"]:
                v_vec = tuple(row["v"])
                ket = np.eye(1, dtype=complex)
                for t, v in zip(theta, v_vec):
                    e = np.eye(2, dtype=complex)[:, [v]]
                    ket = np.kron(ket, qcore.hadamard().entries @ e if t else e)
                bb84 = ket @ ket.conj().T
                distance = weight = 0.0
                for (y_vec, d_vec), block in oracle.sigma_for_v(device, theta, v_vec).blocks.items():
                    v_mat = v_iso.matrix_for(theta, y_vec, d_vec)
                    rho = v_mat @ block @ v_mat.conj().T
                    rest = rho.shape[0] // q_dim
                    alpha = np.einsum("ikjk->ij", rho.reshape(rest, q_dim, rest, q_dim))
                    distance += 0.5 * qcore.trace_norm(rho - np.kron(alpha, bb84))
                    weight += float(np.trace(block).real)
                assert abs(row["trace_distance"] - distance) < 1e-10
                assert abs(row["weight"] - weight) < 1e-10

    def test_anticommutation(self, device):
        for i in range(device.n):
            theta = tuple(int(j == i) for j in range(device.n))
            z = oracle.observable_matrix(device, "Z", theta)
            x = oracle.observable_matrix(device, "X", theta)
            expected = sum(
                (-1.0) ** device.copy_u(i, d_vec[i]) * np.trace(z @ x @ z @ block).real
                for (_, d_vec), block in oracle.sigma_state(device, theta).blocks.items()
            )
            assert abs(dg.anticommutation_value(device, i) - expected) < 1e-10

    def test_success_relation_rows(self, device):
        n = device.n
        theta0, theta1 = (0,) * n, (1,) * n
        sigma0, sigma1 = oracle.sigma_state(device, theta0), oracle.sigma_state(device, theta1)
        eye = np.eye(oracle.block_dim(device))
        rows = dg.success_relations_report(device)["rows"]
        z_rows, x_rows, xt_rows = iter(rows["z"]), iter(rows["x"]), iter(rows["xtilde"])
        for a in itertools.product((0, 1), repeat=n):
            z = oracle.observable_matrix(device, "Z", a)
            x = oracle.observable_matrix(device, "X", a)
            for v in (0, 1):
                for sigma, theta, obs, row in ((sigma0, theta0, z, next(z_rows)), (sigma1, theta1, x, next(x_rows))):
                    proj = 0.5 * (eye + (-1.0) ** v * obs)
                    lhs = rhs = 0.0
                    for (y_vec, d_vec), block in sigma.blocks.items():
                        decoded = oracle.decode_block(device, theta, y_vec, d_vec)
                        if sum(p & q for p, q in zip(decoded, a)) % 2 == v:
                            lhs += np.trace(proj @ block).real
                            rhs += np.trace(block).real
                    assert abs(row["lhs"] - lhs) < 1e-10 and abs(row["rhs"] - rhs) < 1e-10
            lhs = sum(
                (-1.0) ** oracle.u_vector(device, theta1, d_vec, a) * np.trace(x @ block).real
                for (_, d_vec), block in sigma1.blocks.items()
            )
            assert abs(next(xt_rows)["lhs"] - lhs) < 1e-10

    def test_isometry_relation_gap(self, device):
        n = device.n
        theta1 = (1,) * n
        v_iso = oracle.rounding_isometry(device, use_tilde=False)
        vt_iso = oracle.rounding_isometry(device, use_tilde=True)
        worst = 0.0
        for (y_vec, d_vec) in oracle.sigma_state(device, theta1).blocks:
            u_vec = tuple(device.copy_u(i, d_vec[i]) for i in range(n))
            sz_u = qcore.pauli_string((0,) * n, u_vec).entries
            corr = np.kron(np.eye(oracle.block_dim(device)), np.kron(sz_u, sz_u))
            gap = np.linalg.norm(
                v_iso.matrix_for(theta1, y_vec, d_vec) - corr @ vt_iso.matrix_for(theta1, y_vec, d_vec), ord=2
            )
            worst = max(worst, float(gap))
        assert abs(dg.isometry_relation_gap(device) - worst) < 1e-10

    def test_class_blocks_match_decoded_blocks(self, device):
        anc = oracle.anc_matrix(device)
        for theta in itertools.product((0, 1), repeat=device.n):
            summed = {}
            for (y_vec, d_vec), block in oracle.sigma_state(device, theta).blocks.items():
                v_vec = oracle.decode_block(device, theta, y_vec, d_vec)
                summed[v_vec] = summed.get(v_vec, 0) + block
            classes = device.sigma_by_v(theta)
            assert classes.keys() == summed.keys()
            assert max(np.max(np.abs(np.kron(classes[v], anc) - summed[v])) for v in summed) < 1e-10

    def test_operators_match_dense(self, device):
        n = device.n
        bits = list(itertools.product((0, 1), repeat=n))
        for a in bits:
            z, x = device.observable_matrix("Z", a), device.observable_matrix("X", a)
            z_dense, x_dense = oracle.observable_matrix(device, "Z", a), oracle.observable_matrix(device, "X", a)
            eye = np.eye(oracle.block_dim(device))
            pairs = [
                (z, z_dense), (x, x_dense), (z @ x @ z @ x, z_dense @ x_dense @ z_dense @ x_dense),
                (x.projector(1), 0.5 * (eye - x_dense)), (device.identity(), eye),
            ]
            pairs += [(device.question_projector(q, v), oracle.question_projector(device, q, v)) for q in (0, 1) for v in bits]
            for op, expected in pairs:
                assert np.max(np.abs(oracle.dense(device, op) - expected)) < 1e-10
        # isometry blocks: the dense matrix restricted to one ancilla index
        theta1 = (1,) * n
        first_block = {}
        for y_vec, d_vec in oracle.sigma_state(device, theta1).blocks:
            first_block.setdefault(oracle.decode_block(device, theta1, y_vec, d_vec), (y_vec, d_vec))
        d, anc, q_dim = device.committed_dim, device.anc_dim, 4**n
        for use_tilde in (False, True):
            blocks_iso = dg.rounding_isometry(device, use_tilde)
            dense_iso = oracle.rounding_isometry(device, use_tilde)
            for v_vec, (y_vec, d_vec) in first_block.items():
                full = dense_iso.matrix_for(theta1, y_vec, d_vec).reshape(d, anc, q_dim, d, anc)
                for j, block in enumerate(blocks_iso.matrix_for_v(theta1, v_vec)):
                    assert np.max(np.abs(block - full[:, j, :, :, j].reshape(d * q_dim, d))) < 1e-10

    def test_gammas(self, device):
        assert np.max(np.abs(np.subtract(dg.gammas(device), oracle.gammas(device)))) < 1e-10

    def test_validate_device(self, device):
        report, expected = dg.validate_device(device), oracle.validate_device(device)
        assert report.keys() == expected.keys()
        assert max(abs(report[k] - expected[k]) for k in expected) < 1e-10
