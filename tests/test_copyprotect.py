"""Copy-protection: protect/eval correctness, rewinding, piracy harness."""

from dataclasses import replace

import numpy as np
import pytest

import cp_oracle as oracle
from parrsp import copyprotect as cp
from parrsp import gf2, qcore
from parrsp.protocol import MultiRoundConfig, run_multi_round
from parrsp.provers import AlwaysWrongProver, HonestProver


def make_config(lam, seed, m_blocks=2):
    return MultiRoundConfig(
        n=2 * lam, m_blocks=m_blocks, delta=0.05, width=4, seed=seed, reveal_theta=False
    )


def protect(lam, seed, f=None, rng=None):
    rng = rng if rng is not None else np.random.default_rng(seed)
    f = f if f is not None else cp.random_point_function(lam, rng)
    prog, result = cp.cp_protect(lam, f, make_config(lam, seed), HonestProver(seed=seed), rng)
    assert prog is not None
    return f, prog


def exact_accept_oracle(f, prog, x):
    """Independent per-qubit product formula for the matching probability."""
    lam = prog.lam
    s_theta_prog = gf2.pip_eval(prog.perm, f.y)
    theta_prog = s_theta_prog[2 * lam :]
    s_theta_x = gf2.pip_eval(prog.perm, tuple(x))
    s_x, theta_x = s_theta_x[: 2 * lam], s_theta_x[2 * lam :]
    pattern = tuple(a ^ b for a, b in zip(prog.r, s_x[:lam]))
    # program qubit i holds v_i in basis theta_prog_i; v_prefix = pattern XOR
    # (s_x0 XOR s0) ... recover v from the published offsets instead: the
    # check compares measured prefix bits against the pattern.
    s_prog = s_theta_prog[: 2 * lam]
    v0 = tuple(a ^ b for a, b in zip(prog.r, s_prog[:lam]))
    prob = 1.0
    for i in range(lam):
        if theta_x[i] == theta_prog[i]:
            prob *= 1.0 if v0[i] == pattern[i] else 0.0
        else:
            prob *= 0.5
    return prob


class TestPointFunction:
    def test_shapes(self):
        f = cp.PointFunction((0,) * 8, (1, 0))
        assert f.lam == 2
        assert f.evaluate(f.y) == (1, 0)
        assert f.evaluate((1,) * 8) == (0, 0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            cp.PointFunction((0, 1), (1,))


class TestProtect:
    def test_lengths_smoke_lam1(self):
        f, prog = protect(1, seed=0)
        assert prog.sigma.to_state().qubit_count == 2
        assert len(prog.r) == 1 and len(prog.t) == 1
        assert prog.perm.width == 4

    def test_program_state_is_prepared_bb84(self):
        lam = 2
        rng = np.random.default_rng(3)
        f = cp.random_point_function(lam, rng)
        cfg = make_config(lam, 3)
        prog, result = cp.cp_protect(lam, f, cfg, HonestProver(seed=3), rng)
        target = None
        for theta, v in zip(result.theta_vec, result.v_vec):
            s = qcore.StateVector.basis_state([v])
            if theta:
                s = qcore.apply_operator(qcore.hadamard(), s, [0])
            target = s if target is None else qcore.tensor_product(target, s)
        assert qcore.fidelity(prog.sigma, target) > 1 - 1e-9

    def test_protect_runs_differ(self):
        rng = np.random.default_rng(9)
        f = cp.random_point_function(2, rng)
        outputs = set()
        for seed in range(6):
            prog, _ = cp.cp_protect(2, f, make_config(2, seed), HonestProver(seed=seed), rng)
            outputs.add((prog.r, prog.t, prog.perm.a.bits, prog.perm.b.bits))
        assert len(outputs) >= 5

    def test_abort_returns_none(self):
        lam = 1
        rng = np.random.default_rng(1)
        f = cp.random_point_function(lam, rng)
        seen_abort = False
        for seed in range(25):
            cfg = MultiRoundConfig(n=2, m_blocks=4, delta=0.1, width=4, seed=seed,
                                   reveal_theta=False)
            prog, result = cp.cp_protect(lam, f, cfg, AlwaysWrongProver(seed=seed), rng)
            if not result.accepted:
                assert prog is None
                seen_abort = True
        assert seen_abort

    def test_marginals_uniform(self):
        # (r, t) over many protect runs: all four cells within 4 sigma
        lam = 1
        trials = 10_000
        rng = np.random.default_rng(5)
        counts = {}
        f = cp.random_point_function(lam, rng)
        for seed in range(trials):
            cfg = MultiRoundConfig(n=2, m_blocks=1, delta=0.05, width=2, seed=seed,
                                   reveal_theta=False)
            prog, _ = cp.cp_protect(lam, f, cfg, HonestProver(seed=seed), rng)
            counts[(prog.r, prog.t)] = counts.get((prog.r, prog.t), 0) + 1
        expected = trials / 4
        sigma = np.sqrt(trials * 0.25 * 0.75)
        assert len(counts) == 4
        for cell, count in counts.items():
            assert abs(count - expected) < 4 * sigma, (cell, count)


class TestEval:
    def test_marked_input_returns_output(self):
        rng = np.random.default_rng(11)
        for lam in (1, 2, 3):
            for seed in range(10):
                f, prog = protect(lam, seed=100 * lam + seed)
                out, _, accepted = cp.cp_eval(lam, prog, f.y, rng)
                assert accepted and out == f.m

    def test_false_branch_outputs_zeros(self):
        rng = np.random.default_rng(12)
        lam = 2
        f, prog = protect(lam, seed=7)
        zeros = (0,) * lam
        for _ in range(40):
            x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
            if x == f.y:
                continue
            out, prog2, accepted = cp.cp_eval(lam, prog, x, rng)
            if not accepted:
                assert out == zeros

    def test_accept_probability_matches_oracle(self):
        rng = np.random.default_rng(13)
        for lam in (1, 2):
            f, prog = protect(lam, seed=40 + lam)
            for _ in range(40):
                x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
                simulated = cp.cp_accept_probability(prog, x)
                oracle = exact_accept_oracle(f, prog, x)
                assert abs(simulated - oracle) < 1e-12

    def test_false_accept_rate_matches_exact(self):
        # empirical accept frequency against the exact per-input probability
        rng = np.random.default_rng(14)
        lam = 2
        f, prog = protect(lam, seed=77)
        x = None
        while x is None:
            cand = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
            p = cp.cp_accept_probability(prog, cand)
            if cand != f.y and 0.05 < p < 0.95:
                x = cand
        p_exact = cp.cp_accept_probability(prog, x)
        trials = 1500
        hits = 0
        for _ in range(trials):
            _, _, accepted = cp.cp_eval(lam, prog, x, rng)
            hits += accepted
        sigma = np.sqrt(p_exact * (1 - p_exact) / trials)
        assert abs(hits / trials - p_exact) < 5 * sigma

    def test_deterministic_reject_keeps_program_exact(self):
        rng = np.random.default_rng(15)
        lam = 1
        f, prog = protect(lam, seed=21)
        current = prog
        evals = 0
        attempts = 0
        while evals < 100 and attempts < 5000:
            attempts += 1
            x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
            if x == f.y or cp.cp_accept_probability(current, x) > 1e-12:
                continue
            out, nxt, accepted = cp.cp_eval(lam, current, x, rng)
            assert not accepted and out == (0,)
            assert qcore.fidelity(nxt.sigma, current.sigma) > 1 - 1e-9
            current = nxt
            evals += 1
        assert evals == 100
        out, _, accepted = cp.cp_eval(lam, current, f.y, rng)
        assert accepted and out == f.m

    def test_gentle_measurement_fidelity(self):
        # pure-state arithmetic: post-reject fidelity equals 1 - p exactly
        rng = np.random.default_rng(16)
        lam = 2
        f, prog = protect(lam, seed=31)
        checked = 0
        for _ in range(300):
            x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
            p = cp.cp_accept_probability(prog, x)
            if x == f.y or not 0.05 < p < 0.95:
                continue
            out, post, accepted = cp.cp_eval(lam, prog, x, rng)
            if accepted:
                continue
            fid = qcore.fidelity(post.sigma, prog.sigma)
            assert abs(fid - (1 - p)) < 1e-9
            checked += 1
            if checked >= 5:
                break
        assert checked >= 1

    def test_marked_eval_restores_program(self):
        rng = np.random.default_rng(17)
        lam = 2
        f, prog = protect(lam, seed=3)
        out, post, accepted = cp.cp_eval(lam, prog, f.y, rng)
        assert accepted
        assert qcore.fidelity(post.sigma, prog.sigma) > 1 - 1e-9
        out2, _, _ = cp.cp_eval(lam, post, f.y, rng)
        assert out2 == f.m

    def test_degradation_budget_after_mixed_sweep(self):
        # final marked-eval failure stays within twice the accumulated
        # accept probability spent on non-marked inputs
        lam = 1
        successes = 0
        budgets = []
        trials = 200
        master = np.random.default_rng(18)
        for t in range(trials):
            rng = np.random.default_rng(1000 + t)
            f, prog = protect(lam, seed=5000 + t, rng=rng)
            budget = 0.0
            ok = True
            for _ in range(5):
                x = tuple(int(b) for b in rng.integers(0, 2, size=4))
                if x == f.y:
                    continue
                budget += cp.cp_accept_probability(prog, x)
                out, prog, accepted = cp.cp_eval(lam, prog, x, rng)
            out, _, _ = cp.cp_eval(lam, prog, f.y, rng)
            successes += out == f.m
            budgets.append(budget)
        rate = successes / trials
        bound = 1 - 2 * float(np.mean(budgets))
        sigma = np.sqrt(max(rate * (1 - rate), 1e-6) / trials)
        assert rate >= bound - 4 * sigma


class TestPiracy:
    def test_forward_pirate_on_marked_challenges(self):
        res = cp.piracy_experiment(
            1, cp.MarkedChallenge(), cp.ForwardPirate(), make_config(1, 0),
            trials=1200, rng=np.random.default_rng(19),
        )
        expected = 0.5  # C guesses one bit
        assert abs(res["success"] - expected) < 5 * res["stderr"]
        assert res["p_trivial"] == 0.0

    def test_breidbart_pirate_bound(self):
        lam = 1
        res = cp.piracy_experiment(
            lam, cp.MarkedChallenge(), cp.BreidbartPirate(), make_config(lam, 0),
            trials=1200, rng=np.random.default_rng(20),
        )
        bound = ((2 + np.sqrt(2)) / 4) ** (2 * lam)
        assert res["success"] <= bound + 5 * res["stderr"] + 2.0 ** -lam

    def test_zero_pirate_wins_unmarked(self):
        res = cp.piracy_experiment(
            1, cp.UnmarkedChallenge(), cp.ZeroPirate(), make_config(1, 0),
            trials=150, rng=np.random.default_rng(21),
        )
        assert res["success"] == 1.0
        assert res["p_trivial"] == 1.0

    def test_piracy_keeps_strict_trailing(self, monkeypatch):
        seen = []

        def recording_run(config, prover, *args, **kwargs):
            seen.append(config)
            return run_multi_round(config, prover, *args, **kwargs)

        monkeypatch.setattr(cp, "run_multi_round", recording_run)
        cfg = MultiRoundConfig(n=2, m_blocks=2, delta=0.05, width=4, seed=0, strict_trailing=True)
        cp.piracy_experiment(
            1, cp.MarkedChallenge(), cp.ForwardPirate(), cfg, trials=3, rng=np.random.default_rng(22)
        )
        assert len(seen) == 3
        assert all(c.strict_trailing and not c.reveal_theta for c in seen)

    @pytest.mark.parametrize("lam", [11, 16])
    @pytest.mark.parametrize("challenge", [cp.UnmarkedChallenge(), cp.UniformChallenge()])
    def test_forward_pirate_dense_cap_checked_before_protecting(self, monkeypatch, challenge, lam):
        def no_session(*args, **kwargs):
            raise AssertionError("a protect session ran")

        monkeypatch.setattr(cp, "run_multi_round", no_session)
        with pytest.raises(ValueError, match="lam <= 10"):
            cp.piracy_experiment(
                lam, challenge, cp.ForwardPirate(), make_config(lam, 0), trials=5, rng=np.random.default_rng(24)
            )

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trial_count_checked_before_work(self, trials):
        rng = np.random.default_rng(23)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="trials"):
            cp.piracy_experiment(1, cp.MarkedChallenge(), cp.ForwardPirate(), make_config(1, 0), trials=trials, rng=rng)
        assert rng.bit_generator.state == state

    def test_uniform_challenge_baseline(self):
        dist = cp.UniformChallenge()
        q = 2.0 ** -4
        assert abs(dist.p_trivial(1) - ((1 - q) ** 2 + q * (1 - q))) < 1e-15


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        f, prog = protect(2, seed=8)
        json_path = tmp_path / "prog.json"
        state_path = tmp_path / "prog.state"
        cp.save_program(prog, json_path, state_path)
        loaded = cp.load_program(json_path)
        assert loaded.r == prog.r and loaded.t == prog.t
        assert loaded.perm == prog.perm
        assert np.allclose(loaded.sigma.to_state().amplitudes, prog.sigma.to_state().amplitudes)

    def test_product_program_writes_bits_and_bases_only(self, tmp_path):
        import json

        _, prog = protect(2, seed=8)
        json_path, state_path = tmp_path / "prog.json", tmp_path / "prog.state"
        cp.save_program(prog, json_path, state_path)
        meta = json.loads(json_path.read_text())
        assert meta["form"] == "product" and meta["state_file"] == "prog.state"
        assert meta["bits"] == "".join(map(str, prog.sigma.bits))
        assert meta["bases"] == "".join(map(str, prog.sigma.bases))
        assert not state_path.exists()
        assert cp.load_program(json_path) == prog

    def test_dense_program_roundtrip(self, tmp_path):
        prog = random_program(2, np.random.default_rng(8))
        json_path, state_path = tmp_path / "prog.json", tmp_path / "prog.state"
        cp.save_program(prog, json_path, state_path)
        assert state_path.stat().st_size == 16 * 4**2
        loaded = cp.load_program(json_path)
        assert np.array_equal(loaded.sigma.amplitudes, prog.sigma.amplitudes)
        # without a path, the side file the JSON names is written again
        cp.save_program(replace(prog, sigma=qcore.StateVector.basis_state(5, 4)), json_path)
        assert cp.load_program(json_path).sigma.amplitudes[5] == 1.0

    @pytest.mark.parametrize("size", [16 * 4**2 - 16, 16 * 4**2 + 16])
    def test_side_file_size_checked_before_reading(self, tmp_path, monkeypatch, size):
        prog = random_program(2, np.random.default_rng(8))
        json_path, state_path = tmp_path / "prog.json", tmp_path / "prog.state"
        cp.save_program(prog, json_path, state_path)
        state_path.write_bytes(b"\0" * size)

        def unread(*args, **kwargs):
            raise AssertionError("read a side file of the wrong size")

        monkeypatch.setattr(np, "fromfile", unread)
        with pytest.raises(ValueError, match="bytes"):
            cp.load_program(json_path)

    def test_load_program_checks_lambda(self, tmp_path):
        import json

        _, prog = protect(1, seed=6)
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path, tmp_path / "prog.state")
        meta = json.loads(json_path.read_text())
        meta["r"] = "0" * 17
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="lam <= 16"):
            cp.load_program(json_path)

    @pytest.mark.parametrize(
        "edit", [{"bits": None}, {"bases": 7}, {"perm_a": None}], ids=["no-bits", "int-bases", "no-perm"]
    )
    def test_load_program_rejects_malformed_fields(self, tmp_path, edit):
        import json

        _, prog = protect(1, seed=6)
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path, tmp_path / "prog.state")
        meta = {k: v for k, v in {**json.loads(json_path.read_text()), **edit}.items() if v is not None}
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="malformed program file"):
            cp.load_program(json_path)


def random_program(lam, rng):
    """A program with a Haar-random register and random offsets and key."""
    amps = rng.normal(size=4**lam) + 1j * rng.normal(size=4**lam)
    return cp.ProtectedProgram(
        sigma=qcore.StateVector(amps / np.linalg.norm(amps)),
        r=tuple(int(b) for b in rng.integers(0, 2, size=lam)),
        perm=gf2.pip_sample(4 * lam, rng),
        t=tuple(int(b) for b in rng.integers(0, 2, size=lam)),
    )


def oracle_programs(lam, rng):
    """Random, freshly protected and entangled post-mismatch programs."""
    programs = [random_program(lam, rng) for _ in range(3)]
    for seed in range(2):
        f, prog = protect(lam, seed=300 + 10 * lam + seed)
        programs.append(prog)
        # a mismatch whose verdict was uncertain leaves the register entangled
        for _ in range(200):
            x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
            if 0.05 < oracle.accept_probability(prog, x) < 0.95:
                _, post, accepted = oracle.cp_eval(prog, x, rng)
                if not accepted:
                    programs.append(post)
                    break
    return programs


class TestAncillaOracle:
    """Ancilla-free evaluation against the explicit ancilla circuit."""

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_accept_probability_matches_ancilla_circuit(self, lam):
        rng = np.random.default_rng(400 + lam)
        for prog in oracle_programs(lam, rng):
            for _ in range(12):
                x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
                assert abs(cp.cp_accept_probability(prog, x) - oracle.accept_probability(prog, x)) < 1e-12

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_seeded_eval_matches_ancilla_circuit(self, lam):
        rng = np.random.default_rng(500 + lam)
        branches = set()
        for prog in oracle_programs(lam, rng):
            for _ in range(8):
                x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
                seed = int(rng.integers(0, 2**32))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                out, post, accepted = cp.cp_eval(lam, prog, x, ours)
                out_ref, post_ref, accepted_ref = oracle.cp_eval(prog, x, theirs)
                assert (out, accepted) == (out_ref, accepted_ref)
                assert np.max(np.abs(post.sigma.to_state().amplitudes - post_ref.sigma.to_state().amplitudes)) < 1e-12
                assert (post.r, post.perm, post.t) == (prog.r, prog.perm, prog.t)
                # the same draws: both generators end in the same state
                assert ours.bit_generator.state == theirs.bit_generator.state
                branches.add(accepted)
        assert branches == {False, True}

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_product_eval_matches_ancilla_circuit(self, lam):
        """Closed-form evaluation of product programs, through all three of its branches."""
        rng = np.random.default_rng(600 + lam)
        kinds = set()
        for seed in range(4):
            f, prog = protect(lam, seed=700 + 10 * lam + seed)
            inputs = [f.y] + [tuple(int(b) for b in rng.integers(0, 2, size=4 * lam)) for _ in range(12)]
            for x in inputs:
                assert isinstance(prog.sigma, qcore.BB84Product)
                p = cp.cp_accept_probability(prog, x)
                assert abs(p - oracle.accept_probability(prog, x)) < 1e-12
                seed_x = int(rng.integers(0, 2**32))
                ours, theirs = np.random.default_rng(seed_x), np.random.default_rng(seed_x)
                out, post, accepted = cp.cp_eval(lam, prog, x, ours)
                out_ref, post_ref, accepted_ref = oracle.cp_eval(prog, x, theirs)
                assert (out, accepted) == (out_ref, accepted_ref)
                assert np.max(np.abs(post.sigma.to_state().amplitudes - post_ref.sigma.to_state().amplitudes)) < 1e-12
                assert ours.bit_generator.state == theirs.bit_generator.state
                kinds.add("match" if accepted else "certain mismatch" if p == 0.0 else "uncertain mismatch")
                assert isinstance(post.sigma, qcore.StateVector) == (not accepted and p > 0.0)
                if accepted:
                    prog = post  # a read-out leaves a product program
        assert kinds == {"match", "certain mismatch", "uncertain mismatch"}

    def test_uncertain_mismatch_above_dense_cap_raises_before_allocating(self):
        import tracemalloc

        lam, rng = 11, np.random.default_rng(25)
        prog = cp.ProtectedProgram(
            sigma=qcore.BB84Product(*(tuple(int(b) for b in rng.integers(0, 2, size=2 * lam)) for _ in range(2))),
            r=(0,) * lam, perm=gf2.pip_sample(4 * lam, rng), t=(0,) * lam,
        )
        x = next(x for x in (tuple(int(b) for b in rng.integers(0, 2, size=4 * lam)) for _ in range(10_000))
                 if 0.0 < cp.cp_accept_probability(prog, x) < 1.0)
        raised = 0
        tracemalloc.start()
        for seed in range(20):
            try:
                cp.cp_eval(lam, prog, x, np.random.default_rng(seed))
            except ValueError as exc:
                assert "qubit cap" in str(exc)
                raised += 1
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert raised and peak < 1 << 20

    def test_ancilla_circuit_left_src(self):
        from pathlib import Path

        for path in Path(cp.__file__).parent.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert "_prefix_compare_operator" not in text, path
            assert "_eval_prepared" not in text, path


class TestProgramValidation:
    @pytest.mark.parametrize("field", ["r", "t"])
    def test_offsets_must_be_bits(self, field):
        _, prog = protect(1, seed=6)
        with pytest.raises(ValueError, match="bit vectors"):
            replace(prog, **{field: (2,)})

    def test_load_program_rejects_edited_offset(self, tmp_path):
        import json

        _, prog = protect(1, seed=6)
        json_path, state_path = tmp_path / "prog.json", tmp_path / "prog.state"
        cp.save_program(prog, json_path, state_path)
        meta = json.loads(json_path.read_text())
        meta["t"] = "2"
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="bit vectors"):
            cp.load_program(json_path)


class TestBreidbartSplit:
    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_product_split_draws_the_dense_index(self, lam):
        rng = np.random.default_rng(800 + lam)
        for _ in range(200):
            bits, bases = (tuple(int(b) for b in rng.integers(0, 2, size=2 * lam)) for _ in range(2))
            product = cp.ProtectedProgram(
                sigma=qcore.BB84Product(bits, bases), r=(0,) * lam, perm=gf2.pip_sample(4 * lam, rng), t=(0,) * lam
            )
            dense = replace(product, sigma=product.sigma.to_state())
            seed = int(rng.integers(0, 2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            share, _ = cp.BreidbartPirate().split(product, ours)
            share_ref, _ = cp.BreidbartPirate().split(dense, theirs)
            assert share == share_ref
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_split_builds_no_operator(self, monkeypatch):
        _, prog = protect(2, seed=9)

        def built(self):
            raise AssertionError("split built a LinearOperator")

        monkeypatch.setattr(qcore.LinearOperator, "__post_init__", built)
        share_b, share_c = cp.BreidbartPirate().split(prog, np.random.default_rng(0))
        assert share_b is share_c and len(share_b[0]) == 4
