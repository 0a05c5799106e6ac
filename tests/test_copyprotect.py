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


# edits that load_program must refuse, applied to a saved lam = 1 sum program (None deletes a field)
MALFORMED_EDITS = {
    "no-bits": {"bits": None},
    "int-bases": {"bases": 7},
    "no-perm": {"perm_a": None},
    "float-perm": {"perm_a": 1.5},
    "bool-perm": {"perm_a": True},
    "string-width": {"perm_width": "4"},
    "arabic-indic-digit": {"r": "\u0661"},
    "arabic-indic-bits": {"bits": "\u0660"},
    "nan-coefficient": {"terms": [[float("nan"), "0", "0"], [0.5, "1", "0"]]},
    "infinite-coefficient": {"terms": [[float("inf"), "0", "0"]]},
    "string-coefficient": {"terms": [["0.5", "0", "0"], [0.5, "1", "0"]]},
    "term-bits": {"terms": [[1.0, "2", "0"]]},
    "term-length": {"terms": [[1.0, "01", "00"]]},
    "term-shape": {"terms": [[1.0, "0"]]},
    "norm": {"terms": [[0.5, "0", "0"], [0.5, "1", "0"]]},
    "no-terms": {"terms": []},
}


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
            fid = qcore.fidelity(oracle.dense_state(post.sigma), prog.sigma)
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
    def test_forward_pirate_dense_cap_checked_before_protecting(self, challenge, lam):
        # a forwarded program stays a product or a short sum, so lam 11 and 16 run, where a
        # dense register of 2*lam qubits would exceed the 20-qubit cap
        import time
        import tracemalloc

        start = time.monotonic()
        tracemalloc.start()
        try:
            res = cp.piracy_experiment(
                lam, challenge, cp.ForwardPirate(), make_config(lam, 0), trials=5, rng=np.random.default_rng(24)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res["trials"] == 5 and res["aborts"] == 0
        assert peak < 20 << 20 and time.monotonic() - start < 5.0

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
        cp.save_program(prog, json_path)
        loaded = cp.load_program(json_path)
        assert loaded.r == prog.r and loaded.t == prog.t
        assert loaded.perm == prog.perm
        assert np.allclose(loaded.sigma.to_state().amplitudes, prog.sigma.to_state().amplitudes)

    def test_product_program_writes_bits_and_bases_only(self, tmp_path):
        import json

        _, prog = protect(2, seed=8)
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path)
        meta = json.loads(json_path.read_text())
        assert meta["form"] == "product" and "state_file" not in meta and "terms" not in meta
        assert meta["bits"] == "".join(map(str, prog.sigma.bits))
        assert meta["bases"] == "".join(map(str, prog.sigma.bases))
        assert [path.name for path in tmp_path.iterdir()] == ["prog.json"]
        assert cp.load_program(json_path) == prog

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_sum_program_roundtrip(self, tmp_path, lam):
        import json

        for prog in sum_programs(lam, np.random.default_rng(30 + lam))[1:]:
            json_path = tmp_path / "prog.json"
            cp.save_program(prog, json_path)
            meta = json.loads(json_path.read_text())
            assert meta["form"] == "sum" and len(meta["terms"]) == len(prog.sigma.terms)
            assert meta["bits"] == "".join(map(str, prog.sigma.suffix.bits))
            assert cp.load_program(json_path) == prog  # coefficients round-trip exactly
            assert [path.name for path in tmp_path.iterdir()] == ["prog.json"]

    def test_dense_program_file_refused(self, tmp_path):
        import json

        _, prog = protect(1, seed=6)
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path)
        meta = json.loads(json_path.read_text())
        for key in ("bits", "bases"):
            del meta[key]
        json_path.write_text(json.dumps({**meta, "form": "dense", "state_file": "prog.state"}))
        with pytest.raises(ValueError, match="form 'dense'"):
            cp.load_program(json_path)

    def test_load_program_checks_lambda(self, tmp_path):
        import json

        _, prog = protect(1, seed=6)
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path)
        meta = json.loads(json_path.read_text())
        meta["r"] = "0" * 17
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="lam <= 16"):
            cp.load_program(json_path)

    @pytest.mark.parametrize("edit", list(MALFORMED_EDITS.values()), ids=list(MALFORMED_EDITS))
    def test_load_program_rejects_malformed_fields(self, tmp_path, edit):
        import json

        _, prog = protect(1, seed=6)
        prog = sum_programs(1, np.random.default_rng(6), prog)[1]
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path)
        meta = {k: v for k, v in {**json.loads(json_path.read_text()), **edit}.items() if v is not None}
        json_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="malformed program file"):
            cp.load_program(json_path)

    def test_term_cap_checked_on_load_before_the_norm(self, tmp_path, monkeypatch):
        import json

        lam = 9  # 2^9 rows: room for MAX_TERMS + 1 distinct prefixes
        x = (0,) * (4 * lam)
        json_path = tmp_path / "prog.json"
        cp.save_program(capped_program(lam, x), json_path)
        meta = json.loads(json_path.read_text())
        _, bits, bases = meta["terms"][-1]
        meta["terms"].append([0.0, bits[:-1] + str(1 - int(bits[-1])), bases])  # a row no term holds yet
        json_path.write_text(json.dumps(meta))

        def no_norm(*args):
            raise AssertionError("the norm of an over-cap sum was computed")

        monkeypatch.setattr(cp.ProductSum, "amplitude", no_norm)
        with pytest.raises(ValueError, match=f"MAX_TERMS = {cp.MAX_TERMS}"):
            cp.load_program(json_path)


def sum_programs(lam, rng, prog=None):
    """A fresh program and the programs one, two and three uncertain mismatches deep, built by cp_eval."""
    programs = [prog if prog is not None else protect(lam, seed=int(rng.integers(1000)))[1]]
    while len(programs) < 4:
        x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
        if 0.05 < cp.cp_accept_probability(programs[-1], x) < 0.95:
            _, post, accepted = cp.cp_eval(lam, programs[-1], x, rng)
            if not accepted:
                programs.append(post)
    return programs


def oracle_programs(lam, rng):
    """Freshly protected programs and the sums their uncertain mismatches leave."""
    programs = []
    for seed in range(2):
        programs += sum_programs(lam, rng, protect(lam, seed=300 + 10 * lam + seed)[1])
    assert all(isinstance(prog.sigma, cp.ProductSum) for prog in programs[1:4] + programs[5:])
    return programs


def capped_program(lam, x):
    """A program of MAX_TERMS prefix terms on which x's check is uncertain (p = 1/2) and whose
    mismatch adds a term: x's row with its first basis flipped (weight 1), then further rows in
    those bases (weight 0)."""
    import itertools

    perm = gf2.pip_sample(4 * lam, np.random.default_rng(26))
    s_theta = gf2.pip_eval(perm, x)
    row, bases = s_theta[:lam], (1 - s_theta[2 * lam],) + s_theta[2 * lam + 1 : 3 * lam]
    rows = itertools.chain([row], (bits for bits in itertools.product((0, 1), repeat=lam) if bits != row))
    terms = tuple((float(i == 0), qcore.BB84Product(next(rows), bases)) for i in range(cp.MAX_TERMS))
    zeros = (0,) * lam
    return cp.ProtectedProgram(cp.ProductSum(terms, qcore.BB84Product(zeros, zeros)), zeros, perm, zeros)


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
                assert np.max(np.abs(oracle.dense_state(post.sigma).amplitudes - post_ref.sigma.amplitudes)) < 1e-12
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
                assert np.max(np.abs(oracle.dense_state(post.sigma).amplitudes - post_ref.sigma.amplitudes)) < 1e-12
                assert ours.bit_generator.state == theirs.bit_generator.state
                kinds.add("match" if accepted else "certain mismatch" if p == 0.0 else "uncertain mismatch")
                assert isinstance(post.sigma, cp.ProductSum) == (not accepted and p > 0.0)
                if accepted:
                    prog = post  # a read-out leaves a product program
        assert kinds == {"match", "certain mismatch", "uncertain mismatch"}

    def test_uncertain_mismatch_above_former_dense_cap_stays_small(self):
        # at lam = 11 a dense register of 2*lam qubits would exceed the 20-qubit cap
        import tracemalloc

        lam, rng = 11, np.random.default_rng(25)
        prog = cp.ProtectedProgram(
            sigma=qcore.BB84Product(*(tuple(int(b) for b in rng.integers(0, 2, size=2 * lam)) for _ in range(2))),
            r=(0,) * lam, perm=gf2.pip_sample(4 * lam, rng), t=(0,) * lam,
        )
        x = next(x for x in (tuple(int(b) for b in rng.integers(0, 2, size=4 * lam)) for _ in range(10_000))
                 if 0.0 < cp.cp_accept_probability(prog, x) < 1.0)
        posts = []
        tracemalloc.start()
        try:
            for seed in range(20):
                posts.append(cp.cp_eval(lam, prog, x, np.random.default_rng(seed)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        mismatches = [post for _, post, accepted in posts if not accepted]
        assert all(len(post.sigma) == 2 * lam and len(post.sigma.terms) == 2 for post in mismatches)
        assert mismatches and peak < 1 << 20

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
        json_path = tmp_path / "prog.json"
        cp.save_program(prog, json_path)
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
            seed = int(rng.integers(0, 2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            share, _ = cp.BreidbartPirate().split(product, ours)
            share_ref, _ = oracle.breidbart_split(product, theirs)
            assert share == share_ref
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_split_builds_no_operator(self, monkeypatch):
        _, prog = protect(2, seed=9)

        def built(self):
            raise AssertionError("split built a LinearOperator")

        monkeypatch.setattr(qcore.LinearOperator, "__post_init__", built)
        share_b, share_c = cp.BreidbartPirate().split(prog, np.random.default_rng(0))
        assert share_b is share_c and len(share_b[0]) == 4

    def test_split_takes_fresh_programs_only(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ValueError, match="fresh"):
            cp.BreidbartPirate().split(sum_programs(1, rng)[1], rng)


class TestSumForm:
    def test_sum_holds_two_lam_qubits(self):
        for prog in sum_programs(2, np.random.default_rng(29))[1:]:
            assert len(prog.sigma) == 4 and oracle.dense_state(prog.sigma).qubit_count == 4
        with pytest.raises(ValueError, match="as long as its suffix"):
            cp.ProductSum(((1.0, qcore.BB84Product((0,), (0,))),), qcore.BB84Product((0, 0), (0, 0)))

    def test_term_cap_checked_before_a_term_is_added(self):
        import tracemalloc

        lam = 9  # 2^9 rows: room for MAX_TERMS distinct prefixes
        x = tuple(int(b) for b in np.random.default_rng(27).integers(0, 2, size=4 * lam))
        prog = capped_program(lam, x)
        assert len(prog.sigma.terms) == cp.MAX_TERMS and abs(cp.cp_accept_probability(prog, x) - 0.5) < 1e-12
        branches = set()
        tracemalloc.start()
        try:
            for seed in range(20):
                try:
                    branches.add(cp.cp_eval(lam, prog, x, np.random.default_rng(seed))[2])
                except ValueError as exc:
                    assert f"MAX_TERMS = {cp.MAX_TERMS}" in str(exc)
                    branches.add("refused")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert branches == {True, "refused"} and peak < 1 << 20

    def test_repeated_mismatch_merges_into_the_row_term(self):
        # after a mismatch on x the program is orthogonal to x's row up to float dust; a mismatch
        # on that dust rescales the terms and merges into the row's term instead of adding one
        lam, rng, dusty = 2, np.random.default_rng(31), 0
        for prog in sum_programs(lam, rng)[1:]:
            x = next(x for x in (tuple(int(b) for b in rng.integers(0, 2, size=4 * lam)) for _ in range(1000))
                     if 0.05 < cp.cp_accept_probability(prog, x) < 0.95)
            post = next(post for _, post, accepted in (cp.cp_eval(lam, prog, x, rng) for _ in range(100))
                        if not accepted)
            size = len(post.sigma.terms)
            for _ in range(20):
                p = cp.cp_accept_probability(post, x)
                assert p < 1e-20
                dusty += p != 0.0
                post = cp.cp_eval(lam, post, x, rng)[1]
                assert len(post.sigma.terms) == size
        assert dusty
