"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Statistical checks use fixed seeds and 4-sigma windows; exact
checks use the tolerances given inline.
"""

import itertools
import time

import cloning_oracle
import diag_oracle as oracle
import numpy as np

from parrsp import copyprotect as cp
from parrsp import delegation as dl
from parrsp import diagnostics as dg
from parrsp import protocol, provers, qcore, transcript
from parrsp import unclonable as uc
from parrsp import wire

BREIDBART = 0.8535533905932737  # 1/2 + 1/(2 sqrt 2)


def _report(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def _config(n, m, delta=0.05, width=4, seed=0, **kw):
    return protocol.MultiRoundConfig(n=n, m_blocks=m, delta=delta, width=width, seed=seed, **kw)


def _bb84(theta_vec, v_vec):
    out = None
    for theta, v in zip(theta_vec, v_vec):
        s = qcore.StateVector.basis_state([v])
        if theta:
            s = qcore.apply_operator(qcore.hadamard(), s, [0])
        out = s if out is None else qcore.tensor_product(out, s)
    return out


def test_c01_honest_completeness():
    grid = [(n, m) for n in range(1, 9) for m in (2, 4, 8)]
    runs = 0
    start = time.perf_counter()
    seed = 0
    while runs < 100:
        n, m = grid[runs % len(grid)]
        result = protocol.run_multi_round(
            _config(n, m, seed=seed), provers.HonestProver(seed=seed)
        )
        assert result.accepted, f"honest run rejected at n={n}, M={m}, seed={seed}"
        runs += 1
        seed += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"completeness sweep took {elapsed:.1f}s"
    _report(1, f"100/100 honest runs accepted across n=1..8, M in (2,4,8) in {elapsed:.1f}s")


def test_c02_honest_final_state():
    worst = 1.0
    for n in range(1, 9):
        for seed in (0, 1):
            prover = provers.HonestProver(seed=seed)
            result = protocol.run_multi_round(_config(n, 2, seed=10 * n + seed), prover)
            assert result.accepted
            fid = qcore.fidelity(prover.final_states(), _bb84(result.theta_vec, result.v_vec))
            worst = min(worst, fid)
            assert fid >= 1 - 1e-9
    _report(2, f"prover register matches the prepared product state; min fidelity {worst:.12f}")


def test_c03_pauli_relation_grid():
    worst = 0.0
    for n in (1, 2):
        device = dg.device_from_honest(n, 2, np.random.default_rng(n))
        grid = dg.pauli_relation_grid(device)
        worst = max(worst, grid["max_deviation"])
        assert grid["max_deviation"] <= 1e-8
    start = time.perf_counter()
    device = dg.device_from_honest(3, 2, np.random.default_rng(3))
    grid = dg.pauli_relation_grid(device)
    elapsed = time.perf_counter() - start
    assert grid["max_deviation"] <= 1e-8
    assert len(grid["entries"]) == 4**3
    assert elapsed < 60.0, f"n=3 grid took {elapsed:.1f}s"
    worst = max(worst, grid["max_deviation"])
    _report(3, f"all 4^n relation values within 1e-8 for n=1..3 (worst {worst:.2e}, n=3 in {elapsed:.1f}s)")


def test_c04_anticommutation():
    for n in (1, 2, 3):
        device = dg.device_from_honest(n, 2, np.random.default_rng(20 + n))
        for i in range(n):
            value = dg.anticommutation_value(device, i)
            assert abs(value + 1.0) <= 1e-8
    base = dg.device_from_honest(1, 2, np.random.default_rng(24))
    sweep = [
        abs(dg.anticommutation_value(dg.perturb_device(base, eps), 0) + 1.0)
        for eps in np.linspace(0.0, 1.0, 11)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:])), sweep
    assert sweep[0] <= 1e-10 and sweep[-1] >= 0.5
    _report(4, "honest anticommutation value -1 within 1e-8 (n<=3); 11-point sweep degrades monotonically")


def test_c05_rounding_isometry():
    worst_iso = 0.0
    worst_rel = 0.0
    for n in (1, 2):
        device = dg.device_from_honest(n, 2, np.random.default_rng(30 + n))
        theta1 = (1,) * n
        sigma = oracle.sigma_state(device, theta1)
        eye = np.eye(oracle.block_dim(device))
        for use_tilde in (False, True):
            iso = oracle.rounding_isometry(device, use_tilde)
            for key in sigma.blocks:
                v = iso.matrix_for(theta1, key[0], key[1])
                gap = float(np.max(np.abs(v.conj().T @ v - eye)))
                worst_iso = max(worst_iso, gap)
                assert gap <= 1e-9
        rel = dg.isometry_relation_gap(device)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-10
    _report(5, f"V^dag V = 1 blockwise (worst {worst_iso:.2e}); sign-twist relation gap {worst_rel:.2e}")


def test_c06_bb84_form():
    worst = 0.0
    for n in (1, 2):
        device = dg.device_from_honest(n, 2, np.random.default_rng(40 + n))
        for theta in itertools.product((0, 1), repeat=n):
            report = dg.bb84_report(device, theta)
            worst = max(worst, report["max_distance"])
            assert report["max_distance"] <= 1e-8
    _report(6, f"rounded states in BB84 x side-state form for every basis vector (worst distance {worst:.2e})")


def test_c07_cheater_detection():
    trials = 10_000
    # uniformly random answers: Hadamard acceptance 2^-n
    accepted = 0
    for seed in range(trials):
        rec = protocol.run_test_round(
            _config(2, 2, seed=seed), provers.RandomAnswerProver(seed=seed),
            round_index=seed, force_round_type="hadamard",
        )
        accepted += rec.flag == protocol.FLAG_OK
    p_random = accepted / trials
    sigma = np.sqrt(0.25 * 0.75 / trials)
    assert abs(p_random - 0.25) <= 4 * sigma, p_random

    # opposite-basis measurement: also 2^-n
    accepted = 0
    for seed in range(trials):
        rec = protocol.run_test_round(
            _config(2, 2, seed=seed), provers.WrongBasisProver(seed=seed),
            round_index=seed, force_round_type="hadamard",
        )
        accepted += rec.flag == protocol.FLAG_OK
    p_basis = accepted / trials
    assert abs(p_basis - 0.25) <= 4 * sigma, p_basis

    # deterministic failure: multi-round acceptance = Pr[S = 0] = 1/M
    m_blocks = 4
    runs = 4000
    accepted = 0
    for seed in range(runs):
        result = protocol.run_multi_round(
            _config(1, m_blocks, delta=0.1, seed=seed), provers.AlwaysWrongProver(seed=seed)
        )
        accepted += result.accepted
    p_aw = accepted / runs
    closed_form = 1 / m_blocks
    sigma_aw = np.sqrt(closed_form * (1 - closed_form) / runs)
    assert abs(p_aw - closed_form) <= 4 * sigma_aw, p_aw
    _report(7, f"random-answer {p_random:.4f} and wrong-basis {p_basis:.4f} vs 0.25; "
               f"always-wrong multi-round {p_aw:.4f} vs {closed_form}")


def test_c08_breidbart_value():
    for lam in (1, 2, 3):
        res = uc.cloning_experiment(uc.breidbart_attack(lam), lam, mode="exact")
        assert abs(res["success"] - BREIDBART**lam) <= 1e-9, (lam, res["success"])
    _report(8, f"intermediate-basis cloning success equals {BREIDBART:.10f}^lam exactly for lam=1..3")


def test_c09_otp_core():
    worst = 0.0
    for lam in (1, 2, 3):
        for m_int in range(2**lam):
            m = tuple((m_int >> (lam - 1 - i)) & 1 for i in range(lam))
            avg = cloning_oracle.cc_average_ciphertext(lam, m)
            norm = qcore.trace_norm(avg.entries - np.eye(2**lam) / 2**lam)
            worst = max(worst, norm)
            assert norm <= 1e-12
    _report(9, f"key-averaged ciphertext exactly maximally mixed (worst trace norm {worst:.2e})")


def test_c10_wrong_key_detection():
    rng = np.random.default_rng(50)
    # correct-key round trips, exhaustive over keys and messages
    for lam in (1, 2, 3):
        for k_int in range(2 ** (4 * lam)):
            k = tuple((k_int >> (4 * lam - 1 - i)) & 1 for i in range(4 * lam))
            for m_int in range(2**lam):
                m = tuple((m_int >> (lam - 1 - i)) & 1 for i in range(lam))
                assert uc.wkd_dec(k, uc.wkd_enc(k, m, rng)) == m

    # wrong-key acceptance: enumeration vs the independent closed form
    for lam in (1, 2, 3):
        enum = uc.wkd_wrong_key_acceptance_exact(lam)
        formula = (2 ** (3 * lam) - 1) / (2 ** (4 * lam) - 1)
        assert abs(enum - formula) <= 1e-12

    # lam = 4: sampled through the real encrypt/decrypt path
    res = uc.wkd_wrong_key_acceptance_mc(4, trials=10_000, rng=np.random.default_rng(51))
    formula4 = (2**12 - 1) / (2**16 - 1)
    sigma = np.sqrt(formula4 * (1 - formula4) / 10_000)
    assert abs(res["acceptance"] - formula4) <= 4 * sigma, res
    _report(10, f"round trips exact at lam<=3; wrong-key rate {res['acceptance']:.4f} vs {formula4:.4f} at lam=4")


def test_c11_copy_protection_correctness():
    rng = np.random.default_rng(60)
    cycles_per_lam = 334
    for lam in (1, 2, 3):
        for t in range(cycles_per_lam):
            seed = 1000 * lam + t
            f = cp.random_point_function(lam, rng)
            cfg = protocol.MultiRoundConfig(
                n=2 * lam, m_blocks=2, delta=0.05, width=4, seed=seed, reveal_theta=False
            )
            prog, result = cp.cp_protect(lam, f, cfg, provers.HonestProver(seed=seed), rng)
            assert prog is not None
            out, _, accepted = cp.cp_eval(lam, prog, f.y, rng)
            assert accepted and out == f.m, (lam, t)

    # false-accept rate against the exact computation at lam <= 2
    for lam in (1, 2):
        f = cp.random_point_function(lam, rng)
        cfg = protocol.MultiRoundConfig(
            n=2 * lam, m_blocks=2, delta=0.05, width=4, seed=7 * lam, reveal_theta=False
        )
        prog, _ = cp.cp_protect(lam, f, cfg, provers.HonestProver(seed=7 * lam), rng)
        probed = 0
        candidates = 0
        while probed < 2 and candidates < 4000:
            candidates += 1
            x = tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
            if x == f.y:
                continue
            p_exact = cp.cp_accept_probability(prog, x)
            if p_exact < 1e-12:
                out, _, accepted = cp.cp_eval(lam, prog, x, rng)
                assert not accepted and out == (0,) * lam
                continue
            trials = 800
            hits = sum(cp.cp_eval(lam, prog, x, rng)[2] for _ in range(trials))
            sigma = np.sqrt(max(p_exact * (1 - p_exact), 1e-9) / trials)
            assert abs(hits / trials - p_exact) <= 4 * sigma + 1e-9, (lam, p_exact)
            probed += 1
    _report(11, "1002 protect/eval cycles all correct at lam<=3; false-accept rates match the exact computation")


def test_c12_pairwise_independence():
    from parrsp import gf2

    keys = list(gf2.all_perm_keys(3))
    assert len(keys) == 56
    for x1 in range(8):
        for x2 in range(8):
            if x1 == x2:
                continue
            counts = {}
            inv_counts = {}
            for key in keys:
                pair = (gf2.pip_eval_int(key, x1), gf2.pip_eval_int(key, x2))
                counts[pair] = counts.get(pair, 0) + 1
                inv_pair = (gf2.pip_invert_int(key, x1), gf2.pip_invert_int(key, x2))
                inv_counts[inv_pair] = inv_counts.get(inv_pair, 0) + 1
            assert len(counts) == 56 and set(counts.values()) == {1}
            assert len(inv_counts) == 56 and set(inv_counts.values()) == {1}
    _report(12, "image pairs exactly uniform over distinct pairs at w=3, forward and inverse families")


def test_c13_history_state():
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        t_len = int(rng.integers(0, 7))
        gates = []
        for _ in range(t_len):
            name = ["X", "Z", "H", "S", "T", "CNOT"][int(rng.integers(0, 6))]
            if name == "CNOT" and n >= 2:
                a, b = rng.choice(n, size=2, replace=False)
                gates.append(dl.Gate("CNOT", (int(a), int(b))))
            else:
                gates.append(dl.Gate(name if name != "CNOT" else "H", (int(rng.integers(0, n)),)))
        circuit = dl.Circuit(n, tuple(gates))
        x = tuple(int(b) for b in rng.integers(0, 2, size=n))
        hs = dl.history_state(circuit, x)
        for t in range(t_len + 1):
            proj = dl.history_clock_projection(hs, circuit, t)
            expected = circuit.apply(qcore.StateVector.basis_state(x), upto=t).amplitudes
            gap = float(np.max(np.abs(proj - expected / np.sqrt(t_len + 1))))
            worst = max(worst, gap)
            assert gap <= 1e-12
    _report(13, f"clock projections equal circuit prefixes / sqrt(T+1) (worst gap {worst:.2e})")


def test_c14_determinism_and_transport():
    cfg = _config(2, 3, seed=99)
    first = protocol.run_multi_round(cfg, provers.HonestProver(seed=13))
    second = protocol.run_multi_round(cfg, provers.HonestProver(seed=13))
    assert first.transcript.to_bytes() == second.transcript.to_bytes()

    import socket as socketmod
    import threading

    probe = socketmod.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    ready = threading.Event()
    thread = threading.Thread(
        target=wire.serve_prover,
        args=("127.0.0.1", port),
        kwargs={"prover_factory": lambda: provers.HonestProver(seed=13), "ready_event": ready},
    )
    thread.start()
    ready.wait(timeout=5)
    client = wire.SocketProverClient.connect("127.0.0.1", port)
    remote = protocol.run_multi_round(cfg, client)
    client.close()
    thread.join(timeout=5)
    assert remote.transcript.to_bytes() == first.transcript.to_bytes()
    report = transcript.replay(remote.transcript)
    assert report.ok
    _report(14, "same seed gives byte-identical transcripts; socket and in-process sessions agree")
