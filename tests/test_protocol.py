"""Protocol rounds, prover strategies, transcripts, and transports."""

import hashlib
import json
import socket
import threading

import numpy as np
import pytest

from parrsp import cli, entcf, protocol, provers, qcore, transcript, wire
from parrsp.seeds import derive_seed


PINNED_TRANSCRIPT_SHA256 = "fe26d081e6b761e9befc2c36b1c00bacb9fa780b80c0f1683b5b3c4d2eec716d"


def config(n=2, m=2, delta=0.05, width=4, seed=0, **kw):
    return protocol.MultiRoundConfig(n=n, m_blocks=m, delta=delta, width=width, seed=seed, **kw)


def bb84_target(theta_vec, v_vec):
    out = None
    for theta, v in zip(theta_vec, v_vec):
        s = qcore.StateVector.basis_state([v])
        if theta:
            s = qcore.apply_operator(qcore.hadamard(), s, [0])
        out = s if out is None else qcore.tensor_product(out, s)
    return out


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError, match="copy"):
            config(n=0)
        with pytest.raises(ValueError, match="block"):
            config(m=0)
        with pytest.raises(ValueError, match="delta"):
            config(delta=1.5)
        with pytest.raises(ValueError, match="width"):
            config(width=30)


class TestHonestTestRound:
    @pytest.mark.parametrize("round_type", ["preimage", "hadamard"])
    def test_always_ok(self, round_type):
        for seed in range(30):
            cfg = config(n=2, seed=seed)
            rec = protocol.run_test_round(
                cfg, provers.HonestProver(seed=seed), round_index=seed, force_round_type=round_type
            )
            assert rec.flag == protocol.FLAG_OK

    def test_both_theta_values_covered(self):
        # the per-round basis draw is uniform; make sure both arms get hit
        thetas = set()
        for seed in range(20):
            rec = protocol.run_test_round(config(seed=seed), provers.HonestProver(seed=seed))
            thetas.add(rec.theta)
            assert rec.flag == protocol.FLAG_OK
        assert thetas == {0, 1}

    def test_record_contents(self):
        rec = protocol.run_test_round(
            config(seed=3), provers.HonestProver(seed=3), force_round_type="hadamard"
        )
        assert rec.question == rec.theta
        assert len(rec.images) == 2 and len(rec.answers) == 2
        assert rec.equations is not None and rec.preimage_answers is None

    def test_honest_claw_preimage_answers_uniform(self):
        # claw-free commits answer one of the two claw members, evenly
        per_branch = {0: 0, 1: 0}
        checked = 0
        for seed in range(1200):
            cfg = config(n=1, seed=seed)
            rec = protocol.run_test_round(
                cfg, provers.HonestProver(seed=seed), round_index=seed,
                force_round_type="preimage",
            )
            if rec.theta != 1:
                continue
            assert rec.flag == protocol.FLAG_OK
            b, x = rec.preimage_answers[0]
            assert entcf.chk(rec.keys[0], rec.images[0], b, x)
            per_branch[b] += 1
            checked += 1
        total = per_branch[0] + per_branch[1]
        sigma = np.sqrt(total * 0.25)
        assert abs(per_branch[0] - total / 2) < 5 * sigma
        assert checked > 400

    def test_honest_phase_bit_consistency(self):
        # claw-free copies: the honest answer equals the decoded equation bit
        for seed in range(40):
            cfg = config(n=1, seed=seed)
            rec = protocol.run_test_round(
                cfg, provers.HonestProver(seed=seed), round_index=seed, force_round_type="hadamard"
            )
            if rec.theta == 1:
                td = entcf.trapdoor_from_key(rec.keys[0])
                assert rec.answers[0] == entcf.decode_u(td, rec.images[0], rec.equations[0])


class TestPrepRound:
    def test_computational_mode_gives_b_hat(self):
        for seed in range(10):
            prover = provers.HonestProver(seed=seed)
            v_vec, states = protocol.run_prep_round(config(n=3, seed=seed), (0, 0, 0), prover)
            for v, state, in zip(v_vec, states):
                assert qcore.fidelity(state, qcore.StateVector.basis_state([v])) > 1 - 1e-12

    def test_final_state_matches_bb84(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            theta = tuple(int(b) for b in rng.integers(0, 2, size=3))
            prover = provers.HonestProver(seed=seed)
            v_vec, _ = protocol.run_prep_round(config(n=3, seed=seed), theta, prover)
            joint = prover.final_states()
            assert qcore.fidelity(joint, bb84_target(theta, v_vec)) > 1 - 1e-9

    def test_v_distribution_uniform(self):
        # chi-square style check against uniform over {0,1}^2
        n_runs = 10_000
        counts = {}
        cfg_base = config(n=2, width=2)
        for seed in range(n_runs):
            cfg = config(n=2, width=2, seed=seed)
            v_vec, _ = protocol.run_prep_round(
                cfg, (seed % 2, (seed // 2) % 2), provers.HonestProver(seed=seed), round_index=0
            )
            counts[v_vec] = counts.get(v_vec, 0) + 1
        expected = n_runs / 4
        sigma = np.sqrt(n_runs * 0.25 * 0.75)
        for v, c in counts.items():
            assert abs(c - expected) < 4 * sigma, f"v={v} count={c}"

    def test_theta_validation(self):
        with pytest.raises(ValueError, match="n bits"):
            protocol.run_prep_round(config(n=2), (0,), provers.HonestProver(0))


class TestCheatingProvers:
    def test_random_answer_hadamard_rate(self):
        trials = 2000
        accepted = 0
        for seed in range(trials):
            rec = protocol.run_test_round(
                config(n=2, seed=seed),
                provers.RandomAnswerProver(seed=seed),
                round_index=seed,
                force_round_type="hadamard",
            )
            accepted += rec.flag == protocol.FLAG_OK
        p = accepted / trials
        sigma = np.sqrt(0.25 * 0.75 / trials)
        assert abs(p - 0.25) < 5 * sigma

    def test_random_answer_preimage_rate(self):
        # acceptance 2^(-n(w+1)) = 2^-10; seeded run stays below 1e-3
        trials = 100_000
        accepted = 0
        for seed in range(trials):
            rec = protocol.run_test_round(
                config(n=2, width=4, seed=seed),
                provers.RandomAnswerProver(seed=seed),
                round_index=seed,
                force_round_type="preimage",
            )
            accepted += rec.flag == protocol.FLAG_OK
        assert accepted / trials < 1e-3

    def test_wrong_basis_theta_one_rate(self):
        # measuring the Hadamard-basis qubit computationally gives a fair coin
        hits = []
        for seed in range(3000):
            rec = protocol.run_test_round(
                config(n=1, seed=seed),
                provers.WrongBasisProver(seed=seed),
                round_index=seed,
                force_round_type="hadamard",
            )
            if rec.theta == 1:
                hits.append(rec.flag == protocol.FLAG_OK)
        p = np.mean(hits)
        sigma = np.sqrt(0.25 / len(hits))
        assert abs(p - 0.5) < 5 * sigma

    def test_constant_v_rate(self):
        # both basis modes give acceptance 2^-n for the all-zeros answer
        hits = []
        for seed in range(10_000):
            rec = protocol.run_test_round(
                config(n=2, seed=seed),
                provers.ConstantVProver(seed=seed),
                round_index=seed,
                force_round_type="hadamard",
            )
            hits.append(rec.flag == protocol.FLAG_OK)
        p = np.mean(hits)
        sigma = np.sqrt(0.25 * 0.75 / len(hits))
        assert abs(p - 0.25) < 4 * sigma

    def test_delayed_classical_passes_preimage_and_theta_zero(self):
        for seed in range(25):
            rec = protocol.run_test_round(
                config(n=2, seed=seed),
                provers.DelayedClassicalProver(seed=seed),
                round_index=seed,
                force_round_type="preimage",
            )
            assert rec.flag == protocol.FLAG_OK
        hits = []
        for seed in range(600):
            rec = protocol.run_test_round(
                config(n=2, seed=seed),
                provers.DelayedClassicalProver(seed=seed),
                round_index=seed,
                force_round_type="hadamard",
            )
            if rec.theta == 0:
                hits.append(rec.flag == protocol.FLAG_OK)
        assert np.mean(hits) == 1.0

    def test_always_wrong_fails_deterministically(self):
        for seed in range(30):
            for round_type in ("preimage", "hadamard"):
                rec = protocol.run_test_round(
                    config(n=1, seed=seed),
                    provers.AlwaysWrongProver(seed=seed),
                    round_index=seed,
                    force_round_type=round_type,
                )
                expected = (
                    protocol.FLAG_FAIL_PRE if round_type == "preimage" else protocol.FLAG_FAIL_HAD
                )
                assert rec.flag == expected

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            provers.cheating_prover("nope")


class TestMultiRound:
    def test_honest_accepts(self):
        for seed in range(10):
            res = protocol.run_multi_round(config(n=2, m=3, seed=seed), provers.HonestProver(seed=seed))
            assert res.accepted
            assert res.v_vec is not None and res.theta_vec is not None
            assert all(f == protocol.FLAG_OK for f in res.flags)

    def test_reject_hides_outputs(self):
        res = protocol.run_multi_round(
            config(n=1, m=4, delta=0.1, seed=5), provers.AlwaysWrongProver(seed=5)
        )
        if not res.accepted:
            assert res.v_vec is None and res.theta_vec is None

    def test_always_wrong_abort_carries_block(self):
        aborted = [
            protocol.run_multi_round(config(n=1, m=4, delta=0.1, seed=s), provers.AlwaysWrongProver(seed=s))
            for s in range(40)
        ]
        rejected = [r for r in aborted if not r.accepted]
        assert rejected and all(r.abort_block == 1 for r in rejected)

    def test_m_equals_one_boundary(self):
        # S = 0 and R = 1 are forced: no test rounds at all, prep only
        res = protocol.run_multi_round(config(n=2, m=1, seed=0), provers.HonestProver(seed=0))
        assert res.accepted and res.flags == []

    def test_prep_theta_override(self):
        res = protocol.run_multi_round(
            config(n=3, m=2, seed=4), provers.HonestProver(seed=4), prep_theta=(1, 0, 1)
        )
        assert res.theta_vec == (1, 0, 1)

    def test_strict_trailing_mode(self):
        # find a seed whose trailing stretch is nonempty, then compare modes
        for seed in range(60):
            lax = protocol.run_multi_round(
                config(n=1, m=4, delta=0.9, seed=seed), provers.AlwaysWrongProver(seed=seed)
            )
            if lax.accepted and lax.r_draw > 1 and lax.s_blocks == 0:
                strict = protocol.run_multi_round(
                    config(n=1, m=4, delta=0.9, seed=seed, strict_trailing=True),
                    provers.AlwaysWrongProver(seed=seed),
                )
                assert not strict.accepted
                return
        pytest.fail("no suitable seed found")

    def test_malformed_prover_aborts_distinctly(self):
        class Garbage:
            def handle(self, msg):
                return {"type": "IMAGES", "y": ["zz", "qq"]} if msg["type"] == "KEYS" else None

        res = protocol.run_multi_round(config(n=2, m=2, seed=1), Garbage())
        # an in-protocol abort is distinct from fail flags
        assert not res.accepted
        assert res.abort_block == -1
        assert "abort" in res.abort_reason

    @pytest.mark.parametrize("bad_reply_to", ["KEYS", "ROUND_TYPE"])
    def test_wrong_round_in_reply_aborts_and_replays(self, bad_reply_to):
        class WrongRound(provers.HonestProver):
            def handle(self, msg):
                reply = super().handle(msg)
                if msg["type"] == bad_reply_to:
                    reply["round"] += 7
                return reply

        res = protocol.run_multi_round(config(n=2, m=2, seed=1), WrongRound(seed=1))
        assert not res.accepted
        assert res.abort_block == -1 and "round" in res.abort_reason
        assert transcript.replay(res.transcript).ok

    def test_reveal_theta_flag(self):
        res = protocol.run_multi_round(
            config(n=2, m=2, seed=3, reveal_theta=False), provers.HonestProver(seed=3)
        )
        final = [l for l in res.transcript.lines if '"FINAL"' in l]
        assert final and '"theta"' not in final[0]


class TestDeterminismAndTransport:
    def test_same_seed_byte_identical(self):
        r1 = protocol.run_multi_round(config(n=2, m=3, seed=11), provers.HonestProver(seed=7))
        r2 = protocol.run_multi_round(config(n=2, m=3, seed=11), provers.HonestProver(seed=7))
        assert r1.transcript.to_bytes() == r2.transcript.to_bytes()

    def test_different_seed_differs(self):
        r1 = protocol.run_multi_round(config(n=2, m=3, seed=11), provers.HonestProver(seed=7))
        r2 = protocol.run_multi_round(config(n=2, m=3, seed=12), provers.HonestProver(seed=7))
        assert r1.transcript.to_bytes() != r2.transcript.to_bytes()

    def test_seeded_transcripts_pinned(self):
        """One SHA-256 over seeded sessions of every prover strategy.

        It pins the keyed permutation, the provers' and the verifier's RNG
        streams and the wire format: a silent change to any of them fails.
        """
        digest = hashlib.sha256()
        for name in provers.PROVER_NAMES:
            for width in (2, 4, 16):
                for seed in range(4):
                    prover_seed = derive_seed(seed, "prover")
                    prover = (
                        provers.HonestProver(prover_seed) if name == "honest"
                        else provers.cheating_prover(name, prover_seed)
                    )
                    result = protocol.run_multi_round(config(n=2, m=3, width=width, seed=seed), prover)
                    digest.update(result.transcript.to_bytes())
        assert digest.hexdigest() == PINNED_TRANSCRIPT_SHA256

    def test_socket_equals_in_process(self):
        cfg = config(n=2, m=3, seed=42)
        local = protocol.run_multi_round(cfg, provers.HonestProver(seed=5))

        ready = threading.Event()
        thread = threading.Thread(
            target=wire.serve_prover,
            args=("127.0.0.1", 0),
            kwargs={"prover_factory": lambda: provers.HonestProver(seed=5), "ready_event": ready},
        )
        # need a concrete port; use a bound socket then hand over
        import socket as socketmod

        probe = socketmod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        thread = threading.Thread(
            target=wire.serve_prover,
            args=("127.0.0.1", port),
            kwargs={"prover_factory": lambda: provers.HonestProver(seed=5), "ready_event": ready},
        )
        thread.start()
        ready.wait(timeout=5)
        client = wire.SocketProverClient.connect("127.0.0.1", port)
        remote = protocol.run_multi_round(cfg, client)
        client.close()
        thread.join(timeout=5)
        assert remote.accepted == local.accepted
        assert remote.transcript.to_bytes() == local.transcript.to_bytes()

    def test_oversized_frame_is_refused(self):
        sender, receiver = socket.socketpair()
        with sender, receiver:
            receiver.settimeout(5)  # a reader that waits for the body fails, not hangs
            sender.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ConnectionError, match="exceeds"):
                wire.recv_message(receiver)
            # a frame within the limit still reads normally
            wire.send_message(sender, {"type": "ACK"})
            assert wire.recv_message(receiver) == {"type": "ACK"}

    def test_frame_nested_too_deeply_is_refused(self):
        sender, receiver = socket.socketpair()
        with sender, receiver:
            receiver.settimeout(5)
            body = b"[" * 100_000 + b"]" * 100_000
            sender.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ValueError, match="nested too deeply"):
                wire.recv_message(receiver)

    def test_wire_bit_encoding_roundtrip(self):
        assert wire.bits_to_hex((1, 0, 1, 1)) == "b"
        assert wire.hex_to_bits("b", 4) == (1, 0, 1, 1)
        assert wire.bits_to_hex((0, 1, 0, 0, 1)) == "09"
        assert wire.hex_to_bits("09", 5) == (0, 1, 0, 0, 1)
        with pytest.raises(ValueError):
            wire.hex_to_int("ff", 4)

    def test_keys_message_carries_no_trapdoor_object(self):
        res = protocol.run_multi_round(config(n=1, m=2, seed=2), provers.HonestProver(seed=2))
        import json

        for line in res.transcript.lines:
            msg = json.loads(line)
            if msg.get("type") == "KEYS":
                for key in msg["keys"]:
                    assert set(key) <= {"mode", "width", "seed_hex", "delta_hex"}


class TestTranscriptReplay:
    def _run(self, seed=9):
        return protocol.run_multi_round(config(n=2, m=3, seed=seed), provers.HonestProver(seed=seed))

    def test_replay_clean(self):
        res = self._run()
        report = transcript.replay(res.transcript)
        assert report.ok and not report.mismatches

    def test_replay_from_file(self, tmp_path):
        res = self._run()
        path = tmp_path / "t.jsonl"
        res.transcript.save(path)
        assert transcript.replay(path).ok

    def test_tampered_flag_detected(self):
        res = self._run()
        lines = res.transcript.lines
        idx = next(i for i, l in enumerate(lines) if '"VERDICT"' in l and '"ok"' in l)
        lines[idx] = lines[idx].replace('"ok"', '"fail_Had"')
        report = transcript.replay(lines)
        assert not report.ok
        assert any(m["field"] == "flag" for m in report.mismatches)

    def test_flipped_answer_bit_detected_with_round(self):
        # need a run containing at least one Hadamard-type test round
        for seed in range(20, 60):
            res = self._run(seed=seed)
            if any('"ANSWERS"' in l for l in res.transcript.lines):
                break
        lines = res.transcript.lines
        import json

        idx = next(i for i, l in enumerate(lines) if '"ANSWERS"' in l)
        msg = json.loads(lines[idx])
        msg["v"][0] ^= 1
        lines[idx] = transcript.canonical_json(msg)
        report = transcript.replay(lines)
        assert not report.ok
        flagged = [m for m in report.mismatches if m["field"] == "flag"]
        assert flagged and flagged[0]["recomputed"] == "fail_Had"
        assert flagged[0]["round"] == msg["round"]

    def test_truncated_file_is_format_error(self, tmp_path):
        res = self._run()
        path = tmp_path / "t.jsonl"
        data = res.transcript.to_bytes()[:-40]
        path.write_bytes(data)
        with pytest.raises(transcript.TranscriptFormatError):
            transcript.replay(path)

    def test_reply_too_deep_to_record_is_format_error(self):
        lines = self._run().transcript.lines
        idx = next(i for i, l in enumerate(lines) if '"IMAGES"' in l)
        lines[idx] = lines[idx][:-1] + ',"extra":' + "[" * 500 + "]" * 500 + "}"
        with pytest.raises(transcript.TranscriptFormatError, match="nested"):
            transcript.replay(lines)

    def test_reply_too_deep_to_copy_aborts_the_live_session(self):
        class Nesting(provers.HonestProver):
            def handle(self, msg):
                reply = super().handle(msg)
                if msg["type"] == "KEYS":
                    deep = []
                    for _ in range(600):
                        deep = [deep]
                    reply["extra"] = deep
                return reply

        res = protocol.run_multi_round(config(n=2, m=2, seed=1), Nesting(seed=1))
        # recorded as its type alone, like a reply that is not an object
        assert not res.accepted and res.abort_block == -1
        assert res.abort_reason == 'protocol abort: expected IMAGES message, got {"type":"dict"}'
        assert transcript.replay(res.transcript).ok

    def test_replay_strict_mode_run(self):
        res = protocol.run_multi_round(
            config(n=1, m=3, seed=17, strict_trailing=True), provers.HonestProver(seed=17)
        )
        assert transcript.replay(res.transcript).ok

    def test_tampered_v_summary_detected(self):
        res = self._run(seed=31)
        lines = res.transcript.lines
        import json

        summary = json.loads(lines[-1])
        flipped = format(int(summary["v"], 16) ^ 1, "x")
        summary["v"] = flipped.zfill(len(summary["v"]))
        lines[-1] = transcript.canonical_json(summary)
        report = transcript.replay(lines)
        assert not report.ok
        assert any(m["field"] == "v" for m in report.mismatches)


def _find_session(predicate, prover_cls=provers.HonestProver, **kw):
    """First seeded session (n=2, m=3 unless overridden) whose result satisfies predicate."""
    for seed in range(200):
        res = protocol.run_multi_round(config(**{"n": 2, "m": 3, "seed": seed, **kw}), prover_cls(seed=seed))
        if predicate(res):
            return res
    pytest.fail("no seed gives the session shape the test needs")


def _has(res, mtype):
    return any(f'"type":"{mtype}"' in line for line in res.transcript.lines)


class TestStrictWireTypes:
    @pytest.mark.parametrize(
        "mtype, corrupt",
        [
            ("PREIMAGES", lambda r: r["pairs"][0].update(b=float("inf"))),
            ("PREIMAGES", lambda r: r["pairs"][0].update(b=True)),
            ("ANSWERS", lambda r: r["v"].__setitem__(0, float(r["v"][0]))),
            ("ANSWERS", lambda r: r["v"].__setitem__(0, bool(r["v"][0]))),
            ("IMAGES", lambda r: r["y"].__setitem__(0, r["y"][0].upper() + " ")),
            ("IMAGES", lambda r: r["y"].__setitem__(0, "0" + r["y"][0])),
            ("EQUATIONS", lambda r: r["d"].__setitem__(0, " " + r["d"][0])),
        ],
        ids=["b-infinity", "b-bool", "v-float", "v-bool", "y-not-canonical", "y-padded", "d-spaced"],
    )
    def test_non_integer_bit_or_hex_aborts(self, mtype, corrupt):
        class Corrupting(provers.HonestProver):
            def handle(self, msg):
                reply = super().handle(msg)
                if reply is not None and reply["type"] == mtype:
                    corrupt(reply)
                return reply

        res = _find_session(lambda r: _has(r, mtype) and not r.accepted, Corrupting)
        assert res.abort_block == -1 and res.abort_reason.startswith("protocol abort")
        assert transcript.replay(res.transcript).ok

    def test_non_canonical_hex_in_transcript_is_format_error(self):
        # the re-run aborts on the recorded reply, as the live verifier would have: its FINAL
        # stands where the transcript goes on with the round
        res = _find_session(lambda r: r.accepted)
        lines = res.transcript.lines
        idx = next(i for i, l in enumerate(lines) if '"IMAGES"' in l)
        msg = json.loads(lines[idx])
        msg["y"][0] = "0" + msg["y"][0]
        lines[idx] = transcript.canonical_json(msg)
        report = transcript.replay(lines)
        assert not report.ok
        assert report.mismatches[0]["round"] == msg["round"] and report.mismatches[0]["type"] == "FINAL"


def _edit(lines, record_type, **changes):
    out = []
    for line in lines:
        msg = json.loads(line)
        if msg["type"] == record_type:
            msg.update(changes)
        out.append(transcript.canonical_json(msg))
    return out


def _fields(report):
    return {m["field"] for m in report.mismatches}


class TestReplaySessionShape:
    def test_theta_must_match_prep_key_modes(self):
        res = _find_session(lambda r: r.accepted)
        flipped = wire.bits_to_hex([1 - t for t in res.theta_vec])
        for record_type in ("SUMMARY", "FINAL"):
            report = transcript.replay(_edit(res.transcript.lines, record_type, theta=flipped))
            assert not report.ok and _fields(report) == {"theta"}

    @pytest.mark.parametrize("field", ["s_blocks", "r_draw"])
    def test_schedule_draws_must_match_seed(self, field):
        res = _find_session(lambda r: r.accepted and r.s_blocks > 0 and r.r_draw > 1)
        report = transcript.replay(_edit(res.transcript.lines, "SUMMARY", **{field: 0}))
        assert not report.ok and field in _fields(report)

    @pytest.mark.parametrize("drop", ["round-0", "all-test-rounds"])
    def test_deleted_test_rounds_are_reported(self, drop):
        res = _find_session(lambda r: r.accepted and len(r.flags) >= 2)
        gone = {0} if drop == "round-0" else set(range(len(res.flags)))
        kept = [l for l in res.transcript.lines if json.loads(l).get("round") not in gone]
        # keep the summary's flag list consistent with what is left
        flags = [f for i, f in enumerate(res.flags) if i not in gone]
        report = transcript.replay(_edit(kept, "SUMMARY", flags=flags))
        # the re-run's round 0 KEYS stands where the transcript holds a later round's
        assert not report.ok and report.mismatches[0]["round"] == 0 and report.mismatches[0]["type"] == "KEYS"



class ForcedPreimageVerifier(protocol.VerifierSession):
    """A forger: the live verifier, except that every test round is a preimage round."""

    def run_test_round(self, round_index, force_round_type=None):
        return super().run_test_round(round_index, protocol.PREIMAGE_ROUND)


def _verify_cli(capsys, path):
    """Exit code and JSON output of `transcript verify` on a file."""
    code = cli.main(["transcript", "verify", "--file", str(path), "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestReplayForgeries:
    """Transcripts the verifier never wrote, which a replay trusting the recorded verifier messages passed."""

    @pytest.mark.parametrize("strategy", ["wrong_basis", "constant_v"])
    def test_forced_preimage_acceptance(self, strategy, capsys, tmp_path):
        cfg = config(n=2, m=4, delta=0.2, seed=0)
        assert not protocol.run_multi_round(cfg, provers.cheating_prover(strategy, 0)).accepted
        forged = ForcedPreimageVerifier(cfg, provers.cheating_prover(strategy, 0)).run_multi_round()
        assert forged.accepted
        report = transcript.replay(forged.transcript)
        assert not report.ok
        assert report.mismatches[0] == {"round": 1, "type": "ROUND_TYPE", "field": "round_type",
                                        "recorded": "preimage", "recomputed": "hadamard"}
        forged.transcript.save(tmp_path / "t.jsonl")
        code, payload = _verify_cli(capsys, tmp_path / "t.jsonl")
        assert code == 2 and payload["mismatches"] == report.mismatches

    def test_forged_abort_of_an_accepted_session(self, capsys, tmp_path):
        res = protocol.run_multi_round(config(n=2, m=4, delta=0.2, seed=5), provers.HonestProver(seed=5))
        assert res.accepted
        lines = [l for l in res.transcript.lines if json.loads(l)["type"] != "FINAL"]
        lines = _edit(lines, "SUMMARY", accepted=False, abort_reason="protocol abort: forged")
        report = transcript.replay(lines)
        # the re-run accepts and writes FINAL where the forgery goes straight to its SUMMARY
        assert not report.ok
        assert report.mismatches[0] == {"round": None, "type": "FINAL", "field": "type",
                                        "recorded": "SUMMARY", "recomputed": "FINAL"}
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        assert _verify_cli(capsys, tmp_path / "t.jsonl")[0] == 2

    def test_deleted_last_round_of_a_block_abort(self, capsys, tmp_path):
        res = next(r for r in (
            protocol.run_multi_round(config(n=1, m=4, seed=seed), provers.AlwaysWrongProver(seed=seed))
            for seed in range(40)) if r.abort_block is not None and r.abort_block > 0)
        last = len(res.flags) - 1
        kept = [l for l in res.transcript.lines if json.loads(l).get("round") != last]
        lines = _edit(kept, "SUMMARY", flags=res.flags[:-1], abort_reason="protocol abort: edited")
        report = transcript.replay(lines)
        # the re-run plays the deleted round: its KEYS stands where the transcript holds FINAL
        assert not report.ok
        assert report.mismatches[0] == {"round": last, "type": "KEYS", "field": "type",
                                        "recorded": "FINAL", "recomputed": "KEYS"}
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        assert _verify_cli(capsys, tmp_path / "t.jsonl")[0] == 2

    def test_accepted_written_as_one(self):
        # 1 == True in Python; the verifier writes true
        res = protocol.run_multi_round(config(n=2, m=4, seed=4), provers.HonestProver(seed=4))
        assert res.accepted
        report = transcript.replay(_edit(res.transcript.lines, "SUMMARY", accepted=1))
        assert not report.ok
        assert report.mismatches[0]["type"] == "SUMMARY" and report.mismatches[0]["field"] == "accepted"

    def test_key_mode_written_as_false(self):
        # 0 == False in Python; the verifier writes the mode as an integer
        res = protocol.run_multi_round(config(n=2, m=4, seed=4), provers.HonestProver(seed=4))
        lines = res.transcript.lines
        idx = next(i for i, line in enumerate(lines) if '"KEYS"' in line and '"mode":0' in line)
        msg = json.loads(lines[idx])
        next(key for key in msg["keys"] if key["mode"] == 0)["mode"] = False
        lines[idx] = transcript.canonical_json(msg)
        report = transcript.replay(lines)
        assert not report.ok
        assert report.mismatches[0]["type"] == "KEYS" and report.mismatches[0]["field"] == "keys"
        assert report.mismatches[0]["round"] == msg["round"]


class TestProverServerErrors:
    BAD_KEYS = {"type": "KEYS", "session": "s", "round": 0, "keys": [{"mode": 0}]}

    def test_bad_message_gets_error_reply(self):
        server, client = socket.socketpair()
        with server, client:
            client.settimeout(10)
            thread = threading.Thread(
                target=wire.serve_prover_connection, args=(server, provers.HonestProver(0))
            )
            thread.start()
            wire.send_message(client, self.BAD_KEYS)
            reply = wire.recv_message(client)
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert reply["type"] == "ERROR" and "KeyError" in reply["reason"]

    def test_verifier_aborts_on_error_reply(self):
        class FailsInRoundOne(provers.HonestProver):
            def handle(self, msg):
                if msg.get("round") == 1:
                    raise ValueError("cannot answer")
                return super().handle(msg)

        cfg = next(c for c in (config(m=3, seed=s) for s in range(50))
                   if protocol.run_multi_round(c, provers.HonestProver(0)).flags)
        server, client = socket.socketpair()
        with server, client:
            client.settimeout(10)
            thread = threading.Thread(
                target=wire.serve_prover_connection, args=(server, FailsInRoundOne(0))
            )
            thread.start()
            res = protocol.run_multi_round(cfg, wire.SocketProverClient(client))
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert not res.accepted and res.abort_block == -1
        assert "ERROR" in res.abort_reason and "cannot answer" in res.abort_reason
        assert transcript.replay(res.transcript).ok

    def test_abort_reason_reads_the_same_over_a_socket(self):
        class WrongReplyToKeys(provers.HonestProver):
            # unsorted keys and a tuple: a repr of this reply differs from one of its JSON decoding
            def handle(self, msg):
                reply = super().handle(msg)
                if msg["type"] == "KEYS":
                    return {"type": "WRONG", "round": msg["round"], "y": tuple(reply["y"])}
                return reply

        cfg = config(n=2, m=3, seed=42)
        local = protocol.run_multi_round(cfg, WrongReplyToKeys(seed=5))
        server, client = socket.socketpair()
        with server, client:
            client.settimeout(10)
            thread = threading.Thread(target=wire.serve_prover_connection, args=(server, WrongReplyToKeys(seed=5)))
            thread.start()
            remote = protocol.run_multi_round(cfg, wire.SocketProverClient(client))
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert remote.transcript.to_bytes() == local.transcript.to_bytes()
        assert local.abort_reason.startswith('protocol abort: expected IMAGES message, got {"round":0,')

    def test_server_goes_on_to_next_session(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ready = threading.Event()
        thread = threading.Thread(
            target=wire.serve_prover,
            args=("127.0.0.1", port, lambda: provers.HonestProver(seed=5)),
            kwargs={"sessions": 2, "ready_event": ready},
        )
        thread.start()
        assert ready.wait(timeout=10)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
            wire.send_message(conn, self.BAD_KEYS)
            assert wire.recv_message(conn)["type"] == "ERROR"
        cfg = config(n=2, m=3, seed=42)
        client = wire.SocketProverClient.connect("127.0.0.1", port)
        client.conn.settimeout(10)
        remote = protocol.run_multi_round(cfg, client)
        client.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        local = protocol.run_multi_round(cfg, provers.HonestProver(seed=5))
        assert remote.transcript.to_bytes() == local.transcript.to_bytes()


def _wire_record(record: dict) -> dict:
    """A transcript record as it went over the wire: without dir and seq."""
    return {k: v for k, v in record.items() if k not in ("dir", "seq")}


class TestVerdictAckReadLate:
    """The verifier reads a VERDICT's ACK only after it has sent the next frame."""

    @staticmethod
    def serve_late_acks(conn, prover):
        # an honest server that ACKs each VERDICT only once the next frame is in
        ack_owed = False
        while True:
            msg = wire.recv_message(conn)
            if ack_owed:
                wire.send_message(conn, {"type": "ACK"})
                ack_owed = False
            reply = prover.handle(msg)
            if msg["type"] == "FINAL":
                wire.send_message(conn, {"type": "ACK"})
                return
            if msg["type"] == "VERDICT":
                ack_owed = True
            else:
                wire.send_message(conn, reply)

    def test_ack_sent_after_the_next_frame(self, monkeypatch):
        monkeypatch.setattr(wire, "SOCKET_TIMEOUT_S", 0.5)
        cfg = config(n=2, m=3, seed=7)
        local = protocol.run_multi_round(cfg, provers.HonestProver(seed=5))
        assert len(local.flags) == 7  # seven VERDICTs, each followed by KEYS
        server, client = socket.socketpair()
        with server, client:
            server.settimeout(wire.SOCKET_TIMEOUT_S)
            client.settimeout(wire.SOCKET_TIMEOUT_S)
            thread = threading.Thread(
                target=self.serve_late_acks, args=(server, provers.HonestProver(seed=5)), daemon=True
            )
            thread.start()
            remote = protocol.run_multi_round(cfg, wire.SocketProverClient(client))
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert remote.transcript.to_bytes() == local.transcript.to_bytes()

    def test_error_in_place_of_a_verdict_ack_aborts(self):
        def serve(listener):
            # honest until the first VERDICT, which it answers with ERROR before it hangs up
            conn = listener.accept()[0]
            with conn:
                prover = provers.HonestProver(seed=5)
                while True:
                    msg = wire.recv_message(conn)
                    if msg["type"] == "VERDICT":
                        wire.send_message(conn, {"type": "ERROR", "reason": "no verdicts here"})
                        return
                    wire.send_message(conn, prover.handle(msg))

        cfg = config(n=2, m=3, seed=7)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            thread = threading.Thread(target=serve, args=(listener,), daemon=True)
            thread.start()
            client = wire.SocketProverClient.connect("127.0.0.1", listener.getsockname()[1])
            client.conn.settimeout(10)
            res = protocol.run_multi_round(cfg, client)
            client.close()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert not res.accepted and res.abort_block == -1
        assert res.abort_reason == (
            'protocol abort: expected IMAGES message, got {"reason":"no verdicts here","type":"ERROR"}'
        )
        records = [json.loads(line) for line in res.transcript.lines]
        # the ERROR is recorded as the reply to the frame after the VERDICT
        assert [r["type"] for r in records[-5:]] == ["VERDICT", "KEYS", "ERROR", "FINAL", "SUMMARY"]
        assert transcript.replay(res.transcript).ok

    @pytest.mark.parametrize("strategy", ["honest", "always_wrong"])
    def test_frames_on_the_wire_are_the_transcript(self, monkeypatch, strategy):
        """The server reads the v->p records and writes the p->v records, plus an ACK per VERDICT and FINAL."""
        server, client = socket.socketpair()
        reads, writes = [], []
        recv, send = wire.recv_message, wire.send_message

        def logged_recv(conn):
            msg = recv(conn)
            if conn is server:
                reads.append(msg)
            return msg

        def logged_send(conn, msg):
            if conn is server:
                writes.append(json.loads(wire.encode_message(msg)[4:]))
            send(conn, msg)

        monkeypatch.setattr(wire, "recv_message", logged_recv)
        monkeypatch.setattr(wire, "send_message", logged_send)
        prover = provers.HonestProver(5) if strategy == "honest" else provers.cheating_prover(strategy, 5)
        with server, client:
            client.settimeout(10)
            thread = threading.Thread(target=wire.serve_prover_connection, args=(server, prover))
            thread.start()
            res = protocol.run_multi_round(config(n=2, m=3, seed=7), wire.SocketProverClient(client))
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert res.accepted is (strategy == "honest")
        records = [json.loads(line) for line in res.transcript.lines[:-1]]  # the SUMMARY is never sent
        assert reads == [_wire_record(r) for r in records if r["dir"] == "v->p"]
        expected = [
            _wire_record(r) if r["dir"] == "p->v" else {"type": "ACK"}
            for r in records
            if r["dir"] == "p->v" or r["type"] in ("VERDICT", "FINAL")
        ]
        assert writes == expected and len(writes) == len(reads)


def _keys_msg(round_value):
    key = entcf.gen(entcf.CLAW_FREE, 4, np.random.default_rng(0)).key
    return {"type": "KEYS", "session": "s", "round": round_value, "keys": [entcf.key_to_wire(key)]}


HADAMARD_ROUND = {"type": "ROUND_TYPE", "round": 0, "round_type": "hadamard"}

# valid messages leading up to one bad one
BAD_PROVER_INPUTS = {
    "round-float": [_keys_msg(2.9)],
    "round-bool": [_keys_msg(True)],
    "round-string": [_keys_msg("0")],
    "round-type-bogus": [_keys_msg(0), {"type": "ROUND_TYPE", "round": 0, "round_type": "bogus"}],
    "q-float": [_keys_msg(0), HADAMARD_ROUND, {"type": "QUESTION", "round": 0, "q": 1.0}],
    "q-bool": [_keys_msg(0), HADAMARD_ROUND, {"type": "QUESTION", "round": 0, "q": True}],
    "q-not-a-bit": [_keys_msg(0), HADAMARD_ROUND, {"type": "QUESTION", "round": 0, "q": 2}],
}


class TestProverStrictParsing:
    @pytest.mark.parametrize("case", sorted(BAD_PROVER_INPUTS))
    def test_in_process_handler_raises(self, case):
        *valid, bad = BAD_PROVER_INPUTS[case]
        prover = provers.HonestProver(0)
        for msg in valid:
            assert prover.handle(msg) is not None
        with pytest.raises(ValueError):
            prover.handle(bad)

    @pytest.mark.parametrize("case", sorted(BAD_PROVER_INPUTS))
    def test_server_answers_error(self, case):
        *valid, bad = BAD_PROVER_INPUTS[case]
        server, client = socket.socketpair()
        with server, client:
            client.settimeout(10)
            thread = threading.Thread(
                target=wire.serve_prover_connection, args=(server, provers.HonestProver(0))
            )
            thread.start()
            for msg in valid:
                wire.send_message(client, msg)
                assert wire.recv_message(client)["type"] != "ERROR"
            wire.send_message(client, bad)
            reply = wire.recv_message(client)
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert reply["type"] == "ERROR" and "ValueError" in reply["reason"]

    def test_integer_round_is_echoed(self):
        reply = provers.HonestProver(0).handle(_keys_msg(2))
        assert reply["type"] == "IMAGES" and reply["round"] == 2


class TestSocketTimeouts:
    def test_silent_verifier_ends_the_session(self, monkeypatch):
        monkeypatch.setattr(wire, "SOCKET_TIMEOUT_S", 0.2)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        ready = threading.Event()
        thread = threading.Thread(
            target=wire.serve_prover,
            args=("127.0.0.1", port, lambda: provers.HonestProver(seed=5)),
            kwargs={"sessions": 2, "ready_event": ready},
            daemon=True,  # a server stuck on the silent session must not hang the run
        )
        thread.start()
        assert ready.wait(timeout=10)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as silent:
            # the server gives up on this session and closes it without an ERROR
            assert silent.recv(1) == b""
        cfg = config(n=2, m=3, seed=42)
        client = wire.SocketProverClient.connect("127.0.0.1", port)
        client.conn.settimeout(10)
        remote = protocol.run_multi_round(cfg, client)
        client.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        local = protocol.run_multi_round(cfg, provers.HonestProver(seed=5))
        assert remote.transcript.to_bytes() == local.transcript.to_bytes()

    def test_silent_prover_raises_connection_error(self, monkeypatch):
        monkeypatch.setattr(wire, "SOCKET_TIMEOUT_S", 0.2)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            client = wire.SocketProverClient.connect("127.0.0.1", listener.getsockname()[1])
            conn, _ = listener.accept()
            with conn, pytest.raises(ConnectionError, match="sent nothing"):
                protocol.run_multi_round(config(), client)
            client.close()
