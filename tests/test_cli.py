"""Command-line interface: subcommands, exit codes, config file, transports."""

import json
import threading

import numpy as np
import pytest

from parrsp import cli, copyprotect, provers, wire
from test_copyprotect import MALFORMED_EDITS, protect, sum_programs


# SHA-256 of the seeded diagnose reports in TestDiagnose.test_seeded_reports_pinned
PINNED_DIAGNOSE_SHA256 = "d251dfdf9290aadc2fe9e57c0d373fc96b211c5ad7283170a385ee85d007d70a"
# SHA-256 of the seeded piracy reports in TestCpPirateReports.test_seeded_reports_pinned
PINNED_PIRATE_SHA256 = "fdd04389c854baadcd675c3eb30a6b9ef96eb4e35bd439855149e6d37664ca60"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestRspRun:
    def test_honest_accepts(self, capsys):
        code, payload, _ = run_json(
            capsys, "rsp", "run", "--n", "4", "--m", "4", "--delta", "0.05", "--seed", "7"
        )
        assert code == 0
        assert payload["accepted"] is True
        assert payload["failures"] == 0
        assert len(payload["theta"]) == 4

    def test_always_wrong_aborts_with_exit_2(self, capsys):
        # find a seed where at least one test block runs
        for seed in range(12):
            code, payload, _ = run_json(
                capsys, "rsp", "run", "--n", "1", "--m", "4", "--delta", "0.1",
                "--prover", "always_wrong", "--seed", str(seed),
            )
            if code == 2:
                assert payload["accepted"] is False
                return
        pytest.fail("always-wrong prover never aborted across seeds")

    def test_transcript_written_and_verifies(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        code, _, _ = run_json(
            capsys, "rsp", "run", "--n", "2", "--m", "2", "--seed", "3",
            "--transcript", str(path),
        )
        assert code == 0
        code, payload, _ = run_json(capsys, "transcript", "verify", "--file", str(path))
        assert code == 0 and payload["ok"] is True

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "rsp", "run", "--frobnicate")
        assert code == 1
        assert "usage" in err.lower() or "error" in err.lower()

    def test_config_file_supplies_flags(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 3, "seed": 11}))
        code, payload, _ = run_json(
            capsys, "rsp", "run", "--m", "2", "--config", str(cfg_path)
        )
        assert code == 0 and len(payload["theta"]) == 3
        # command line wins over the config file
        code, payload, _ = run_json(
            capsys, "rsp", "run", "--m", "2", "--n", "2", "--config", str(cfg_path)
        )
        assert code == 0 and len(payload["theta"]) == 2


class TestTranscriptVerify:
    def _write_run(self, capsys, tmp_path, seed=9):
        path = tmp_path / "t.jsonl"
        run_json(
            capsys, "rsp", "run", "--n", "2", "--m", "3", "--seed", str(seed),
            "--transcript", str(path),
        )
        return path

    def test_tampered_flag_exits_2(self, capsys, tmp_path):
        path = self._write_run(capsys, tmp_path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if '"VERDICT"' in l)
        lines[idx] = lines[idx].replace('"ok"', '"fail_Pre"')
        path.write_text("\n".join(lines) + "\n")
        code, payload, _ = run_json(capsys, "transcript", "verify", "--file", str(path))
        assert code == 2
        assert payload["mismatches"]

    @pytest.mark.parametrize(
        "rtype, field, value, code",
        [
            # a verifier message the re-run would not have written is a divergence (exit 2)
            ("KEYS", "keys", 5, 2),
            ("KEYS", "keys", [{"mode": 0}], 2),
            # session parameters that cannot start a re-run are a format error (exit 1)
            ("SUMMARY", "config", 5, 1),
            ("SUMMARY", "config", {"n": 2, "m": 0, "delta": 0.05, "width": 4, "seed": 9}, 1),
        ],
        ids=["keys-int", "key-missing-fields", "config-int", "config-m-zero"],
    )
    def test_malformed_record_exits_1(self, capsys, tmp_path, rtype, field, value, code):
        path = self._write_run(capsys, tmp_path)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        target = next(r for r in records if r["type"] == rtype)
        target[field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        exit_code, payload, _ = run_json(capsys, "transcript", "verify", "--file", str(path))
        assert exit_code == code and payload["ok"] is False
        if code == 1:
            assert payload["error"]
        else:
            assert payload["mismatches"][0]["round"] == 0 and payload["mismatches"][0]["type"] == "KEYS"

    @pytest.mark.parametrize(
        "rtype, path, code",
        # a reply's round is the prover's word: the re-run aborts on it where the live verifier
        # went on, a divergence (exit 2); a session parameter is a format error (exit 1)
        [("IMAGES", ("round",), 2), ("SUMMARY", ("config", "width"), 1), ("SUMMARY", ("config", "m"), 1)],
        ids=["round", "width", "m"],
    )
    def test_overflowing_number_exits_1(self, capsys, tmp_path, rtype, path, code):
        # 1e999 reads as float infinity; int() of it raises OverflowError
        trans = self._write_run(capsys, tmp_path)
        records = [json.loads(l) for l in trans.read_text().splitlines()]
        target = next(r for r in records if r["type"] == rtype)
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@huge@"
        trans.write_text("".join(json.dumps(r).replace('"@huge@"', "1e999") + "\n" for r in records))
        exit_code, payload, _ = run_json(capsys, "transcript", "verify", "--file", str(trans))
        assert exit_code == code and payload["ok"] is False
        if code == 1:
            assert payload["error"]
        else:
            assert payload["mismatches"][0]["round"] == 0

    def test_garbage_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        code, _, _ = run_json(capsys, "transcript", "verify", "--file", str(path))
        assert code == 1

    def test_deeply_nested_line_exits_1(self, capsys, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        code, _, _ = run_json(capsys, "transcript", "verify", "--file", str(path))
        assert code == 1

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_json(capsys, "transcript", "verify", "--file", str(tmp_path / "nope"))
        assert code == 1


class TestDiagnose:
    def test_small_device_report(self, capsys):
        code, payload, _ = run_json(capsys, "rsp", "diagnose", "--n", "1", "--width", "2")
        assert code == 0
        assert payload["pauli_max_deviation"] < 1e-8
        assert abs(payload["anticommutation"][0] + 1) < 1e-8
        assert payload["gamma_H"] < 1e-10

    def test_csv_grid(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run_json(
            capsys, "rsp", "diagnose", "--n", "1", "--width", "2", "--csv", str(path)
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("a,b,")
        assert len(lines) == 1 + 4  # header + 4 pairs at n=1

    def test_perturbed_two_copy_report(self, capsys):
        code, payload, _ = run_json(
            capsys, "rsp", "diagnose", "--n", "2", "--width", "2", "--epsilon", "0.3"
        )
        assert code == 0
        assert payload["bb84_max_distance"] > 0.0

    def test_perturbed_device(self, capsys):
        code, payload, _ = run_json(
            capsys, "rsp", "diagnose", "--n", "1", "--width", "2", "--epsilon", "0.4"
        )
        assert code == 0
        assert abs(payload["gamma_H"] - 0.2) < 1e-10

    def test_seeded_reports_pinned(self, capsys):
        """One SHA-256 over seeded `rsp diagnose --json` reports.

        It pins every diagnostics value to the bit, honest and perturbed,
        the rounding-isometry and BB84 entries included at every n: a
        change that moves any of them in the last place fails.  The floats
        come from numpy's LAPACK and BLAS, so the constant belongs to one
        numpy build (numpy 2.4, scipy-openblas 0.3.31 on x86-64).
        """
        import hashlib

        digest = hashlib.sha256()
        for n in (1, 2, 3):
            for epsilon in ("0", "0.3"):
                for seed in (0, 1):
                    code, out, _ = run_cli(
                        capsys, "rsp", "diagnose", "--n", str(n), "--width", "2", "--epsilon", epsilon,
                        "--seed", str(seed), "--json",
                    )
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == PINNED_DIAGNOSE_SHA256


class TestUnclonableDemo:
    def test_exact_breidbart(self, capsys):
        code, payload, _ = run_json(
            capsys, "unclonable", "demo", "--lambda", "2", "--attack", "breidbart",
            "--mode", "exact",
        )
        assert code == 0
        assert abs(payload["success"] - ((2 + np.sqrt(2)) / 4) ** 2) < 1e-9

    def test_mc_forward(self, capsys):
        code, payload, _ = run_json(
            capsys, "unclonable", "demo", "--lambda", "1", "--attack", "forward",
            "--mode", "mc", "--trials", "300", "--seed", "5",
        )
        assert code == 0
        assert payload["stderr"] is not None


class TestOutOfRangeSizes:
    @staticmethod
    def run_child(*argv):
        """Run the CLI in a fresh interpreter that reports its own peak RSS.

        Returns the exit code, stdout, stderr, wall seconds and peak RSS in KiB.
        """
        import os
        import subprocess
        import sys
        import time

        import parrsp

        child_code = (
            "import resource, sys\n"
            "from parrsp import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print('peak_kb', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(parrsp.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", child_code, *argv], capture_output=True, text=True, env=env, timeout=30
        )
        elapsed = time.monotonic() - start
        assert "peak_kb" in child.stderr, child.stderr
        peak_kb = int(child.stderr.split("peak_kb")[1].split()[0])  # ru_maxrss is in KiB on Linux
        return child.returncode, child.stdout, child.stderr, elapsed, peak_kb

    @pytest.mark.parametrize("lam", ["0", "13", "99"])
    def test_cloning_demo_exits_1_before_allocating(self, lam):
        code, _, err, elapsed, peak_kb = self.run_child("unclonable", "demo", "--lambda", lam)
        assert code == 1
        assert "Traceback" not in err
        assert "lambda" in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("attack", ["breidbart", "forward"])
    def test_cloning_demo_at_the_lambda_cap(self, attack, mode):
        closed_form = {"breidbart": ((2 + np.sqrt(2)) / 4) ** 12, "forward": 2.0**-12}[attack]
        code, out, err, elapsed, peak_kb = self.run_child(
            "unclonable", "demo", "--lambda", "12", "--attack", attack, "--mode", mode, "--json"
        )
        assert code == 0, err
        payload = json.loads(out)
        if mode == "exact":
            assert payload["instances"] == 8**12
            assert abs(payload["success"] - closed_form) < 1e-12
        else:
            assert payload["instances"] == 2000
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    @pytest.mark.parametrize(
        "flag, value, word",
        [("--n", "0", "copies"), ("--n", "-1", "copies"), ("--n", "6", "copies"), ("--width", "5", "width")],
    )
    def test_diagnose_exits_1_before_allocating(self, flag, value, word):
        code, _, err, elapsed, peak_kb = self.run_child("rsp", "diagnose", flag, value)
        assert code == 1
        assert "Traceback" not in err
        assert word in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    def test_run_block_size_above_cap_exits_1(self):
        code, _, err, elapsed, peak_kb = self.run_child("rsp", "run", "--n", "1", "--m", "65")
        assert code == 1
        assert "Traceback" not in err
        assert "block size" in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    def test_verify_summary_block_size_above_cap_exits_1(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert run_cli(capsys, "rsp", "run", "--n", "1", "--m", "2", "--transcript", str(path))[0] == 0
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["config"]["m"] = 65
        path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        code, out, err, elapsed, peak_kb = self.run_child("transcript", "verify", "--file", str(path), "--json")
        assert code == 1
        assert "Traceback" not in err
        assert "block size" in json.loads(out)["error"]
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    def test_run_copies_above_cap_exits_1(self):
        code, _, err, elapsed, peak_kb = self.run_child("rsp", "run", "--n", "257", "--m", "1")
        assert code == 1
        assert "Traceback" not in err
        assert "copy count" in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    def test_verify_summary_copies_above_cap_exits_1(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        assert run_cli(capsys, "rsp", "run", "--n", "1", "--m", "2", "--transcript", str(path))[0] == 0
        lines = path.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["config"]["n"] = 257
        path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        code, out, err, elapsed, peak_kb = self.run_child("transcript", "verify", "--file", str(path), "--json")
        assert code == 1
        assert "Traceback" not in err
        assert "copy count" in json.loads(out)["error"]
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    def test_diagnose_at_the_copy_cap(self):
        code, out, err, elapsed, peak_kb = self.run_child(
            "rsp", "diagnose", "--n", "5", "--width", "2", "--epsilon", "0.3", "--json"
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["isometry_relation_gap"] < 1e-10
        assert 0.0 < payload["bb84_max_distance"] < 1.0
        assert peak_kb < 100 * 1024
        assert elapsed < 3.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("cp", "pirate", "--lambda", "1", "--trials", "0"),
            ("unclonable", "demo", "--lambda", "1", "--attack", "forward", "--mode", "mc", "--trials", "0"),
        ],
        ids=["cp-pirate", "unclonable-demo-mc"],
    )
    def test_zero_trials_exits_1(self, argv):
        code, _, err, _, _ = self.run_child(*argv)
        assert code == 1
        assert "Traceback" not in err
        assert "trials" in err


    @pytest.mark.parametrize("lam", ["0", "17", "99", "200"])
    def test_cp_protect_exits_1_before_allocating(self, lam, tmp_path):
        code, _, err, elapsed, peak_kb = self.run_child(
            "cp", "protect", "--lambda", lam, "--out", str(tmp_path / "p.json")
        )
        assert code == 1
        assert "Traceback" not in err
        assert "lam" in err
        assert not (tmp_path / "p.json").exists()
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    @pytest.mark.parametrize("lam", ["0", "17", "99", "200"])
    @pytest.mark.parametrize("pirate", ["forward", "breidbart"])
    def test_cp_pirate_exits_1_before_allocating(self, pirate, lam):
        code, _, err, elapsed, peak_kb = self.run_child("cp", "pirate", "--lambda", lam, "--pirate", pirate)
        assert code == 1
        assert "Traceback" not in err
        assert "lam" in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    @pytest.mark.parametrize("pirate", ["forward", "breidbart"])
    def test_cp_pirate_at_the_lambda_cap(self, pirate):
        code, out, err, elapsed, peak_kb = self.run_child(
            "cp", "pirate", "--lambda", "16", "--pirate", pirate, "--trials", "200", "--json"
        )
        assert code == 0, err
        assert json.loads(out)["trials"] == 200
        assert peak_kb < 100 * 1024
        assert elapsed < 5.0

    @pytest.mark.parametrize("lam", ["11", "16"])
    @pytest.mark.parametrize("challenge", ["unmarked", "uniform"])
    def test_cp_forward_pirate_on_unmarked_challenges_above_dense_cap(self, challenge, lam):
        # an unmarked challenge can leave the forwarded program a sum of products; at lam 11 and 16
        # a dense register of 2*lam qubits would exceed the 20-qubit cap
        code, out, err, elapsed, peak_kb = self.run_child(
            "cp", "pirate", "--lambda", lam, "--pirate", "forward", "--challenge", challenge,
            "--trials", "200", "--json",
        )
        assert code == 0, err
        assert json.loads(out)["trials"] == 200
        assert peak_kb < 100 * 1024
        assert elapsed < 5.0

    @pytest.mark.parametrize("size", ["truncated", "oversized"])
    def test_cp_eval_on_a_wrong_size_state_file_exits_1(self, capsys, tmp_path, size):
        # an older "form": "dense" program names a side file of amplitudes, which is never read
        prog, state = tmp_path / "prog.json", tmp_path / "prog.state"
        code, payload, _ = run_json(capsys, "cp", "protect", "--lambda", "2", "--seed", "4", "--out", str(prog))
        assert code == 0
        meta = json.loads(prog.read_text())
        meta.update(form="dense", state_file="prog.state")
        prog.write_text(json.dumps(meta))
        with open(state, "wb") as fh:  # a dense lambda = 2 register is 16 * 4^2 = 256 bytes
            fh.truncate(200 if size == "truncated" else 1 << 31)  # sparse: 2 GiB that no reader may load
        code, _, err, elapsed, peak_kb = self.run_child("cp", "eval", "--program", str(prog), "--x", payload["y"])
        assert code == 1
        assert "Traceback" not in err
        assert "form 'dense'" in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0

    @pytest.mark.parametrize(
        "circuit, word",
        [
            ({"gates": []}, "'n'"),
            ({"n": 1, "gates": [{"targets": [0]}]}, "'gate'"),
            ({"n": 21, "gates": [{"gate": "H", "targets": [0]}]}, "n <= 20"),
            ({"n": 30, "gates": [{"gate": "H", "targets": [0]}]}, "n <= 20"),
        ],
        ids=["no-n", "no-gate", "n-21", "n-30"],
    )
    def test_qced_demo_rejects_bad_circuit_files(self, tmp_path, circuit, word):
        path = tmp_path / "circ.json"
        path.write_text(json.dumps(circuit))
        code, _, err, elapsed, peak_kb = self.run_child("qced", "demo", "--circuit", str(path), "--input", "0")
        assert code == 1
        assert "Traceback" not in err
        assert word in err
        assert peak_kb < 100 * 1024
        assert elapsed < 2.0


class TestMalformedArguments:
    """Bad values exit 1 with a message, in a fresh interpreter, before any file or socket is used."""

    @pytest.mark.parametrize("content", ["[1, 2]", "5", '"n"'], ids=["array", "number", "string"])
    def test_config_file_without_an_object_exits_1(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        code, out, err, _, _ = TestOutOfRangeSizes.run_child("rsp", "run", "--config", str(path))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "JSON object" in err

    @pytest.mark.parametrize("port", ["99999", "65536", "0", "-1", "http", "٣"])
    def test_serve_port_out_of_range_exits_1(self, port):
        code, _, err, elapsed, _ = TestOutOfRangeSizes.run_child("rsp", "serve-prover", "--port", port)
        assert code == 1
        assert "Traceback" not in err
        assert "1-65535" in err
        assert elapsed < 2.0

    @pytest.mark.parametrize("sessions", ["0", "-1"])
    def test_serve_sessions_below_one_exits_1(self, sessions):
        code, out, err, elapsed, _ = TestOutOfRangeSizes.run_child(
            "rsp", "serve-prover", "--port", "45871", "--sessions", sessions, "--json")
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert "at least 1" in err
        assert elapsed < 2.0

    @pytest.mark.parametrize(
        "endpoint, word",
        [("127.0.0.1:99999", "1-65535"), ("127.0.0.1:0", "1-65535"), ("127.0.0.1:", "1-65535"),
         ("localhost", "HOST:PORT"), (":9000", "HOST:PORT")],
        ids=["port-99999", "port-0", "no-port", "no-colon", "no-host"],
    )
    def test_connect_endpoint_exits_1_without_dialling(self, endpoint, word):
        code, _, err, elapsed, _ = TestOutOfRangeSizes.run_child("rsp", "run", "--connect", endpoint)
        assert code == 1
        assert "Traceback" not in err
        assert word in err
        assert elapsed < 2.0

    def test_port_type_accepts_the_range_ends(self):
        assert cli._port("1") == 1 and cli._port("65535") == 65535
        assert cli._endpoint("::1:9000") == ("::1", 9000)


class TestCpEvalInput:
    def test_edited_offset_exits_1(self, capsys, tmp_path):
        prog = tmp_path / "prog.json"
        code, payload, _ = run_json(capsys, "cp", "protect", "--lambda", "1", "--seed", "4", "--out", str(prog))
        assert code == 0
        meta = json.loads(prog.read_text())
        meta["t"] = "2"
        prog.write_text(json.dumps(meta))
        code, out, err = run_cli(capsys, "cp", "eval", "--program", str(prog), "--x", payload["y"], "--json")
        assert code == 1
        assert out == ""
        assert "bit vectors" in err and "Traceback" not in err

    @pytest.mark.parametrize("edit", list(MALFORMED_EDITS.values()), ids=list(MALFORMED_EDITS))
    def test_malformed_program_exits_1(self, capsys, tmp_path, edit):
        _, prog = protect(1, seed=6)
        path = tmp_path / "prog.json"
        copyprotect.save_program(sum_programs(1, np.random.default_rng(6), prog)[1], path)
        meta = {k: v for k, v in {**json.loads(path.read_text()), **edit}.items() if v is not None}
        path.write_text(json.dumps(meta))
        code, out, err = run_cli(capsys, "cp", "eval", "--program", str(path), "--x", "0000", "--json")
        assert code == 1
        assert out == ""
        assert "malformed program file" in err and "Traceback" not in err


class TestCpPirateReports:
    def test_seeded_reports_pinned(self, capsys):
        """One SHA-256 over seeded `cp pirate --json` reports.

        Every pirate against every challenge distribution, lambda 1 and 2,
        seeds 0-2: it pins each Born draw of protection, evaluation and the
        Breidbart split, so a change to the evaluation circuit that moves
        any draw fails.  The constant was computed with the comparison
        ancilla simulated explicitly (see tests/cp_oracle.py).
        """
        import hashlib

        digest = hashlib.sha256()
        for lam in ("1", "2"):
            for pirate in ("forward", "breidbart", "zero"):
                for challenge in ("marked", "unmarked", "uniform"):
                    for seed in ("0", "1", "2"):
                        code, out, _ = run_cli(
                            capsys, "cp", "pirate", "--lambda", lam, "--pirate", pirate, "--challenge", challenge,
                            "--trials", "40", "--seed", seed, "--json",
                        )
                        assert code == 0
                        digest.update(out.encode())
        assert digest.hexdigest() == PINNED_PIRATE_SHA256


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_print_what_fresh_processes_print(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 3, "pirate": "breidbart", "json": True}))
        calls = [
            ("cp", "pirate", "--lambda", "1", "--trials", "5", "--config", str(cfg_path)),
            ("cp", "pirate", "--lambda", "1", "--trials", "5"),
            ("rsp", "run", "--frobnicate"),
            ("rsp", "diagnose", "--n", "1", "--json"),
            ("rsp", "diagnose", "--n", "1", "--seed", "2"),
            ("cp", "pirate", "--lambda", "1", "--trials", "5", "--config", str(cfg_path), "--seed", "4"),
        ]
        in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
        fresh = [TestOutOfRangeSizes.run_child(*argv)[:2] for argv in calls]
        assert in_process == fresh
        assert in_process[0][1] != in_process[1][1]


class TestCpCommands:
    def test_protect_eval_roundtrip(self, capsys, tmp_path):
        prog = tmp_path / "prog.json"
        code, payload, _ = run_json(capsys, "cp", "protect", "--lambda", "1", "--seed", "4", "--out", str(prog))
        assert code == 0 and payload["accepted"]
        y, m = payload["y"], payload["m"]
        code, evaluated, _ = run_json(
            capsys, "cp", "eval", "--program", str(prog), "--x", y, "--seed", "1"
        )
        assert code == 0
        assert evaluated["output"] == m and evaluated["matched"] is True

    def test_protect_eval_at_the_lambda_cap(self, tmp_path):
        prog = tmp_path / "prog.json"
        code, out, err, _, _ = TestOutOfRangeSizes.run_child(
            "cp", "protect", "--lambda", "16", "--seed", "5", "--out", str(prog), "--json"
        )
        assert code == 0, err
        protected = json.loads(out)
        assert json.loads(prog.read_text())["form"] == "product"
        assert list(tmp_path.iterdir()) == [prog]  # the program is its JSON alone
        code, out, err, _, _ = TestOutOfRangeSizes.run_child(
            "cp", "eval", "--program", str(prog), "--x", protected["y"], "--json"
        )
        assert code == 0, err
        assert json.loads(out) == {"output": protected["m"], "matched": True}

    def test_eval_writes_back_a_program_without_a_state_file(self, capsys, tmp_path):
        # a program's JSON names no side file, and every `cp eval` writes the post-program back to it
        _, prog = protect(2, seed=7)
        path = tmp_path / "prog.json"
        copyprotect.save_program(prog, path)
        assert "state_file" not in json.loads(path.read_text())
        rng, forms = np.random.default_rng(8), set()
        for seed in range(6):  # the program left by each evaluation is the next one's input
            x = next(x for x in (tuple(int(b) for b in rng.integers(0, 2, size=8)) for _ in range(10_000))
                     if 0.0 < copyprotect.cp_accept_probability(prog, x) < 1.0)
            code, evaluated, err = run_json(
                capsys, "cp", "eval", "--program", str(path), "--x", "".join(map(str, x)), "--seed", str(seed)
            )
            assert code == 0, err
            out, prog, matched = copyprotect.cp_eval(2, prog, x, np.random.default_rng(seed))
            assert evaluated == {"output": "".join(map(str, out)), "matched": matched}
            assert copyprotect.load_program(path) == prog
            forms.add(json.loads(path.read_text())["form"])
        assert "sum" in forms

    def test_pirate_experiment(self, capsys):
        code, payload, _ = run_json(
            capsys, "cp", "pirate", "--lambda", "1", "--pirate", "zero",
            "--challenge", "unmarked", "--trials", "30", "--seed", "2",
        )
        assert code == 0
        assert payload["success"] == 1.0 and payload["p_trivial"] == 1.0


class TestQcedDemo:
    def test_pipeline(self, capsys, tmp_path):
        circ = tmp_path / "circ.json"
        circ.write_text(
            json.dumps({"n": 1, "gates": [{"gate": "X", "targets": [0]},
                                          {"gate": "T", "targets": [0]}]})
        )
        code, payload, _ = run_json(
            capsys, "qced", "demo", "--circuit", circ.as_posix(), "--input", "0", "--seed", "3"
        )
        assert code == 0
        assert payload["output"] == "1"  # X|0> then a phase gate: outcome 1
        assert payload["t_count"] == 1


class TestTwoProcessMode:
    def test_prover_in_separate_process(self, capsys, tmp_path):
        import socket as socketmod
        import subprocess
        import sys
        import time

        probe = socketmod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = subprocess.Popen(
            [sys.executable, "-m", "parrsp.cli", "rsp", "serve-prover",
             "--port", str(port), "--seed", "7"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # retry until the server process is listening (refusals exit 1)
            remote_path = tmp_path / "remote.jsonl"
            code = 1
            for _ in range(60):
                code = cli.main(
                    ["rsp", "run", "--n", "2", "--m", "2", "--seed", "7",
                     "--connect", f"127.0.0.1:{port}",
                     "--transcript", str(remote_path), "--json"]
                )
                if code == 0:
                    break
                time.sleep(0.2)
            assert code == 0
        finally:
            server.wait(timeout=10)
        capsys.readouterr()
        local_path = tmp_path / "local.jsonl"
        code, _, _ = run_json(
            capsys, "rsp", "run", "--n", "2", "--m", "2", "--seed", "7",
            "--transcript", str(local_path),
        )
        assert code == 0
        assert local_path.read_bytes() == remote_path.read_bytes()


class TestSocketMode:
    def test_silent_prover_exits_1(self, capsys, monkeypatch):
        import socket as socketmod
        import time

        monkeypatch.setattr(wire, "SOCKET_TIMEOUT_S", 0.2)
        with socketmod.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            accepted = []
            acceptor = threading.Thread(target=lambda: accepted.append(listener.accept()[0]))
            acceptor.start()
            start = time.monotonic()
            code, _, err = run_cli(
                capsys, "rsp", "run", "--n", "2", "--m", "2", "--seed", "7",
                "--connect", f"127.0.0.1:{listener.getsockname()[1]}",
            )
            elapsed = time.monotonic() - start
            acceptor.join(timeout=10)
            for conn in accepted:
                conn.close()
        assert code == 1 and elapsed < 5
        assert "sent nothing" in err

    @pytest.mark.parametrize("ack", [[1], "x", 7, None])
    def test_non_object_ack_exits_1(self, capsys, ack):
        import socket as socketmod

        def serve(listener):
            # an honest prover that answers the first VERDICT or FINAL with `ack`
            conn = listener.accept()[0]
            with conn:
                prover = provers.HonestProver(seed=7)
                while True:
                    msg = wire.recv_message(conn)
                    if msg["type"] in ("VERDICT", "FINAL"):
                        wire.send_message(conn, ack)
                        return
                    wire.send_message(conn, prover.handle(msg))

        with socketmod.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            server = threading.Thread(target=serve, args=(listener,))
            server.start()
            code, _, err = run_cli(
                capsys, "rsp", "run", "--n", "2", "--m", "2", "--seed", "7",
                "--connect", f"127.0.0.1:{listener.getsockname()[1]}",
            )
            server.join(timeout=10)
            assert not server.is_alive()
        assert code == 1
        assert f"error: expected ACK, got {ack!r}" in err

    def test_run_against_served_prover(self, capsys, tmp_path):
        import socket as socketmod

        probe = socketmod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = threading.Thread(
            target=cli.main,
            args=(["rsp", "serve-prover", "--port", str(port), "--seed", "7", "--json"],),
        )
        server.start()
        import time

        time.sleep(0.3)
        local_path = tmp_path / "local.jsonl"
        remote_path = tmp_path / "remote.jsonl"
        code_remote = cli.main(
            ["rsp", "run", "--n", "2", "--m", "2", "--seed", "7",
             "--connect", f"127.0.0.1:{port}", "--transcript", str(remote_path), "--json"]
        )
        server.join(timeout=10)
        out = capsys.readouterr().out
        payload = next(
            json.loads(line) for line in out.splitlines() if '"accepted"' in line
        )
        code_local, _, _ = run_json(
            capsys, "rsp", "run", "--n", "2", "--m", "2", "--seed", "7",
            "--transcript", str(local_path),
        )
        assert code_remote == 0 and code_local == 0
        assert payload["accepted"] is True
        assert local_path.read_bytes() == remote_path.read_bytes()
