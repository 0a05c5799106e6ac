"""Command-line interface: subcommands, exit codes, config file, transports."""

import json
import threading

import numpy as np
import pytest

from parrsp import cli, wire


# SHA-256 of the seeded diagnose reports in TestDiagnose.test_seeded_reports_pinned
PINNED_DIAGNOSE_SHA256 = "6ed01cdad7b3c4746dadd705bffde4d1cfed8de4ae9cb5bd5e2ba9a9458e8075"


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
        "rtype, field, value",
        [
            ("KEYS", "keys", 5),
            ("KEYS", "keys", [{"mode": 0}]),
            ("SUMMARY", "config", 5),
            ("SUMMARY", "config", {"n": 2, "m": 0, "delta": 0.05, "width": 4, "seed": 9}),
        ],
        ids=["keys-int", "key-missing-fields", "config-int", "config-m-zero"],
    )
    def test_malformed_record_exits_1(self, capsys, tmp_path, rtype, field, value):
        path = self._write_run(capsys, tmp_path)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        target = next(r for r in records if r["type"] == rtype)
        target[field] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, payload, _ = run_json(capsys, "transcript", "verify", "--file", str(path))
        assert code == 1
        assert payload["ok"] is False and payload["error"]

    @pytest.mark.parametrize(
        "rtype, path",
        [("IMAGES", ("round",)), ("SUMMARY", ("config", "width")), ("SUMMARY", ("config", "m"))],
        ids=["round", "width", "m"],
    )
    def test_overflowing_number_exits_1(self, capsys, tmp_path, rtype, path):
        # 1e999 reads as float infinity; int() of it raises OverflowError
        trans = self._write_run(capsys, tmp_path)
        records = [json.loads(l) for l in trans.read_text().splitlines()]
        target = next(r for r in records if r["type"] == rtype)
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@huge@"
        trans.write_text("".join(json.dumps(r).replace('"@huge@"', "1e999") + "\n" for r in records))
        code, payload, _ = run_json(capsys, "transcript", "verify", "--file", str(trans))
        assert code == 1
        assert payload["ok"] is False and payload["error"]

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
        with and without the rounding isometry: a change that moves any of
        them in the last place fails.  The floats come from numpy's LAPACK
        and BLAS, so the constant belongs to one numpy build (numpy 2.4,
        scipy-openblas 0.3.31 on x86-64).
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

    @pytest.mark.parametrize("lam", ["7", "13", "99"])
    def test_cloning_demo_exits_1_before_allocating(self, lam):
        code, _, err, elapsed, peak_kb = self.run_child("unclonable", "demo", "--lambda", lam)
        assert code == 1
        assert "Traceback" not in err
        assert "lambda" in err
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
        code, out, err, _, peak_kb = self.run_child(
            "rsp", "diagnose", "--n", "5", "--width", "2", "--epsilon", "0.3", "--json"
        )
        assert code == 0, err
        assert json.loads(out)["n"] == 5
        assert peak_kb < 300 * 1024

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


class TestCpCommands:
    def test_protect_eval_roundtrip(self, capsys, tmp_path):
        prog = tmp_path / "prog.json"
        state = tmp_path / "prog.state"
        code, payload, _ = run_json(
            capsys, "cp", "protect", "--lambda", "1", "--seed", "4",
            "--out", str(prog), "--state-out", str(state),
        )
        assert code == 0 and payload["accepted"]
        y, m = payload["y"], payload["m"]
        code, evaluated, _ = run_json(
            capsys, "cp", "eval", "--program", str(prog), "--x", y, "--seed", "1"
        )
        assert code == 0
        assert evaluated["output"] == m and evaluated["matched"] is True

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
