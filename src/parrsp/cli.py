"""Command-line entry point.

Subcommands:

- ``rsp run``            one full protocol session (in-process or socket)
- ``rsp serve-prover``   prover side of the socket transport
- ``rsp diagnose``       rigidity diagnostics report for a small device
- ``unclonable demo``    cloning-experiment harness
- ``cp protect|eval|pirate``  copy-protection operations
- ``qced demo``          delegated-computation pipeline demo
- ``transcript verify``  re-run the verifier against a recorded session

Every subcommand accepts ``--json`` (machine-readable single object on
stdout) and ``--config FILE`` (JSON object supplying any long flag; the
command line wins on conflicts).  Exit codes: 0 success, 2 protocol abort
or verification mismatch, 1 usage or internal error.

The parser is built once per process, on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from . import copyprotect, delegation, diagnostics, protocol, provers, transcript, unclonable, wire
from .seeds import derive_seed


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve for aborts)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(args, payload: dict, human_lines=None) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines if human_lines is not None else [f"{k}: {v}" for k, v in payload.items()]:
            print(line)


def _bits(text: str) -> tuple[int, ...]:
    if not text or any(c not in "01" for c in text):
        raise argparse.ArgumentTypeError("expected a nonempty string of 0s and 1s")
    return tuple(int(c) for c in text)


def _port(text: str) -> int:
    if not (text.isascii() and text.isdigit() and 1 <= int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"expected a port number in 1-65535, not {text!r}")
    return int(text)


def _session_count(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a session count of at least 1, not {text!r}")
    return int(text)


def _endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not (sep and host):
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, not {text!r}")
    return host, _port(port)


def _prover_factory(name: str, seed: int):
    if name == "honest":
        return provers.HonestProver(seed)
    return provers.cheating_prover(name, seed)


def _apply_config_file(argv: list[str], parser: _Parser) -> list[str]:
    """Pre-scan for --config and fold the file's values in as defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        parser.error("--config needs a file path")
    with open(argv[idx + 1], "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        parser.error(f"--config file {argv[idx + 1]} must hold a JSON object of flag values")
    out = list(argv[:idx] + argv[idx + 2 :])
    # config values become trailing defaults only where the flag is absent
    for key, value in values.items():
        flag = f"--{key.replace('_', '-')}"
        if flag not in out:
            if isinstance(value, bool):
                if value:
                    out.append(flag)
            else:
                out.extend([flag, str(value)])
    return out


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="parrsp", description="BB84 remote-preparation protocol toolkit")
    sub = parser.add_subparsers(dest="group", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
        p.add_argument("--config", help=argparse.SUPPRESS)  # handled by pre-scan
        p.add_argument("--seed", type=int, default=0)

    # rsp ----------------------------------------------------------------
    rsp = sub.add_parser("rsp", help="protocol runs and diagnostics")
    rsp_sub = rsp.add_subparsers(dest="command", required=True)

    run = rsp_sub.add_parser("run", help="run one multi-round session")
    common(run)
    run.add_argument("--n", type=int, default=4, help="parallel copies")
    run.add_argument("--m", type=int, default=8, help="block size M (at most M^2 test rounds)")
    run.add_argument("--delta", type=float, default=0.05)
    run.add_argument("--width", type=int, default=4)
    run.add_argument("--prover", default="honest", choices=provers.PROVER_NAMES)
    run.add_argument("--transcript", help="write the session transcript (JSON lines)")
    run.add_argument("--connect", type=_endpoint, help="HOST:PORT of a remote prover (socket mode)")
    run.add_argument("--strict-trailing", action="store_true")
    run.set_defaults(func=cmd_rsp_run)

    serve = rsp_sub.add_parser("serve-prover", help="serve a prover over a socket")
    common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, required=True)
    serve.add_argument("--sessions", type=_session_count, default=1)
    serve.add_argument("--prover", default="honest", choices=provers.PROVER_NAMES)
    serve.set_defaults(func=cmd_rsp_serve)

    diag = rsp_sub.add_parser("diagnose", help="rigidity diagnostics for a small device")
    common(diag)
    diag.add_argument("--n", type=int, default=2)
    diag.add_argument("--width", type=int, default=2)
    diag.add_argument("--epsilon", type=float, default=0.0, help="question-answer perturbation")
    diag.add_argument("--csv", help="write the Pauli-relation grid as CSV")
    diag.set_defaults(func=cmd_rsp_diagnose)

    # unclonable -----------------------------------------------------------
    unc = sub.add_parser("unclonable", help="conjugate-coding cloning experiments")
    unc_sub = unc.add_subparsers(dest="command", required=True)
    demo = unc_sub.add_parser("demo", help="run a cloning experiment")
    common(demo)
    demo.add_argument("--lambda", dest="lam", type=int, default=2)
    demo.add_argument("--attack", default="breidbart", choices=["breidbart", "forward"])
    demo.add_argument("--mode", default="exact", choices=["exact", "mc"])
    demo.add_argument("--trials", type=int, default=2000)
    demo.set_defaults(func=cmd_unclonable_demo)

    # cp --------------------------------------------------------------------
    cp = sub.add_parser("cp", help="copy-protection of point functions")
    cp_sub = cp.add_subparsers(dest="command", required=True)

    prot = cp_sub.add_parser("protect", help="interactively protect a point function")
    common(prot)
    prot.add_argument("--lambda", dest="lam", type=int, default=2)
    prot.add_argument("--y", type=_bits, help="marked input (4*lambda bits; random if absent)")
    prot.add_argument("--m", type=_bits, help="marked output (lambda bits; random if absent)")
    prot.add_argument("--out", required=True, help="program JSON path")
    prot.add_argument("--blocks", type=int, default=2, help="protocol block size M")
    prot.set_defaults(func=cmd_cp_protect)

    ev = cp_sub.add_parser("eval", help="evaluate a protected program")
    common(ev)
    ev.add_argument("--program", required=True, help="program JSON path")
    ev.add_argument("--x", type=_bits, required=True)
    ev.add_argument("--no-save", action="store_true", help="do not write back the post-eval state")
    ev.set_defaults(func=cmd_cp_eval)

    pir = cp_sub.add_parser("pirate", help="run a piracy experiment")
    common(pir)
    pir.add_argument("--lambda", dest="lam", type=int, default=1)
    pir.add_argument("--pirate", default="forward", choices=["forward", "breidbart", "zero"])
    pir.add_argument("--challenge", default="marked", choices=["marked", "unmarked", "uniform"])
    pir.add_argument("--trials", type=int, default=200)
    pir.add_argument("--blocks", type=int, default=2)
    pir.set_defaults(func=cmd_cp_pirate)

    # qced --------------------------------------------------------------------
    qced = sub.add_parser("qced", help="computing-on-encrypted-data pipeline")
    qced_sub = qced.add_subparsers(dest="command", required=True)
    qdemo = qced_sub.add_parser("demo", help="setup/stateprep/evaluate/dec round trip")
    common(qdemo)
    qdemo.add_argument("--circuit", required=True, help="circuit JSON file")
    qdemo.add_argument("--input", type=_bits, required=True)
    qdemo.set_defaults(func=cmd_qced_demo)

    # transcript ---------------------------------------------------------------
    tr = sub.add_parser("transcript", help="transcript tools")
    tr_sub = tr.add_subparsers(dest="command", required=True)
    ver = tr_sub.add_parser("verify", help="re-run the verifier against a transcript's replies")
    common(ver)
    ver.add_argument("--file", required=True)
    ver.set_defaults(func=cmd_transcript_verify)

    return parser


# -- handlers -----------------------------------------------------------------


def cmd_rsp_run(args) -> int:
    config = protocol.MultiRoundConfig(
        n=args.n, m_blocks=args.m, delta=args.delta, width=args.width, seed=args.seed,
        strict_trailing=args.strict_trailing,
    )
    if args.connect:
        endpoint = wire.SocketProverClient.connect(*args.connect)
    else:
        endpoint = _prover_factory(args.prover, derive_seed(args.seed, "prover"))
    try:
        result = protocol.run_multi_round(config, endpoint)
    finally:
        if args.connect:
            endpoint.close()
    if args.transcript:
        result.transcript.save(args.transcript)
    payload = {
        "accepted": result.accepted,
        "theta": "".join(map(str, result.theta_vec)) if result.theta_vec else None,
        "v": "".join(map(str, result.v_vec)) if result.v_vec else None,
        "test_rounds": len(result.flags),
        "failures": sum(1 for f in result.flags if f != protocol.FLAG_OK),
        "abort_block": result.abort_block,
        "abort_reason": result.abort_reason,
    }
    _emit(args, payload)
    return 0 if result.accepted else 2


def cmd_rsp_serve(args) -> int:
    prover_seed = derive_seed(args.seed, "prover")
    wire.serve_prover(
        args.host, args.port, lambda: _prover_factory(args.prover, prover_seed), sessions=args.sessions
    )
    _emit(args, {"served_sessions": args.sessions})
    return 0


def cmd_rsp_diagnose(args) -> int:
    rng = np.random.default_rng(args.seed)
    device = diagnostics.device_from_honest(args.n, args.width, rng)
    if args.epsilon > 0:
        device = diagnostics.perturb_device(device, args.epsilon)
    grid = diagnostics.pauli_relation_grid(device)
    gamma_p, gamma_h = diagnostics.gammas(device)
    payload = {
        "n": args.n,
        "width": args.width,
        "epsilon": args.epsilon,
        "gamma_P": gamma_p,
        "gamma_H": gamma_h,
        "pauli_max_deviation": grid["max_deviation"],
        "anticommutation": [diagnostics.anticommutation_value(device, i) for i in range(args.n)],
        "success_relation_max_gap": diagnostics.success_relations_report(device)["max_gap"],
        "structure": diagnostics.validate_device(device),
        "isometry_relation_gap": diagnostics.isometry_relation_gap(device),
        "bb84_max_distance": max(
            diagnostics.bb84_report(device, theta)["max_distance"]
            for theta in itertools.product((0, 1), repeat=args.n)
        ),
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("a,b,value_re,value_im,expected,deviation\n")
            for row in grid["entries"]:
                fh.write(
                    "{},{},{:.12g},{:.12g},{},{:.12g}\n".format(
                        "".join(map(str, row["a"])), "".join(map(str, row["b"])),
                        row["value_re"], row["value_im"], row["expected"], row["deviation"],
                    )
                )
    _emit(args, payload)
    return 0


def cmd_unclonable_demo(args) -> int:
    attack = (
        unclonable.breidbart_attack(args.lam) if args.attack == "breidbart"
        else unclonable.forward_attack(args.lam)
    )
    rng = np.random.default_rng(args.seed)
    result = unclonable.cloning_experiment(attack, args.lam, mode=args.mode, trials=args.trials, rng=rng)
    payload = {"lambda": args.lam, "attack": args.attack, **result}
    _emit(args, payload)
    return 0


def cmd_cp_protect(args) -> int:
    copyprotect.check_lambda(args.lam)
    rng = np.random.default_rng(args.seed)
    lam = args.lam
    y = args.y if args.y is not None else tuple(int(b) for b in rng.integers(0, 2, size=4 * lam))
    m = args.m if args.m is not None else tuple(int(b) for b in rng.integers(0, 2, size=lam))
    f = copyprotect.PointFunction(y, m)
    config = protocol.MultiRoundConfig(
        n=2 * lam, m_blocks=args.blocks, delta=0.05, width=4, seed=args.seed, reveal_theta=False
    )
    prover = provers.HonestProver(derive_seed(args.seed, "prover"))
    prog, result = copyprotect.cp_protect(lam, f, config, prover, rng)
    if prog is None:
        _emit(args, {"accepted": False, "abort_reason": result.abort_reason})
        return 2
    copyprotect.save_program(prog, args.out)
    payload = {
        "accepted": True,
        "lambda": lam,
        "y": "".join(map(str, y)),
        "m": "".join(map(str, m)),
        "r": "".join(map(str, prog.r)),
        "t": "".join(map(str, prog.t)),
        "program": args.out,
    }
    _emit(args, payload)
    return 0


def cmd_cp_eval(args) -> int:
    rng = np.random.default_rng(args.seed)
    prog = copyprotect.load_program(args.program)
    out, post, accepted = copyprotect.cp_eval(prog.lam, prog, args.x, rng)
    if not args.no_save:
        copyprotect.save_program(post, args.program)
    _emit(args, {"output": "".join(map(str, out)), "matched": accepted})
    return 0


def cmd_cp_pirate(args) -> int:
    copyprotect.check_lambda(args.lam)
    pirates = {
        "forward": copyprotect.ForwardPirate(),
        "breidbart": copyprotect.BreidbartPirate(),
        "zero": copyprotect.ZeroPirate(),
    }
    challenges = {
        "marked": copyprotect.MarkedChallenge(),
        "unmarked": copyprotect.UnmarkedChallenge(),
        "uniform": copyprotect.UniformChallenge(),
    }
    config = protocol.MultiRoundConfig(
        n=2 * args.lam, m_blocks=args.blocks, delta=0.05, width=4, seed=args.seed, reveal_theta=False
    )
    result = copyprotect.piracy_experiment(
        args.lam, challenges[args.challenge], pirates[args.pirate], config,
        trials=args.trials, rng=np.random.default_rng(args.seed),
    )
    _emit(args, {"lambda": args.lam, "pirate": args.pirate, "challenge": args.challenge, **result})
    return 0


def cmd_qced_demo(args) -> int:
    circuit = delegation.Circuit.load(args.circuit)
    rng = np.random.default_rng(args.seed)
    keys = delegation.qced_setup(circuit, len(args.input), rng)
    bound, _ = delegation.qced_stateprep(keys, provers.HonestProver(derive_seed(args.seed, "prover")))
    if bound is None:
        _emit(args, {"accepted": False})
        return 2
    ct = delegation.otp_enc(bound.sk_in, args.input)
    sk_star, ct_star = delegation.qced_evaluate_reference(bound, circuit, ct, rng)
    output = delegation.qced_dec(sk_star, ct_star)
    payload = {
        "accepted": True,
        "t_count": circuit.t_count,
        "input": "".join(map(str, args.input)),
        "output": "".join(map(str, output)),
        "note": "reference evaluator is NON-PRIVATE (testing backend)",
    }
    _emit(args, payload)
    return 0


def cmd_transcript_verify(args) -> int:
    try:
        report = transcript.replay(args.file)
    except (transcript.TranscriptFormatError, OSError) as exc:
        _emit(args, {"ok": False, "error": str(exc)})
        return 1
    payload = {"ok": report.ok, "rounds_checked": report.rounds_checked,
               "mismatches": report.mismatches, "note": report.note}
    _emit(args, payload)
    return 0 if report.ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except protocol.ProtocolAbort as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ConnectionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
