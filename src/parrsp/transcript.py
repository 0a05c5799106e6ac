"""Transcript persistence and independent replay of verifier decisions.

A transcript is a JSON-lines file: one wire message per line, each wrapped
with its direction and a logical sequence number, followed by one trailing
SUMMARY record holding the verifier's private outputs (decoded bit string,
basis choice, per-round flags, session parameters).  Sequence numbers play
the role of timestamps; wall-clock times would break the byte-identical
reproducibility guarantee.

A live recorder keeps the wrapped messages and encodes them with
:func:`canonical_json` only when its lines or bytes are asked for, so a
session whose transcript nobody reads pays for no encoding.  A prover
hands over its reply when ``handle()`` returns it: the recorder keeps a
copy that shares no container with the prover.

Replay re-derives every verifier decision from the recorded messages alone
(the serialized keys carry the full decoding capability in this backend)
with the live session's own rules (:mod:`parrsp.rules`).  It reports a
mismatch, naming the field and the round, for a test round's ``flag``, the
SUMMARY's ``flags``, ``s_blocks`` and ``r_draw`` against the seed's draws,
the number of test ``rounds`` against the schedule (fewer only after a
protocol abort), the ``accepted`` decision, and, in an accepted session,
the preparation round's ``v`` and the SUMMARY's and FINAL's ``theta``
against the preparation keys' modes.  A malformed record (a non-integer
round, bit, width or m, a hex field not in canonical form, a missing
message) raises TranscriptFormatError.  A live recorder is replayed from
its encoded lines, exactly as the file it would save.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import entcf, rules
from .wire import bits_to_hex


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_ATOMS = frozenset((str, int, float, bool, type(None)))


def _snapshot(value):
    """A copy of a JSON value that shares no list or dict with it."""
    if isinstance(value, dict):
        return {k: v if type(v) in _ATOMS else _snapshot(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _ATOMS else _snapshot(v) for v in value]
    return value


class TranscriptRecorder:
    """Accumulates wrapped messages; verifier-side only.

    Messages are kept as dicts and encoded on demand by `lines`,
    `to_bytes` and `save`.  A verifier message is kept in a shallow
    wrapper, as the verifier builds each one fresh and never edits it (an
    in-process prover must not edit a message it is handed either).  A
    prover reply (``"p->v"``) and the SUMMARY are copied, so editing them
    after they were recorded leaves the transcript as it was.
    """

    def __init__(self):
        self._messages: list[dict] = []
        self._seq = 0

    def record(self, direction: str, msg: dict) -> None:
        if direction not in ("v->p", "p->v"):
            raise ValueError(f"unknown direction {direction!r}")
        wrapped = dict(msg) if direction == "v->p" else _snapshot(msg)
        wrapped["dir"] = direction
        wrapped["seq"] = self._seq
        self._seq += 1
        self._messages.append(wrapped)

    def summary(self, summary: dict) -> None:
        self._messages.append(_snapshot(summary))

    def to_bytes(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @property
    def lines(self) -> list[str]:
        return [canonical_json(msg) for msg in self._messages]


@dataclass
class ReplayReport:
    ok: bool
    mismatches: list[dict] = field(default_factory=list)
    note: str = ""
    rounds_checked: int = 0


class TranscriptFormatError(ValueError):
    pass


def _load_lines(source) -> list[dict]:
    if isinstance(source, TranscriptRecorder):
        raw_lines = source.lines
    elif isinstance(source, (list, tuple)):
        raw_lines = list(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw_lines = [line for line in fh.read().splitlines() if line.strip()]
    records = []
    for i, line in enumerate(raw_lines):
        try:
            records.append(json.loads(line))
        except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
            raise TranscriptFormatError(f"line {i + 1}: not valid JSON ({exc})") from exc
        if not isinstance(records[-1], dict):
            raise TranscriptFormatError(f"line {i + 1}: not a JSON object")
    if not records:
        raise TranscriptFormatError("empty transcript")
    return records


def _commitment(bundle: dict[str, dict], n: int, width: int):
    """A round's keys, which are also their trapdoors in this backend, and the parsed images."""
    keys = [entcf.key_from_wire(k) for k in rules.per_copy(bundle["KEYS"], "keys", n, "key")]
    return keys, rules.parse_images(bundle["IMAGES"], n, width)


def _recompute_flag(bundle: dict[str, dict], n: int, width: int) -> str:
    """Recompute the verifier flag for one test round from its messages."""
    keys, images = _commitment(bundle, n, width)
    round_type = bundle["ROUND_TYPE"]["round_type"]
    if round_type == rules.PREIMAGE_ROUND:
        return rules.preimage_flag(keys, images, rules.parse_preimages(bundle["PREIMAGES"], n, width))
    if round_type != rules.HADAMARD_ROUND:
        raise TranscriptFormatError(f"unknown round type {round_type!r}")
    equations = rules.parse_equations(bundle["EQUATIONS"], n, width)
    return rules.hadamard_flag(keys, images, equations, rules.parse_answers(bundle["ANSWERS"], n))


def replay(source) -> ReplayReport:
    """Recompute all verifier decisions and compare with the recorded ones.

    A record of the wrong type or shape raises TranscriptFormatError.
    """
    records = _load_lines(source)
    try:
        return _replay_records(records)
    except TranscriptFormatError:
        raise
    except (rules.ProtocolAbort, TypeError, ValueError, KeyError) as exc:  # entcf.DecodeError is a ValueError
        raise TranscriptFormatError(f"malformed transcript: {type(exc).__name__}: {exc}") from exc


def _replay_records(records: list[dict]) -> ReplayReport:
    summary = records[-1]
    if summary.get("type") != "SUMMARY":
        raise TranscriptFormatError("transcript does not end with a SUMMARY record")
    messages = records[:-1]
    config = summary["config"]
    n, width, m_blocks, seed, delta = (config[key] for key in ("n", "width", "m", "seed", "delta"))
    if any(type(v) is not int for v in (n, width, m_blocks, seed)) or type(delta) not in (int, float):
        raise TranscriptFormatError("session parameters n, width, m and seed must be integers")
    from .protocol import MultiRoundConfig  # protocol imports this module
    try:
        MultiRoundConfig(n=n, m_blocks=m_blocks, delta=delta, width=width, seed=seed)
    except ValueError as exc:
        raise TranscriptFormatError(f"session parameters out of range: {exc}") from None
    protocol_abort = str(summary.get("abort_reason") or "").startswith("protocol abort")
    report = ReplayReport(ok=True)

    def mismatch(round_index, name: str, recorded, recomputed) -> None:
        report.mismatches.append({"round": round_index, "field": name, "recorded": recorded, "recomputed": recomputed})

    rounds: dict[int, dict[str, dict]] = {}
    for msg in messages:
        if "round" in msg:  # FINAL has none
            if type(msg["round"]) is not int:
                raise TranscriptFormatError(f"round {msg['round']!r} is not an integer")
            rounds.setdefault(msg["round"], {})[msg["type"]] = msg
    test_flags: list[str] = []
    prep_round = None
    for idx in sorted(rounds):
        bundle = rounds[idx]
        required = {"KEYS", "IMAGES", "ROUND_TYPE"}
        if not required <= bundle.keys():
            if protocol_abort and idx == max(rounds):
                continue  # the prover reply that ended the session was rejected unrecorded
            raise TranscriptFormatError(f"round {idx} is missing {required - bundle.keys()}")
        if "VERDICT" not in bundle:
            prep_round = idx
            continue
        test_flags.append(_recompute_flag(bundle, n, width))
        if bundle["VERDICT"]["flag"] != test_flags[-1]:
            mismatch(idx, "flag", bundle["VERDICT"]["flag"], test_flags[-1])
    report.rounds_checked = len(test_flags)
    if summary.get("flags") != test_flags:
        mismatch(None, "flags", summary.get("flags"), test_flags)

    # replay the session schedule over the recomputed flags
    s_blocks, r_draw, _ = rules.session_draws(seed, m_blocks)
    for name, drawn in (("s_blocks", s_blocks), ("r_draw", r_draw)):
        if summary.get(name) != drawn:
            mismatch(None, name, summary.get(name), drawn)
    played = 0

    def replay_round() -> str:
        nonlocal played
        if played == len(test_flags):
            raise rules.ProtocolAbort("the schedule plays more test rounds than were recorded")
        played += 1
        return test_flags[played - 1]

    try:
        abort_block, _ = rules.run_schedule(
            m_blocks, s_blocks, r_draw, delta, bool(config.get("strict_trailing", False)), replay_round
        )
        scheduled = played
    except rules.ProtocolAbort:
        abort_block, scheduled = -1, f"more than {played}"
    if scheduled != len(test_flags) and not (protocol_abort and abort_block == -1):
        mismatch(None, "rounds", len(test_flags), scheduled)  # fewer only after a protocol abort
    accepted = abort_block is None and not protocol_abort
    if summary["accepted"] is not accepted:
        mismatch(None, "accepted", summary["accepted"], accepted)

    if accepted:
        if prep_round is None:
            raise TranscriptFormatError("accepted run lacks a preparation round")
        keys, images = _commitment(rounds[prep_round], n, width)
        equations = rules.parse_equations(rounds[prep_round]["EQUATIONS"], n, width)
        v = bits_to_hex(rules.decode_all(keys, images, equations))
        theta = bits_to_hex([key.mode for key in keys])
        final = next((msg for msg in messages if msg.get("type") == "FINAL"), {})
        for name, recorded, recomputed in (
            ("v", summary.get("v"), v),
            ("theta", summary.get("theta"), theta),
            ("theta", final.get("theta", theta), theta),
        ):
            if recorded != recomputed:
                mismatch(prep_round, name, recorded, recomputed)
        report.rounds_checked += 1

    report.ok = not report.mismatches
    if not report.ok:
        report.note = f"{len(report.mismatches)} divergence(s)"
    return report
