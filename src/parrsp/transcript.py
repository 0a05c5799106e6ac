"""Transcript persistence and independent replay of verifier decisions.

A transcript is a JSON-lines file: one wire message per line, each wrapped
with its direction and a logical sequence number, followed by one trailing
SUMMARY record holding the verifier's private outputs (decoded bit string,
basis choice, per-round flags, session parameters).  Sequence numbers play
the role of timestamps; wall-clock times would break the byte-identical
reproducibility guarantee.

Replay re-derives every verifier decision from the recorded messages alone
(the serialized keys carry the full decoding capability in this backend)
and reports any divergence from the recorded verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import entcf
from .wire import bits_to_hex, hex_to_int


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TranscriptRecorder:
    """Accumulates wrapped messages; verifier-side only."""

    def __init__(self):
        self._lines: list[str] = []
        self._seq = 0

    def record(self, direction: str, msg: dict) -> None:
        if direction not in ("v->p", "p->v"):
            raise ValueError(f"unknown direction {direction!r}")
        wrapped = dict(msg)
        wrapped["dir"] = direction
        wrapped["seq"] = self._seq
        self._seq += 1
        self._lines.append(canonical_json(wrapped))

    def summary(self, summary: dict) -> None:
        self._lines.append(canonical_json(summary))

    def to_bytes(self) -> bytes:
        return ("\n".join(self._lines) + "\n").encode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @property
    def lines(self) -> list[str]:
        return list(self._lines)


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
        except json.JSONDecodeError as exc:
            raise TranscriptFormatError(f"line {i + 1}: not valid JSON ({exc})") from exc
        if not isinstance(records[-1], dict):
            raise TranscriptFormatError(f"line {i + 1}: not a JSON object")
    if not records:
        raise TranscriptFormatError("empty transcript")
    return records


def _group_rounds(messages: list[dict]) -> dict[int, dict[str, dict]]:
    rounds: dict[int, dict[str, dict]] = {}
    for msg in messages:
        if "round" not in msg:
            continue
        rounds.setdefault(int(msg["round"]), {})[msg["type"]] = msg
    return rounds


def _recompute_flag(bundle: dict[str, dict], width: int) -> str:
    """Recompute the verifier flag for one test round from its messages."""
    keys = [entcf.key_from_wire(k) for k in bundle["KEYS"]["keys"]]
    trapdoors = [entcf.trapdoor_from_key(k) for k in keys]
    images = [hex_to_int(h, width + 1) for h in bundle["IMAGES"]["y"]]
    round_type = bundle["ROUND_TYPE"]["round_type"]
    if round_type == "preimage":
        pairs = bundle["PREIMAGES"]["pairs"]
        ok = all(
            entcf.chk(key, y, int(p["b"]), hex_to_int(p["x"], width))
            for key, y, p in zip(keys, images, pairs, strict=True)
        )
        return "ok" if ok else "fail_Pre"
    theta = keys[0].mode
    equations = [hex_to_int(h, width) for h in bundle["EQUATIONS"]["d"]]
    answers = [int(v) for v in bundle["ANSWERS"]["v"]]
    for trapdoor, y, d, v in zip(trapdoors, images, equations, answers, strict=True):
        expected = entcf.decode_b(trapdoor, y) if theta == 0 else entcf.decode_u(trapdoor, y, d)
        if expected != v:
            return "fail_Had"
    return "ok"


def _recompute_prep_v(bundle: dict[str, dict], width: int) -> str:
    keys = [entcf.key_from_wire(k) for k in bundle["KEYS"]["keys"]]
    trapdoors = [entcf.trapdoor_from_key(k) for k in keys]
    images = [hex_to_int(h, width + 1) for h in bundle["IMAGES"]["y"]]
    equations = [hex_to_int(h, width) for h in bundle["EQUATIONS"]["d"]]
    v_bits = []
    for key, trapdoor, y, d in zip(keys, trapdoors, images, equations, strict=True):
        v_bits.append(entcf.decode_b(trapdoor, y) if key.mode == 0 else entcf.decode_u(trapdoor, y, d))
    return bits_to_hex(v_bits)


def replay(source) -> ReplayReport:
    """Recompute all verifier decisions and compare with the recorded ones.

    A record of the wrong type or shape raises TranscriptFormatError.
    """
    records = _load_lines(source)
    try:
        return _replay_records(records)
    except TranscriptFormatError:
        raise
    except (TypeError, ValueError, KeyError) as exc:  # entcf.DecodeError is a ValueError
        raise TranscriptFormatError(f"malformed transcript: {type(exc).__name__}: {exc}") from exc


def _replay_records(records: list[dict]) -> ReplayReport:
    summary = records[-1]
    if summary.get("type") != "SUMMARY":
        raise TranscriptFormatError("transcript does not end with a SUMMARY record")
    messages = records[:-1]
    config = summary["config"]
    width = int(config["width"])
    m_blocks = int(config["m"])
    delta = float(config["delta"])
    if not entcf.MIN_KEY_WIDTH <= width <= entcf.MAX_KEY_WIDTH or m_blocks < 1:
        raise TranscriptFormatError(f"session parameters out of range: width {width}, m {m_blocks}")
    strict = bool(config.get("strict_trailing", False))
    protocol_abort = str(summary.get("abort_reason") or "").startswith("protocol abort")

    rounds = _group_rounds(messages)
    report = ReplayReport(ok=True)

    test_flags: list[str] = []
    prep_round_index = None
    for idx in sorted(rounds):
        bundle = rounds[idx]
        required = {"KEYS", "IMAGES", "ROUND_TYPE"}
        if not required <= bundle.keys():
            if protocol_abort and idx == max(rounds):
                continue  # the prover reply that ended the session was rejected unrecorded
            raise TranscriptFormatError(f"round {idx} is missing {required - bundle.keys()}")
        if "VERDICT" not in bundle:
            prep_round_index = idx
            continue
        recomputed = _recompute_flag(bundle, width)
        recorded = bundle["VERDICT"]["flag"]
        if recomputed != recorded:
            report.ok = False
            report.mismatches.append(
                {"round": idx, "field": "flag", "recorded": recorded, "recomputed": recomputed}
            )
        test_flags.append(recomputed)
        report.rounds_checked += 1

    # recorded flag list must match the per-round verdicts
    if list(summary.get("flags", [])) != [rounds[i]["VERDICT"]["flag"] for i in sorted(rounds) if "VERDICT" in rounds[i]]:
        report.ok = False
        report.mismatches.append({"round": None, "field": "flags", "recorded": summary.get("flags")})

    # re-derive the accept/abort decision from recomputed flags
    s_blocks = summary.get("s_blocks")
    r_draw = summary.get("r_draw")
    accepted_recomputed = not protocol_abort
    if accepted_recomputed and s_blocks is not None:
        pos = 0
        for block in range(int(s_blocks)):
            chunk = test_flags[pos : pos + m_blocks]
            if len(chunk) < m_blocks:
                break  # aborted inside this block's recording
            failures = sum(1 for f in chunk if f != "ok")
            pos += m_blocks
            if failures / m_blocks > delta:
                accepted_recomputed = False
                break
        if accepted_recomputed and strict and r_draw is not None:
            trailing = test_flags[pos : pos + int(r_draw) - 1]
            if trailing and sum(1 for f in trailing if f != "ok") / len(trailing) > delta:
                accepted_recomputed = False
    if bool(summary["accepted"]) != accepted_recomputed:
        report.ok = False
        report.mismatches.append(
            {
                "round": None,
                "field": "accepted",
                "recorded": summary["accepted"],
                "recomputed": accepted_recomputed,
            }
        )

    if summary["accepted"]:
        if prep_round_index is None:
            raise TranscriptFormatError("accepted run lacks a preparation round")
        v_recomputed = _recompute_prep_v(rounds[prep_round_index], width)
        if v_recomputed != summary.get("v"):
            report.ok = False
            report.mismatches.append(
                {
                    "round": prep_round_index,
                    "field": "v",
                    "recorded": summary.get("v"),
                    "recomputed": v_recomputed,
                }
            )
        report.rounds_checked += 1

    if not report.ok:
        report.note = f"{len(report.mismatches)} divergence(s)"
    return report
