"""Transcript persistence, and replay as a re-run of the verifier.

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

Replay re-runs the verifier (``protocol.VerifierSession``), whose records
depend on its coins and the prover's replies alone, against a playback
endpoint that answers with the recorded replies.  The SUMMARY gives the
session parameters, FINAL whether theta is revealed, and the last KEYS
record's key modes the preparation basis of an accepted session (which
copy protection chooses); every other coin comes from the seed.  The
transcript passes only if the re-run writes it record for record (true,
1 and 1.0 told apart); otherwise the report names the first record it
would not have written.  A file that is not a transcript raises
TranscriptFormatError.  A live recorder is replayed from its encoded lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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


def _same(a, b) -> bool:
    """JSON equality that tells bool, int and float apart; an object (a NaN) equals itself, as in containers."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(map(_same, a.values(), map(b.__getitem__, a)))
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class _Divergence(Exception):
    """args[0]: the index of the first record the re-run does not write as the transcript holds it."""


class _Playback:
    """The prover end of a re-run: it checks what the re-run wrote so far, then answers with the recorded reply."""

    def __init__(self, records: list[dict], written: list[dict]):
        self.records, self.written, self.checked = records, written, 0

    def check(self) -> None:
        for i in range(self.checked, len(self.written)):
            if i == len(self.records) or not _same(self.written[i], self.records[i]):
                raise _Divergence(i)
        self.checked = len(self.written)

    def handle(self, msg: dict) -> dict | None:
        self.check()
        reply = self.records[self.checked] if self.checked < len(self.records) else {}
        return reply if reply.get("dir") == "p->v" else None  # the re-run's recorder rewrites dir and seq


def _rounds_matched(written: list[dict]) -> int:
    """Rounds complete in a prefix of the re-run's records: each later KEYS, and FINAL, closes one."""
    return max(0, sum(m.get("dir") == "v->p" and m["type"] in ("KEYS", "FINAL") for m in written) - 1)


def _divergence(records: list[dict], written: list[dict], i: int) -> ReplayReport:
    recorded, recomputed = records[i] if i < len(records) else {}, written[i] if i < len(written) else {}
    # "type" first
    name = next((k for k in sorted(recorded.keys() | recomputed.keys(), key=lambda k: (k != "type", k))
                 if k not in recorded or k not in recomputed or not _same(recorded[k], recomputed[k])), None)
    first = {"round": recomputed.get("round", recorded.get("round")), "field": name,
             "type": recomputed.get("type", recorded.get("type")),
             "recorded": recorded.get(name), "recomputed": recomputed.get(name)}
    note = f"first divergence: round {first['round']}, {first['type']}.{name}"
    return ReplayReport(ok=False, mismatches=[first], note=note, rounds_checked=_rounds_matched(written[:i]))


def _prep_theta(records: list[dict], n: int) -> list[int] | None:
    """The key modes of the last KEYS record, or None (the seed's draw) if it holds no n modes."""
    keys = next((r.get("keys") for r in reversed(records) if r.get("type") == "KEYS"), None)
    modes = [key.get("mode") for key in keys if isinstance(key, dict)] if isinstance(keys, list) else []
    return modes if len(modes) == n and all(type(m) is int and m in (0, 1) for m in modes) else None


def replay(source) -> ReplayReport:
    """Re-run the verifier against the recorded replies; report the first record it would not have written.

    TranscriptFormatError: a line that is not a JSON object, no SUMMARY last, or parameters MultiRoundConfig refuses.
    """
    from .protocol import MultiRoundConfig, VerifierSession  # protocol imports this module

    records = _load_lines(source)
    summary, config = records[-1], records[-1].get("config")
    if summary.get("type") != "SUMMARY" or not isinstance(config, dict):
        raise TranscriptFormatError("transcript does not end with a SUMMARY record of the session parameters")
    n, width, m_blocks, seed, delta = (config.get(key) for key in ("n", "width", "m", "seed", "delta"))
    if any(type(v) is not int for v in (n, width, m_blocks, seed)) or type(delta) not in (int, float):
        raise TranscriptFormatError("session parameters n, width, m and seed must be integers")
    reveal_theta = any(r.get("type") == "FINAL" and "theta" in r for r in records)
    try:
        config = MultiRoundConfig(n=n, m_blocks=m_blocks, delta=delta, width=width, seed=seed,
                                  strict_trailing=config.get("strict_trailing") is True, reveal_theta=reveal_theta)
    except ValueError as exc:
        raise TranscriptFormatError(f"session parameters out of range: {exc}") from None
    rerun = TranscriptRecorder()
    written, playback = rerun._messages, _Playback(records, rerun._messages)
    try:
        try:
            VerifierSession(config, playback, rerun).run_multi_round(
                _prep_theta(records, n) if summary.get("accepted") is True else None)
            playback.check()
            if len(records) > len(written):
                raise _Divergence(len(written))
        except _Divergence as exc:
            # a session records a reply too deep to copy as its type alone, so the re-run diverges there
            _snapshot(records[exc.args[0]] if exc.args[0] < len(records) else None)
            return _divergence(records, written, exc.args[0])
    except RecursionError:  # no session could have recorded that reply
        raise TranscriptFormatError("a reply is nested too deeply to record") from None
    return ReplayReport(ok=True, rounds_checked=_rounds_matched(written))
