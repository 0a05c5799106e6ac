"""Property tests: no edit of a prover reply or a transcript line escapes as
an unexpected exception.

Each example replaces one value, at any depth, of one message with an
arbitrary JSON value.  The runs are derandomized and bounded, so the suite
stays deterministic.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parrsp import protocol, provers, transcript

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)
# values that have broken parsers: overflowing floats, bools and near-miss encodings
edge_values = st.sampled_from([1e999, -1e999, 1e300, float("nan"), True, 1.0, "0x1", "F", " 1", "", "ok", "fail_Had"])
replacements = edge_values | json_values


def value_paths(obj, prefix=()):
    """Paths to every value nested in a JSON object, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


def replaced(obj, path, value):
    out = copy.deepcopy(obj)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def config(seed, **kw):
    return protocol.MultiRoundConfig(n=2, m_blocks=3, delta=0.3, width=3, seed=seed, **kw)


class OneEditProver(provers.HonestProver):
    """Honest, except that one value of its `occurrence`-th reply of type `mtype` is replaced."""

    def __init__(self, seed, mtype, occurrence, pick, value):
        super().__init__(seed)
        self.mtype, self.occurrence, self.pick, self.value = mtype, occurrence, pick, value

    def handle(self, msg):
        reply = super().handle(msg)
        if reply is not None and reply["type"] == self.mtype:
            if self.occurrence == 0:
                paths = list(value_paths(reply))
                reply = replaced(reply, paths[self.pick % len(paths)], self.value)
            self.occurrence -= 1
        return reply


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 5),
    mtype=st.sampled_from(["IMAGES", "PREIMAGES", "EQUATIONS", "ANSWERS"]),
    occurrence=st.integers(0, 2),
    pick=st.integers(0, 50),
    value=replacements,
)
def test_edited_prover_reply_ends_in_abort_or_flags(seed, mtype, occurrence, pick, value):
    res = protocol.run_multi_round(config(seed), OneEditProver(seed, mtype, occurrence, pick, value))
    assert res.accepted or res.abort_block == -1 or any(f != protocol.FLAG_OK for f in res.flags)
    # the verifier's own transcript always replays
    assert transcript.replay(res.transcript).ok


def _sessions():
    out = []
    for seed, prover_cls, kw in (
        (0, provers.HonestProver, {}),
        (3, provers.HonestProver, {"strict_trailing": True, "reveal_theta": False}),
        (1, provers.AlwaysWrongProver, {}),
    ):
        out.append(protocol.run_multi_round(config(seed, **kw), prover_cls(seed=seed)).transcript.lines)
    # a protocol abort: garbage images in round 1
    out.append(protocol.run_multi_round(config(0), OneEditProver(0, "IMAGES", 1, 2, "zz")).transcript.lines)
    return out


SESSIONS = _sessions()


@PROPERTY_SETTINGS
@given(
    session=st.integers(0, len(SESSIONS) - 1),
    line=st.integers(0, 200),
    pick=st.integers(0, 200),
    value=replacements,
)
def test_edited_transcript_gives_report_or_format_error(session, line, pick, value):
    lines = list(SESSIONS[session])
    index = line % len(lines)
    record = json.loads(lines[index])
    paths = list(value_paths(record))
    lines[index] = json.dumps(replaced(record, paths[pick % len(paths)], value))
    try:
        report = transcript.replay(lines)
    except transcript.TranscriptFormatError:
        return
    assert isinstance(report, transcript.ReplayReport)
