"""The transcript recorder: bytes identical to eager encoding, and owning what it records."""

import pytest

from parrsp import protocol, provers, transcript
from parrsp.seeds import derive_seed


class EagerRecorder:
    """Reference recorder: every record encoded with canonical_json the moment it is made."""

    def __init__(self):
        self.lines = []
        self._seq = 0

    def record(self, direction, msg):
        wrapped = dict(msg)
        wrapped["dir"] = direction
        wrapped["seq"] = self._seq
        self._seq += 1
        self.lines.append(transcript.canonical_json(wrapped))

    def summary(self, summary):
        self.lines.append(transcript.canonical_json(summary))

    def to_bytes(self):
        return ("\n".join(self.lines) + "\n").encode("utf-8")


def config(seed, n=2, m=3, width=4):
    return protocol.MultiRoundConfig(n=n, m_blocks=m, delta=0.05, width=width, seed=seed)


def make_prover(name, seed):
    prover_seed = derive_seed(seed, "prover")
    return provers.HonestProver(prover_seed) if name == "honest" else provers.cheating_prover(name, prover_seed)


def both_recordings(cfg, prover_factory):
    """(lazy result, eager reference bytes) of two runs of the same seeded session."""
    result = protocol.run_multi_round(cfg, prover_factory())
    eager = EagerRecorder()
    protocol.run_multi_round(cfg, prover_factory(), recorder=eager)
    return result, eager.to_bytes()


class ShortImagesProver(provers.HonestProver):
    """Honest, but its second IMAGES reply drops a copy, which ends the session in a protocol abort."""

    def __init__(self, seed):
        super().__init__(seed)
        self.images_sent = 0

    def handle(self, msg):
        reply = super().handle(msg)
        if reply is not None and reply["type"] == "IMAGES":
            self.images_sent += 1
            if self.images_sent == 2:
                reply["y"] = reply["y"][:-1]
        return reply


class ReplyEditingProver(provers.HonestProver):
    """Honest, but after each handle() it edits the reply it returned before, in place."""

    def __init__(self, seed):
        super().__init__(seed)
        self.previous = None
        self.edited = set()

    def handle(self, msg):
        if self.previous is not None:
            if self.previous["type"] == "IMAGES":
                self.previous["y"].append("00")
                self.edited.add("IMAGES")
            elif self.previous["type"] == "PREIMAGES":
                pair = self.previous["pairs"][0]
                pair["b"], pair["x"] = 1 - pair["b"], "0"
                self.edited.add("PREIMAGES")
        reply = super().handle(msg)
        self.previous = reply
        return reply


@pytest.mark.parametrize("name", provers.PROVER_NAMES)
def test_bytes_equal_eager_encoding(name):
    for seed in range(3):
        result, reference = both_recordings(config(seed), lambda: make_prover(name, seed))
        assert result.transcript.to_bytes() == reference


def test_protocol_abort_bytes_equal_eager_encoding():
    result, reference = both_recordings(config(1), lambda: ShortImagesProver(5))
    assert result.abort_reason.startswith("protocol abort")
    assert result.transcript.to_bytes() == reference
    assert transcript.replay(result.transcript).ok


def test_prover_edits_after_handle_do_not_reach_the_transcript():
    cfg = config(0, m=4)
    prover = ReplyEditingProver(3)
    result = protocol.run_multi_round(cfg, prover)
    eager = EagerRecorder()
    protocol.run_multi_round(cfg, ReplyEditingProver(3), recorder=eager)
    honest = protocol.run_multi_round(cfg, provers.HonestProver(3))
    assert prover.edited == {"IMAGES", "PREIMAGES"}
    assert result.transcript.to_bytes() == eager.to_bytes() == honest.transcript.to_bytes()


class TupleProver(provers.HonestProver):
    """Honest, but every list in its replies is a tuple, which a transcript records as a list."""

    def handle(self, msg):
        reply = super().handle(msg)
        return reply and {k: tuple(v) if isinstance(v, list) else v for k, v in reply.items()}


def test_tuples_in_a_reply_decide_as_the_lists_they_are_recorded_as():
    result = protocol.run_multi_round(config(0, m=4), TupleProver(3))
    honest = protocol.run_multi_round(config(0, m=4), provers.HonestProver(3))
    assert result.accepted and result.transcript.to_bytes() == honest.transcript.to_bytes()


def test_editing_the_result_flags_leaves_the_summary():
    result = protocol.run_multi_round(config(2), provers.HonestProver(4))
    before = result.transcript.to_bytes()
    result.flags.append("fail_pre")
    assert result.transcript.to_bytes() == before


def test_encoding_twice_gives_equal_results():
    result = protocol.run_multi_round(config(0), make_prover("random_answer", 0))
    recorder = result.transcript
    assert recorder.lines == recorder.lines
    assert recorder.to_bytes() == recorder.to_bytes()
    assert recorder.to_bytes() == ("\n".join(recorder.lines) + "\n").encode("utf-8")
