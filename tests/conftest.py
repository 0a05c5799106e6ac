"""Suite-wide check: every session the verifier plays must replay.

Replay re-runs the verifier against the recorded replies, so a session
whose transcript does not replay shows a record that depends on something
other than the config, the preparation basis and the prover's replies.
Subclasses of VerifierSession are not checked: the suite uses them to
forge transcripts that replay must refuse.
"""

import pytest

from parrsp import protocol, transcript


@pytest.fixture(autouse=True)
def replay_every_session(monkeypatch):
    run = protocol.VerifierSession.run_multi_round
    replaying = []

    def run_and_replay(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        if type(self) is protocol.VerifierSession and not replaying:  # not replay's own re-run
            replaying.append(True)
            try:
                report = transcript.replay(result.transcript.lines)
            finally:
                replaying.pop()
            assert report.ok, report.note
        return result

    monkeypatch.setattr(protocol.VerifierSession, "run_multi_round", run_and_replay)
