"""The coin stream draws exactly what numpy's default_rng draws.

Each example is one seed and a random sequence of the calls the protocol
makes.  The stream and ``np.random.default_rng(seed)`` answer every call
alike, and a final 32-bit draw checks that both hold the same pending half
of a 64-bit output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrsp.seeds import CoinStream

SPANS = [1, 2, 15, 2**17, 2**32 - 1, 2**32]
spans = st.sampled_from(SPANS) | st.integers(min_value=1, max_value=2**32)
calls = st.one_of(
    st.tuples(st.just("integers"), st.integers(min_value=-8, max_value=8), spans, st.none() | st.integers(0, 5)),
    st.tuples(st.just("bytes"), st.integers(min_value=0, max_value=37)),
    st.tuples(st.just("random")),
)


def _call(rng, call):
    name, *args = call
    if name == "integers":
        low, span, size = args
        drawn = rng.integers(low, low + span, size=size)
        return int(drawn) if size is None else [int(v) for v in drawn]
    if name == "bytes":
        return rng.bytes(args[0])
    return rng.random()


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(calls, max_size=30))
def test_stream_matches_default_rng(seed, sequence):
    stream, generator = CoinStream(seed), np.random.default_rng(seed)
    for call in sequence:
        assert _call(stream, call) == _call(generator, call), call
    assert stream.integers(0, 2**32) == int(generator.integers(0, 2**32))


@pytest.mark.parametrize("span", [0, -3, 2**32 + 1, 2**40])
def test_spans_outside_32_bits_raise(span):
    with pytest.raises(ValueError, match="span"):
        CoinStream(1).integers(5, 5 + span)

