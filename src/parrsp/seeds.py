"""Deterministic seed derivation and the protocol's coin streams.

All randomness in a protocol session flows from one root seed through a
derivation tree: each party and each round gets its own child seed, computed
by hashing the root together with a path of labels.  The same tree is used
in-process and across the socket transport, which is what makes transcripts
byte-identical between the two modes.

Each child seed drives a :class:`CoinStream`: PCG64 seeded exactly as
``np.random.default_rng(seed)`` seeds it, with the three draws the protocol
makes (bounded integers, bytes and doubles) implemented on the raw 64-bit
output.  Every draw equals the one ``default_rng(seed)`` returns for the same
sequence of calls.  The stream exists for two reasons:

- NumPy's RNG policy (NEP 19) keeps BitGenerator and SeedSequence streams
  stable across releases but not ``Generator``'s sampling algorithms.  With
  the algorithms fixed here, a transcript depends on PCG64 and SeedSequence
  alone.
- A ``Generator`` call costs several times the draw it makes, and a protocol
  round makes a few draws per key.  Seeding, about 9 us of SeedSequence
  mixing per stream, remains: it defines the streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

_WORD = 1 << 32
_WORD_MASK = _WORD - 1
_DOUBLE_UNIT = 1.0 / (1 << 53)


def derive_seed(root: int, *path: object) -> int:
    """64-bit child seed for the given derivation path."""
    text = str(int(root)) + "".join(f"/{p}" for p in path)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class CoinStream:
    """The draws of ``np.random.default_rng(seed)``, read from its PCG64 directly.

    A 32-bit draw takes the low half of a fresh 64-bit output and keeps the
    high half for the next 32-bit draw, as PCG64 itself buffers it.
    ``random()`` reads a whole output and leaves a pending half in place.
    ``bit_generator`` is the PCG64 behind the stream.  A ``Generator`` built
    on a copy of it stays in step with the stream for draws that read whole
    outputs only, such as ``random()`` and ``choice``.
    """

    __slots__ = ("bit_generator", "_raw", "_half")

    def __init__(self, seed: int):
        self.bit_generator = np.random.PCG64(seed)
        self._raw = self.bit_generator.random_raw
        self._half: int | None = None

    def _next32(self) -> int:
        half = self._half
        if half is None:
            raw = self._raw()
            self._half = raw >> 32
            return raw & _WORD_MASK
        self._half = None
        return half

    def _below(self, span: int) -> int:
        """Uniform draw from [0, span): numpy's 32-bit Lemire method.

        A span of 1 draws nothing, and a span of 2^32 is one 32-bit draw.
        """
        if span == 1:
            return 0
        if span == _WORD:
            return self._next32()
        m = self._next32() * span
        if m & _WORD_MASK < span:
            threshold = (_WORD - span) % span
            while m & _WORD_MASK < threshold:
                m = self._next32() * span
        return m >> 32

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        """A uniform integer in [low, high), or a list of `size` of them.

        Spans above 2^32 would take numpy's 64-bit method, which no protocol
        draw needs; they raise ``ValueError``.
        """
        span = high - low
        if not 1 <= span <= _WORD:
            raise ValueError(f"integers span {span} outside [1, 2^32]")
        if size is None:
            return low + self._below(span)
        return [low + self._below(span) for _ in range(size)]

    def bytes(self, length: int) -> bytes:
        """`length` random bytes: 32-bit draws as little-endian words, the last cut short.

        ``bytes(0)`` still draws one word, as numpy's does.
        """
        words = (length + 3) // 4 or 1
        value = 0
        for shift in range(0, 32 * words, 32):
            value |= self._next32() << shift
        return value.to_bytes(4 * words, "little")[:length]

    def random(self) -> float:
        """A double in [0, 1) from the top 53 bits of one 64-bit output."""
        return (self._raw() >> 11) * _DOUBLE_UNIT


def derived_rng(root: int, *path: object) -> CoinStream:
    """The coin stream of the given derivation path."""
    return CoinStream(derive_seed(root, *path))
