"""Functional trapdoor claw-free function pairs (insecure by design).

This backend realizes the two key modes as thin wrappers around one fixed
keyed permutation pi on (w+1)-bit strings:

- injective mode (basis bit 0):  f(b, x) = pi(b || x), a bijection from
  (bit, w bits) onto the (w+1)-bit image space;
- claw-free mode (basis bit 1):  f(b, x) = pi(0 || (x XOR b*delta)) for a
  nonzero w-bit offset delta, so every image has exactly the claw
  (x, x XOR delta).

pi is an 8-round Feistel network over w+1 bits (odd totals use an
unbalanced split with the left half one bit larger) whose round functions
are read from keyed blake2b streams of a 128-bit per-key seed.  Determinism
and invertibility are the only contracts pi has to satisfy.  No per-key
table exists: an evaluation reads each round's entry from the one 64-byte
digest that holds it.  A seed's entry in a small bounded cache holds its
keyed blake2b state, which has absorbed the seed once, and a list of digest
slots, one per (round, digest counter) pair that any width can read; a
slot stays None until a point needs its digest, which is then computed
from a copy of that state.  A key costs one keyed state and one slot list
plus what its evaluations touch (8 digests per point).  Only
:func:`preimage_table` enumerates the 2^(w+1) domain.

SECURITY WARNING: nothing here is cryptographically hard.  The public key
contains the permutation seed (and the claw offset), so anyone holding a
key can invert it.  Honest parties simply refrain from doing so; the point
of this backend is exact, reproducible protocol behavior at desk scale,
not computational security.

A key is one immutable, validated object.  In this backend the trapdoor is
the key's own data, so :func:`gen` builds a single :class:`EntcfKey` that
also answers ``.key`` and ``.trapdoor`` (the key pair of the TCF interface),
and :func:`trapdoor_from_key` returns its argument.  ``EntcfTrapdoor`` names
the same class in its decoding role.

Supports are noiseless singletons, so honest protocol behavior is exact:
checks that hold "with overwhelming probability" for the noisy families
hold with probability 1 here.  One consequence worth knowing: the equation
decoding of an image-equation pair equals d . delta for every d, with no
dependence on the image point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .seeds import CoinStream

FEISTEL_ROUNDS = 8
MIN_KEY_WIDTH = 2
MAX_KEY_WIDTH = 16

INJECTIVE = 0
CLAW_FREE = 1


class DecodeError(ValueError):
    """A decoding map was applied outside its domain."""


@dataclass(frozen=True, slots=True)
class EntcfKey:
    """Key, trapdoor and key pair at once: function mode, preimage width, permutation seed.

    Claw-free keys also carry the claw offset, which the evaluation map
    needs; see the module warning about the (intentional) lack of secrecy.
    """

    mode: int
    width: int
    seed: bytes
    delta: int | None = None

    def __post_init__(self):
        if self.mode not in (INJECTIVE, CLAW_FREE):
            raise ValueError(f"mode must be 0 (injective) or 1 (claw-free), got {self.mode}")
        if not MIN_KEY_WIDTH <= self.width <= MAX_KEY_WIDTH:
            raise ValueError(f"key width {self.width} outside [{MIN_KEY_WIDTH}, {MAX_KEY_WIDTH}]")
        if len(self.seed) != 16:
            raise ValueError("permutation seed must be 16 bytes")
        if self.mode == CLAW_FREE:
            if not self.delta or not 0 < self.delta < (1 << self.width):
                raise ValueError("claw-free keys need a nonzero w-bit delta")
        elif self.delta is not None:
            raise ValueError("injective keys carry no delta")

    @property
    def key(self) -> EntcfKey:
        return self

    @property
    def trapdoor(self) -> EntcfKey:
        """The inversion capability, which here is the key itself."""
        return self


EntcfTrapdoor = EntcfKey  # the decoding-side role of the same data


def _layout(total_bits: int) -> tuple[int, int, int, int, int]:
    """Right half width, left and right entry bytes, left and right masks of a split."""
    left_bits = (total_bits + 1) // 2
    right_bits = total_bits - left_bits
    return right_bits, (left_bits + 7) // 8, (right_bits + 7) // 8, (1 << left_bits) - 1, (1 << right_bits) - 1


_LAYOUTS = tuple(_layout(total_bits) for total_bits in range(MAX_KEY_WIDTH + 2))
_FORWARD = tuple(range(FEISTEL_ROUNDS))
_INVERSE = _FORWARD[::-1]

# What each digest slot ``counter << 3 | rnd`` absorbs after the key: round
# and counter, big-endian.  The last entry of a half starts at byte
# mask * k of its stream (k bytes per entry of the other half's width), so
# no split reads past counter 7: 64 slots.
_SUFFIXES = tuple(
    (slot & 7).to_bytes(2, "big") + (slot >> 3).to_bytes(4, "big")
    for slot in range(8 + 8 * max(max(lm * rs, rm * ls) >> 6 for _, ls, rs, lm, rm in _LAYOUTS))
)


@lru_cache(maxsize=64)
def _keyed(seed: bytes) -> tuple[hashlib.blake2b, list[bytes | None]]:
    """A seed's keyed blake2b state and its digest slots, None until read.

    Digest `counter` of round `rnd` (rnd < FEISTEL_ROUNDS = 8) fills slot
    ``counter << 3 | rnd``: a copy of the state that absorbs the slot's
    suffix in ``_SUFFIXES``, one compression, once while the seed stays
    cached.  The cache is small on purpose: it only has to hold the seeds
    one protocol round touches (the prover's commit, then the verifier's
    decode and check of the same points).  Up to width 11 each round's
    entries lie in one digest, so its 64 seeds hold about 512 digests; at
    width 16 a seed holds at most 64.  Only the 64 slot lists are tracked by
    the garbage collector; the bytes in them are not.  A large cache
    outlives the young generations and the collector's full passes walk it:
    a cache of 8192 tracked entries, one per digest, made the tail latency
    of width-16 sessions five times what it was at 512.
    """
    return hashlib.blake2b(key=seed, digest_size=64), [None] * len(_SUFFIXES)


def _feistel(seed: bytes, total_bits: int, value: int, inverse: bool = False) -> int:
    """pi (or pi^-1) of `value`; round r XORs entry i of its stream into one half.

    Entry i of a round whose destination half has d bits is bytes
    [i*k, (i+1)*k) of the stream read big-endian (k = ceil(d / 8) bytes)
    and masked to d bits.  As 64 is a multiple of k, the entry lies whole
    in digest (i*k) // 64 at offset (i*k) % 64.  A one-byte entry is read
    by indexing, which is what makes widths below 16 cheaper.
    """
    right_bits, left_size, right_size, left_mask, right_mask = _LAYOUTS[total_bits]
    state, digests = _keyed(seed)
    left = value >> right_bits
    right = value & right_mask
    for rnd in _INVERSE if inverse else _FORWARD:
        if rnd & 1:
            pos = left * right_size
            slot = pos >> 6 << 3 | rnd
            digest = digests[slot]
            if digest is None:
                h = state.copy()
                h.update(_SUFFIXES[slot])
                digest = digests[slot] = h.digest()
            offset = pos & 63
            entry = digest[offset] if right_size == 1 else int.from_bytes(digest[offset : offset + right_size], "big")
            right ^= entry & right_mask
        else:
            pos = right * left_size
            slot = pos >> 6 << 3 | rnd
            digest = digests[slot]
            if digest is None:
                h = state.copy()
                h.update(_SUFFIXES[slot])
                digest = digests[slot] = h.digest()
            offset = pos & 63
            entry = digest[offset] if left_size == 1 else int.from_bytes(digest[offset : offset + left_size], "big")
            left ^= entry & left_mask
    return (left << right_bits) | right


def gen(mode: int, width: int, rng: np.random.Generator | CoinStream) -> EntcfKey:
    """Fresh key: new permutation seed, and a claw offset in mode 1.

    The key validates mode and width itself, after the draws.
    """
    seed = rng.bytes(16)
    delta = 1 + int(rng.integers(0, (1 << width) - 1)) if mode == CLAW_FREE else None
    return EntcfKey(mode, width, seed, delta)


def eval_point(key: EntcfKey, b: int, x: int) -> int:
    """Image of (b, x); a (w+1)-bit value."""
    if b not in (0, 1):
        raise ValueError("b must be a bit")
    if not 0 <= x < (1 << key.width):
        raise ValueError(f"x = {x} out of range for width {key.width}")
    pre = (b << key.width) | x if key.mode == INJECTIVE else x ^ (key.delta if b else 0)
    return _feistel(key.seed, key.width + 1, pre)


def chk(key: EntcfKey, y: int, b: int, x: int) -> bool:
    """Public predicate: does (b, x) map to y under this key?"""
    if not 0 <= y < (1 << (key.width + 1)):
        return False
    return eval_point(key, b, x) == y


def decode_b(trapdoor: EntcfTrapdoor, y: int) -> int:
    """Committed bit of an image under an injective-mode key."""
    if trapdoor.mode != INJECTIVE:
        raise DecodeError("decode_b requires an injective-mode trapdoor")
    if not 0 <= y < (1 << (trapdoor.width + 1)):
        raise DecodeError(f"image {y} out of range")
    return _feistel(trapdoor.seed, trapdoor.width + 1, y, inverse=True) >> trapdoor.width


def decode_x(trapdoor: EntcfTrapdoor, y: int, b: int) -> int | None:
    """Preimage of y on branch b, or None when y lies outside the support.

    Injective mode ignores b and returns the unique preimage's x part.
    Claw-free mode returns z XOR b*delta for pi^{-1}(y) = 0||z, and None
    when the leading preimage bit is 1 (no claw maps there).
    """
    if b not in (0, 1):
        raise ValueError("b must be a bit")
    if not 0 <= y < (1 << (trapdoor.width + 1)):
        raise DecodeError(f"image {y} out of range")
    pre = _feistel(trapdoor.seed, trapdoor.width + 1, y, inverse=True)
    if trapdoor.mode == INJECTIVE:
        return pre & ((1 << trapdoor.width) - 1)
    if pre >> trapdoor.width:
        return None
    z = pre & ((1 << trapdoor.width) - 1)
    return z ^ (trapdoor.delta if b else 0)


def decode_u(trapdoor: EntcfTrapdoor, y: int, d: int) -> int:
    """Parity d . (x_0 XOR x_1) of the claw at y.

    In this backend the claw offset is a global key property, so the value
    is d . delta for every image point; y is accepted for interface
    compatibility but does not influence the result.
    """
    if trapdoor.mode != CLAW_FREE:
        raise DecodeError("decode_u requires a claw-free trapdoor")
    if not 0 <= d < (1 << trapdoor.width):
        raise DecodeError(f"equation vector {d} out of range")
    return (d & trapdoor.delta).bit_count() & 1


def preimage_table(key: EntcfKey) -> dict[int, list[tuple[int, int]]]:
    """All (b, x) preimages of every reachable image point.

    O(2^(w+1)): no protocol path calls it; the tests use it as the reference
    for the honest prover's two-term commitments.
    """
    table: dict[int, list[tuple[int, int]]] = {}
    for b in (0, 1):
        for x in range(1 << key.width):
            table.setdefault(eval_point(key, b, x), []).append((b, x))
    return table


def key_to_wire(key: EntcfKey) -> dict:
    """Key serialization for the verifier-to-prover wire (JSON-safe)."""
    msg = {"mode": key.mode, "width": key.width, "seed_hex": key.seed.hex()}
    if key.delta is not None:
        msg["delta_hex"] = format(key.delta, "x")
    return msg


def key_from_wire(obj: dict) -> EntcfKey:
    """Inverse of :func:`key_to_wire`; mode and width must be JSON integers."""
    if type(obj["mode"]) is not int or type(obj["width"]) is not int:
        raise ValueError("key mode and width must be integers")
    delta = int(obj["delta_hex"], 16) if "delta_hex" in obj else None
    return EntcfKey(mode=obj["mode"], width=obj["width"], seed=bytes.fromhex(obj["seed_hex"]), delta=delta)


def trapdoor_from_key(key: EntcfKey) -> EntcfTrapdoor:
    """This backend's keys carry full inversion capability (see warning)."""
    return key
