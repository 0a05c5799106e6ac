"""GF(2^w) arithmetic and the affine pairwise-independent permutation family.

Elements of GF(2^w) are w-bit unsigned integers; the least significant bit
is the constant term of the field polynomial.  Multiplication is carry-less
(XOR-accumulated shifts) followed by reduction modulo a fixed irreducible
polynomial.  The reduction polynomials, one per supported width, are listed
in ``REDUCTION_POLYNOMIALS`` below (low-weight irreducibles; e.g. width 4
uses x^4 + x + 1 and width 8 uses x^8 + x^4 + x^3 + x + 1).  The test suite
re-verifies irreducibility of every table entry.

The permutation family is x -> a*x + b over GF(2^w) with a != 0.  Over a
uniformly random key, the images of any two distinct points are uniform on
the set of distinct ordered pairs, and the inverse family x -> a^{-1}*(x+b)
has the same property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import bits_to_index, index_to_bits

# width -> exponents of the non-leading, non-constant terms of the reduction
# polynomial x^w + ... + 1 (Seroussi-style low-weight table).
_POLY_EXPONENTS: dict[int, tuple[int, ...]] = {
    2: (1,), 3: (1,), 4: (1,), 5: (2,), 6: (1,), 7: (1,), 8: (4, 3, 1),
    9: (1,), 10: (3,), 11: (2,), 12: (3,), 13: (4, 3, 1), 14: (5,),
    15: (1,), 16: (5, 3, 1), 17: (3,), 18: (3,), 19: (5, 2, 1), 20: (3,),
    21: (2,), 22: (1,), 23: (5,), 24: (4, 3, 1), 25: (3,), 26: (4, 3, 1),
    27: (5, 2, 1), 28: (1,), 29: (2,), 30: (1,), 31: (3,), 32: (7, 3, 2),
    33: (10,), 34: (7,), 35: (2,), 36: (9,), 37: (6, 4, 1), 38: (6, 5, 1),
    39: (4,), 40: (5, 4, 3), 41: (3,), 42: (7,), 43: (6, 4, 3), 44: (5,),
    45: (4, 3, 1), 46: (1,), 47: (5,), 48: (5, 3, 2), 49: (9,), 50: (4, 3, 2),
    51: (6, 3, 1), 52: (3,), 53: (6, 2, 1), 54: (9,), 55: (7,), 56: (7, 4, 2),
    57: (4,), 58: (19,), 59: (7, 4, 2), 60: (1,), 61: (5, 2, 1), 62: (29,),
    63: (1,), 64: (4, 3, 1),
}

MIN_WIDTH = 2
MAX_WIDTH = 64

REDUCTION_POLYNOMIALS: dict[int, int] = {
    w: (1 << w) | sum(1 << e for e in exps) | 1 for w, exps in _POLY_EXPONENTS.items()
}


def _check_width(width: int) -> int:
    if not MIN_WIDTH <= width <= MAX_WIDTH:
        raise ValueError(f"field width {width} outside supported range [{MIN_WIDTH}, {MAX_WIDTH}]")
    return width


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(2^w) encoded as a w-bit unsigned integer."""

    bits: int
    width: int

    def __post_init__(self):
        _check_width(self.width)
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"value {self.bits} does not fit in {self.width} bits")


def _clmul_reduce(x: int, y: int, width: int) -> int:
    poly = REDUCTION_POLYNOMIALS[width]
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> width:
            x ^= poly
    return acc


def gf_mul(x: FieldElement, y: FieldElement) -> FieldElement:
    """Field product; carry-less multiply reduced modulo the fixed polynomial."""
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} vs {y.width}")
    return FieldElement(_clmul_reduce(x.bits, y.bits, x.width), x.width)


def _inv_int(x: int, width: int) -> int:
    """Inverse by the extended Euclidean algorithm over GF(2)[x].

    Keeps x*g1 = u and x*g2 = v modulo the field polynomial while cancelling
    the leading term of the longer of u and v; stops when u = 1.
    """
    if x == 0:
        raise ZeroDivisionError("zero has no multiplicative inverse")
    u, v = x, REDUCTION_POLYNOMIALS[width]
    g1, g2 = 1, 0
    while u != 1:
        shift = u.bit_length() - v.bit_length()
        if shift < 0:
            u, v, g1, g2 = v, u, g2, g1
            shift = -shift
        u ^= v << shift
        g1 ^= g2 << shift
    return g1


def gf_inv(x: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises on zero."""
    return FieldElement(_inv_int(x.bits, x.width), x.width)


@dataclass(frozen=True)
class PermKey:
    """Key (a, b) of the affine permutation x -> a*x + b; a must be nonzero."""

    a: FieldElement
    b: FieldElement

    def __post_init__(self):
        if self.a.width != self.b.width:
            raise ValueError("key components must share a width")
        if self.a.bits == 0:
            raise ValueError("permutation key requires a != 0")

    @property
    def width(self) -> int:
        return self.a.width


def _uniform_bits(width: int, rng: np.random.Generator) -> int:
    value = int.from_bytes(rng.bytes((width + 7) // 8), "big")
    return value & ((1 << width) - 1)


def pip_sample(width: int, rng: np.random.Generator) -> PermKey:
    """Uniform key: a uniform nonzero, b uniform.

    Sampled from raw bytes so the full 64-bit width works (numpy integer
    draws are bounded by int64).
    """
    _check_width(width)
    while True:
        a = _uniform_bits(width, rng)
        if a:
            break
    b = _uniform_bits(width, rng)
    return PermKey(FieldElement(a, width), FieldElement(b, width))


def _check_value(x: int, width: int) -> int:
    if not 0 <= x < (1 << width):
        raise ValueError(f"value {x} does not fit in {width} bits")
    return x


def pip_eval_int(key: PermKey, x: int) -> int:
    return _clmul_reduce(key.a.bits, _check_value(x, key.width), key.width) ^ key.b.bits


def pip_invert_int(key: PermKey, y: int) -> int:
    shifted = _check_value(y, key.width) ^ key.b.bits
    return _clmul_reduce(_inv_int(key.a.bits, key.width), shifted, key.width)


def pip_eval(key: PermKey, x: Sequence[int]) -> tuple[int, ...]:
    """Permutation image of a bit vector (most significant bit first)."""
    x = tuple(x)
    if len(x) != key.width:
        raise ValueError(f"input length {len(x)} does not match key width {key.width}")
    return index_to_bits(pip_eval_int(key, bits_to_index(x)), key.width)
