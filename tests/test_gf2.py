"""Field arithmetic and the affine permutation family."""

import itertools

import numpy as np
import pytest

from parrsp import gf2


# -- independent GF(2)[x] oracle for the polynomial table --------------------


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> deg:
            a ^= mod
    return acc


def _poly_powmod_x(exp_log2: int, mod: int) -> int:
    # x^(2^exp_log2) mod `mod` by repeated squaring
    value = 0b10  # the polynomial x
    for _ in range(exp_log2):
        value = _poly_mulmod(value, value, mod)
    return value


def _poly_gcd(a: int, b: int) -> int:
    while b:
        deg_a, deg_b = a.bit_length(), b.bit_length()
        if deg_a < deg_b:
            a, b = b, a
            continue
        a ^= b << (deg_a - deg_b)
    return a


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_reduction_polynomials_are_irreducible():
    """Rabin's irreducibility test on every table entry (independent oracle)."""
    for w, poly in gf2.REDUCTION_POLYNOMIALS.items():
        assert poly.bit_length() - 1 == w
        # x^(2^w) == x  (mod poly)
        assert _poly_powmod_x(w, poly) == 0b10, f"width {w}: x^(2^w) != x"
        for q in _prime_factors(w):
            probe = _poly_powmod_x(w // q, poly) ^ 0b10
            assert _poly_gcd(poly, probe) == 1, f"width {w}: reducible (factor via q={q})"


class TestFieldArithmetic:
    def test_multiplicative_identity_exhaustive_w4(self):
        one = gf2.FieldElement(1, 4)
        for v in range(16):
            x = gf2.FieldElement(v, 4)
            assert gf2.gf_mul(x, one).bits == v

    def test_known_product_oracle(self):
        # oracle: carry-less multiply x * x^3 = x^4, reduce by x^4 + x + 1 -> x + 1
        assert _poly_mulmod(0x2, 0x8, 0b10011) == 0x3
        out = gf2.gf_mul(gf2.FieldElement(0x2, 4), gf2.FieldElement(0x8, 4))
        assert out.bits == 0x3

    def test_matches_oracle_exhaustive_w4(self):
        poly = gf2.REDUCTION_POLYNOMIALS[4]
        for a in range(16):
            for b in range(16):
                expected = _poly_mulmod(a, b, poly)
                assert gf2.gf_mul(gf2.FieldElement(a, 4), gf2.FieldElement(b, 4)).bits == expected

    def test_field_axioms_exhaustive_w4(self):
        els = [gf2.FieldElement(v, 4) for v in range(16)]
        for a, b in itertools.product(els, repeat=2):
            assert gf2.gf_mul(a, b).bits == gf2.gf_mul(b, a).bits
        for a, b, c in itertools.product(els, repeat=3):
            left = gf2.gf_mul(gf2.gf_mul(a, b), c).bits
            right = gf2.gf_mul(a, gf2.gf_mul(b, c)).bits
            assert left == right
            dist_l = gf2.gf_mul(a, gf2.gf_add(b, c)).bits
            dist_r = gf2.gf_add(gf2.gf_mul(a, b), gf2.gf_mul(a, c)).bits
            assert dist_l == dist_r

    def test_inverses_exhaustive_w4(self):
        for v in range(1, 16):
            x = gf2.FieldElement(v, 4)
            assert gf2.gf_mul(x, gf2.gf_inv(x)).bits == 1

    def test_inverse_of_one(self):
        assert gf2.gf_inv(gf2.FieldElement(1, 8)).bits == 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf2.gf_inv(gf2.FieldElement(0, 4))

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            gf2.gf_mul(gf2.FieldElement(1, 4), gf2.FieldElement(1, 8))

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            gf2.FieldElement(0, 1)
        with pytest.raises(ValueError):
            gf2.FieldElement(0, 65)
        gf2.FieldElement(2**63, 64)

    def test_wide_field_inverse(self):
        x = gf2.FieldElement(0x1234_5678_9ABC_DEF1, 64)
        assert gf2.gf_mul(x, gf2.gf_inv(x)).bits == 1


class TestPermutationFamily:
    def test_identity_key(self):
        key = gf2.PermKey(gf2.FieldElement(1, 4), gf2.FieldElement(0, 4))
        for v in range(16):
            assert gf2.pip_eval_int(key, v) == v

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError, match="a != 0"):
            gf2.PermKey(gf2.FieldElement(0, 4), gf2.FieldElement(0, 4))

    def test_roundtrip_exhaustive_w4(self):
        for key in gf2.all_perm_keys(4):
            for v in range(16):
                assert gf2.pip_invert_int(key, gf2.pip_eval_int(key, v)) == v

    def test_bit_vector_interface(self):
        rng = np.random.default_rng(0)
        key = gf2.pip_sample(5, rng)
        x = (1, 0, 1, 1, 0)
        assert gf2.pip_invert(key, gf2.pip_eval(key, x)) == x
        with pytest.raises(ValueError, match="length"):
            gf2.pip_eval(key, (1, 0))

    def test_sample_distribution_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            key = gf2.pip_sample(6, rng)
            assert key.a.bits != 0

    def test_pairwise_independence_exhaustive_w3(self):
        # for every fixed distinct (x1, x2), the image pair hits each of the
        # 56 distinct ordered pairs exactly once across the 56 keys
        keys = list(gf2.all_perm_keys(3))
        assert len(keys) == 56
        for x1 in range(8):
            for x2 in range(8):
                if x1 == x2:
                    continue
                counts = {}
                for key in keys:
                    pair = (gf2.pip_eval_int(key, x1), gf2.pip_eval_int(key, x2))
                    counts[pair] = counts.get(pair, 0) + 1
                assert len(counts) == 56
                assert set(counts.values()) == {1}

    def test_pairwise_independence_exhaustive_w2(self):
        keys = list(gf2.all_perm_keys(2))
        assert len(keys) == 12
        for x1 in range(4):
            for x2 in range(4):
                if x1 == x2:
                    continue
                counts = {}
                for key in keys:
                    pair = (gf2.pip_eval_int(key, x1), gf2.pip_eval_int(key, x2))
                    counts[pair] = counts.get(pair, 0) + 1
                assert len(counts) == 12 and set(counts.values()) == {1}

    def test_pairwise_independence_exhaustive_w4(self):
        # 240 keys, 240 distinct ordered image pairs: each hit exactly once
        keys = list(gf2.all_perm_keys(4))
        assert len(keys) == 240
        for x1, x2 in [(0, 1), (5, 10), (15, 3), (7, 8)]:
            counts = {}
            for key in keys:
                pair = (gf2.pip_eval_int(key, x1), gf2.pip_eval_int(key, x2))
                counts[pair] = counts.get(pair, 0) + 1
            assert len(counts) == 240
            assert set(counts.values()) == {1}

    def test_inverse_family_pairwise_independence_w3(self):
        keys = list(gf2.all_perm_keys(3))
        for x1, x2 in [(0, 1), (3, 5), (6, 2)]:
            counts = {}
            for key in keys:
                pair = (gf2.pip_invert_int(key, x1), gf2.pip_invert_int(key, x2))
                counts[pair] = counts.get(pair, 0) + 1
            assert len(counts) == 56
            assert set(counts.values()) == {1}

    def test_permutation_property_exhaustive_w3(self):
        for key in gf2.all_perm_keys(3):
            images = {gf2.pip_eval_int(key, v) for v in range(8)}
            assert images == set(range(8))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 64), seed=st.integers(0, 2**31 - 1))
def test_inverse_identity_all_widths(width, seed):
    rng = np.random.default_rng(seed)
    value = int(rng.integers(1, 1 << width)) if width < 63 else 1 + int(rng.integers(0, 2**62))
    x = gf2.FieldElement(value, width)
    assert gf2.gf_mul(x, gf2.gf_inv(x)).bits == 1


@settings(max_examples=60, deadline=None)
@given(width=st.integers(2, 64), seed=st.integers(0, 2**31 - 1))
def test_permutation_roundtrip_all_widths(width, seed):
    rng = np.random.default_rng(seed)
    key = gf2.pip_sample(width, rng)
    value = int(rng.integers(0, 1 << min(width, 62)))
    assert gf2.pip_invert_int(key, gf2.pip_eval_int(key, value)) == value


def test_full_width_sampling_and_roundtrip():
    # width 64 exercises the top of the supported range end to end
    rng = np.random.default_rng(9)
    for _ in range(20):
        key = gf2.pip_sample(64, rng)
        assert key.a.bits != 0
        value = int.from_bytes(rng.bytes(8), "big")
        assert gf2.pip_invert_int(key, gf2.pip_eval_int(key, value)) == value


@settings(max_examples=40, deadline=None)
@given(width=st.integers(2, 32), seed=st.integers(0, 2**31 - 1))
def test_distributivity_random_wide(width, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (gf2.FieldElement(int(rng.integers(0, 1 << width)), width) for _ in range(3))
    left = gf2.gf_mul(a, gf2.gf_add(b, c))
    right = gf2.gf_add(gf2.gf_mul(a, b), gf2.gf_mul(a, c))
    assert left.bits == right.bits


def _square_and_multiply_inverse(x: gf2.FieldElement) -> int:
    """Reference inverse x^(2^w - 2) by square-and-multiply over gf_mul."""
    result = gf2.FieldElement(1, x.width)
    base = x
    exponent = (1 << x.width) - 2
    while exponent:
        if exponent & 1:
            result = gf2.gf_mul(result, base)
        base = gf2.gf_mul(base, base)
        exponent >>= 1
    return result.bits


class TestEuclideanInverse:
    @pytest.mark.parametrize("width", range(2, 13))
    def test_matches_square_and_multiply_exhaustive(self, width):
        for v in range(1, 1 << width):
            x = gf2.FieldElement(v, width)
            assert gf2.gf_inv(x).bits == _square_and_multiply_inverse(x)

    @pytest.mark.parametrize("width", [16, 32, 64])
    def test_matches_square_and_multiply_sampled(self, width):
        rng = np.random.default_rng(width)
        for _ in range(200):
            x = gf2.FieldElement(1 + int.from_bytes(rng.bytes(8), "big") % ((1 << width) - 1), width)
            assert gf2.gf_inv(x).bits == _square_and_multiply_inverse(x)

    def test_int_permutation_rejects_out_of_range(self):
        key = gf2.PermKey(gf2.FieldElement(3, 4), gf2.FieldElement(5, 4))
        for bad in (-1, 16):
            with pytest.raises(ValueError, match="fit"):
                gf2.pip_eval_int(key, bad)
            with pytest.raises(ValueError, match="fit"):
                gf2.pip_invert_int(key, bad)
