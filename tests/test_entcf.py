"""Function-pair backend: modes, claws, decodings, serialization."""

import hashlib

import numpy as np
import pytest

from parrsp import entcf


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="module")
def injective(rng):
    return entcf.gen(entcf.INJECTIVE, 4, rng)


@pytest.fixture(scope="module")
def clawfree(rng):
    return entcf.gen(entcf.CLAW_FREE, 4, rng)


class TestGen:
    def test_injective_has_no_delta(self, injective):
        assert injective.key.delta is None
        assert injective.trapdoor.delta is None

    def test_clawfree_delta_nonzero_sampler_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            kp = entcf.gen(entcf.CLAW_FREE, 3, rng)
            assert 0 < kp.key.delta < 8

    def test_fresh_seeds(self):
        rng = np.random.default_rng(9)
        a = entcf.gen(entcf.INJECTIVE, 4, rng)
        b = entcf.gen(entcf.INJECTIVE, 4, rng)
        assert a.key.seed != b.key.seed

    def test_width_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            entcf.gen(entcf.INJECTIVE, 1, rng)
        with pytest.raises(ValueError):
            entcf.gen(entcf.INJECTIVE, 17, rng)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            entcf.gen(2, 4, np.random.default_rng(0))


class TestEval:
    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_injective_is_bijection(self, width):
        rng = np.random.default_rng(width)
        kp = entcf.gen(entcf.INJECTIVE, width, rng)
        images = {entcf.eval_point(kp.key, b, x) for b in (0, 1) for x in range(2**width)}
        assert len(images) == 2 ** (width + 1)

    def test_injective_branches_have_disjoint_ranges(self, injective):
        r0 = {entcf.eval_point(injective.key, 0, x) for x in range(16)}
        r1 = {entcf.eval_point(injective.key, 1, x) for x in range(16)}
        assert not (r0 & r1)

    def test_claw_structure_exhaustive(self, clawfree):
        delta = clawfree.key.delta
        for x in range(16):
            assert entcf.eval_point(clawfree.key, 0, x) == entcf.eval_point(
                clawfree.key, 1, x ^ delta
            )

    def test_clawfree_images_have_exactly_one_claw(self, clawfree):
        table = entcf.preimage_table(clawfree.key)
        assert len(table) == 16  # half of the 32 image points are reachable
        for y, preimages in table.items():
            assert len(preimages) == 2
            (b0, x0), (b1, x1) = sorted(preimages)
            assert (b0, b1) == (0, 1)
            assert x0 ^ x1 == clawfree.key.delta

    def test_argument_validation(self, injective):
        with pytest.raises(ValueError):
            entcf.eval_point(injective.key, 2, 0)
        with pytest.raises(ValueError):
            entcf.eval_point(injective.key, 0, 16)


class TestChk:
    def test_accepts_true_preimages(self, injective, clawfree):
        for kp in (injective, clawfree):
            for b in (0, 1):
                for x in range(16):
                    assert entcf.chk(kp.key, entcf.eval_point(kp.key, b, x), b, x)

    def test_rejects_wrong_branch_injective(self, injective):
        for b in (0, 1):
            for x in range(16):
                y = entcf.eval_point(injective.key, b, x)
                assert not entcf.chk(injective.key, y, 1 - b, x)

    def test_claw_membership(self, clawfree):
        delta = clawfree.key.delta
        for x0 in range(16):
            y = entcf.eval_point(clawfree.key, 0, x0)
            assert entcf.chk(clawfree.key, y, 1, x0 ^ delta)

    def test_out_of_range_image(self, injective):
        assert not entcf.chk(injective.key, 200, 0, 0)


class TestDecoding:
    def test_decode_b_roundtrip_exhaustive(self, injective):
        for b in (0, 1):
            for x in range(16):
                y = entcf.eval_point(injective.key, b, x)
                assert entcf.decode_b(injective.trapdoor, y) == b

    def test_decode_b_mode_error(self, clawfree):
        with pytest.raises(entcf.DecodeError, match="injective"):
            entcf.decode_b(clawfree.trapdoor, 0)

    def test_decode_x_roundtrip(self, injective, clawfree):
        for kp in (injective, clawfree):
            for b in (0, 1):
                for x in range(16):
                    y = entcf.eval_point(kp.key, b, x)
                    assert entcf.decode_x(kp.trapdoor, y, b) == x

    @pytest.mark.parametrize("mode", [entcf.INJECTIVE, entcf.CLAW_FREE])
    def test_decode_inverts_eval_exhaustive_width6(self, mode):
        kp = entcf.gen(mode, 6, np.random.default_rng(6 + mode))
        for b in (0, 1):
            for x in range(64):
                y = entcf.eval_point(kp.key, b, x)
                assert entcf.decode_x(kp.trapdoor, y, b) == x
                if mode == entcf.INJECTIVE:
                    assert entcf.decode_b(kp.trapdoor, y) == b

    def test_claw_offset_identity(self, clawfree):
        for x in range(16):
            y = entcf.eval_point(clawfree.key, 0, x)
            x0 = entcf.decode_x(clawfree.trapdoor, y, 0)
            x1 = entcf.decode_x(clawfree.trapdoor, y, 1)
            assert x0 ^ x1 == clawfree.key.delta

    def test_half_the_images_are_bottom(self, clawfree):
        bottoms = [y for y in range(32) if entcf.decode_x(clawfree.trapdoor, y, 0) is None]
        assert len(bottoms) == 16

    def test_decode_agrees_with_chk(self, clawfree):
        # whenever decode returns a preimage, the public predicate accepts it
        for y in range(32):
            for b in (0, 1):
                x = entcf.decode_x(clawfree.trapdoor, y, b)
                if x is not None:
                    assert entcf.chk(clawfree.key, y, b, x)

    def test_decode_u_zero_vector(self, clawfree):
        assert entcf.decode_u(clawfree.trapdoor, 5, 0) == 0

    def test_decode_u_delta_popcount(self, clawfree):
        delta = clawfree.key.delta
        expected = bin(delta & delta).count("1") % 2
        assert entcf.decode_u(clawfree.trapdoor, 3, delta) == expected

    def test_decode_u_matches_claw_parity_everywhere(self, clawfree):
        # oracle: d . (x0 XOR x1) computed from the actual claw preimages
        for y in range(32):
            x0 = entcf.decode_x(clawfree.trapdoor, y, 0)
            if x0 is None:
                continue
            x1 = entcf.decode_x(clawfree.trapdoor, y, 1)
            for d in range(16):
                expected = bin(d & (x0 ^ x1)).count("1") % 2
                assert entcf.decode_u(clawfree.trapdoor, y, d) == expected

    def test_decode_u_mode_error(self, injective):
        with pytest.raises(entcf.DecodeError, match="claw-free"):
            entcf.decode_u(injective.trapdoor, 0, 0)


class TestSerialization:
    def test_wire_roundtrip(self, injective, clawfree):
        for kp in (injective, clawfree):
            wire = entcf.key_to_wire(kp.key)
            assert entcf.key_from_wire(wire) == kp.key

    def test_wire_fields(self, injective, clawfree):
        assert set(entcf.key_to_wire(injective.key)) == {"mode", "width", "seed_hex"}
        assert set(entcf.key_to_wire(clawfree.key)) == {"mode", "width", "seed_hex", "delta_hex"}

    def test_trapdoor_from_key(self, clawfree):
        td = entcf.trapdoor_from_key(clawfree.key)
        assert td == clawfree.trapdoor


def test_feistel_determinism():
    rng = np.random.default_rng(1)
    kp = entcf.gen(entcf.CLAW_FREE, 6, rng)
    again = entcf.EntcfKey(mode=1, width=6, seed=kp.key.seed, delta=kp.key.delta)
    for x in range(64):
        assert entcf.eval_point(kp.key, 1, x) == entcf.eval_point(again, 1, x)


def _round_tables_per_entry(seed, total_bits):
    """The round tables decoded one int.from_bytes slice per entry."""
    left_bits = (total_bits + 1) // 2
    right_bits = total_bits - left_bits
    tables = []
    for rnd in range(entcf.FEISTEL_ROUNDS):
        src_bits = right_bits if rnd % 2 == 0 else left_bits
        dst_bits = left_bits if rnd % 2 == 0 else right_bits
        n_entries = 1 << src_bits
        entry_bytes = (dst_bits + 7) // 8
        stream = b""
        counter = 0
        while len(stream) < n_entries * entry_bytes:
            stream += hashlib.blake2b(
                rnd.to_bytes(2, "big") + counter.to_bytes(4, "big"), key=seed, digest_size=64
            ).digest()
            counter += 1
        mask = (1 << dst_bits) - 1
        tables.append(tuple(
            int.from_bytes(stream[i * entry_bytes : (i + 1) * entry_bytes], "big") & mask
            for i in range(n_entries)
        ))
    return tuple(tables), left_bits, right_bits


def _feistel_reference(round_tables, value, inverse):
    """The Feistel network evaluated from whole per-entry round tables."""
    tables, left_bits, right_bits = round_tables
    left = value >> right_bits
    right = value & ((1 << right_bits) - 1)
    order = range(entcf.FEISTEL_ROUNDS - 1, -1, -1) if inverse else range(entcf.FEISTEL_ROUNDS)
    for rnd in order:
        if rnd % 2 == 0:
            left ^= tables[rnd][right]
        else:
            right ^= tables[rnd][left]
    return (left << right_bits) | right


@pytest.mark.parametrize("width", [2, 3, 4, 15, 16])
def test_feistel_matches_per_entry_tables(width):
    """On-demand digest reads give the table-driven permutation, both ways.

    Every point at widths 2-4; 500 random points at widths 15 and 16.
    """
    rng = np.random.default_rng(width)
    total_bits = width + 1
    for _ in range(3 if width <= 4 else 1):
        seed = rng.bytes(16)
        round_tables = _round_tables_per_entry(seed, total_bits)
        if width <= 4:
            points = range(1 << total_bits)
        else:
            points = [int(v) for v in rng.integers(0, 1 << total_bits, size=500)]
        for value in points:
            for inverse in (False, True):
                assert entcf._feistel(seed, total_bits, value, inverse) == _feistel_reference(
                    round_tables, value, inverse
                )
