"""Exhaustive and elementwise references for `parrsp.gf2`.

The package evaluates the permutation family one key at a time and never
adds field elements; tests enumerate every key of a small width to count
image pairs, and add elements to check that `gf_mul` distributes.
"""

from parrsp import gf2


def gf_add(x: gf2.FieldElement, y: gf2.FieldElement) -> gf2.FieldElement:
    if x.width != y.width:
        raise ValueError(f"width mismatch: {x.width} vs {y.width}")
    return gf2.FieldElement(x.bits ^ y.bits, x.width)


def all_perm_keys(width: int):
    """Every key of the family at this width (for exhaustive counts)."""
    for a in range(1, 1 << width):
        for b in range(1 << width):
            yield gf2.PermKey(gf2.FieldElement(a, width), gf2.FieldElement(b, width))
