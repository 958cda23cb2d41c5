"""Property tests for the sandwich primitive on Hom-valued (non-square)
blocks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from higgsflow import MatrixFormField, TorusBase
from higgsflow.linalg import mm

N = 8
PROPERTY = settings(max_examples=20, deadline=None)


@st.composite
def hom_blocks(draw):
    n = draw(st.sampled_from([1, 2]))
    rows, cols = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2,
                               unique=True))
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    return n, rows, cols, p, q, draw(st.integers(0, 2**32 - 1))


def random_grid(rng, base, shape):
    full = base.shape + shape
    return rng.standard_normal(full) + 1j * rng.standard_normal(full)


def random_field(rng, base, p, q, rows, cols):
    shape = MatrixFormField.zeros(base, p, q, rows, cols).comps.shape
    return MatrixFormField(base, p, q, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))


@PROPERTY
@given(hom_blocks(), st.booleans(), st.booleans())
def test_sandwich_matches_per_component_products_exactly(case, has_left, has_right):
    n, rows, cols, p, q, seed = case
    rng = np.random.default_rng(seed)
    base = TorusBase(n, N)
    f = random_field(rng, base, p, q, rows, cols)
    left = random_grid(rng, base, (3, rows)) if has_left else None
    right = random_grid(rng, base, (cols, 2)) if has_right else None
    out = f.sandwich(left, right)
    assert (out.p, out.q) == (p, q)
    for ip in range(f.comps.shape[0]):
        for iq in range(f.comps.shape[1]):
            expected = f.comps[ip, iq]
            if left is not None:
                expected = mm(left, expected)
            if right is not None:
                expected = mm(expected, right)
            assert np.array_equal(out.comps[ip, iq], expected)
