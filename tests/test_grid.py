import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from higgsflow import (HermitianMetric, MatrixFormField, TorusBase,
                       d_flat, dbar_flat, integrate, integrate_top_form,
                       pointwise_norm2, sup_norm, tr_field, wedge)
from higgsflow.grid import (_combs, _contract_slots, _dz_component, _hom_d,
                            _periodic_diff, _wedge_table)
from higgsflow.linalg import _store_axes, _trailing_array

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], np.complex128)
E21 = E12.T.copy()


def scalar_field(base, values):
    f = MatrixFormField.zeros(base, 0, 0, 1)
    f.comps[0, 0, ..., 0, 0] = values
    return f


def test_base_invariants():
    base = TorusBase(1, 16)
    assert base.volume == pytest.approx(1.0)
    assert base.spacing == pytest.approx(1.0 / 16)
    with pytest.raises(ValueError):
        TorusBase(3, 16)
    with pytest.raises(ValueError):
        TorusBase(1, 15)
    with pytest.raises(ValueError):
        TorusBase(1, 4)


def test_dbar_of_constant_is_zero():
    base = TorusBase(1, 16)
    f = MatrixFormField.constant(base, np.eye(2))
    assert sup_norm(dbar_flat(f)) == 0.0
    assert sup_norm(d_flat(f)) == 0.0


def test_dbar_trig_mode_second_order():
    # d/dzbar exp(2 pi i x) = i pi exp(2 pi i x), converging at order 2
    errs = {}
    for N in (16, 32):
        base = TorusBase(1, N)
        x = base.axis_coordinate(0) * np.ones(base.shape)
        f = scalar_field(base, np.exp(2j * np.pi * x))
        df = dbar_flat(f)
        expected = 1j * np.pi * np.exp(2j * np.pi * x)
        errs[N] = np.abs(df.comps[0, 0, ..., 0, 0] - expected).max()
    assert errs[32] < errs[16] / 3.5
    assert errs[32] < 0.03


def test_dbar_linearity_exact():
    base = TorusBase(1, 16)
    rng = np.random.default_rng(0)
    f = MatrixFormField(base, 0, 0, rng.standard_normal((1, 1) + base.shape + (2, 2))
                        + 1j * rng.standard_normal((1, 1) + base.shape + (2, 2)))
    g = MatrixFormField(base, 0, 0, rng.standard_normal((1, 1) + base.shape + (2, 2))
                        + 1j * rng.standard_normal((1, 1) + base.shape + (2, 2)))
    lhs = dbar_flat(f + g)
    rhs = dbar_flat(f) + dbar_flat(g)
    # linear to roundoff: no truncation term, only float reassociation
    assert np.abs(lhs.comps - rhs.comps).max() < 1e-13


def test_dbar_degree_overflow_rejected():
    base = TorusBase(1, 16)
    f = MatrixFormField.zeros(base, 0, 1, 2)
    with pytest.raises(ValueError):
        dbar_flat(f)
    with pytest.raises(ValueError):
        d_flat(MatrixFormField.zeros(base, 1, 0, 2))


def test_dbar_squared_vanishes():
    # centered differences commute; the residual is pure float reassociation
    base = TorusBase(2, 8)
    rng = np.random.default_rng(1)
    f = MatrixFormField(base, 0, 0,
                        rng.standard_normal((1, 1) + base.shape + (2, 2))
                        + 1j * rng.standard_normal((1, 1) + base.shape + (2, 2)))
    assert sup_norm(dbar_flat(dbar_flat(f))) < 1e-12
    assert sup_norm(d_flat(d_flat(f))) < 1e-12


def test_d_and_dbar_square_to_zero_and_anticommute_n2():
    base = TorusBase(2, 8)
    rng = np.random.default_rng(4)
    for p, q in itertools.product(range(3), repeat=2):
        shape = MatrixFormField.zeros(base, p, q, 2).comps.shape
        f = MatrixFormField(base, p, q, rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        if p == 0:
            assert sup_norm(d_flat(d_flat(f))) < 1e-12, (p, q)
        if q == 0:
            assert sup_norm(dbar_flat(dbar_flat(f))) < 1e-12, (p, q)
        if p < 2 and q < 2:
            anti = d_flat(dbar_flat(f)) + dbar_flat(d_flat(f))
            assert sup_norm(anti) < 1e-12, (p, q)


def _sort_parity(seq):
    """Sign of the permutation sorting seq, from its cycle decomposition."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    sign, seen = 1, set()
    for start in range(len(seq)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = order[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wedge_table_signs_are_permutation_parities(n):
    def combs(deg):
        return list(itertools.combinations(range(n), deg))

    for deg_a in range(n + 1):
        for deg_b in range(n + 1 - deg_a):
            expected = [(ia, ib, combs(deg_a + deg_b).index(tuple(sorted(A + B))),
                         _sort_parity(A + B))
                        for ia, A in enumerate(combs(deg_a))
                        for ib, B in enumerate(combs(deg_b)) if not set(A) & set(B)]
            assert _wedge_table(n, deg_a, deg_b) == expected, (deg_a, deg_b)


def test_wedge_nilpotent_one_form_squares_to_zero():
    base = TorusBase(1, 16)
    phi = MatrixFormField.constant(base, E12, p=1, q=0, index=((0,), ()))
    with pytest.raises(ValueError):
        wedge(phi, phi)  # (2,0) has no slot on a one-torus
    base2 = TorusBase(2, 8)
    phi2 = MatrixFormField.constant(base2, E12, p=1, q=0, index=((0,), ()))
    assert sup_norm(wedge(phi2, phi2)) == 0.0


def test_wedge_sign_convention():
    base = TorusBase(1, 16)
    M = np.array([[1.0, 2.0], [0.0, 1.0]], np.complex128)
    K = np.array([[0.5, 0.0], [1.0, 1.0]], np.complex128)
    A = MatrixFormField.constant(base, M, p=1, q=0, index=((0,), ()))
    B = MatrixFormField.constant(base, K, p=0, q=1, index=((), (0,)))
    ab = wedge(A, B)
    ba = wedge(B, A)
    assert np.allclose(ab.comps[0, 0], M @ K)
    assert np.allclose(ba.comps[0, 0], -(K @ M))


def test_wedge_with_zero_is_zero():
    base = TorusBase(1, 16)
    A = MatrixFormField.constant(base, E12, p=1, q=0, index=((0,), ()))
    Z = MatrixFormField.zeros(base, 0, 1, 2)
    assert sup_norm(wedge(A, Z)) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_wedge_equals_the_zero_filled_sum_to_the_bit(n):
    # each slot starts from its first term, 0.0 +- term, and adds or
    # subtracts the later ones in place: the bytes of the zero-filled sum
    # 0 + (+-1) term + ..., signed zeros included
    from higgsflow.linalg import mm
    rng = np.random.default_rng(7 + n)
    base = TorusBase(n, 8)

    def operand(p, q, rows, cols):
        f = _random_field(rng, base, p, q, rows, cols)
        c = f.comps
        # exact zeros of both signs in every component, and one component
        # that is all -0.0
        c.real[rng.random(c.shape) < 0.3] = 0.0
        c.imag[rng.random(c.shape) < 0.3] = -0.0
        c[(0,) * (c.ndim - 2)] = complex(-0.0, -0.0)
        return f

    for pa, qa, pb, qb in itertools.product(range(n + 1), repeat=4):
        if pa + pb > n or qa + qb > n:
            continue
        a, b = operand(pa, qa, 2, 3), operand(pb, qb, 3, 2)
        want = MatrixFormField.zeros(base, pa + pb, qa + qb, 2, 2)
        cross = -1 if (qa * pb) % 2 else 1
        for ip1, ip2, ip, sp in _wedge_table(n, pa, pb):
            for iq1, iq2, iq, sq in _wedge_table(n, qa, qb):
                want.comps[ip, iq] += (cross * sp * sq) * \
                    mm(a.comps[ip1, iq1], b.comps[ip2, iq2])
        got = wedge(a, b)
        assert np.ascontiguousarray(got.comps).tobytes() == \
            np.ascontiguousarray(want.comps).tobytes(), (pa, qa, pb, qb)


def lambda_of(f):
    """Lambda f of a (1,1) form f, a (0,0) field, from its diagonal slots
    (_contract_slots)."""
    diagonal = [f.comps[i, i] for i in range(f.base.n)]
    return MatrixFormField(f.base, 0, 0, _contract_slots(diagonal)[None, None])


def test_contract_lambda_normalization():
    # Lambda(omega M) = n M under the fixed convention
    for n, N in ((1, 16), (2, 8)):
        base = TorusBase(n, N)
        M = np.array([[2.0, 1.0], [1.0, 3.0]], np.complex128)
        omega_m = MatrixFormField.zeros(base, 1, 1, 2)
        for i in range(n):
            omega_m.comps[i, i] = 0.5j * M
        lam = lambda_of(omega_m)
        assert np.allclose(lam.comps[0, 0], n * M)


def test_contract_lambda_single_component():
    base = TorusBase(1, 16)
    F = MatrixFormField.constant(base, E12, p=1, q=1, index=((0,), (0,)))
    lam = lambda_of(F)
    assert np.allclose(lam.comps[0, 0], -2j * E12)


def test_contract_lambda_off_diagonal_vanishes():
    base = TorusBase(2, 8)
    F = MatrixFormField.constant(base, E12, p=1, q=1, index=((0,), (1,)))
    assert sup_norm(lambda_of(F)) == 0.0


def test_norm_conventions():
    base = TorusBase(1, 16)
    ident = MatrixFormField.constant(base, np.eye(2))
    assert pointwise_norm2(ident).max() == pytest.approx(2.0)
    F = MatrixFormField.constant(base, np.diag([1.0, -1.0]).astype(complex),
                                 p=1, q=1, index=((0,), (0,)))
    assert pointwise_norm2(F).max() == pytest.approx(8.0)


def test_n1_contraction_preserves_norm():
    # |F|^2 = |Lambda F|^2 for (1,1)-forms on a one-torus
    base = TorusBase(1, 16)
    rng = np.random.default_rng(2)
    F = MatrixFormField(base, 1, 1,
                        rng.standard_normal((1, 1) + base.shape + (2, 2))
                        + 1j * rng.standard_normal((1, 1) + base.shape + (2, 2)))
    H = np.eye(2) + 0.2 * np.diag([1.0, -1.0])
    Hf = HermitianMetric(base, np.broadcast_to(H.astype(complex),
                                               base.shape + (2, 2)).copy())
    assert np.allclose(pointwise_norm2(F, Hf),
                       pointwise_norm2(lambda_of(F), Hf))


def test_integrate_conventions():
    base = TorusBase(1, 16)
    assert integrate(np.ones(base.shape), base) == pytest.approx(1.0)
    assert integrate(3.5, base) == pytest.approx(3.5)
    x = base.axis_coordinate(0) * np.ones(base.shape)
    assert abs(integrate(np.cos(2 * np.pi * x), base)) < 1e-14


def test_integrate_top_form_n1():
    base = TorusBase(1, 16)
    f = MatrixFormField.constant(base, np.array([[1.0]], complex),
                                 p=1, q=1, index=((0,), (0,)))
    assert integrate_top_form(f) == pytest.approx(-2j)


def test_leibniz_second_order():
    errs = {}
    for N in (16, 32):
        base = TorusBase(1, N)
        x = base.axis_coordinate(0) * np.ones(base.shape)
        y = base.axis_coordinate(1) * np.ones(base.shape)
        A = MatrixFormField.zeros(base, 0, 0, 2)
        A.comps[0, 0] = np.cos(2 * np.pi * x)[..., None, None] * np.eye(2) \
            + np.sin(2 * np.pi * y)[..., None, None] * E12
        B = MatrixFormField.zeros(base, 1, 0, 2)
        B.comps[0, 0] = np.sin(2 * np.pi * (x + y))[..., None, None] * (E12 + E21)
        lhs = dbar_flat(wedge(A, B))
        rhs = wedge(dbar_flat(A), B) + wedge(A, dbar_flat(B))
        errs[N] = sup_norm(lhs - rhs)
    assert errs[32] < errs[16] / 3.0


def test_leibniz_sign_for_odd_degree():
    # deg A = 1: dbar(A ^ B) = dbar(A) ^ B - A ^ dbar(B), at second order
    def defect(N):
        base = TorusBase(2, N)
        x = base.axis_coordinate(0) * np.ones(base.shape)
        A = MatrixFormField.zeros(base, 1, 0, 2)
        A.comps[0, 0] = np.cos(2 * np.pi * x)[..., None, None] * E12
        B = MatrixFormField.zeros(base, 0, 0, 2)
        B.comps[0, 0] = np.sin(2 * np.pi * x)[..., None, None] * (E12 + E21) \
            + np.broadcast_to(np.eye(2), base.shape + (2, 2))
        lhs = dbar_flat(wedge(A, B))
        rhs = wedge(dbar_flat(A), B) - wedge(A, dbar_flat(B))
        return sup_norm(lhs - rhs)

    coarse, fine = defect(16), defect(32)
    assert fine < coarse / 3.0
    assert fine < 0.15


def test_determinism_bit_identical():
    base = TorusBase(1, 16)
    rng = np.random.default_rng(5)
    comps = rng.standard_normal((1, 1) + base.shape + (2, 2)) \
        + 1j * rng.standard_normal((1, 1) + base.shape + (2, 2))
    f1 = dbar_flat(MatrixFormField(base, 0, 0, comps.copy()))
    f2 = dbar_flat(MatrixFormField(base, 0, 0, comps.copy()))
    assert np.array_equal(f1.comps, f2.comps)
    assert integrate(pointwise_norm2(f1), base) == integrate(pointwise_norm2(f2), base)


def test_tr_field():
    base = TorusBase(1, 16)
    f = MatrixFormField.constant(base, np.diag([2.0, 3.0]).astype(complex))
    assert np.allclose(tr_field(f).comps[0, 0, ..., 0, 0], 5.0)


@pytest.mark.parametrize("n, p, q, rows, cols", [(1, 0, 1, 3, 3), (1, 1, 0, 2, 1),
                                                  (2, 1, 1, 2, 2), (2, 2, 0, 1, 3)])
def test_dz_component_matches_the_roll_formula_exactly(n, p, q, rows, cols):
    # at N = 12, 2h = 1/6 is not a power of two, so a scaling by a wrong
    # reciprocal would show in the last bit; a field's components, a stack
    # of them, one component and a C-ordered copy all give the same bits
    rng = np.random.default_rng(10 * n + p + q)
    for N in (8, 12):
        base = TorusBase(n, N)
        shape = MatrixFormField.zeros(base, p, q, rows, cols).comps.shape
        comps = MatrixFormField(base, p, q, rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape)).comps
        stacked = _trailing_array((2,) + shape)
        stacked[...] = np.stack([comps, 2.0 * comps])
        for c in (comps, stacked, comps[-1], np.ascontiguousarray(comps)):
            for j in range(n):
                x = c.ndim - 2 - 2 * n + 2 * j
                dx, dy = ((np.roll(c, -1, axis=ax) - np.roll(c, 1, axis=ax))
                          / (2.0 * base.spacing) for ax in (x, x + 1))
                assert np.array_equal(_dz_component(c, base, j, bar=True),
                                      0.5 * (dx + 1j * dy))
                assert np.array_equal(_dz_component(c, base, j, bar=False),
                                      0.5 * (dx - 1j * dy))


@pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
def test_raise_degree_differentiates_only_the_components_it_reads(p, q,
                                                                   monkeypatch):
    # one derivative per row of its wedge table, each of the one component
    # K the row reads
    import higgsflow.grid
    base = TorusBase(2, 8)
    f = MatrixFormField.zeros(base, p, q, 2)
    for op, axis, deg in ((dbar_flat, 1, q), (d_flat, 0, p)):
        if deg == 2:
            continue
        shapes = []
        real = higgsflow.grid._dz_component
        monkeypatch.setattr(higgsflow.grid, "_dz_component",
                            lambda c, b, j, bar: shapes.append(c.shape)
                            or real(c, b, j, bar))
        op(f)
        monkeypatch.undo()
        component = f.comps.swapaxes(0, axis)[0].shape
        assert shapes == [component] * len(_wedge_table(2, 1, deg))


def _random_comps(rng, base, p, q, rows, cols):
    shape = (len(_combs(base.n, p)), len(_combs(base.n, q))) + base.shape \
        + (rows, cols)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return MatrixFormField(base, p, q, values).comps


@pytest.mark.parametrize("n, N", [(1, 8), (1, 32), (2, 8)])
def test_periodic_diff_matches_the_roll_formula_bit_for_bit(n, N):
    # the interior in one pass over each flattened grid slab, then the two
    # wrapped end planes, on every grid axis of: whole fields, component
    # views, Hom blocks, a grid-leading copy and grid axes out of order
    # (a layout whose slab does not flatten as a view)
    rng = np.random.default_rng(10 * n + N)
    base = TorusBase(n, N)
    scale = 0.5 / (2.0 * base.spacing)
    square = _random_comps(rng, base, 1, 1, 2, 2)
    hom = _random_comps(rng, base, 0, n, 3, 2)
    for c in (square, square[0, -1], hom, hom[0, -1],
              np.ascontiguousarray(square[-1]), square.swapaxes(-3, -4)):
        for ax in range(c.ndim - 2 - 2 * n, c.ndim - 2):
            got = _periodic_diff(c, ax, scale, 2 * n)
            want = (np.roll(c, -1, axis=ax) - np.roll(c, 1, axis=ax)) * scale
            assert np.ascontiguousarray(got).tobytes() == \
                np.ascontiguousarray(want).tobytes()
            assert got.transpose(_store_axes(got.ndim)).flags.c_contiguous


def _zero_filled_raise(f, bar):
    """dbar_flat (bar True) or d_flat of f as the sum into a zeroed field of
    (shift * sign) * _dz_component over the rows of _wedge_table."""
    deg = f.q if bar else f.p
    p, q = (f.p, f.q + 1) if bar else (f.p + 1, f.q)
    out = MatrixFormField.zeros(f.base, p, q, f.rows, f.cols)
    shift = -1 if bar and f.p % 2 else 1
    axis = 1 if bar else 0
    src, dst = f.comps.swapaxes(0, axis), out.comps.swapaxes(0, axis)
    for j, k, k_out, sign in _wedge_table(f.base.n, 1, deg):
        dst[k_out] += (shift * sign) * _dz_component(src[k], f.base, j, bar)
    return out.comps


@pytest.mark.parametrize("p, q", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_degree_raising_equals_the_zero_filled_sum_with_its_signed_zeros(p, q):
    # entry (0, 1) is constant, so its derivatives are exact zeros; entry
    # (1, 0) holds +-0.0 at random, so its differences hold -0.0 as well;
    # each output must carry the zero-filled sum's bytes and zero signs
    rng = np.random.default_rng(7 + 2 * p + q)
    base = TorusBase(2, 8)
    f = MatrixFormField(base, p, q, _random_comps(rng, base, p, q, 2, 2))
    f.comps[..., 0, 1] = 0.25 - 1.5j
    signs = rng.choice([0.0, -0.0], size=(2,) + f.comps.shape[:-2])
    f.comps[..., 1, 0].real, f.comps[..., 1, 0].imag = signs
    d = _dz_component(f.comps[0, 0], base, 0, True)[..., 1, 0]
    assert np.signbit(d.real).any() and not d.any()
    for op, bar, deg in ((dbar_flat, True, q), (d_flat, False, p)):
        if deg == base.n:
            continue
        got, want = op(f).comps, _zero_filled_raise(f, bar)
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes()
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_pointwise_inner_inverts_the_column_metric_once(monkeypatch):
    # pointwise_norm2 is the pointwise inner product <a, a>_H
    import higgsflow.geometry
    from higgsflow.linalg import dagger, inv
    rng = np.random.default_rng(3)
    base = TorusBase(2, 8)
    shape = (2, 2) + base.shape + (2, 2)
    a = MatrixFormField(base, 1, 1, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    x = rng.standard_normal(base.shape + (2, 2)) + 1j * rng.standard_normal(base.shape + (2, 2))
    H = np.eye(2) + x @ dagger(x)

    # the norms read the metric's cached inverse: one inverse for every
    # component and every later norm in that metric
    calls = []
    monkeypatch.setattr(higgsflow.geometry, "inv",
                        lambda m: calls.append(m) or inv(m))
    metric = HermitianMetric(base, H)
    got = pointwise_norm2(a, metric)
    assert np.array_equal(pointwise_norm2(a, metric), got)
    assert len(calls) == 1
    # per-component reference: tr(a H^{-1} a^dag H), summed in component order
    acc = np.zeros(base.shape, np.complex128)
    for ip, iq in itertools.product(range(2), range(2)):
        acc += np.einsum("...ij,...jk,...kl,...li->...", a.comps[ip, iq], inv(H),
                         dagger(a.comps[ip, iq]), H)
    expected = 4.0 * acc
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@st.composite
def _blocks_in_a_metric(draw):
    n = draw(st.sampled_from([1, 2]))
    rank = draw(st.integers(1, 4))
    p, q = draw(st.integers(0, n)), draw(st.integers(0, n))
    return n, rank, p, q, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(_blocks_in_a_metric())
def test_a_norm_in_a_metric_equals_the_explicit_inverse_result(case):
    # the norm reads the metric's cached inverse: the same bits as
    # inverting the metric on the spot. Per component c, tr(x y) with
    # x = c H^{-1} and y = c^dag H, summed over x_ik y_ki in (i, k) order
    from higgsflow.linalg import dagger, inv, mm
    n, rank, p, q, seed = case
    rng = np.random.default_rng(seed)
    base = TorusBase(n, 8)
    f = _random_field(rng, base, p, q, rank, rank)
    x = rng.standard_normal(base.shape + (rank, rank)) \
        + 1j * rng.standard_normal(base.shape + (rank, rank))
    metric = HermitianMetric(base, np.eye(rank) + x @ dagger(x))
    H = metric.mat
    acc = np.zeros(base.shape, np.complex128)
    for ip, iq in itertools.product(*map(range, f.comps.shape[:2])):
        c = f.comps[ip, iq]
        x, y = mm(c, inv(H)), mm(dagger(c), H)
        tr = x[..., 0, 0] * y[..., 0, 0]
        for i, k in itertools.product(range(rank), repeat=2):
            if i or k:
                tr += x[..., i, k] * y[..., k, i]
        acc += tr
    assert np.array_equal(pointwise_norm2(f, metric),
                          np.real(2.0 ** (p + q) * acc))
    # under the unit metric the norm takes no product by I: that of no metric
    unit = HermitianMetric.identity(base, rank)
    assert pointwise_norm2(f, unit).tobytes() == pointwise_norm2(f).tobytes()


def _with_signed_zeros(f):
    """f with its first block row multiplied by 0.0: zeros of both signs."""
    f.comps[..., 0, :] *= 0.0
    return f


@pytest.mark.parametrize("bar", [False, True])
def test_the_covariant_derivative_is_the_form_calculus_with_a_graded_sign(bar):
    # on Hom(right, left)-valued forms, flat(x) + left ^ x + x ^ right for x
    # of odd degree and flat(x) + left ^ x - x ^ right for even, to the bit;
    # with no right, flat(x) + left ^ x: dbar_E of a 3x2 frame, and for
    # x = left the curvature dbar(a) + a ^ a (or d(b) + b ^ b)
    rng = np.random.default_rng(7 + bar)
    base = TorusBase(2, 8)
    flat = dbar_flat if bar else d_flat
    p, q = (0, 1) if bar else (1, 0)
    left, right = (_with_signed_zeros(_random_field(rng, base, p, q, r, r))
                   for r in (3, 2))
    for xp, xq in ((0, 0), (1, 0), (0, 1), (1, 1)):
        x = _with_signed_zeros(_random_field(rng, base, xp, xq, 3, 2))
        expected = flat(x) + wedge(left, x)
        if xp + xq == 1:
            expected = expected + wedge(x, right)
        else:
            expected = expected - wedge(x, right)
        got = _hom_d(flat, x, left, right)
        assert (got.p, got.q, got.rows, got.cols) == \
            (expected.p, expected.q, 3, 2)
        assert got.comps.tobytes() == expected.comps.tobytes()
    frame = _with_signed_zeros(_random_field(rng, base, 0, 0, 3, 2))
    for x in (frame, left):
        expected = flat(x) + wedge(left, x)
        got = _hom_d(flat, x, left)
        assert (got.p, got.q, got.rows, got.cols) == \
            (expected.p, expected.q, 3, x.cols)
        assert got.comps.tobytes() == expected.comps.tobytes()


def test_the_covariant_derivative_sums_into_the_flat_derivative():
    # the wedge terms are added into flat(x)'s own output: no fresh field
    rng = np.random.default_rng(11)
    base = TorusBase(2, 8)
    a, phi = _random_field(rng, base, 0, 1, 2, 2), _random_field(rng, base, 1, 0, 2, 2)
    made = []

    def flat(x):
        made.append(dbar_flat(x))
        return made[-1]

    for args in ((phi, a, a), (a, a)):
        got = _hom_d(flat, *args)
        assert got is made[-1]


# -- grid-trailing storage ------------------------------------------------------


def _is_trailing(x):
    """x is an (..., r, c) view of C-contiguous (r, c, ...) storage."""
    return np.moveaxis(x, (-2, -1), (0, 1)).flags.c_contiguous


def _random_field(rng, base, p, q, rows, cols):
    shape = MatrixFormField.zeros(base, p, q, rows, cols).comps.shape
    return MatrixFormField(base, p, q, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))


@pytest.mark.parametrize("p, q, shape, match", [
    (2, 0, (1, 1, 8, 8, 2, 2), "bidegree"),        # no (2,0) slot at n = 1
    (0, -1, (1, 1, 8, 8, 2, 2), "bidegree"),
    (1, 0, (1, 1, 8, 4, 2, 2), "does not match"),  # wrong grid axes
    (1, 1, (2, 1, 8, 8, 2, 2), "does not match"),  # wrong form axes
    (0, 0, (1, 1, 8, 8, 5, 5), "rank cap"),
    (0, 0, (1, 1, 8, 8, 2, 0), "rank cap"),
])
def test_public_constructor_still_validates(p, q, shape, match):
    with pytest.raises(ValueError, match=match):
        MatrixFormField(TorusBase(1, 8), p, q, np.zeros(shape, np.complex128))
    if shape[:4] == (1, 1, 8, 8) and q >= 0:
        with pytest.raises(ValueError, match=match):
            MatrixFormField.zeros(TorusBase(1, 8), p, q, *shape[-2:])


def test_arithmetic_on_caller_operands_still_validates():
    f = MatrixFormField.zeros(TorusBase(1, 8), 0, 1, 2)
    with pytest.raises(ValueError, match="rank cap"):
        f.sandwich(np.ones((5, 2)))
    with pytest.raises(ValueError, match="does not match"):
        f * np.ones((2, 1, 1, 1, 1, 1, 1))


def test_constructor_keeps_trailing_views_and_copies_other_layouts():
    rng = np.random.default_rng(1)
    base = TorusBase(1, 8)
    f = _random_field(rng, base, 0, 1, 2, 3)
    assert _is_trailing(f.comps) and f.comps.flags.writeable
    # a view of trailing storage is adopted as it is
    assert MatrixFormField(base, 0, 1, f.comps).comps is f.comps
    # a C-contiguous array is copied once into trailing storage
    arr = np.ascontiguousarray(f.comps)
    g = MatrixFormField(base, 0, 1, arr)
    assert _is_trailing(g.comps) and not np.shares_memory(g.comps, arr)
    assert np.array_equal(g.comps, arr)
    # so is a read-only view of trailing storage, which comes out writable
    ro = f.comps.view()
    ro.flags.writeable = False
    h = MatrixFormField(base, 0, 1, ro)
    assert h.comps.flags.writeable and np.array_equal(h.comps, f.comps)


@pytest.mark.parametrize("n", [1, 2])
def test_form_calculus_keeps_trailing_storage(n):
    rng = np.random.default_rng(n)
    base = TorusBase(n, 8)
    a = _random_field(rng, base, 0, 1, 2, 2)
    b = _random_field(rng, base, 1, 0, 2, 2)
    hom = _random_field(rng, base, 1, 0, 2, 3)
    c = _random_field(rng, base, 1, 1, 2, 2)
    left = rng.standard_normal(base.shape + (2, 2)) + 0j
    outs = {
        "add": a + a, "sub": a - a, "neg": -a, "mul": 2.0 * a, "rmul": a * 1j,
        "wedge": wedge(a, b), "hom wedge": wedge(a, hom),
        "dbar": dbar_flat(hom), "d": d_flat(a),
        "sandwich": hom.sandwich(left, np.eye(3)), "constant sandwich": hom.sandwich(np.eye(2)),
        "trace": tr_field(c),
        "zeros": MatrixFormField.zeros(base, 1, 1, 3, 2),
        "constant": MatrixFormField.constant(base, np.eye(2), 0, 1, ((), (0,))),
    }
    for name, out in outs.items():
        assert _is_trailing(out.comps), name
        assert out.comps.dtype == np.complex128, name
    contracted = _contract_slots([c.comps[i, i] for i in range(n)])
    assert _is_trailing(contracted) and contracted.dtype == np.complex128


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("weighted, rows, cols", [
    (weighted, rows, cols) for weighted in (False, True)
    for rows, cols in ((1, 1), (2, 2), (3, 3), (2, 1), (3, 2))
    # a metric weighs square blocks only
    if rows == cols or not weighted])
def test_pointwise_inner_matches_the_einsum_reference(n, rows, cols, weighted):
    # pointwise_norm2 is the pointwise inner product <a, a>_H
    from higgsflow.linalg import dagger, inv
    rng = np.random.default_rng(100 * n + 10 * rows + cols)
    base = TorusBase(n, 8)
    a = _random_field(rng, base, 1, 1, rows, cols)
    H = None
    if weighted:
        x = rng.standard_normal(base.shape + (rows, rows)) \
            + 1j * rng.standard_normal(base.shape + (rows, rows))
        H = np.eye(rows) + x @ dagger(x)
    # the reference reads C-contiguous copies, the layout before
    # grid-trailing storage: tr(a H^{-1} a^dag H) per component
    acc = np.zeros(base.shape, np.complex128)
    for ip, iq in itertools.product(range(n), range(n)):
        ca = np.ascontiguousarray(a.comps[ip, iq])
        if H is None:
            acc += np.einsum("...ij,...ji->...", ca, dagger(ca))
        else:
            acc += np.einsum("...ij,...jk,...kl,...li->...", ca, inv(H),
                             dagger(ca), H)
    expected = np.real(4.0 * acc)
    got = pointwise_norm2(a, None if H is None else HermitianMetric(base, H))
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("call, message", [
    (lambda b: MatrixFormField.zeros(b, 0, 1, 2) + MatrixFormField.zeros(b, 1, 0, 2),
     "field shapes/bidegrees do not match"),
    (lambda b: wedge(MatrixFormField.zeros(b, 0, 0, 2),
                     MatrixFormField.zeros(TorusBase(1, 16), 0, 0, 2)),
     "fields live on different grids"),
    (lambda b: wedge(MatrixFormField.zeros(b, 0, 0, 2),
                     MatrixFormField.zeros(b, 0, 0, 3)),
     "matrix blocks do not compose: 2x2 @ 3x3"),
    (lambda b: integrate_top_form(MatrixFormField.zeros(b, 0, 0, 1)),
     "top-form integration needs a scalar (n,n)-form"),
])
def test_each_rejection_raises_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call(TorusBase(1, 8))
    assert message in str(info.value)
