"""Property tests for the pointwise r x r kernels: mm, inv, expm_batched and
the positivity verdict is_positive_definite.

Batches have the grid shapes of n = 1 and n = 2 fields (two or four axes);
blocks run over ranks 1-4 and non-square Hom shapes.
"""

import itertools
import math
import re
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import higgsflow
from higgsflow.linalg import (_TAYLOR_DEGREES, dagger, expm_batched, inv,
                              is_positive_definite, mm, sqrtm_hpd)

PROPERTY = settings(max_examples=25, deadline=None)
EPS = np.finfo(np.float64).eps


@st.composite
def grid_batches(draw, side=st.integers(2, 3)):
    n = draw(st.sampled_from([1, 2]))
    return (draw(side),) * (2 * n), draw(st.integers(0, 2**32 - 1))


def random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hpd(rng, batch, r, log_spread=3.0):
    """HPD blocks with eigenvalues spread over up to 10^log_spread."""
    q, _ = np.linalg.qr(random_stack(rng, batch + (r, r)))
    w = 10.0 ** rng.uniform(-log_spread, 0.0, batch + (r,))
    return (q * w[..., None, :]) @ dagger(q)


@PROPERTY
@given(grid_batches(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.booleans())
def test_mm_matches_a_per_element_loop_exactly(case, r, c, s, single_left):
    batch, seed = case
    rng = np.random.default_rng(seed)
    a = random_stack(rng, (r, c) if single_left else batch + (r, c))
    b = random_stack(rng, batch + (c, s))
    out = mm(a, b)
    assert out.shape == batch + (r, s)
    # one-element arrays: numpy's scalar complex product may round
    # differently (no fused multiply-add) from its array loops
    expected = np.empty_like(out)
    for idx in np.ndindex(*batch):
        ai = () if single_left else idx
        for i in range(r):
            for j in range(s):
                acc = a[ai + (i, slice(0, 1))] * b[idx + (slice(0, 1), j)]
                for k in range(1, c):
                    acc = acc + a[ai + (i, slice(k, k + 1))] * b[idx + (slice(k, k + 1), j)]
                expected[idx + (i, j)] = acc[0]
    assert np.array_equal(out, expected)


@PROPERTY
@given(grid_batches(st.integers(2, 8)), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4))
def test_mm_agrees_with_matmul_to_rounding(case, r, c, s):
    batch, seed = case
    rng = np.random.default_rng(seed)
    a = random_stack(rng, batch + (r, c))
    b = random_stack(rng, batch + (c, s)) * 10.0 ** rng.uniform(-3, 3)
    bound = 8 * c * EPS * (np.abs(a) @ np.abs(b))
    assert (np.abs(mm(a, b) - a @ b) <= bound).all()


@PROPERTY
@given(grid_batches(st.integers(2, 6)), st.integers(1, 4))
def test_inv_matches_lapack_on_hpd_stacks(case, r):
    batch, seed = case
    rng = np.random.default_rng(seed)
    m = random_hpd(rng, batch, r)
    cond = np.linalg.cond(m)[..., None, None]
    out = inv(m)
    residual = np.abs(m @ out - np.eye(r)).max(axis=(-2, -1), keepdims=True)
    assert (residual <= 1e-12 * cond).all()
    ref = np.linalg.inv(m)
    scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(out - ref) <= 1e-12 * cond * scale).all()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["row", "column"])
def test_exactly_singular_block_raises(r, kind):
    rng = np.random.default_rng(r)
    m = random_hpd(rng, (3, 3), r)
    if kind == "row":
        m[1, 2, r - 1, :] = 0.0
    else:
        m[1, 2, :, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(m)
    with pytest.raises(np.linalg.LinAlgError):
        inv(m)


def _eigh_exp(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(w)[..., None, :]) @ dagger(v)


@PROPERTY
@given(grid_batches(st.integers(2, 6)), st.integers(1, 4),
       st.floats(0.01, 4.0))
def test_expm_matches_eigh_on_hermitian_input(case, r, size):
    batch, seed = case
    rng = np.random.default_rng(seed)
    x = random_stack(rng, batch + (r, r))
    h = x + dagger(x)
    h *= size / np.abs(h).max()
    ref = _eigh_exp(h)
    assert np.abs(expm_batched(h) - ref).max() <= 1e-13 * np.abs(ref).max()


@PROPERTY
@given(grid_batches(st.integers(2, 6)), st.integers(1, 4),
       st.floats(0.01, 4.0))
def test_expm_matches_eigh_on_h_self_adjoint_input(case, r, size):
    # K = H^{-1} S with S Hermitian satisfies H^{-1} K^dag H = K; with
    # w = H^{1/2}, w K w^{-1} = w^{-1} S w^{-1} is Hermitian
    batch, seed = case
    rng = np.random.default_rng(seed)
    H = random_hpd(rng, batch, r, log_spread=1.0)
    x = random_stack(rng, batch + (r, r))
    S = x + dagger(x)
    K = np.linalg.solve(H, S)
    K *= size / np.abs(K).max()
    lam, v = np.linalg.eigh(H)
    w = (v * np.sqrt(lam)[..., None, :]) @ dagger(v)
    w_inv = (v / np.sqrt(lam)[..., None, :]) @ dagger(v)
    inner = w @ K @ w_inv
    ref = w_inv @ _eigh_exp(0.5 * (inner + dagger(inner))) @ w
    assert np.abs(expm_batched(K) - ref).max() <= 1e-12 * np.abs(ref).max()


# -- the closed form for Hermitian 2x2 blocks ----------------------------------------


def _assert_blockwise_close(out, ref, size):
    """Each block within 1e-14 of its largest reference entry, widened past
    a norm of 10 in proportion to it: a rounding of X by eps moves e^X by
    eps |X| relative, for eigh's result as for any other."""
    scale = np.abs(ref).max(axis=(-2, -1))
    err = np.abs(out - ref).max(axis=(-2, -1))
    assert (err <= 1e-14 * max(1.0, size / 10.0) * scale).all()


@PROPERTY
@given(grid_batches(st.integers(2, 6)),
       st.floats(-8.0, math.log10(700.0)), st.booleans())
def test_expm_closed_form_matches_eigh_on_hermitian_2x2(case, log_size, tiny_b):
    # sizes from 1e-8 to 700, where e^m is near the float limit; with
    # tiny_b, |b| is 1e-12 of |a - d|
    batch, seed = case
    rng = np.random.default_rng(seed)
    x = random_stack(rng, batch + (2, 2))
    h = x + dagger(x)
    if tiny_b:
        h[..., 0, 1] *= 1e-12
        h[..., 1, 0] *= 1e-12
    size = 10.0 ** log_size
    h *= size / np.linalg.norm(h, axis=(-2, -1)).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expm_batched(h)
    _assert_blockwise_close(out, _eigh_exp(h), size)
    assert np.array_equal(out, dagger(out))


def _decimal_expm2(block):
    """e^X of one Hermitian 2x2 block in 60-digit decimals, as
    e^{l+} P+ + e^{l-} P- with the eigenprojectors' diagonals written
    without cancellation."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, d = Decimal(block[0, 0].real), Decimal(block[1, 1].real)
        br, bi = Decimal(block[0, 1].real), Decimal(block[0, 1].imag)
        m, h, b2 = (a + d) / 2, (a - d) / 2, br * br + bi * bi
        delta = (h * h + b2).sqrt()
        if delta == 0:
            return np.exp(float(m)) * np.eye(2)
        up, down = (m + delta).exp(), (m - delta).exp()
        p = (1 + abs(h) / delta) / 2
        q = b2 / (2 * delta * (delta + abs(h)))
        larger, smaller = up * p + down * q, up * q + down * p
        sinhc = m.exp() * (delta.exp() - (-delta).exp()) / (2 * delta)
        diag = (larger, smaller) if h >= 0 else (smaller, larger)
        off = complex(float(sinhc * br), float(sinhc * bi))
        return np.array([[float(diag[0]), off], [off.conjugate(), float(diag[1])]])


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.floats(-2.0, math.log10(700.0)),
       st.floats(-14.0, 0.0))
def test_expm_closed_form_is_accurate_in_every_entry(seed, log_size, log_b):
    # |b| down to 1e-14 of |a - d|, where e^m (cosh delta - sinh delta
    # (a - d) / (2 delta)) cancels: the smaller diagonal entry, which can
    # be far below the largest, holds its own relative accuracy too
    rng = np.random.default_rng(seed)
    x = random_stack(rng, (16, 2, 2))
    h = x + dagger(x)
    h[..., 0, 1] *= 10.0 ** log_b
    h[..., 1, 0] *= 10.0 ** log_b
    size = 10.0 ** log_size
    h *= size / np.linalg.norm(h, axis=(-2, -1)).max()
    out = expm_batched(h)
    for k in range(len(h)):
        ref = _decimal_expm2(h[k])
        bound = 1e-14 * max(1.0, size / 10.0) * np.abs(ref)
        assert (np.abs(out[k] - ref) <= bound).all()


@PROPERTY
@given(grid_batches(), st.floats(-745.0, 709.0))
def test_expm_closed_form_of_a_multiple_of_the_identity_is_exact(case, c):
    # delta = 0 exactly: sinh(delta) / delta is 1 and e^{cI} = e^c I
    batch, seed = case
    scale = np.random.default_rng(seed).uniform(0.0, 1.0, batch)
    m = (c * scale)[..., None, None] * np.eye(2)
    expected = np.exp(c * scale)[..., None, None] * np.eye(2)
    assert np.array_equal(expm_batched(m), expected)


def test_expm_closed_form_overflows_to_nan_blockwise_without_warning():
    # e^m overflows past m = log(DBL_MAX) = 709.78; a block whose larger
    # eigenvalue is past it becomes all NaN, its neighbours are untouched
    rng = np.random.default_rng(5)
    x = random_stack(rng, (4, 4, 2, 2))
    h = 0.5 * (x + dagger(x))
    blocks = {(0, 0): [[710.0, 0.0], [0.0, 710.0]],
              (1, 2): [[709.0, 2.0], [2.0, 709.0]],
              (2, 1): [[1e308, 1e308], [1e308, -1e308]],
              (3, 3): [[np.inf, 0.0], [0.0, 1.0]],
              (3, 0): [[700.0, 0.5], [0.5, 700.0]]}
    for idx, block in blocks.items():
        h[idx] = block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expm_batched(h)
    for idx in [(0, 0), (1, 2), (2, 1), (3, 3)]:
        assert np.isnan(out[idx]).all()
    finite = np.isfinite(out).all(axis=(-2, -1))
    assert finite.sum() == 16 - 4
    _assert_blockwise_close(out[finite], _eigh_exp(h[finite]), 700.0)


def _count_taylor_calls(monkeypatch):
    import higgsflow.linalg
    calls = []
    real = higgsflow.linalg._taylor_ps
    monkeypatch.setattr(higgsflow.linalg, "_taylor_ps",
                        lambda a, m: calls.append(m) or real(a, m))
    return calls


def test_expm_takes_the_taylor_path_unless_every_block_is_hermitian(monkeypatch):
    calls = _count_taylor_calls(monkeypatch)
    for r in (2, 3):
        rng = np.random.default_rng(6)
        x = 0.1 * random_stack(rng, (4, 4, r, r))
        h = x + dagger(x)
        calls.clear()
        expm_batched(h)
        assert calls == []
        # a general stack, one entry below the diagonal a bit off its
        # conjugate, and one diagonal entry with an imaginary part
        near = h.copy()
        near[1, 2, r - 1, 0] = np.nextafter(near[1, 2, r - 1, 0].real, np.inf) + \
            1j * near[1, 2, r - 1, 0].imag
        imag = h.copy()
        imag[3, 0, r - 1, r - 1] += 1e-300j
        for m in (x, near, imag):
            calls.clear()
            out = expm_batched(m)
            assert len(calls) == 1
            w, v = np.linalg.eig(m)
            expected = (v * np.exp(w)[..., None, :]) @ np.linalg.inv(v)
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


# -- the closed form for Hermitian 3x3 blocks ----------------------------------------


def _hermitian3(rng, batch, spectrum):
    """Exactly Hermitian 3x3 blocks with the given eigenvalues, one
    (..., 3) row per block, in random unitary frames."""
    q, _ = np.linalg.qr(random_stack(rng, batch + (3, 3)))
    h = (q * spectrum[..., None, :]) @ dagger(q)
    return 0.5 * (h + dagger(h))


@PROPERTY
@given(grid_batches(st.integers(2, 5)),
       st.floats(-8.0, math.log10(40.0)),
       st.sampled_from(["distinct", "double", "triple"]),
       st.floats(-12.0, 0.0))
def test_expm_closed_form_matches_eigh_on_hermitian_3x3(case, log_size, cluster,
                                                        log_gap):
    # Frobenius norms from 1e-8 to 40; a double or triple eigenvalue is
    # split by gaps down to 1e-12 of the spread, at the top or the bottom
    batch, seed = case
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(batch + (3,))
    gap = 10.0 ** log_gap * np.abs(w).max(axis=-1)
    if cluster != "distinct":
        w[..., 1] = w[..., 0] + gap * rng.uniform(-1.0, 1.0, batch)
    if cluster == "triple":
        w[..., 2] = w[..., 0] - gap
    h = _hermitian3(rng, batch, w)
    h *= 10.0 ** log_size / np.linalg.norm(h, axis=(-2, -1)).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expm_batched(h)
    ref = _eigh_exp(h)
    err = np.abs(out - ref).max(axis=(-2, -1))
    assert (err <= 1e-13 * np.abs(ref).max(axis=(-2, -1))).all()
    assert np.array_equal(out, dagger(out))


@PROPERTY
@given(grid_batches(), st.floats(-745.0, 709.0))
def test_expm_closed_form_3x3_of_a_multiple_of_the_identity_is_exact(case, c):
    # B = X - qI is exactly zero: e^{cI} = e^c I, and e^0 = I
    batch, seed = case
    scale = np.random.default_rng(seed).uniform(0.0, 1.0, batch)
    m = (c * scale)[..., None, None] * np.eye(3)
    expected = np.exp(c * scale)[..., None, None] * np.eye(3)
    assert np.array_equal(expm_batched(m), expected)
    assert np.array_equal(expm_batched(np.zeros(batch + (3, 3))),
                          np.broadcast_to(np.eye(3), batch + (3, 3)))


def test_expm_closed_form_3x3_overflows_to_nan_blockwise_without_warning():
    # a block whose largest eigenvalue is past log(DBL_MAX) = 709.78, or
    # whose entries overflow tr(B^2), or that holds a non-finite entry,
    # becomes all NaN; its neighbours are untouched
    rng = np.random.default_rng(7)
    h = _hermitian3(rng, (4, 4), rng.standard_normal((4, 4, 3)))
    blocks = {(0, 0): np.diag([710.0, 0.0, -3.0]),
              (1, 2): 709.0 * np.eye(3) + np.diag([1.0, 0.0, 0.0]),
              (2, 1): 1e200 * np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                                        [0.0, 0.0, 1.0]]),
              (3, 3): np.diag([np.inf, 0.0, 1.0]),
              (2, 2): np.diag([np.nan, 0.0, 1.0]),
              (3, 0): np.diag([709.0, 700.0, -5.0])}
    for idx, block in blocks.items():
        h[idx] = block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expm_batched(h)
    for idx in [(0, 0), (1, 2), (2, 1), (3, 3), (2, 2)]:
        assert np.isnan(out[idx]).all()
    finite = np.isfinite(out).all(axis=(-2, -1))
    assert finite.sum() == 16 - 5
    ref = _eigh_exp(h[finite])
    err = np.abs(out[finite] - ref).max(axis=(-2, -1))
    assert (err <= 1e-13 * 709.0 * np.abs(ref).max(axis=(-2, -1))).all()


def test_expm_closed_form_3x3_of_tiny_entries_is_finite():
    # tr(B^2) near 1e-220 and det(B) below the float range: the cosine is
    # formed from entries scaled by 1/p, so e^X = I + X to every digit
    rng = np.random.default_rng(8)
    h = _hermitian3(rng, (3, 3), rng.standard_normal((3, 3, 3)))
    for size in (1e-110, 1e-160, 1e-300):
        x = h * size
        out = expm_batched(x)
        assert np.isfinite(out).all()
        assert np.abs(out - (np.eye(3) + x)).max() <= 1e-15 * np.abs(x).max()


@pytest.mark.parametrize("kind", ["donaldson", "ymh"])
def test_rank3_flows_make_no_taylor_call(monkeypatch, kind):
    # every field that either flow exponentiates at rank 3 is exactly
    # Hermitian: the closed form serves them all
    from higgsflow import TorusBase, run_donaldson_flow, run_ymh_flow
    from higgsflow.scenarios import random_valid_state
    calls = _count_taylor_calls(monkeypatch)
    state = random_valid_state(TorusBase(1, 16), 3, 1)
    run = run_donaldson_flow if kind == "donaldson" else run_ymh_flow
    res = run(state, 0.05, 0.01)
    assert res.steps > 1 and calls == []


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_propagates_without_warning(r, bad):
    rng = np.random.default_rng(r)
    m = random_hpd(rng, (4, 4), r)
    m[2, 1, 0, r - 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [mm(m, m), mm(m[..., :, :1], m[..., :1, :]), expm_batched(m)]
        m_inv = inv(m)
    for out in outs:
        assert not np.isfinite(out).all()
    if (r, bad) == (1, np.inf):
        assert m_inv[2, 1, 0, 0] == 0.0  # 1/inf, exactly
    else:
        assert not np.isfinite(m_inv[2, 1]).all()


def test_no_lapack_inverse_outside_the_kernel_layer():
    src = Path(higgsflow.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py"))
                 if p.name != "linalg.py" and "np.linalg.inv(" in p.read_text()]
    assert offenders == []


def test_no_stacked_matmul_outside_the_kernel_layer():
    # `@` between operands; decorators and the "r x c @ r x c" error
    # messages do not match
    src = Path(higgsflow.__file__).parent
    product = re.compile(r"[\w)\]] @ [\w(]")
    offenders = [f"{p.name}:{k}" for p in sorted(src.glob("*.py")) if p.name != "linalg.py"
                 for k, line in enumerate(p.read_text().splitlines(), 1)
                 if product.search(line)]
    assert offenders == []


# -- grid-trailing layout ------------------------------------------------------------


def trailing(x):
    """The values of x in grid-trailing storage: an (..., r, c) view of a
    C-contiguous (r, c, ...) array."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1))),
                       (0, 1), (-2, -1))


def is_trailing(x):
    return np.moveaxis(x, (-2, -1), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r, c, s", list(itertools.product(range(1, 5), repeat=3)))
def test_mm_on_trailing_views_equals_mm_on_contiguous_copies(n, r, c, s):
    rng = np.random.default_rng(100 * r + 10 * c + s)
    batch = (2, 3) if n == 1 else (2, 3, 2, 2)
    a = random_stack(rng, batch + (r, c))
    b = random_stack(rng, batch + (c, s))
    const_a, const_b = random_stack(rng, (r, c)), random_stack(rng, (c, s))
    # stacks, constant blocks on either side and broadcast batch axes
    for x, y in ((a, b), (const_a, b), (a, const_b), (a[None], b[:1])):
        ref = mm(np.ascontiguousarray(x), np.ascontiguousarray(y))
        for tx in (x, trailing(x)) if x.ndim > 2 else (x,):
            for ty in (y, trailing(y)) if y.ndim > 2 else (y,):
                out = mm(tx, ty)
                assert np.array_equal(out, ref)
                assert is_trailing(out)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_kernels_return_trailing_arrays(r):
    rng = np.random.default_rng(r)
    batch = (3, 2, 2, 2)
    m = random_hpd(rng, batch, r)
    for x in (m, trailing(m)):
        outs = {"inv": inv(x), "expm": expm_batched(0.1 * x), "dagger": dagger(x),
                "mm": mm(x, x), "constant mm": mm(np.eye(r), x)}
        for name, out in outs.items():
            assert is_trailing(out), name
        # the same values whatever the input layout
        assert np.array_equal(outs["inv"], inv(np.ascontiguousarray(m)))
        assert np.array_equal(outs["expm"], expm_batched(0.1 * np.ascontiguousarray(m)))


def grid_slab_or_constant(x):
    """Whether the batch axes of x that hold more than one entry are one
    contiguous slab in storage order (a field's component view is one) or
    all have stride 0 (a broadcast constant)."""
    axes = [(size, stride) for size, stride in zip(x.shape[:-2], x.strides[:-2])
            if size > 1]
    if all(stride == 0 for _, stride in axes):
        return True
    step = x.itemsize
    for size, stride in reversed(axes):
        if stride != step:
            return False
        step *= size
    return True


def test_builders_hand_the_kernels_grid_slabs_or_constants(monkeypatch):
    # grid-leading operands cost the kernels 2 to 6x; every array that the
    # builders and the block checks pass them must be a grid slab or a
    # broadcast constant
    import sys

    from higgsflow import (TorusBase, gauss_codazzi_blocks, linalg, rho_sweep,
                           verify_filtration)
    from higgsflow.scenarios import (build_scenario, random_state_with_subbundle,
                                     random_valid_state, scenario_catalog,
                                     scenario_subbundles)
    offenders = []

    def guarded(kernel):
        def call(*operands):
            for k, x in enumerate(operands):
                x = np.asarray(x)
                if x.ndim > 2 and not grid_slab_or_constant(x):
                    caller = sys._getframe(1).f_code.co_name
                    offenders.append(f"{kernel.__name__} operand {k} "
                                     f"{x.shape} {x.strides} from {caller}")
            return kernel(*operands)
        return call

    kernels = {name: getattr(linalg, name) for name in ("mm", "inv", "expm_batched")}
    for module in [m for name, m in sys.modules.items() if name.startswith("higgsflow.")]:
        for name, kernel in kernels.items():
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, guarded(kernel))

    for sc in scenario_catalog():
        scenario_subbundles(sc.name, build_scenario(sc.name, N=8))
    for n in (1, 2):
        base = TorusBase(n, 8)
        for r in range(1, 5):
            random_valid_state(base, r, r)
            for p in range(1, r):
                random_state_with_subbundle(base, r, p, r)
    linalg.sqrtm_hpd(random_valid_state(TorusBase(1, 8), 3, 1).metric.mat)
    chain = build_scenario("chain-r3", N=8)
    subs = scenario_subbundles("chain-r3", chain)
    gauss_codazzi_blocks(chain, subs[0])
    rho_sweep(chain, subs[0], [0.5, 1.0])
    verify_filtration(chain, subs, 1e-6)
    assert offenders == []


# -- norm-selected Taylor degrees and the positivity verdict ----------------------

THETAS = [theta for _, theta in _TAYLOR_DEGREES]
# mm products of the degree-m Paterson-Stockmeyer evaluation
PS_PRODUCTS = {3: 2, 4: 2, 6: 3, 9: 4, 12: 5, 16: 6}


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("target", [1e-8, *THETAS, 4.0])
@settings(max_examples=10, deadline=None)
@given(grid_batches(st.integers(2, 4)), st.integers(2, 4),
       st.one_of(st.sampled_from([0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0]),
                 st.floats(0.5, 2.0)))
def test_expm_matches_eigh_on_each_side_of_every_theta(target, hermitian, case,
                                                        r, factor):
    # the batch's largest Frobenius norm, which picks the degree, is set to
    # just below or above each theta; non-Hermitian input is H-self-adjoint
    batch, seed = case
    rng = np.random.default_rng(seed)
    x = random_stack(rng, batch + (r, r))
    S = x + dagger(x)
    size = min(max(target * factor, 1e-8), 4.0)
    if hermitian:
        K = S * (size / np.linalg.norm(S, axis=(-2, -1)).max())
        ref, bound = _eigh_exp(K), 1e-13
    else:
        H = random_hpd(rng, batch, r, log_spread=1.0)
        K = np.linalg.solve(H, S)
        K *= size / np.linalg.norm(K, axis=(-2, -1)).max()
        lam, v = np.linalg.eigh(H)
        w = (v * np.sqrt(lam)[..., None, :]) @ dagger(v)
        w_inv = (v / np.sqrt(lam)[..., None, :]) @ dagger(v)
        inner = w @ K @ w_inv
        ref = w_inv @ _eigh_exp(0.5 * (inner + dagger(inner))) @ w
        bound = 1e-12
    assert np.abs(expm_batched(K) - ref).max() <= bound * np.abs(ref).max()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_expm_product_count_follows_the_batch_norm(monkeypatch, r):
    import higgsflow.linalg
    calls = []
    original = higgsflow.linalg.mm

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(higgsflow.linalg, "mm", counting)
    rng = np.random.default_rng(r)

    def products(size):
        x = random_stack(rng, (8, 8, r, r))
        calls.clear()
        expm_batched(x * (size / np.linalg.norm(x, axis=(-2, -1)).max()))
        return len(calls)

    assert products(1e-8) == PS_PRODUCTS[3]
    for m, theta in _TAYLOR_DEGREES:
        assert products(theta * (1.0 - 1e-9)) == PS_PRODUCTS[m]
    assert products(THETAS[3] * (1.0 - 1e-9)) <= 4
    # past theta_16 every halving costs one squaring: 4 / 2^3 < theta_16
    assert products(4.0) == PS_PRODUCTS[16] + 3


def _expm_by_division(m):
    """expm_batched's scaling, Paterson-Stockmeyer core and squarings, with
    the scalings written as divisions: the arithmetic that the kernel's
    reciprocal multiplies must reproduce. Returns (exp(m), degree, s)."""
    norm = np.linalg.norm(m, axis=(-2, -1)).max()
    degree, theta = next((d for d in _TAYLOR_DEGREES if norm <= d[1]),
                         _TAYLOR_DEGREES[-1])
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    a = m / 2.0**s
    p = math.isqrt(degree - 1) + 1
    powers = [np.eye(m.shape[-1]), a]
    while len(powers) <= p:
        powers.append(mm(powers[-1], a))
    top = (degree - 1) // p
    for j in range(top, -1, -1):
        size = degree + 1 - j * p if j == top else p
        blk = sum(powers[i] / math.factorial(j * p + i) for i in range(size))
        out = blk if j == top else mm(out, powers[p]) + blk
    for _ in range(s):
        out = mm(out, out)
    return out, degree, s


@pytest.mark.parametrize("r", [2, 3, 4])
def test_expm_scalings_equal_the_divisions_bit_for_bit(r):
    # one batch per Taylor degree, its norm just below that degree's theta,
    # and one past the last theta that takes squarings
    rng = np.random.default_rng(40 + r)
    degrees, squarings = set(), 0
    for size in [theta * (1.0 - 1e-9) for theta in THETAS] + [4.0]:
        x = random_stack(rng, (3, 3, 3, 3, r, r))
        m = x * (size / np.linalg.norm(x, axis=(-2, -1)).max())
        ref, degree, s = _expm_by_division(m)
        degrees.add(degree)
        squarings = max(squarings, s)
        assert np.array_equal(expm_batched(m), ref)
    assert degrees == {d for d, _ in _TAYLOR_DEGREES} and squarings >= 1


@PROPERTY
@given(grid_batches(st.integers(2, 5)), st.integers(1, 4),
       st.sampled_from(["hpd", "indefinite", "singular"]))
def test_positivity_verdict_matches_eigvalsh(case, r, plant):
    # condition numbers up to 1e6; one planted block with a negative or an
    # exactly zero eigenvalue at a random grid point
    batch, seed = case
    rng = np.random.default_rng(seed)
    m = random_hpd(rng, batch, r, log_spread=6.0)
    if plant != "hpd":
        idx = tuple(int(rng.integers(n)) for n in batch)
        w = 10.0 ** rng.uniform(-6.0, 0.0, r)
        k = int(rng.integers(r))
        if plant == "indefinite":
            w[k] = -w[k]
            q, _ = np.linalg.qr(random_stack(rng, (r, r)))
            m[idx] = (q * w) @ dagger(q)
        else:
            w[k] = 0.0
            m[idx] = np.diag(w)
    expected = bool(np.linalg.eigvalsh(m).min() > 0)
    assert expected == (plant == "hpd")
    assert is_positive_definite(m) == expected


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("diagonal", [True, False])
def test_non_finite_block_is_not_positive_definite(r, bad, diagonal):
    # an inf on the diagonal would make a leading minor +inf, not negative
    m = random_hpd(np.random.default_rng(r), (4, 4), r)
    i, j = (r - 1, r - 1) if diagonal else (0, r - 1)
    m[1, 3, i, j] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_positive_definite(m) is False


# -- the square root -----------------------------------------------------------------


@PROPERTY
@given(grid_batches(), st.integers(1, 2))
def test_sqrtm_closed_forms_match_the_eigh_root(case, r):
    shape, seed = case
    m = random_hpd(np.random.default_rng(seed), shape, r)
    w, v = np.linalg.eigh(m)
    ref = (v * np.sqrt(w)[..., None, :]) @ dagger(v)
    root = sqrtm_hpd(m)
    scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(root - ref) / scale).max() <= 1e-13
    assert np.array_equal(root, dagger(root))
    assert np.moveaxis(root, (-2, -1), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan])
def test_sqrtm_rejects_blocks_that_are_not_positive(r, bad):
    m = np.broadcast_to(np.eye(r, dtype=complex), (4, 4, r, r)).copy()
    m[1, 2, -1, -1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not positive definite"):
            sqrtm_hpd(m)


@pytest.mark.parametrize("r", [2, 3])
def test_positivity_verdict_survives_overflowing_minors(r):
    # 1e308 blocks overflow the closed-form minors (inf - inf); the verdict
    # is taken again by eigvalsh on blocks scaled exactly by a power of two
    m = np.broadcast_to(np.eye(r, dtype=complex), (4, 4, r, r)).copy()
    m[1, 2, :2, :2] = 1e308 * np.array([[1.0, 0.5], [0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_positive_definite(m) is True
        m[1, 2, :2, :2] = 1e308 * np.array([[0.5, 1.0], [1.0, 0.5]])
        assert is_positive_definite(m) is False
