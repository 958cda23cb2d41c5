"""Pointwise matrix kernels, vectorized over grid batches.

All routines act on arrays of shape (..., r, c) with small r, c (at most 4)
and are deterministic: no randomized algorithms, no thread-dependent
reductions. numpy's `@` and `np.linalg.inv` handle a stack of tiny matrices
one matrix at a time; the kernels here run each scalar operation over the
whole batch at once. They return grid-trailing arrays: an (..., r, c) view
of C-contiguous (r, c, ...) storage, so each of those operations is one
pass over a contiguous slab of the batch. Any input layout is accepted,
but a grid-leading (..., r, c) operand costs mm 2 to 6x as much as a
grid-trailing one (1.41 against 0.68 ms at (64, 64, 3, 3), 399 against
64 us at (64, 64, 2, 2), on a 2-core Xeon host); a broadcast constant,
stride 0 on every grid axis, costs no more. The package's builders hand
the kernels only grid slabs or broadcast constants.

Kernel contract:

* mm(a, b) sums the broadcast column-times-row products
  a[..., :, k:k+1] * b[..., k:k+1, :] over k = 0..c-1 in that order, so its
  result is fixed by that order and numpy's elementwise arithmetic, not by
  a BLAS or by the layout of its operands;
* inv uses a closed form for r <= 3 (1/m, then the adjugate over the
  determinant) and np.linalg.inv for r = 4; a block whose determinant is
  exactly zero raises np.linalg.LinAlgError, as np.linalg.inv does;
* expm_batched is np.exp for r = 1; for a batch of exactly Hermitian 2x2
  blocks X = [[a, b], [b*, c]] (checked on the input) it is the closed
  form e^m [cosh delta I + (sinh delta / delta)(X - m I)], with
  m = (a + c)/2 and delta = sqrt(((a - c)/2)^2 + |b|^2), accurate in
  every entry; for a batch of exactly Hermitian 3x3 blocks it is the
  closed form e^{q + mu0} [I + f1 C + f2 C (C - a I)] on the eigenvalues
  of B = X - qI from the trigonometric formula (C = B - mu0 I), accurate
  in norm; a multiple c I of the identity maps to e^c I exactly at r = 2
  and 3, and the closed forms return exactly Hermitian blocks, each all
  NaN if it holds a non-finite entry; for any other input with r >= 2
  (r = 4, or blocks that are not exactly Hermitian) it is a Taylor
  polynomial of norm-selected degree evaluated by Paterson-Stockmeyer
  on mm;
* is_positive_definite reads the leading principal minors for r <= 3 and
  eigvalsh for r = 4 or when a minor overflows;
* sqrtm_hpd is the scalar root at r = 1, the Cayley-Hamilton closed form
  (M + sqrt(det) I) / sqrt(tr M + 2 sqrt(det)) at r = 2 and eigh for r >= 3;
* a complex array is scaled by a real constant (or real array) c as a
  multiply by 1.0 / c: numpy's complex / real division computes that
  reciprocal and multiplies both parts by it, at several times the cost,
  so the values are the division's (only an exact zero may differ in sign);
* non-finite input propagates to non-finite output without a
  RuntimeWarning: flow runners detect blown-up steps from their output.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# blown-up inputs propagate silently; the callers test the output
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


@functools.cache
def _view_axes(ndim: int) -> tuple[int, ...]:
    """Axes that turn (r, c, ...) storage into its (..., r, c) view."""
    return tuple(range(2, ndim)) + (0, 1)


@functools.cache
def _store_axes(ndim: int) -> tuple[int, ...]:
    """Axes that turn an (..., r, c) array into its (r, c, ...) storage order."""
    return (ndim - 2, ndim - 1) + tuple(range(ndim - 2))


def _trailing_array(shape: tuple[int, ...], dtype=np.complex128,
                    init=np.empty) -> np.ndarray:
    """An (..., r, c) array of the given shape over C-contiguous (r, c, ...)
    storage, made by init (np.empty or np.zeros)."""
    return init(shape[-2:] + shape[:-2], dtype).transpose(_view_axes(len(shape)))


def _trailing(x, dtype=np.complex128) -> np.ndarray:
    """x itself when it is a writable grid-trailing array of dtype; else a
    grid-trailing copy of it."""
    x = np.asarray(x)
    if x.dtype == dtype and x.flags.writeable and \
            x.transpose(_store_axes(x.ndim)).flags.c_contiguous:
        return x
    out = _trailing_array(x.shape, dtype)
    out[...] = x
    return out


def _from_entries(rows: list[list[np.ndarray]]) -> np.ndarray:
    """Blocks whose (i, j) entries are the grid arrays rows[i][j]."""
    store = np.array(rows)
    return store.transpose(_view_axes(store.ndim))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the trailing two axes."""
    m = np.asarray(m)
    out = _trailing_array(m.shape[:-2] + (m.shape[-1], m.shape[-2]), m.dtype)
    return np.conjugate(np.swapaxes(m, -1, -2), out=out)


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (broadcast) stacks of small matrices, a (..., r, c) and
    b (..., c, s): the column-times-row products summed over k in order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if b.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix blocks do not compose: {a.shape[-2:]} @ {b.shape[-2:]}")
    with np.errstate(**_QUIET):
        if a.shape[-2:] == b.shape[-2:] == (1, 1):
            # 1x1 blocks have one layout, and their product is elementwise
            return a * b
        batch = a.shape[:-2]
        if b.shape[:-2] != batch:
            batch = np.broadcast_shapes(batch, b.shape[:-2])
        out = _trailing_array(batch + (a.shape[-2], b.shape[-1]),
                              a.dtype if a.dtype == b.dtype else np.result_type(a, b))
        np.multiply(a[..., :, 0:1], b[..., 0:1, :], out=out)
        if a.shape[-1] > 1:
            term = np.empty_like(out)
        for k in range(1, a.shape[-1]):
            out += np.multiply(a[..., :, k:k + 1], b[..., k:k + 1, :], out=term)
    return out


def _det_and_adjugate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and adjugate of 2x2 or 3x3 blocks."""
    e = [[m[..., i, j] for j in range(m.shape[-1])] for i in range(m.shape[-1])]
    if m.shape[-1] == 2:
        (a, b), (c, d) = e
        return a * d - b * c, _from_entries([[d, -b], [-c, a]])

    # rows of the adjugate are the cross products of the columns
    def cross(j, k):
        u, v = [row[j] for row in e], [row[k] for row in e]
        return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0]]

    adj = [cross(1, 2), cross(2, 0), cross(0, 1)]
    det = e[0][0] * adj[0][0] + e[1][0] * adj[0][1] + e[2][0] * adj[0][2]
    return det, _from_entries(adj)


def inv(m: np.ndarray) -> np.ndarray:
    """Inverse of every block: closed form for r <= 3, LAPACK for r = 4."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise np.linalg.LinAlgError("last 2 dimensions of the array must be square")
    r = m.shape[-1]
    if r > 3:
        m_inv = np.linalg.inv(m)
        return _trailing(m_inv, m_inv.dtype)
    with np.errstate(**_QUIET):
        if r == 1:
            det, adj = m[..., 0, 0], np.ones_like(m)
        else:
            det, adj = _det_and_adjugate(m)
        if np.any(det == 0):
            raise np.linalg.LinAlgError("Singular matrix")
        out = _trailing_array(m.shape, np.result_type(m, 1.0))
        return np.divide(adj, det[..., None, None], out=out)


# (m, theta_m): the degree-m Taylor polynomial has backward error below the
# unit roundoff up to norm theta_m (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
# 2011, Table 3.1); each m is the highest Paterson-Stockmeyer reaches with its
# number of products, 2 to 6
_TAYLOR_DEGREES = ((3, 1.39e-5), (4, 3.40e-4), (6, 9.07e-3), (9, 8.96e-2),
                   (12, 3.00e-1), (16, 7.80e-1))


def _taylor_ps(a: np.ndarray, m: int) -> np.ndarray:
    """sum_{k <= m} a^k / k! by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973):
    blocks of p = ceil(sqrt(m)) powers, combined by Horner's rule in a^p. The
    top block also takes a^p / m! when p divides m, which saves a product."""
    p = math.isqrt(m - 1) + 1
    powers = [np.eye(a.shape[-1]), a]
    while len(powers) <= p:
        powers.append(mm(powers[-1], a))
    top = (m - 1) // p
    for j in range(top, -1, -1):
        # block j holds degrees jp .. jp + p - 1; the top block runs to m
        size = m + 1 - j * p if j == top else p
        blk = sum(powers[i] * (1.0 / math.factorial(j * p + i))
                  for i in range(size))
        if j == top:
            out = blk
        else:
            out = mm(out, powers[p])
            out += blk
    return out


def _is_hermitian(m: np.ndarray) -> bool:
    """Whether every block of m is exactly Hermitian: each entry below the
    diagonal equal to the conjugate of its mirror, and a zero imaginary
    diagonal. A NaN entry fails the test."""
    r = m.shape[-1]
    return not any(m[..., i, i].imag.any() for i in range(r)) and \
        all(np.array_equal(m[..., i, j], np.conj(m[..., j, i]))
            for i in range(r) for j in range(i))


def _blocks(store: np.ndarray) -> np.ndarray:
    """The (..., r, r) view of (r, r, ...) storage, with every block that
    holds a non-finite entry set to all NaN."""
    if not np.isfinite(store).all():
        store[:, :, ~np.isfinite(store).all(axis=(0, 1))] = np.nan
    return store.transpose(_view_axes(store.ndim))


def _expm_hermitian2(m: np.ndarray) -> np.ndarray:
    """e^X of exactly Hermitian 2x2 blocks X = [[a, b], [b*, d]] in closed
    form (Moler & Van Loan, SIAM Rev. 45, 2003): with m = (a + d)/2 and
    delta = sqrt(((a - d)/2)^2 + |b|^2), e^X = e^m [cosh delta I
    + (sinh delta / delta)(X - m I)], where sinh delta / delta = 1 at 0.

    The factors are taken relative to e^{m + delta}, the larger
    eigenvalue's exponential, through x = expm1(-2 delta), so nothing
    overflows unless it does. The diagonal entry on the side of the sign
    of a - d is a sum of positive terms; the other one, where the formula
    cancels, is taken from det e^X = e^{2m} instead. So every entry, not
    only the largest, is accurate to a few roundings, and the diagonal is
    positive. The result is exactly Hermitian; a block with a non-finite
    entry is all NaN, as at r = 1.
    """
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1]
    half_diff = 0.5 * (a - d)
    abs_b = np.abs(b)
    delta = np.hypot(half_diff, abs_b)
    mean = 0.5 * (a + d)
    x = np.expm1(-2.0 * delta)
    # e^m sinh(delta) / delta and the larger diagonal entry, both over
    # big = e^{m + delta}; the latter is at least 1/2
    sinhc = np.where(delta == 0.0, 1.0, -0.5 * x / delta)
    ratio = (1.0 + 0.5 * x) + sinhc * np.abs(half_diff)
    big = np.exp(mean + delta)
    off = sinhc * abs_b
    # larger * smaller - |big off|^2 = e^{2m} = big e^{m - delta}
    smaller = (np.exp(mean - delta) + (big * off) * off) / ratio
    larger = big * ratio
    upper = half_diff >= 0.0
    store = np.empty((2, 2) + m.shape[:-2], np.complex128)
    store[0, 0, ...] = np.where(upper, larger, smaller)
    store[1, 1, ...] = np.where(upper, smaller, larger)
    np.multiply(big * sinhc, b, out=store[0, 1, ...])
    np.conjugate(store[0, 1], out=store[1, 0, ...])
    return _blocks(store)


# rows and columns of the entries x01, x02, x12 above the diagonal
_UPPER, _LOWER = np.array([0, 0, 1]), np.array([1, 2, 2])


def _expm_hermitian3(m: np.ndarray) -> np.ndarray:
    """e^X of exactly Hermitian 3x3 blocks in closed form (Moler & Van Loan,
    SIAM Rev. 45, 2003, method 17; Morningstar & Peardon, Phys. Rev. D 69,
    054501, 2004).

    With q = x00 + ((x11 - x00) + (x22 - x00))/3, so that c I maps to
    e^c I exactly, B = X - q I has the eigenvalues mu0 >= mu2 >= mu1, that
    is 2p cos(theta + 2 pi k/3) for k = 0, 2, 1, where p = sqrt(tr(B^2)/6)
    and theta = arccos(det(B/p)/2)/3, the cosine clipped to [-1, 1].
    Newton's interpolation on those nodes gives, with C = B - mu0 I,

        e^X = e^{q + mu0} [I + f1 C + f2 C (C - a I)],

    where a = mu2 - mu0, b = mu1 - mu0 and f1 = expm1(a)/a,
    f2 = (e^a expm1(b - a)/(b - a) - f1)/b are the divided differences of
    exp relative to e^{mu0} (1 and 1/2 where their nodes coincide). Nearly
    coincident eigenvalues, which the arccos splits to only half the
    digits, enter the result at second order, and the cancellation in f2
    is multiplied by C (C - a I), which is as small as the spread b.

    Only the six upper entries are built; the lower ones are their
    conjugates, so the result is exactly Hermitian. A block with a
    non-finite entry is all NaN, as at r = 1 and 2.
    """
    st = m.transpose(_store_axes(m.ndim))
    x = st.real[(0, 1, 2), (0, 1, 2)]
    off = st[_UPPER, _LOWER]
    b01, b02, b12 = off
    q = x[0] + ((x[1] - x[0]) + (x[2] - x[0])) / 3.0
    d = x - q
    n = off.real * off.real + off.imag * off.imag
    p = np.sqrt(((d * d).sum(axis=0) + 2.0 * n.sum(axis=0)) * (1.0 / 6.0))
    # det(B/p)/2 from terms of order one, each scaled by 1/p as it is
    # formed; every term is zero where p is
    s = 1.0 / np.where(p > 0.0, p, np.inf)
    u = d * s
    b01b12 = b01 * b12
    re_prod = b01b12.real * b02.real + b01b12.imag * b02.imag
    half_det = 0.5 * (u[0] * u[1] * u[2] - ((u * n[::-1]) * s).sum(axis=0) * s) \
        + ((re_prod * s) * s) * s
    theta = np.arccos(np.clip(half_det, -1.0, 1.0)) * (1.0 / 3.0)
    cos3, sin3 = 3.0 * np.cos(theta), math.sqrt(3.0) * np.sin(theta)
    mu0 = (2.0 / 3.0) * p * cos3
    a = p * (sin3 - cos3)         # -2 sqrt(3) p sin(pi/3 - theta)
    b = -p * (cos3 + sin3)        # -2 sqrt(3) p sin(pi/3 + theta)
    gap = (-2.0 * p) * sin3       # b - a
    f1 = _expm1_ratio(a)
    f2 = np.exp(a) * _expm1_ratio(gap) - f1
    f2 = np.where(b == 0.0, 0.5, f2 / b)
    alpha = f1 - a * f2           # e^X / e^{q + mu0} = I + alpha C + f2 C^2
    c = d - mu0
    scale = np.exp(q + mu0)
    store = np.empty((3, 3) + m.shape[:-2], np.complex128)
    store[(0, 1, 2), (0, 1, 2)] = scale * (
        1.0 + alpha * c + f2 * (c * c + (n[_UPPER] + n[_LOWER])))
    # (C^2)_ij = x_ij (c_i + c_j) + the product through the third index
    through = np.empty_like(off)
    np.multiply(b02, np.conj(b12), out=through[0])
    through[1] = b01b12
    np.multiply(np.conj(b01), b02, out=through[2])
    upper = scale * (alpha * off + f2 * (off * (c[_UPPER] + c[_LOWER]) + through))
    store[_UPPER, _LOWER] = upper
    store[_LOWER, _UPPER] = np.conj(upper)
    return _blocks(store)


def _expm1_ratio(x: np.ndarray) -> np.ndarray:
    """expm1(x)/x, and 1 where x is zero."""
    return np.where(x == 0.0, 1.0, np.expm1(x) / x)


def expm_batched(m: np.ndarray) -> np.ndarray:
    """Matrix exponential: closed form or scaling-and-squaring with a
    Taylor core.

    np.exp at r = 1, and _expm_hermitian2 or _expm_hermitian3 for a batch
    of exactly Hermitian 2x2 or 3x3 blocks. Otherwise the batch's largest
    Frobenius norm picks the lowest degree of _TAYLOR_DEGREES that reaches
    it; past the last theta the argument is halved until it does, then
    squared back.
    """
    m = np.asarray(m, dtype=np.complex128)
    with np.errstate(**_QUIET):
        if m.shape[-1] == 1:
            # an overflowed entry becomes NaN: arithmetic on NaN stays
            # quiet, on inf it can warn (0 * inf)
            out = np.exp(m)
            out[~np.isfinite(out)] = np.nan
            return out
        if m.shape[-1] in (2, 3) and _is_hermitian(m):
            return (_expm_hermitian2 if m.shape[-1] == 2 else _expm_hermitian3)(m)
        norm = np.linalg.norm(m, axis=(-2, -1)).max() if m.size else 0.0
        if not np.isfinite(norm):
            return np.full_like(m, np.nan)
        degree, theta = next((d for d in _TAYLOR_DEGREES if norm <= d[1]),
                             _TAYLOR_DEGREES[-1])
        s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        out = _taylor_ps(m * (1.0 / 2.0**s), degree)
        for _ in range(s):
            out = mm(out, out)
    return out


def sqrtm_hpd(m: np.ndarray) -> np.ndarray:
    """Principal square root of Hermitian positive-definite matrices.

    Reads the Hermitian part of m. At r = 2 the root is (M + sqrt(det) I)
    / sqrt(tr M + 2 sqrt(det)), by Cayley-Hamilton; r = 1 is the scalar
    root and r >= 3 goes through eigh. Raises ValueError unless every block
    is positive definite.
    """
    m = np.asarray(m)
    r = m.shape[-1]
    if r > 2:
        if not np.isfinite(m).all():
            raise ValueError("matrix not positive definite: non-finite blocks")
        w, v = np.linalg.eigh(hermitize(m))
        if not np.all(w > 0):
            raise ValueError("matrix not positive definite: min eigenvalue "
                             f"{w.min():.3e}")
        # the scaled eigenvectors in grid-trailing storage, as mm reads them
        # fastest; eigh returns grid-leading arrays
        scaled = np.multiply(v, np.sqrt(w)[..., None, :], out=_trailing_array(v.shape))
        return mm(scaled, dagger(v))
    with np.errstate(**_QUIET):
        a = m[..., 0, 0].real
        if r == 2:
            b, d = 0.5 * (m[..., 0, 1] + np.conj(m[..., 1, 0])), m[..., 1, 1].real
            det = a * d - (b.real ** 2 + b.imag ** 2)
        else:
            det = a
        bad = np.count_nonzero(~((a > 0) & (det > 0)))
        if bad:
            raise ValueError(f"matrix not positive definite: {bad} blocks")
        if r == 1:
            return _trailing(np.sqrt(a)[..., None, None])
        s = np.sqrt(det)
        t = np.sqrt(a + d + 2.0 * s)
        t_inv = 1.0 / t
        return _from_entries([[(a + s) / t + 0j, b * t_inv],
                              [np.conj(b) * t_inv, (d + s) / t + 0j]])


def min_eigvalsh(m: np.ndarray) -> float:
    """Smallest eigenvalue over the whole batch of Hermitian matrices.

    Each block is first scaled exactly, by a power of two, to entries below
    2 in size, so that finite blocks near the float limit cannot overflow.
    A result beyond the float range rounds to -inf or inf.
    """
    m = np.asarray(m)
    big = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1))
    scale = np.ldexp(1.0, np.frexp(big)[1] - 1)
    w = np.linalg.eigvalsh(hermitize(m / scale[..., None, None]))[..., 0]
    with np.errstate(over="ignore"):
        return float((w * scale).min())


def is_positive_definite(m: np.ndarray) -> bool:
    """Whether every block of the Hermitian part of m is positive definite.

    Sylvester's criterion for r <= 3: every leading principal minor, in
    closed form, is positive; eigvalsh at r = 4, and for the whole batch
    when a minor of finite blocks overflows. Non-finite blocks never are.
    """
    m = np.asarray(m)
    if not np.isfinite(m).all():
        return False
    r = m.shape[-1]
    if r > 3:
        return min_eigvalsh(m) > 0.0

    def h(i, j):  # entry (i, j) of the Hermitian part
        return 0.5 * (m[..., i, j] + np.conj(m[..., j, i]))

    with np.errstate(**_QUIET):
        a = m[..., 0, 0].real
        minors = [a]
        if r >= 2:
            b, d = h(0, 1), m[..., 1, 1].real
            minors.append(a * d - abs(b) ** 2)
        if r == 3:
            c, e, f = h(0, 2), h(1, 2), m[..., 2, 2].real
            minors.append(a * (d * f - abs(e) ** 2) - f * abs(b) ** 2
                          - d * abs(c) ** 2 + 2.0 * (b * e * np.conj(c)).real)
    if not all(np.isfinite(x).all() for x in minors):
        return min_eigvalsh(m) > 0.0  # on blocks scaled by a power of two
    return all(bool((x > 0).all()) for x in minors)


def trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)
