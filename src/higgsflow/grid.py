"""Flat-torus base grid and matrix-valued (p,q)-form calculus.

Conventions, fixed once and used by every downstream module:

* the base is (R/Z)^{2n} with complex coordinates z^j = x_{2j} + i x_{2j+1},
  n in {1, 2}, all periods 1;
* the Kahler form is omega = (i/2) sum_j dz^j wedge dzbar^j, so the metric is
  the standard Euclidean one, Vol(X) = 1, and |dz^j|^2 = 2;
* the contraction satisfies Lambda(omega M) = n M, componentwise
  Lambda(a_{ij} dz^i wedge dzbar^j) = -2i sum_i a_{ii};
* derivatives are second-order centered differences with periodic wrap,
  d/dz = (D_x - i D_y)/2 and d/dzbar = (D_x + i D_y)/2;
* a complex field is scaled by a real constant c as a multiply by 1.0 / c:
  numpy's complex / real division multiplies both parts by that same
  reciprocal, so the values are those of the division (only an exact zero
  may differ in sign) at a fraction of its cost;
* reductions run in numpy's fixed row-major order, so identical inputs give
  bit-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _trailing, _trailing_array, dagger, mm, trace

if TYPE_CHECKING:
    from .geometry import HermitianMetric

__all__ = [
    "TorusBase", "MatrixFormField", "dbar_flat", "d_flat", "wedge",
    "pointwise_norm2", "sup_norm",
    "integrate", "integrate_top_form", "tr_field",
]

MAX_RANK = 4


@functools.cache
def _combs(n: int, p: int) -> list[tuple[int, ...]]:
    """Ordered multi-indices of degree p over n complex axes, lexicographic."""
    return list(itertools.combinations(range(n), p))


@functools.cache
def _wedge_table(n: int, deg_a: int, deg_b: int) -> list[tuple[int, int, int, int]]:
    """(ia, ib, i_out, sign) for every disjoint pair of ordered multi-indices.

    dz^A wedge dz^B = sign dz^C, and alike for dzbar, with A, B, C the ia-th,
    ib-th and i_out-th multi-indices of degrees deg_a, deg_b and deg_a + deg_b;
    the rows run in (ia, ib) order. For a fixed output slot and a fixed ia,
    ib is determined, so accumulating in row order adds the terms of each
    slot in ia order.
    """
    slot = {idx: k for k, idx in enumerate(_combs(n, deg_a + deg_b))}
    rows = []
    for ia, A in enumerate(_combs(n, deg_a)):
        for ib, B in enumerate(_combs(n, deg_b)):
            merged = A + B
            if len(set(merged)) == len(merged):
                inversions = sum(x > y for x, y in itertools.combinations(merged, 2))
                rows.append((ia, ib, slot[tuple(sorted(merged))],
                             -1 if inversions % 2 else 1))
    return rows


@dataclass(frozen=True)
class TorusBase:
    """Uniform periodic grid on the flat torus (R/Z)^{2n}."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"complex dimension must be 1 or 2, got {self.n}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 8, got {self.N}")

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.N ** (2 * self.n)

    @property
    def volume(self) -> float:
        # integral of omega^n / n! over the grid; with unit periods and the
        # Euclidean convention this is exactly the Riemann sum of 1
        return self.num_points * self.spacing ** (2 * self.n)

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate values along one real axis, broadcastable to the grid."""
        vals = np.arange(self.N) / self.N
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return vals.reshape(shape)

    def real_coords(self) -> list[np.ndarray]:
        return [self.axis_coordinate(k) for k in range(2 * self.n)]


class MatrixFormField:
    """Endomorphism- (or hom-) valued (p,q)-form sampled on the grid.

    comps has shape (C(n,p), C(n,q), *grid, rows, cols), indexed by ordered
    multi-indices in lexicographic order. The coefficient of component
    (I, J) multiplies dz^I wedge dzbar^J with all holomorphic differentials
    first. comps is a writable view of one C-contiguous complex array of
    shape (rows, cols, C(n,p), C(n,q), *grid): grid-trailing storage, so
    every pointwise kernel runs over contiguous grid slabs. The constructor
    keeps an array that is already such a view and copies any other once.
    """

    __slots__ = ("base", "p", "q", "comps", "rows", "cols")

    def __init__(self, base: TorusBase, p: int, q: int, comps: np.ndarray):
        comps = np.asarray(comps)
        if not (0 <= p <= base.n and 0 <= q <= base.n):
            raise ValueError(f"bidegree ({p},{q}) out of range for n={base.n}")
        P, Q = len(_combs(base.n, p)), len(_combs(base.n, q))
        expected = (P, Q) + base.shape
        if comps.shape[:-2] != expected:
            raise ValueError(f"component array shape {comps.shape} does not match "
                             f"bidegree ({p},{q}) on the n={base.n}, N={base.N} grid")
        rows, cols = comps.shape[-2], comps.shape[-1]
        if not (1 <= rows <= MAX_RANK and 1 <= cols <= MAX_RANK):
            raise ValueError(f"matrix block {rows}x{cols} exceeds the rank cap {MAX_RANK}")
        self.base = base
        self.p = p
        self.q = q
        self.comps = _trailing(comps)
        self.rows = rows
        self.cols = cols

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, base: TorusBase, p: int, q: int, rows: int, cols: int | None = None):
        cols = rows if cols is None else cols
        P, Q = len(_combs(base.n, p)), len(_combs(base.n, q))
        return cls(base, p, q, _trailing_array((P, Q) + base.shape + (rows, cols),
                                               init=np.zeros))

    @classmethod
    def constant(cls, base: TorusBase, matrix: np.ndarray, p: int = 0, q: int = 0,
                 index: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())):
        """Constant field with a single nonzero component."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        out = cls.zeros(base, p, q, matrix.shape[0], matrix.shape[1])
        out.comps[out.pos_p(index[0]), out.pos_q(index[1])] = matrix
        return out

    # -- index bookkeeping -----------------------------------------------------

    def pos_p(self, I: tuple[int, ...]) -> int:
        return _combs(self.base.n, self.p).index(tuple(I))

    def pos_q(self, J: tuple[int, ...]) -> int:
        return _combs(self.base.n, self.q).index(tuple(J))

    # -- arithmetic --------------------------------------------------------------

    def _compatible(self, other: "MatrixFormField"):
        if (self.base, self.p, self.q, self.rows, self.cols) != \
           (other.base, other.p, other.q, other.rows, other.cols):
            raise ValueError("field shapes/bidegrees do not match")

    def __add__(self, other):
        self._compatible(other)
        return MatrixFormField(self.base, self.p, self.q, self.comps + other.comps)

    def __sub__(self, other):
        self._compatible(other)
        return MatrixFormField(self.base, self.p, self.q, self.comps - other.comps)

    def __neg__(self):
        return MatrixFormField(self.base, self.p, self.q, -self.comps)

    def __mul__(self, scalar):
        return MatrixFormField(self.base, self.p, self.q, self.comps * scalar)

    __rmul__ = __mul__

    def sandwich(self, left: np.ndarray | None = None,
                 right: np.ndarray | None = None) -> "MatrixFormField":
        """The field with components mm(mm(left, c), right), c over all components.

        left and right are matrices or grid arrays of matrices, broadcast
        over the form axes; either may be None, and the blocks may be Hom
        blocks of any shape that composes. The product associates left to
        right: flow results are bit-exact only in that order.
        """
        comps = self.comps
        if left is not None:
            comps = mm(left, comps)
        if right is not None:
            comps = mm(comps, right)
        return MatrixFormField(self.base, self.p, self.q, comps)


# -- differential operators ------------------------------------------------------


def _periodic_diff(c: np.ndarray, axis: int, scale: float,
                   grid_ndim: int) -> np.ndarray:
    """(c[i+1] - c[i-1]) * scale along one grid axis of an (..., *grid, r, c)
    array with grid_ndim grid axes, with periodic wrap; the result is
    grid-trailing.

    The interior is one subtract over the grid axes merged into one, against
    itself offset by the axis stride: each block's grid slab then runs in
    long rows whatever the axis. The two end planes, where the offset
    leaves the row, are then written with the wrap. The grid axes of a
    grid slab merge as a view; any other layout is copied."""
    out = _trailing_array(c.shape, c.dtype)
    stride = math.prod(c.shape[axis + 1:-2])
    flat = c.shape[:-2 - grid_ndim] + (-1,) + c.shape[-2:]
    src, dst = c.reshape(flat), out.reshape(flat)
    np.subtract(src[..., 2 * stride:, :, :], src[..., :-2 * stride, :, :],
                out=dst[..., stride:-stride, :, :])
    lead = (slice(None),) * axis
    for o, p, m in ((0, 1, -1), (-1, 0, -2)):
        np.subtract(c[lead + (p,)], c[lead + (m,)], out=out[lead + (o,)])
    out *= scale
    return out


def _dz_component(c: np.ndarray, base: TorusBase, j: int, bar: bool) -> np.ndarray:
    """d/dz^j (or d/dzbar^j) of a (..., *grid, rows, cols) array, centered
    differences.

    (D_x -+ i D_y) / 2 with D = (c[i+1] - c[i-1]) / (2h), in one scaling
    per difference: both are scaled by 0.5 / (2h), an exact halving of
    1 / (2h), and i D_y is added on the real and imaginary parts. Every
    value equals that of the unfused formula; only an exact zero may differ
    in sign."""
    # x_j and y_j are the grid's axes 2j and 2j + 1
    grid_ndim = len(base.shape)
    axis = c.ndim - 2 - grid_ndim + 2 * j
    scale = 0.5 / (2.0 * base.spacing)
    out = _periodic_diff(c, axis, scale, grid_ndim)
    dy = _periodic_diff(c, axis + 1, scale, grid_ndim)
    if bar:
        out.real -= dy.imag
        out.imag += dy.real
    else:
        out.real += dy.imag
        out.imag -= dy.real
    return out


def _raise_degree(f: MatrixFormField, bar: bool) -> MatrixFormField:
    """Shared body of d_flat (bar False) and dbar_flat (bar True)."""
    n = f.base.n
    deg = f.q if bar else f.p
    if deg + 1 > n:
        name, letter = ("dbar", "q") if bar else ("d", "p")
        raise ValueError(f"{name} overflows bidegree: {letter}={deg} with n={n}")
    p, q = (f.p, f.q + 1) if bar else (f.p + 1, f.q)
    out = _trailing_array((len(_combs(n, p)), len(_combs(n, q))) + f.base.shape
                          + (f.rows, f.cols))
    shift = -1 if bar and f.p % 2 else 1  # dzbar^j crosses p holomorphic slots
    axis = 1 if bar else 0                # the form axis whose degree rises
    src, dst = f.comps.swapaxes(0, axis), out.swapaxes(0, axis)
    written = set()
    # rows of dz^j wedge dz^K: each differentiates the one component K it
    # reads. The first row to reach a component writes 0.0 +- d, for finite
    # d the zero-filled sum 0 + (+-1) d to the bit, its exact zeros all
    # +0.0; later rows add or subtract d in place
    for j, k, k_out, sign in _wedge_table(n, 1, deg):
        acc = dst[k_out] if k_out in written else 0.0
        written.add(k_out)
        (np.add if shift * sign > 0 else np.subtract)(
            acc, _dz_component(src[k], f.base, j, bar), out=dst[k_out])
    return MatrixFormField(f.base, p, q, out)


def dbar_flat(f: MatrixFormField) -> MatrixFormField:
    """Background dbar: raises antiholomorphic degree by one."""
    return _raise_degree(f, bar=True)


def d_flat(f: MatrixFormField) -> MatrixFormField:
    """Background del: raises holomorphic degree by one."""
    return _raise_degree(f, bar=False)


def wedge(a: MatrixFormField, b: MatrixFormField) -> MatrixFormField:
    """Exterior product combined with the matrix product.

    Graded sign convention: moving b's holomorphic slots past a's
    antiholomorphic ones contributes (-1)^{q_a p_b}, so
    dzbar wedge dz = -dz wedge dzbar.
    """
    if a.base is not b.base and a.base != b.base:
        raise ValueError("fields live on different grids")
    if a.cols != b.rows:
        raise ValueError(f"matrix blocks do not compose: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    n = a.base.n
    p, q = a.p + b.p, a.q + b.q
    if p > n or q > n:
        raise ValueError(f"wedge overflows bidegree: ({p},{q}) with n={n}")
    out = _trailing_array((len(_combs(n, p)), len(_combs(n, q))) + a.base.shape
                          + (a.rows, b.cols))
    cross = -1 if (a.q * b.p) % 2 else 1
    q_rows = _wedge_table(n, a.q, b.q)
    written = set()
    # as in _raise_degree: a slot's first term writes 0.0 +- term, for finite
    # terms the zero-filled sum to the bit; later ones add or subtract in place
    for ip1, ip2, ip, sign_p in _wedge_table(n, a.p, b.p):
        for iq1, iq2, iq, sign_q in q_rows:
            acc = out[ip, iq] if (ip, iq) in written else 0.0
            written.add((ip, iq))
            (np.add if cross * sign_p * sign_q > 0 else np.subtract)(
                acc, mm(a.comps[ip1, iq1], b.comps[ip2, iq2]), out=out[ip, iq])
    return MatrixFormField(a.base, p, q, out)


def _hom_d(flat, x: MatrixFormField, left: MatrixFormField,
           right: MatrixFormField) -> MatrixFormField:
    """The covariant derivative flat(x) + left ^ x -+ x ^ right of a
    Hom(right, left)-valued form x, + for odd degree and - for even: with
    d_flat and (1,0) connection forms the (1,0) part of the induced
    connection, with dbar_flat and (0,1) forms its (0,1) part."""
    out = flat(x) + wedge(left, x)
    if (x.p + x.q) % 2:
        return out + wedge(x, right)
    return out - wedge(x, right)


def _contract_slots(diagonal: list[np.ndarray]) -> np.ndarray:
    """Lambda(a_{ij} dz^i wedge dzbar^j) = -2i sum_i a_ii, the contraction
    of a (1,1) form by the Kahler form from its diagonal components a_ii
    alone, as one (*grid, rows, cols) array; the sum starts from zero and
    adds them in order. It makes Lambda(omega M) = n M."""
    acc = _trailing_array(diagonal[0].shape, init=np.zeros)
    for slot in diagonal:
        acc += slot
    return -2j * acc


# -- norms, integration -----------------------------------------------------------


def _norm2_of_slots(slots, weight: float, shape: tuple[int, ...],
                    H: HermitianMetric | None = None) -> np.ndarray:
    """Pointwise |.|^2_H of a form of weight 2^(p+q) on the grid shape from
    its components in (ip, iq) order, each reduced as slots yields it, so no
    form is assembled: tr(x y) with x = c H^{-1} (the cached H.inv) and
    y = c^dag H, summed over the pairs x_ik y_ki in (i, k) order. Under no
    metric or the unit metric x = c and y = c^dag, with no product. A
    component yielded again at once (the same array) is reduced once and
    added again."""
    plain = H is None or H.unit
    acc = np.zeros(shape, np.complex128)
    last = reduced = None
    for c in slots:
        if c is not last:
            x = c if plain else mm(c, H.inv)
            y = dagger(c) if plain else mm(dagger(c), H.mat)
            last, reduced = c, x[..., 0, 0] * y[..., 0, 0]
            for i, k in itertools.product(*map(range, x.shape[-2:])):
                if i or k:
                    reduced += x[..., i, k] * y[..., k, i]
        acc += reduced
    return np.real(weight * acc)


def pointwise_norm2(a: MatrixFormField, H: HermitianMetric | None = None) -> np.ndarray:
    """Pointwise |a|^2_H as a real grid field.

    Form indices carry the flat metric with |dz^i|^2 = 2. Endomorphism
    values use the metric H (identity when None) on both factors; a Hom
    block, taken between orthonormal frames, takes no metric.
    """
    return _norm2_of_slots((c for row in a.comps for c in row),
                           2.0 ** (a.p + a.q), a.base.shape, H)


def integrate(s: np.ndarray | float, base: TorusBase) -> float:
    """Riemann sum against omega^n/n!; exact for trigonometric polynomials."""
    arr = np.asarray(s)
    if arr.ndim == 0:
        return float(np.real(arr)) * base.volume
    return float(np.real(arr.sum())) * base.spacing ** (2 * base.n)


def _sup(norm2: np.ndarray) -> float:
    """sup |.| from a pointwise |.|^2."""
    return float(np.sqrt(max(norm2.max(), 0.0)))


def sup_norm(a: MatrixFormField, H: HermitianMetric | None = None) -> float:
    return _sup(pointwise_norm2(a, H))


def tr_field(a: MatrixFormField) -> MatrixFormField:
    """Matrix trace, keeping the form degree (1x1 blocks)."""
    out = MatrixFormField.zeros(a.base, a.p, a.q, 1, 1)
    out.comps[..., 0, 0] = trace(a.comps)
    return out


def integrate_top_form(f: MatrixFormField) -> complex:
    """Integral of a top-degree (n,n)-form with 1x1 blocks.

    The stored coefficient multiplies dz^1..dz^n dzbar^1..dzbar^n; sorting
    that into interleaved pairs costs (-1)^{n(n-1)/2}, and each pair gives
    dz wedge dzbar = -2i dx dy.
    """
    n = f.base.n
    if (f.p, f.q) != (n, n) or (f.rows, f.cols) != (1, 1):
        raise ValueError("top-form integration needs a scalar (n,n)-form")
    reorder = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    factor = reorder * (-2j) ** n
    coeff = f.comps[0, 0, ..., 0, 0]
    return complex(factor * coeff.sum() * f.base.spacing ** (2 * n))
