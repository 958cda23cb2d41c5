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
* reductions run in numpy's fixed row-major order, so identical inputs give
  bit-identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, inv, trace

__all__ = [
    "TorusBase", "MatrixFormField", "MixedField",
    "dbar_flat", "d_flat", "wedge", "contract_lambda", "dbar_adjoint",
    "pointwise_inner", "pointwise_norm2", "l2_norm", "sup_norm",
    "integrate", "integrate_top_form", "tr_field",
]

MAX_RANK = 4

# ordered multi-indices for n complex axes, degree p
_COMBS: dict[tuple[int, int], list[tuple[int, ...]]] = {}


def _combs(n: int, p: int) -> list[tuple[int, ...]]:
    key = (n, p)
    if key not in _COMBS:
        _COMBS[key] = list(itertools.combinations(range(n), p))
    return _COMBS[key]


def _insert_index(j: int, idx: tuple[int, ...]):
    """Sign and result of sorting dz^j into the ordered tuple idx.

    Returns None on a repeated index (the wedge annihilates it).
    """
    if j in idx:
        return None
    smaller = sum(1 for k in idx if k < j)
    sign = -1 if smaller % 2 else 1
    return sign, tuple(sorted(idx + (j,)))


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]):
    """Sign of sorting the concatenation a+b, or None on a collision."""
    merged = a + b
    if len(set(merged)) != len(merged):
        return None
    invs = sum(1 for i in range(len(merged)) for j in range(i + 1, len(merged))
               if merged[i] > merged[j])
    sign = -1 if invs % 2 else 1
    return sign, tuple(sorted(merged))


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

    @property
    def injectivity_radius(self) -> float:
        return 0.5

    def axis_coordinate(self, axis: int) -> np.ndarray:
        """Coordinate values along one real axis, broadcastable to the grid."""
        vals = np.arange(self.N) / self.N
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return vals.reshape(shape)

    def real_coords(self) -> list[np.ndarray]:
        return [self.axis_coordinate(k) for k in range(2 * self.n)]


def _centered_diff(arr: np.ndarray, grid_axis: int, h: float) -> np.ndarray:
    ax = 2 + grid_axis  # comps layout is (P, Q, *grid, r, r)
    return (np.roll(arr, -1, axis=ax) - np.roll(arr, 1, axis=ax)) / (2.0 * h)


class MatrixFormField:
    """Endomorphism- (or hom-) valued (p,q)-form sampled on the grid.

    Components are stored as one complex array of shape
    (C(n,p), C(n,q), *grid, rows, cols), indexed by ordered multi-indices in
    lexicographic order. The coefficient of component (I, J) multiplies
    dz^I wedge dzbar^J with all holomorphic differentials first.
    """

    __slots__ = ("base", "p", "q", "comps", "rows", "cols")

    def __init__(self, base: TorusBase, p: int, q: int, comps: np.ndarray):
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
        self.comps = np.ascontiguousarray(comps, dtype=np.complex128)
        self.rows = rows
        self.cols = cols

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, base: TorusBase, p: int, q: int, rows: int, cols: int | None = None):
        cols = rows if cols is None else cols
        P, Q = len(_combs(base.n, p)), len(_combs(base.n, q))
        return cls(base, p, q, np.zeros((P, Q) + base.shape + (rows, cols), np.complex128))

    @classmethod
    def constant(cls, base: TorusBase, matrix: np.ndarray, p: int = 0, q: int = 0,
                 index: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())):
        """Constant field with a single nonzero component."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        out = cls.zeros(base, p, q, matrix.shape[0], matrix.shape[1])
        out.comps[out.pos_p(index[0]), out.pos_q(index[1])] = matrix
        return out

    @classmethod
    def from_function(cls, base: TorusBase, p: int, q: int, fn):
        """Build from fn(I, J) -> grid array of matrices (or None for zero)."""
        comps = None
        for ip, I in enumerate(_combs(base.n, p)):
            for iq, J in enumerate(_combs(base.n, q)):
                block = fn(I, J)
                if block is None:
                    continue
                block = np.asarray(block, dtype=np.complex128)
                if comps is None:
                    P, Q = len(_combs(base.n, p)), len(_combs(base.n, q))
                    comps = np.zeros((P, Q) + base.shape + block.shape[-2:], np.complex128)
                comps[ip, iq] = block
        if comps is None:
            raise ValueError("from_function received no nonzero component")
        return cls(base, p, q, comps)

    def copy(self) -> "MatrixFormField":
        return MatrixFormField(self.base, self.p, self.q, self.comps.copy())

    # -- index bookkeeping -----------------------------------------------------

    def p_indices(self) -> list[tuple[int, ...]]:
        return _combs(self.base.n, self.p)

    def q_indices(self) -> list[tuple[int, ...]]:
        return _combs(self.base.n, self.q)

    def pos_p(self, I: tuple[int, ...]) -> int:
        return _combs(self.base.n, self.p).index(tuple(I))

    def pos_q(self, J: tuple[int, ...]) -> int:
        return _combs(self.base.n, self.q).index(tuple(J))

    def component(self, I: tuple[int, ...], J: tuple[int, ...]) -> np.ndarray:
        return self.comps[self.pos_p(I), self.pos_q(J)]

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
        """The field with components (left @ c) @ right, c over all components.

        left and right are matrices or grid arrays of matrices, broadcast
        over the form axes; either may be None, and the blocks may be Hom
        blocks of any shape that composes. The product associates left to
        right: flow results are bit-exact only in that order.
        """
        comps = self.comps
        if left is not None:
            comps = left @ comps
        if right is not None:
            comps = comps @ right
        return MatrixFormField(self.base, self.p, self.q, comps)


class MixedField(dict):
    """Formal sum of matrix form fields of different bidegrees.

    Keyed by bidegree (p, q) in insertion order; adding a field of a
    bidegree already present accumulates into it. Wedges that overflow the
    bidegree range vanish identically and are dropped, matching the
    continuum where those slots do not exist.
    """

    def __init__(self, parts=()):
        super().__init__()
        for f in parts:
            key = (f.p, f.q)
            self[key] = self[key] + f if key in self else f

    def __add__(self, other: "MixedField") -> "MixedField":
        return MixedField(list(self.values()) + list(other.values()))

    def __sub__(self, other: "MixedField") -> "MixedField":
        return MixedField(list(self.values()) + [-f for f in other.values()])

    def wedge(self, other: "MixedField") -> "MixedField":
        return MixedField(wedge(f, g) for f in self.values() for g in other.values()
                          if f.p + g.p <= f.base.n and f.q + g.q <= f.base.n)

    def pointwise_norm2(self, H: np.ndarray | None = None) -> np.ndarray:
        """Sum of the parts' pointwise |.|^2_H (distinct degrees are orthogonal)."""
        acc = None
        for f in self.values():
            n2 = pointwise_norm2(f, H)
            acc = n2 if acc is None else acc + n2
        if acc is None:
            raise ValueError("empty mixed field")
        return acc

    def sup(self, H: np.ndarray | None = None) -> float:
        return float(np.sqrt(max(self.pointwise_norm2(H).max(), 0.0)))


# -- differential operators ------------------------------------------------------


def _dz_component(f: MatrixFormField, j: int, bar: bool) -> np.ndarray:
    """d/dz^j (or d/dzbar^j) of every component, centered differences."""
    h = f.base.spacing
    dx = _centered_diff(f.comps, 2 * j, h)
    dy = _centered_diff(f.comps, 2 * j + 1, h)
    return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)


def dbar_flat(f: MatrixFormField) -> MatrixFormField:
    """Background dbar: raises antiholomorphic degree by one."""
    n = f.base.n
    if f.q + 1 > n:
        raise ValueError(f"dbar overflows bidegree: q={f.q} with n={n}")
    out = MatrixFormField.zeros(f.base, f.p, f.q + 1, f.rows, f.cols)
    p_sign = -1 if f.p % 2 else 1  # dzbar^j crosses p holomorphic slots
    for j in range(n):
        deriv = _dz_component(f, j, bar=True)
        for iq, J in enumerate(f.q_indices()):
            ins = _insert_index(j, J)
            if ins is None:
                continue
            sign, Jnew = ins
            out.comps[:, out.pos_q(Jnew)] += (p_sign * sign) * deriv[:, iq]
    return out


def d_flat(f: MatrixFormField) -> MatrixFormField:
    """Background del: raises holomorphic degree by one."""
    n = f.base.n
    if f.p + 1 > n:
        raise ValueError(f"d overflows bidegree: p={f.p} with n={n}")
    out = MatrixFormField.zeros(f.base, f.p + 1, f.q, f.rows, f.cols)
    for i in range(n):
        deriv = _dz_component(f, i, bar=False)
        for ip, I in enumerate(f.p_indices()):
            ins = _insert_index(i, I)
            if ins is None:
                continue
            sign, Inew = ins
            out.comps[out.pos_p(Inew)] += sign * deriv[ip]
    return out


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
    out = MatrixFormField.zeros(a.base, p, q, a.rows, b.cols)
    cross = -1 if (a.q * b.p) % 2 else 1
    for ip1, I1 in enumerate(a.p_indices()):
        for iq1, J1 in enumerate(a.q_indices()):
            for ip2, I2 in enumerate(b.p_indices()):
                mi = _merge_indices(I1, I2)
                if mi is None:
                    continue
                for iq2, J2 in enumerate(b.q_indices()):
                    mj = _merge_indices(J1, J2)
                    if mj is None:
                        continue
                    sign = cross * mi[0] * mj[0]
                    out.comps[out.pos_p(mi[1]), out.pos_q(mj[1])] += \
                        sign * (a.comps[ip1, iq1] @ b.comps[ip2, iq2])
    return out


def contract_lambda(f: MatrixFormField) -> MatrixFormField:
    """Contraction by the Kahler form: (1,1)-forms to (0,0)-fields.

    Lambda(a_{ij} dz^i wedge dzbar^j) = -2i sum_i a_{ii}, which makes
    Lambda(omega M) = n M under the fixed omega convention.
    """
    if (f.p, f.q) != (1, 1):
        raise ValueError(f"contraction needs bidegree (1,1), got ({f.p},{f.q})")
    acc = np.zeros(f.base.shape + (f.rows, f.cols), np.complex128)
    for i in range(f.base.n):
        acc += f.comps[i, i]
    out = MatrixFormField.zeros(f.base, 0, 0, f.rows, f.cols)
    out.comps[0, 0] = -2j * acc
    return out


def dbar_adjoint(f: MatrixFormField, H: np.ndarray | None = None) -> MatrixFormField:
    """Discrete adjoint-type operator lowering q by one.

    Sign convention matches the integration-by-parts identity
    <dbar a, b> + <a, dbar_adjoint(b)> = 0 in the H-weighted L^2 pairing;
    on the periodic grid the identity holds to roundoff for any metric.
    """
    if f.q == 0:
        raise ValueError("adjoint needs q >= 1")
    if f.rows != f.cols:
        raise ValueError("metric-weighted adjoint expects square blocks")
    out = MatrixFormField.zeros(f.base, f.p, f.q - 1, f.rows, f.cols)
    Hinv = None if H is None else inv(H)
    p_sign = -1 if f.p % 2 else 1
    h = f.base.spacing
    for iq, J in enumerate(f.q_indices()):
        for j in J:
            ins = _insert_index(j, tuple(k for k in J if k != j))
            sign, _ = ins
            comp = f.comps[:, iq]
            sandwich = comp if H is None else H @ comp @ Hinv
            dx = (np.roll(sandwich, -1, axis=1 + 2 * j) - np.roll(sandwich, 1, axis=1 + 2 * j)) / (2 * h)
            dy = (np.roll(sandwich, -1, axis=2 + 2 * j) - np.roll(sandwich, 1, axis=2 + 2 * j)) / (2 * h)
            dz = 0.5 * (dx - 1j * dy)
            term = dz if H is None else Hinv @ dz @ H
            out.comps[:, out.pos_q(tuple(k for k in J if k != j))] += \
                (2.0 * p_sign * sign) * term
    return out


# -- inner products, norms, integration -------------------------------------------


def _endo_inner(a: np.ndarray, b: np.ndarray, H: np.ndarray | None,
                H_col: np.ndarray | None) -> np.ndarray:
    """Pointwise tr(a b^{*}) with the metric adjoint b^{*} = H_col^{-1} b^dag H."""
    bh = dagger(b)
    if H is None and H_col is None:
        return np.einsum("...ij,...ji->...", a, bh)
    Hr = H if H is not None else np.eye(a.shape[-2])
    Hc_inv = inv(H_col) if H_col is not None else np.eye(a.shape[-1])
    return np.einsum("...ij,...jk,...kl,...li->...", a, Hc_inv, bh, Hr)


def pointwise_inner(a: MatrixFormField, b: MatrixFormField,
                    H: np.ndarray | None = None,
                    H_col: np.ndarray | None = None) -> np.ndarray:
    """Pointwise Hermitian inner product <a, b>_H as a complex grid field.

    Form indices carry the flat metric with |dz^i|^2 = 2; endomorphism values
    use the metric H on the row factor and H_col on the column factor (both
    default to the identity, and H_col defaults to H for square blocks).
    """
    if (a.p, a.q, a.rows, a.cols) != (b.p, b.q, b.rows, b.cols):
        raise ValueError("inner product needs matching degrees and block shape")
    if H_col is None and a.rows == a.cols:
        H_col = H
    weight = 2.0 ** (a.p + a.q)
    acc = np.zeros(a.base.shape, np.complex128)
    for ip in range(a.comps.shape[0]):
        for iq in range(a.comps.shape[1]):
            acc += _endo_inner(a.comps[ip, iq], b.comps[ip, iq], H, H_col)
    return weight * acc


def pointwise_norm2(a: MatrixFormField, H: np.ndarray | None = None,
                    H_col: np.ndarray | None = None) -> np.ndarray:
    """Pointwise |a|^2_H as a real grid field."""
    return np.real(pointwise_inner(a, a, H, H_col))


def integrate(s: np.ndarray | float, base: TorusBase) -> float:
    """Riemann sum against omega^n/n!; exact for trigonometric polynomials."""
    arr = np.asarray(s)
    if arr.ndim == 0:
        return float(np.real(arr)) * base.volume
    return float(np.real(arr.sum())) * base.spacing ** (2 * base.n)


def l2_norm(a: MatrixFormField, H: np.ndarray | None = None,
            H_col: np.ndarray | None = None) -> float:
    return float(np.sqrt(max(integrate(pointwise_norm2(a, H, H_col), a.base), 0.0)))


def sup_norm(a: MatrixFormField, H: np.ndarray | None = None,
             H_col: np.ndarray | None = None) -> float:
    return float(np.sqrt(max(pointwise_norm2(a, H, H_col).max(), 0.0)))


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
