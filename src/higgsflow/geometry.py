"""Higgs bundle states on the grid and their derived geometry.

A state is (holomorphic structure dbar_E = dbar + a, Higgs field phi,
Hermitian metric H). The Chern connection form b is rebuilt from (H, a)
whenever needed rather than stored, which turns metric compatibility into a
checkable postcondition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .grid import (MatrixFormField, TorusBase, _contract_slots, _dz_component,
                   _hom_d, _norm2_of_slots, _sup, d_flat, dbar_flat, integrate,
                   pointwise_norm2, sup_norm, wedge)
from .linalg import (_trailing, dagger, hermitize, inv, is_positive_definite,
                     min_eigvalsh, mm, sqrtm_hpd, trace)

__all__ = [
    "HermitianMetric", "HiggsStructure", "HiggsBundleState", "ValidityReport",
    "validate_structure", "adjoint_field", "Curvature",
]


@dataclass(eq=False)
class HermitianMetric:
    """Grid of Hermitian positive-definite r x r matrices.

    mat has shape (*grid, r, r): a read-only view (frame and inv cannot go
    stale) of one C-contiguous complex array of shape (r, r, *grid), a copy
    unless the caller's array is one, which is then frozen. Positivity is
    checked once, here: a ValueError counts the non-finite blocks, or else
    gives the smallest eigenvalue. Then mat must be Hermitian to 1e-12 of
    its largest entry.

    frame is (L, L^{-1}) with L^dag L = H, built on first read and kept: L
    is the factor of a metric built as L^dag L (from_frame), else the
    Hermitian root H^{1/2}. The flows step in it: a metric flow roots its
    start (never the unit metric), and a pair flow gauges its start by it.

    unit is True for the one metric that identity() makes per grid and
    rank: adjoint_field takes every adjoint in it as a dagger.
    """

    base: TorusBase
    mat: np.ndarray
    _factor = None  # L of from_frame
    unit = False

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if mat.shape[:-2] != self.base.shape or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"metric array shape {mat.shape} does not match the grid")
        self.mat = mat = _trailing(mat)
        mat.flags.writeable = False
        reason = None
        try:
            if not is_positive_definite(mat):
                bad = np.count_nonzero(~np.isfinite(mat).all(axis=(-2, -1)))
                reason = (f"{bad} non-finite blocks" if bad else
                          f"min eigenvalue {min_eigvalsh(mat):.3e}")
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"metric not positive definite: {exc}") from exc
        if reason is not None:
            raise ValueError(f"metric not positive definite: {reason}")
        # positivity reads the Hermitian part alone, and so does frame, but
        # inv inverts the whole matrix
        if np.abs(mat - dagger(mat)).max() > 1e-12 * np.abs(mat).max():
            raise ValueError("metric is not Hermitian")

    @classmethod
    @cache
    def identity(cls, base: TorusBase, rank: int) -> "HermitianMetric":
        """The unit metric of the grid and rank, made once and shared. Its
        mat is read-only, so the unit marker cannot go stale, and it is its
        own inverse and its own frame: no inverse or root of I is taken."""
        metric = cls(base, np.broadcast_to(np.eye(rank, dtype=np.complex128),
                                           base.shape + (rank, rank)))
        metric.unit = True
        metric.inv, metric.frame = metric.mat, (metric.mat, metric.mat)
        return metric

    @classmethod
    def from_frame(cls, base: TorusBase, L: np.ndarray) -> "HermitianMetric":
        """The metric L^dag L, whose frame is L. The Gram form is positive
        whenever L is invertible; its Hermitian part is taken to make it
        Hermitian exactly."""
        metric = cls(base, hermitize(mm(dagger(L), L)))
        metric._factor = L
        return metric

    @property
    def rank(self) -> int:
        return self.mat.shape[-1]

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        L = sqrtm_hpd(self.mat) if self._factor is None else self._factor
        return L, inv(L)

    @cached_property
    def inv(self) -> np.ndarray:
        return inv(self.mat)

    def as_field(self) -> MatrixFormField:
        """H as a (0,0) form: a copy, since mat is read-only."""
        return MatrixFormField(self.base, 0, 0, self.mat[None, None])


@dataclass(eq=False)
class HiggsStructure:
    """Holomorphic structure offset a (0,1) and Higgs field phi (1,0)."""

    a: MatrixFormField
    phi: MatrixFormField

    def __post_init__(self):
        if (self.a.p, self.a.q) != (0, 1):
            raise ValueError("a must be a (0,1)-form")
        if (self.phi.p, self.phi.q) != (1, 0):
            raise ValueError("phi must be a (1,0)-form")
        if self.a.rows != self.phi.rows or self.a.base != self.phi.base:
            raise ValueError("a and phi must share grid and rank")

    @property
    def base(self) -> TorusBase:
        return self.a.base

    @property
    def rank(self) -> int:
        return self.a.rows


@dataclass(eq=False)
class HiggsBundleState:
    structure: HiggsStructure
    metric: HermitianMetric

    def __post_init__(self):
        if self.metric.rank != self.structure.rank:
            raise ValueError("metric rank does not match the structure")
        if self.metric.base != self.structure.base:
            raise ValueError("metric grid does not match the structure")

    @property
    def base(self) -> TorusBase:
        return self.structure.base

    @property
    def rank(self) -> int:
        return self.structure.rank


@dataclass(frozen=True)
class ValidityReport:
    integrability: float
    holomorphy: float
    symmetry: float
    tol: float
    valid: bool


def validate_structure(s: HiggsStructure, tol: float | None = None) -> ValidityReport:
    """Residual sup-norms of the Higgs-structure constraints: integrability
    dbar(a) + a^a, holomorphy dbar_E phi and symmetry phi^phi, in the flat
    metric since validity is independent of H. Integrability and symmetry
    vanish identically for n = 1 (no (0,2) or (2,0) slot)."""
    if tol is None:
        tol = 1e-8 * (1.0 + max(sup_norm(s.a), sup_norm(s.phi)))
    a, phi = s.a, s.phi
    holo = sup_norm(_hom_d(dbar_flat, phi, a, a))
    integ = symm = 0.0
    if s.base.n >= 2:
        integ = sup_norm(_hom_d(dbar_flat, a, a))
        symm = sup_norm(wedge(phi, phi))
    return ValidityReport(integ, holo, symm, tol,
                          valid=max(integ, holo, symm) <= tol)


def _metric_connection(H: HermitianMetric) -> MatrixFormField:
    """H^{-1} del H, the part of the Chern connection form that the metric
    alone sets."""
    return d_flat(H.as_field()).sandwich(H.inv)


def adjoint_field(f: MatrixFormField,
                  H: HermitianMetric | None = None) -> MatrixFormField:
    """Metric adjoint: X -> H^{-1} X^dag H with dz <-> dzbar; under no
    metric or the unit metric, the dagger X^dag alone."""
    dag = MatrixFormField(f.base, f.q, f.p, dagger(np.swapaxes(f.comps, 0, 1)))
    return dag if H is None or H.unit else dag.sandwich(H.inv, H.mat)


@dataclass(eq=False)
class Curvature:
    """The Hitchin-Simpson curvature of a state by bidegree, with its
    ingredients.

    Each part is built on first read and then kept: the Chern connection
    form b, phi^{*H}, the Chern curvature f11 (and f20, f02), the bracket
    [phi, phi^{*H}], part11 = f11 + bracket, del_H phi (2,0) and
    dbar_E phi^{*H} (0,2). f11, the bracket and part11 are assembled from
    their slots (_slot); deviation() and degree read only the diagonal ones.
    The parts of degree (2,0) or (0,2) are None when n = 1; for valid
    inputs they vanish to truncation order, and they are computed, never
    assumed zero. Norms are taken in the state's metric, by norm2.

    Under a unit metric (HermitianMetric.identity) b = -a^dag and
    phi^{*H} = phi^dag, with dz <-> dzbar: no metric connection, inverse
    or sandwich is built, and every part equals that of the same matrices
    under an unmarked metric.
    """

    state: HiggsBundleState

    def __post_init__(self):
        self._kept = {}  # (k, i, j) -> slot, see _slot
        self._norm2 = {}  # bidegree -> pointwise |part|^2_H, see norm2

    @cached_property
    def b(self) -> MatrixFormField:
        """(1,0) connection form b making dbar+a, d+b compatible with H.

        b = H^{-1} del H - H^{-1} a^dag H, the unique form with
        del H(s,t) = H(D^{1,0}s, t) + H(s, dbar_E t).
        """
        H, a = self.state.metric, self.state.structure.a
        if H.unit:
            # 0 - a^dag, as H^{-1} del H - ... reads when del H is exactly 0
            a_dag = adjoint_field(a)
            np.subtract(0.0, a_dag.comps, out=a_dag.comps)
            return a_dag
        return _metric_connection(H) - adjoint_field(a, H)

    @cached_property
    def phistar(self) -> MatrixFormField:
        """phi^{*H} = H^{-1} phi^dag H on matrix parts, dz -> dzbar on form
        parts."""
        return adjoint_field(self.state.structure.phi, self.state.metric)

    def _slot(self, k: int, i: int, j: int) -> np.ndarray:
        """Slot (i, j) of F_H (k = 0), of [phi, phi^{*H}] (k = 1) or of their
        sum (k = 2), built on first read and kept.

        Slot (i, j) of F_H is -dbar_j b_i + del_i a_j - a_j b_i + b_i a_j,
        and that of the bracket phi_i phi*_j - phi*_j phi_i: the terms of
        dbar_flat, d_flat and wedge, taken and summed in their order, so
        every slot of f11 and of part11 equals that of the generic form
        calculus to the bit.

        Under a unit metric b_i = -a_i^dag, so -dbar_i b_i = (del_i a_i)^dag,
        and a diagonal slot takes one derivative d = del_i a_i: its first
        two terms are d^dag + d, the same bits, signed zeros included. An
        off-diagonal slot keeps the generic formula, so that f11 and part11
        equal those under an unmarked metric to the bit: there slot (j, i)
        is the dagger of slot (i, j) only up to roundoff.
        """
        if (k, i, j) not in self._kept:
            if k == 0:
                base = self.state.base
                a_j, b_i = self.state.structure.a.comps[0, j], self.b.comps[i, 0]
                if i == j and self.state.metric.unit:
                    d = _dz_component(a_j, base, i, False)
                    slot = dagger(d)
                    slot += d
                else:
                    slot = _dz_component(b_i, base, j, True)
                    # 0 - x, not -x, as in the zero-filled sums of dbar_flat
                    # and wedge
                    np.subtract(0.0, slot, out=slot)
                    slot += _dz_component(a_j, base, i, False)
                slot -= mm(a_j, b_i)
                slot += mm(b_i, a_j)
            elif k == 1:
                phi_i = self.state.structure.phi.comps[i, 0]
                phistar_j = self.phistar.comps[0, j]
                slot = mm(phi_i, phistar_j)
                slot -= mm(phistar_j, phi_i)
            else:
                slot = self._slot(0, i, j) + self._slot(1, i, j)
            self._kept[k, i, j] = slot
        return self._kept[k, i, j]

    def _assemble(self, k: int) -> MatrixFormField:
        """F_H (k = 0), the bracket (k = 1) or part11 (k = 2) from its
        slots; each kept slot then becomes a view into the assembled field."""
        base = self.state.base
        out = MatrixFormField.zeros(base, 1, 1, self.state.rank)
        for i, j in itertools.product(range(base.n), repeat=2):
            out.comps[i, j] = self._slot(k, i, j)
            self._kept[k, i, j] = out.comps[i, j]
        return out

    @cached_property
    def f11(self) -> MatrixFormField:
        return self._assemble(0)

    @cached_property
    def f20(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        return _hom_d(d_flat, self.b, self.b)

    @cached_property
    def f02(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        a = self.state.structure.a
        return _hom_d(dbar_flat, a, a)

    @cached_property
    def bracket(self) -> MatrixFormField:
        """[phi, phi^{*H}], type (1,1)."""
        return self._assemble(1)

    @cached_property
    def part11(self) -> MatrixFormField:
        """F_H + [phi, phi^{*H}]."""
        return self._assemble(2)

    @cached_property
    def del_phi(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        return _hom_d(d_flat, self.state.structure.phi, self.b, self.b)

    @cached_property
    def dbar_phistar(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        a = self.state.structure.a
        return _hom_d(dbar_flat, self.phistar, a, a)

    _PARTS = {(1, 1): "part11", (2, 0): "del_phi", (0, 2): "dbar_phistar"}

    @property
    def bidegrees(self) -> tuple[tuple[int, int], ...]:
        """The bidegrees of the parts: (1,1), and (2,0) and (0,2) when n = 2."""
        return tuple(self._PARTS) if self.state.base.n > 1 else ((1, 1),)

    @property
    def parts(self) -> dict[tuple[int, int], MatrixFormField]:
        """part11, del_H phi and dbar_E phi^{*H} by bidegree, as they exist."""
        return {key: getattr(self, self._PARTS[key]) for key in self.bidegrees}

    def norm2(self, key: tuple[int, int]) -> np.ndarray:
        """Pointwise |part|^2_H of the part of bidegree key, built on first
        read and kept read-only, from that part alone. Under a unit
        metric the (1,1) entry is reduced from the upper slots, slot (j, i)
        read as the dagger of slot (i, j), of the same norm: slot (1, 0) is
        never built, and |S01|^2 is reduced once and added twice."""
        if key not in self._norm2:
            n, H = self.state.base.n, self.state.metric
            if key == (1, 1) and H.unit:
                norm = _norm2_of_slots((self._slot(2, min(ij), max(ij)) for ij
                                        in itertools.product(range(n), repeat=2)),
                                       4.0, self.state.base.shape)
            else:
                norm = pointwise_norm2(getattr(self, self._PARTS[key]), H)
            norm.flags.writeable = False
            self._norm2[key] = norm
        return self._norm2[key]

    @cached_property
    def degree(self) -> float:
        """deg = (1/2pi) integral of tr(i Lambda F_H), from the diagonal
        slots of F_H; the Higgs bracket is traceless, so it never
        contributes. A reported check, never an input of K."""
        lambda_f11 = _contract_slots([self._slot(0, i, i)
                                      for i in range(self.state.base.n)])
        return integrate(np.real(1j * trace(lambda_f11)),
                         self.state.base) / (2.0 * np.pi)

    def deviation(self) -> MatrixFormField:
        """K = i Lambda(F_H + [phi, phi^{*H}]), a new (0,0) field, from the
        diagonal slots alone: a bundle trivialized over the torus has degree
        0, so the Einstein constant lambda is 0 and K has no lambda Id term.

        K is H-self-adjoint up to truncation error; the flow steps read it
        in the metric's frame L (L^dag L = H), where its Hermitian part is
        taken, so positivity is exact.
        """
        slots = [self._slot(2, i, i) for i in range(self.state.base.n)]
        return MatrixFormField(self.state.base, 0, 0,
                               (_contract_slots(slots) * 1j)[None, None])

    def pointwise_energy(self) -> np.ndarray:
        """|F + [phi,phi*]|^2 + 2|del phi|^2, the YMH integrand."""
        e = self.norm2((1, 1))
        if self.state.base.n > 1:
            e = e + 2.0 * self.norm2((2, 0))
        return e

    def sup_norm(self) -> float:
        """sup |F_HS| over all parts (distinct degrees are orthogonal)."""
        return _sup(sum(self.norm2(key) for key in self.bidegrees))
