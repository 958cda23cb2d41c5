"""Higgs bundle states on the grid and their derived geometry.

A state is (holomorphic structure dbar_E = dbar + a, Higgs field phi,
Hermitian metric H). The Chern connection form b is rebuilt from (H, a)
whenever needed rather than stored, which turns metric compatibility into a
checkable postcondition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .grid import (MatrixFormField, MixedField, TorusBase, contract_lambda,
                   d_flat, dbar_flat, integrate, pointwise_norm2, sup_norm,
                   tr_field, wedge)
from .linalg import dagger, inv, is_positive_definite, min_eigvalsh

__all__ = [
    "HermitianMetric", "HiggsStructure", "HiggsBundleState", "ValidityReport",
    "validate_structure", "chern_connection", "curvature", "CurvatureParts",
    "higgs_adjoint", "adjoint_field", "hitchin_simpson_curvature",
    "HitchinSimpsonParts", "degree_slope_lambda", "hermiticity_residual",
]


@dataclass(eq=False)
class HermitianMetric:
    """Grid of Hermitian positive-definite r x r matrices."""

    base: TorusBase
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.ascontiguousarray(self.mat, dtype=np.complex128)
        if self.mat.shape[:-2] != self.base.shape or self.mat.shape[-1] != self.mat.shape[-2]:
            raise ValueError(f"metric array shape {self.mat.shape} does not match the grid")

    @classmethod
    def identity(cls, base: TorusBase, rank: int) -> "HermitianMetric":
        mat = np.broadcast_to(np.eye(rank, dtype=np.complex128),
                              base.shape + (rank, rank)).copy()
        return cls(base, mat)

    @property
    def rank(self) -> int:
        return self.mat.shape[-1]

    @cached_property
    def inv(self) -> np.ndarray:
        return inv(self.mat)

    @cached_property
    def _positive(self) -> bool:
        return is_positive_definite(self.mat)

    def check_positive(self) -> None:
        """Raise unless every block is positive definite (a NaN block never is)."""
        if not self._positive:
            raise ValueError("metric not positive definite: min eigenvalue "
                             f"{min_eigvalsh(self.mat):.3e}")

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.mat - dagger(self.mat)).max())

    def as_field(self) -> MatrixFormField:
        out = MatrixFormField.zeros(self.base, 0, 0, self.rank)
        out.comps[0, 0] = self.mat
        return out


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

    def as_dict(self) -> dict:
        return asdict(self)


def validate_structure(s: HiggsStructure, tol: float | None = None) -> ValidityReport:
    """Residual sup-norms of the three Higgs-structure constraints.

    Integrability dbar(a) + a^a and symmetry phi^phi vanish identically for
    n = 1 (no (0,2) or (2,0) slot); both are measured with the flat metric
    since validity is independent of H.
    """
    if tol is None:
        tol = 1e-8 * (1.0 + max(sup_norm(s.a), sup_norm(s.phi)))
    n = s.base.n
    integ = sup_norm(dbar_flat(s.a) + wedge(s.a, s.a)) if n >= 2 else 0.0
    holo = sup_norm(dbar_flat(s.phi) + wedge(s.a, s.phi) + wedge(s.phi, s.a))
    symm = sup_norm(wedge(s.phi, s.phi)) if n >= 2 else 0.0
    return ValidityReport(integ, holo, symm, tol,
                          valid=max(integ, holo, symm) <= tol)


def chern_connection(H: HermitianMetric, a: MatrixFormField) -> MatrixFormField:
    """(1,0) connection form b making dbar+a, d+b compatible with H.

    b = H^{-1} del H - H^{-1} a^dag H, the unique form with
    del H(s,t) = H(D^{1,0}s, t) + H(s, dbar_E t).
    """
    H.check_positive()
    return d_flat(H.as_field()).sandwich(H.inv) - adjoint_field(a, H)


@dataclass(eq=False)
class CurvatureParts:
    """Chern curvature split by bidegree, from the connection (dbar + a, d + b).

    f11 is built with the object; f20 and f02 are built from b and a on
    first access, and are None when n = 1. For valid inputs they vanish to
    truncation order; they are computed, never assumed zero.
    """

    f11: MatrixFormField
    b: MatrixFormField
    a: MatrixFormField

    @cached_property
    def f20(self) -> MatrixFormField | None:
        if self.b.base.n < 2:
            return None
        return d_flat(self.b) + wedge(self.b, self.b)

    @cached_property
    def f02(self) -> MatrixFormField | None:
        if self.a.base.n < 2:
            return None
        return dbar_flat(self.a) + wedge(self.a, self.a)


def curvature(H: HermitianMetric, a: MatrixFormField,
              b: MatrixFormField | None = None) -> CurvatureParts:
    """Curvature of the Chern connection of (H, dbar + a).

    b is that connection's (1,0) form when the caller already holds it.
    """
    if b is None:
        b = chern_connection(H, a)
    f11 = dbar_flat(b) + d_flat(a) + wedge(a, b) + wedge(b, a)
    return CurvatureParts(f11, b, a)


def adjoint_field(f: MatrixFormField, H: HermitianMetric | None = None,
                  H_col: HermitianMetric | None = None) -> MatrixFormField:
    """Metric adjoint: X -> H_col^{-1} X^dag H_row with dz <-> dzbar.

    For an endomorphism-valued form pass H once; for Hom(Q,S)-valued blocks
    H is the S-side (row) metric and H_col the Q-side metric, giving the
    second-fundamental-form adjoints gamma* = H_Q^{-1} gamma^dag H_S.
    """
    if H_col is None:
        H_col = H
    star = MatrixFormField(f.base, f.q, f.p, np.swapaxes(dagger(f.comps), 0, 1))
    return star.sandwich(None if H_col is None else H_col.inv,
                         None if H is None else H.mat)


def higgs_adjoint(phi: MatrixFormField, H: HermitianMetric) -> MatrixFormField:
    """phi^{*H} = H^{-1} phi^dag H on matrix parts, dz -> dzbar on form parts."""
    H.check_positive()
    return adjoint_field(phi, H)


@dataclass(eq=False)
class HitchinSimpsonParts:
    """The Hitchin-Simpson curvature by bidegree, with its ingredients.

    part11 = F_H + [phi, phi^{*H}] is built with the object. del_H phi (2,0)
    and dbar_E phi^{*H} (0,2) are built from b, a, phi and phi^{*H} on first
    access, and are None when n = 1; parts holds every part that exists.
    """

    chern: CurvatureParts
    phi: MatrixFormField
    phistar: MatrixFormField
    bracket: MatrixFormField          # [phi, phi^{*H}], type (1,1)
    part11: MatrixFormField

    @cached_property
    def del_phi(self) -> MatrixFormField | None:
        b, phi = self.chern.b, self.phi
        if phi.base.n < 2:
            return None
        return d_flat(phi) + wedge(b, phi) + wedge(phi, b)

    @cached_property
    def dbar_phistar(self) -> MatrixFormField | None:
        a, phistar = self.chern.a, self.phistar
        if phistar.base.n < 2:
            return None
        return dbar_flat(phistar) + wedge(a, phistar) + wedge(phistar, a)

    @property
    def parts(self) -> MixedField:
        """part11, del_H phi and dbar_E phi^{*H}, in that order, as they exist."""
        return MixedField(f for f in (self.part11, self.del_phi, self.dbar_phistar)
                          if f is not None)

    def pointwise_energy(self, H: HermitianMetric) -> np.ndarray:
        """|F + [phi,phi*]|^2 + 2|del phi|^2, the YMH integrand."""
        e = pointwise_norm2(self.part11, H.mat)
        if self.del_phi is not None:
            e = e + 2.0 * pointwise_norm2(self.del_phi, H.mat)
        return e

    def sup_norm(self, H: HermitianMetric) -> float:
        """sup |F_HS| over all parts (distinct degrees are orthogonal)."""
        return self.parts.sup(H.mat)


def hitchin_simpson_curvature(state: HiggsBundleState) -> HitchinSimpsonParts:
    """Chern curvature, Higgs bracket and the (1,1) part; the rest on demand."""
    a, phi, H = state.structure.a, state.structure.phi, state.metric
    chern = curvature(H, a)
    phistar = higgs_adjoint(phi, H)
    bracket = wedge(phi, phistar) + wedge(phistar, phi)
    return HitchinSimpsonParts(chern, phi, phistar, bracket, chern.f11 + bracket)


def degree_slope_lambda(state: HiggsBundleState,
                        f11: MatrixFormField | None = None) -> tuple[float, float, float]:
    """Degree, slope and the Einstein constant of the state.

    deg = (1/2pi) integral of tr(i Lambda F); the Higgs bracket is traceless
    so it never contributes. lambda = 2 pi * slope / Vol. f11 is the (1,1)
    Chern curvature when the caller already holds it.
    """
    if f11 is None:
        f11 = curvature(state.metric, state.structure.a).f11
    s = tr_field(contract_lambda(f11))
    deg = integrate(np.real(1j * s.comps[0, 0, ..., 0, 0]), state.base) / (2.0 * np.pi)
    mu = deg / state.rank
    lam = 2.0 * np.pi * mu / state.base.volume
    return deg, mu, lam


def hermiticity_residual(f11: MatrixFormField, H: HermitianMetric) -> float:
    """Deviation from the curvature-type relation (F_{ij})^{*H} = F_{ji}.

    Zero in the continuum for Chern curvatures and Higgs brackets; the
    discrete value is pure truncation error.
    """
    return float(np.abs((adjoint_field(f11, H) - f11).comps).max())
