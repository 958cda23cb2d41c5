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
                   wedge)
from .linalg import (_trailing, dagger, inv, is_positive_definite, min_eigvalsh,
                     trace)

__all__ = [
    "HermitianMetric", "HiggsStructure", "HiggsBundleState", "ValidityReport",
    "validate_structure", "chern_connection", "higgs_adjoint", "adjoint_field",
    "Curvature", "degree_slope_lambda",
]


@dataclass(eq=False)
class HermitianMetric:
    """Grid of Hermitian positive-definite r x r matrices.

    mat has shape (*grid, r, r) and is a view of one C-contiguous complex
    array of shape (r, r, *grid), as MatrixFormField.comps is.
    """

    base: TorusBase
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if mat.shape[:-2] != self.base.shape or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"metric array shape {mat.shape} does not match the grid")
        self.mat = _trailing(mat)

    @classmethod
    def identity(cls, base: TorusBase, rank: int) -> "HermitianMetric":
        return cls(base, np.broadcast_to(np.eye(rank, dtype=np.complex128),
                                         base.shape + (rank, rank)))

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
        """Raise ValueError unless every block is positive definite.

        The message counts the non-finite blocks, or else gives the smallest
        eigenvalue.
        """
        try:
            if self._positive:
                return
            bad = np.count_nonzero(~np.isfinite(self.mat).all(axis=(-2, -1)))
            if bad:
                reason = f"{bad} non-finite blocks"
            else:
                reason = f"min eigenvalue {min_eigvalsh(self.mat):.3e}"
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"metric not positive definite: {exc}") from exc
        raise ValueError(f"metric not positive definite: {reason}")

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
    return _metric_connection(H) - adjoint_field(a, H)


def _metric_connection(H: HermitianMetric) -> MatrixFormField:
    """H^{-1} del H, the part of the Chern connection form that the metric
    alone sets; the pair flow, whose metric is frozen, builds it once."""
    H.check_positive()
    return d_flat(H.as_field()).sandwich(H.inv)


def adjoint_field(f: MatrixFormField, H: HermitianMetric | None = None,
                  H_col: HermitianMetric | None = None) -> MatrixFormField:
    """Metric adjoint: X -> H_col^{-1} X^dag H_row with dz <-> dzbar.

    For an endomorphism-valued form pass H once; for Hom(Q,S)-valued blocks
    H is the S-side (row) metric and H_col the Q-side metric, giving the
    second-fundamental-form adjoints gamma* = H_Q^{-1} gamma^dag H_S.
    """
    if H_col is None:
        H_col = H
    return _form_dagger(f).sandwich(None if H_col is None else H_col.inv,
                                    None if H is None else H.mat)


def _form_dagger(f: MatrixFormField) -> MatrixFormField:
    """f^dag with dz <-> dzbar, the metric-free half of adjoint_field; the
    metric flow, whose structure is frozen, takes it of a and phi once."""
    return MatrixFormField(f.base, f.q, f.p, dagger(np.swapaxes(f.comps, 0, 1)))


def higgs_adjoint(phi: MatrixFormField, H: HermitianMetric) -> MatrixFormField:
    """phi^{*H} = H^{-1} phi^dag H on matrix parts, dz -> dzbar on form parts."""
    H.check_positive()
    return adjoint_field(phi, H)


@dataclass(eq=False)
class Curvature:
    """The Hitchin-Simpson curvature of a state by bidegree, with its
    ingredients.

    Each part is built on first read and then kept: the Chern connection
    form b, phi^{*H}, the Chern curvature f11 (and f20, f02), the bracket
    [phi, phi^{*H}], part11 = f11 + bracket, del_H phi (2,0) and
    dbar_E phi^{*H} (0,2). The parts of degree (2,0) or (0,2) are None when
    n = 1; for valid inputs they vanish to truncation order, and they are
    computed, never assumed zero. Norms are taken in the state's metric.
    """

    state: HiggsBundleState

    @cached_property
    def b(self) -> MatrixFormField:
        return chern_connection(self.state.metric, self.state.structure.a)

    @cached_property
    def phistar(self) -> MatrixFormField:
        return higgs_adjoint(self.state.structure.phi, self.state.metric)

    @cached_property
    def f11(self) -> MatrixFormField:
        a, b = self.state.structure.a, self.b
        return dbar_flat(b) + d_flat(a) + wedge(a, b) + wedge(b, a)

    @cached_property
    def f20(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        return d_flat(self.b) + wedge(self.b, self.b)

    @cached_property
    def f02(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        a = self.state.structure.a
        return dbar_flat(a) + wedge(a, a)

    @cached_property
    def bracket(self) -> MatrixFormField:
        """[phi, phi^{*H}], type (1,1)."""
        phi, phistar = self.state.structure.phi, self.phistar
        return wedge(phi, phistar) + wedge(phistar, phi)

    @cached_property
    def part11(self) -> MatrixFormField:
        """F_H + [phi, phi^{*H}]."""
        return self.f11 + self.bracket

    @cached_property
    def del_phi(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        b, phi = self.b, self.state.structure.phi
        return d_flat(phi) + wedge(b, phi) + wedge(phi, b)

    @cached_property
    def dbar_phistar(self) -> MatrixFormField | None:
        if self.state.base.n < 2:
            return None
        a, phistar = self.state.structure.a, self.phistar
        return dbar_flat(phistar) + wedge(a, phistar) + wedge(phistar, a)

    @property
    def parts(self) -> MixedField:
        """part11, del_H phi and dbar_E phi^{*H}, in that order, as they exist."""
        return MixedField(f for f in (self.part11, self.del_phi, self.dbar_phistar)
                          if f is not None)

    def pointwise_energy(self) -> np.ndarray:
        """|F + [phi,phi*]|^2 + 2|del phi|^2, the YMH integrand."""
        H = self.state.metric
        e = pointwise_norm2(self.part11, H)
        if self.del_phi is not None:
            e = e + 2.0 * pointwise_norm2(self.del_phi, H)
        return e

    def sup_norm(self) -> float:
        """sup |F_HS| over all parts (distinct degrees are orthogonal)."""
        return self.parts.sup(self.state.metric)


def degree_slope_lambda(state: HiggsBundleState,
                        f11: MatrixFormField | None = None) -> tuple[float, float, float]:
    """Degree, slope and the Einstein constant of the state.

    deg = (1/2pi) integral of tr(i Lambda F); the Higgs bracket is traceless
    so it never contributes. lambda = 2 pi * slope / Vol. f11 is the (1,1)
    Chern curvature when the caller already holds it.
    """
    if f11 is None:
        f11 = Curvature(state).f11
    return _degree_slope_lambda(state, contract_lambda(f11).comps[0, 0])


def _degree_slope_lambda(state: HiggsBundleState,
                         lambda_f11: np.ndarray) -> tuple[float, float, float]:
    """degree_slope_lambda from Lambda F_H, a (*grid, r, r) array."""
    deg = integrate(np.real(1j * trace(lambda_f11)), state.base) / (2.0 * np.pi)
    mu = deg / state.rank
    lam = 2.0 * np.pi * mu / state.base.volume
    return deg, mu, lam

