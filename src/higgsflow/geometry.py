"""Higgs bundle states on the grid and their derived geometry.

A state is (holomorphic structure dbar_E = dbar + a, Higgs field phi,
Hermitian metric H). The Chern connection form b is rebuilt from (H, a)
whenever needed rather than stored, which turns metric compatibility into a
checkable postcondition.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .grid import (MatrixFormField, MixedField, TorusBase, _contract_slots,
                   _dz_component, d_flat, dbar_flat, integrate, pointwise_norm2,
                   sup_norm, wedge)
from .linalg import (_trailing, dagger, inv, is_positive_definite, min_eigvalsh,
                     mm, trace)

__all__ = [
    "HermitianMetric", "HiggsStructure", "HiggsBundleState", "ValidityReport",
    "validate_structure", "adjoint_field", "Curvature",
]


@dataclass(eq=False)
class HermitianMetric:
    """Grid of Hermitian positive-definite r x r matrices.

    mat has shape (*grid, r, r) and is a view of one C-contiguous complex
    array of shape (r, r, *grid), as MatrixFormField.comps is. Positivity is
    checked once, here: a ValueError counts the non-finite blocks, or else
    gives the smallest eigenvalue.
    """

    base: TorusBase
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if mat.shape[:-2] != self.base.shape or mat.shape[-1] != mat.shape[-2]:
            raise ValueError(f"metric array shape {mat.shape} does not match the grid")
        self.mat = _trailing(mat)
        try:
            if is_positive_definite(self.mat):
                return
            bad = np.count_nonzero(~np.isfinite(self.mat).all(axis=(-2, -1)))
            if bad:
                reason = f"{bad} non-finite blocks"
            else:
                reason = f"min eigenvalue {min_eigvalsh(self.mat):.3e}"
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"metric not positive definite: {exc}") from exc
        raise ValueError(f"metric not positive definite: {reason}")

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


def _metric_connection(H: HermitianMetric) -> MatrixFormField:
    """H^{-1} del H, the part of the Chern connection form that the metric
    alone sets."""
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
    """f^dag with dz <-> dzbar, the metric-free half of adjoint_field."""
    return MatrixFormField(f.base, f.q, f.p, dagger(np.swapaxes(f.comps, 0, 1)))


class _Held:
    """The parts of a flow's start that one half of it alone sets, each
    built on first read and then kept (Curvature._frozen): parts["metric"]
    holds H^{-1} del H, parts["structure"] a and phi daggered with
    dz <-> dzbar and the derivatives del_i a_j, keyed (i, j).

    A Curvature reads a part here only when its state shares that half
    with the start, compared by identity: the metric flow never replaces
    the structure, and the pair flow never replaces the metric. The first
    state that has replaced a half clears that half's parts.
    """

    def __init__(self, start: HiggsBundleState):
        self.start = start
        self.parts = {"metric": {}, "structure": {}}


@dataclass(eq=False)
class Curvature:
    """The Hitchin-Simpson curvature of a state by bidegree, with its
    ingredients.

    Each part is built on first read and then kept: the Chern connection
    form b, phi^{*H}, the Chern curvature f11 (and f20, f02), the bracket
    [phi, phi^{*H}], part11 = f11 + bracket, del_H phi (2,0) and
    dbar_E phi^{*H} (0,2). f11 and the bracket are assembled from their
    slots (_slot); deviation() and degree read only the diagonal ones.
    The parts of degree (2,0) or (0,2) are None when n = 1; for valid
    inputs they vanish to truncation order, and they are computed, never
    assumed zero. Norms are taken in the state's metric.

    held is a flow run's _Held: the parts that the state's unchanged half
    sets are read from it, and any other is built here and not kept. It
    never changes a bit of the result.
    """

    state: HiggsBundleState
    held: _Held | None = None

    def __post_init__(self):
        self._kept = {}  # (k, i, j) -> slot, see _slot

    def _frozen(self, half: str, key, build):
        """The part key = build(state) that the state's metric or structure
        (half) alone sets: read from held when the state shares that half
        with held's start, else built here and not kept."""
        if self.held is None:
            return build(self.state)
        parts = self.held.parts[half]
        if getattr(self.held.start, half) is not getattr(self.state, half):
            # the run has replaced this half: the start's parts of it, which
            # the start's own evaluation may have built, are read no more
            parts.clear()
            return build(self.state)
        if key not in parts:
            parts[key] = build(self.state)
        return parts[key]

    @cached_property
    def b(self) -> MatrixFormField:
        """(1,0) connection form b making dbar+a, d+b compatible with H.

        b = H^{-1} del H - H^{-1} a^dag H, the unique form with
        del H(s,t) = H(D^{1,0}s, t) + H(s, dbar_E t).
        """
        H = self.state.metric
        conn = self._frozen("metric", "conn", lambda s: _metric_connection(s.metric))
        a_dag = self._frozen("structure", "a_dag",
                             lambda s: _form_dagger(s.structure.a))
        return conn - a_dag.sandwich(H.inv, H.mat)

    @cached_property
    def phistar(self) -> MatrixFormField:
        """phi^{*H} = H^{-1} phi^dag H on matrix parts, dz -> dzbar on form
        parts."""
        H = self.state.metric
        return self._frozen("structure", "phi_dag", lambda s: _form_dagger(
            s.structure.phi)).sandwich(H.inv, H.mat)

    def _slot(self, k: int, i: int, j: int) -> np.ndarray:
        """Slot (i, j) of F_H (k = 0) or of [phi, phi^{*H}] (k = 1), built on
        first read and kept.

        Slot (i, j) of F_H is -dbar_j b_i + del_i a_j - a_j b_i + b_i a_j,
        and that of the bracket phi_i phi*_j - phi*_j phi_i: the terms of
        dbar_flat, d_flat and wedge, taken and summed in their order, so
        every slot of f11 and of part11 equals that of the generic form
        calculus to the bit.
        """
        if (k, i, j) not in self._kept:
            if k == 0:
                a_j, b_i = self.state.structure.a.comps[0, j], self.b.comps[i, 0]
                slot = _dz_component(b_i, self.state.base, j, True)
                # 0 - x, not -x, as in the zero-filled sums of dbar_flat and wedge
                np.subtract(0.0, slot, out=slot)
                slot += self._frozen("structure", (i, j), lambda s: _dz_component(
                    s.structure.a.comps[0, j], s.base, i, False))
                slot -= mm(a_j, b_i)
                slot += mm(b_i, a_j)
            else:
                phi_i = self.state.structure.phi.comps[i, 0]
                phistar_j = self.phistar.comps[0, j]
                slot = mm(phi_i, phistar_j)
                slot -= mm(phistar_j, phi_i)
            self._kept[k, i, j] = slot
        return self._kept[k, i, j]

    def _assemble(self, k: int) -> MatrixFormField:
        """F_H (k = 0) or the bracket (k = 1) from its slots; each kept slot
        then becomes a view into the assembled field."""
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
        return self._assemble(1)

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
        in the frame W = H^{1/2}, where its Hermitian part is taken, so
        positivity is exact.
        """
        slots = [self._slot(0, i, i) + self._slot(1, i, i)
                 for i in range(self.state.base.n)]
        return MatrixFormField(self.state.base, 0, 0,
                               (_contract_slots(slots) * 1j)[None, None])

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
