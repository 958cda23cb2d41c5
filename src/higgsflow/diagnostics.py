"""Chern-Weil accounting, topological integrals and flatness certificates.

The energy identity is evaluated as a residual report, never assumed: every
term is computed by its own route, so a nonzero residual localizes errors in
curvature, norms or quadrature simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import Curvature, HiggsBundleState
from .grid import (integrate, integrate_top_form, pointwise_norm2, tr_field,
                   wedge)

__all__ = [
    "ChernWeilReport", "chern_weil_report",
    "TopologicalIntegrals", "topological_integrals",
    "FlatnessCertificate", "flatness_certificate",
]

@dataclass(frozen=True)
class ChernWeilReport:
    """Term-by-term decomposition of the curvature energy identity.

    lhs is the YMH energy of the state; the right-hand side splits into the
    Einstein-deviation square and the characteristic-class term (zero for
    n = 1 by convention): residual = lhs - deviation_term - topological_term.
    degree, 0 on a bundle trivialized over the torus, is reported as a check.
    """

    lhs: float
    deviation_term: float
    topological_term: float
    residual: float
    degree: float

    def relative_residual(self) -> float:
        scale = max(abs(self.lhs), abs(self.deviation_term),
                    abs(self.topological_term), 1e-12)
        return abs(self.residual) / scale


def _char_class_integrals(curv: Curvature) -> tuple[float, float]:
    """Integrals of (2c2 - c1^2) and ch2 against omega^{n-2}/(n-2)!.

    Built from tr F wedge tr F and tr(F wedge F) of the Chern curvature
    (f11, f20, f02); identically zero for n = 1 where the wedge square has
    no slot.
    """
    if curv.state.base.n < 2:
        return 0.0, 0.0
    fields = [(f, tr_field(f)) for f in (curv.f11, curv.f20, curv.f02)]
    trf_wedge_trf = 0.0
    trff = 0.0
    for x, tr_x in fields:
        for y, tr_y in fields:
            if x.p + y.p == 2 and x.q + y.q == 2:
                trf_wedge_trf += np.real(integrate_top_form(wedge(tr_x, tr_y)))
                trff += np.real(integrate_top_form(tr_field(wedge(x, y))))
    c1_sq = -trf_wedge_trf / (4.0 * math.pi**2)
    c2 = 0.5 * c1_sq + trff / (8.0 * math.pi**2)
    two_c2_minus_c1sq = 2.0 * c2 - c1_sq
    ch2 = 0.5 * c1_sq - c2
    return two_c2_minus_c1sq, ch2


def chern_weil_report(state: HiggsBundleState) -> ChernWeilReport:
    """Evaluate every term of the energy identity independently."""
    hs = Curvature(state)
    lhs = integrate(hs.pointwise_energy(), state.base)
    deviation = integrate(pointwise_norm2(hs.deviation(), state.metric),
                          state.base)
    two_c2_minus_c1sq, _ = _char_class_integrals(hs)
    topological = 4.0 * math.pi**2 * two_c2_minus_c1sq
    return ChernWeilReport(lhs, deviation, topological,
                           lhs - deviation - topological, hs.degree)


@dataclass(frozen=True)
class TopologicalIntegrals:
    c1_omega: float            # c1 . [omega]^{n-1} integral (the degree)
    two_c2_minus_c1sq: float   # (2c2 - c1^2) . [omega]^{n-2} integral
    ch2: float                 # ch2 . [omega]^{n-2} integral


def topological_integrals(state: HiggsBundleState) -> TopologicalIntegrals:
    """Chern-Weil integrands of the Chern curvature; ch2 entries are 0 for
    n=1. No Higgs part of the curvature is built."""
    curv = Curvature(state)
    return TopologicalIntegrals(curv.degree, *_char_class_integrals(curv))


@dataclass(frozen=True)
class FlatnessCertificate:
    """sup_X of the full Hitchin-Simpson curvature against a target."""

    eps_achieved: float
    sup_curvature_part: float   # F_H + [phi, phi*], type (1,1)
    sup_dphi: float             # del_H phi, type (2,0)
    sup_dbar_phistar: float     # dbar_E phi*, type (0,2)
    n: int
    N: int
    rank: int
    eps_target: float
    passed: bool

    def one_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"flatness {verdict}: sup|F|={self.eps_achieved:.6g} vs "
                f"target {self.eps_target:.6g} "
                f"(n={self.n}, N={self.N}, rank={self.rank})")

    def as_dict(self) -> dict:
        return asdict(self)


def flatness_certificate(state: HiggsBundleState,
                         eps_target: float) -> FlatnessCertificate:
    """Per-part sup norms of the Hitchin-Simpson curvature and the verdict."""
    H = state.metric
    norm2 = {key: pointwise_norm2(f, H)
             for key, f in Curvature(state).parts.items()}
    # distinct degrees are orthogonal, so the total sums the parts in order
    norm2["total"] = sum(norm2.values())
    sups = {key: float(np.sqrt(max(n2.max(), 0.0))) for key, n2 in norm2.items()}
    return FlatnessCertificate(
        eps_achieved=sups["total"],
        sup_curvature_part=sups[(1, 1)],
        sup_dphi=sups.get((2, 0), 0.0),
        sup_dbar_phistar=sups.get((0, 2), 0.0),
        n=state.base.n, N=state.base.N, rank=state.rank,
        eps_target=eps_target, passed=bool(sups["total"] < eps_target))
