"""Chern-Weil accounting, topological integrals and flatness certificates.

The energy identity is evaluated as a residual report, never assumed: every
term is computed by its own route, so a nonzero residual localizes errors in
curvature, norms or quadrature simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Curvature, HiggsBundleState
from .grid import (_sup, integrate, integrate_top_form, pointwise_norm2,
                   tr_field, wedge)

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
    """Integrals of (2c2 - c1^2) and ch2 = c1^2/2 - c2 against
    omega^{n-2}/(n-2)!. c2 = c1^2/2 + x, x = int tr(F wedge F)/8 pi^2 of
    the Chern curvature (f11, f20, f02), so c1^2 cancels: they are 2x and
    0.0 - x, which keeps a zero +0.0. Both are 0 for n = 1 (no wedge slot).
    """
    if curv.state.base.n < 2:
        return 0.0, 0.0
    fields = (curv.f11, curv.f20, curv.f02)
    trff = 0.0
    for f in fields:
        for g in fields:
            if f.p + g.p == 2 and f.q + g.q == 2:
                trff += np.real(integrate_top_form(tr_field(wedge(f, g))))
    x = trff / (8.0 * math.pi**2)
    return 2.0 * x, 0.0 - x


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
    return _topology(Curvature(state))


def _topology(curv: Curvature) -> TopologicalIntegrals:
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


def flatness_certificate(state: HiggsBundleState,
                         eps_target: float) -> FlatnessCertificate:
    """Per-part sup norms of the Hitchin-Simpson curvature and the verdict."""
    return _certificate(Curvature(state), eps_target)


def _certificate(curv: Curvature, eps_target: float) -> FlatnessCertificate:
    state = curv.state
    sups = {key: _sup(curv.norm2(key)) for key in curv.bidegrees}
    total = curv.sup_norm()
    return FlatnessCertificate(
        eps_achieved=total,
        sup_curvature_part=sups[(1, 1)],
        sup_dphi=sups.get((2, 0), 0.0),
        sup_dbar_phistar=sups.get((0, 2), 0.0),
        n=state.base.n, N=state.base.N, rank=state.rank,
        eps_target=eps_target, passed=bool(total < eps_target))
