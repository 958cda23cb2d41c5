"""Chern-Weil accounting, topological integrals, flatness certificates and
the parabolic energy monitor.

The energy identity is evaluated as a residual report, never assumed: every
term is computed by its own route, so a nonzero residual localizes errors in
curvature, norms or quadrature simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .flows import einstein_deviation
from .geometry import (CurvatureParts, HiggsBundleState, curvature,
                       degree_slope_lambda, hitchin_simpson_curvature)
from .grid import (TorusBase, integrate, integrate_top_form, pointwise_norm2,
                   tr_field, wedge)

__all__ = [
    "ChernWeilReport", "chern_weil_report",
    "TopologicalIntegrals", "topological_integrals", "parabolic_energy", "regularity_monitor_pairs",
    "FlatnessCertificate", "flatness_certificate",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ChernWeilReport:
    """Term-by-term decomposition of the curvature energy identity.

    lhs is the YMH energy of the state; the right-hand side splits into the
    Einstein-deviation square, the characteristic-class term (zero for
    n = 1 by convention) and lambda^2 rk Vol. residual = lhs - sum(rhs).
    """

    lhs: float
    deviation_term: float
    topological_term: float
    lambda_term: float
    residual: float
    lam: float
    degree: float

    def relative_residual(self) -> float:
        scale = max(abs(self.lhs), abs(self.deviation_term),
                    abs(self.topological_term), abs(self.lambda_term), 1e-12)
        return abs(self.residual) / scale

    def as_dict(self) -> dict:
        return {"lhs": self.lhs, "deviation_term": self.deviation_term,
                "topological_term": self.topological_term,
                "lambda_term": self.lambda_term, "residual": self.residual,
                "relative_residual": self.relative_residual(),
                "lambda": self.lam, "degree": self.degree}


def _char_class_integrals(state: HiggsBundleState,
                          parts: CurvatureParts) -> tuple[float, float]:
    """Integrals of (2c2 - c1^2) and ch2 against omega^{n-2}/(n-2)!.

    Built from tr F wedge tr F and tr(F wedge F) of the state's Chern
    curvature parts; identically zero for n = 1 where the wedge square has
    no slot.
    """
    if state.base.n < 2:
        return 0.0, 0.0
    fields = [parts.f11, parts.f20, parts.f02]
    tr_f = [tr_field(f) for f in fields]
    trf_wedge_trf = 0.0
    trff = 0.0
    for x in tr_f:
        for y in tr_f:
            if x.p + y.p == 2 and x.q + y.q == 2:
                trf_wedge_trf += np.real(integrate_top_form(wedge(x, y)))
    for x in fields:
        for y in fields:
            if x.p + y.p == 2 and x.q + y.q == 2:
                trff += np.real(integrate_top_form(tr_field(wedge(x, y))))
    c1_sq = -trf_wedge_trf / (4.0 * math.pi**2)
    c2 = 0.5 * c1_sq + trff / (8.0 * math.pi**2)
    two_c2_minus_c1sq = 2.0 * c2 - c1_sq
    ch2 = 0.5 * c1_sq - c2
    return two_c2_minus_c1sq, ch2


def chern_weil_report(state: HiggsBundleState) -> ChernWeilReport:
    """Evaluate every term of the energy identity independently."""
    hs = hitchin_simpson_curvature(state)
    H = state.metric
    lhs = integrate(hs.pointwise_energy(H), state.base)
    K = einstein_deviation(state, hs)
    deviation = integrate(pointwise_norm2(K, H.mat), state.base)
    deg, _, lam = degree_slope_lambda(state, hs.chern.f11)
    two_c2_minus_c1sq, _ = _char_class_integrals(state, hs.chern)
    topological = 4.0 * math.pi**2 * two_c2_minus_c1sq
    lam_term = lam * lam * state.rank * state.base.volume
    residual = lhs - deviation - topological - lam_term
    return ChernWeilReport(lhs, deviation, topological, lam_term, residual,
                           lam, deg)


@dataclass(frozen=True)
class TopologicalIntegrals:
    c1_omega: float            # c1 . [omega]^{n-1} integral (the degree)
    two_c2_minus_c1sq: float   # (2c2 - c1^2) . [omega]^{n-2} integral
    ch2: float                 # ch2 . [omega]^{n-2} integral

    def as_dict(self) -> dict:
        return asdict(self)


def topological_integrals(state: HiggsBundleState) -> TopologicalIntegrals:
    """Chern-Weil integrands of the Chern curvature; ch2 entries are 0 for n=1."""
    parts = curvature(state.metric, state.structure.a)
    deg, _, _ = degree_slope_lambda(state, parts.f11)
    two_c2, ch2 = _char_class_integrals(state, parts)
    return TopologicalIntegrals(deg, two_c2, ch2)


def _ball_mask(base: TorusBase, x0: tuple[float, ...], radius: float) -> np.ndarray:
    """Grid points within radius of x0 in the periodic Euclidean distance."""
    dist2 = np.zeros(base.shape)
    for ax in range(2 * base.n):
        d = np.abs(base.axis_coordinate(ax) - (x0[ax] % 1.0))
        d = np.minimum(d, 1.0 - d)
        dist2 = dist2 + d * d
    return dist2 <= radius * radius


def parabolic_energy(snapshots: list[tuple[float, np.ndarray]],
                     x0: tuple[float, ...], t0: float, R: float,
                     base: TorusBase) -> float:
    """R^{2-2n} times the space-time energy on the parabolic cylinder.

    The cylinder is the periodic Euclidean ball of radius R around x0 times
    [t0 - R^2, t0 + R^2]; snapshots are (time, density field) pairs covering
    that window. Trapezoidal rule in time, Riemann sum in space.
    """
    if not (0 < R < min(base.injectivity_radius, math.sqrt(t0) / 2.0)):
        raise ValueError(
            "parabolic radius out of range: need 0 < R < min(injectivity "
            f"radius, sqrt(t0)/2) = min({base.injectivity_radius}, "
            f"{math.sqrt(max(t0, 0.0)) / 2.0:.6g}), got R={R}")
    if len(x0) != 2 * base.n:
        raise ValueError(f"x0 needs {2 * base.n} coordinates")
    t_lo, t_hi = t0 - R * R, t0 + R * R
    times = [t for t, _ in snapshots]
    if not times or times[0] > t_lo + 1e-12 or times[-1] < t_hi - 1e-12:
        raise ValueError(f"density snapshots must cover [{t_lo:.6g}, {t_hi:.6g}]")

    mask = _ball_mask(base, x0, R)

    def ball_integral(density):
        return integrate(np.where(mask, density, 0.0), base)

    # linear interpolation onto the exact window endpoints, trapezoid inside
    ts, vals = [], []
    for k, (t, dens) in enumerate(snapshots):
        if t < t_lo - 1e-12:
            nxt_t, nxt_d = snapshots[k + 1]
            if nxt_t > t_lo + 1e-12:
                w = (t_lo - t) / (nxt_t - t)
                ts.append(t_lo)
                vals.append((1 - w) * ball_integral(dens) + w * ball_integral(nxt_d))
            continue
        if t > t_hi + 1e-12:
            prev_t, prev_d = snapshots[k - 1]
            if prev_t < t_hi - 1e-12:
                w = (t_hi - prev_t) / (t - prev_t)
                ts.append(t_hi)
                vals.append((1 - w) * ball_integral(prev_d) + w * ball_integral(dens))
            break
        ts.append(t)
        vals.append(ball_integral(dens))
    space_time = float(np.trapezoid(vals, ts)) if len(ts) >= 2 else 0.0
    return R ** (2 - 2 * base.n) * space_time


def regularity_monitor_pairs(snapshots: list[tuple[float, np.ndarray]],
                             x0: tuple[float, ...], t0: float, R: float,
                             base: TorusBase) -> dict:
    """Record an (energy on the cylinder, subsequent sup of density) pair.

    The eps-regularity constants are not modeled; this monitor only records
    the quantities whose qualitative implication (small parabolic energy
    precedes bounded pointwise energy) the shipped scenarios exhibit. The
    sup is taken over the shrunk cylinder of radius delta R, delta = 1/4.
    """
    energy = parabolic_energy(snapshots, x0, t0, R, base)
    delta = 0.25
    r = delta * R
    mask = _ball_mask(base, x0, r)
    sup_e = 0.0
    for t, dens in snapshots:
        if t0 - r * r - 1e-12 <= t <= t0 + r * r + 1e-12:
            sup_e = max(sup_e, float(np.where(mask, dens, 0.0).max()))
    return {"t0": t0, "R": R, "delta": delta, "parabolic_energy": energy,
            "sup_density_small_cylinder": sup_e}


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
    H = state.metric.mat
    norm2 = {key: pointwise_norm2(f, H)
             for key, f in hitchin_simpson_curvature(state).parts.items()}
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
