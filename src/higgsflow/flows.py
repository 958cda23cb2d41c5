"""Time integration of the two gradient flows and the gauge correspondence.

The metric flow evolves H on a fixed Higgs structure through the
multiplicative update H -> H exp(-2 dt K), which preserves positive
definiteness unconditionally. The pair flow evolves (a, phi) over a fixed
background metric through the complex gauge factor exp(-dt K); to first
order in dt this realizes the gradient flow with the codifferential reduced
by the Kahler identities to first-order operators,
D_A* F = i (del_A - dbar_A) Lambda F on (1,1)-forms.

Both flow runners take a midpoint composition of these updates, which
is second-order accurate in dt while keeping the structure-preserving form
of the single steps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import (HermitianMetric, HiggsBundleState, HiggsStructure,
                       HitchinSimpsonParts, adjoint_field, degree_slope_lambda,
                       hitchin_simpson_curvature, validate_structure)
from .grid import (MatrixFormField, contract_lambda, dbar_flat, integrate,
                   pointwise_norm2, sup_norm)
from .linalg import expm_batched, hermitize, inv, mm, sqrtm_hpd

__all__ = [
    "FlowTrace", "FlowResult", "FlowBlowup",
    "einstein_deviation", "donaldson_step", "ymh_energy", "energy_density",
    "ymh_step", "complex_gauge_apply", "gauge_from_metric",
    "run_donaldson_flow", "run_ymh_flow", "flow_equivalence_check",
    "EquivalenceReport", "check_flow_times",
]

# adaptive step control: the step is capped by SAFETY / sup|K| and grows by
# GROWTH per accepted step; MAX_STEPS guards the loop of either runner
SAFETY = 0.05
GROWTH = 1.1
MAX_STEPS = 2_000_000


def einstein_deviation(state: HiggsBundleState,
                       hs: HitchinSimpsonParts | None = None) -> MatrixFormField:
    """K = i Lambda(F_H + [phi, phi^{*H}]) - lambda Id, a (0,0) field.

    hs is the state's Hitchin-Simpson curvature when the caller already
    holds it; only its (1,1) part is read. K is H-self-adjoint up to
    truncation error; donaldson_step symmetrizes before exponentiating so
    positivity is exact.
    """
    if hs is None:
        hs = hitchin_simpson_curvature(state)
    _, _, lam = degree_slope_lambda(state, hs.chern.f11)
    K = 1j * contract_lambda(hs.part11)
    eye = np.eye(state.rank, dtype=np.complex128)
    K.comps[0, 0] -= lam * eye
    return K


def _symmetrize_in_H(K: np.ndarray, H: HermitianMetric) -> np.ndarray:
    K_star = adjoint_field(MatrixFormField(H.base, 0, 0, K[None, None]), H)
    return 0.5 * (K + K_star.comps[0, 0])


def donaldson_step(state: HiggsBundleState, dt: float,
                   K: MatrixFormField | None = None) -> HiggsBundleState:
    """One multiplicative metric update H' = H exp(-2 dt K).

    The structure (a, phi) is unchanged; H' is Hermitian positive-definite
    by construction. Step rejection on diagnostic blow-up is handled by the
    flow runner.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if K is None:
        K = einstein_deviation(state)
    Ks = _symmetrize_in_H(K.comps[0, 0], state.metric)
    Hnew = mm(state.metric.mat, expm_batched(-2.0 * dt * Ks))
    return HiggsBundleState(state.structure,
                            HermitianMetric(state.base, hermitize(Hnew)))


def energy_density(state: HiggsBundleState) -> np.ndarray:
    """Pointwise e(A, phi) = |F_A + [phi, phi*]|^2 + 2 |del_A phi|^2."""
    return hitchin_simpson_curvature(state).pointwise_energy(state.metric)


def ymh_energy(state: HiggsBundleState) -> float:
    """Integral of the energy density; shares its computation path exactly."""
    return integrate(energy_density(state), state.base)


def complex_gauge_apply(sigma: np.ndarray,
                        state: HiggsBundleState) -> HiggsBundleState:
    """Action of a complex gauge transformation on the pair (a, phi).

    a' = sigma a sigma^{-1} - (dbar sigma) sigma^{-1} and
    phi' = sigma phi sigma^{-1}; the metric is frozen. The (1,0) connection
    part follows from the Chern formula and transforms by the
    metric-adjoint conjugation.
    """
    sig_inv = inv(sigma)
    dbar_sig = dbar_flat(MatrixFormField(state.base, 0, 0, sigma[None, None]))
    a, phi = state.structure.a, state.structure.phi
    a_new = a.sandwich(sigma, sig_inv) - dbar_sig.sandwich(None, sig_inv)
    return HiggsBundleState(HiggsStructure(a_new, phi.sandwich(sigma, sig_inv)),
                            state.metric)


def ymh_step(state: HiggsBundleState, dt: float,
             K: MatrixFormField | None = None) -> HiggsBundleState:
    """One explicit pair update by the gauge factor exp(-dt K).

    Expanding in dt reproduces the gradient-flow equations: the Higgs field
    moves by -[K, phi] dt and the (0,1) connection part by dbar_A(K) dt.
    The update stays exactly in the complex gauge orbit of the pair, and
    the metric stays frozen.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if K is None:
        K = einstein_deviation(state)
    Ks = _symmetrize_in_H(K.comps[0, 0], state.metric)
    sigma = expm_batched(-dt * Ks)
    return complex_gauge_apply(sigma, state)


def gauge_from_metric(H0: HermitianMetric, H: HermitianMetric) -> np.ndarray:
    """g with g^{*H0} g = H0^{-1} H, the square root in the H0-positive cone."""
    H0.check_positive()
    H.check_positive()
    w = sqrtm_hpd(H0.mat)
    w_inv = inv(w)
    middle = sqrtm_hpd(mm(mm(w_inv, H.mat), w_inv))
    return mm(mm(w_inv, middle), w)


# -- traces and runners ------------------------------------------------------------


@dataclass
class FlowTrace:
    """Per-sample evidence record of a flow run."""

    t: list[float] = field(default_factory=list)
    ymh_energy: list[float] = field(default_factory=list)
    dev_l2: list[float] = field(default_factory=list)
    dev_sup: list[float] = field(default_factory=list)
    e_sup: list[float] = field(default_factory=list)
    phi_sup: list[float] = field(default_factory=list)
    dt: list[float] = field(default_factory=list)
    residual_integrability: list[float] = field(default_factory=list)
    residual_holomorphy: list[float] = field(default_factory=list)
    residual_symmetry: list[float] = field(default_factory=list)

    COLUMNS = ("t", "ymh_energy", "dev_l2", "dev_sup", "e_sup", "phi_sup", "dt",
               "residual_integrability", "residual_holomorphy", "residual_symmetry")

    def append(self, **row):
        """Validate the row, then append it; a rejected row leaves no trace."""
        if self.t and not row["t"] > self.t[-1]:
            raise ValueError("sample times must be strictly increasing")
        if not all(math.isfinite(row[c]) for c in self.COLUMNS):
            raise ValueError(f"non-finite trace row at t={row['t']}")
        for col in self.COLUMNS:
            getattr(self, col).append(float(row[col]))

    def rows(self):
        for k in range(len(self.t)):
            yield [getattr(self, col)[k] for col in self.COLUMNS]

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in self.rows():
                fh.write(",".join("%.17g" % v for v in row) + "\n")

    def fitted_exponent(self, column: str) -> float | None:
        """Log-log slope of a decaying column against t, samples at t >= 0.5."""
        tt = np.asarray(self.t)
        yy = np.asarray(getattr(self, column))
        mask = (tt >= 0.5) & (yy > 1e-300)
        if mask.sum() < 2:
            return None
        slope = np.polyfit(np.log(tt[mask]), np.log(yy[mask]), 1)[0]
        return float(slope)

    def summary(self) -> dict:
        out = {"samples": len(self.t)}
        if self.t:
            out["initial"] = {c: getattr(self, c)[0] for c in self.COLUMNS}
            out["final"] = {c: getattr(self, c)[-1] for c in self.COLUMNS}
            out["decay_exponent_ymh"] = self.fitted_exponent("ymh_energy")
            out["decay_exponent_e_sup"] = self.fitted_exponent("e_sup")
        return out


@dataclass(eq=False)
class FlowResult:
    final: HiggsBundleState
    trace: FlowTrace
    sampled_states: list    # (t, state) at the sample schedule
    steps: int
    rejected: int
    # per sample, the pointwise |del_H phi|^2, |F + [phi,phi*]|^2 and
    # |i Lambda(F + [phi,phi*])|^2 (see _sample_norms)
    sampled_norms: list


class FlowBlowup(RuntimeError):
    """A step produced non-finite fields or a non-positive metric and could
    not be rescued, or an accepted state gave a non-finite sample row.

    Carries the last accepted state and the partial trace so callers can
    persist them.
    """

    def __init__(self, message, state, trace, t):
        super().__init__(message)
        self.state = state
        self.trace = trace
        self.t = t


def _sample_schedule(T: float, extra=None) -> list[float]:
    """Geometric schedule 0, t0, 2 t0, ... plus user samples and T."""
    pts = {0.0, float(T)}
    t = 0.0625
    while t < T:
        pts.add(t)
        t *= 2.0
    for s in (extra or []):
        if 0.0 <= s <= T:
            pts.add(float(s))
    return sorted(pts)


def check_flow_times(T: float, dt: float) -> None:
    """Raise ValueError unless T is finite and >= 0 and dt finite and > 0."""
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"flow time T must be finite and >= 0, got {T!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"step dt must be finite and > 0, got {dt!r}")


def _sample_norms(state: HiggsBundleState, hs: HitchinSimpsonParts):
    """Pointwise |del_H phi|^2, |F + [phi,phi*]|^2 and |i Lambda(F + [phi,phi*])|^2.

    The trace row and the two-flow check read these; del_H phi is zero for
    n = 1.
    """
    H = state.metric.mat
    f = hs.part11
    dphi2 = np.zeros(state.base.shape) if hs.del_phi is None else \
        pointwise_norm2(hs.del_phi, H)
    return dphi2, pointwise_norm2(f, H), pointwise_norm2(1j * contract_lambda(f), H)


def _evaluate(state: HiggsBundleState, with_norms: bool):
    """K of the state and, if asked, its sample norms, from one
    Hitchin-Simpson evaluation; the curvature itself is not kept."""
    hs = hitchin_simpson_curvature(state)
    K = einstein_deviation(state, hs)
    return K, (_sample_norms(state, hs) if with_norms else None)


def _metric_trace_row(state: HiggsBundleState, dt: float, validity,
                      K: MatrixFormField, norms) -> dict:
    H = state.metric
    dphi2, curv2, _ = norms
    dev2 = pointwise_norm2(K, H.mat)
    e = curv2 + 2.0 * dphi2   # the YMH integrand, as in pointwise_energy
    phi2 = pointwise_norm2(state.structure.phi, H.mat)
    return dict(
        ymh_energy=integrate(e, state.base),
        dev_l2=math.sqrt(max(integrate(dev2, state.base), 0.0)),
        dev_sup=math.sqrt(max(dev2.max(), 0.0)),
        e_sup=float(e.max()),
        phi_sup=float(phi2.max()),
        dt=dt,
        residual_integrability=validity.integrability,
        residual_holomorphy=validity.holomorphy,
        residual_symmetry=validity.symmetry,
    )


def _advance(state: HiggsBundleState, dt: float, step_fn, K0):
    """Midpoint composition of the structure-preserving update.

    Returns None when the candidate broke down: a non-finite field, or a
    metric (of the candidate or of its midpoint) that lost positivity.
    """
    try:
        half = step_fn(state, 0.5 * dt, K0)
        candidate = step_fn(state, dt, einstein_deviation(half))
        if not (np.isfinite(candidate.metric.mat).all()
                and np.isfinite(candidate.structure.phi.comps).all()
                and np.isfinite(candidate.structure.a.comps).all()):
            return None
        # cached on the metric, so the next curvature reuses it
        candidate.metric.check_positive()
    except (FloatingPointError, np.linalg.LinAlgError, ValueError):
        return None
    return candidate


def _run_flow(start: HiggsBundleState, T, dt, step_fn, *, fixed_dt,
              sample_times):
    check_flow_times(T, dt)
    validity0 = validate_structure(start.structure)
    trace = FlowTrace()
    sampled, sampled_norms = [], []

    def sample(obj, K, norms, t_now, dt_now):
        # the metric flow never replaces the structure, so its validity
        # residuals are those of the start
        validity = validity0 if obj.structure is start.structure else \
            validate_structure(obj.structure)
        row = _metric_trace_row(obj, dt_now, validity, K, norms)
        if not all(math.isfinite(v) for v in row.values()):
            raise FlowBlowup(f"non-finite sample row at t={t_now:.6g}",
                             obj, trace, t_now)
        trace.append(t=t_now, **row)
        sampled.append((t_now, obj))
        sampled_norms.append(norms)

    # every accepted state is evaluated once: its K drives the next step
    # and, at a sample time, its row reuses K and the norms
    schedule = _sample_schedule(T, sample_times)
    current = start
    t = 0.0
    K_current, norms = _evaluate(current, True)
    sample(current, K_current, norms, 0.0, dt)
    next_idx = 1  # the schedule starts at t = 0, sampled above

    dev_prev = trace.dev_sup[-1]
    steps = rejected = 0
    dt_now = dt
    while t < T - 1e-12 and steps < MAX_STEPS:
        dt_step = min(dt_now, T - t)
        if not fixed_dt and dev_prev > 0:
            dt_step = min(dt_step, SAFETY / dev_prev)
        # land exactly on the next sample time
        if next_idx < len(schedule):
            dt_step = min(dt_step, schedule[next_idx] - t)
        dt_step = max(dt_step, 1e-15)
        t_next = t + dt_step
        due = next_idx < len(schedule) and t_next >= schedule[next_idx] - 1e-12

        candidate = _advance(current, dt_step, step_fn, K_current)
        if candidate is None and fixed_dt:
            raise FlowBlowup(f"flow produced non-finite fields or a "
                             f"non-positive metric at t={t:.6g} with "
                             f"dt={dt_step:.3e}", current, trace, t)
        if candidate is not None:
            K_next, norms = _evaluate(candidate, due)
            if not fixed_dt:
                dev_new = math.sqrt(max(
                    pointwise_norm2(K_next, candidate.metric.mat).max(), 0.0))
                if dev_prev > 0 and dev_new > 2.0 * dev_prev + 1e-12:
                    candidate = None  # diagnostic blow-up
        if candidate is None:
            # reject and halve
            dt_now = 0.5 * dt_step
            rejected += 1
            if dt_now < 1e-12:
                raise FlowBlowup(f"flow step size collapsed at t={t:.6g}",
                                 current, trace, t)
            continue
        if not fixed_dt:
            dev_prev = dev_new
            dt_now = dt_step * GROWTH

        current, K_current, t = candidate, K_next, t_next
        steps += 1
        if due:
            sample(current, K_current, norms, t, dt_step)
            next_idx += 1
    return FlowResult(current, trace, sampled, steps, rejected, sampled_norms)


def run_donaldson_flow(state: HiggsBundleState, T: float, dt: float, *,
                       fixed_dt: bool = False,
                       sample_times=None) -> FlowResult:
    """Integrate the metric flow to time T and record a FlowTrace.

    With fixed_dt the step is exactly dt (pinned-accuracy experiments);
    otherwise the step grows by GROWTH per accepted step, is capped by
    SAFETY/sup|K|, and is halved whenever the deviation sup-norm more than
    doubles in one step.
    """
    return _run_flow(state, T, dt, donaldson_step, fixed_dt=fixed_dt,
                     sample_times=sample_times)


def run_ymh_flow(state: HiggsBundleState, T: float, dt: float, *,
                 fixed_dt: bool = False, sample_times=None) -> FlowResult:
    """Integrate the pair flow to time T over the frozen metric of the state.

    Validity residuals of the evolved pair are recorded at every sample and
    never re-projected: constraint drift is evidence, not noise to hide.
    """
    return _run_flow(state, T, dt, ymh_step, fixed_dt=fixed_dt,
                     sample_times=sample_times)


# -- the two-flow correspondence ---------------------------------------------------


def _rel_sup(x: np.ndarray, y: np.ndarray, floor: float = 0.0) -> float:
    """Relative sup difference with a scale floor.

    The floor keeps the ratio meaningful after both sides have decayed to
    numerical zero: below it, agreement is measured against the floor, not
    against roundoff-sized denominators.
    """
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), floor, 1e-30)
    return float(np.abs(x - y).max()) / scale


@dataclass
class EquivalenceReport:
    """Residuals between the metric flow and the directly integrated pair flow."""

    times: list[float]
    res_dphi: list[float]      # |del_A phi|^2 vs |del_H phi_0|^2
    res_curvature: list[float]  # |F + bracket|^2 on both sides
    res_contracted: list[float]  # |i Lambda(F + bracket)|^2 on both sides
    transport_phi: list[float]  # transported vs integrated pair, Higgs field
    transport_a: list[float]    # transported vs integrated pair, connection

    def max_norm_residual(self) -> float:
        vals = self.res_dphi + self.res_curvature + self.res_contracted
        return max(vals, default=0.0)

    def max_transport_discrepancy(self) -> float:
        return max(self.transport_phi + self.transport_a, default=0.0)

    def as_dict(self) -> dict:
        return {**asdict(self), "max_norm_residual": self.max_norm_residual(),
                "max_transport_discrepancy": self.max_transport_discrepancy()}


def flow_equivalence_check(state0: HiggsBundleState, T: float, dt: float, *,
                           sample_times=None) -> EquivalenceReport:
    """Run both flows with the fixed step dt from one state and compare them.

    The metric flow evolves H(t) with (a0, phi0) frozen; the pair flow
    evolves (a(t), phi(t)) over the frozen background H0 = H(0). At each
    sample the three norm equalities relating the two sides are evaluated
    as pointwise fields and reported as relative sup residuals, together
    with the discrepancy between the directly integrated pair and the pair
    transported by g(t) = (H0^{-1} H(t))^{1/2}.
    """
    samples = sample_times if sample_times is not None else \
        [k * T / 4.0 for k in range(1, 5)]
    res_m = run_donaldson_flow(state0, T, dt, fixed_dt=True,
                               sample_times=samples)
    res_p = run_ymh_flow(state0, T, dt, fixed_dt=True, sample_times=samples)
    # the compared fields are the sample norms each runner already took
    metric_at = {round(t, 9): (s, norms) for (t, s), norms
                 in zip(res_m.sampled_states, res_m.sampled_norms)}
    pair_at = {round(t, 9): (s, norms) for (t, s), norms
               in zip(res_p.sampled_states, res_p.sampled_norms)}
    common = sorted(set(metric_at) & set(pair_at))

    # decayed-scale floors: 1e-6 of each quantity's size at t = 0
    floors = tuple(1e-6 * float(f.max()) for f in res_m.sampled_norms[0])

    report = EquivalenceReport([], [], [], [], [], [])
    raw = []  # (phi_diff, phi_scale, a_diff, a_scale) per sample
    for tk in common:
        (st, metric_fields), (pr, pair_fields) = metric_at[tk], pair_at[tk]
        g = gauge_from_metric(state0.metric, st.metric)
        transported = complex_gauge_apply(g, state0)
        report.times.append(float(tk))
        for sink, mfield, pfield, floor in zip(
                (report.res_dphi, report.res_curvature, report.res_contracted),
                metric_fields, pair_fields, floors):
            sink.append(_rel_sup(mfield, pfield, floor))
        raw.append((sup_norm(transported.structure.phi - pr.structure.phi),
                    max(sup_norm(pr.structure.phi),
                        sup_norm(transported.structure.phi)),
                    sup_norm(transported.structure.a - pr.structure.a),
                    max(sup_norm(pr.structure.a),
                        sup_norm(transported.structure.a))))
    # normalize against the largest scale seen along the run, so samples
    # where both sides are numerically zero do not report spurious ratios
    phi_floor = 1e-6 * max((r[1] for r in raw), default=0.0) + 1e-30
    a_floor = 1e-6 * max((r[3] for r in raw), default=0.0) + 1e-30
    for phi_diff, phi_scale, a_diff, a_scale in raw:
        report.transport_phi.append(phi_diff / max(phi_scale, phi_floor))
        report.transport_a.append(a_diff / max(a_scale, a_floor))
    return report
