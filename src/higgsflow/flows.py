"""Time integration of the two gradient flows and the gauge correspondence.

The metric flow evolves H on a fixed Higgs structure by H^{-1} dH/dt = -2K.
The pair flow evolves (a, phi) over a fixed background metric by complex
gauge factors; to first order in dt the factor exp(-dt K) realizes the
gradient flow with the codifferential reduced by the Kahler identities to
first-order operators, D_A* F = i (del_A - dbar_A) Lambda F on (1,1)-forms.

Both runners take one ETDRK2 step (Cox & Matthews, J. Comput. Phys. 176,
2002) in the log-metric frame of the current metric: with L its frame
(HermitianMetric.frame, L^dag L = H), the next metric is L^dag e^s L,
where the Hermitian field s obeys ds/dt = -2 K~. K~ is the deviation of
the frame state (_frame_of), the state gauged by L into the unit metric,
where every metric adjoint is a dagger and every norm is Frobenius; it is
L K L^{-1} up to the O(h^2) error of the discrete gauge. The stiff part of
K~ is linear, sigma s in Fourier space, where sigma is the exact symbol of
the composed centred differences (_symbol); the step solves it exactly,
with scalar phi-functions per mode, and treats only the remainder
explicitly. The metric flow sets H' = L^dag e^s L, positive by
construction, with the frame L' = e^{s/2} L: a run takes one matrix root,
at its start (W0 = H0^{1/2}), and its frames are L_k = W0 G_k, those of
the complex gauge G_k that carries H0 to H_k (Simpson, J. AMS 1, 1988).
The pair flow over H0 is that over the unit metric in an H0-unitary frame
(ibid., section 6): a pair run gauges its start into its frame state once,
then applies the gauge e^{s/2}. Neither step has an h^2 stability bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .geometry import (Curvature, HermitianMetric, HiggsBundleState,
                       HiggsStructure, validate_structure)
from .grid import (MatrixFormField, TorusBase, _sup, dbar_flat, integrate,
                   pointwise_norm2, sup_norm)
from .linalg import (_store_axes, _view_axes, expm_batched, hermitize, inv, mm)

__all__ = [
    "FlowTrace", "FlowResult", "FlowBlowup",
    "einstein_deviation",
    "complex_gauge_apply",
    "run_donaldson_flow", "run_ymh_flow", "flow_equivalence_check",
    "EquivalenceReport", "check_flow_times",
]

# adaptive step control. SAFETY / sup|K| caps the step, which bounds the
# exponent that expm_batched sees. A candidate is rejected when its local
# error estimate (_etd_error) exceeds TOL, or when its sup|K~| rises
# above the previous accepted value by more than the roundoff margin
# MP_RTOL * sup|K| + MP_ATOL: along the flow sup|K| never rises (Simpson,
# J. AMS 1, 1988, section 6), so a rise marks a step that lost the flow.
# The next step follows a PI controller (_pi_factor). After a
# maximum-principle rejection at dt_r, the proposals are capped at
# STABILITY_BACKOFF * dt_r, and the cap relaxes by STABILITY_RELAX per
# accepted step. MAX_STEPS caps the accepted steps of either runner: a run
# that reaches it before T raises FlowBlowup.
SAFETY = 0.05
TOL = 1e-2
MP_RTOL = 1e-9
MP_ATOL = 1e-12
STABILITY_BACKOFF = 0.7
STABILITY_RELAX = 1.01
MAX_STEPS = 2_000_000
# below this z the phi-functions are summed from their Taylor series, which
# avoids the cancellation in expm1(-z) + z; both branches agree to ~4e-15
PHI_TAYLOR_Z = 0.05


def einstein_deviation(state: HiggsBundleState) -> MatrixFormField:
    """K = i Lambda(F_H + [phi, phi^{*H}]), a (0,0) field
    (Curvature.deviation): only the diagonal slots that Lambda reads are
    built."""
    return Curvature(state).deviation()


# -- the ETDRK2 step ---------------------------------------------------------------


@functools.cache
def _symbol(base: TorusBase) -> np.ndarray:
    """sigma(k) = sum over the 2n real axes of sin^2(2 pi k_j h) / (2 h^2).

    At rank 1, H = e^u has K = sigma u mode by mode up to the nonlinear
    remainder: sigma is the symbol of the composed centred differences. It
    vanishes at the zero and Nyquist modes, and its maximum is n / h^2.
    """
    h = base.spacing
    along = np.sin(2.0 * np.pi * np.fft.fftfreq(base.N)) ** 2 / (2.0 * h * h)
    sigma = sum(np.meshgrid(*[along] * len(base.shape), indexing="ij",
                            sparse=True))
    sigma.flags.writeable = False
    return sigma


def _phi_functions(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(z) = (1 - e^-z) / z and phi2(z) = (e^-z - 1 + z) / z^2 for z >= 0.

    expm1 gives both above PHI_TAYLOR_Z, their Taylor series (eight terms)
    below it, where phi1(0) = 1 and phi2(0) = 1/2.
    """
    small = z < PHI_TAYLOR_Z
    zz = np.where(small, 1.0, z)
    em1 = np.expm1(-zz)
    phi1, phi2 = -em1 / zz, (em1 + zz) / (zz * zz)
    zs = -z[small]
    t1, t2 = np.zeros_like(zs), np.zeros_like(zs)
    for k in range(7, -1, -1):  # Horner in -z
        t1 = t1 * zs + 1.0 / math.factorial(k + 1)
        t2 = t2 * zs + 1.0 / math.factorial(k + 2)
    phi1[small], phi2[small] = t1, t2
    return phi1, phi2


@functools.cache
def _triu(r: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(r), made once per rank."""
    rows, cols = np.triu_indices(r)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _spectrum(x: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the upper-triangle entries of a Hermitian
    grid-trailing field x (..., r, r): an (r(r+1)/2, *grid) array."""
    store = x.transpose(_store_axes(x.ndim))
    return np.fft.fftn(store[_triu(x.shape[-1])], axes=range(1, store.ndim - 1))


def _field(xh: np.ndarray, r: int) -> np.ndarray:
    """The Hermitian grid-trailing field whose upper-triangle spectrum is xh.

    The multipliers the step applies are real and even in k, so the result
    is Hermitian up to roundoff; it is made so exactly here.
    """
    vals = np.fft.ifftn(xh, axes=range(1, xh.ndim))
    store = np.empty((r, r) + xh.shape[1:], np.complex128)
    for v, i, j in zip(vals, *_triu(r)):
        if i == j:
            store[i, i] = v.real
        else:
            store[i, j] = v
            np.conjugate(v, out=store[j, i])
    return store.transpose(_view_axes(store.ndim))


def _gauged(state: HiggsBundleState, g: np.ndarray, g_inv: np.ndarray,
            metric: HermitianMetric) -> HiggsBundleState:
    """(g a g^{-1} - (dbar g) g^{-1}, g phi g^{-1}) over metric, for a complex
    gauge g with inverse g_inv."""
    dbar_g = dbar_flat(MatrixFormField(state.base, 0, 0, g[None, None]))
    a, phi = state.structure.a, state.structure.phi
    a_new = a.sandwich(g, g_inv) - dbar_g.sandwich(None, g_inv)
    return HiggsBundleState(HiggsStructure(a_new, phi.sandwich(g, g_inv)), metric)


def _frame_of(state: HiggsBundleState) -> HiggsBundleState:
    """The state gauged by its metric's frame (L, L^{-1}) into the unit
    metric, which carries |.|_H to the Frobenius norm and K to L K L^{-1}
    (to O(h^2) on the grid). A unit-metric state is its own frame state."""
    if state.metric.unit:
        return state
    return _gauged(state, *state.metric.frame,
                   HermitianMetric.identity(state.base, state.rank))


def _deviation(state: HiggsBundleState) -> MatrixFormField:
    """K~, the deviation of the state's frame state."""
    return Curvature(_frame_of(state)).deviation()


def _metric_update(state: HiggsBundleState, x: np.ndarray) -> HiggsBundleState:
    """The state with metric L^dag e^x L, built from its frame e^{x/2} L
    (HermitianMetric.from_frame), where L is the frame of the state's
    metric: the frame is carried, never rooted."""
    L = mm(expm_batched(0.5 * x), state.metric.frame[0])
    return HiggsBundleState(state.structure,
                            HermitianMetric.from_frame(state.base, L))


def _gauge_update(state: HiggsBundleState, x: np.ndarray) -> HiggsBundleState:
    """The pair gauged by g = e^{x/2} over the unit metric it keeps: the
    metric flow's state at e^x transported by g (g^dag g = e^x). To first
    order in dt the gauge is exp(-dt K), so the Higgs field moves by
    -[K, phi] dt and the (0,1) connection part by dbar_A(K) dt, exactly
    within the complex gauge orbit of the pair."""
    return complex_gauge_apply(expm_batched(0.5 * x), state)


def _etd_error(correction: np.ndarray) -> float:
    """0.5 sup |s - a|, the Frobenius norm of the ETD2 result minus the ETD1
    result: the adaptive controller's local error estimate."""
    norm2 = (correction.real ** 2 + correction.imag ** 2).sum(axis=(-2, -1))
    return 0.5 * math.sqrt(float(norm2.max()))


def _etd2(state: HiggsBundleState, dt: float, K0: MatrixFormField, update,
          tol: float | None):
    """One ETDRK2 attempt from the state with frame deviation K0 = K~0
    (_deviation); update (_metric_update or _gauge_update) picks the flow.

    With z = 2 dt sigma and F the Fourier transform over the grid:
    - the predictor is a = F^{-1}[-2 dt phi1(z) F K~0] (exponential Euler);
    - the corrector is s = a + F^{-1}[dt phi2(z) (-2 (F K~a - F K~0)
      + 2 sigma F a)], with K~a the frame deviation at the predictor.
    Both are exact on the linear part ds/dt = -2 sigma s.

    Returns (candidate, err, reason). err = _etd_error(s - a) is taken only
    when tol is given (None otherwise). reason is None for a candidate;
    otherwise candidate is None and reason is "error_estimate" for a finite
    err above tol, or "breakdown" for a non-finite err or field, or a
    metric (of the candidate or of its predictor) that is not positive,
    which HermitianMetric rejects when _metric_update builds it.
    """
    err = None
    try:
        sigma = _symbol(state.base)
        phi1, phi2 = _phi_functions((2.0 * dt) * sigma)
        # K~ is Hermitian up to roundoff: its slots' d^dag + d are Hermitian
        # exactly, but products such as a a^dag are not where complex
        # multiplies are FMA-contracted. Its Hermitian part is read
        K0_hat = _spectrum(hermitize(K0.comps[0, 0]))
        a_hat = (-2.0 * dt * phi1) * K0_hat
        a = _field(a_hat, state.rank)
        predicted = update(state, a)
        # the corrector's spectrum, built in place in that of K~a
        c_hat = _spectrum(hermitize(_deviation(predicted).comps[0, 0]))
        c_hat -= K0_hat
        c_hat *= -2.0
        c_hat += (2.0 * sigma) * a_hat
        c_hat *= dt * phi2
        correction = _field(c_hat, state.rank)
        # the spectra and the predictor state are freed before the update
        del phi1, phi2, K0_hat, a_hat, predicted, c_hat
        if tol is not None:
            err = _etd_error(correction)
            if not err <= tol:
                return None, err, ("error_estimate" if math.isfinite(err)
                                   else "breakdown")
        correction += a
        candidate = update(state, correction)
        if not (np.isfinite(candidate.structure.phi.comps).all()
                and np.isfinite(candidate.structure.a.comps).all()):
            return None, err, "breakdown"
    except (FloatingPointError, np.linalg.LinAlgError, ValueError):
        return None, err, "breakdown"
    return candidate, err, None


def complex_gauge_apply(sigma: np.ndarray,
                        state: HiggsBundleState) -> HiggsBundleState:
    """Action of a complex gauge transformation on the pair (a, phi).

    a' = sigma a sigma^{-1} - (dbar sigma) sigma^{-1} and
    phi' = sigma phi sigma^{-1}; the metric is frozen. The (1,0) connection
    part follows from the Chern formula and transforms by the
    metric-adjoint conjugation.
    """
    return _gauged(state, sigma, inv(sigma), state.metric)


# -- traces and runners ------------------------------------------------------------


@dataclass
class FlowTrace:
    """Per-sample evidence record of a flow run, one list per column.
    COLUMNS, set below the class, names the fields in order."""

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

    def energy_defect(self) -> float:
        """max over the samples of |E - ||K||^2| / E, with E = ymh_energy and
        ||K|| = dev_l2. Every bundle here is trivial, so c1 = c2 = 0 and
        Chern-Weil makes it vanish on a valid state. E = 0 only where every
        slot of F + [phi,phi*], and so K, is 0; such a sample reads 0."""
        return max((abs(e - k * k) / e if e else 0.0
                    for e, k in zip(self.ymh_energy, self.dev_l2)), default=0.0)

    def summary(self) -> dict:
        out = {"samples": len(self.t)}
        if self.t:
            out["initial"] = {c: getattr(self, c)[0] for c in self.COLUMNS}
            out["final"] = {c: getattr(self, c)[-1] for c in self.COLUMNS}
            out["decay_exponent_ymh"] = self.fitted_exponent("ymh_energy")
            out["decay_exponent_e_sup"] = self.fitted_exponent("e_sup")
        return out


FlowTrace.COLUMNS = tuple(f.name for f in fields(FlowTrace))


@dataclass(eq=False)
class FlowResult:
    final: HiggsBundleState
    trace: FlowTrace
    # (t, frame state, norms) per sample: the state's frame state
    # (_frame_of) and the pointwise |del phi|^2, |F + [phi,phi*]|^2 and
    # |i Lambda(F + [phi,phi*])|^2 of its Curvature, Frobenius there
    samples: list
    steps: int
    # rejected attempts by reason: breakdown, max_principle, error_estimate
    rejected_by: dict

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by.values())


class FlowBlowup(RuntimeError):
    """A step produced non-finite fields or a non-positive metric and could
    not be rescued, an accepted state gave a non-finite sample row, or the
    step cap MAX_STEPS ended the run before T.

    Carries the last accepted state and the partial trace so callers can
    persist them, and the reason: "breakdown" (a fixed-dt step failed),
    "sample_row", "step_collapse" or "step_cap". verify_filtration sets
    level to the index of the quotient whose flow raised, and
    flow_equivalence_check sets flow to the flow that raised, "donaldson"
    or "ymh".
    """

    level: int | None = None
    flow: str | None = None

    def __init__(self, message, state, trace, t, reason):
        super().__init__(message)
        self.state = state
        self.trace = trace
        self.t = t
        self.reason = reason


def _sample_schedule(T: float, dt: float, extra=None) -> list[float]:
    """Geometric schedule 0, t0, 2 t0, ... plus user samples and T, after
    check_flow_times; a user sample outside [0, T] or NaN raises ValueError.
    A point within 1e-12 (the landing tolerance) below T is dropped."""
    check_flow_times(T, dt)
    pts = {0.0, float(T)}
    t = 0.0625
    while t < T:
        pts.add(t)
        t *= 2.0
    for s in (extra or []):
        if not 0.0 <= s <= T:
            raise ValueError(f"sample time {s!r} is not in [0, T] = [0, {T!r}]")
        pts.add(float(s))
    return [p for p in sorted(pts) if p in (0.0, T) or p < T - 1e-12]


def check_flow_times(T: float, dt: float) -> None:
    """Raise ValueError unless T is finite and >= 0 and dt finite and > 0."""
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"flow time T must be finite and >= 0, got {T!r}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"step dt must be finite and > 0, got {dt!r}")


def _evaluate(state: HiggsBundleState):
    """The state's frame state, its K~ and its sample norms, Frobenius
    there, from one Curvature, not kept: the pointwise |del phi|^2 (zero for
    n = 1), |F + [phi,phi*]|^2 (Curvature.norm2) and |K~|^2, which the trace
    row and the two-flow check read."""
    frame = _frame_of(state)
    hs, base = Curvature(frame), state.base
    dphi2 = np.zeros(base.shape) if base.n < 2 else hs.norm2((2, 0))
    curv2 = hs.norm2((1, 1))
    K = hs.deviation()  # after the norm, so K reads the diagonal slots kept
    return frame, K, (dphi2, curv2, pointwise_norm2(K))


# flow_equivalence_check runs the metric flow from its start and the pair
# flow from the start's frame state: one evaluation serves both, keyed by
# each start's id with its ValidityReport. The runners are still called by
# name, so that wrappers bound over the module's names see both runs.
_shared_starts: dict[int, tuple] = {}


def _metric_trace_row(state: HiggsBundleState, dt: float, validity, norms,
                      frame: HiggsBundleState) -> dict:
    """The trace row of a state from its sample norms and frame state
    (_evaluate); |phi|^2 is read there, Frobenius."""
    dphi2, curv2, dev2 = norms
    e = curv2 + 2.0 * dphi2   # the YMH integrand, as in pointwise_energy
    phi2 = pointwise_norm2(frame.structure.phi)
    return dict(
        ymh_energy=integrate(e, state.base),
        dev_l2=math.sqrt(max(integrate(dev2, state.base), 0.0)),
        dev_sup=_sup(dev2),
        e_sup=float(e.max()),
        phi_sup=float(phi2.max()),
        dt=dt,
        residual_integrability=validity.integrability,
        residual_holomorphy=validity.holomorphy,
        residual_symmetry=validity.symmetry,
    )


def _pi_factor(err: float, err_prev: float) -> float:
    """Soderlind's PI.3.4 step ratio for a second-order method (ACM TOMS
    29, 2003), 0.9 (TOL/e)^(0.3/2) (e_prev/e)^(0.4/2) clamped to [0.2, 2].

    Errors are floored far below TOL, so a state with K = 0 grows its step
    at the largest ratio instead of dividing by zero.
    """
    err, err_prev = max(err, 1e-10 * TOL), max(err_prev, 1e-10 * TOL)
    ratio = 0.9 * (TOL / err) ** (0.3 / 2) * (err_prev / err) ** (0.4 / 2)
    return min(max(ratio, 0.2), 2.0)


def _run_flow(start: HiggsBundleState, schedule, dt, update, *, fixed_dt):
    T = schedule[-1]
    # every accepted state is evaluated once: its K~ drives the next step
    # and, at a sample time, its row reuses K~ and the norms
    frame, K_current, norms, validity0 = _shared_starts.get(id(start)) or \
        (*_evaluate(start), validate_structure(start.structure))
    trace = FlowTrace()
    samples = []

    def sample(obj, frame, norms, t_now, dt_now):
        # the metric flow never replaces the structure, so its validity
        # residuals are those of the start
        validity = validity0 if obj.structure is start.structure else \
            validate_structure(obj.structure)
        row = _metric_trace_row(obj, dt_now, validity, norms, frame)
        if not all(math.isfinite(v) for v in row.values()):
            raise FlowBlowup(f"non-finite sample row at t={t_now:.6g}",
                             obj, trace, t_now, "sample_row")
        trace.append(t=t_now, **row)
        samples.append((t_now, frame, norms))

    current = start
    t = 0.0
    sample(current, frame, norms, 0.0, dt)
    next_idx = 1  # the schedule starts at t = 0, sampled above

    adaptive = not fixed_dt
    tol = TOL if adaptive else None
    dev_prev = trace.dev_sup[-1]
    steps = 0
    rejected_by = dict.fromkeys(("breakdown", "max_principle",
                                 "error_estimate"), 0)
    # dt_prop is the controller's proposal; a step clipped to land on a
    # sample time or on T does not shrink it
    dt_prop, err_prev, dt_cap = dt, TOL, math.inf
    while next_idx < len(schedule):
        if steps >= MAX_STEPS:
            raise FlowBlowup(f"step cap MAX_STEPS = {MAX_STEPS} reached at "
                             f"t={t:.6g} before T={T:.6g}", current, trace, t,
                             "step_cap")
        dt_free = dt_prop
        if adaptive and dev_prev > 0:
            dt_free = min(dt_free, SAFETY / dev_prev)
        # land exactly on the next sample time; the schedule ends at T
        dt_step = max(min(dt_free, schedule[next_idx] - t), 1e-15)
        t_next = t + dt_step
        due = t_next >= schedule[next_idx] - 1e-12

        candidate, err, reason = _etd2(current, dt_step, K_current, update, tol)
        if reason is None:
            frame, K_next, norms = _evaluate(candidate) if due else \
                (None, _deviation(candidate), None)
            if adaptive:
                # |K~|^2 of the candidate, held by a sample's norms
                dev2 = norms[2] if due else pointwise_norm2(K_next)
                dev_new = _sup(dev2)
                if dev_new > dev_prev * (1.0 + MP_RTOL) + MP_ATOL:
                    reason = "max_principle"
        if reason is not None:
            if fixed_dt:
                raise FlowBlowup(f"flow produced non-finite fields or a "
                                 f"non-positive metric at t={t:.6g} with "
                                 f"dt={dt_step:.3e}", current, trace, t,
                                 "breakdown")
            rejected_by[reason] += 1
            if reason == "breakdown":
                dt_prop = 0.5 * dt_step
            else:
                dt_prop = dt_step * _pi_factor(err, err_prev)
            if reason == "max_principle":
                dt_cap = STABILITY_BACKOFF * dt_step
            dt_prop = min(dt_prop, dt_cap)
            if dt_prop < 1e-12:
                raise FlowBlowup(f"flow step size collapsed at t={t:.6g}",
                                 current, trace, t, "step_collapse")
            continue
        if adaptive:
            dev_prev = dev_new
            dt_cap *= STABILITY_RELAX
            dt_prop = min(dt_free * _pi_factor(err, err_prev), dt_cap)
            err_prev = err

        current, K_current, t = candidate, K_next, t_next
        steps += 1
        if due:
            sample(current, frame, norms, t, dt_step)
            next_idx += 1
    return FlowResult(current, trace, samples, steps, rejected_by)


def run_donaldson_flow(state: HiggsBundleState, T: float, dt: float, *,
                       fixed_dt: bool = False,
                       sample_times=None) -> FlowResult:
    """Integrate the metric flow to time T by ETDRK2 steps (_etd2 with
    _metric_update) and record a FlowTrace.

    With fixed_dt the step is exactly dt (pinned-accuracy experiments);
    otherwise dt is the first proposal of the error-controlled step
    controller: the step is capped by SAFETY/sup|K|, a candidate is
    rejected when its local error estimate exceeds TOL or its sup|K~|
    rises (the maximum principle), and the next step follows a PI
    controller (see the module constants).
    """
    return _run_flow(state, _sample_schedule(T, dt, sample_times), dt,
                     _metric_update, fixed_dt=fixed_dt)


def run_ymh_flow(state: HiggsBundleState, T: float, dt: float, *,
                 fixed_dt: bool = False, sample_times=None) -> FlowResult:
    """Integrate the pair flow over the state's metric H0 to time T by
    ETDRK2 steps (_etd2 with _gauge_update) under the controller of
    run_donaldson_flow. Once its arguments are checked, the run gauges its
    start into its frame state (_frame_of) and steps that pair over the
    unit metric, the same flow in an H0-unitary frame: the final state, the
    samples and a FlowBlowup's state are frame states.

    Validity residuals of the evolved pair are recorded at every sample and
    never re-projected: constraint drift is evidence, not noise to hide.
    """
    schedule = _sample_schedule(T, dt, sample_times)
    return _run_flow(_frame_of(state), schedule, dt, _gauge_update,
                     fixed_dt=fixed_dt)


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
    energy_defect: float        # FlowTrace.energy_defect, the larger of the runs'

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
    evolves (a(t), phi(t)) from the start's frame state, over the unit
    metric. At each sample the three norm equalities relating the two
    sides are evaluated as pointwise fields and reported as relative sup
    residuals, together with the discrepancy between the directly
    integrated pair and the metric flow's state in its frame state, which
    at t = 0 is the pair flow's start.
    """
    samples = sample_times if sample_times is not None else \
        [k * T / 4.0 for k in range(1, 5)]
    # checked before the shared start is evaluated; the runners repeat it
    _sample_schedule(T, dt, samples)
    evaluation = _evaluate(state0)
    frame0 = evaluation[0]
    starts = {id(state0): state0, id(frame0): frame0}  # one for a unit metric
    flow = "donaldson"
    try:
        for key, start in starts.items():
            _shared_starts[key] = (*evaluation,
                                   validate_structure(start.structure))
        res_m = run_donaldson_flow(state0, T, dt, fixed_dt=True,
                                   sample_times=samples)
        flow = "ymh"
        res_p = run_ymh_flow(frame0, T, dt, fixed_dt=True, sample_times=samples)
    except FlowBlowup as exc:
        exc.flow = flow
        raise
    finally:
        for key in starts:
            _shared_starts.pop(key, None)
    # decayed-scale floors: 1e-6 of each quantity's size at t = 0
    floors = tuple(1e-6 * float(f.max()) for f in res_m.samples[0][2])

    report = EquivalenceReport([], [], [], [], [], [], max(
        res_m.trace.energy_defect(), res_p.trace.energy_defect()))
    raw = []  # (phi_diff, phi_scale, a_diff, a_scale) per sample
    # both runs share one sample schedule; the compared fields are the
    # sample norms each runner already took, and the transported pair is
    # the metric flow's sample frame state. The pair run is over the unit
    # metric, so its sample frame states are its states
    for (tk, transported, metric_fields), (_, pr, pair_fields) in zip(
            res_m.samples, res_p.samples):
        report.times.append(round(tk, 9))
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
