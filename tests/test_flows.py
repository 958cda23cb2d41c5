import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from higgsflow import (HermitianMetric, HiggsBundleState,
                       HiggsStructure, MatrixFormField, TorusBase,
                       build_scenario, complex_gauge_apply,
                       einstein_deviation, flow_equivalence_check,
                       run_donaldson_flow, run_ymh_flow, sup_norm)
from higgsflow.flows import _deviation, _etd2, _gauge_update, _metric_update
from higgsflow.geometry import Curvature, adjoint_field
from higgsflow.grid import d_flat, integrate, tr_field
from higgsflow.linalg import dagger, inv, min_eigvalsh, sqrtm_hpd

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], np.complex128)
E21 = E12.T.copy()


def nilpotent_state(N=16):
    return build_scenario("nilpotent-r2", N=N)


def nilpotent_pair(N=16):
    st = nilpotent_state(N)
    return st


def energy_of(state):
    """The integral of the YMH energy density |F + [phi,phi*]|^2 + 2 |del phi|^2."""
    return integrate(Curvature(state).pointwise_energy(), state.base)


def etd2_step(state, dt, update=_metric_update, K=None):
    """One fixed ETDRK2 step of the flow that update picks, from the state
    with frame deviation K (computed when not given); it must not break
    down."""
    K = _deviation(state) if K is None else K
    candidate, err, reason = _etd2(state, dt, K, update, None)
    assert reason is None and err is None
    return candidate


def test_einstein_deviation_oracles():
    st = nilpotent_state()
    K = einstein_deviation(st)
    assert np.allclose(K.comps[0, 0], 2.0 * np.diag([1.0, -1.0]))

    # H = diag(1, 1/u) with u > 0 scales the deviation by u
    u = 2.5
    base = st.base
    Hd = HermitianMetric(base, np.broadcast_to(
        np.diag([1.0, 1.0 / u]).astype(complex), base.shape + (2, 2)).copy())
    K2 = einstein_deviation(HiggsBundleState(st.structure, Hd))
    assert np.allclose(K2.comps[0, 0], 2.0 * u * np.diag([1.0, -1.0]))

    flat = build_scenario("flat-trivial-r2")
    assert sup_norm(einstein_deviation(flat)) == 0.0


def test_donaldson_fixed_point_and_positivity():
    flat = build_scenario("flat-trivial-r2")
    stepped = etd2_step(flat, 0.1)
    assert np.allclose(stepped.metric.mat, flat.metric.mat)

    st = nilpotent_state()
    for _ in range(5):
        st = etd2_step(st, 0.3)  # aggressively large step
        assert min_eigvalsh(st.metric.mat) > 0.0
        assert np.abs(st.metric.mat - dagger(st.metric.mat)).max() < 1e-12


def test_donaldson_nilpotent_closed_form():
    # u(t) = 1/(1+8t) within 1 percent at t = 1 for dt = 1e-3
    res = run_donaldson_flow(nilpotent_state(), 1.0, 1e-3, fixed_dt=True)
    H = res.final.metric.mat
    u = np.real(H[..., 0, 0] / H[..., 1, 1])
    assert abs(u.max() * 9.0 - 1.0) < 0.01
    assert abs(u.min() * 9.0 - 1.0) < 0.01


def test_donaldson_conformal_heat_decay():
    st = build_scenario("conformal-r1")
    dev0 = sup_norm(einstein_deviation(st))
    res = run_donaldson_flow(st, 0.05, 1e-3, fixed_dt=True)
    dev1 = sup_norm(einstein_deviation(res.final))
    assert dev1 < dev0


def test_ymh_energy_oracles():
    assert energy_of(nilpotent_pair()) == pytest.approx(8.0)
    flat = build_scenario("flat-trivial-r2")
    assert energy_of(flat) == 0.0
    # unitary phase rescaling of phi leaves the energy unchanged
    pair = nilpotent_pair()
    phi2 = 1j * pair.structure.phi
    pair2 = HiggsBundleState(HiggsStructure(pair.structure.a, phi2), pair.metric)
    assert energy_of(pair2) == pytest.approx(8.0)


def test_ymh_step_bracket_rate():
    pair = nilpotent_pair()
    dt = 1e-6
    stepped = etd2_step(pair, dt, _gauge_update)
    rate = (stepped.structure.phi.comps[0, 0] - pair.structure.phi.comps[0, 0]) / dt
    assert np.allclose(rate[0, 0], -4.0 * E12, atol=1e-4)


def test_ymh_critical_pair_fixed():
    st = build_scenario("diagonal-polystable")
    pair = st
    stepped = etd2_step(pair, 0.1, _gauge_update)
    assert np.allclose(stepped.structure.phi.comps, pair.structure.phi.comps)
    assert sup_norm(stepped.structure.a) < 1e-13


def test_ymh_nilpotent_energy_decay():
    pair = nilpotent_pair()
    res = run_ymh_flow(pair, 1.0, 1e-3, fixed_dt=True)
    assert energy_of(res.final) == pytest.approx(8.0 / 81.0, rel=0.02)
    e = res.trace.ymh_energy
    assert all(e[k + 1] <= e[k] + 1e-9 for k in range(len(e) - 1))


def test_complex_gauge_identity_and_oracle():
    pair = nilpotent_pair()
    eye = np.broadcast_to(np.eye(2, dtype=complex),
                          pair.base.shape + (2, 2)).copy()
    same = complex_gauge_apply(eye, pair)
    assert np.allclose(same.structure.phi.comps, pair.structure.phi.comps)
    assert sup_norm(same.structure.a) == 0.0

    c = 1.7
    sig = np.broadcast_to(np.diag([c, 1.0 / c]).astype(complex),
                          pair.base.shape + (2, 2)).copy()
    out = complex_gauge_apply(sig, pair)
    assert np.allclose(out.structure.phi.comps[0, 0], c * c * E12)
    assert sup_norm(out.structure.a) == 0.0


def test_unitary_gauge_invariance_of_energy():
    pair = nilpotent_pair()
    theta = 0.7
    u = np.array([[np.cos(theta), np.sin(theta)],
                  [-np.sin(theta), np.cos(theta)]], complex)
    sig = np.broadcast_to(u, pair.base.shape + (2, 2)).copy()
    assert energy_of(complex_gauge_apply(sig, pair)) == pytest.approx(8.0, abs=1e-12)


def test_varying_unitary_gauge_covariance_second_order():
    # for spatially varying unitary gauges the energy is invariant up to
    # the discrete Leibniz defect, which refines at second order
    def energy_shift(N):
        st = build_scenario("nilpotent-r2", N=N)
        pair = st
        x = st.base.axis_coordinate(0) * np.ones(st.base.shape)
        theta = 0.3 * np.cos(2 * np.pi * x)
        sig = np.zeros(st.base.shape + (2, 2), complex)
        sig[..., 0, 0] = np.cos(theta) + 0j
        sig[..., 0, 1] = np.sin(theta)
        sig[..., 1, 0] = -np.sin(theta)
        sig[..., 1, 1] = np.cos(theta) + 0j
        return abs(energy_of(complex_gauge_apply(sig, pair)) - 8.0)

    coarse, fine = energy_shift(16), energy_shift(32)
    assert fine < coarse / 3.0


def test_gauge_transform_of_connection_part():
    # the (1,0) part rebuilt by the Chern formula matches the adjoint
    # conjugation rule to truncation order
    base = TorusBase(1, 32)
    st = build_scenario("nilpotent-r2", N=32)
    pair = st
    x = base.axis_coordinate(0) * np.ones(base.shape)
    g = 0.2 * np.cos(2 * np.pi * x)
    sig = np.eye(2, dtype=complex) + g[..., None, None] * E12
    out = complex_gauge_apply(sig, pair)
    b_new = Curvature(out).b
    sig_star = dagger(sig)  # background is the identity metric
    sig_star_inv = np.linalg.inv(sig_star)
    b_old = Curvature(pair).b
    dss = d_flat(MatrixFormField(base, 0, 0, sig_star[None, None]))
    expected = MatrixFormField.zeros(base, 1, 0, 2)
    expected.comps[0, 0] = sig_star_inv @ b_old.comps[0, 0] @ sig_star \
        + sig_star_inv @ dss.comps[0, 0]
    assert sup_norm(b_new - expected) < 5e-2
    assert sup_norm(b_new - expected) < 0.5 * sup_norm(expected) + 1e-6


def test_deviation_is_H_self_adjoint_to_truncation():
    st = build_scenario("conformal-r1")
    K = einstein_deviation(st)
    sym = 0.5 * (K.comps[0, 0] + adjoint_field(K, st.metric).comps[0, 0])
    assert np.abs(K.comps[0, 0] - sym).max() < 1e-10


def test_trace_of_deviation_integrates_to_zero():
    # degree-zero states: the total integral of tr K vanishes to roundoff
    for name in ("nilpotent-r2", "conformal-r1", "chain-r3"):
        st = build_scenario(name)
        K = einstein_deviation(st)
        total = integrate(np.real(tr_field(K).comps[0, 0, ..., 0, 0]), st.base)
        assert abs(total) < 1e-10


def test_energy_density_matches_energy_exactly():
    # the trace row's energy is the integral of Curvature.pointwise_energy
    pair = nilpotent_pair()
    dens = Curvature(pair).pointwise_energy()
    assert np.allclose(dens, 8.0)
    res = run_ymh_flow(pair, 1e-3, 1e-3, fixed_dt=True)
    assert res.trace.ymh_energy[0] == integrate(dens, pair.base)


def test_pair_validity_drift_is_small():
    pair = nilpotent_pair()
    res = run_ymh_flow(pair, 0.5, 1e-2, fixed_dt=True)
    assert res.trace.residual_holomorphy[-1] < 1e-8
    assert res.trace.residual_integrability[-1] == 0.0


def test_flow_trace_csv_columns(tmp_path):
    res = run_donaldson_flow(nilpotent_state(), 0.25, 1e-2, fixed_dt=True)
    path = tmp_path / "trace.csv"
    res.trace.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ("t,ymh_energy,dev_l2,dev_sup,e_sup,phi_sup,dt,"
                      "residual_integrability,residual_holomorphy,"
                      "residual_symmetry")
    assert len(path.read_text().splitlines()) == len(res.trace.t) + 1


def test_flow_equivalence_at_time_zero():
    rep = flow_equivalence_check(nilpotent_state(), 0.0, 1e-3)
    assert rep.max_norm_residual() == 0.0


def test_flow_equivalence_nilpotent():
    rep = flow_equivalence_check(nilpotent_state(), 1.0, 1e-3)
    assert rep.max_norm_residual() < 1e-3
    assert rep.max_transport_discrepancy() < 1e-3


@pytest.mark.parametrize("flowed, bound", [(False, 5e-3), (True, 1e-4)],
                         ids=["fresh", "flowed"])
def test_the_transport_of_non_commuting_starts_does_not_drift(flowed, bound):
    # the pair is transported by the metric flow's carried gauge L0^{-1} L(t).
    # Any other root of H0^{-1} H(t), such as the H0-self-adjoint one,
    # differs from it by an H0-unitary factor on these non-commuting starts,
    # and its discrepancy grows with t. A flowed start carries a frame that
    # is not Hermitian
    from higgsflow.scenarios import random_valid_state
    st = random_valid_state(TorusBase(1, 16), 2, 5)
    if flowed:
        st = run_donaldson_flow(st, 0.05, 1e-3).final
        L = st.metric.frame[0]
        assert np.abs(L - dagger(L)).max() > 1e-3
    rep = flow_equivalence_check(st, 0.2, 1e-3)
    assert rep.max_transport_discrepancy() <= bound
    per_sample = np.maximum(rep.transport_phi, rep.transport_a)
    assert rep.times[0] == 0.0 and per_sample[0] < 1e-13
    assert per_sample[-1] <= 1.5 * per_sample[1]


@pytest.mark.parametrize("bad", [0.5, -1e-3, float("nan")])
def test_a_sample_time_outside_the_run_is_rejected(bad):
    st = nilpotent_state(8)
    runs = (lambda: run_donaldson_flow(st, 0.01, 1e-3, sample_times=[bad]),
            lambda: run_ymh_flow(st, 0.01, 1e-3, sample_times=[0.01, bad]),
            lambda: flow_equivalence_check(st, 0.01, 1e-3,
                                           sample_times=[bad, float("nan")]))
    for run in runs:
        with pytest.raises(ValueError, match=re.escape(f"sample time {bad!r} ")):
            run()
    # the ends of the run stay valid
    rep = flow_equivalence_check(st, 0.01, 1e-3, sample_times=[0.0, 0.01])
    assert rep.times == [0.0, 0.01]


def test_blowup_carries_last_healthy_state(break_expm):
    from higgsflow.flows import FlowBlowup
    st = build_scenario("conformal-r1")
    # the third step's predictor is non-finite
    break_expm(np.nan, first=5)
    with pytest.raises(FlowBlowup) as excinfo:
        run_donaldson_flow(st, 20.0, 0.5, fixed_dt=True)
    exc = excinfo.value
    assert exc.reason == "breakdown"
    assert np.isfinite(exc.state.metric.mat).all()
    assert exc.t > 0.0 and exc.state is not st
    assert len(exc.trace.t) >= 1


def test_adaptive_flow_names_a_collapsed_step(break_expm):
    from higgsflow.flows import FlowBlowup
    st = build_scenario("conformal-r1")
    # every attempt breaks down, so the halved step falls below 1e-12
    calls = break_expm(np.nan, first=1)
    with pytest.raises(FlowBlowup, match="step size collapsed") as excinfo:
        run_donaldson_flow(st, 1.0, 0.5)
    exc = excinfo.value
    assert exc.reason == "step_collapse" and exc.t == 0.0
    assert exc.state is st and len(calls) > 30


def test_adaptive_flow_rescues_oversized_step(break_expm):
    # the adaptive runner halves a step that broke down and goes on; the
    # step has no stability bound, so the breakdown is planted
    st = build_scenario("conformal-r1")
    break_expm(np.nan, first=3, last=3)
    res = run_donaldson_flow(st, 0.5, 0.5)
    assert res.rejected_by["breakdown"] == 1 and res.rejected == 1
    assert res.trace.t[-1] == pytest.approx(0.5)
    assert np.isfinite(res.final.metric.mat).all()


def test_adaptive_flow_reaches_target_time():
    res = run_donaldson_flow(nilpotent_state(), 10.0, 1e-3)
    assert res.trace.t[-1] == pytest.approx(10.0)
    assert res.steps < 2000
    # energy decays along the adaptive run as well
    assert res.trace.ymh_energy[-1] < 1e-2
    # the L2 Einstein deviation is non-increasing on semistable scenarios
    dev = res.trace.dev_l2
    assert all(b <= a + 1e-12 for a, b in zip(dev, dev[1:]))


def test_adaptive_step_keeps_its_proposal_across_sample_landings():
    # the 12 geometric sample landings clip the step without shrinking the
    # proposal that follows them
    res = run_donaldson_flow(nilpotent_state(), 100.0, 1e-3)
    assert res.trace.t[-1] == pytest.approx(100.0)
    assert res.steps <= 110


def test_adaptive_flow_respects_the_maximum_principle():
    # sup|K| and the energy never rise along the accepted states; the step
    # has no stability bound, so this run takes 6 steps and rejects none
    # (the rejection paths are planted in the tests below)
    res = run_donaldson_flow(build_scenario("conformal-r1", N=64), 0.05, 1e-3)
    assert res.trace.t[-1] == pytest.approx(0.05)
    for column in (res.trace.ymh_energy, res.trace.dev_sup):
        assert all(b <= a for a, b in zip(column, column[1:]))
    assert set(res.rejected_by) == {"breakdown", "max_principle",
                                    "error_estimate"}
    assert sum(res.rejected_by.values()) == res.rejected
    assert res.rejected <= 0.1 * (res.steps + res.rejected)


def _record_attempts(monkeypatch):
    """The (dt, err, reason) of every attempt the runners make."""
    import higgsflow.flows
    real = higgsflow.flows._etd2
    attempts = []

    def recorded(state, dt, *args):
        candidate, err, reason = real(state, dt, *args)
        attempts.append((dt, err, reason))
        return candidate, err, reason

    monkeypatch.setattr(higgsflow.flows, "_etd2", recorded)
    return attempts


def test_a_rise_of_sup_K_is_rejected_and_caps_the_next_steps(monkeypatch):
    import higgsflow.flows
    from higgsflow.flows import STABILITY_BACKOFF, STABILITY_RELAX
    real = higgsflow.flows.expm_batched
    calls = []

    def backwards(m):
        # the 4th exponential, the second attempt's result, is e^{-x}: it
        # undoes the decay of the step, so sup|K| rises
        calls.append(None)
        return real(-m if len(calls) == 4 else m)

    monkeypatch.setattr(higgsflow.flows, "expm_batched", backwards)
    attempts = _record_attempts(monkeypatch)
    res = run_donaldson_flow(build_scenario("conformal-r1", N=64), 0.05, 1e-3)
    assert res.rejected_by == {"breakdown": 0, "max_principle": 1,
                               "error_estimate": 0}
    assert res.steps == 32 and len(attempts) == 33
    assert res.trace.t[-1] == pytest.approx(0.05)
    for column in (res.trace.ymh_energy, res.trace.dev_sup):
        assert all(b <= a for a, b in zip(column, column[1:]))
    # every later step is held under STABILITY_BACKOFF dt_r, a cap that
    # relaxes by STABILITY_RELAX per accepted step, and the first one meets it
    cap = STABILITY_BACKOFF * attempts[1][0]
    assert attempts[2][0] == pytest.approx(cap, rel=1e-12)
    for k, (dt, _, _) in enumerate(attempts[2:]):
        assert dt <= cap * STABILITY_RELAX ** k * (1.0 + 1e-12)


def test_a_step_above_the_error_tolerance_is_rejected(monkeypatch):
    import higgsflow.flows
    monkeypatch.setattr(higgsflow.flows, "TOL", 1e-3)
    attempts = _record_attempts(monkeypatch)
    res = run_donaldson_flow(nilpotent_state(8), 0.25, 0.5)
    assert res.rejected_by == {"breakdown": 0, "max_principle": 0,
                               "error_estimate": 3}
    assert res.steps == 26 and len(attempts) == 29
    assert res.trace.t[-1] == pytest.approx(0.25)
    for (dt, err, reason), (dt_next, _, _) in zip(attempts, attempts[1:]):
        if reason is not None:
            # the estimate exceeded TOL, and the retry is shorter
            assert reason == "error_estimate" and err > 1e-3
            assert dt_next < dt


@pytest.mark.parametrize("name, N, T", [("nilpotent-r2", None, 10.0),
                                        ("conformal-r1", 64, 2.0)])
def test_adaptive_pair_flow_takes_the_metric_flows_steps(name, N, T):
    st = build_scenario(name, N=N)
    res = run_ymh_flow(st, T, 1e-3)
    assert res.trace.t[-1] == pytest.approx(T)
    assert res.rejected == 0
    # the energy does not increase, up to roundoff once it has decayed
    e = res.trace.ymh_energy
    assert all(b <= a + 1e-15 * e[0] for a, b in zip(e, e[1:]))
    # the transported metric is the metric flow's, so the controller sees
    # the same sup|K| and errors
    assert res.steps == run_donaldson_flow(st, T, 1e-3).steps


def test_flat_state_passes_the_maximum_principle_floor():
    res = run_donaldson_flow(build_scenario("flat-trivial-r2"), 1.0, 1e-2)
    assert res.rejected == 0
    assert res.trace.t[-1] == pytest.approx(1.0)


def test_only_the_adaptive_runner_takes_the_error_estimate(monkeypatch,
                                                           break_expm):
    import higgsflow.flows
    real = higgsflow.flows._etd_error
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(higgsflow.flows, "_etd_error", counted)
    st = nilpotent_state(8)
    fixed = run_donaldson_flow(st, 0.25, 1e-2, fixed_dt=True)
    assert fixed.steps > 0 and calls == []
    # the second attempt's predictor breaks down before its estimate
    break_expm(np.nan, first=3, last=3)
    res = run_donaldson_flow(st, 0.25, 1e-2)
    assert res.rejected_by["breakdown"] == 1
    # one estimate per attempt that reached its predictor deviation
    assert len(calls) == res.steps + res.rejected - res.rejected_by["breakdown"]


def test_lost_positivity_blows_up_with_last_healthy_state(break_expm):
    from higgsflow.flows import FlowBlowup
    from higgsflow.scenarios import random_valid_state
    st = random_valid_state(TorusBase(1, 16), 3, seed=1, amplitude=0.3)
    # from the second step's result on, H' = 0: finite, not positive
    break_expm(0.0, first=4)
    with pytest.raises(FlowBlowup) as excinfo:
        run_donaldson_flow(st, 0.8, 0.02, fixed_dt=True)
    exc = excinfo.value
    assert exc.t > 0.0
    assert exc.state is not st


def test_trace_append_rejects_a_row_without_keeping_it():
    from higgsflow import FlowTrace
    trace = FlowTrace()
    row = {col: 0.0 for col in FlowTrace.COLUMNS}
    trace.append(**row)
    with pytest.raises(ValueError):
        trace.append(**dict(row, t=1.0, dev_sup=float("nan")))
    with pytest.raises(ValueError):
        trace.append(**row)  # time does not increase
    assert all(len(getattr(trace, col)) == 1 for col in FlowTrace.COLUMNS)


def test_the_energy_defect_is_the_worst_sample_of_the_trace():
    # |E - ||K||^2| / E per row, with E = ymh_energy and ||K|| = dev_l2; a row
    # with E = ||K||^2 = 0 reads 0, and an empty trace reads 0
    from higgsflow import FlowTrace
    trace = FlowTrace()
    assert trace.energy_defect() == 0.0
    row = {col: 0.0 for col in FlowTrace.COLUMNS}
    for t, e, k in ((0.0, 0.0, 0.0), (1.0, 4.0, 1.0), (2.0, 2.0, 1.0)):
        trace.append(**dict(row, t=t, ymh_energy=e, dev_l2=k))
    assert trace.energy_defect() == 0.75


def test_non_finite_sample_row_blows_up_with_that_state(monkeypatch):
    import higgsflow.flows
    from higgsflow.flows import FlowBlowup
    real = higgsflow.flows._metric_trace_row
    calls = []

    def nan_after_first(state, dt, validity, *rest):
        row = real(state, dt, validity, *rest)
        calls.append(state)
        return row if len(calls) == 1 else dict(row, dev_sup=float("nan"))

    monkeypatch.setattr(higgsflow.flows, "_metric_trace_row", nan_after_first)
    st = nilpotent_state()
    with pytest.raises(FlowBlowup) as excinfo:
        run_donaldson_flow(st, 0.25, 0.01, fixed_dt=True)
    exc = excinfo.value
    assert exc.reason == "sample_row"
    assert exc.t == pytest.approx(0.0625)  # the first sample after t = 0
    assert exc.state is calls[-1] and exc.state is not st
    assert np.isfinite(exc.state.metric.mat).all()
    assert exc.trace.t == [0.0]


@pytest.mark.parametrize("T, dt, name", [
    (float("nan"), 0.01, "T"), (float("inf"), 0.01, "T"), (-1.0, 0.01, "T"),
    (0.25, float("nan"), "dt"), (0.25, float("inf"), "dt"), (0.25, 0.0, "dt")])
def test_runner_rejects_bad_T_or_dt_by_name(T, dt, name):
    st = nilpotent_state(8)
    for fixed in (False, True):
        with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
            run_donaldson_flow(st, T, dt, fixed_dt=fixed)


def _count_calls(monkeypatch, *fns):
    """Count the calls of fns made from any higgsflow module."""
    import sys
    counts = {fn.__name__: 0 for fn in fns}
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "higgsflow":
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def test_each_flow_state_gets_one_hitchin_simpson_evaluation(monkeypatch,
                                                            part11_builds):
    import higgsflow.flows
    from higgsflow.geometry import validate_structure
    from higgsflow.grid import dbar_flat
    from higgsflow.scenarios import random_state_with_subbundle
    st, _ = random_state_with_subbundle(TorusBase(2, 8), 2, 1, 5,
                                        amplitude=0.0015)
    counts = _count_calls(monkeypatch, d_flat, dbar_flat, validate_structure,
                          higgsflow.flows._evaluate)
    curvatures = [0]
    real_post_init = Curvature.__post_init__

    def counted(self):
        curvatures[0] += 1
        real_post_init(self)

    monkeypatch.setattr(Curvature, "__post_init__", counted)

    # K alone builds only the slots that Lambda reads: d of H for the Chern
    # connection; the slots' derivatives of a and b take no d_flat/dbar_flat
    einstein_deviation(st)
    assert part11_builds == [0]
    assert counts == {"d_flat": 1, "dbar_flat": 0, "validate_structure": 0,
                      "_evaluate": 0}

    counts.update(dict.fromkeys(counts, 0))
    curvatures[0] = 0
    flow_equivalence_check(st, 2e-3, 1e-3, sample_times=[2e-3])
    # every state is evaluated once, in its frame state: the start, once
    # for both runs, then the predictor and the result of each step of
    # each run (9 Curvatures). The sample norms are read at the start and
    # at T of each run (3 _evaluate), slot by slot, so no part11 is
    # assembled. A frame state has the unit metric, so no Chern connection
    # takes d_flat. dbar_flat: one per frame state of the metric run (its
    # start, 2 predictors and 2 results), whose samples keep the frame
    # states that the transport compares, and one per gauge update of the
    # pair run (4). The start and its frame state are validated once for
    # both runs, and the pair's sample at T
    assert curvatures == [9] and part11_builds == [0]
    assert counts == {"d_flat": 0, "dbar_flat": 5 + 4,
                      "validate_structure": 3, "_evaluate": 3}


def test_the_runner_takes_one_root_per_run(monkeypatch):
    # a metric keeps its frame, and the metric flow carries it, L' = e^{s/2} L:
    # one root per run, of its start, whatever its steps and rejections.
    # A pair run steps over the unit metric by e^{x/2} and takes no root of
    # its own; from any other metric it roots that metric once, to gauge its
    # start into its frame state. Each run starts from a fresh state, whose
    # metric has no frame yet
    import higgsflow.flows
    monkeypatch.setattr(higgsflow.flows, "TOL", 1e-3)
    counts = _count_calls(monkeypatch, sqrtm_hpd)
    res = run_donaldson_flow(nilpotent_state(8), 0.25, 0.5)
    assert res.steps > 1 and res.rejected > 0 and counts["sqrtm_hpd"] == 1
    counts["sqrtm_hpd"] = 0
    res = run_ymh_flow(nilpotent_state(8), 0.25, 0.5)
    assert res.rejected > 0 and counts["sqrtm_hpd"] == 0
    st = nilpotent_state(8)
    res = run_ymh_flow(HiggsBundleState(st.structure, HermitianMetric(
        st.base, 2.0 * st.metric.mat)), 0.25, 0.5)
    assert res.rejected > 0 and counts["sqrtm_hpd"] == 1
    # a check's pair run starts from the frame state of its unit-metric
    # start, the start itself, and the transports read the frames that the
    # metric flow carries: the one root is that of the metric run's start
    counts["sqrtm_hpd"] = 0
    report = flow_equivalence_check(nilpotent_state(8), 4e-3, 1e-3)
    assert len(report.times) == 5 and counts["sqrtm_hpd"] == 1


def _n2_random_state(N):
    from higgsflow.scenarios import random_valid_state
    return random_valid_state(TorusBase(2, N), 2, 3)


@pytest.mark.parametrize("make", [
    lambda: build_scenario("t4-commuting", N=8), lambda: _n2_random_state(8)],
    ids=["t4-commuting", "random-n2"])
def test_a_pair_run_steps_its_start_in_its_frame_state(make, tmp_path):
    # over a non-unit metric the run gauges its start into its frame state
    # and steps that pair over the unit metric: started there, it writes the
    # same trace and the same final state, to the bit
    from higgsflow.flows import _frame_of
    st = make()
    assert not st.metric.unit
    runs = [run_ymh_flow(start, 0.05, 1e-3) for start in (st, _frame_of(st))]
    traces = []
    for k, res in enumerate(runs):
        res.trace.write_csv(tmp_path / f"{k}.csv")
        traces.append((tmp_path / f"{k}.csv").read_bytes())
        assert res.final.metric.unit
    assert traces[0] == traces[1]
    for x, y in zip(*((r.final.structure.a.comps, r.final.structure.phi.comps,
                       r.final.metric.mat) for r in runs)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", ["conformal-r1", "t4-commuting"])
def test_a_fixed_pair_run_gauges_once_per_update(name, monkeypatch):
    # a k-step run over a non-unit metric gauges its start into its frame
    # state once, then each step gauges its predictor and its result once:
    # 2k + 1 dbar_flat calls. Its states are unit-metric frame states, so
    # no evaluation gauges again
    from higgsflow.grid import dbar_flat
    st = build_scenario(name, N=8)
    assert not st.metric.unit
    counts = _count_calls(monkeypatch, dbar_flat)
    res = run_ymh_flow(st, 3e-3, 1e-3, fixed_dt=True)
    assert res.steps == 3 and counts == {"dbar_flat": 2 * 3 + 1}


def test_the_n2_pair_flow_keeps_the_energy_identity():
    # E = ||K||^2 for every valid state (c1 = c2 = 0); the pair flow drifts
    # off validity at O(h^2) per step, and stepped in its frame it keeps
    # the defect at 0.104 to T = 1 at N = 8
    res = run_ymh_flow(_n2_random_state(8), 1.0, 1e-3)
    assert res.trace.t[-1] == pytest.approx(1.0)
    assert res.trace.energy_defect() <= 0.15


@pytest.mark.parametrize("n", [1, 2])
def test_a_unit_frame_diagonal_slot_takes_one_derivative(n, monkeypatch):
    # in the frame b_i = -a_i^dag, so slot (i, i) of F_H reads d^dag + d with
    # d = del_i a_i: K takes n derivatives, where the same matrices under an
    # unmarked metric take 2n, and n more for the metric connection
    # H^{-1} del H (d_flat of H). A sample evaluation reads only the slots
    # (i, j) with i <= j: at n = 2, 2 derivatives for del phi and 1 + 2 + 1
    # for the slots (0, 0), (0, 1) and (1, 1); slot (1, 0) is never built
    import higgsflow.flows
    from higgsflow.grid import _dz_component
    from higgsflow.scenarios import random_valid_state
    st = higgsflow.flows._frame_of(random_valid_state(TorusBase(n, 8), 2, 1))
    plain = HiggsBundleState(st.structure,
                             HermitianMetric(st.base, st.metric.mat.copy()))
    counts = _count_calls(monkeypatch, _dz_component)
    Curvature(st).deviation()
    assert counts == {"_dz_component": n}
    counts["_dz_component"] = 0
    Curvature(plain).deviation()
    assert counts == {"_dz_component": 3 * n}
    counts["_dz_component"] = 0
    higgsflow.flows._evaluate(st)
    assert counts == {"_dz_component": {1: 1, 2: 6}[n]}


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", [1, 2])
def test_unit_frame_slots_come_in_dagger_pairs(rank, seed):
    # under the unit metric slot (1, 0) of F_H and of the bracket is the
    # dagger of slot (0, 1) up to roundoff, so the n = 2 sample norm reads
    # |S01|^2 twice and equals the norm of the assembled part11
    from higgsflow.flows import _evaluate, _frame_of
    from higgsflow.grid import pointwise_norm2
    from higgsflow.scenarios import random_valid_state
    st = _frame_of(random_valid_state(TorusBase(2, 8), rank, seed))
    hs = Curvature(st)
    for part in (hs.f11, hs.bracket):
        upper, lower = part.comps[0, 1], part.comps[1, 0]
        assert np.abs(lower - dagger(upper)).max() <= \
            1e-15 * np.abs(upper).max()
    curv2, ref = _evaluate(st)[2][1], pointwise_norm2(hs.part11)
    assert np.abs(curv2 - ref).max() <= 1e-14 * ref.max()


@pytest.mark.parametrize("n", [1, 2])
def test_a_sample_row_inverts_its_metric_once(n, monkeypatch):
    # the evaluation reads the state in its frame state, built with the
    # frame's inverse L^{-1}; there the Chern connection, phi^* and the
    # four norms of a row are metric-free, so H^{-1} is never built
    from higgsflow.flows import _evaluate, _metric_trace_row
    from higgsflow.geometry import validate_structure
    from higgsflow.scenarios import random_valid_state
    st = random_valid_state(TorusBase(n, 8), 2, 4)
    validity = validate_structure(st.structure)
    counts = _count_calls(monkeypatch, inv)
    frame, _, norms = _evaluate(st)
    _metric_trace_row(st, 1e-3, validity, norms, frame)
    assert counts == {"inv": 1} and "inv" not in vars(st.metric)


def test_the_pair_flow_inverts_its_frozen_frame_once(monkeypatch):
    # a start over a metric other than the unit one inverts its frame once
    # per run, when the run gauges it into its frame state; the unit metric
    # inverts nothing. What is left are the two inverses of
    # complex_gauge_apply per attempt (predictor and result)
    import higgsflow.flows
    import higgsflow.geometry
    calls = {"flows": 0, "geometry": 0}
    for name, mod in (("flows", higgsflow.flows),
                      ("geometry", higgsflow.geometry)):
        def counted(m, _name=name, _real=mod.inv):
            calls[_name] += 1
            return _real(m)
        monkeypatch.setattr(mod, "inv", counted)
    st = nilpotent_state(16)
    for metric, frame_inverses in ((st.metric, 0), (HermitianMetric(
            st.base, 2.0 * st.metric.mat), 1)):
        calls.update(dict.fromkeys(calls, 0))
        res = run_ymh_flow(HiggsBundleState(st.structure, metric), 100.0, 1e-3)
        assert (res.steps, res.rejected) == (72, 0)
        assert calls == {"flows": 2 * 72, "geometry": frame_inverses}


def _relative(x, y):
    return np.abs(x - y).max() / np.abs(y).max()


@settings(max_examples=10, deadline=None)
@given(strategies.sampled_from([1, 2]), strategies.integers(1, 4),
       strategies.integers(0, 2**32 - 1))
def test_every_flow_metric_carries_a_frame_of_itself(n, rank, seed):
    # every metric the metric flow builds (predictors, rejected candidates
    # and accepted states) is L^dag L of the frame it keeps
    import higgsflow.flows
    from higgsflow.scenarios import random_valid_state
    built = []

    def recorded(state, x):
        built.append(_metric_update(state, x))
        return built[-1]

    start = random_valid_state(TorusBase(n, 8), rank, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(higgsflow.flows, "_metric_update", recorded)
        res = run_donaldson_flow(start, 0.02, 1e-3)
    assert res.steps >= 1 and res.final.metric in [s.metric for s in built]
    for metric in [start.metric] + [s.metric for s in built]:
        L, L_inv = metric.frame
        assert _relative(dagger(L) @ L, metric.mat) <= 1e-13
        assert np.abs(L @ L_inv - np.eye(rank)).max() <= 1e-12


def test_the_planted_metric_run_reaches_its_horizon(monkeypatch):
    # evaluated in its frame state, the metric flow of a planted rank-1
    # sub-bundle reaches T = 300 in 119 steps; evaluated through the metric
    # adjoints, its maximum-principle test stalled it near t = 58 after
    # 1500 steps
    import higgsflow.flows
    from higgsflow.scenarios import random_state_with_subbundle
    monkeypatch.setattr(higgsflow.flows, "MAX_STEPS", 1500)
    st, _ = random_state_with_subbundle(TorusBase(1, 16), 3, 1, seed=1,
                                        amplitude=0.004)
    res = run_donaldson_flow(st, 300.0, 1e-3)
    assert res.trace.t[-1] == 300.0 and res.steps <= 200


def test_the_spectra_make_the_upper_triangle_once_per_rank(monkeypatch):
    import higgsflow.flows
    higgsflow.flows._triu.cache_clear()
    real = np.triu_indices
    ranks = []
    monkeypatch.setattr(np, "triu_indices",
                        lambda r, *args: ranks.append(r) or real(r, *args))
    for N in (8, 12):
        run_donaldson_flow(nilpotent_state(N), 4e-3, 1e-3, fixed_dt=True)
        run_donaldson_flow(build_scenario("conformal-r1", N=N), 4e-3, 1e-3,
                           fixed_dt=True)
    assert sorted(ranks) == [1, 2]


# -- the ETDRK2 step -----------------------------------------------------------------


def heat_reference(u0, base, T):
    """exp(T Lap_h) u0 by FFT, Lap_h the composed centred-difference
    Laplacian with symbol -sum_axes (sin(2 pi k h) / h)^2."""
    h = base.spacing
    along = -(np.sin(2.0 * np.pi * np.fft.fftfreq(base.N)) / h) ** 2
    symbol = sum(along.reshape([-1 if j == axis else 1 for j in range(u0.ndim)])
                 for axis in range(u0.ndim))
    return np.fft.ifftn(np.exp(T * symbol) * np.fft.fftn(u0)).real


def test_phi_functions_match_a_high_precision_reference():
    from decimal import Decimal, localcontext

    from higgsflow.flows import PHI_TAYLOR_Z, _phi_functions
    z = np.array([1e-9, 1e-3, 0.999 * PHI_TAYLOR_Z, PHI_TAYLOR_Z, 0.3, 7.0, 1e4])
    phi1, phi2 = _phi_functions(z)
    with localcontext() as ctx:
        ctx.prec = 50
        for k, zk in enumerate(z):
            d = Decimal(float(zk))
            e = (-d).exp()
            assert phi1[k] == pytest.approx(float((1 - e) / d), rel=1e-14)
            assert phi2[k] == pytest.approx(float((e - 1 + d) / (d * d)), rel=1e-14)
    at_zero = _phi_functions(np.zeros(1))
    assert at_zero[0][0] == 1.0 and at_zero[1][0] == 0.5


def test_rank_one_flow_follows_the_discrete_heat_equation():
    # at rank 1 the step is exact on the linear part, so the adaptive run
    # is held to the discrete heat flow far below the explicit scheme's
    # 5.4e-4
    st = build_scenario("conformal-r1", N=64)
    T = 0.05
    res = run_donaldson_flow(st, T, 1e-3)
    u0 = np.log(st.metric.mat[..., 0, 0].real)
    uT = np.log(res.final.metric.mat[..., 0, 0].real)
    err = np.abs(uT - heat_reference(u0, st.base, T)).max() / np.abs(u0 - u0.mean()).max()
    assert err <= 1e-5


def test_fixed_step_error_is_second_order():
    from higgsflow.scenarios import random_valid_state
    st = random_valid_state(TorusBase(1, 32), 3, seed=1)
    h2 = st.base.spacing ** 2
    T = 8 * h2
    final = {div: run_donaldson_flow(st, T, h2 / div, fixed_dt=True).final.metric.mat
             for div in (1, 2, 8)}
    ref = final[8]
    err = {div: np.abs(final[div] - ref).max() for div in (1, 2)}
    assert err[1] >= 3.0 * err[2]


def test_steps_do_not_scale_with_the_grid():
    # the explicit step was bound by h^2: doubling N took 3.85x the steps
    from higgsflow.scenarios import random_state_with_subbundle
    steps = {}
    for N in (16, 32):
        st, _ = random_state_with_subbundle(TorusBase(1, N), 3, 1, 1,
                                            amplitude=0.004)
        res = run_donaldson_flow(st, 5.0, 1e-3)
        assert res.trace.t[-1] == pytest.approx(5.0)
        steps[N] = res.steps
    assert steps[32] <= 1.3 * steps[16]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_every_step_keeps_the_metric_positive_and_hermitian(n, rank, seed):
    from higgsflow.scenarios import random_valid_state
    from higgsflow.flows import SAFETY
    st = random_valid_state(TorusBase(n, 8), rank, seed=seed, amplitude=0.3)
    for _ in range(3):
        # ten times the adaptive runner's cap SAFETY / sup|K~|
        K = _deviation(st)
        st = etd2_step(st, 10.0 * SAFETY / sup_norm(K), K=K)
        H = st.metric.mat
        assert np.array_equal(H, dagger(H))
        assert min_eigvalsh(H) > 0.0


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("run", [run_donaldson_flow, run_ymh_flow])
def test_the_step_cap_ends_no_run_short(monkeypatch, run, fixed):
    import higgsflow.flows
    from higgsflow.flows import FlowBlowup
    monkeypatch.setattr(higgsflow.flows, "MAX_STEPS", 3)
    st = nilpotent_state(8)
    dt = 2.0 ** -7   # three steps land exactly on 3 dt
    with pytest.raises(FlowBlowup, match=r"MAX_STEPS = 3 reached at t=\S+ "
                                         r"before T=0\.25") as excinfo:
        run(st, 0.25, dt, fixed_dt=fixed)
    exc = excinfo.value
    assert exc.reason == "step_cap"
    assert 0.0 < exc.t < 0.25 and exc.state is not st
    assert exc.trace.t[0] == 0.0 and exc.trace.t[-1] <= exc.t
    if fixed:
        # the carried state is the third accepted one, and a run that
        # reaches T at the cap returns normally
        res = run(st, 3 * dt, dt, fixed_dt=True)
        assert exc.t == 3 * dt and res.steps == 3
        for x, y in ((exc.state.metric.mat, res.final.metric.mat),
                     (exc.state.structure.a.comps, res.final.structure.a.comps),
                     (exc.state.structure.phi.comps,
                      res.final.structure.phi.comps)):
            assert np.array_equal(x, y)


BAD_TIMES = pytest.mark.parametrize("T, dt, samples, match", [
    (float("nan"), 1e-3, None, "flow time T must be finite"),
    (-1.0, 1e-3, None, "flow time T must be finite"),
    (0.01, 0.0, None, "step dt must be finite"),
    (0.01, float("inf"), None, "step dt must be finite"),
    (0.01, 1e-3, [0.02], "sample time 0.02 "),
    (0.01, 1e-3, [float("nan")], "sample time nan "),
])


@BAD_TIMES
def test_flow_equivalence_checks_its_arguments_before_evaluating(
        monkeypatch, T, dt, samples, match):
    import higgsflow.flows
    counts = _count_calls(monkeypatch, higgsflow.flows._evaluate)
    st = nilpotent_state(8)
    with pytest.raises(ValueError, match=re.escape(match)):
        flow_equivalence_check(st, T, dt, sample_times=samples)
    assert counts == {"_evaluate": 0}


@BAD_TIMES
def test_a_pair_run_checks_its_arguments_before_its_frame_gauge(
        monkeypatch, T, dt, samples, match):
    import higgsflow.flows
    st = build_scenario("conformal-r1", N=8)
    assert not st.metric.unit
    counts = _count_calls(monkeypatch, higgsflow.flows._frame_of)
    with pytest.raises(ValueError, match=re.escape(match)):
        run_ymh_flow(st, T, dt, sample_times=samples)
    assert counts == {"_frame_of": 0}


def test_a_start_that_fails_validation_leaves_no_shared_start(monkeypatch):
    # the start and its frame state are validated in turn; when the second
    # raises, neither may stay keyed by its id, where a later state that
    # reuses the id would read its K, norms and validity
    import higgsflow.flows
    from higgsflow.scenarios import random_state_with_subbundle
    st, _ = random_state_with_subbundle(TorusBase(1, 16), 2, 1, 3,
                                        amplitude=0.0015)
    assert not st.metric.unit
    real, calls = higgsflow.flows.validate_structure, []

    def second_raises(structure, *args, **kwargs):
        calls.append(structure)
        if len(calls) == 2:
            raise ValueError("second start")
        return real(structure, *args, **kwargs)

    monkeypatch.setattr(higgsflow.flows, "validate_structure", second_raises)
    with pytest.raises(ValueError, match="second start"):
        flow_equivalence_check(st, 2e-3, 1e-3)
    assert higgsflow.flows._shared_starts == {}
