import math

import numpy as np
import pytest

from higgsflow import (TorusBase, build_scenario, chern_weil_report,
                       energy_density, flatness_certificate, parabolic_energy,
                       run_donaldson_flow, topological_integrals, ymh_energy)
from higgsflow.scenarios import random_valid_state


def test_chern_weil_flat_state():
    cw = chern_weil_report(build_scenario("flat-trivial-r2"))
    assert cw.lhs == 0.0 and cw.deviation_term == 0.0
    assert cw.residual == 0.0


def test_chern_weil_nilpotent_oracle():
    cw = chern_weil_report(build_scenario("nilpotent-r2"))
    assert cw.lhs == pytest.approx(8.0)
    assert cw.deviation_term == pytest.approx(8.0)
    assert cw.topological_term == 0.0
    assert cw.lambda_term == pytest.approx(0.0, abs=1e-20)
    assert abs(cw.residual) < 1e-12


def test_chern_weil_n2_refines_at_least_second_order():
    vals = {}
    for N in (8, 16):
        st = build_scenario("t4-commuting", N=N)
        vals[N] = chern_weil_report(st).residual
    order = math.log2(abs(vals[8] / vals[16]))
    assert order > 1.7
    assert abs(vals[16]) < 1e-4 * 8.0


def test_chern_weil_random_states():
    for seed in (5, 6):
        st = random_valid_state(TorusBase(1, 32), 2, seed)
        cw = chern_weil_report(st)
        assert cw.relative_residual() < 1e-4
        st2 = random_valid_state(TorusBase(2, 8), 2, seed)
        assert chern_weil_report(st2).relative_residual() < 1e-3


def test_topological_integrals_trivial_and_invariant():
    st = build_scenario("t4-commuting", N=8)
    ti = topological_integrals(st)
    assert abs(ti.c1_omega) < 1e-10
    assert abs(ti.two_c2_minus_c1sq) < 1e-3
    assert ti.ch2 == pytest.approx(-0.5 * ti.two_c2_minus_c1sq)

    # metric independence: same structure, different metric
    st2 = random_valid_state(TorusBase(2, 8), 2, 9)
    from higgsflow import HiggsBundleState, HermitianMetric
    alt = HiggsBundleState(st2.structure,
                           HermitianMetric.identity(st2.base, st2.rank))
    t_a = topological_integrals(st2)
    t_b = topological_integrals(alt)
    assert abs(t_a.c1_omega - t_b.c1_omega) < 1e-3
    assert abs(t_a.ch2 - t_b.ch2) < 1e-3


def test_energy_density_nonnegative_and_consistent():
    for name in ("nilpotent-r2", "conformal-r1", "chain-r3"):
        st = build_scenario(name)
        pair = st
        dens = energy_density(pair)
        assert dens.min() >= 0.0
        from higgsflow.grid import integrate
        assert integrate(dens, st.base) == ymh_energy(pair)


def test_parabolic_energy_zero_flow():
    base = TorusBase(1, 32)
    snaps = [(t, np.zeros(base.shape)) for t in np.linspace(0.5, 1.5, 9)]
    assert parabolic_energy(snaps, (0.3, 0.4), 1.0, 0.3, base) == 0.0


def test_parabolic_energy_constant_density():
    # e = c gives R^{2-2n} * c * vol(B_R) * 2 R^2 = 2 c R^2 pi R^2 for n = 1
    base = TorusBase(1, 64)
    c = 3.0
    snaps = [(t, c * np.ones(base.shape)) for t in np.linspace(0.5, 1.5, 17)]
    R = 0.3
    got = parabolic_energy(snaps, (0.5, 0.5), 1.0, R, base)
    expected = 2.0 * c * R * R * math.pi * R * R
    assert got == pytest.approx(expected, rel=0.05)


def test_parabolic_energy_rejects_bad_radius():
    base = TorusBase(1, 32)
    snaps = [(t, np.ones(base.shape)) for t in np.linspace(0.0, 2.0, 9)]
    with pytest.raises(ValueError, match="injectivity"):
        parabolic_energy(snaps, (0.0, 0.0), 1.0, 0.6, base)  # above i_X
    with pytest.raises(ValueError, match="injectivity"):
        parabolic_energy(snaps, (0.0, 0.0), 0.01, 0.2, base)  # above sqrt(t0)/2


def test_parabolic_energy_requires_window_coverage():
    base = TorusBase(1, 32)
    snaps = [(t, np.ones(base.shape)) for t in np.linspace(0.95, 1.05, 5)]
    with pytest.raises(ValueError, match="cover"):
        parabolic_energy(snaps, (0.0, 0.0), 1.0, 0.4, base)


def test_parabolic_energy_decays_along_nilpotent_flow():
    st = build_scenario("nilpotent-r2", N=16)
    res = run_donaldson_flow(st, 5.0, 1e-2, fixed_dt=True,
                             sample_times=[0.75, 1.0, 1.25, 3.75, 4.0, 4.25])
    snaps = []
    for t, state in res.sampled_states:
        pair = state
        # metric-side energy density through the correspondence
        from higgsflow.geometry import hitchin_simpson_curvature
        hs = hitchin_simpson_curvature(state)
        snaps.append((t, hs.pointwise_energy(state.metric)))
    R = 0.4
    early = parabolic_energy(snaps, (0.0, 0.0), 1.0, R, st.base)
    late = parabolic_energy(snaps, (0.0, 0.0), 4.0, R, st.base)
    assert 0.0 < late < early


def test_regularity_monitor_pairs_qualitative():
    # smaller cylinder energy at later t0 comes with smaller local sup e
    from higgsflow.diagnostics import regularity_monitor_pairs
    from higgsflow.geometry import hitchin_simpson_curvature
    st = build_scenario("nilpotent-r2", N=16)
    res = run_donaldson_flow(st, 5.0, 1e-2, fixed_dt=True,
                             sample_times=[0.75, 1.0, 1.25, 3.75, 4.0, 4.25])
    snaps = [(t, hitchin_simpson_curvature(s).pointwise_energy(s.metric))
             for t, s in res.sampled_states]
    early = regularity_monitor_pairs(snaps, (0.2, 0.7), 1.0, 0.4, st.base)
    late = regularity_monitor_pairs(snaps, (0.2, 0.7), 4.0, 0.4, st.base)
    assert late["parabolic_energy"] < early["parabolic_energy"]
    assert late["sup_density_small_cylinder"] < early["sup_density_small_cylinder"]


def test_flatness_certificate_verdicts():
    flat = build_scenario("flat-trivial-r2")
    cert = flatness_certificate(flat, 1e-6)
    assert cert.passed and cert.eps_achieved == 0.0

    st = build_scenario("nilpotent-r2")
    cert0 = flatness_certificate(st, 1.0)
    assert not cert0.passed
    assert cert0.eps_achieved == pytest.approx(2.0 * math.sqrt(2.0))
    assert "FAIL" in cert0.one_line()

    res = run_donaldson_flow(st, 100.0, 1e-3)
    cert1 = flatness_certificate(res.final, 0.05)
    assert cert1.passed
    assert cert1.eps_achieved == pytest.approx(2.0 * math.sqrt(2.0) / 801.0,
                                               rel=0.05)


def test_topological_integrals_builds_one_chern_curvature(monkeypatch):
    import higgsflow.diagnostics
    import higgsflow.geometry
    counts = {"chern_connection": 0, "curvature": 0}
    for name in counts:
        original = getattr(higgsflow.geometry, name)

        def counting(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (higgsflow.geometry, higgsflow.diagnostics):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    st = random_valid_state(TorusBase(2, 8), 2, 5)
    topological_integrals(st)
    assert counts == {"chern_connection": 1, "curvature": 1}


@pytest.mark.parametrize("n, calls", [(1, 1), (2, 3)])
def test_flatness_certificate_takes_each_part_norm_once(n, calls, monkeypatch):
    import higgsflow.diagnostics
    import higgsflow.grid
    from higgsflow import hitchin_simpson_curvature, sup_norm
    st = random_valid_state(TorusBase(n, 8), 2, 3)
    hs = hitchin_simpson_curvature(st)
    expected = [hs.sup_norm(st.metric)] + [sup_norm(f, st.metric.mat)
                                            for f in hs.parts.values()]
    count = [0]
    original = higgsflow.grid.pointwise_norm2

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in (higgsflow.grid, higgsflow.diagnostics):
        monkeypatch.setattr(module, "pointwise_norm2", counting)
    cert = flatness_certificate(st, 1.0)
    assert count[0] == calls
    got = [cert.eps_achieved, cert.sup_curvature_part, cert.sup_dphi,
           cert.sup_dbar_phistar][:calls + 1]
    assert got == expected   # the same sums in the same order, bit for bit
