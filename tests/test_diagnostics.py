import math

import numpy as np
import pytest

from higgsflow import (Curvature, TorusBase, build_scenario, chern_weil_report,
                       flatness_certificate, run_donaldson_flow,
                       topological_integrals)
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
        dens = Curvature(pair).pointwise_energy()
        assert dens.min() >= 0.0
        from higgsflow.grid import integrate
        assert integrate(dens, st.base) == chern_weil_report(pair).lhs


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


def test_topological_integrals_builds_one_chern_curvature(monkeypatch,
                                                         curvature_builds):
    import higgsflow.geometry
    d_of_metric = []
    original = higgsflow.geometry._metric_connection
    monkeypatch.setattr(higgsflow.geometry, "_metric_connection",
                        lambda H: d_of_metric.append(None) or original(H))
    builds = {name: curvature_builds(name)
              for name in ("b", "phistar", "part11")}
    st = random_valid_state(TorusBase(2, 8), 2, 5)
    topological_integrals(st)
    # the Chern connection once, and no Higgs part
    assert len(d_of_metric) == 1
    assert builds == {"b": [1], "phistar": [0], "part11": [0]}


@pytest.mark.parametrize("n, calls", [(1, 1), (2, 3)])
def test_flatness_certificate_takes_each_part_norm_once(n, calls, monkeypatch):
    # the certificate reads Curvature.norm2, which takes each part's norm
    # once, in geometry, and keeps it for the total
    import higgsflow.geometry
    import higgsflow.grid
    from higgsflow import Curvature, sup_norm
    st = random_valid_state(TorusBase(n, 8), 2, 3)
    hs = Curvature(st)
    expected = [hs.sup_norm()] + [sup_norm(f, st.metric)
                                  for f in hs.parts.values()]
    count = [0]
    original = higgsflow.grid.pointwise_norm2

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in (higgsflow.grid, higgsflow.geometry):
        monkeypatch.setattr(module, "pointwise_norm2", counting)
    cert = flatness_certificate(st, 1.0)
    assert count[0] == calls
    got = [cert.eps_achieved, cert.sup_curvature_part, cert.sup_dphi,
           cert.sup_dbar_phistar][:calls + 1]
    assert got == expected   # the same sums in the same order, bit for bit
