import math

import numpy as np
import pytest

from higgsflow import (HermitianMetric, HiggsSubbundle, TorusBase,
                       adjoint_field, assemble_filtration_metric,
                       build_scenario, gauss_codazzi_blocks,
                       Curvature, invariant_section_check,
                       rho_sweep, scenario_subbundles, split_extension,
                       subbundle_report, sup_norm, verify_filtration)
from higgsflow.scenarios import _extension_sweep, random_state_with_subbundle

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], np.complex128)


def span_e1(state):
    cols = np.eye(state.rank, dtype=complex)[:, :1]
    return HiggsSubbundle.from_constant_span(state, cols)


def test_subbundle_invariants_nilpotent():
    st = build_scenario("nilpotent-r2")
    rep = subbundle_report(st, span_e1(st))
    assert rep.valid
    assert max(rep.idempotency, rep.phi_invariance, rep.holomorphy) < 1e-12


def test_subbundle_flags_noninvariant_span():
    st = build_scenario("nilpotent-r2")
    cols = np.eye(2, dtype=complex)[:, 1:]  # span(e2): phi e2 = e1 dz
    rep = subbundle_report(st, HiggsSubbundle.from_constant_span(st, cols))
    assert not rep.valid
    assert rep.phi_invariance > 1.0


def test_split_extension_oracles():
    st = build_scenario("nilpotent-r2")
    ext = split_extension(st, span_e1(st))
    assert sup_norm(ext.gamma) == 0.0
    assert np.allclose(ext.zeta.comps[0, 0], 1.0)
    assert sup_norm(ext.phi_s) == 0.0 and sup_norm(ext.phi_q) == 0.0
    assert ext.lower_left_dbar < 1e-13 and ext.lower_left_phi < 1e-13


def test_split_extension_zero_higgs():
    st = build_scenario("flat-trivial-r2")
    ext = split_extension(st, span_e1(st))
    assert sup_norm(ext.zeta) == 0.0


def test_split_extension_diagonal_higgs():
    st = build_scenario("diagonal-polystable")
    ext = split_extension(st, span_e1(st))
    assert sup_norm(ext.zeta) == 0.0
    assert np.allclose(ext.phi_s.comps[0, 0], 1.0)
    assert np.allclose(ext.phi_q.comps[0, 0], -1.0)


def test_split_extension_rejects_invalid_sub():
    st = build_scenario("nilpotent-r2")
    cols = np.eye(2, dtype=complex)[:, 1:]
    with pytest.raises(ValueError, match="invariants"):
        split_extension(st, HiggsSubbundle.from_constant_span(st, cols))


def test_gauss_codazzi_constant_cases_exact():
    for name in ("nilpotent-r2", "flat-trivial-r2", "diagonal-polystable"):
        st = build_scenario(name)
        gc = gauss_codazzi_blocks(st, span_e1(st))
        assert gc.residual < 1e-12

    # the assembled (1,1) block of the nilpotent case reproduces the bracket
    st = build_scenario("nilpotent-r2")
    gc = gauss_codazzi_blocks(st, span_e1(st))
    assert np.allclose(gc.blocks[(1, 1)].comps[0, 0], np.diag([1.0, -1.0]))


def test_frame_does_not_depend_on_the_projector_layout():
    # the grid average behind the reference frame sums in one order: a
    # C-ordered copy of the projector gives the same bytes
    from higgsflow.extensions import _orthonormal_frame
    st, sub = random_state_with_subbundle(TorusBase(1, 32), 3, 2, 5, amplitude=0.001)
    pi = sub.projector
    frames = [_orthonormal_frame(st.metric, p, sub.rank)
              for p in (pi, np.ascontiguousarray(pi))]
    assert frames[0].tobytes() == frames[1].tobytes()


def test_gauss_codazzi_refines_second_order():
    rels = {}
    for N in (16, 32):
        st, sub = random_state_with_subbundle(TorusBase(1, N), 2, 1, seed=4,
                                              amplitude=0.02)
        rels[N] = gauss_codazzi_blocks(st, sub).relative_residual()
    order = math.log2(rels[16] / rels[32])
    assert 1.6 < order < 2.6


def test_scaled_extension_metric_family():
    st = build_scenario("extension-sweep")
    sub = scenario_subbundles("extension-sweep", st)[0]
    ext = split_extension(st, sub)

    plain = assemble_filtration_metric(st, [sub], 1.0).metric
    assert np.allclose(plain.mat, np.eye(2))

    rho = 0.25
    scaled = assemble_filtration_metric(st, [sub], rho)
    assert np.allclose(scaled.metric.mat, np.diag([1.0, 1.0 / rho**2]))
    assert Curvature(scaled).sup_norm() == pytest.approx(
        2.0 * math.sqrt(2.0) * rho**2)

    # under ident_q / rho^2 the off-diagonal adjoints scale as rho^2
    ident_s, ident_q = (f.state.metric for f in ext.factors)
    rho = 0.3
    Hq_rho = HermitianMetric(st.base, ident_q.mat / rho**2)
    for f, adj_one in zip((ext.gamma, ext.zeta), ext.hom_adjoints):
        assert sup_norm(adjoint_field(f, ident_s, Hq_rho) - rho**2 * adj_one) < 1e-13
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="rho must be positive"):
            assemble_filtration_metric(st, [sub], bad)


def test_rho_sweep_flat_factors():
    st = build_scenario("flat-trivial-r2")
    rows, slope = rho_sweep(st, span_e1(st), [0.5, 0.25, 0.125])
    assert all(r.sup_f < 1e-12 for r in rows)
    assert slope is None  # nothing above the direct-sum floor to fit


def test_rho_sweep_quadratic_regime():
    st = build_scenario("extension-sweep")
    sub = scenario_subbundles("extension-sweep", st)[0]
    rhos = [2.0**-k for k in range(1, 6)]
    rows, slope = rho_sweep(st, sub, rhos)
    assert slope == pytest.approx(2.0, abs=0.2)
    for row in rows:
        assert row.sup_f == pytest.approx(2.0 * math.sqrt(2.0) * row.rho**2)
        assert row.sup_c1 < 1e-12
    # monotone in rho
    sups = [r.sup_f for r in rows]
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_rho_sweep_uses_the_one_level_filtration_metric():
    st = build_scenario("extension-sweep")
    cases = [(st, scenario_subbundles("extension-sweep", st)[0]),
             random_state_with_subbundle(TorusBase(1, 16), 3, 1, seed=5,
                                         amplitude=0.01)]
    for st, sub in cases:
        rows, _ = rho_sweep(st, sub, [0.5, 0.3, 0.1, 0.05])
        for row in rows:
            total = assemble_filtration_metric(st, [sub], row.rho)
            assert row.sup_f == Curvature(total).sup_norm()


def test_rho_sweep_linear_regime_with_gamma():
    st = _extension_sweep(TorusBase(1, 32), gamma_amp=0.3)
    sub = HiggsSubbundle.from_constant_span(st, np.eye(2, dtype=complex)[:, :1])
    rhos = [2.0**-k for k in range(4, 9)]
    rows, slope = rho_sweep(st, sub, rhos)
    assert rows[0].sup_c1 > 0.0
    assert 0.9 <= slope <= 1.1


def test_rho_sweep_rejects_bad_rho():
    st = build_scenario("extension-sweep")
    sub = scenario_subbundles("extension-sweep", st)[0]
    with pytest.raises(ValueError):
        rho_sweep(st, sub, [0.5, 1.5])


def test_invariant_section_nilpotent():
    st = build_scenario("nilpotent-r2")
    s = np.zeros(st.base.shape + (2,), complex)
    s[..., 0] = 1.0
    rep = invariant_section_check(st, s)
    assert rep.holomorphy < 1e-13 and rep.invariance < 1e-13
    assert rep.form_minimum >= -1e-10
    assert rep.form_minimum == pytest.approx(2.0)  # 2 u h1 at u = h1 = 1
    assert rep.min_length == pytest.approx(1.0)
    assert rep.eta_sup < 1e-13


def test_invariant_section_zero_higgs_boundary_case():
    st = build_scenario("flat-trivial-r2")
    s = np.zeros(st.base.shape + (2,), complex)
    s[..., 0] = 1.0
    rep = invariant_section_check(st, s)
    assert rep.form_minimum == pytest.approx(0.0, abs=1e-13)


def test_invariant_section_flags_noninvariant():
    st = build_scenario("nilpotent-r2")
    s = np.zeros(st.base.shape + (2,), complex)
    s[..., 1] = 1.0
    rep = invariant_section_check(st, s)
    assert rep.invariance > 1.0


def test_invariant_section_with_eta():
    st = build_scenario("diagonal-polystable")
    s = np.zeros(st.base.shape + (2,), complex)
    s[..., 0] = 1.0
    rep = invariant_section_check(st, s)
    assert rep.invariance < 1e-13
    assert rep.eta_sup == pytest.approx(math.sqrt(2.0))  # eta = dz
    assert rep.form_minimum == pytest.approx(0.0, abs=1e-12)


def test_verify_filtration_nilpotent_and_chain():
    for name in ("nilpotent-r2", "chain-r3"):
        st = build_scenario(name)
        subs = scenario_subbundles(name, st)
        rep = verify_filtration(st, subs, 1e-6)
        assert rep.passed
        assert all(lv.flowed_time == 0.0 for lv in rep.levels)
        assert rep.additivity_c1 < 1e-10 and rep.additivity_ch2 < 1e-10
        assert [lv.rank for lv in rep.levels] == [1] * st.rank


def test_verify_filtration_rejects_noninvariant_sub():
    st = build_scenario("nilpotent-r2")
    cols = np.eye(2, dtype=complex)[:, 1:]
    bad = HiggsSubbundle.from_constant_span(st, cols)
    with pytest.raises(ValueError, match="invariants"):
        verify_filtration(st, [bad], 1e-6)


def test_verify_filtration_rejects_bad_nesting():
    st = build_scenario("chain-r3")
    e1 = HiggsSubbundle.from_constant_span(st, np.eye(3, dtype=complex)[:, :1])
    e13 = HiggsSubbundle.from_constant_span(
        st, np.eye(3, dtype=complex)[:, [0, 2]])
    with pytest.raises(ValueError):
        verify_filtration(st, [e13, e1], 1e-6)  # ranks must increase


def test_filtration_reassembly_is_approximately_flat():
    for name in ("nilpotent-r2", "chain-r3"):
        st = build_scenario(name)
        subs = scenario_subbundles(name, st)
        out = assemble_filtration_metric(st, subs, 0.1)
        assert Curvature(out).sup_norm() < 3e-2


def test_filtration_verdict_stable_under_refinement():
    for name in ("nilpotent-r2", "chain-r3"):
        sc_N = build_scenario(name).base.N
        for N in (sc_N, 2 * sc_N):
            st = build_scenario(name, N=N)
            subs = scenario_subbundles(name, st)
            assert verify_filtration(st, subs, 1e-6).passed


def test_gauss_codazzi_builds_each_chern_connection_once(monkeypatch):
    import sys

    import higgsflow.geometry
    ranks = []
    original = higgsflow.geometry._metric_connection

    def counting(H):
        ranks.append(H.rank)
        return original(H)

    for name, module in list(sys.modules.items()):
        if name.startswith("higgsflow") and \
                getattr(module, "_metric_connection", None) is original:
            monkeypatch.setattr(module, "_metric_connection", counting)
    st, sub = random_state_with_subbundle(TorusBase(1, 16), 3, 1, seed=2,
                                          amplitude=0.001)
    gauss_codazzi_blocks(st, sub)
    # the two factors, then the ambient bundle
    assert ranks == [1, 2, 3]
    ranks.clear()
    rho_sweep(st, sub, [0.5, 0.25])
    # the two factors, shared by the parts A and C, then each scaled metric
    assert ranks == [1, 2, 3, 3]
