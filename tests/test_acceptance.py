"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with -s to see them);
a failure raises with the measured numbers.

Refinement-order policy, used by criteria 1 and 2: the residual of an exact
identity must decrease under grid doubling at second order. States whose
residual sits at the roundoff floor on both grids are recorded as converged
(there is no rate left to measure), and measured rates above the band count
as faster-than-required convergence; rates below 2.0 - 0.3 fail. A genuine
defect shows up as a rate near 1 or as a resolution-independent floor, both
of which this check rejects.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from higgsflow import (TorusBase, build_scenario,
                       chern_weil_report, flatness_certificate,
                       flow_equivalence_check, gauss_codazzi_blocks,
                       Curvature, invariant_section_check,
                       rho_sweep, run_donaldson_flow, run_ymh_flow,
                       scenario_catalog, scenario_subbundles,
                       verify_filtration, assemble_filtration_metric)
from higgsflow.cli import main as cli_main
from higgsflow.scenarios import (get_scenario, random_state_with_subbundle,
                                 random_valid_state)

ORDER_FLOOR = 2.0 - 0.3
N1_PAIR = (32, 64)
N2_PAIR = (8, 16)
N2_ORDER_PAIR = (12, 24)  # n=2 desk band is 12^4..16^4; 8^4 is pre-asymptotic


def _measured_order(coarse, fine, scale):
    floor = 1e-11 * max(scale, 1.0)
    if abs(coarse) <= floor and abs(fine) <= floor:
        return None  # converged to roundoff on both grids
    return math.log2(abs(coarse) / max(abs(fine), floor))


def _order_ok(order):
    return order is None or order >= ORDER_FLOOR


def test_criterion_1_chern_weil_identity():
    failures = []
    orders = []

    def check(tag, reports, fine_key):
        rel = reports[fine_key].relative_residual()
        coarse_key = min(reports)
        scale = max(abs(reports[fine_key].lhs), 1.0)
        order = _measured_order(reports[coarse_key].residual,
                                reports[fine_key].residual, scale)
        orders.append((tag, order, rel))
        if rel >= 1e-4:
            failures.append(f"{tag}: relative residual {rel:.2e}")
        if not _order_ok(order):
            failures.append(f"{tag}: refinement order {order:.2f}")

    for sc in scenario_catalog():
        pair = N1_PAIR if sc.n == 1 else N2_PAIR
        reports = {N: chern_weil_report(build_scenario(sc.name, N=N))
                   for N in pair}
        check(sc.name, reports, pair[1])

    for seed in range(1, 13):  # twelve n = 1 states
        rank = 2 + seed % 2
        reports = {N: chern_weil_report(random_valid_state(TorusBase(1, N),
                                                           rank, seed))
                   for N in N1_PAIR}
        check(f"random-n1-{seed}", reports, N1_PAIR[1])

    for seed in range(1, 9):  # eight n = 2 states
        rank = 2 + seed % 2
        reports = {N: chern_weil_report(random_valid_state(
            TorusBase(2, N), rank, seed, amplitude=0.06)) for N in N2_PAIR}
        check(f"random-n2-{seed}", reports, N2_PAIR[1])

    assert not failures, failures
    measurable = [o for _, o, _ in orders if o is not None]
    print(f"criterion 1 PASS: Chern-Weil residual < 1e-4 relative on "
          f"{len(orders)} states; measured orders "
          f"{min(measurable):.2f}..{max(measurable):.2f}, "
          f"{len(orders) - len(measurable)} converged at roundoff")


def test_criterion_2_gauss_codazzi():
    failures = []
    orders = []

    shipped = [("nilpotent-r2", 0), ("chain-r3", 0), ("chain-r3", 1),
               ("diagonal-polystable", 0), ("extension-sweep", 0)]
    for name, level in shipped:
        reports = {}
        for N in N1_PAIR:
            st = build_scenario(name, N=N)
            subs = scenario_subbundles(name, st)
            reports[N] = gauss_codazzi_blocks(st, subs[level])
        fine = reports[N1_PAIR[1]]
        rel = fine.relative_residual() if fine.scale > 1e-12 else 0.0
        order = _measured_order(reports[N1_PAIR[0]].residual, fine.residual,
                                max(fine.scale, 1.0))
        orders.append(order)
        if rel >= 1e-4:
            failures.append(f"{name}[{level}]: relative residual {rel:.2e}")
        if not _order_ok(order):
            failures.append(f"{name}[{level}]: order {order}")

    for seed in range(1, 5):  # n = 1 random pairs
        rels = {}
        for N in N1_PAIR:
            st, sub = random_state_with_subbundle(TorusBase(1, N), 2, 1, seed,
                                                  amplitude=0.004)
            rels[N] = gauss_codazzi_blocks(st, sub).relative_residual()
        order = math.log2(rels[N1_PAIR[0]] / rels[N1_PAIR[1]])
        orders.append(order)
        if rels[N1_PAIR[1]] >= 1e-4:
            failures.append(f"random-n1-{seed}: rel {rels[N1_PAIR[1]]:.2e}")
        if not _order_ok(order):
            failures.append(f"random-n1-{seed}: order {order:.2f}")

    for seed in (1, 2):  # n = 2 random pairs
        st16, sub16 = random_state_with_subbundle(TorusBase(2, N2_PAIR[1]),
                                                  2, 1, seed, amplitude=0.0015)
        rel16 = gauss_codazzi_blocks(st16, sub16).relative_residual()
        if rel16 >= 1e-4:
            failures.append(f"random-n2-{seed}: rel {rel16:.2e}")
        rels = {}
        for N in N2_ORDER_PAIR:
            st, sub = random_state_with_subbundle(TorusBase(2, N), 2, 1, seed,
                                                  amplitude=0.0015)
            rels[N] = gauss_codazzi_blocks(st, sub).relative_residual()
        order = math.log2(rels[N2_ORDER_PAIR[0]] / rels[N2_ORDER_PAIR[1]])
        orders.append(order)
        if not _order_ok(order):
            failures.append(f"random-n2-{seed}: order {order:.2f}")

    assert not failures, failures
    measurable = [o for o in orders if o is not None]
    print(f"criterion 2 PASS: Gauss-Codazzi blocks match conjugated ambient "
          f"curvature; orders {min(measurable):.2f}..{max(measurable):.2f}")


def test_criterion_3_closed_form_flow_decay():
    st = build_scenario("nilpotent-r2")  # N = 32
    res = run_donaldson_flow(st, 1.0, 1e-3, fixed_dt=True)
    H = res.final.metric.mat
    u = np.real(H[..., 0, 0] / H[..., 1, 1])
    u_err = max(abs(u.max() * 9.0 - 1.0), abs(u.min() * 9.0 - 1.0))
    assert u_err < 0.01, f"u(1) relative error {u_err:.3e}"

    ymh_final = res.trace.ymh_energy[-1]
    ymh_err = abs(ymh_final / (8.0 / 81.0) - 1.0)
    assert ymh_err < 0.02, f"YMH(1) relative error {ymh_err:.3e}"
    print(f"criterion 3 PASS: u(1) err {u_err:.2e} (<1%), "
          f"YMH(1) err {ymh_err:.2e} (<2%) at dt=1e-3")


def test_criterion_4_flatness_after_long_flow():
    st = build_scenario("nilpotent-r2")
    res = run_donaldson_flow(st, 100.0, 1e-3)
    cert = flatness_certificate(res.final, 0.05)
    assert cert.passed, cert.one_line()

    tt = np.asarray(res.trace.t)
    ee = np.asarray(res.trace.e_sup)
    after = ee[tt >= 1.0 - 1e-9]
    assert len(after) >= 4
    assert np.all(np.diff(after) < 0.0), "sup e not monotone after t = 1"
    print(f"criterion 4 PASS: flow to T=100 gives sup|F| = "
          f"{cert.eps_achieved:.4f} < 0.05; sup e monotone after t=1 "
          f"({len(after)} samples)")


def test_criterion_5_flow_equivalence():
    worst = {}
    for name in ("nilpotent-r2", "conformal-r1"):
        rep = flow_equivalence_check(build_scenario(name), 1.0, 1e-3)
        for label, series in (("dphi", rep.res_dphi),
                              ("curvature", rep.res_curvature),
                              ("contracted", rep.res_contracted)):
            worst[f"{name}/{label}"] = max(series)
    bad = {k: v for k, v in worst.items() if v > 1e-3}
    assert not bad, bad
    print(f"criterion 5 PASS: all norm equalities within 1e-3 "
          f"(worst {max(worst.values()):.2e}) at dt=1e-3, T=1")


def test_criterion_6_rho_scaling():
    sc = get_scenario("extension-sweep")
    st = build_scenario("extension-sweep")
    sub = scenario_subbundles("extension-sweep", st)[0]
    rhos = [2.0**-k for k in range(1, 6)]
    rows, slope = rho_sweep(st, sub, rhos)
    assert slope == pytest.approx(2.0, abs=0.2), slope

    checks = []
    for eps, rho in sc.expects["epsilon_rho_pairs"]:
        row = next((r for r in rows if abs(r.rho - rho) < 1e-12), None)
        if row is None:
            row = rho_sweep(st, sub, [rho])[0][0]
        checks.append((eps, rho, row.sup_f, row.sup_f < 3.0 * eps))
    assert all(ok for *_, ok in checks), checks
    print(f"criterion 6 PASS: fitted slope {slope:.3f} in 2.0+-0.2; "
          f"sup|F| < 3 eps for pairs {[(e, r) for e, r, *_ in checks]}")


def test_criterion_7_section_positivity():
    checked = 0
    worst_min = 0.0
    for sc in scenario_catalog():
        spans = sc.expects.get("invariant_line_spans")
        if not spans:
            continue
        st = build_scenario(sc.name)
        for span in spans:
            vec = np.asarray(span, complex)
            section = np.broadcast_to(vec, st.base.shape + (st.rank,)).copy()
            rep = invariant_section_check(st, section)
            assert rep.invariance < 1e-10, (sc.name, asdict(rep))
            assert rep.form_minimum >= -1e-10, (sc.name, asdict(rep))
            assert rep.min_length > 0.0, (sc.name, asdict(rep))
            worst_min = min(worst_min, rep.form_minimum)
            checked += 1
    assert checked >= 4
    print(f"criterion 7 PASS: bracket form >= -1e-10 and min|s| > 0 on "
          f"{checked} shipped invariant sections (worst form min "
          f"{worst_min:.1e})")


def test_criterion_8_filtration_round_trip():
    for name in ("nilpotent-r2", "chain-r3"):
        st = build_scenario(name)
        subs = scenario_subbundles(name, st)
        rep = verify_filtration(st, subs, 1e-6)
        assert rep.passed, f"{name}: {asdict(rep)}"
        assert all(lv.flowed_time == 0.0 for lv in rep.levels), \
            f"{name}: already-flat quotients must certify without flowing"
        assert rep.additivity_c1 < 1e-6 and rep.additivity_ch2 < 1e-6

        rebuilt = assemble_filtration_metric(st, subs, 0.1)
        achieved = Curvature(rebuilt).sup_norm()
        assert achieved < 3e-2, f"{name}: reassembled sup|F| {achieved:.4f}"
    print("criterion 8 PASS: filtrations certify at 1e-6 with additivity "
          "< 1e-6; scaled reassembly at rho=0.1 has sup|F| < 3e-2")


def test_criterion_9_ymh_monitors():
    # a fixed step of 2e-3 on every shipped scenario (the step has no h^2
    # bound; this one keeps the per-step energy slack small)
    dt = 2e-3
    runs = []
    for sc in scenario_catalog():
        N = 16 if sc.n == 1 else 8
        T = 0.3 if sc.n == 1 else 0.05
        st = build_scenario(sc.name, N=N)
        res = run_ymh_flow(st, T, dt, fixed_dt=True)
        runs.append((sc.name, res))

    for name, res in runs:
        phi0 = res.trace.phi_sup[0]
        bound = 100.0 * phi0 + 1e-12  # phi_sup records the squared norm
        assert all(p <= bound for p in res.trace.phi_sup), \
            f"{name}: sup|phi| exceeded 10x its initial value"
        e = res.trace.ymh_energy
        e_max = max(e) if e else 0.0
        for k in range(len(e) - 1):
            span = res.trace.t[k + 1] - res.trace.t[k]
            slack = 1e-9 + 100.0 * dt * span * (1.0 + e_max)
            assert e[k + 1] <= e[k] + slack, \
                f"{name}: energy rose at t={res.trace.t[k + 1]}"
    print(f"criterion 9 PASS: phi bound and per-step energy monotonicity "
          f"hold on {len(runs)} shipped pair-flow runs")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["run", "--scenario", "nilpotent-r2", "--N", "16",
                         "--flow-kind", "ymh", "--flow-T", "0.25",
                         "--flow-dt", "1e-2", "--flow-fixed", "1",
                         "--target-epsilon", "10.0",
                         "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    assert (outs[0] / "trace.csv").read_bytes() == \
        (outs[1] / "trace.csv").read_bytes()

    sweep_outs = []
    for tag in ("c", "d"):
        out = tmp_path / tag
        assert cli_main(["sweep-rho", "--out-dir", str(out)]) == 0
        sweep_outs.append(out)
    assert (sweep_outs[0] / "rho_sweep.csv").read_bytes() == \
        (sweep_outs[1] / "rho_sweep.csv").read_bytes()
    print("criterion 10 PASS: re-runs with the same seed produce "
          "byte-identical CSV outputs")
