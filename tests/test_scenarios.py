import numpy as np
import pytest

from higgsflow import (Curvature, TorusBase, build_scenario, get_scenario,
                       integrate, scenario_catalog, scenario_subbundles,
                       subbundle_report, validate_structure)
from higgsflow.scenarios import random_state_with_subbundle, random_valid_state


def test_catalog_size_and_names():
    cat = scenario_catalog()
    assert len(cat) >= 7
    names = {sc.name for sc in cat}
    assert {"nilpotent-r2", "chain-r3", "conformal-r1", "t4-commuting",
            "extension-sweep", "diagonal-polystable"} <= names


def test_every_scenario_state_is_valid():
    for sc in scenario_catalog():
        state = build_scenario(sc.name)
        rep = validate_structure(state.structure)
        assert rep.valid, f"{sc.name}: {rep.as_dict()}"


def test_declared_energies_match():
    for sc in scenario_catalog():
        if "ymh_energy" not in sc.expects:
            continue
        state = build_scenario(sc.name)
        e = integrate(Curvature(state).pointwise_energy(), state.base)
        assert e == pytest.approx(sc.expects["ymh_energy"], abs=1e-10), sc.name


def test_nilpotent_metadata_by_enumeration():
    """The declared strict semistability follows from enumerating constant
    invariant lines: phi = e12 dz fixes exactly span(e1), whose slope equals
    the total slope, and no invariant line has larger slope."""
    sc = get_scenario("nilpotent-r2")
    assert sc.expects["semistable"] and not sc.expects["stable"]
    state = build_scenario("nilpotent-r2")
    phi0 = state.structure.phi.comps[0, 0][(0,) * 2]
    # invariant lines of a constant phi are its eigenvectors
    vals, vecs = np.linalg.eig(phi0)
    mu_total = Curvature(state).degree / state.rank
    invariant_spans = []
    for k in range(2):
        v = vecs[:, k]
        img = phi0 @ v
        resid = img - (np.vdot(v, img) / np.vdot(v, v)) * v
        if np.abs(resid).max() < 1e-12:
            invariant_spans.append(v)
    assert invariant_spans, "a nilpotent matrix has an invariant line"
    # every invariant constant line over the flat metric has degree zero,
    # so its slope equals the total slope: strictly semistable
    assert mu_total == pytest.approx(0.0)
    declared = np.asarray(sc.expects["invariant_line_spans"][0], complex)
    found = invariant_spans[0] / invariant_spans[0][np.abs(invariant_spans[0]).argmax()]
    assert np.allclose(np.abs(found), np.abs(declared / np.abs(declared).max()))


def test_declared_filtrations_are_valid_subbundles():
    for name in ("nilpotent-r2", "chain-r3"):
        state = build_scenario(name)
        for sub in scenario_subbundles(name, state):
            assert subbundle_report(state, sub).valid


def test_scenario_resolution_override():
    st = build_scenario("nilpotent-r2", N=16)
    assert st.base.N == 16


def test_unknown_scenario_message():
    with pytest.raises(KeyError, match="known scenarios"):
        get_scenario("not-a-scenario")


def test_random_valid_state_is_valid_and_deterministic():
    base = TorusBase(1, 16)
    s1 = random_valid_state(base, 3, seed=42)
    s2 = random_valid_state(base, 3, seed=42)
    assert np.array_equal(s1.metric.mat, s2.metric.mat)
    assert np.array_equal(s1.structure.phi.comps, s2.structure.phi.comps)
    assert validate_structure(s1.structure).valid
    s3 = random_valid_state(base, 3, seed=43)
    assert not np.allclose(s3.metric.mat, s1.metric.mat)


def test_random_valid_state_n2():
    base = TorusBase(2, 8)
    s = random_valid_state(base, 2, seed=3)
    assert validate_structure(s.structure).valid


def test_random_subbundle_pair_invariants():
    base = TorusBase(1, 16)
    st, sub = random_state_with_subbundle(base, 2, 1, seed=5, amplitude=0.01)
    rep = subbundle_report(st, sub)
    assert rep.valid, rep.as_dict()
    st2, sub2 = random_state_with_subbundle(base, 2, 1, seed=5, amplitude=0.01)
    assert np.array_equal(sub.projector, sub2.projector)
