import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from higgsflow import (HermitianMetric, HiggsBundleState, HiggsStructure,
                       MatrixFormField, TorusBase, adjoint_field, Curvature,
                       sup_norm, validate_structure)
from higgsflow.flows import einstein_deviation
from higgsflow.grid import _contract_slots, d_flat, dbar_flat, wedge
from higgsflow.linalg import _trailing_array, dagger, hermitize, mm
from higgsflow.scenarios import (build_scenario, random_state_with_subbundle,
                                  random_valid_state, scenario_catalog)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], np.complex128)
E21 = E12.T.copy()


def constant_structure(base, rank, phi_mats=None, a_mats=None):
    a = MatrixFormField.zeros(base, 0, 1, rank)
    for j, m in (a_mats or {}).items():
        a.comps[0, j] = m
    phi = MatrixFormField.zeros(base, 1, 0, rank)
    for i, m in (phi_mats or {}).items():
        phi.comps[i, 0] = m
    return HiggsStructure(a, phi)


def conformal_metric(base, u):
    return HermitianMetric(base, np.exp(u)[..., None, None] * np.eye(1, dtype=complex))


def curvature_of(H, a=None, phi=None):
    """The Curvature of (H, dbar + a, phi); a missing a or phi is zero."""
    base, rank = H.base, H.rank
    a = MatrixFormField.zeros(base, 0, 1, rank) if a is None else a
    phi = MatrixFormField.zeros(base, 1, 0, rank) if phi is None else phi
    return Curvature(HiggsBundleState(HiggsStructure(a, phi), H))


def test_validate_constant_nilpotent():
    base = TorusBase(1, 16)
    s = constant_structure(base, 2, phi_mats={0: E12})
    rep = validate_structure(s)
    assert rep.valid
    assert rep.integrability == 0.0 and rep.symmetry == 0.0
    assert rep.holomorphy == 0.0


def test_validate_flags_noncommuting_higgs():
    base = TorusBase(2, 8)
    M1, M2 = E12, E21
    s = constant_structure(base, 2, phi_mats={0: M1, 1: M2})
    rep = validate_structure(s)
    assert not rep.valid
    # phi^phi = [M1, M2] dz1^dz2, measured with |dz1^dz2|^2 = 4
    comm = M1 @ M2 - M2 @ M1
    assert rep.symmetry == pytest.approx(2.0 * np.linalg.norm(comm))


def test_validate_commuting_n2_family():
    base = TorusBase(2, 8)
    M1 = E12 + 0.3 * np.eye(2)
    M2 = 2.0 * E12 - 0.1 * np.eye(2)
    s = constant_structure(base, 2, phi_mats={0: M1, 1: M2},
                           a_mats={0: 0.4 * E12, 1: 0.7 * E12})
    assert validate_structure(s).valid


def test_chern_connection_flat_cases():
    base = TorusBase(1, 16)
    H = HermitianMetric.identity(base, 2)
    a = MatrixFormField.zeros(base, 0, 1, 2)
    assert sup_norm(curvature_of(H, a).b) == 0.0
    Hd = HermitianMetric(base, np.broadcast_to(
        np.diag([2.0, 0.5]).astype(complex), base.shape + (2, 2)).copy())
    assert sup_norm(curvature_of(Hd, a).b) == 0.0


def test_chern_connection_conformal_oracle():
    errs = {}
    for N in (16, 32):
        base = TorusBase(1, N)
        x = base.axis_coordinate(0) * np.ones(base.shape)
        u = 0.3 * np.cos(2 * np.pi * x)
        H = conformal_metric(base, u)
        b = curvature_of(H).b
        du = 0.5 * (-0.3 * 2 * np.pi * np.sin(2 * np.pi * x))  # d/dz = dx/2 here
        errs[N] = np.abs(b.comps[0, 0, ..., 0, 0] - du).max()
    assert errs[32] < errs[16] / 3.0


def test_chern_connection_pairing_identity():
    # del H(s,t) = H(D^{1,0} s, t) + H(s, dbar_E t) discretely to 2nd order
    from higgsflow.grid import d_flat, dbar_flat, wedge
    errs = {}
    for N in (16, 32):
        base = TorusBase(1, N)
        rng = np.random.default_rng(7)
        x = base.axis_coordinate(0) * np.ones(base.shape)
        y = base.axis_coordinate(1) * np.ones(base.shape)
        Hmat = np.exp(0.4 * np.cos(2 * np.pi * x))[..., None, None] * np.eye(2) \
            + 0.2 * np.sin(2 * np.pi * y)[..., None, None] * (E12 + E21)
        H = HermitianMetric(base, Hmat)
        a = MatrixFormField.zeros(base, 0, 1, 2)
        a.comps[0, 0] = 0.3 * np.cos(2 * np.pi * y)[..., None, None] * E12
        b = curvature_of(H, a).b
        s = np.stack([np.exp(np.sin(2 * np.pi * x)), np.cos(2 * np.pi * y)],
                     axis=-1).astype(complex)[..., None]
        t = np.stack([np.ones(base.shape), np.sin(2 * np.pi * (x + y))],
                     axis=-1).astype(complex)[..., None]

        def vec(arr):
            f = MatrixFormField.zeros(base, 0, 0, 2, 1)
            f.comps[0, 0] = arr
            return f

        pairing = np.conj(np.swapaxes(t, -1, -2)) @ H.mat @ s
        pf = MatrixFormField.zeros(base, 0, 0, 1)
        pf.comps[0, 0] = pairing
        lhs = d_flat(pf).comps[0, 0][..., 0, 0]
        Ds = d_flat(vec(s)) + wedge(b, vec(s))
        dbar_t = dbar_flat(vec(t)) + wedge(a, vec(t))
        rhs = (np.conj(np.swapaxes(t, -1, -2)) @ H.mat @ Ds.comps[0, 0])[..., 0, 0] \
            + np.conj((np.conj(np.swapaxes(s, -1, -2)) @ H.mat
                       @ dbar_t.comps[0, 0])[..., 0, 0])
        errs[N] = np.abs(lhs - rhs).max()
    assert errs[32] < errs[16] / 3.0


def chern_f11(H, a):
    """The (1,1) Chern curvature of (H, dbar + a)."""
    return curvature_of(H, a).f11


def test_curvature_flat_and_conformal():
    base = TorusBase(1, 32)
    H = HermitianMetric.identity(base, 2)
    a = MatrixFormField.zeros(base, 0, 1, 2)
    assert sup_norm(chern_f11(H, a)) == 0.0

    x = base.axis_coordinate(0) * np.ones(base.shape)
    u = 0.2 * np.cos(2 * np.pi * x)
    F = chern_f11(conformal_metric(base, u), MatrixFormField.zeros(base, 0, 1, 1))
    # F = dbar del u; for u = eps cos(2 pi x) the coefficient of dz^dzbar is
    # -u_zzbar = -Lap(u)/4 = pi^2 eps cos(2 pi x)
    expected = np.pi**2 * 0.2 * np.cos(2 * np.pi * x)
    err = np.abs(F.comps[0, 0, ..., 0, 0] - expected).max()
    assert err < 0.05 * np.pi**2 * 0.2


def test_curvature_invariant_under_constant_rescaling():
    base = TorusBase(1, 16)
    x = base.axis_coordinate(0) * np.ones(base.shape)
    u = 0.2 * np.cos(2 * np.pi * x)
    a = MatrixFormField.zeros(base, 0, 1, 1)
    F1 = chern_f11(conformal_metric(base, u), a)
    F2 = chern_f11(conformal_metric(base, u + 1.7), a)
    assert np.allclose(F1.comps, F2.comps)


def test_higgs_adjoint_oracles():
    base = TorusBase(1, 16)
    phi = MatrixFormField.constant(base, E12, p=1, q=0, index=((0,), ()))
    H = HermitianMetric.identity(base, 2)
    assert np.allclose(curvature_of(H, phi=phi).phistar.comps[0, 0], E21)
    Hd = HermitianMetric(base, np.broadcast_to(
        np.diag([3.0, 0.5]).astype(complex), base.shape + (2, 2)).copy())
    assert np.allclose(curvature_of(Hd, phi=phi).phistar.comps[0, 0],
                       (3.0 / 0.5) * E21)
    # the adjoint is an involution: applying it twice recovers phi exactly
    again = adjoint_field(adjoint_field(phi, Hd), Hd)
    assert np.allclose(again.comps, phi.comps)


def test_hitchin_simpson_nilpotent_oracles():
    base = TorusBase(1, 16)
    s = constant_structure(base, 2, phi_mats={0: E12})
    state = HiggsBundleState(s, HermitianMetric.identity(base, 2))
    hs = Curvature(state)
    assert sup_norm(hs.f11) == 0.0
    assert np.allclose(hs.part11.comps[0, 0], np.diag([1.0, -1.0]))
    assert hs.sup_norm() == pytest.approx(2.0 * np.sqrt(2.0))

    Hd = HermitianMetric(base, np.broadcast_to(
        np.diag([2.0, 0.4]).astype(complex), base.shape + (2, 2)).copy())
    hs2 = Curvature(HiggsBundleState(s, Hd))
    assert np.allclose(hs2.part11.comps[0, 0], (2.0 / 0.4) * np.diag([1.0, -1.0]))


def test_hitchin_simpson_flat_state():
    base = TorusBase(1, 16)
    s = constant_structure(base, 2)
    state = HiggsBundleState(s, HermitianMetric.identity(base, 2))
    assert Curvature(state).sup_norm() == 0.0


def test_degree_of_flat_and_conformal_states():
    base = TorusBase(1, 16)
    s = constant_structure(base, 2)
    state = HiggsBundleState(s, HermitianMetric.identity(base, 2))
    assert Curvature(state).degree == 0.0

    # rank-1 conformal: total integral of the Laplacian vanishes exactly
    x = base.axis_coordinate(0) * np.ones(base.shape)
    st1 = HiggsBundleState(constant_structure(base, 1),
                           conformal_metric(base, 0.3 * np.cos(2 * np.pi * x)))
    assert abs(Curvature(st1).degree) < 1e-13


def test_degree_metric_independence():
    base = TorusBase(1, 32)
    s = constant_structure(base, 2, phi_mats={0: E12})
    x = base.axis_coordinate(0) * np.ones(base.shape)
    H1 = HermitianMetric.identity(base, 2)
    H2 = HermitianMetric(base, np.exp(0.3 * np.sin(2 * np.pi * x))[..., None, None]
                         * np.eye(2) + 0.1 * np.cos(2 * np.pi * x)[..., None, None]
                         * (E12 + E21))
    d1, d2 = (Curvature(HiggsBundleState(s, H)).degree for H in (H1, H2))
    assert abs(d1 - d2) < 1e-3


def test_bracket_traceless_and_hermiticity():
    base = TorusBase(1, 16)
    state = random_valid_state(base, 2, seed=11)
    hs = Curvature(state)
    from higgsflow.grid import tr_field
    assert sup_norm(tr_field(hs.bracket)) < 1e-13
    # the curvature-type relation (F_ij)^{*H} = F_ji holds to truncation order
    residual = np.abs((adjoint_field(hs.part11, state.metric) - hs.part11).comps)
    assert residual.max() < 0.05


def test_metric_positivity_enforced():
    base = TorusBase(1, 16)
    bad = np.broadcast_to(np.diag([1.0, -0.5]).astype(complex),
                          base.shape + (2, 2)).copy()
    with pytest.raises(ValueError, match="min eigenvalue -5.000e-01"):
        HermitianMetric(base, bad)


def test_non_finite_metric_is_not_positive():
    # eigvalsh of a NaN matrix is NaN, which no comparison places above tol
    base = TorusBase(1, 8)
    for bad in (np.nan, np.inf):
        mat = np.broadcast_to(np.eye(2, dtype=complex), base.shape + (2, 2)).copy()
        mat[3, 4] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="positive definite"):
            HermitianMetric(base, mat)
    with pytest.raises(ValueError, match="positive definite: 64 non-finite blocks"):
        HermitianMetric(base, np.full(base.shape + (2, 2), np.nan, complex))


def _eager_deviation(state, part11):
    """K = i Lambda(part11): the contraction of every (1,1) field the
    formulas build."""
    return MatrixFormField(state.base, 0, 0, _contract_slots(
        [part11.comps[i, i] for i in range(state.base.n)])[None, None]) * 1j


def _random_field(base, p, q, rank, rng, scale):
    f = MatrixFormField.zeros(base, p, q, rank)
    f.comps[...] = scale * (rng.standard_normal(f.comps.shape)
                            + 1j * rng.standard_normal(f.comps.shape))
    return f


def _random_state(n, rank, seed):
    """A state at N = 8 that need not be valid: a and phi of scale 0.3,
    H = Id + x x^dag."""
    rng = np.random.default_rng(seed)
    base = TorusBase(n, 8)
    a = _random_field(base, 0, 1, rank, rng, 0.3)
    phi = _random_field(base, 1, 0, rank, rng, 0.3)
    x = _random_field(base, 0, 0, rank, rng, 0.3).comps[0, 0]
    H = HermitianMetric(base, np.eye(rank) + x @ np.swapaxes(x.conj(), -1, -2))
    return HiggsBundleState(HiggsStructure(a, phi), H)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_parts_built_on_first_access_match_the_eager_formulas(n, rank, seed):
    state = _random_state(n, rank, seed)
    H = state.metric
    a, phi = state.structure.a, state.structure.phi
    hs = Curvature(state)

    # the eager route, every part built up front by the generic form
    # calculus in the order of the formulas
    b = d_flat(H.as_field()).sandwich(H.inv) - adjoint_field(a, H)
    phistar = adjoint_field(phi, H)
    f11 = dbar_flat(b) + d_flat(a) + wedge(a, b) + wedge(b, a)
    bracket = wedge(phi, phistar) + wedge(phistar, phi)
    part11 = f11 + bracket
    assert np.array_equal(hs.b.comps, b.comps)
    assert np.array_equal(hs.phistar.comps, phistar.comps)
    K = _eager_deviation(state, part11)
    assert einstein_deviation(state).comps.tobytes() == K.comps.tobytes()
    # every slot, off-diagonal ones included; f11 and part11 to the bit
    assert hs.f11.comps.tobytes() == f11.comps.tobytes()
    assert np.array_equal(hs.bracket.comps, bracket.comps)
    assert hs.part11.comps.tobytes() == part11.comps.tobytes()
    assert hs.deviation().comps.tobytes() == K.comps.tobytes()

    lazy = {"f02": lambda: hs.f02, "dbar_phistar": lambda: hs.dbar_phistar,
            "f20": lambda: hs.f20, "del_phi": lambda: hs.del_phi}
    if n == 1:
        assert all(get() is None for get in lazy.values())
        assert list(hs.parts) == [(1, 1)]
        return
    eager = {"f20": d_flat(b) + wedge(b, b),
             "f02": dbar_flat(a) + wedge(a, a),
             "del_phi": d_flat(phi) + wedge(b, phi) + wedge(phi, b),
             "dbar_phistar": dbar_flat(phistar) + wedge(a, phistar) + wedge(phistar, a)}
    for name, get in lazy.items():
        assert np.array_equal(get().comps, eager[name].comps), name
    # del_phi, by the same calculus, to the bit
    assert hs.del_phi.comps.tobytes() == eager["del_phi"].comps.tobytes()
    assert list(hs.parts) == [(1, 1), (2, 0), (0, 2)]
    assert np.array_equal(hs.parts[(2, 0)].comps, eager["del_phi"].comps)


@pytest.mark.parametrize("n", [1, 2])
def test_a_unit_metric_reads_every_adjoint_as_a_dagger(n, monkeypatch):
    # HermitianMetric.identity marks its metric as the unit metric, whose
    # Curvature builds no metric connection, inverse or sandwich: every part
    # equals that of the same matrices under an unmarked metric. Its
    # diagonal slots of F_H take one derivative, d^dag + d with d = del_i a_i,
    # and K keeps every bit, signs of zeros included (flat-trivial-r2 is
    # all zeros)
    import higgsflow.geometry
    inverses = []
    real_inv = higgsflow.geometry.inv
    monkeypatch.setattr(higgsflow.geometry, "inv",
                        lambda m: inverses.append(m) or real_inv(m))
    states = [random_valid_state(TorusBase(n, 8), rank, seed)
              for rank in (1, 2, 3) for seed in (1, 2)]
    states.append(_random_state(n, 3, 4))
    states += [build_scenario(sc.name, N=8) for sc in scenario_catalog()
               if sc.n == n]
    for st in states:
        unit = HermitianMetric.identity(st.base, st.rank)
        plain = HermitianMetric(st.base, unit.mat.copy())
        assert unit.unit and not plain.unit
        inverses.clear()
        hs = Curvature(HiggsBundleState(st.structure, unit))
        parts = {name: getattr(hs, name) for name in ("b", "phistar", "part11")}
        K = hs.deviation()
        assert inverses == []  # no inverse is taken under the unit metric
        ref = Curvature(HiggsBundleState(st.structure, plain))
        for name, part in parts.items():
            assert np.array_equal(part.comps, getattr(ref, name).comps), name
        assert K.comps.tobytes() == ref.deviation().comps.tobytes()
        # einstein_deviation is a fresh Curvature's K to the byte
        for H in (unit, plain):
            state = HiggsBundleState(st.structure, H)
            assert einstein_deviation(state).comps.tobytes() == \
                Curvature(state).deviation().comps.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [1, 2])
def test_norm2_is_the_norm_of_each_part(n, seed):
    # Curvature.norm2 is pointwise_norm2 of the part, to the bit, at n = 1
    # and under a non-unit metric. Under the unit metric at n = 2 the (1,1)
    # norm reads slot (1, 0) as the dagger of slot (0, 1): it is within
    # 1e-15 of its max, with no part11 assembled and slot (1, 0) never built
    from higgsflow.grid import pointwise_norm2
    st = random_valid_state(TorusBase(n, 8), 3, seed)
    unit = HiggsBundleState(st.structure,
                            HermitianMetric.identity(st.base, st.rank))
    assert not st.metric.unit
    for state in (st, unit):
        hs = Curvature(state)
        got = {key: hs.norm2(key) for key in hs.bidegrees}
        assert all(hs.norm2(key) is norm for key, norm in got.items())  # kept
        assert not any(norm.flags.writeable for norm in got.values())
        if state is unit:
            assert {"f11", "bracket", "part11"}.isdisjoint(vars(hs))
            assert [(i, j) for _, i, j in hs._kept if i > j] == []
        for key, part in hs.parts.items():
            want = pointwise_norm2(part, state.metric)
            if state is unit and n == 2 and key == (1, 1):
                assert np.abs(got[key] - want).max() <= 1e-15 * want.max()
            else:
                assert got[key].tobytes() == want.tobytes(), key


@pytest.mark.parametrize("n, rank", [(1, 1), (1, 3), (2, 2)])
def test_the_unit_metric_is_one_read_only_object_and_its_own_frame(n, rank):
    # one unit metric per grid and rank, shared by every unit-metric state:
    # a write into it raises, so its unit mark cannot go stale, and it is
    # its own inverse and frame, equal to the inverse and root of I
    from higgsflow.linalg import inv, sqrtm_hpd
    unit = HermitianMetric.identity(TorusBase(n, 8), rank)
    assert HermitianMetric.identity(TorusBase(n, 8), rank) is unit
    assert HermitianMetric.identity(TorusBase(n, 8), rank + 1) is not unit
    assert build_scenario("flat-trivial-r1", N=8).metric is \
        HermitianMetric.identity(TorusBase(1, 8), 1)
    with pytest.raises(ValueError):
        unit.mat[(0,) * 2 * n] = 4.0 * np.eye(rank)
    with pytest.raises(ValueError):
        unit.mat *= 4.0
    assert np.array_equal(unit.mat, np.broadcast_to(np.eye(rank), unit.mat.shape))
    assert unit.inv is unit.mat and all(L is unit.mat for L in unit.frame)
    assert np.array_equal(inv(unit.mat), unit.mat)
    assert np.array_equal(sqrtm_hpd(unit.mat), unit.mat)


@pytest.mark.parametrize("n", [1, 2])
def test_validity_residuals_equal_those_of_the_assembled_forms(n):
    # validate_structure takes each residual from the form calculus, the
    # covariant derivative grid._hom_d among it: each is the sup_norm of the
    # form written out term by term, to the bit
    states = [random_valid_state(TorusBase(n, 8), 2, seed) for seed in (1, 2)]
    states += [_random_state(n, rank, 5) for rank in (1, 3)]
    states += [build_scenario(sc.name, N=8) for sc in scenario_catalog()
               if sc.n == n]
    for state in states:
        a, phi = state.structure.a, state.structure.phi
        rep = validate_structure(state.structure)
        holo = sup_norm(dbar_flat(phi) + wedge(a, phi) + wedge(phi, a))
        integ = sup_norm(dbar_flat(a) + wedge(a, a)) if n == 2 else 0.0
        symm = sup_norm(wedge(phi, phi)) if n == 2 else 0.0
        assert [x.hex() for x in (rep.integrability, rep.holomorphy, rep.symmetry)] \
            == [x.hex() for x in (integ, holo, symm)]


def test_an_n2_validation_sums_its_wedges_into_the_flat_derivatives(monkeypatch):
    # holomorphy takes dbar(phi) and two wedges, integrability dbar(a) and
    # one wedge, symmetry one wedge: six fields, each wedge summed in place
    st, _ = random_state_with_subbundle(TorusBase(2, 8), 2, 1, 3, amplitude=0.0015)
    made = []
    init = MatrixFormField.__init__
    monkeypatch.setattr(MatrixFormField, "__init__",
                        lambda self, *args: made.append(1) or init(self, *args))
    validate_structure(st.structure)
    assert len(made) == 6


def test_a_metric_is_a_value_so_its_frame_and_inverse_cannot_go_stale():
    base = TorusBase(1, 16)
    L = random_valid_state(base, 2, 3).metric.frame[0]
    H = HermitianMetric.from_frame(base, L)
    frame, H_inv, before = H.frame, H.inv, H.mat.copy()
    for write in (lambda m: m.__imul__(4.0), lambda m: m.__setitem__((0, 0), 4.0)):
        with pytest.raises(ValueError, match="read-only"):
            write(H.mat)
    assert H.mat.tobytes() == before.tobytes()
    assert hermitize(mm(dagger(L), L)).tobytes() == H.mat.tobytes()
    assert H.frame is frame and H.inv is H_inv
    # a grid-trailing array that the constructor keeps is frozen with it
    mat = _trailing_array(base.shape + (2, 2))
    mat[...] = 2.0 * np.eye(2)
    assert HermitianMetric(base, mat).mat is mat and not mat.flags.writeable


def _assert_contracted_deviation_is_exact(state):
    # K alone builds only the slots (i, i) that Lambda reads; it must
    # equal the contraction of the full Hitchin-Simpson (1,1) part
    hs = Curvature(state)
    K = _eager_deviation(state, hs.part11)
    assert einstein_deviation(state).comps.tobytes() == K.comps.tobytes()


@settings(max_examples=16, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_contracted_deviation_equals_the_full_contraction(n, rank, seed):
    _assert_contracted_deviation_is_exact(_random_state(n, rank, seed))


@pytest.mark.parametrize("name", [sc.name for sc in scenario_catalog()])
def test_contracted_deviation_is_exact_on_every_scenario(name):
    _assert_contracted_deviation_is_exact(build_scenario(name))


def test_the_deviation_carries_no_lambda_term():
    # a random state that is not valid has a degree of pure roundoff, not
    # 0.0; K is the contraction of part11's diagonal slots all the same
    state = _random_state(1, 2, 3)
    assert not validate_structure(state.structure).valid
    deg = Curvature(state).degree
    assert deg != 0.0
    _assert_contracted_deviation_is_exact(state)
    # the Einstein constant of that degree would move some bit of K
    K = einstein_deviation(state).comps[0, 0]
    lam = 2.0 * np.pi * (deg / state.rank) / state.base.volume
    assert (K - lam * np.eye(state.rank)).tobytes() != K.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_check_positive_error_names_the_min_eigenvalue(r):
    base = TorusBase(1, 8)
    mat = np.broadcast_to(np.eye(r, dtype=complex), base.shape + (r, r)).copy()
    mat[2, 5, r - 1, r - 1] = -0.25
    with pytest.raises(ValueError,
                       match=r"positive definite: min eigenvalue -2\.500e-01"):
        HermitianMetric(base, mat)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_check_positive_names_non_finite_and_overflowing_blocks(r):
    base = TorusBase(1, 8)
    eye = np.broadcast_to(np.eye(r, dtype=complex), base.shape + (r, r))
    cases = [((-1, 0), bad, r"1 non-finite blocks") for bad in (np.nan, np.inf, -np.inf)]
    if r >= 2:
        # indefinite; its 2x2 leading minor is inf - inf
        cases.append((slice(0, 2), 1e308 * np.array([[0.5, 1.0], [1.0, 0.5]]),
                      r"min eigenvalue -5\.000e\+307$"))
    if r in (2, 3):
        # positive definite, though the closed-form minors overflow: the
        # verdict is taken again by eigvalsh on blocks scaled by a power of
        # two; the other blocks are the identity
        cases.append((slice(0, 2), 1e308 * np.array([[1.0, 0.5], [0.5, 1.0]]),
                      None))
    for where, value, reason in cases:
        mat = eye.copy()
        if isinstance(where, slice):
            mat[3, 4, where, where] = value
        else:
            mat[(3, 4) + where] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if reason is None:
                HermitianMetric(base, mat)
                continue
            with pytest.raises(ValueError, match="positive definite: " + reason):
                HermitianMetric(base, mat)


def test_check_positive_turns_a_failed_eigensolve_into_a_value_error(monkeypatch):
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    base = TorusBase(1, 8)
    mat = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), base.shape + (2, 2))
    with pytest.raises(ValueError, match="positive definite: Eigenvalues did not converge"):
        HermitianMetric(base, mat)


def test_a_metric_that_is_not_hermitian_is_rejected():
    # positive in its Hermitian part, which is all that positivity and the
    # frame read; inv would invert the whole matrix
    base = TorusBase(1, 8)
    M = np.broadcast_to(np.array([[2.0, 0.9], [0.1, 1.0]], np.complex128),
                        base.shape + (2, 2))
    with pytest.raises(ValueError, match="metric is not Hermitian"):
        HermitianMetric(base, M)
    # the non-finite verdict comes first
    bad = M.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="1 non-finite blocks"):
        HermitianMetric(base, bad)


def _structure_n8():
    return build_scenario("nilpotent-r2", N=8).structure


@pytest.mark.parametrize("call, message", [
    (lambda: HermitianMetric(TorusBase(1, 8), np.ones((8, 8, 2, 3))),
     "metric array shape (8, 8, 2, 3) does not match the grid"),
    (lambda: HiggsStructure(_structure_n8().phi, _structure_n8().phi),
     "a must be a (0,1)-form"),
    (lambda: HiggsStructure(_structure_n8().a, _structure_n8().a),
     "phi must be a (1,0)-form"),
    (lambda: HiggsBundleState(_structure_n8(),
                              HermitianMetric.identity(TorusBase(1, 16), 2)),
     "metric grid does not match the structure"),
])
def test_each_rejection_raises_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)


def _unit_n2_curvature():
    st = build_scenario("t4-commuting", N=8)
    return Curvature(HiggsBundleState(st.structure,
                                      HermitianMetric.identity(st.base, 2)))


def test_the_unit_norm_the_deviation_and_part11_read_one_kept_slot_sum(
        monkeypatch):
    # F_ij + [phi_i, phi*_j] is formed once per slot (_slot(2, i, j)): the
    # unit-metric (1,1) norm keeps the upper slots, the deviation after it
    # contracts the same diagonal arrays, and part11 is assembled from them
    import higgsflow.geometry
    curv = _unit_n2_curvature()
    curv.norm2((1, 1))
    contracted = []
    real = higgsflow.geometry._contract_slots
    monkeypatch.setattr(higgsflow.geometry, "_contract_slots",
                        lambda slots: contracted.append(slots) or real(slots))
    curv.deviation()
    kept = [curv._kept[2, i, i] for i in range(2)]
    assert len(contracted) == 1
    assert all(x is y for x, y in zip(contracted[0], kept))
    assert (2, 1, 0) not in curv._kept  # the norm reads (0, 1) for it
    part = curv.part11
    for i, j in itertools.product(range(2), repeat=2):
        assert np.shares_memory(part.comps[i, j], curv._kept[2, i, j])
    assert "f11" not in vars(curv) and "bracket" not in vars(curv)


def test_part11_under_a_metric_builds_neither_f11_nor_the_bracket():
    st = build_scenario("t4-commuting", N=8)
    assert not st.metric.unit
    curv = Curvature(st)
    part = curv.part11
    assert "f11" not in vars(curv) and "bracket" not in vars(curv)
    # the same bytes as the sum of the two assembled fields
    ref = Curvature(st)
    assert np.array_equal(part.comps, (ref.f11 + ref.bracket).comps)
