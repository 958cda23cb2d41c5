import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from higgsflow import (HermitianMetric, HiggsBundleState, HiggsStructure,
                       MatrixFormField, TorusBase, adjoint_field, Curvature,
                       sup_norm, validate_structure)
from higgsflow.flows import einstein_deviation
from higgsflow.grid import _contract_slots, d_flat, dbar_flat, wedge
from higgsflow.scenarios import (build_scenario, random_valid_state,
                                  scenario_catalog)

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
    assert list(hs.parts) == [(1, 1), (2, 0), (0, 2)]
    assert np.array_equal(hs.parts[(2, 0)].comps, eager["del_phi"].comps)


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
