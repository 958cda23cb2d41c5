"""Shipped scenario presets and seeded random valid-state generators.

Every builder samples closed-form fields, so the same scenario can be
instantiated at any resolution for refinement studies. Scenario metadata
documents the expected verdicts (stability type, filtrations, closed-form
decay laws) that the test suite and the CLI check.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .extensions import HiggsSubbundle
from .geometry import HermitianMetric, HiggsBundleState, HiggsStructure
from .grid import MatrixFormField, TorusBase, dbar_flat
from .linalg import _store_axes, _trailing_array, dagger, expm_batched, mm

__all__ = [
    "Scenario", "scenario_catalog", "get_scenario", "build_scenario",
    "scenario_subbundles", "random_valid_state", "random_state_with_subbundle",
]

SQRT8 = 2.0 * math.sqrt(2.0)


def _e(i: int, j: int, r: int) -> np.ndarray:
    m = np.zeros((r, r), np.complex128)
    m[i, j] = 1.0
    return m


def _grid_times(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The blocks g(x) m of a grid scalar g and a constant block m, each
    entry the product g * m_ij, as a grid-trailing (*grid, r, c) array."""
    m = np.asarray(m, np.complex128)
    out = _trailing_array(g.shape + m.shape)
    np.multiply(g, m.reshape(m.shape + (1,) * g.ndim),
                out=out.transpose(_store_axes(out.ndim)))
    return out


def _constant_structure(base: TorusBase, rank: int,
                        a_consts: dict[int, np.ndarray] | None = None,
                        phi_consts: dict[int, np.ndarray] | None = None
                        ) -> HiggsStructure:
    a = MatrixFormField.zeros(base, 0, 1, rank)
    for j, m in (a_consts or {}).items():
        a.comps[0, j] = np.asarray(m, np.complex128)
    phi = MatrixFormField.zeros(base, 1, 0, rank)
    for i, m in (phi_consts or {}).items():
        phi.comps[i, 0] = np.asarray(m, np.complex128)
    return HiggsStructure(a, phi)


def _trig(base: TorusBase, waves: list[tuple[float, tuple[int, ...], float]]):
    """Real trig field sum_k amp * cos(2 pi k.x + phase)."""
    out = np.zeros(base.shape)
    for amp, kvec, phase in waves:
        arg = np.zeros(base.shape)
        for ax, kk in enumerate(kvec):
            if kk:
                arg = arg + 2.0 * np.pi * kk * base.axis_coordinate(ax)
        out = out + amp * np.cos(arg + phase)
    return out


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    n: int
    N: int
    rank: int
    build: Callable[[TorusBase], HiggsBundleState] = field(repr=False, compare=False)
    expects: dict = field(default_factory=dict)


def _constant_state(base: TorusBase, rank: int,
                    phi0: np.ndarray | None = None) -> HiggsBundleState:
    """a = 0 and phi = phi0 dz^1 (zero when None), under the identity metric."""
    structure = _constant_structure(base, rank,
                                    phi_consts=None if phi0 is None else {0: phi0})
    return HiggsBundleState(structure, HermitianMetric.identity(base, rank))


def _conformal_r1(base: TorusBase) -> HiggsBundleState:
    # gentle amplitudes: the two-flow comparison needs the quadratic
    # conformal terms to sit below the stated agreement tolerance
    u = _trig(base, [(0.03, (1, 0) + (0,) * (2 * base.n - 2), 0.0),
                     (0.015, (0, 1) + (0,) * (2 * base.n - 2), 1.0)])
    H = HermitianMetric(base, np.exp(u)[..., None, None]
                        * np.eye(1, dtype=np.complex128))
    return HiggsBundleState(_constant_structure(base, 1), H)


def _t4_commuting(base: TorusBase) -> HiggsBundleState:
    nil = _e(0, 1, 2)
    eye = np.eye(2, dtype=np.complex128)
    structure = _constant_structure(
        base, 2,
        a_consts={0: 0.30 * nil, 1: 0.20 * nil},
        phi_consts={0: 0.40 * nil + 0.10 * eye, 1: 0.25 * nil - 0.05 * eye})
    g1 = _trig(base, [(0.10, (1, 0, 0, 0), 0.0)])
    g2 = _trig(base, [(0.06, (0, 0, 1, 0), 0.7)])
    gen = _grid_times(g1, np.diag([1.0, -1.0])) \
        + _grid_times(g2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    H = HermitianMetric(base, expm_batched(gen))
    return HiggsBundleState(structure, H)


def _extension_sweep(base: TorusBase, gamma_amp: float = 0.0) -> HiggsBundleState:
    """Flat line factors glued by zeta = dz (nilpotent-r2's structure),
    optionally with a varying gamma."""
    state = _constant_state(base, 2, _e(0, 1, 2))
    if gamma_amp:
        g = _trig(base, [(gamma_amp, (1,) + (0,) * (2 * base.n - 1), 0.0)])
        state.structure.a.comps[0, 0] = g[..., None, None] * _e(0, 1, 2)
    return state


_CATALOG: list[Scenario] = [
    Scenario("flat-trivial-r1", "trivial flat line bundle; every flow is an "
             "immediate fixed point with zero energy", 1, 16, 1,
             lambda base: _constant_state(base, 1),
             {"semistable": True, "stable": True, "flat": True,
              "ymh_energy": 0.0}),
    Scenario("flat-trivial-r2", "trivial flat rank-2 bundle", 1, 16, 2,
             lambda base: _constant_state(base, 2),
             {"semistable": True, "stable": False, "flat": True,
              "ymh_energy": 0.0}),
    Scenario("nilpotent-r2", "rank 2 with nilpotent Higgs field e12 dz; "
             "strictly semistable, metric flow decays like u(t) = 1/(1+8t)",
             1, 32, 2, lambda base: _constant_state(base, 2, _e(0, 1, 2)),
             {"semistable": True, "stable": False, "flat": False,
              "ymh_energy": 8.0, "u_rate": 8.0, "sup_curvature": SQRT8,
              "filtration_ranks": [1],
              "invariant_line_spans": [[1.0, 0.0]],
              "filtration": "0 in span(e1) in E"}),
    Scenario("chain-r3", "rank 3 with the two-step nilpotent chain Higgs "
             "field; strictly semistable with the full flag filtration",
             1, 24, 3, lambda base: _constant_state(base, 3, _e(0, 1, 3) + _e(1, 2, 3)),
             {"semistable": True, "stable": False, "flat": False,
              "ymh_energy": 8.0, "u_rate": 4.0, "sup_curvature": SQRT8,
              "filtration_ranks": [1, 2],
              "invariant_line_spans": [[1.0, 0.0, 0.0]],
              "filtration": "0 in span(e1) in span(e1,e2) in E"}),
    Scenario("diagonal-polystable", "rank 2 split with opposite diagonal "
             "Higgs eigenvalues; Hermitian-Einstein from the start", 1, 16, 2,
             lambda base: _constant_state(base, 2, np.diag([1.0, -1.0])),
             {"semistable": True, "stable": False, "polystable": True,
              "flat": True, "ymh_energy": 0.0,
              "filtration_ranks": [1],
              "invariant_line_spans": [[1.0, 0.0], [0.0, 1.0]]}),
    Scenario("conformal-r1", "line bundle with a conformal trig metric; the "
             "metric flow is the scalar heat equation", 1, 16, 1, _conformal_r1,
             {"semistable": True, "stable": True, "flat": False,
              "heat_flow": True}),
    Scenario("t4-commuting", "four-torus rank 2 with constant commuting "
             "connection and Higgs data over a non-scalar trig metric; "
             "exercises every n = 2 code path including ch2", 2, 12, 2, _t4_commuting,
             {"semistable": True, "valid_constants": True}),
    Scenario("extension-sweep", "flat line sub and quotient glued by "
             "zeta = dz; the scaled-metric family has sup|F| = 2 sqrt(2) "
             "rho^2 exactly", 1, 32, 2, _extension_sweep,
             {"filtration_ranks": [1], "supf_coefficient": SQRT8, "slope": 2.0,
              "epsilon_rho_pairs": [[0.1, 0.25], [0.05, 0.125], [0.01, 0.1]]}),
]

_BY_NAME = {sc.name: sc for sc in _CATALOG}


def scenario_catalog() -> list[Scenario]:
    return list(_CATALOG)


def get_scenario(name: str) -> Scenario:
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown scenario '{name}'; known scenarios: {known}")
    return _BY_NAME[name]


def build_scenario(name: str, N: int | None = None) -> HiggsBundleState:
    sc = get_scenario(name)
    return sc.build(TorusBase(sc.n, sc.N if N is None else N))


def scenario_subbundles(name: str, state: HiggsBundleState) -> list[HiggsSubbundle]:
    """The documented filtration levels of a scenario, as projector fields."""
    ranks = get_scenario(name).expects.get("filtration_ranks", [])
    return [HiggsSubbundle.from_constant_span(
        state, np.eye(state.rank, dtype=np.complex128)[:, :p]) for p in ranks]


# -- seeded random generators --------------------------------------------------------


def _random_trig(base: TorusBase, rng: np.random.Generator,
                 amplitude: float) -> np.ndarray:
    """Two waves of random amplitude and phase, wave numbers in {-1, 0, 1}."""
    waves = []
    for _ in range(2):
        kvec = tuple(int(rng.integers(-1, 2)) for _ in range(2 * base.n))
        if not any(kvec):
            kvec = (1,) + (0,) * (2 * base.n - 1)
        waves.append((amplitude * float(rng.uniform(0.4, 1.0)), kvec,
                      float(rng.uniform(0, 2 * np.pi))))
    return _trig(base, waves)


def _rank1_nilpotent(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random E = u v^dag with v^dag u = 0, so E^2 = 0 exactly."""
    u = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    v = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
    v = v - u * (np.vdot(u, v) / np.vdot(u, u))
    e = np.outer(u, np.conj(v))
    return e / max(np.abs(e).max(), 1e-12)


def _commutant_structure(base: TorusBase, rank: int,
                         rng: np.random.Generator) -> HiggsStructure:
    """Random constant a and phi, polynomials in the upper shift.

    They commute, so the structure is valid exactly and independently of
    the metric. Draws from rng: the a coefficients (rank > 1), then phi.
    """
    shift = np.eye(rank, k=1, dtype=np.complex128)

    def commutant_draw():
        coeffs = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        m = coeffs[0] * np.eye(rank, dtype=np.complex128)
        power = np.eye(rank, dtype=np.complex128)
        for k in range(1, rank):
            power = mm(power, shift)
            m = m + coeffs[k] * power
        return 0.5 * m

    a_consts = {j: commutant_draw() for j in range(base.n)} if rank > 1 else {}
    phi_consts = {i: commutant_draw() for i in range(base.n)}
    return _constant_structure(base, rank, a_consts, phi_consts)


def random_valid_state(base: TorusBase, rank: int, seed: int,
                       amplitude: float = 0.10) -> HiggsBundleState:
    """Seeded random state satisfying the structure constraints.

    The structure is a random commuting constant family (validity is exact
    and metric-independent); the metric is the exponential of a random
    Hermitian trig field, which drives every curvature path. Deterministic
    in (base, rank, seed, amplitude); re-sampling on a finer grid converges
    to the same continuum state at second order.
    """
    rng = np.random.default_rng(seed)
    structure = _commutant_structure(base, rank, rng)

    G = _trailing_array(base.shape + (rank, rank), init=np.zeros)
    for _ in range(2):
        h = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        h = 0.5 * (h + dagger(h))
        G = G + _grid_times(_random_trig(base, rng, amplitude), h)
    H = HermitianMetric(base, expm_batched(G))
    return HiggsBundleState(structure, H)


def random_state_with_subbundle(base: TorusBase, rank: int, sub_rank: int,
                                seed: int, amplitude: float = 0.08
                                ) -> tuple[HiggsBundleState, HiggsSubbundle]:
    """Seeded random (state, invariant sub-bundle) pair.

    The commutant seed is a polynomial in the upper shift, so every
    coordinate flag level is invariant; the seed is transported by a
    complex gauge sigma, its transported span stays invariant for the
    transported structure and is H-orthogonalized against a random metric.
    sigma is a product of factors Id + E g(x) with E^2 = 0, so sigma, its
    inverse and the metric factors are exact trig polynomials: the state is
    band-limited and its discrete residuals scale cleanly at second order.
    Validity is exact in the continuum.
    """
    if not (1 <= sub_rank < rank):
        raise ValueError("need 1 <= sub_rank < rank")
    rng = np.random.default_rng(seed)
    seed_structure = _commutant_structure(base, rank, rng)

    eye = np.eye(rank, dtype=np.complex128)
    sigma = None
    for _ in range(2):
        gen = _rank1_nilpotent(rng, rank)
        g = _random_trig(base, rng, amplitude)
        factor = _grid_times(g, gen)
        factor_inv = eye - factor
        factor += eye
        # dbar of the factor is (dbar g) gen; dbar sigma follows by the
        # Leibniz rule, factor by factor
        dbar_g = dbar_flat(MatrixFormField(base, 0, 0, g[None, None, ..., None, None]))
        dfactor = MatrixFormField(base, 0, 1, _grid_times(dbar_g.comps[..., 0, 0], gen))
        if sigma is None:
            sigma, sigma_inv, dsigma = factor, factor_inv, dfactor
        else:
            dsigma = dsigma.sandwich(None, factor) + dfactor.sandwich(sigma)
            sigma = mm(sigma, factor)
            sigma_inv = mm(factor_inv, sigma_inv)
    # the last factor's grid arrays would stay alive through the sandwiches
    del factor, factor_inv, dbar_g, dfactor

    a_new = seed_structure.a.sandwich(sigma, sigma_inv) \
        - dsigma.sandwich(None, sigma_inv)
    phi_new = seed_structure.phi.sandwich(sigma, sigma_inv)

    # band-limited positive metric H = C^dag L L^dag C with L = (1+c w) Id + w F
    w = _random_trig(base, rng, amplitude)
    c0 = float(rng.uniform(0.2, 0.6))
    L = _grid_times(1.0 + c0 * w, eye) + _grid_times(w, _rank1_nilpotent(rng, rank))
    Cm = eye + 0.3 * (rng.standard_normal((rank, rank))
                      + 1j * rng.standard_normal((rank, rank))) / math.sqrt(rank)
    H = HermitianMetric(base, mm(mm(mm(dagger(Cm), L), dagger(L)), Cm))
    # the transported coordinate span: the first sub_rank columns of sigma
    return (HiggsBundleState(HiggsStructure(a_new, phi_new), H),
            HiggsSubbundle.from_frame(H, sigma[..., :, :sub_rank]))
