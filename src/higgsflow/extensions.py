"""Sub-bundles, extensions, second fundamental forms and filtrations.

Sub-bundles are represented by grids of H-orthogonal projectors, so nesting,
invariance and holomorphy checks are pointwise linear algebra. Quotients are
realized on the H-orthogonal complement through explicit frames, built from a
constant reference frame and pointwise H-orthonormalization; this covers the
topologically trivial sub-bundles in scope and fails loudly if a frame
degenerates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .diagnostics import (FlatnessCertificate, TopologicalIntegrals,
                          flatness_certificate, topological_integrals)
from .flows import FlowBlowup, run_donaldson_flow
from .geometry import (Curvature, HermitianMetric, HiggsBundleState,
                       HiggsStructure, adjoint_field)
from .grid import MatrixFormField, MixedField, d_flat, dbar_flat, sup_norm, wedge
from .linalg import _store_axes, _trailing, _trailing_array, dagger, inv, mm, trace

__all__ = [
    "HiggsSubbundle", "SubbundleReport", "subbundle_report",
    "ExtensionData", "split_extension", "GaussCodazziReport",
    "gauss_codazzi_blocks", "RhoSweepRow", "rho_sweep",
    "InvariantSectionReport", "invariant_section_check",
    "FiltrationLevel", "FiltrationReport", "verify_filtration",
    "assemble_filtration_metric",
]


@dataclass(eq=False)
class HiggsSubbundle:
    """phi-invariant holomorphic sub-bundle as an H-orthogonal projector grid."""

    projector: np.ndarray   # (*grid, r, r)
    rank: int

    @classmethod
    def from_constant_span(cls, state: HiggsBundleState,
                           columns: np.ndarray) -> "HiggsSubbundle":
        """Sub-bundle spanned by constant columns, H-orthogonalized pointwise."""
        r = state.rank
        cols = np.asarray(columns, dtype=np.complex128).reshape(r, -1)
        U = np.broadcast_to(cols, state.base.shape + cols.shape)
        return cls.from_frame(state.metric, U)

    @classmethod
    def from_frame(cls, H: HermitianMetric, U: np.ndarray) -> "HiggsSubbundle":
        """H-orthogonal projector onto the pointwise span of the frame U."""
        UH = mm(dagger(U), H.mat)
        return cls(mm(U, mm(inv(mm(UH, U)), UH)), U.shape[-1])

    def complement(self) -> np.ndarray:
        eye = np.eye(self.projector.shape[-1], dtype=np.complex128)
        return eye - self.projector

    def as_field(self, base) -> MatrixFormField:
        out = MatrixFormField.zeros(base, 0, 0, self.projector.shape[-1])
        out.comps[0, 0] = self.projector
        return out


@dataclass(frozen=True)
class SubbundleReport:
    idempotency: float
    self_adjointness: float
    rank_constancy: float
    phi_invariance: float
    holomorphy: float
    rank: int
    tol: float
    valid: bool

    def as_dict(self) -> dict:
        return asdict(self)


def subbundle_report(state: HiggsBundleState, sub: HiggsSubbundle) -> SubbundleReport:
    """Residuals of the sub-bundle invariants against the ambient state.

    Holomorphy is measured through the projector as
    sup|(1-pi)(dbar pi + [a, pi]) pi| and invariance as sup|(1-pi) phi pi|.
    """
    a, phi, H = state.structure.a, state.structure.phi, state.metric
    base = state.base
    pi = sub.projector
    # grid-represented sub-bundles are holomorphic only to truncation order,
    # so the gate scales with h^2
    tol = max(1e-8, 10.0 * base.spacing**2) * (1.0 + sup_norm(phi) + sup_norm(a))
    idem = float(np.abs(mm(pi, pi) - pi).max())
    sadj = float(np.abs(mm(mm(H.inv, dagger(pi)), H.mat) - pi).max())
    rank_const = float(np.abs(np.real(trace(pi)) - sub.rank).max())

    pi_f = sub.as_field(base)
    one_minus = sub.complement()
    inv_res = sup_norm(phi.sandwich(one_minus, pi), H)
    dbar_pi = dbar_flat(pi_f) + wedge(a, pi_f) - wedge(pi_f, a)
    holo_res = sup_norm(dbar_pi.sandwich(one_minus, pi), H)
    return SubbundleReport(idem, sadj, rank_const, inv_res, holo_res,
                           sub.rank, tol,
                           valid=max(idem, sadj, rank_const, inv_res,
                                     holo_res) <= tol)


# -- frames and block decomposition -------------------------------------------------


def _orthonormal_frame(H: HermitianMetric, pi: np.ndarray, p: int,
                       against: np.ndarray | None = None) -> np.ndarray:
    """H-orthonormal frame of ran(pi), optionally H-orthogonal to a frame.

    Uses the top eigenvectors of the grid-averaged projector as a constant
    reference, projects pointwise, and H-orthonormalizes by Cholesky. Raises
    if the projected reference degenerates anywhere. The average sums each
    entry over one contiguous grid slab, so it does not depend on the
    layout of pi.
    """
    r = pi.shape[-1]
    mean_pi = _trailing(pi).transpose(_store_axes(pi.ndim)).reshape(r, r, -1).mean(axis=-1)
    w, v = np.linalg.eigh(0.5 * (mean_pi + dagger(mean_pi)))
    ref = v[:, np.argsort(w)[::-1][:p]]
    U = mm(pi, ref)
    if against is not None:
        U = U - mm(against, mm(mm(dagger(against), H.mat), U))
    gram = mm(mm(dagger(U), H.mat), U)
    try:
        L = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sub-bundle frame degenerates on the grid; cannot "
                         "build a global smooth frame") from exc
    return mm(U, inv(dagger(L)))


def _quotient_frames(H: HermitianMetric, subs: list[HiggsSubbundle]):
    """H-orthonormal frames of the successive quotients of a filtration.

    subs lists the proper levels in increasing rank and the full bundle is
    the implicit last level; each frame is H-orthogonal to all earlier ones.
    The frames are yielded one level at a time.
    """
    r = H.rank
    eye = _trailing(np.broadcast_to(np.eye(r, dtype=np.complex128),
                                    H.base.shape + (r, r)))
    prev_frame, prev_proj, prev_rank = None, np.zeros_like(eye), 0
    for pi, rank in [(sub.projector, sub.rank) for sub in subs] + [(eye, r)]:
        # nested H-orthogonal projectors commute, so pi - prev is again an
        # H-orthogonal projector, onto the quotient of this level
        U = _orthonormal_frame(H, pi - prev_proj, rank - prev_rank,
                               against=prev_frame)
        yield U
        prev_frame = U if prev_frame is None else _side_by_side([prev_frame, U])
        prev_proj, prev_rank = pi, rank


def _side_by_side(frames: list[np.ndarray]) -> np.ndarray:
    """The columns of the frames side by side, in grid-trailing storage."""
    out = _trailing_array(frames[0].shape[:-1] + (sum(V.shape[-1] for V in frames),))
    return np.concatenate(frames, axis=-1, out=out)


def _block(H: HermitianMetric, U: np.ndarray, f: MatrixFormField,
           V: np.ndarray | None = None) -> MatrixFormField:
    """Block U^{+H} f V of a form field between two H-orthonormal frames.

    Without V the result is the coefficient field U^{+H} f of a
    frame-valued f.
    """
    return f.sandwich(mm(dagger(U), H.mat), V)


def _dbar_of_frame(a: MatrixFormField, U: np.ndarray) -> MatrixFormField:
    """dbar_E applied to the columns of a frame: dbar(U) + a U."""
    Uf = MatrixFormField(a.base, 0, 0, U[None, None])
    return dbar_flat(Uf) + wedge(a, Uf)


@dataclass(eq=False)
class ExtensionData:
    """H-orthogonal block data of an extension 0 -> S -> E -> Q -> 0.

    In the H-orthonormal frames the induced metrics are the identity, so
    block norms are plain and the adjoints of gamma and zeta are conjugate
    transposes (until a scaled metric reweights them). The factors'
    curvatures and the Hom adjoints are built on first use and then shared.
    """

    frame_s: np.ndarray
    frame_q: np.ndarray
    a_s: MatrixFormField
    a_q: MatrixFormField
    gamma: MatrixFormField      # (0,1), Hom(Q,S): second fundamental form
    zeta: MatrixFormField       # (1,0), Hom(Q,S)
    phi_s: MatrixFormField
    phi_q: MatrixFormField
    lower_left_dbar: float
    lower_left_phi: float

    @property
    def rank_s(self) -> int:
        return self.frame_s.shape[-1]

    @property
    def rank_q(self) -> int:
        return self.frame_q.shape[-1]

    @cached_property
    def factors(self) -> tuple[Curvature, Curvature]:
        """The curvatures of S and Q under their induced metrics, the
        identity in their frames."""
        return tuple(Curvature(HiggsBundleState(
            HiggsStructure(a, phi), HermitianMetric.identity(a.base, a.rows)))
            for a, phi in ((self.a_s, self.phi_s), (self.a_q, self.phi_q)))

    @cached_property
    def hom_adjoints(self) -> tuple[MatrixFormField, MatrixFormField]:
        """gamma* of type (1,0) and zeta* of type (0,1), both Hom(S,Q)."""
        ident_s, ident_q = (c.state.metric for c in self.factors)
        return tuple(adjoint_field(f, ident_s, ident_q) for f in (self.gamma, self.zeta))


def split_extension(state: HiggsBundleState, sub: HiggsSubbundle) -> ExtensionData:
    """H-orthogonal block decomposition of dbar_E and phi along S + S^perp.

    The lower-left blocks vanish in the continuum by invariance and
    holomorphy; their discrete sup-norms are returned as residuals.
    Raises ValueError unless 1 <= sub.rank < state.rank.
    """
    if not 1 <= sub.rank < state.rank:
        raise ValueError(f"sub-bundle rank {sub.rank} must lie in [1, {state.rank})")
    report = subbundle_report(state, sub)
    if not report.valid:
        raise ValueError(f"sub-bundle violates its invariants: {report.as_dict()}")
    a, phi, H = state.structure.a, state.structure.phi, state.metric
    U_s, U_q = _quotient_frames(H, [sub])

    dbar_Us, dbar_Uq = _dbar_of_frame(a, U_s), _dbar_of_frame(a, U_q)
    a_s = _block(H, U_s, dbar_Us)
    a_q = _block(H, U_q, dbar_Uq)
    gamma = _block(H, U_s, dbar_Uq)
    lower_dbar = _block(H, U_q, dbar_Us)

    phi_s = _block(H, U_s, phi, U_s)
    phi_q = _block(H, U_q, phi, U_q)
    zeta = _block(H, U_s, phi, U_q)
    lower_phi = _block(H, U_q, phi, U_s)
    return ExtensionData(U_s, U_q, a_s, a_q, gamma, zeta, phi_s, phi_q,
                         sup_norm(lower_dbar), sup_norm(lower_phi))


def _hom_d(flat, x: MatrixFormField, left: MatrixFormField,
           right: MatrixFormField) -> MatrixFormField:
    """Induced connection part on Hom(right, left) bundles.

    With flat = d_flat and the (1,0) connection forms b this is the (1,0)
    part; with flat = dbar_flat and the (0,1) forms a, the (0,1) part.
    """
    sign = -1.0 if (x.p + x.q) % 2 else 1.0
    return flat(x) + wedge(left, x) - sign * wedge(x, right)


def _blockify(tl, tr, bl, br, s: int, q: int) -> MatrixFormField:
    """Assemble a 2x2 block field of total rank s+q; None entries are zero."""
    ref = next(x for x in (tl, tr, bl, br) if x is not None)
    out = MatrixFormField.zeros(ref.base, ref.p, ref.q, s + q)
    for blk, r0, c0 in ((tl, 0, 0), (tr, 0, s), (bl, s, 0), (br, s, s)):
        if blk is not None:
            out.comps[..., r0:r0 + blk.rows, c0:c0 + blk.cols] += blk.comps
    return out


def _blockdiag_mixed(top: MixedField, bottom: MixedField, s: int,
                     q: int) -> MixedField:
    return MixedField(_blockify(top.get(key), None, None, bottom.get(key), s, q)
                      for key in sorted(set(top) | set(bottom)))


@dataclass(eq=False)
class GaussCodazziReport:
    """Block assembly of the Hitchin-Simpson curvature vs conjugated ambient."""

    blocks: dict
    ambient: dict
    residual: float
    scale: float

    def relative_residual(self) -> float:
        return self.residual / max(self.scale, 1e-30)


def _extension_parts(ext: ExtensionData) -> tuple[MixedField, ...]:
    """The Hitchin-Simpson curvature of the extension in the splitting, as
    A + B + C, each a block field of every degree that occurs.

    A is the direct sum of the factors' own curvatures and B the quadratic
    terms of the second fundamental forms,
    (zeta + gamma) ^ (zeta* - gamma*) (+) (zeta* - gamma*) ^ (zeta + gamma),
    both on the diagonal. C holds the first-order terms, off the diagonal:
    D(gamma + zeta) + (gamma + zeta) ^ phi_Q* + phi_S* ^ (gamma + zeta)
    in Hom(Q,S), and dbar(zeta* - gamma*) + (zeta* - gamma*) ^ phi_S
    + phi_Q ^ (zeta* - gamma*) in Hom(S,Q), with the derivatives of the
    induced connections. Under the metric diag(Id_S, Id_Q / rho^2), in
    frames orthonormal for it, the curvature is A + rho^2 B + rho C.
    """
    s, q = ext.rank_s, ext.rank_q
    n = ext.a_s.base.n
    f_s, f_q = ext.factors
    a_part = _blockdiag_mixed(f_s.parts, f_q.parts, s, q)

    gamma_st, zeta_st = ext.hom_adjoints
    gpz = MixedField([ext.gamma, ext.zeta])                       # gamma + zeta
    zmg_st = MixedField([zeta_st]) - MixedField([gamma_st])       # zeta* - gamma*
    b_part = _blockdiag_mixed(gpz.wedge(zmg_st), zmg_st.wedge(gpz), s, q)

    # derivative terms whose raised degree has no slot vanish identically
    top_c = MixedField([_hom_d(d_flat, f, f_s.b, f_q.b) for f in gpz.values()
                        if f.p + 1 <= n]) \
        + gpz.wedge(MixedField([f_q.phistar])) + MixedField([f_s.phistar]).wedge(gpz)
    bot_c = MixedField([_hom_d(dbar_flat, f, ext.a_q, ext.a_s)
                        for f in zmg_st.values() if f.q + 1 <= n]) \
        + zmg_st.wedge(MixedField([ext.phi_s])) + MixedField([ext.phi_q]).wedge(zmg_st)
    c_part = MixedField([_blockify(None, f, None, None, s, q) for f in top_c.values()]
                        + [_blockify(None, None, f, None, s, q) for f in bot_c.values()])
    return a_part, b_part, c_part


def gauss_codazzi_blocks(state: HiggsBundleState,
                         sub: HiggsSubbundle) -> GaussCodazziReport:
    """Assemble the split curvature A + B + C (_extension_parts) and compare
    it with the ambient Hitchin-Simpson curvature conjugated into the
    splitting. Curvature runs on the factors for A and on the ambient state
    for the other side; beyond it and the primitives, the sides share no code.
    """
    ext = split_extension(state, sub)
    a_part, b_part, c_part = _extension_parts(ext)
    assembled = a_part + b_part + c_part

    U = _side_by_side([ext.frame_s, ext.frame_q])
    ambient = MixedField(_block(state.metric, U, f, U) for f in
                         Curvature(state).parts.values())

    # a degree missing on one side compares against zero
    residual = max(sup_norm(f) for f in (assembled - ambient).values())
    scale = max(sup_norm(f) for f in (*assembled.values(), *ambient.values()))
    return GaussCodazziReport(assembled, ambient, residual, scale)


# -- the scaled block metric and the rho sweep ---------------------------------------


def _scaled_block_metric(frames: list[np.ndarray], rho: float) -> np.ndarray:
    """Metric that is rho^{-2k} Id on the k-th frame, in the original basis.

    The frames side by side form U, and the metric is U^{-dag} W U^{-1}
    with W the diagonal of the weights. For two frames this is the extension
    metric diag(Id_S, Id_Q / rho^2), under which the off-diagonal adjoints
    scale as rho^2.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    weights = np.concatenate([np.full(V.shape[-1], 1.0 / rho ** (2 * k))
                              for k, V in enumerate(frames)])
    U_inv = inv(_side_by_side(frames))
    return mm(mm(dagger(U_inv), np.diag(weights).astype(np.complex128)), U_inv)


@dataclass(frozen=True)
class RhoSweepRow:
    rho: float
    sup_a: float
    sup_b1: float
    sup_c1: float
    sup_f: float

    def as_dict(self) -> dict:
        return asdict(self)


def rho_sweep(state: HiggsBundleState, sub: HiggsSubbundle,
              rhos: list[float]) -> tuple[list[RhoSweepRow], float | None]:
    """Sweep the block-metric scale and fit the flatness decay slope.

    Rows report the sup of each part of _extension_parts (A, and B and C at
    rho = 1), and the total sup|F| of the assembled state under the scaled
    metric, computed independently of the decomposition. The fitted value is
    the log-log slope of (sup|F| - sup|A|) against rho, or None unless two
    distinct rho values have an excess above roundoff.
    """
    bad = [r for r in rhos if not 0 < r <= 1]
    if bad:
        raise ValueError(f"rho values must lie in (0, 1], got {bad[0]}")
    ext = split_extension(state, sub)
    sup_a, sup_b1, sup_c1 = (part.sup() for part in _extension_parts(ext))

    frames = [ext.frame_s, ext.frame_q]
    rows = []
    for rho in rhos:
        total = HiggsBundleState(state.structure, HermitianMetric(
            state.base, _scaled_block_metric(frames, rho)))
        rows.append(RhoSweepRow(rho, sup_a, sup_b1, sup_c1,
                                Curvature(total).sup_norm()))
    return rows, _fit_rho_slope(rows)


def _fit_rho_slope(rows: list[RhoSweepRow]) -> float | None:
    xs, ys = [], []
    for row in rows:
        excess = row.sup_f - row.sup_a
        if excess > 1e-13 * (1.0 + row.sup_a):
            xs.append(math.log(row.rho))
            ys.append(math.log(excess))
    if len(set(xs)) < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


# -- invariant sections --------------------------------------------------------------


@dataclass(frozen=True)
class InvariantSectionReport:
    holomorphy: float          # sup |dbar_E s|
    invariance: float          # sup |phi s - eta s| after the least-squares fit
    form_minimum: float        # min over grid and unit tangent vectors
    min_length: float          # min |s|_H, the no-zeros witness
    eta_sup: float

    def as_dict(self) -> dict:
        return asdict(self)


def invariant_section_check(state: HiggsBundleState,
                            section: np.ndarray) -> InvariantSectionReport:
    """Check a section for holomorphy, phi-invariance and bracket positivity.

    The one-form eta with phi(s) = eta s is fitted pointwise by least
    squares; the reported form minimum is the smallest value of
    i H([phi, phi*] s, s) over grid points and g-unit (1,0) tangent vectors,
    nonnegative in the continuum for invariant holomorphic sections.
    """
    a, phi, H = state.structure.a, state.structure.phi, state.metric
    base, r = state.base, state.rank
    s = np.asarray(section, dtype=np.complex128)
    if s.shape != base.shape + (r,):
        raise ValueError(f"section shape {s.shape} does not match the grid")
    s_col = s[..., None]
    s_dual = mm(dagger(s_col), H.mat)
    length2 = np.real(mm(s_dual, s_col))[..., 0, 0]
    if length2.max() <= 0:
        raise ValueError("section is identically zero")

    def norm2_per_component(x):  # H(x_k, x_k) for column blocks x_k
        return np.real(mm(mm(dagger(x), H.mat), x))[..., 0, 0]

    # holomorphy: dbar s + a s
    sf = MatrixFormField(base, 0, 0, s_col[None, None])
    dbar_s = dbar_flat(sf) + wedge(a, sf)
    holo = math.sqrt(max(float(
        norm2_per_component(dbar_s.comps[0]).sum(axis=0).max()), 0.0) * 2.0)

    # eta_i = H(phi_i s, s) / |s|^2, one row per (1,0) component i
    phi_s = phi.sandwich(None, s_col).comps[:, 0]
    eta = mm(s_dual, phi_s)[..., 0, 0] / (length2 + 1e-30)
    resid = phi_s - eta[..., None, None] * s_col
    invariance = math.sqrt(max(float(
        norm2_per_component(resid).sum(axis=0).max()), 0.0) * 2.0)

    # M_ij = H([phi_i, phi_j*] s, s); form value on g-unit vectors is
    # 2 * smallest eigenvalue of M
    bracket = Curvature(state).bracket
    M = np.moveaxis(mm(s_dual, bracket.sandwich(None, s_col).comps)[..., 0, 0],
                    (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(0.5 * (M + dagger(M)))
    form_min = 2.0 * float(eigs.min())
    eta_sup = math.sqrt(float((np.abs(eta) ** 2).sum(axis=0).max()) * 2.0)
    return InvariantSectionReport(holo, invariance, form_min,
                                  math.sqrt(float(length2.min())), eta_sup)


# -- filtrations ---------------------------------------------------------------------


@dataclass(eq=False)
class FiltrationLevel:
    index: int
    rank: int
    certificate: FlatnessCertificate
    flowed_time: float
    nesting_residual: float
    subbundle: SubbundleReport
    topology: TopologicalIntegrals


@dataclass(eq=False)
class FiltrationReport:
    levels: list[FiltrationLevel]
    additivity_c1: float
    additivity_ch2: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def verify_filtration(state: HiggsBundleState, subs: list[HiggsSubbundle],
                      eps_target: float, flow_time: float = 0.0,
                      flow_dt: float = 1e-2) -> FiltrationReport:
    """Certify that every quotient of a nested chain of sub-bundles is
    (approximately) Hermitian flat.

    subs lists the proper levels in increasing rank; the full bundle is the
    implicit last level. Each quotient is realized on the H-orthogonal
    complement of the previous level, flowed for the budget only if its
    initial certificate misses the target, and certified. Topological
    additivity across the filtration is reported alongside.
    """
    a, phi, H = state.structure.a, state.structure.phi, state.metric
    base, r = state.base, state.rank
    ranks = [sub.rank for sub in subs]
    if ranks != sorted(ranks) or len(set(ranks)) != len(ranks) or \
            (ranks and ranks[-1] >= r):
        raise ValueError("filtration levels must have strictly increasing "
                         "ranks below the ambient rank")

    # nesting and per-level invariants
    nesting = [0.0]
    for lo, hi in zip(subs, subs[1:]):
        nesting.append(float(np.abs(mm(hi.projector, lo.projector)
                                    - lo.projector).max()))
    reports = []
    for k, sub in enumerate(subs):
        rep = subbundle_report(state, sub)
        if not rep.valid:
            raise ValueError(f"filtration level {k} (rank {sub.rank}) violates "
                             f"sub-bundle invariants: {rep.as_dict()}")
        if nesting[k] > rep.tol:
            raise ValueError(f"filtration levels {k-1} and {k} are not nested: "
                             f"residual {nesting[k]:.3e}")
        reports.append(rep)

    full_report = SubbundleReport(0.0, 0.0, 0.0, 0.0, 0.0, r,
                                  reports[-1].tol if reports else 1e-6, True)
    reports.append(full_report)
    nesting.append(0.0)  # the full bundle contains every level exactly

    levels = []
    sums = {"c1": 0.0, "ch2": 0.0}
    for k, U in enumerate(_quotient_frames(H, subs)):
        quot_rank = U.shape[-1]
        a_q = _block(H, U, _dbar_of_frame(a, U))
        phi_q = _block(H, U, phi, U)
        qstate = HiggsBundleState(HiggsStructure(a_q, phi_q),
                                  HermitianMetric.identity(base, quot_rank))
        cert = flatness_certificate(qstate, eps_target)
        flowed = 0.0
        if not cert.passed and flow_time > 0.0:
            try:
                res = run_donaldson_flow(qstate, flow_time, flow_dt)
            except FlowBlowup as exc:
                exc.level = k
                raise
            qstate = res.final
            cert = flatness_certificate(qstate, eps_target)
            flowed = flow_time
        topo = topological_integrals(qstate)
        sums["c1"] += topo.c1_omega
        sums["ch2"] += topo.ch2
        levels.append(FiltrationLevel(k, quot_rank, cert, flowed,
                                      nesting[k], reports[k], topo))

    ambient_topo = topological_integrals(state)
    add_c1 = abs(sums["c1"] - ambient_topo.c1_omega)
    add_ch2 = abs(sums["ch2"] - ambient_topo.ch2)
    passed = all(lv.certificate.passed for lv in levels)
    return FiltrationReport(levels, add_c1, add_ch2, passed)


def assemble_filtration_metric(state: HiggsBundleState,
                               subs: list[HiggsSubbundle],
                               rho: float) -> HiggsBundleState:
    """Scaled block metric rho^{-2k} on the k-th quotient of the filtration.

    Applying the two-factor scaling inductively down the filtration with a
    common rho reassembles a total metric; for certified flat quotients the
    total curvature decays like rho^2. With one level this is the extension
    metric that rho_sweep uses.
    """
    frames = list(_quotient_frames(state.metric, subs))
    return HiggsBundleState(state.structure, HermitianMetric(
        state.base, _scaled_block_metric(frames, rho)))
