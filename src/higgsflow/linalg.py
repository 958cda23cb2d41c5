"""Pointwise matrix kernels, vectorized over grid batches.

All routines act on arrays of shape (..., r, c) with small r, c (at most 4)
and are deterministic: no randomized algorithms, no thread-dependent
reductions. numpy's `@` and `np.linalg.inv` handle a stack of tiny matrices
one matrix at a time; the kernels here run each step over the whole batch
at once.

Kernel contract:

* mm(a, b) sums the broadcast column-times-row products
  a[..., :, k:k+1] * b[..., k:k+1, :] over k = 0..c-1 in that order, so its
  result is fixed by that order and numpy's elementwise arithmetic, not by
  a BLAS;
* inv uses a closed form for r <= 3 (1/m, then the adjugate over the
  determinant) and np.linalg.inv for r = 4; a block whose determinant is
  exactly zero raises np.linalg.LinAlgError, as np.linalg.inv does;
* expm_batched is np.exp for r = 1 and a scaling-and-squaring Taylor
  method on top of mm for r >= 2;
* non-finite input propagates to non-finite output without a
  RuntimeWarning: flow runners detect blown-up steps from their output.
"""

from __future__ import annotations

import numpy as np

# blown-up inputs propagate silently; the callers test the output
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the trailing two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (broadcast) stacks of small matrices, a (..., r, c) and
    b (..., c, s): the column-times-row products summed over k in order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if b.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix blocks do not compose: {a.shape[-2:]} @ {b.shape[-2:]}")
    with np.errstate(**_QUIET):
        out = a[..., :, 0:1] * b[..., 0:1, :]
        for k in range(1, a.shape[-1]):
            out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def _det_and_adjugate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and adjugate of 2x2 or 3x3 blocks."""
    if m.shape[-1] == 2:
        a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        adj = np.stack([d, -b, -c, a], axis=-1).reshape(m.shape)
        return a * d - b * c, adj
    # rows of the adjugate are the cross products of the columns
    c0, c1, c2 = m[..., :, 0], m[..., :, 1], m[..., :, 2]
    adj = np.stack([np.cross(c1, c2), np.cross(c2, c0), np.cross(c0, c1)], axis=-2)
    det = c0[..., 0] * adj[..., 0, 0] + c0[..., 1] * adj[..., 0, 1] \
        + c0[..., 2] * adj[..., 0, 2]
    return det, adj


def inv(m: np.ndarray) -> np.ndarray:
    """Inverse of every block: closed form for r <= 3, LAPACK for r = 4."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise np.linalg.LinAlgError("last 2 dimensions of the array must be square")
    r = m.shape[-1]
    if r > 3:
        return np.linalg.inv(m)
    with np.errstate(**_QUIET):
        if r == 1:
            det, adj = m[..., 0, 0], np.ones_like(m)
        else:
            det, adj = _det_and_adjugate(m)
        if np.any(det == 0):
            raise np.linalg.LinAlgError("Singular matrix")
        return adj / det[..., None, None]


def expm_batched(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    np.exp at r = 1. Accurate to ~1e-14 for the well-conditioned small
    matrices produced by the flows (Hermitian up to discretization noise,
    moderate norm).
    """
    m = np.asarray(m, dtype=np.complex128)
    with np.errstate(**_QUIET):
        if m.shape[-1] == 1:
            # an overflowed entry becomes NaN: arithmetic on NaN stays
            # quiet, on inf it can warn (0 * inf)
            out = np.exp(m)
            out[~np.isfinite(out)] = np.nan
            return out
        norm = np.linalg.norm(m, axis=(-2, -1)).max() if m.size else 0.0
        if not np.isfinite(norm):
            return np.full_like(m, np.nan)
        # scale so the Taylor argument has norm <= 0.25
        s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25)))) \
            if norm > 0.25 else 0
        a = m / (2.0**s)
        eye = np.eye(m.shape[-1], dtype=np.complex128)
        term = a
        out = eye + a
        for k in range(2, 15):
            term = mm(term, a) / k
            out = out + term
        for _ in range(s):
            out = mm(out, out)
    return out


def sqrtm_hpd(m: np.ndarray) -> np.ndarray:
    """Principal square root of Hermitian positive-definite matrices."""
    w, v = np.linalg.eigh(hermitize(m))
    if np.any(w <= 0):
        raise ValueError("matrix not positive definite: min eigenvalue "
                         f"{w.min():.3e}")
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def min_eigvalsh(m: np.ndarray) -> float:
    """Smallest eigenvalue over the whole batch of Hermitian matrices."""
    return float(np.linalg.eigvalsh(hermitize(m)).min())


def trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)
