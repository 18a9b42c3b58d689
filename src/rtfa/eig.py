"""Symmetric eigendecomposition and varimax rotation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import _ints

# Relative asymmetry tolerated before sym_eig refuses the input.
_SYM_TOL = 1e-8


@dataclass(frozen=True)
class EigPair:
    """Eigenvalues (descending) with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each is nonnegative.

    Ties go to the first such entry (``argmax``'s rule); a zero column stays
    as it is.  Multiplying by -1.0 or 1.0 is exact, so only signs change."""
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0, -1.0, 1.0)


def sym_eig(m: np.ndarray, count: int | None = None) -> EigPair:
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    m : ndarray, square and symmetric (within 1e-8 relative tolerance;
        symmetrized as (M + M.T)/2 before decomposing).
    count : int, optional
        Keep only the leading ``count`` pairs.

    Returns
    -------
    EigPair
        Values sorted descending; vectors orthonormal, each column's
        largest-magnitude entry nonnegative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries in matrix")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    s = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(s)
    w = w[::-1]
    v = v[:, ::-1]
    v = _fix_signs(v)
    if count is not None:
        (count,) = _ints((count,), "count")
        if not 1 <= count <= m.shape[0]:
            raise ValueError(f"count {count} out of range for size {m.shape[0]}")
        w = w[:count]
        v = v[:, :count]
    return EigPair(np.ascontiguousarray(w), np.ascontiguousarray(v))


def varimax_criterion(a: np.ndarray) -> float:
    """Sum over columns of the variance of the squared loadings."""
    sq = np.square(np.asarray(a, dtype=float))
    return float(np.sum(np.var(sq, axis=0)))


def varimax(a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100):
    """Orthogonal rotation maximizing the varimax criterion.

    Cyclic pairwise rotations on the raw loadings (no row normalization);
    the criterion is non-decreasing across sweeps and iteration stops when a
    full sweep improves it by less than ``tol`` (or ``max_sweeps`` is hit).

    Returns
    -------
    (rotated, rotation)
        ``rotated = a @ rotation`` with ``rotation`` orthogonal.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries in loadings")
    (max_sweeps,) = _ints((max_sweeps,), "max_sweeps")
    p, r = a.shape
    rotation = np.eye(r)
    if r < 2:
        return a.copy(), rotation
    b = a.copy()
    crit = varimax_criterion(b)
    for _ in range(max_sweeps):
        before = crit
        for i in range(r - 1):
            for j in range(i + 1, r):
                x, y = b[:, i], b[:, j]
                u = x * x - y * y
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u * u - v * v).sum() - (su * su - sv * sv) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-15:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                pair_before = np.var(x * x) + np.var(y * y)
                xn = c * x + s * y
                yn = -s * x + c * y
                if np.var(xn * xn) + np.var(yn * yn) < pair_before:
                    continue  # tiny angles can lose to rounding; keep monotone
                b[:, i], b[:, j] = xn, yn
                gi = c * rotation[:, i] + s * rotation[:, j]
                gj = -s * rotation[:, i] + c * rotation[:, j]
                rotation[:, i], rotation[:, j] = gi, gj
        crit = varimax_criterion(b)
        if crit - before < tol:
            break
    return b, rotation
