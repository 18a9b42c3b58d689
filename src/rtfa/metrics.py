"""Evaluation quantities: subspace distance, reconstruction errors, rolling
validation, loading distances and complete-linkage clustering."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .eig import sym_eig
from .tensor import _ints


def orthonormal_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, via the eigenvectors of a.T @ a."""
    a = np.asarray(a, dtype=float)
    pair = sym_eig(a.T @ a)
    lead = max(pair.values[0], 0.0)
    if pair.values[-1] <= 1e-12 * max(lead, 1e-300):
        raise ValueError("rank-deficient input: column space is degenerate")
    return a @ (pair.vectors / np.sqrt(pair.values))


def subspace_distance(a_hat: np.ndarray, a_true: np.ndarray) -> float:
    """Distance in [0, 1] between the column spaces of two p x r matrices.

    0 when the spans coincide, 1 when they are orthogonal.  Basis-free: any
    right-multiplication by a nonsingular matrix leaves the value unchanged.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    a_true = np.asarray(a_true, dtype=float)
    if a_hat.shape != a_true.shape:
        raise ValueError(f"shape mismatch: {a_hat.shape} vs {a_true.shape}")
    return _basis_distance(orthonormal_basis(a_hat), orthonormal_basis(a_true))


def _basis_distance(qa: np.ndarray, qb: np.ndarray) -> float:
    """:func:`subspace_distance` between the spans of two orthonormal p x r bases."""
    # ||P_a - P_b||_F^2 / (2r) equals 1 - tr(P_a P_b)/r but stays accurate
    # near zero (sums of tiny squares instead of cancelling subtraction).
    val = np.sum(np.square(qa @ qa.T - qb @ qb.T)) / (2 * qa.shape[1])
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


def mse_common(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared entry error: sum_t ||est_t - truth_t||_F^2 / (T p)."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    err = est - truth
    return float(np.mean(np.square(err, out=err)))


def relative_mse(x: np.ndarray, s_hat: np.ndarray) -> float:
    """sum_t ||x_t - s_hat_t||_F^2 / sum_t ||x_t||_F^2."""
    x = np.asarray(x, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    if x.shape != s_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {s_hat.shape}")
    den = float(np.sum(np.square(x)))
    if den <= 0.0:
        raise ValueError("zero data: relative error undefined")
    diff = x - s_hat
    return float(np.sum(np.square(diff, out=diff)) / den)


def rolling_validation(x: np.ndarray, window_years: int, period_length: int, est) -> list[float]:
    """Out-of-sample reconstruction error over rolling blocks.

    The series is scored in consecutive blocks of ``period_length`` slices.
    For each block, loadings are fit on the ``window_years * period_length``
    slices immediately before it, held fixed, and the block's factors and
    reconstruction are computed with them; the block's relative MSE is
    returned.  A trailing partial block is dropped.
    """
    from .estimation import common_components, extract_factors, fit

    x = np.asarray(x, dtype=float)
    t_len = x.shape[0]
    window_years, period_length = _ints((window_years, period_length),
                                        "window_years and period_length", 1)
    window = window_years * period_length
    if window + period_length > t_len:
        raise ValueError(f"window of {window} slices plus one block exceeds T={t_len}")
    out = []
    for start in range(window, t_len - period_length + 1, period_length):
        result = fit(x[start - window:start], est)
        block = x[start:start + period_length]
        factors = extract_factors(block, result.loadings)
        s_hat = common_components(result.loadings, factors)
        out.append(relative_mse(block, s_hat))
    return out


def loading_distance_matrix(a: np.ndarray) -> np.ndarray:
    """Pairwise distances between the p entities' loading vectors.

    Each of the r coordinates is standardized by its sample variance across
    entities; zero-variance coordinates are dropped with a warning.  Raises
    ValueError on a non-finite loading.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a p x r loading matrix")
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries in loading matrix")
    var = a.var(axis=0, ddof=1)
    keep = var > 0
    if not keep.any():
        raise ValueError("all loading coordinates have zero variance")
    if not keep.all():
        warnings.warn(f"dropping {int((~keep).sum())} zero-variance coordinate(s)")
    z = a[:, keep] / np.sqrt(var[keep])
    diff = z[:, None, :] - z[None, :, :]
    return np.sqrt(np.sum(np.square(diff), axis=-1))


@dataclass
class ClusterTree:
    """Agglomerative merge history: (cluster_a, cluster_b, height) triples.

    Leaves are labelled 0..n-1; the cluster created by merge i gets label n+i.
    """

    merges: list[tuple[int, int, float]]
    labels: list[int] = field(default_factory=list)


def complete_linkage(d: np.ndarray) -> ClusterTree:
    """Agglomerative clustering with max-pairwise (complete) linkage.

    Each merge joins the two active clusters at the smallest linkage height;
    among tied pairs the lowest (u, v) by label wins, u < v.  Heights are
    updated by the Lance-Williams rule for complete linkage: the merged
    cluster's distance to any other is the larger of its two parts', so every
    height is exactly a maximum of entries of ``d``.  O(n^2) memory, one row
    update per merge.

    ``d`` must be square, finite and symmetric within 1e-12 of its largest
    magnitude; its upper triangle is used.  Raises ValueError otherwise.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(d).all():
        raise ValueError("non-finite entries in distance matrix")
    scale = max(1.0, float(np.max(np.abs(d)))) if d.size else 1.0
    if float(np.max(np.abs(d - d.T), initial=0.0)) > 1e-12 * scale:
        raise ValueError("distance matrix must be symmetric")
    n = d.shape[0]
    # Slot i holds the active cluster labelled label[i]; the diagonal and
    # merged-away slots are +inf, so they never attain a row minimum.
    dist = np.where(np.tri(n, k=-1, dtype=bool), d.T, d)
    np.fill_diagonal(dist, np.inf)
    label = np.arange(n)
    row_min = dist.min(axis=1, initial=np.inf)
    merges: list[tuple[int, int, float]] = []
    for step in range(n - 1):
        h = row_min.min()
        # The rows attaining h are exactly the endpoints of the tied pairs, so
        # u is the lowest label among them and v its lowest-labelled partner.
        tied = np.flatnonzero(row_min == h)
        a = tied[np.argmin(label[tied])]
        partners = np.flatnonzero(dist[a] == h)
        b = partners[np.argmin(label[partners])]
        merges.append((int(label[a]), int(label[b]), float(h)))
        merged = np.maximum(dist[a], dist[b])  # +inf at a and b themselves
        # Column a rises to ``merged`` and column b to +inf, so a row minimum
        # can only rise, and only where it sat in column a or b and ``merged``
        # exceeds it; recompute those rows.  This leaves out merged-away rows,
        # whose minimum is +inf.
        sat = (dist[:, a] == row_min) | (dist[:, b] == row_min)
        stale = np.flatnonzero(sat & (merged > row_min))
        dist[a] = merged
        dist[:, a] = merged
        dist[b] = np.inf
        dist[:, b] = np.inf
        label[a] = n + step
        row_min[stale] = dist[stale].min(axis=1)
    return ClusterTree(merges, labels=list(range(n)))
