"""Loading and factor estimation for tensor factor models.

Model: X_t = F_t x_1 A_1 ... x_K A_K + E_t with loadings normalized so
A_k.T @ A_k / p_k = I.  Estimation alternates over modes: project the series
onto the other modes' current loadings, form the projected covariance, and
take its leading eigenvectors.  The robust variant down-weights slices whose
residual scale exceeds a threshold tau before averaging the covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eig import sym_eig
from .metrics import _basis_distance
from .tensor import (
    _check_dims,
    _check_ranks,
    _ints,
    _real,
    _time_blocks,
    series_mode_product,
    series_multi_mode_product,
)

_METHODS = ("ls", "huber")


class NumericalError(ValueError):
    """Non-finite values encountered in data or intermediate results."""


def _check_loading(a: np.ndarray, name: str) -> None:
    """Refuse, naming ``name``, a loading that is not a matrix with A.T A / p = I."""
    if a.ndim != 2:
        raise ValueError(f"{name} is not a matrix")
    if not np.max(np.abs(a.T @ a / a.shape[0] - np.eye(a.shape[1]))) <= 1e-8:  # NaN fails too
        raise ValueError(f"{name} violates the normalization A.T A / p = I")


@dataclass(frozen=True)
class LoadingSet:
    """One loading matrix per mode, each satisfying A_k.T @ A_k / p_k = I."""

    mats: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(np.asarray(a, dtype=float) for a in self.mats))
        for k, a in enumerate(self.mats):
            _check_loading(a, f"loading {k}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(a.shape[0] for a in self.mats)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(a.shape[1] for a in self.mats)


class _SweepSettings:
    """What :class:`EstimationConfig` and ``ranks.RankConfig`` share: the
    ``method``, ``max_iter`` and ``tau`` checks and the ``robust`` flag."""

    def _check_sweep_settings(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "max_iter", *_ints((self.max_iter,), "max_iter", 1))
        if self.tau != "median":
            if isinstance(self.tau, str):
                raise ValueError(f"tau must be 'median' or a positive number, got {self.tau!r}")
            object.__setattr__(self, "tau", _real(self.tau, "fixed tau", 0, strict=True))

    @property
    def robust(self) -> bool:
        return self.method == "huber"


@dataclass(frozen=True)
class EstimationConfig(_SweepSettings):
    """Settings for :func:`fit`.

    method: "ls" (least squares) or "huber" (robust weighting).
    tau: "median" resolves the robust threshold from the initial estimator's
    residual scales; a positive float fixes it.
    """

    ranks: tuple[int, ...]
    method: str = "ls"
    tau: float | str = "median"
    max_iter: int = 100
    tol: float = 1e-6
    record_diagnostics: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ranks", _check_dims(self.ranks, "ranks"))
        self._check_sweep_settings()
        object.__setattr__(self, "tol", _real(self.tol, "tol", 0))


@dataclass
class EstimationResult:
    loadings: LoadingSet
    factors: np.ndarray
    iterations_run: int
    per_iteration_subspace_change: list[float]
    converged: bool
    tau_used: float | None
    diagnostics: dict | None = None


def _as_series(x: np.ndarray) -> np.ndarray:
    """The series, shape-checked and C-contiguous so that mode products never
    copy it; O(1) on a C-ordered float series.  The values are checked by the
    first reduction over them, or by :func:`_check_series` where none comes first."""
    xs = np.ascontiguousarray(x, dtype=float)
    if xs.ndim < 2:
        raise ValueError("expected a series of tensors with time on the leading axis")
    if xs.shape[0] < 1:
        raise ValueError("series must contain at least one slice")
    return xs


def _check_series(x: np.ndarray) -> np.ndarray:
    """:func:`_as_series` after a full scan for non-finite values."""
    xs = _as_series(x)
    if not np.isfinite(xs).all():
        raise NumericalError("non-finite values in input series")
    return xs


def initial_estimator(x: np.ndarray, ranks) -> LoadingSet:
    """Per-mode loadings from the unprojected sample covariances.

    A_k = sqrt(p_k) x leading r_k eigenvectors of
    sum_t unfold(X_t, k) @ unfold(X_t, k).T / (T p), summed over time blocks
    by :func:`_gram` without a copy of the series.  Each value enters the
    mode-0 diagonal squared, where no BLAS skips or cancels it, so the finite
    check on the summed covariances rejects a non-finite series.
    """
    xs = _as_series(x)
    dims = xs.shape[1:]
    ranks = _check_ranks(dims, ranks)
    mats = []
    for k, r in enumerate(ranks):
        pair = sym_eig(_gram(xs, k) / xs.size, count=r)
        mats.append(math.sqrt(dims[k]) * pair.vectors)
    return LoadingSet(tuple(mats))


def _gram(ys: np.ndarray, k: int, weights=None) -> np.ndarray:
    """sum_t w_t unfold(Y_t, k) unfold(Y_t, k).T over a (T, q_1, ..., q_K)
    series (w_t = 1 when ``weights`` is None), summed in block order over
    :func:`_time_blocks`, one GEMM per block on its sqrt(w)-scaled mode-k
    fibres.  A Gram does not depend on the column order, so the fibres come
    from reshapes of C-ordered ``ys``: a view when mode k is trailing, a copy
    of one block otherwise, never of the series."""
    q_k, trail = ys.shape[k + 1], math.prod(ys.shape[k + 2:])
    m = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _time_blocks(len(ys), ys.shape[1:]):
            y = ys[lo:hi]
            if weights is not None:
                y = y * np.sqrt(weights[lo:hi]).reshape(-1, *[1] * (ys.ndim - 1))
            u = y.reshape(-1, q_k, trail).swapaxes(0, 1).reshape(q_k, -1)
            m = m + u @ u.T
    if not np.isfinite(m).all():
        raise NumericalError("non-finite values in input series or overflow in its covariance")
    return m


# Slices whose projected energy reaches this share of ||X_t||^2 lose too many
# digits in ||X_t||^2 - ||core_t||^2 / p and get the direct residual instead.
_DIRECT_SHARE = 1.0 - 1e-4
# A value within this many ulps of its reference size is rounding noise and
# is set to exactly 0: a residual scale against ||X_t|| / sqrt(p), an
# eigenvalue in rank selection against n_values * lambda_1.
_ZERO_ULPS = 64


def _scales_from_core(xs, mats, xnorm2, core) -> np.ndarray:
    """:func:`residual_scales` from ||X_t||^2 and core_t, X_t contracted with
    the transpose of every loading in ``mats``."""
    p = math.prod(xs.shape[1:])
    cflat = core.reshape(len(core), -1)
    cnorm2 = np.einsum("ti,ti->t", cflat, cflat)
    s = np.sqrt(np.maximum(xnorm2 - cnorm2 / p, 0.0) / p)
    direct = cnorm2 / p >= _DIRECT_SHARE * xnorm2
    if direct.any():
        resid = (xs[direct] - series_multi_mode_product(core[direct], mats) / p).reshape(-1, p)
        s_direct = np.sqrt(np.einsum("ti,ti->t", resid, resid) / p)
        floor = _ZERO_ULPS * np.finfo(float).eps * np.sqrt(xnorm2[direct] / p)
        s[direct] = np.where(s_direct <= floor, 0.0, s_direct)
    if not (np.isfinite(s).all() and np.isfinite(xnorm2).all()):
        raise NumericalError("non-finite residual scale")
    return s


def residual_scales(x: np.ndarray, loadings: LoadingSet) -> np.ndarray:
    """Per-slice residual scale ||X_t - X_t projected onto the loadings||_F / sqrt(p).

    Computed through the trace identity ||X_t||^2 - ||core_t||^2 / p without
    materializing the residual, except on slices whose projected energy is at
    least (1 - 1e-4) ||X_t||^2: there the identity cancels catastrophically and
    the residual X_t - S_t is formed directly.  A scale at or below
    64 eps ||X_t|| / sqrt(p) is rounding noise and is returned as exactly 0, so
    exactly low-rank slices have zero scale on any BLAS.
    """
    xs = _as_series(x)
    flat = xs.reshape(xs.shape[0], -1)
    xnorm2 = np.einsum("ti,ti->t", flat, flat)
    if not np.isfinite(xnorm2).all():
        raise NumericalError("non-finite values in input series or overflow in its slice norms")
    core = series_multi_mode_product(xs, loadings.mats, transpose=True)
    return _scales_from_core(xs, loadings.mats, xnorm2, core)


def _weights_from_scales(s: np.ndarray, tau: float) -> np.ndarray:
    """1/2 on slices within the threshold, (tau/2)/s_t beyond it."""
    with np.errstate(divide="ignore"):
        return np.where(s <= tau, 0.5, 0.5 * tau / s)


def default_tau(x: np.ndarray, loadings: LoadingSet) -> float:
    """Median of the per-slice residual scales (the median rule).

    Exactly low-rank data have all-zero scales: :func:`residual_scales` takes
    the direct residual on such slices and returns 0 for any scale at or below
    64 eps ||X_t|| / sqrt(p).  When the median scale is zero the threshold
    falls back to a floor of 1e-12 and a RuntimeWarning is emitted.
    """
    med = float(np.median(residual_scales(x, loadings)))
    if med <= 0.0:
        warnings.warn("all residual scales are zero; tau floored at 1e-12", RuntimeWarning)
        return 1e-12
    return med


def extract_factors(x: np.ndarray, loadings: LoadingSet) -> np.ndarray:
    """Factor cores F_t = X_t x_1 A_1.T ... x_K A_K.T / p."""
    xs = _check_series(x)
    p = math.prod(xs.shape[1:])
    return series_multi_mode_product(xs, loadings.mats, transpose=True) / p


def common_components(loadings: LoadingSet, factors: np.ndarray) -> np.ndarray:
    """Reconstruction S_t = F_t x_1 A_1 ... x_K A_K."""
    return series_multi_mode_product(np.asarray(factors, dtype=float), loadings.mats)


def _sweep_cov(xs: np.ndarray, mats: list[np.ndarray], k: int, huber=None):
    """(sum_t w_t X_{k,t} B_k B_k.T X_{k,t}.T / (T p p_{-k}), w): the projected
    mode-k covariance of one sweep step, X_t contracted by the other modes'
    loadings in ``mats``.  With ``huber`` = (tau, ||X_t||^2), w holds the Huber
    weights of the residual scales under ``mats``; else w_t = 1, w None.
    """
    dims = xs.shape[1:]
    proj = xs
    for j in range(len(dims)):
        if j != k:
            proj = series_mode_product(proj, j, mats[j].T)
    w = None
    if huber is not None:
        core = series_mode_product(proj, k, mats[k].T)
        w = _weights_from_scales(_scales_from_core(xs, mats, huber[1], core), huber[0])
    return _gram(proj, k, w) / (xs.size * (xs[0].size // dims[k])), w


def _sweeps(xs: np.ndarray, ranks, config, keep):
    """The alternating projection that :func:`fit` and ``estimate_ranks`` run.

    Starts from :func:`initial_estimator` at ``ranks`` on the series ``xs``.
    Each sweep updates the modes in order: mode k's projection factor is built
    from the current sweep's loadings for modes before k and the previous
    sweep's for modes after k.  Under a robust ``config`` the slice weights w
    are recomputed from the previous mode-k loading and that mixed projection
    factor before each update, with tau from :func:`default_tau` at the
    initial estimator or the fixed value configured.  Mode k's new loading is
    sqrt(p_k) times the leading ``keep(k, eigenvalues)`` eigenvectors of the
    projected covariance.

    Yields (loadings before the sweep, loadings after it, tau or None, each
    mode's full :func:`sym_eig` pair, each mode's weights or None, each
    mode's ``keep`` count before slicing clamps it at p_k) once per sweep, at
    most ``config.max_iter`` times; the caller stops early by leaving the loop.
    """
    dims = xs.shape[1:]
    ie = initial_estimator(xs, ranks)
    mats = list(ie.mats)
    tau = huber = None
    if config.robust:
        tau = default_tau(xs, ie) if config.tau == "median" else config.tau
        flat = xs.reshape(len(xs), -1)
        huber = (tau, np.einsum("ti,ti->t", flat, flat))
    for _ in range(config.max_iter):
        prev, pairs, weights, counts = list(mats), [], [], []
        for k in range(len(dims)):
            m, w = _sweep_cov(xs, mats, k, huber)
            pairs.append(sym_eig(m))
            weights.append(w)
            counts.append(keep(k, pairs[k].values))
            mats[k] = math.sqrt(dims[k]) * pairs[k].vectors[:, :counts[k]]
        yield prev, mats, tau, pairs, weights, counts


def _subspace_change(a: np.ndarray, b: np.ndarray) -> float:
    """``metrics.subspace_distance`` between two loadings that satisfy
    A.T A / p_k = I, without its eigendecompositions: Q = A / sqrt(p_k) is
    already an orthonormal basis."""
    return _basis_distance(a / math.sqrt(a.shape[0]), b / math.sqrt(b.shape[0]))


def fit(x: np.ndarray, config: EstimationConfig) -> EstimationResult:
    """Alternating projection estimation of loadings and factors.

    Runs the sweeps of :func:`_sweeps`, keeping r_k eigenvectors per mode,
    until the largest per-mode subspace change between sweeps drops below
    ``config.tol`` (converged) or ``config.max_iter`` sweeps have run.  Warns
    once per mode whose projected covariance is rank-deficient at r_k.

    Returns
    -------
    EstimationResult
        With factors F_t = X_t x_1 A_1.T ... x_K A_K.T / p from the final
        loadings, and the resolved robust threshold in ``tau_used``.
    """
    xs = _as_series(x)
    rank_warnings: list[str] = []
    changes: list[float] = []
    for prev, mats, tau, pairs, weights, _ in _sweeps(xs, config.ranks, config,
                                                      lambda k, values: config.ranks[k]):
        for k, (pair, r) in enumerate(zip(pairs, config.ranks)):
            msg = f"rank-deficient projected covariance at mode {k}"
            deficient = pair.values[r - 1] <= 1e-14 * max(pair.values[0], 1e-300)
            if deficient and msg not in rank_warnings:
                rank_warnings.append(msg)
                warnings.warn(msg, RuntimeWarning)
        changes.append(max(_subspace_change(a, b) for a, b in zip(mats, prev)))
        if changes[-1] < config.tol:
            break

    loadings = LoadingSet(tuple(mats))
    diagnostics = None
    if config.record_diagnostics:
        eigenvalues = [pair.values[:r] for pair, r in zip(pairs, config.ranks)]
        diagnostics = {"warnings": rank_warnings, "eigenvalues": eigenvalues}
        if config.robust:
            diagnostics["weights"] = weights
    return EstimationResult(
        loadings=loadings,
        factors=extract_factors(xs, loadings),
        iterations_run=len(changes),
        per_iteration_subspace_change=changes,
        converged=changes[-1] < config.tol,
        tau_used=tau,
        diagnostics=diagnostics,
    )
