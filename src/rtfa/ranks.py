"""Rank selection via penalized eigenvalue ratios along the alternating
projection path (least-squares or robustly weighted)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimation import _ZERO_ULPS, _as_series, _sweeps, _SweepSettings
from .tensor import _check_dims, _ints, _real

_REGIMES = ("ge2", "lt2")


@dataclass(frozen=True)
class RankConfig(_SweepSettings):
    """Settings for :func:`estimate_ranks`.

    epsilon_regime picks the rate constant entering the robust-path penalty:
    "ge2" uses L_star, "lt2" uses L_star_star (the noise-tail regime is not
    identifiable from data, so it is a user choice).
    """

    r_max: int = 8
    c: float = 0.0
    method: str = "ls"
    epsilon_regime: str = "ge2"
    max_iter: int = 20
    tau: float | str = "median"

    def __post_init__(self):
        object.__setattr__(self, "r_max", *_ints((self.r_max,), "r_max", 1))
        object.__setattr__(self, "c", _real(self.c, "c", 0))
        if self.epsilon_regime not in _REGIMES:
            raise ValueError(f"unknown epsilon_regime {self.epsilon_regime!r}")
        self._check_sweep_settings()


@dataclass(frozen=True)
class RateConstants:
    """Sample-size rate minima used in the selection penalties."""

    L: int
    L_star: int
    L_star_star: int
    omega: tuple[int, ...]


def rate_constants(dims, T: int) -> RateConstants:
    """Exact integer minima for the given dimensions and series length."""
    dims = _check_dims(dims)
    (T,) = _ints((T,), "T", 1)
    p = math.prod(dims)
    p_rest = [p // d for d in dims]
    L = min(p, *(T * q for q in p_rest))
    L_star = min(p, *(q * q for q in p_rest), *(T * q for q in p_rest))
    L_star_star = min(p_rest)
    omega = tuple(min(d * T, q * q, L) for d, q in zip(dims, p_rest))
    return RateConstants(L=L, L_star=L_star, L_star_star=L_star_star, omega=omega)


def eigenvalue_ratio_pick(values, penalty: float, r_max: int) -> int:
    """argmax over j <= r_max of values[j] / (values[j+1] + penalty), 1-based.

    Ties break toward the smallest j.  ``values`` must be finite, non-increasing
    and nonnegative, and supply at least r_max + 1 entries.  Values at or below
    64 eps len(values) values[0] are set to exactly 0 first, so the pick does
    not depend on the sign or size of rounding noise: with zero penalty a
    ratio values[j] / 0 is +inf when values[j] > 0 and 0 / 0 counts as -inf.
    """
    (r_max,) = _ints((r_max,), "r_max", 1)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < r_max + 1:
        raise ValueError(f"need at least {r_max + 1} eigenvalues, got {v.size}")
    penalty = _real(penalty, "penalty", 0)
    scale = max(v[0], 1.0)
    if not np.isfinite(v).all() or v.min() < -1e-12 * scale or np.diff(v).max() > 1e-12 * scale:
        raise ValueError("values must be finite, non-increasing and nonnegative")
    v = np.where(v <= _ZERO_ULPS * np.finfo(float).eps * v.size * max(v[0], 0.0), 0.0, v)
    num = v[:r_max]
    den = v[1:r_max + 1] + penalty
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    ratios = np.where(np.isnan(ratios), -np.inf, ratios)
    return int(np.argmax(ratios)) + 1


@dataclass
class RankResult:
    """Selected ranks plus the iteration trace."""

    ranks: tuple[int, ...]
    iterations: list[tuple[int, ...]]
    converged: bool
    eigenvalues: tuple[np.ndarray, ...]
    warnings: list[str] = field(default_factory=list)


def estimate_ranks(x: np.ndarray, config: RankConfig) -> RankResult:
    """Iterative penalized eigenvalue-ratio selection of (r_1, ..., r_K).

    Runs the sweeps of ``estimation._sweeps`` from the initial estimator at
    r_max columns per mode.  In each sweep, mode k's rank r_hat is picked by
    :func:`eigenvalue_ratio_pick` from the full spectrum of its projected
    covariance, and its loading keeps r_hat + 2 eigenvectors (at most p_k).
    Stops when the integer rank vector repeats or after ``max_iter`` sweeps.

    The penalty is c * omega_k^(-1/2) on the least-squares path and
    c * L~^(-1/2) on the robust path, with L~ chosen by epsilon_regime.

    Unlike ``fit`` it never warns on a rank-deficient projected covariance: the
    ratio rule handles a zero tail by design.  Notes go to ``RankResult.warnings``.
    """
    xs = _as_series(x)
    dims = xs.shape[1:]

    notes: list[str] = []
    r_cap = []
    for k, p_k in enumerate(dims):
        cap = min(config.r_max, p_k - 1)
        if cap < 1:
            raise ValueError(f"mode {k} has size {p_k}; cannot form an eigenvalue ratio")
        if cap < config.r_max:
            notes.append(f"mode {k}: ratio search capped at {cap} (p_k={p_k})")
        r_cap.append(cap)

    rc = rate_constants(dims, xs.shape[0])
    if config.robust:
        l_tilde = rc.L_star if config.epsilon_regime == "ge2" else rc.L_star_star
        penalties = [config.c / math.sqrt(l_tilde)] * len(dims)
    else:
        penalties = [config.c / math.sqrt(w) for w in rc.omega]

    def keep(k, values):
        return eigenvalue_ratio_pick(values, penalties[k], r_cap[k]) + 2

    history: list[tuple[int, ...]] = [(config.r_max,) * len(dims)]
    converged = False
    start = tuple(min(config.r_max, d) for d in dims)
    for *_, pairs, _, counts in _sweeps(xs, start, config, keep):
        history.append(tuple(count - 2 for count in counts))
        for k, count in enumerate(counts):
            note = f"mode {k}: eigenvector inflation clamped at p_k={dims[k]}"
            if count > dims[k] and note not in notes:
                notes.append(note)
        if history[-1] == history[-2]:
            converged = True
            break
    return RankResult(
        ranks=history[-1],
        iterations=history,
        converged=converged,
        eigenvalues=tuple(pair.values for pair in pairs),
        warnings=notes,
    )
