"""Data-generating process and the Monte-Carlo replication engine.

Factors and noise both follow stationary AR(1) recursions on the vectorized
slices; the noise innovation has a Kronecker-structured covariance (ones on
the diagonal, 1/p_k off-diagonal per mode) and is optionally heavy-tailed via
a per-slice t mixing variable.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .estimation import (
    EstimationConfig,
    LoadingSet,
    common_components,
    fit,
)
from .metrics import _mse, orthonormal_basis, subspace_distance
from .ranks import RankConfig, estimate_ranks
from .tensor import _ints, _time_blocks, series_multi_mode_product

_NOISE_LAWS = {"tensor_normal", "tensor_t"}


# The rules below check the design once, for DgpConfig and the draws alike.
def _check_dims(dims, what: str = "dims") -> tuple[int, ...]:
    dims = _ints(dims, what)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"{what} must be non-empty and positive")
    return dims


def _check_ranks(dims, ranks) -> tuple[int, ...]:
    ranks = _ints(ranks, "ranks")
    if len(ranks) != len(dims):
        raise ValueError("ranks and dims must have the same length")
    if any(not 1 <= r <= d for r, d in zip(ranks, dims)):
        raise ValueError("each rank must satisfy 1 <= r_k <= p_k")
    return ranks


def _check_length(T, burn_in) -> tuple[int, int]:
    T, burn_in = _ints((T, burn_in), "T and burn_in")
    if T < 1:
        raise ValueError("T must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    return T, burn_in


def _check_ar(name: str, coef: float) -> None:
    if not abs(coef) < 1:
        raise ValueError(f"|{name}| must be < 1")


def _check_noise_law(law: str, dof: float) -> None:
    if law not in _NOISE_LAWS:
        raise ValueError(f"unknown noise law {law!r}")
    if law == "tensor_t" and not dof > 2:
        raise ValueError("t_dof must exceed 2 so the noise variance exists")


@dataclass(frozen=True)
class DgpConfig:
    """Simulation design.  Noiseless data are a dataset's ``true_common``."""

    dims: tuple[int, ...]
    T: int
    ranks: tuple[int, ...] = (3, 3, 3)
    phi: float = 0.1
    psi: float = 0.1
    noise_law: str = "tensor_normal"
    t_dof: float = 3.0
    seed: int = 0
    burn_in: int = 100

    def __post_init__(self):
        _check_length(self.T, self.burn_in)
        object.__setattr__(self, "dims", _check_dims(self.dims))
        object.__setattr__(self, "ranks", _check_ranks(self.dims, self.ranks))
        _check_ar("phi", self.phi)
        _check_ar("psi", self.psi)
        _check_noise_law(self.noise_law, self.t_dof)


@dataclass(frozen=True)
class SimulatedDataset:
    observations: np.ndarray
    true_loadings: LoadingSet
    true_factors: np.ndarray
    true_common: np.ndarray
    noise: np.ndarray


def replication_rng(seed: int, rep: int | None = None) -> np.random.Generator:
    """Deterministic stream derivation: rep i uses SeedSequence(seed, spawn_key=(i,))."""
    if rep is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_ints((rep,), "rep")))


def gen_loadings(dims, ranks, rng: np.random.Generator):
    """Raw uniform(-1, 1) loadings plus a normalized representative.

    The raw matrices drive data generation; the normalized LoadingSet spans
    the same column spaces and satisfies A.T A / p = I for use wherever the
    normalization invariant is required.
    """
    dims = _check_dims(dims)
    ranks = _check_ranks(dims, ranks)
    raw = tuple(rng.uniform(-1.0, 1.0, size=(d, r)) for d, r in zip(dims, ranks))
    normalized = LoadingSet(
        tuple(math.sqrt(a.shape[0]) * orthonormal_basis(a) for a in raw)
    )
    return raw, normalized


def gen_factors(ranks, T: int, phi: float, rng: np.random.Generator, burn_in: int = 100) -> np.ndarray:
    """Stationary AR(1) factor cores with unit per-coordinate variance."""
    _check_ar("phi", phi)
    shape = _check_dims(ranks, "ranks")
    T, burn_in = _check_length(T, burn_in)
    n = burn_in + T
    eps = rng.standard_normal(size=(n + 1, *shape))
    out = np.empty_like(eps)
    out[0] = eps[0]
    scale = math.sqrt(1.0 - phi * phi)
    for i in range(1, n + 1):
        out[i] = phi * out[i - 1] + scale * eps[i]
    return out[n - T + 1:]


def _kron_factor_chols(dims) -> list[np.ndarray]:
    """Cholesky factor of each per-mode covariance (1 diagonal, 1/p_k off)."""
    chols = []
    for p_k in dims:
        sigma = np.full((p_k, p_k), 1.0 / p_k)
        np.fill_diagonal(sigma, 1.0)
        chols.append(np.linalg.cholesky(sigma))
    return chols


def gen_noise(
    dims,
    T: int,
    psi: float,
    rng: np.random.Generator,
    law: str = "tensor_normal",
    dof: float = 3.0,
    burn_in: int = 100,
) -> np.ndarray:
    """Stationary AR(1) noise with Kronecker-structured innovation covariance.

    Innovations are tensor-normal (mode-wise Cholesky of the per-mode
    covariances); under law "tensor_t" each innovation slice is additionally
    divided by sqrt(chi2(dof)/dof), one mixing draw per slice.

    The burn_in + T + 1 standard normals come first in the stream, then the
    mixing draws.  The result is a compact (T, p_1, ..., p_K) array,
    bit-identical to the same steps run over the whole series at once.
    """
    _check_noise_law(law, dof)
    _check_ar("psi", psi)
    dims = _check_dims(dims)
    T, burn_in = _check_length(T, burn_in)
    n = burn_in + T
    first = n + 1 - T  # the first retained slice
    # Two calls draw the same stream as one call for all n + 1 slices.
    burn = rng.standard_normal(size=(first, *dims))
    out = rng.standard_normal(size=(T, *dims))
    mix = None
    if law == "tensor_t":
        mix = np.sqrt(rng.chisquare(dof, size=n + 1) / dof).reshape((n + 1,) + (1,) * len(dims))
    chols = _kron_factor_chols(dims)
    scale = math.sqrt(1.0 - psi * psi)
    prev = None
    for lo, hi in _time_blocks(n + 1, dims):
        if hi <= first:
            z = burn[lo:hi]
        elif lo >= first:
            z = out[lo - first:hi - first]
        else:  # the block straddles the two arrays
            z = np.concatenate((burn[lo:], out[:hi - first]))
        u = series_multi_mode_product(z, chols)
        if mix is not None:
            u /= mix[lo:hi]
        for cur in u:
            if prev is not None:  # slice 0 starts the recursion unscaled
                cur *= scale
                cur += psi * prev
            prev = cur
        keep = max(lo, first)
        if hi > keep:
            out[keep - first:hi - first] = u[keep - lo:]
    return out


def _draw(config: DgpConfig, rng: np.random.Generator):
    """One replication's draws, in their fixed order: loadings, factors, noise.

    Returns the raw loadings, their normalized representative, the factor
    cores and the noise series.  The common part draws nothing, so callers
    form it from (cores, raw) after the noise, whose working buffers are then
    already freed.
    """
    raw, normalized = gen_loadings(config.dims, config.ranks, rng)
    cores = gen_factors(config.ranks, config.T, config.phi, rng, config.burn_in)
    noise = gen_noise(
        config.dims,
        config.T,
        config.psi,
        rng,
        law=config.noise_law,
        dof=config.t_dof,
        burn_in=config.burn_in,
    )
    return raw, normalized, cores, noise


def gen_dataset(config: DgpConfig, rng: np.random.Generator | None = None) -> SimulatedDataset:
    """Draw one dataset. Draw order is fixed: loadings, factors, noise.

    Observations are common components plus noise, where the common component
    uses the raw loadings; the stored loading/factor truth is the normalized
    representative of the same fit (identical column spaces and identical
    common components).  The common component draws nothing, so forming it
    after the noise gives the same draws as forming it first.  The Monte
    Carlo engine shares these draws but keeps fewer of the fields: see
    :func:`run_monte_carlo`.
    """
    if rng is None:
        rng = replication_rng(config.seed)
    raw, normalized, cores, noise = _draw(config, rng)
    common = series_multi_mode_product(cores, raw)
    transforms = [n.T @ a / n.shape[0] for n, a in zip(normalized.mats, raw)]
    true_factors = series_multi_mode_product(cores, transforms)
    return SimulatedDataset(
        observations=common + noise,
        true_loadings=normalized,
        true_factors=true_factors,
        true_common=common,
        noise=noise,
    )


# --- Monte-Carlo engine -------------------------------------------------------

Row = tuple[int, Union[int, None], str, float]


@dataclass
class MonteCarloResult:
    """Per-replication rows (rep, mode, metric, value) and (metric, mean, sd) aggregates."""

    rows: list[Row]
    aggregate: list[tuple[str, float, float]]


def _replication_rows(task) -> list[list[Row]]:
    """One replication's rows for each config in ``ests``, from one draw."""
    dgp, ests, rep = task
    raw, truth, cores, x = _draw(dgp, replication_rng(dgp.seed, rep))
    blocks = _time_blocks(dgp.T, dgp.dims)
    # The observations, formed over the noise: IEEE addition commutes, so the
    # bits are those of common + noise.
    for lo, hi in blocks:
        x[lo:hi] += series_multi_mode_product(cores[lo:hi], raw)
    results = [estimate_ranks(x, est) if isinstance(est, RankConfig) else fit(x, est)
               for est in ests]
    # Every estimator has returned: the observation buffer is spent, and takes
    # each fit's error against the common part in turn.
    err = x
    del x
    per_est: list[list[Row]] = []
    for est, result in zip(ests, results):
        if isinstance(est, RankConfig):
            rows = [(rep, k + 1, "rank", float(r)) for k, r in enumerate(result.ranks)]
            rows.append((rep, None, "exact", 1.0 if result.ranks == dgp.ranks else 0.0))
        else:
            rows = [(rep, k + 1, "distance", subspace_distance(a_hat, a))
                    for k, (a_hat, a) in enumerate(zip(result.loadings.mats, truth.mats))]
            for lo, hi in blocks:
                err[lo:hi] = common_components(result.loadings, result.factors[lo:hi])
                err[lo:hi] -= series_multi_mode_product(cores[lo:hi], raw)
            rows.append((rep, None, "mse", _mse(err)))
        per_est.append(rows)
    return per_est


def _aggregate(rows: list[Row]) -> MonteCarloResult:
    grouped: dict[tuple[str, int | None], list[float]] = {}
    for rep, mode, metric, value in rows:
        grouped.setdefault((metric, mode), []).append(value)
    aggregate = []
    for (metric, mode), values in grouped.items():
        vals = np.asarray(values)
        name = metric if mode is None else f"{metric}_mode{mode}"
        sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        aggregate.append((name, float(vals.mean()), sd))
    return MonteCarloResult(rows=rows, aggregate=aggregate)


def run_monte_carlo(
    dgp: DgpConfig,
    est: EstimationConfig | RankConfig | Sequence[EstimationConfig | RankConfig],
    reps: int,
    workers: int = 1,
) -> MonteCarloResult | list[MonteCarloResult]:
    """Replicated simulation and estimation with per-replication RNG streams.

    Replication i draws its dataset from replication_rng(dgp.seed, i), so the
    result is bit-identical for any ``workers`` count; records are reduced in
    replication order.

    ``est`` is one config, giving one :class:`MonteCarloResult`, or a
    non-empty sequence of configs, giving one result per config in the same
    order.  A sequence draws each replication once and runs every config on
    that draw; each result equals the one its config gives alone.

    ``reps`` and ``workers`` must be integers; ``workers <= 1`` runs serially.
    """
    if not isinstance(reps, numbers.Integral) or reps < 1:
        raise ValueError("reps must be an integer >= 1")
    if not isinstance(workers, numbers.Integral):
        raise ValueError("workers must be an integer")
    single = isinstance(est, (EstimationConfig, RankConfig))
    ests = (est,) if single else tuple(est)
    if not ests:
        raise ValueError("need at least one estimation or rank config")
    tasks = [(dgp, ests, rep) for rep in range(reps)]
    if workers <= 1:
        per_rep = [_replication_rows(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_replication_rows, tasks))
    results = [
        _aggregate([row for rep_rows in per_rep for row in rep_rows[i]])
        for i in range(len(ests))
    ]
    return results[0] if single else results


def write_replication_csv(result: MonteCarloResult, path) -> None:
    """Long-format per-replication records: rep, mode, metric, value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "mode", "metric", "value"])
        for rep, mode, metric, value in result.rows:
            writer.writerow([rep, "" if mode is None else mode, metric, f"{value:.17g}"])


def write_aggregate_csv(result: MonteCarloResult, path) -> None:
    """Aggregated records: metric, mean, sd."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "sd"])
        for name, mean, sd in result.aggregate:
            writer.writerow([name, f"{mean:.17g}", f"{sd:.17g}"])
