"""Data-generating process and the Monte-Carlo replication engine.

Factors and noise both follow stationary AR(1) recursions on the vectorized
slices; the noise innovation has a Kronecker-structured covariance (ones on
the diagonal, 1/p_k off-diagonal per mode) and is optionally heavy-tailed via
a per-slice t mixing variable.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .estimation import EstimationConfig, LoadingSet, fit
from .io import _write_csv
from .metrics import orthonormal_basis, subspace_distance
from .ranks import RankConfig, estimate_ranks
from .tensor import (
    _check_dims,
    _check_length,
    _check_ranks,
    _ints,
    _real,
    _time_blocks,
    series_multi_mode_product,
)

_NOISE_LAWS = {"tensor_normal", "tensor_t"}


def _check_noise_law(law: str, dof: float) -> float:
    if law not in _NOISE_LAWS:
        raise ValueError(f"unknown noise law {law!r}")
    return _real(dof, "t_dof", 2, strict=True)  # so that the t noise variance exists


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
        T, burn_in = _check_length(self.T, self.burn_in)
        dims = _check_dims(self.dims)
        (seed,) = _ints((self.seed,), "seed", 0)
        for name, value in (("T", T), ("burn_in", burn_in), ("dims", dims), ("seed", seed),
                            ("ranks", _check_ranks(dims, self.ranks)),
                            ("phi", _real(self.phi, "phi", -1, 1, strict=True)),
                            ("psi", _real(self.psi, "psi", -1, 1, strict=True)),
                            ("t_dof", _check_noise_law(self.noise_law, self.t_dof))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SimulatedDataset:
    observations: np.ndarray
    true_loadings: LoadingSet
    true_factors: np.ndarray
    true_common: np.ndarray
    noise: np.ndarray


def replication_rng(seed: int, rep: int | None = None) -> np.random.Generator:
    """Deterministic stream derivation: rep i uses SeedSequence(seed, spawn_key=(i,)).

    ``seed`` and ``rep`` must be integers >= 0."""
    (seed,) = _ints((seed,), "seed", 0)
    if rep is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=_ints((rep,), "rep", 0)))


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


def _ar1(z: np.ndarray, coef: float, prev, mix=None) -> np.ndarray:
    """Run cur = coef * prev + sqrt(1 - coef^2) * cur in place over z's slices,
    each first divided by its mixing draw in ``mix`` when given; ``prev`` is the
    slice before z (None: z[0] stays as is).  Returns a copy of the last slice."""
    if mix is not None:
        z /= mix
    scale = math.sqrt(1.0 - coef * coef)
    for cur in z:
        if prev is not None:
            cur *= scale
            cur += coef * prev
        prev = cur
    return prev.copy()


def gen_factors(ranks, T: int, phi: float, rng: np.random.Generator, burn_in: int = 100) -> np.ndarray:
    """Stationary AR(1) factor cores with unit per-coordinate variance."""
    phi = _real(phi, "phi", -1, 1, strict=True)
    shape = _check_dims(ranks, "ranks")
    T, burn_in = _check_length(T, burn_in)
    eps = rng.standard_normal(size=(burn_in + T + 1, *shape))
    _ar1(eps, phi, None)
    return eps[burn_in + 1:]


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
    mixing draws, and ``rng`` ends past both.  The products are linear, so the
    mixing division and the recursion run on the normals, and only the T
    retained slices, which become the result, go through the Cholesky
    products, in time blocks.  The burn-in is drawn and run in time blocks;
    under the t law its last min(burn_in + 1, T) slices are held until the
    mixing draws are known, and the older ones are replayed from a copy of
    ``rng``.  The result is a compact (T, p_1, ..., p_K) array, bit-identical
    to the same steps run over the whole series at once.
    """
    dof = _check_noise_law(law, dof)
    psi = _real(psi, "psi", -1, 1, strict=True)
    dims = _check_dims(dims)
    T, burn_in = _check_length(T, burn_in)
    first = burn_in + 1  # the first retained slice
    held = min(first, T) if law == "tensor_t" else 0
    blocks = _time_blocks(first - held, dims)
    prev = None
    if law == "tensor_t":
        replay = copy.deepcopy(rng)
        for lo, hi in blocks:  # skipped here, replayed below
            rng.standard_normal(size=(hi - lo, *dims))
        hold = rng.standard_normal(size=(held, *dims))
        out = rng.standard_normal(size=(T, *dims))
        mix = np.sqrt(rng.chisquare(dof, size=first + T) / dof).reshape((-1,) + (1,) * len(dims))
        for lo, hi in blocks:
            prev = _ar1(replay.standard_normal(size=(hi - lo, *dims)), psi, prev, mix[lo:hi])
        prev = _ar1(hold, psi, prev, mix[first - held:first])
        del hold  # freed before the Cholesky products run
        _ar1(out, psi, prev, mix[first:])
    else:
        for lo, hi in blocks:
            prev = _ar1(rng.standard_normal(size=(hi - lo, *dims)), psi, prev)
        out = rng.standard_normal(size=(T, *dims))
        _ar1(out, psi, prev)
    chols = _kron_factor_chols(dims)
    for lo, hi in _time_blocks(T, dims):
        out[lo:hi] = series_multi_mode_product(out[lo:hi], chols)
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
    noise = gen_noise(config.dims, config.T, config.psi, rng, law=config.noise_law,
                      dof=config.t_dof, burn_in=config.burn_in)
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


def _span_mse(loadings: LoadingSet, factors: np.ndarray, raw, cores: np.ndarray) -> float:
    """mse_common of F x_k A_k against C x_k R_k, scored in the span Q_k of each
    [A_k, R_k]: both series lie there, and Q_k's orthonormal columns keep the norm."""
    qs = [np.linalg.qr(np.hstack((a, r)))[0] for a, r in zip(loadings.mats, raw)]
    err = series_multi_mode_product(factors, [q.T @ a for q, a in zip(qs, loadings.mats)])
    err -= series_multi_mode_product(cores, [q.T @ r for q, r in zip(qs, raw)])
    return float(np.sum(np.square(err)) / (len(cores) * math.prod(len(q) for q in qs)))


def _replication_rows(task) -> list[list[Row]]:
    """One replication's rows for each config in ``ests``, from one draw."""
    dgp, ests, rep = task
    raw, truth, cores, x = _draw(dgp, replication_rng(dgp.seed, rep))
    # The observations, formed over the noise: IEEE addition commutes, so the
    # bits are those of common + noise.
    for lo, hi in _time_blocks(dgp.T, dgp.dims):
        x[lo:hi] += series_multi_mode_product(cores[lo:hi], raw)
    per_est: list[list[Row]] = []
    for est in ests:
        if isinstance(est, RankConfig):
            ranks = estimate_ranks(x, est).ranks
            rows = [(rep, k + 1, "rank", float(r)) for k, r in enumerate(ranks)]
            rows.append((rep, None, "exact", 1.0 if ranks == dgp.ranks else 0.0))
        else:
            result = fit(x, est)
            rows = [(rep, k + 1, "distance", subspace_distance(a_hat, a))
                    for k, (a_hat, a) in enumerate(zip(result.loadings.mats, truth.mats))]
            rows.append((rep, None, "mse", _span_mse(result.loadings, result.factors, raw, cores)))
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
    result is bit-identical for any ``workers`` count, of which at most ``reps``
    processes start; records are reduced in replication order.

    ``est`` is one config, giving one :class:`MonteCarloResult`, or a
    non-empty sequence of configs, giving one result per config in the same
    order.  A sequence draws each replication once and runs every config on
    that draw; each result equals the one its config gives alone.

    ``reps`` and ``workers`` must be integers; ``workers <= 1`` runs serially.
    """
    (reps,) = _ints((reps,), "reps", 1)
    (workers,) = _ints((workers,), "workers")
    single = isinstance(est, (EstimationConfig, RankConfig))
    ests = (est,) if single else tuple(est)
    if not ests:
        raise ValueError("need at least one estimation or rank config")
    tasks = [(dgp, ests, rep) for rep in range(reps)]
    if workers <= 1:
        per_rep = [_replication_rows(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=min(workers, reps)) as pool:
            per_rep = list(pool.map(_replication_rows, tasks))
    results = [
        _aggregate([row for rep_rows in per_rep for row in rep_rows[i]])
        for i in range(len(ests))
    ]
    return results[0] if single else results


def write_replication_csv(result: MonteCarloResult, path) -> None:
    """Long-format per-replication records: rep, mode, metric, value."""
    _write_csv(path, ["rep", "mode", "metric", "value"], result.rows)


def write_aggregate_csv(result: MonteCarloResult, path) -> None:
    """Aggregated records: metric, mean, sd."""
    _write_csv(path, ["metric", "mean", "sd"], result.aggregate)
