import math
import warnings

import numpy as np
import pytest

from rtfa import (
    DgpConfig,
    NumericalError,
    RankConfig,
    eigenvalue_ratio_pick,
    estimate_ranks,
    gen_dataset,
    rate_constants,
)

rng = np.random.default_rng(4)


def test_rate_constants_cube():
    rc = rate_constants((10, 10, 10), 20)
    assert rc.L == 1000
    assert rc.L_star == 1000
    assert rc.L_star_star == 100
    assert rc.omega == (200, 200, 200)


def test_rate_constants_tall_mode():
    rc = rate_constants((100, 10, 10), 20)
    assert rc.L == 2000
    assert rc.omega[0] == 2000
    assert rc.omega[1:] == (200, 200)


def test_rate_constants_tiny():
    rc = rate_constants((2, 2), 1)
    assert rc.L_star_star == 2


def test_rate_constants_mixed_dims():
    rc = rate_constants((10, 20, 30), 50)
    assert rc.L == 6000
    assert rc.L_star == 6000
    assert rc.L_star_star == 200
    assert rc.omega == (500, 1000, 1500)


def test_rate_constants_errors():
    with pytest.raises(ValueError):
        rate_constants((10, 10), 0)
    with pytest.raises(ValueError):
        rate_constants((10, 0), 5)


@pytest.mark.parametrize("dims, T", [((2.7, 3), 10), ((3, 3), 10.0), ((3, 3), 10.5)])
def test_rate_constants_rejects_non_integer_sizes(dims, T):
    # int() used to truncate them into wrong penalty constants
    with pytest.raises(ValueError, match="must be integers"):
        rate_constants(dims, T)


def test_rate_constants_takes_numpy_integers_and_rejects_no_dims():
    assert rate_constants(np.array([3, 4]), np.int64(10)) == rate_constants((3, 4), 10)
    with pytest.raises(ValueError, match="positive"):
        rate_constants((), 10)


def test_ratio_pick_oracles():
    assert eigenvalue_ratio_pick([10.0, 9.0, 0.1, 0.09, 0.08], 0.0, 4) == 2
    assert eigenvalue_ratio_pick([5.0, 1e-12, 1e-13, 1e-14, 1e-15], 0.01, 4) == 1
    assert eigenvalue_ratio_pick([2.0, 2.0, 2.0, 2.0, 2.0], 0.0, 4) == 1


def test_ratio_pick_penalty_flattens_tail():
    # without the penalty the degenerate tail ratio would win
    values = [5.0, 1e-12, 1e-13, 1e-14, 1e-15]
    assert eigenvalue_ratio_pick(values, 0.0, 4) in (1, 2)
    assert eigenvalue_ratio_pick(values, 0.01, 4) == 1


@pytest.mark.parametrize(
    "values",
    [
        [0.159, 0.033, -1.5e-19, -4.9e-18, -6.3e-17],  # rounding noise below zero
        [0.159, 0.033, 1e-19, 1e-40, 0.0],  # rounding noise above zero
    ],
)
def test_ratio_pick_ignores_rounding_noise_in_tail(values):
    # values at or below 64 eps n values[0] count as exactly 0: 0.033 / 0 wins
    assert eigenvalue_ratio_pick(values, 0.0, 4) == 2


def test_ratio_pick_errors():
    with pytest.raises(ValueError):
        eigenvalue_ratio_pick([3.0, 2.0, 1.0], 0.0, 3)  # needs r_max + 1 values
    with pytest.raises(ValueError):
        eigenvalue_ratio_pick([1.0, 2.0, 3.0], 0.0, 2)  # increasing
    with pytest.raises(ValueError):
        eigenvalue_ratio_pick([3.0, 2.0, -1.0], 0.0, 2)  # negative
    with pytest.raises(ValueError):
        eigenvalue_ratio_pick([3.0, 2.0, 1.0], -0.1, 2)


def test_ratio_pick_rejects_nan_penalty():
    # a NaN penalty would make every ratio NaN, and the pick 1 whatever the values
    with pytest.raises(ValueError, match="penalty"):
        eigenvalue_ratio_pick([3.0, 2.0, 0.0], math.nan, 2)


def brute_force_pick(values, penalty, r_max):
    best_j = 1
    best = None
    for j in range(1, r_max + 1):
        num, den = values[j - 1], values[j] + penalty
        if den == 0.0:
            ratio = math.inf if num > 0 else -math.inf
        else:
            ratio = num / den
        if best is None or ratio > best:
            best, best_j = ratio, j
    return best_j


def test_ratio_pick_brute_force_battery():
    gen = np.random.default_rng(40)
    for case in range(1000):
        n = gen.integers(3, 12)
        values = np.sort(np.abs(gen.standard_normal(n)))[::-1]
        if case % 3 == 0:
            values[gen.integers(1, n):] = 0.0  # degenerate tail
        penalty = [0.0, 1e-6, 0.5][case % 3]
        r_max = int(gen.integers(1, n))
        assert eigenvalue_ratio_pick(values, penalty, r_max) == brute_force_pick(
            values, penalty, r_max
        )


def test_rank_config_validation():
    with pytest.raises(ValueError):
        RankConfig(r_max=0)
    with pytest.raises(ValueError):
        RankConfig(c=-1.0)
    with pytest.raises(ValueError):
        RankConfig(method="pca")
    with pytest.raises(ValueError):
        RankConfig(epsilon_regime="ge3")
    with pytest.raises(ValueError):
        RankConfig(max_iter=0)


def test_rank_config_rejects_nan_c():
    with pytest.raises(ValueError, match="c must be"):
        RankConfig(c=math.nan)


@pytest.mark.parametrize("field", ["r_max", "max_iter"])
@pytest.mark.parametrize("value", [2.5, math.nan])
def test_rank_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RankConfig(**{field: value})


def test_rank_config_accepts_numpy_integers():
    config = RankConfig(r_max=np.int64(4), max_iter=np.int64(3))
    assert (config.r_max, config.max_iter) == (4, 3)


def test_rank_config_rejects_least_squares_alias():
    with pytest.raises(ValueError, match="unknown method"):
        RankConfig(method="least_squares")


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_estimate_ranks_noiseless(method):
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=30, ranks=(2, 2, 2), seed=21))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # tau floor on exact data
        result = estimate_ranks(ds.true_common, RankConfig(r_max=5, method=method))
    assert result.ranks == (2, 2, 2)
    assert result.converged


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_estimate_ranks_recovers_simulated(method):
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=200, ranks=(3, 3, 3), seed=20))
    result = estimate_ranks(ds.observations, RankConfig(r_max=8, method=method))
    assert result.ranks == (3, 3, 3)


def test_estimate_ranks_history_and_range():
    xs = rng.standard_normal((25, 9, 9, 9))  # pure noise: no structure
    result = estimate_ranks(xs, RankConfig(r_max=6))
    assert result.iterations[0] == (6, 6, 6)
    assert result.iterations[-1] == result.ranks
    assert all(1 <= r <= 6 for r in result.ranks)


def test_estimate_ranks_deterministic():
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=100, ranks=(3, 3, 3), seed=23))
    r1 = estimate_ranks(ds.observations, RankConfig(r_max=8, method="huber"))
    r2 = estimate_ranks(ds.observations, RankConfig(r_max=8, method="huber"))
    assert r1.ranks == r2.ranks
    assert r1.iterations == r2.iterations
    for a, b in zip(r1.eigenvalues, r2.eigenvalues):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_estimate_ranks_penalty_insensitive(method):
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=100, ranks=(3, 3, 3), seed=24))
    base = estimate_ranks(ds.observations, RankConfig(r_max=8, c=0.0, method=method))
    lam_max = max(float(v[0]) for v in base.eigenvalues)
    bumped = estimate_ranks(ds.observations, RankConfig(r_max=8, c=lam_max, method=method))
    assert base.ranks == bumped.ranks


def test_estimate_ranks_clamps_thin_modes():
    # r_max exceeds p_k - 1 = 4, so the candidate count must be capped per mode
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=60, ranks=(2, 2, 2), seed=25))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = estimate_ranks(ds.true_common, RankConfig(r_max=8))
    assert result.ranks == (2, 2, 2)
    assert any("capped" in note or "clamped" in note for note in result.warnings)
    assert all(1 <= r <= 4 for r in result.ranks)


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_estimate_ranks_overflow_is_numerical_error(method):
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2))
    with pytest.raises(NumericalError):
        estimate_ranks(1e160 * ds.observations, RankConfig(r_max=3, method=method))


def test_estimate_ranks_regimes_differ_only_in_penalty():
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=26))
    ge2 = estimate_ranks(ds.observations, RankConfig(r_max=6, c=0.0, method="huber", epsilon_regime="ge2"))
    lt2 = estimate_ranks(ds.observations, RankConfig(r_max=6, c=0.0, method="huber", epsilon_regime="lt2"))
    # with c = 0 the penalty vanishes in both regimes
    assert ge2.ranks == lt2.ranks


def test_estimate_ranks_fixed_tau():
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=28))
    result = estimate_ranks(ds.observations, RankConfig(r_max=6, method="huber", tau=2.0))
    assert result.ranks == (2, 2, 2)


@pytest.mark.parametrize("tau", [-1.0, 0.0, "mean"])
def test_rank_config_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match="tau"):
        RankConfig(method="huber", tau=tau)


def test_estimate_ranks_validates_series_once(monkeypatch):
    # the initial estimator's covariance check is the only validation of the
    # values: no np.isfinite call ever scans an array the size of the series
    ds = gen_dataset(DgpConfig(dims=(6, 6, 6), T=20, ranks=(2, 2, 2), seed=31))
    scanned = []
    isfinite = np.isfinite

    def recording(a, *args, **kwargs):
        scanned.append(np.size(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording)
    for method, tau in [("ls", "median"), ("huber", "median"), ("huber", 2.0)]:
        estimate_ranks(ds.observations, RankConfig(r_max=3, method=method, tau=tau))
    assert scanned and max(scanned) < ds.observations.size


@pytest.mark.parametrize("r_max", [1.5, 4.0, math.nan])
def test_eigenvalue_ratio_pick_rejects_non_integer_r_max(r_max):
    # these used to raise a TypeError from slicing
    with pytest.raises(ValueError, match="must be integers"):
        eigenvalue_ratio_pick([10.0, 9.0, 0.1, 0.09, 0.08], 0.0, r_max)


def test_eigenvalue_ratio_pick_takes_numpy_integer_r_max():
    assert eigenvalue_ratio_pick([10.0, 9.0, 0.1, 0.09, 0.08], 0.0, np.int64(4)) == 2
