import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rtfa import (
    DgpConfig,
    EstimationConfig,
    RankConfig,
    common_components,
    estimate_ranks,
    fit,
    gen_dataset,
    gen_factors,
    gen_loadings,
    gen_noise,
    mse_common,
    replication_rng,
    run_monte_carlo,
    subspace_distance,
    write_aggregate_csv,
    write_replication_csv,
)
from rtfa import simulate
from rtfa.simulate import SimulatedDataset, _kron_factor_chols
from rtfa.tensor import _BLOCK_BYTES, _time_blocks, series_multi_mode_product


def test_config_validation():
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=10, ranks=(2, 2, 2))
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=10, ranks=(6, 2))
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=0, ranks=(2, 2))
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), phi=1.0)
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), noise_law="cauchy")
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), noise_law="tensor_t", t_dof=2.0)
    with pytest.raises(ValueError):
        DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), burn_in=-1)


@pytest.mark.parametrize("field, value", [
    ("dims", (5.7, 5)), ("ranks", (2.0, 2)), ("T", 2.5), ("T", math.nan),
    ("burn_in", 3.9), ("burn_in", math.nan),
])
def test_config_rejects_non_integer_sizes(field, value):
    # floats used to pass: dims and ranks truncated by int(), T and burn_in
    # failing later with a TypeError inside gen_factors
    sizes = {"dims": (5, 5), "T": 10, "ranks": (2, 2), "burn_in": 3, field: value}
    with pytest.raises(ValueError, match="must be integers"):
        DgpConfig(**sizes)


def test_config_rejects_empty_dims():
    # () used to pass and draw a (T,) "series" with no modes
    with pytest.raises(ValueError, match="non-empty"):
        DgpConfig(dims=(), ranks=(), T=5)


@pytest.mark.parametrize("call", [
    lambda rng: gen_loadings((5.7, 5), (2, 2), rng),
    lambda rng: gen_loadings((5, 5), (2.0, 2), rng),
    lambda rng: gen_factors((2.5, 2), 10, 0.1, rng),
    lambda rng: gen_factors((2, 2), 10.5, 0.1, rng),
    lambda rng: gen_factors((2, 2), 10, 0.1, rng, burn_in=3.5),
    lambda rng: gen_noise((4.5, 4), 10, 0.1, rng),
    lambda rng: gen_noise((4, 4), 10.0, 0.1, rng),
    lambda rng: replication_rng(1, 2.7),
])
def test_draws_reject_non_integer_sizes(call):
    # int() used to truncate them silently
    with pytest.raises(ValueError, match="must be integers"):
        call(np.random.default_rng(0))


@pytest.mark.parametrize("dims, ranks", [((5, 5, 5), (2, 2)), ((5, 5), (2, 2, 2))])
def test_gen_loadings_rejects_mismatched_lengths(dims, ranks):
    # zip used to drop the extra modes: two loadings for a three-mode shape
    with pytest.raises(ValueError, match="same length"):
        gen_loadings(dims, ranks, np.random.default_rng(0))


@pytest.mark.parametrize("call", [
    lambda rng: gen_factors((2, 2), 10, 0.1, rng, burn_in=-1),
    lambda rng: gen_noise((3, 3), 2, 0.1, rng, burn_in=-1),
    lambda rng: gen_noise((3, 3), 2, 0.1, rng, law="tensor_t", burn_in=-5),
])
def test_draws_reject_negative_burn_in(call):
    # a negative burn-in used to return the unscaled start of the recursion
    # as the first slice, not a stationary draw
    with pytest.raises(ValueError, match="burn_in must be >= 0"):
        call(np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda rng: gen_factors((2, 2), 0, 0.1, rng), "T must be positive",
                 id="factors-T0"),
    pytest.param(lambda rng: gen_factors((2, 2), -5, 0.1, rng), "T must be positive",
                 id="factors-T-negative"),
    pytest.param(lambda rng: gen_noise((3, 3), 0, 0.1, rng), "T must be positive", id="noise-T0"),
    pytest.param(lambda rng: gen_noise((), 5, 0.1, rng), "must be non-empty and positive",
                 id="noise-no-modes"),
    pytest.param(lambda rng: gen_factors((), 5, 0.1, rng), "must be non-empty and positive",
                 id="factors-no-modes"),
    pytest.param(lambda rng: gen_noise((0, 3), 5, 0.1, rng), "must be non-empty and positive",
                 id="noise-zero-dim"),
    pytest.param(lambda rng: gen_loadings((3, 3), (0, 2), rng), "each rank must satisfy",
                 id="loadings-rank-0"),
    pytest.param(lambda rng: gen_loadings((3, 3), (4, 2), rng), "each rank must satisfy",
                 id="loadings-rank-over-dim"),
    pytest.param(lambda rng: gen_noise((3, 3), 5, 0.1, rng, law="tensor_t", dof=2.0),
                 "t_dof must exceed 2", id="noise-dof-2"),
])
def test_draws_reject_what_dgp_config_rejects(call, message):
    # these used to return empty or 1-D arrays, or to fail deep inside the
    # draw with a ZeroDivisionError or a "rank-deficient input" error
    with pytest.raises(ValueError, match=message):
        call(np.random.default_rng(0))


@pytest.mark.parametrize("design, message", [
    (dict(dims=(2, 2), T=0), "T must be positive"),
    (dict(dims=(0, 3), ranks=(1, 1)), "must be non-empty and positive"),
    (dict(ranks=(0, 2)), "each rank must satisfy"),
    (dict(ranks=(4, 2)), "each rank must satisfy"),
    (dict(noise_law="tensor_t", t_dof=2.0), "t_dof must exceed 2"),
])
def test_config_rejects_with_the_draws_messages(design, message):
    with pytest.raises(ValueError, match=message):
        DgpConfig(**{"dims": (3, 3), "T": 5, "ranks": (2, 2), **design})


def test_draws_take_numpy_integer_sizes():
    def draws(dims, ranks, T, burn_in, rep):
        rng = replication_rng(5, rep)
        raw, _ = gen_loadings(dims, ranks, rng)
        cores = gen_factors(ranks, T, 0.1, rng, burn_in)
        return (*raw, cores, gen_noise(dims, T, 0.1, rng, burn_in=burn_in))

    got = draws(np.array([4, 3]), np.array([2, 1]), np.int64(6), np.int32(2), np.int64(1))
    for a, b in zip(got, draws((4, 3), (2, 1), 6, 2, 1)):
        assert np.array_equal(a, b)


def test_config_accepts_numpy_integer_sizes():
    config = DgpConfig(dims=(np.int64(5), 5), T=np.int64(10), ranks=(np.int64(2), 2),
                       burn_in=np.int64(3))
    assert config.dims == (5, 5) and config.ranks == (2, 2)
    assert gen_dataset(config).observations.shape == (10, 5, 5)


def test_replication_rng_streams():
    a = replication_rng(7, 0).standard_normal(4)
    b = replication_rng(7, 0).standard_normal(4)
    c = replication_rng(7, 1).standard_normal(4)
    d = replication_rng(8, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_gen_loadings_support_and_determinism():
    raw1, norm1 = gen_loadings((6, 5), (2, 2), replication_rng(1))
    raw2, _ = gen_loadings((6, 5), (2, 2), replication_rng(1))
    for a, b in zip(raw1, raw2):
        assert np.array_equal(a, b)
        assert (np.abs(a) < 1.0).all()
    for a, q in zip(raw1, norm1.mats):
        gram = q.T @ q / q.shape[0]
        assert np.max(np.abs(gram - np.eye(q.shape[1]))) <= 1e-10
        assert subspace_distance(a, q) <= 1e-10


def test_gen_loadings_mean_near_zero():
    raw, _ = gen_loadings((200000,), (5,), replication_rng(2))
    assert abs(raw[0].mean()) < 0.01


def test_gen_factors_shape_and_determinism():
    f1 = gen_factors((2, 3), 15, 0.1, replication_rng(3), burn_in=10)
    f2 = gen_factors((2, 3), 15, 0.1, replication_rng(3), burn_in=10)
    assert f1.shape == (15, 2, 3)
    assert np.array_equal(f1, f2)


def test_gen_factors_iid_when_phi_zero():
    f = gen_factors((2, 2), 30000, 0.0, replication_rng(4), burn_in=0)
    flat = f.reshape(30000, -1)
    lag1 = np.mean(flat[1:] * flat[:-1], axis=0)
    assert np.max(np.abs(lag1)) < 4.0 / np.sqrt(30000)


def test_gen_factors_unit_stationary_variance():
    f = gen_factors((2, 2), 30000, 0.1, replication_rng(5), burn_in=50)
    var = f.reshape(30000, -1).var(axis=0)
    assert np.max(np.abs(var - 1.0)) < 0.05


def test_gen_noise_kronecker_covariance():
    noise = gen_noise((2, 2, 2), 100000, 0.0, replication_rng(6), burn_in=0)
    # per-slice vec in mode-1-major order: reverse the slice axes, then C-ravel
    flat = noise.transpose(0, 3, 2, 1).reshape(100000, -1)
    sample = flat.T @ flat / flat.shape[0]
    s = np.array([[1.0, 0.5], [0.5, 1.0]])
    expected = np.kron(s, np.kron(s, s))
    assert np.max(np.abs(sample - expected)) < 0.02


def test_gen_noise_t3_heavy_tails():
    normal = gen_noise((3, 3), 100000, 0.0, replication_rng(7), law="tensor_normal", burn_in=0)
    heavy = gen_noise((3, 3), 100000, 0.0, replication_rng(7), law="tensor_t", dof=3.0, burn_in=0)

    def excess_kurtosis(v):
        v = v - v.mean()
        return np.mean(v**4) / np.mean(v**2) ** 2 - 3.0

    assert excess_kurtosis(normal[:, 0, 0]) < 1.0
    assert excess_kurtosis(heavy[:, 0, 0]) > 3.0


def test_gen_noise_determinism_and_errors():
    n1 = gen_noise((3, 3), 10, 0.1, replication_rng(8))
    n2 = gen_noise((3, 3), 10, 0.1, replication_rng(8))
    assert np.array_equal(n1, n2)
    with pytest.raises(ValueError):
        gen_noise((3, 3), 10, 1.5, replication_rng(8))
    with pytest.raises(ValueError):
        gen_noise((3, 3), 10, 0.1, replication_rng(8), law="tensor_t", dof=1.0)


def test_gen_dataset_shapes_and_composition():
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=20, ranks=(3, 3, 3), seed=9))
    assert ds.observations.shape == (20, 10, 10, 10)
    assert ds.true_factors.shape == (20, 3, 3, 3)
    assert np.array_equal(ds.observations, ds.true_common + ds.noise)
    for a in ds.true_loadings.mats:
        gram = a.T @ a / a.shape[0]
        assert np.max(np.abs(gram - np.eye(a.shape[1]))) <= 1e-8


def test_gen_dataset_truth_representation_consistent():
    # the normalized loadings with the transformed cores rebuild the same common part
    ds = gen_dataset(DgpConfig(dims=(7, 6, 5), T=12, ranks=(2, 2, 2), seed=10))
    rebuilt = common_components(ds.true_loadings, ds.true_factors)
    scale = np.max(np.abs(ds.true_common))
    assert np.max(np.abs(rebuilt - ds.true_common)) <= 1e-10 * max(1.0, scale)


def test_gen_dataset_noise_energy():
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=2000, ranks=(3, 3, 3), seed=12))
    energy = np.mean(np.sum(ds.noise.reshape(2000, -1) ** 2, axis=1)) / 1000.0
    assert abs(energy - 1.0) < 0.05


def test_gen_dataset_deterministic_by_seed():
    c = DgpConfig(dims=(6, 6, 6), T=10, ranks=(2, 2, 2), seed=13)
    d1 = gen_dataset(c)
    d2 = gen_dataset(c)
    assert np.array_equal(d1.observations, d2.observations)


def assert_rep_matches_direct_run(dgp, est):
    # the public whole-array path is the oracle for the observations and the
    # MSE error that the replication forms in time blocks
    mc = run_monte_carlo(dgp, est, reps=1)
    ds = gen_dataset(dgp, rng=replication_rng(dgp.seed, 0))
    result = fit(ds.observations, est)
    expected = [
        subspace_distance(a_hat, a) for a_hat, a in zip(result.loadings.mats, ds.true_loadings.mats)
    ]
    s_hat = common_components(result.loadings, result.factors)
    expected.append(mse_common(s_hat, ds.true_common))
    values = [row[3] for row in mc.rows]
    assert values == expected
    names = [name for name, _, _ in mc.aggregate]
    assert names == [f"distance_mode{k + 1}" for k in range(len(dgp.dims))] + ["mse"]
    for (name, mean, sd), val in zip(mc.aggregate, expected):
        assert mean == val
        assert sd == 0.0


@pytest.mark.parametrize("law", ["tensor_normal", "tensor_t"])
@pytest.mark.parametrize("method", ["ls", "huber"])
def test_monte_carlo_single_rep_matches_direct_run(method, law):
    dgp = DgpConfig(dims=(6, 6, 6), T=20, ranks=(2, 2, 2), noise_law=law, seed=14)
    assert_rep_matches_direct_run(dgp, EstimationConfig(ranks=(2, 2, 2), method=method))


@pytest.mark.parametrize("method", ["ls", "huber"])
@pytest.mark.parametrize("dims, T, ranks", [
    pytest.param((20, 20, 20), 203, (3, 3, 3), id="uneven-blocks"),
    pytest.param((70, 40, 30), 5, (3, 1, 1), id="slices-over-a-block"),
    pytest.param((30, 30, 30), 21, (3, 3, 3), id="one-slice-blocks"),
    # wide modes, large ranks and odd block lengths take time blocks too,
    # since each slice is contracted on its own
    pytest.param((4, 300), 100, (2, 2), id="wide-mode"),
    pytest.param((2, 204), 1000, (2, 2), id="wide-last-mode"),
    pytest.param((40, 100), 800, (32, 1), id="rank-32"),
    pytest.param((9, 9), 2001, (8, 8), id="rank-8-odd-blocks"),
])
def test_monte_carlo_blocked_rep_matches_direct_run(dims, T, ranks, method):
    dgp = DgpConfig(dims=dims, T=T, ranks=ranks, noise_law="tensor_t", seed=14)
    assert_rep_matches_direct_run(dgp, EstimationConfig(ranks=ranks, method=method))


def test_monte_carlo_single_rank_rep_matches_direct_run():
    dgp = DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), noise_law="tensor_t", seed=16)
    est = RankConfig(r_max=5, method="huber")
    mc = run_monte_carlo(dgp, est, reps=1)
    ranks = estimate_ranks(gen_dataset(dgp, rng=replication_rng(16, 0)).observations, est).ranks
    assert mc.rows == [(0, k + 1, "rank", float(r)) for k, r in enumerate(ranks)] + [
        (0, None, "exact", 1.0 if ranks == dgp.ranks else 0.0)]


def test_monte_carlo_worker_invariance():
    dgp = DgpConfig(dims=(6, 6, 6), T=15, ranks=(2, 2, 2), seed=15)
    est = EstimationConfig(ranks=(2, 2, 2))
    serial = run_monte_carlo(dgp, est, reps=4, workers=1)
    parallel = run_monte_carlo(dgp, est, reps=4, workers=2)
    assert serial.rows == parallel.rows
    assert serial.aggregate == parallel.aggregate


def test_monte_carlo_rank_config_rows():
    dgp = DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=16)
    mc = run_monte_carlo(dgp, RankConfig(r_max=5), reps=3)
    rank_rows = [row for row in mc.rows if row[2] == "rank"]
    exact_rows = [row for row in mc.rows if row[2] == "exact"]
    assert len(rank_rows) == 9
    assert len(exact_rows) == 3
    assert all(v in (0.0, 1.0) for _, _, _, v in exact_rows)
    names = [name for name, _, _ in mc.aggregate]
    assert "exact" in names


@pytest.mark.parametrize("kwargs", [
    {"reps": 0}, {"reps": 2.5}, {"reps": math.nan},
    {"reps": 1, "workers": 2.5}, {"reps": 1, "workers": math.nan},
], ids=["reps-0", "reps-float", "reps-nan", "workers-float", "workers-nan"])
def test_monte_carlo_rejects_bad_reps(kwargs):
    dgp = DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), seed=17)
    with pytest.raises(ValueError):
        run_monte_carlo(dgp, EstimationConfig(ranks=(2, 2)), **kwargs)


def test_monte_carlo_accepts_numpy_integer_counts():
    dgp = DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), seed=17)
    est = EstimationConfig(ranks=(2, 2))
    got = run_monte_carlo(dgp, est, reps=np.int64(2), workers=np.int64(0))
    assert got.rows == run_monte_carlo(dgp, est, reps=2).rows


PAIRS = [
    pytest.param((EstimationConfig(ranks=(2, 2, 2)),
                  EstimationConfig(ranks=(2, 2, 2), method="huber")), id="fit-ls-huber"),
    pytest.param((RankConfig(r_max=4), RankConfig(r_max=4, method="huber")), id="rank-ls-huber"),
    pytest.param((RankConfig(r_max=4, method="huber"), EstimationConfig(ranks=(2, 2, 2)),
                  RankConfig(r_max=4)), id="rank-fit-rank"),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ests", PAIRS)
def test_monte_carlo_sequence_matches_each_config_alone(ests, workers):
    dgp = DgpConfig(dims=(7, 6, 5), T=25, ranks=(2, 2, 2), noise_law="tensor_t", seed=19)
    paired = run_monte_carlo(dgp, list(ests), reps=3, workers=workers)
    assert isinstance(paired, list) and len(paired) == len(ests)
    for est, got in zip(ests, paired):
        alone = run_monte_carlo(dgp, est, reps=3, workers=1)
        assert got.rows == alone.rows
        assert got.aggregate == alone.aggregate


def test_monte_carlo_sequence_draws_each_replication_once(monkeypatch):
    calls = []
    real = simulate._draw
    monkeypatch.setattr(simulate, "_draw",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    dgp = DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), seed=20)
    results = run_monte_carlo(dgp, (EstimationConfig(ranks=(2, 2)), RankConfig(r_max=3)), reps=2)
    assert len(results) == 2
    assert len(calls) == 2


def test_monte_carlo_rejects_empty_sequence():
    dgp = DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), seed=17)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="at least one"):
            run_monte_carlo(dgp, empty, reps=1)


def test_import_leaves_the_process_pool_unloaded():
    # run_monte_carlo imports the pool only when it starts workers, so
    # importing the package and the CLI does not pull in multiprocessing
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rtfa, rtfa.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_csv_writers(tmp_path):
    dgp = DgpConfig(dims=(5, 5), T=10, ranks=(2, 2), seed=18)
    mc = run_monte_carlo(dgp, EstimationConfig(ranks=(2, 2)), reps=2)
    rep_path = tmp_path / "reps.csv"
    agg_path = tmp_path / "agg.csv"
    write_replication_csv(mc, rep_path)
    write_aggregate_csv(mc, agg_path)
    rep_lines = rep_path.read_text().splitlines()
    agg_lines = agg_path.read_text().splitlines()
    assert rep_lines[0] == "rep,mode,metric,value"
    assert agg_lines[0] == "metric,mean,sd"
    assert len(rep_lines) == 1 + len(mc.rows)
    assert len(agg_lines) == 1 + len(mc.aggregate)
    assert rep_lines[1].startswith("0,1,distance,")
    assert agg_lines[1].startswith("distance_mode1,")


# --- the blocked DGP against its whole-array form --------------------------------

def gen_noise_whole(dims, T, psi, rng, law="tensor_normal", dof=3.0, burn_in=100):
    # gen_noise as whole-array passes over all burn_in + T + 1 slices: the
    # oracle that its blocked pass must reproduce bit for bit
    dims = tuple(dims)
    n = burn_in + T
    z = rng.standard_normal(size=(n + 1, *dims))
    u = series_multi_mode_product(z, _kron_factor_chols(dims))
    if law == "tensor_t":
        mix = np.sqrt(rng.chisquare(dof, size=n + 1) / dof)
        u /= mix.reshape((n + 1,) + (1,) * len(dims))
    out = np.empty_like(u)
    out[0] = u[0]
    scale = math.sqrt(1.0 - psi * psi)
    for i in range(1, n + 1):
        out[i] = psi * out[i - 1] + scale * u[i]
    return out[n - T + 1:]


def gen_dataset_whole(config, rng):
    # gen_dataset with the whole-array noise, forming the common part first
    raw, normalized = gen_loadings(config.dims, config.ranks, rng)
    cores = gen_factors(config.ranks, config.T, config.phi, rng, config.burn_in)
    common = series_multi_mode_product(cores, raw)
    noise = gen_noise_whole(config.dims, config.T, config.psi, rng, law=config.noise_law,
                            dof=config.t_dof, burn_in=config.burn_in)
    transforms = [n.T @ a / n.shape[0] for n, a in zip(normalized.mats, raw)]
    return SimulatedDataset(
        observations=common + noise,
        true_loadings=normalized,
        true_factors=series_multi_mode_product(cores, transforms),
        true_common=common,
        noise=noise,
    )


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# A (50,) slice is 400 bytes; with burn_in=100 this T makes burn_in + T + 1
# one slice more than a whole number of blocks, so cutting blocks of the full
# size would leave a one-slice block.  Its mode product is a one-row GEMV, as
# every slice's is in the whole array, since each slice is contracted alone.
_ONE_OVER = _BLOCK_BYTES // 400 - 100

BLOCKED_CASES = [
    pytest.param((20, 20, 20), 20, 10, id="uneven-blocks"),
    pytest.param((200, 30, 30), 3, 2, id="slice-larger-than-block"),
    pytest.param((6, 5, 4), 1, 0, id="T1-no-burn-in"),
    pytest.param((50,), _ONE_OVER, 100, id="K1-one-slice-over"),
    pytest.param((8, 7, 6, 5), 50, 20, id="K4"),
    pytest.param((30, 30, 30), 20, 10, id="one-slice-block"),
]


@pytest.mark.parametrize("law", ["tensor_normal", "tensor_t"])
@pytest.mark.parametrize("dims, T, burn_in", BLOCKED_CASES)
def test_gen_noise_blocked_matches_whole_array(dims, T, burn_in, law):
    got = gen_noise(dims, T, 0.3, replication_rng(31), law=law, burn_in=burn_in)
    want = gen_noise_whole(dims, T, 0.3, replication_rng(31), law=law, burn_in=burn_in)
    assert got.shape == (T, *dims)
    assert got.flags.c_contiguous and got.base is None
    assert same_bits(got, want)


@pytest.mark.parametrize("law", ["tensor_normal", "tensor_t"])
@pytest.mark.parametrize("dims, T, burn_in", BLOCKED_CASES)
def test_gen_dataset_fields_match_whole_array(dims, T, burn_in, law):
    config = DgpConfig(dims=dims, T=T, ranks=tuple(min(2, d) for d in dims),
                       noise_law=law, seed=32, burn_in=burn_in)
    got = gen_dataset(config)
    want = gen_dataset_whole(config, replication_rng(32))
    for name in ("observations", "true_factors", "true_common", "noise"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got.true_loadings.mats, want.true_loadings.mats):
        assert same_bits(a, b)


def time_blocks_whole(n, dims):
    # the plain tiling: near-equal blocks of at most _BLOCK_BYTES
    step = max(1, _BLOCK_BYTES // (8 * math.prod(dims)))
    blocks = -(-n // step)
    edges = [n * b // blocks for b in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("n, dims", [
    (1, (6, 5, 4)), (2, (6, 5, 4)), (301, (20, 20, 20)), (203, (20, 20, 20)),
    (_ONE_OVER + 101, (50,)), (3000, (50,)), (70, (8, 7, 6, 5)), (301, (30, 30, 30)),
    (3, (70, 40, 30)), (6, (70, 40, 30)), (7, (70, 40, 30)), (5, (200, 30, 30)),
])
def test_time_blocks_tile_in_near_equal_blocks(n, dims):
    blocks = _time_blocks(n, dims)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert blocks == time_blocks_whole(n, dims)


@pytest.mark.parametrize("dims, T, ranks", [
    pytest.param((20, 20, 20), 203, (3, 3, 3), id="uneven-blocks"),
    pytest.param((20, 20, 20), 50, (1, 1, 1), id="rk1"),
    pytest.param((70, 40, 30), 7, (2, 2, 2), id="slices-over-a-block"),
    pytest.param((70, 40, 30), 6, (3, 1, 1), id="slices-over-a-block-rk1-trailing"),
    pytest.param((6, 5, 4), 1, (2, 2, 2), id="T1"),
    pytest.param((50,), 3000, (3,), id="K1"),
    pytest.param((8, 7, 6, 5), 70, (2, 3, 1, 2), id="K4"),
    pytest.param((192, 3), 400, (31, 1), id="width-192-rank-31"),
    pytest.param((4, 300), 100, (2, 2), id="wide-mode"),
    pytest.param((2, 204), 1000, (2, 2), id="wide-last-mode"),
    pytest.param((40, 100), 400, (32, 1), id="rank-32"),
])
def test_blocked_common_part_matches_whole_array(dims, T, ranks):
    rng = replication_rng(36)
    raw, _ = gen_loadings(dims, ranks, rng)
    cores = gen_factors(ranks, T, 0.1, rng)
    blocks = _time_blocks(T, dims)
    got = np.concatenate([series_multi_mode_product(cores[lo:hi], raw) for lo, hi in blocks])
    assert same_bits(got, series_multi_mode_product(cores, raw))
    assert len(blocks) > 1 or T == 1


@pytest.mark.parametrize("est", [
    EstimationConfig(ranks=(3, 3, 3), method="ls"),
    EstimationConfig(ranks=(3, 3, 3), method="huber"),
    RankConfig(r_max=8, method="huber"),
    [EstimationConfig(ranks=(3, 3, 3), method=m) for m in ("ls", "huber")],
    [RankConfig(r_max=8, method=m) for m in ("ls", "huber")],
], ids=["fit-ls", "fit-huber", "rank-huber", "fit-pair", "rank-pair"])
def test_replication_peak_memory(est):
    # one setting-C replication holds one series, the observations: the
    # common part, the MSE error and every Gram are formed in time blocks, the
    # error in the spent observations.  The peak is the t-law noise draw's
    # burn-in normals on top of the retained ones, plus a few blocks
    dgp = DgpConfig(dims=(20, 20, 20), T=200, ranks=(3, 3, 3), noise_law="tensor_t", seed=34)
    observation_bytes = 8 * dgp.T * math.prod(dgp.dims)
    replication_rng(dgp.seed)  # outside the trace: the first one imports numpy.random
    tracemalloc.start()
    try:
        run_monte_carlo(dgp, est, reps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * observation_bytes


@pytest.mark.parametrize("method", ["ls", "huber"])
@pytest.mark.parametrize("dims, T, ranks", [
    pytest.param((4, 300), 2000, (2, 2), id="wide-mode"),
    pytest.param((40, 100), 800, (32, 1), id="rank-32"),
])
def test_wide_replication_peak_memory(dims, T, ranks, method):
    # a wide mode or a large rank forms the common part and the MSE error in
    # time blocks as well, so the replication holds one series here too
    dgp = DgpConfig(dims=dims, T=T, ranks=ranks, noise_law="tensor_t", seed=37)
    observation_bytes = 8 * dgp.T * math.prod(dgp.dims)
    replication_rng(dgp.seed)  # outside the trace: the first one imports numpy.random
    tracemalloc.start()
    try:
        run_monte_carlo(dgp, EstimationConfig(ranks=ranks, method=method), reps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.95 * observation_bytes


def test_gen_noise_peak_memory():
    # the retained normals become the result, so the draw holds the
    # burn_in + T + 1 normals and a few blocks, not another T slices
    dims, T, burn_in = (20, 20, 20), 200, 100
    rng = replication_rng(35)  # outside the trace: the first one imports numpy.random
    tracemalloc.start()
    try:
        gen_noise(dims, T, 0.1, rng, law="tensor_t", burn_in=burn_in)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (burn_in + T + 1) * math.prod(dims) + 4 * _BLOCK_BYTES
