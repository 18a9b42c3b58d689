import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import kron_excluding

from rtfa import (
    DgpConfig,
    EstimationConfig,
    LoadingSet,
    NumericalError,
    RankConfig,
    common_components,
    default_tau,
    estimate_ranks,
    extract_factors,
    fit,
    gen_dataset,
    initial_estimator,
    multi_mode_product,
    replication_rng,
    residual_scales,
    series_multi_mode_product,
    series_unfold,
    subspace_distance,
    sym_eig,
)
from rtfa import estimation
from rtfa.estimation import _subspace_change, _sweep_cov, _weights_from_scales
from rtfa.tensor import _time_blocks

rng = np.random.default_rng(3)


def identity_loadings(dims, ranks):
    # sqrt(p_k) x leading identity columns: exactly normalized
    return LoadingSet(
        tuple(math.sqrt(d) * np.eye(d)[:, :r] for d, r in zip(dims, ranks))
    )


def off_support_series(dims, ranks, norms):
    """Slices supported outside the identity loadings' span in every mode.

    Each slice has a single nonzero entry whose magnitude makes the
    residual scale exactly ``norms[t]``.
    """
    p = math.prod(dims)
    xs = np.zeros((len(norms), *dims))
    corner = tuple(r for r in ranks)
    for t, v in enumerate(norms):
        xs[(t, *corner)] = v * math.sqrt(p)
    return xs


# --- LoadingSet / EstimationConfig --------------------------------------------

def test_loading_set_validates_normalization():
    with pytest.raises(ValueError):
        LoadingSet((np.eye(4)[:, :2],))  # missing the sqrt(p) scale
    ls = identity_loadings((4, 6), (2, 3))
    assert ls.dims == (4, 6)
    assert ls.ranks == (2, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_loading_set_rejects_non_finite_entries(bad):
    # a NaN Gram compares False against the tolerance, so it must fail the check
    a = 2.0 * np.eye(4)[:, :2]
    a[1, 0] = bad
    with pytest.raises(ValueError, match="normalization"):
        LoadingSet((a,))


def test_config_validation():
    with pytest.raises(ValueError):
        EstimationConfig(ranks=(2, 2), method="pca")
    with pytest.raises(ValueError):
        EstimationConfig(ranks=(2, 2), tau=-1.0)
    with pytest.raises(ValueError):
        EstimationConfig(ranks=(2, 2), tau="mean")
    with pytest.raises(ValueError):
        EstimationConfig(ranks=(2, 2), max_iter=0)
    with pytest.raises(ValueError):
        EstimationConfig(ranks=(2, 2), tol=-1e-9)
    assert EstimationConfig(ranks=(2, 2), method="huber").robust
    assert not EstimationConfig(ranks=(2, 2), method="ls").robust


def test_config_rejects_nan_tol():
    # change < nan never holds, so a NaN tol would always run max_iter sweeps
    with pytest.raises(ValueError, match="tol must be"):
        EstimationConfig(ranks=(2, 2), tol=math.nan)


@pytest.mark.parametrize("max_iter", [2.5, math.nan])
def test_config_rejects_non_integer_max_iter(max_iter):
    # both pass a bare "< 1" check and would fail later inside range()
    with pytest.raises(ValueError, match="max_iter must be integers"):
        EstimationConfig(ranks=(2, 2), max_iter=max_iter)


def test_config_accepts_numpy_integer_max_iter():
    assert EstimationConfig(ranks=(2, 2), max_iter=np.int64(4)).max_iter == 4


@pytest.mark.parametrize("ranks", [(2.7, 2), (2.0, 2), (2, "2"), (2, math.nan)])
def test_config_rejects_non_integer_ranks(ranks):
    # int() would truncate 2.7 to 2 and fit a rank nobody asked for
    with pytest.raises(ValueError, match="ranks must be integers"):
        EstimationConfig(ranks=ranks)


def test_config_accepts_numpy_integer_ranks():
    config = EstimationConfig(ranks=(np.int64(2), np.int32(3)))
    assert config.ranks == (2, 3)
    assert all(type(r) is int for r in config.ranks)


def test_config_rejects_least_squares_alias():
    with pytest.raises(ValueError, match="unknown method"):
        EstimationConfig(ranks=(2, 2), method="least_squares")


# --- initial estimator ---------------------------------------------------------

def test_initial_estimator_noiseless_rank_one():
    a = [rng.standard_normal((d, 1)) for d in (6, 5, 4)]
    f = rng.standard_normal((30, 1, 1, 1))
    xs = np.stack([multi_mode_product(f[t], a) for t in range(30)])
    est = initial_estimator(xs, (1, 1, 1))
    for k in range(3):
        assert subspace_distance(est.mats[k], a[k]) <= 1e-8


def test_initial_estimator_white_noise_runs():
    xs = rng.standard_normal((20, 5, 4, 3))
    est = initial_estimator(xs, (1, 1, 1))
    for a in est.mats:
        gram = a.T @ a / a.shape[0]
        assert np.max(np.abs(gram - np.eye(a.shape[1]))) <= 1e-8


def test_initial_estimator_errors():
    xs = rng.standard_normal((10, 4, 4))
    with pytest.raises(ValueError):
        initial_estimator(xs, (5, 2))
    with pytest.raises(ValueError):
        initial_estimator(xs, (2, 2, 2))
    with pytest.raises(ValueError):
        initial_estimator(xs[:0], (2, 2))
    with pytest.raises(ValueError, match="ranks must be integers"):
        initial_estimator(xs, (1.9, 2))
    assert initial_estimator(xs, (np.int64(1), 2)).ranks == (1, 2)


def test_initial_estimator_worse_than_converged():
    ds = gen_dataset(
        DgpConfig(dims=(10, 10, 10), T=200, ranks=(3, 3, 3), seed=1),
        rng=replication_rng(1, 0),
    )
    ie = initial_estimator(ds.observations, (3, 3, 3))
    result = fit(ds.observations, EstimationConfig(ranks=(3, 3, 3), method="ls"))
    d_ie = subspace_distance(ie.mats[0], ds.true_loadings.mats[0])
    d_fit = subspace_distance(result.loadings.mats[0], ds.true_loadings.mats[0])
    assert d_fit < d_ie


# --- Gram kernel ---------------------------------------------------------------

def gram_whole(ys, k, weights=None):
    # the whole-series form: one GEMM on one copy of the sqrt(w)-scaled
    # (q_k, T n) matrix of mode-k fibres
    q_k = ys.shape[k + 1]
    u = ys.reshape(math.prod(ys.shape[:k + 1]), q_k, -1).swapaxes(0, 1)
    u = u.reshape(q_k, ys.shape[0], -1)
    if weights is not None:
        u = u * np.sqrt(weights)[:, None]
    u = u.reshape(q_k, -1)
    return u @ u.T


@pytest.mark.parametrize("dims, T", [
    pytest.param((20, 20, 20), 203, id="uneven-blocks"),
    pytest.param((200, 30, 30), 3, id="slice-larger-than-block"),
    pytest.param((6, 5, 4), 1, id="T1"),
    pytest.param((50,), 3000, id="K1"),
    pytest.param((8, 7, 6, 5), 70, id="K4"),
])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_gram_matches_whole_series_oracle(dims, T, weighted):
    gen = np.random.default_rng(40)
    ys = gen.standard_normal((T, *dims))
    weights = gen.uniform(0.05, 0.5, T) if weighted else None
    assert len(_time_blocks(T, dims)) > 1 or T == 1
    for k in range(len(dims)):  # the last mode is the trailing one
        got = estimation._gram(ys, k, weights)
        want = gram_whole(ys, k, weights)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("call", [
    lambda x: initial_estimator(x, (2, 2)),
    lambda x: fit(x, EstimationConfig(ranks=(2, 2))),
    lambda x: fit(x, EstimationConfig(ranks=(2, 2), method="huber")),
], ids=["initial_estimator", "fit-ls", "fit-huber"])
def test_gram_overflow_in_block_sum_is_numerical_error(call):
    # one 512 KB slice per time block: each block's mode-0 diagonal is
    # 256 c^2 = 1e308, finite, and the sum of the two blocks overflows
    dims = (256, 256)
    assert len(_time_blocks(2, dims)) == 2
    c = math.sqrt(1e308 / 256)
    x = c * np.random.default_rng(41).choice([-1.0, 1.0], size=(2, *dims))
    assert np.isfinite(estimation._gram(x[:1], 0)).all()
    with pytest.raises(NumericalError):
        call(x)


def test_initial_estimator_peak_memory():
    # the Grams run over time blocks, so no series-sized copy is made
    x = gen_dataset(DgpConfig(dims=(20, 20, 20), T=200, ranks=(3, 3, 3),
                              noise_law="tensor_t", seed=42)).observations
    tracemalloc.start()
    try:
        initial_estimator(x, (3, 3, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * x.nbytes


# --- projection covariance -----------------------------------------------------

def test_projection_cov_zero_data():
    xs = np.zeros((3, 4, 5))
    m, w = _sweep_cov(xs, list(identity_loadings((4, 5), (2, 2)).mats), 0)
    assert np.array_equal(m, np.zeros((4, 4)))
    assert w is None


def test_projection_cov_half_weights():
    # tau = inf puts every slice in the quadratic regime, weight 1/2
    xs = rng.standard_normal((6, 4, 5))
    mats = list(identity_loadings((4, 5), (2, 2)).mats)
    full, _ = _sweep_cov(xs, mats, 0)
    halved, w = _sweep_cov(xs, mats, 0, (np.inf, np.sum(xs.reshape(6, -1) ** 2, axis=1)))
    assert np.array_equal(w, np.full(6, 0.5))
    assert np.allclose(halved, full / 2.0, atol=1e-15)


def test_projection_cov_full_basis_single_slice():
    xs = rng.standard_normal((1, 4, 3, 2))
    p = 24
    mats = list(identity_loadings((4, 3, 2), (4, 3, 2)).mats)
    for k in range(3):
        m, _ = _sweep_cov(xs, mats, k)
        u = series_unfold(xs, k)[0]
        assert np.allclose(m, u @ u.T / p, atol=1e-12)


def test_projection_cov_dense_oracle():
    xs = rng.standard_normal((5, 3, 4, 2))
    loadings = LoadingSet(tuple(
        math.sqrt(d) * np.linalg.qr(rng.standard_normal((d, r)))[0]
        for d, r in zip((3, 4, 2), (2, 2, 1))
    ))
    mats = list(loadings.mats)
    scales = residual_scales(xs, loadings)
    tau = float(np.median(scales))
    m, w = _sweep_cov(xs, mats, 0, (tau, np.sum(xs.reshape(5, -1) ** 2, axis=1)))
    assert np.allclose(w, _weights_from_scales(scales, tau), rtol=1e-12, atol=0)
    assert (w < 0.5).any()
    b = kron_excluding(mats, 0)
    by_hand = np.zeros((3, 3))
    for t in range(5):
        g = series_unfold(xs, 0)[t] @ b
        by_hand += w[t] * g @ g.T
    by_hand /= 5 * 24 * 8
    assert np.allclose(m, by_hand, atol=1e-13)


# --- Huber pieces --------------------------------------------------------------

def test_residual_scales_exact_construction():
    dims, ranks = (4, 4, 4), (2, 2, 2)
    loadings = identity_loadings(dims, ranks)
    xs = off_support_series(dims, ranks, [1.0, 2.0, 3.0])
    assert np.allclose(residual_scales(xs, loadings), [1.0, 2.0, 3.0], atol=1e-12)


def test_residual_scales_match_direct_residual():
    ds = gen_dataset(DgpConfig(dims=(6, 5, 4), T=12, ranks=(2, 2, 2), seed=8))
    loadings = initial_estimator(ds.observations, (2, 2, 2))
    s = residual_scales(ds.observations, loadings)
    p = 6 * 5 * 4
    factors = extract_factors(ds.observations, loadings)
    resid = ds.observations - common_components(loadings, factors)
    direct = np.sqrt(np.sum(resid.reshape(12, -1) ** 2, axis=1) / p)
    assert np.allclose(s, direct, atol=1e-10)


@pytest.mark.parametrize("ratio", [1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12])
def test_residual_scales_accurate_at_high_signal_to_residual(ratio):
    # ||signal_t||^2 / ||residual_t||^2 = ratio, with the residual orthogonal
    # to random loadings, so its own norm is the exact scale
    dims, ranks, t_len = (6, 5, 4), (2, 2, 2), 8
    gen = np.random.default_rng(21)
    loadings = LoadingSet(tuple(
        math.sqrt(d) * np.linalg.qr(gen.standard_normal((d, r)))[0] for d, r in zip(dims, ranks)
    ))
    signal = common_components(loadings, gen.standard_normal((t_len, *ranks)))
    noise = gen.standard_normal((t_len, *dims))
    resid = noise - common_components(loadings, extract_factors(noise, loadings))
    sig2 = np.sum(signal.reshape(t_len, -1) ** 2, axis=1)
    res2 = np.sum(resid.reshape(t_len, -1) ** 2, axis=1)
    resid *= np.sqrt(sig2 / (ratio * res2)).reshape(t_len, 1, 1, 1)
    p = math.prod(dims)
    expected = np.sqrt(np.sum(resid.reshape(t_len, -1) ** 2, axis=1) / p)
    s = residual_scales(signal + resid, loadings)
    assert np.max(np.abs(s - expected) / expected) <= 1e-6


def test_residual_scales_trace_identity_kept_on_noisy_data():
    # every slice keeps well over 1e-4 of its energy off the projection, so
    # the scales are exactly the trace identity's
    ds = gen_dataset(DgpConfig(dims=(6, 5, 4), T=12, ranks=(2, 2, 2), seed=8))
    loadings = initial_estimator(ds.observations, (2, 2, 2))
    p = 6 * 5 * 4
    flat = ds.observations.reshape(12, -1)
    core = series_multi_mode_product(ds.observations, loadings.mats, transpose=True).reshape(12, -1)
    xnorm2 = np.einsum("ti,ti->t", flat, flat)
    cnorm2 = np.einsum("ti,ti->t", core, core)
    identity = np.sqrt(np.maximum(xnorm2 - cnorm2 / p, 0.0) / p)
    assert np.array_equal(residual_scales(ds.observations, loadings), identity)


def test_huber_weights_quadratic_regime():
    dims, ranks = (4, 4, 4), (2, 2, 2)
    loadings = identity_loadings(dims, ranks)
    xs = off_support_series(dims, ranks, [1.0, 2.0, 3.0])
    w = _weights_from_scales(residual_scales(xs, loadings), np.inf)
    assert np.array_equal(w, np.full(3, 0.5))


def test_huber_weights_noiseless():
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2))
    loadings = initial_estimator(ds.true_common, (2, 2, 2))
    w = _weights_from_scales(residual_scales(ds.true_common, loadings), 1.0)
    assert np.allclose(w, 0.5, atol=1e-12)


def test_huber_weights_downweight_outlier():
    dims, ranks = (4, 4, 4), (2, 2, 2)
    loadings = identity_loadings(dims, ranks)
    xs = off_support_series(dims, ranks, [1.0, 2.0, 4.0])
    w = _weights_from_scales(residual_scales(xs, loadings), 2.0)
    assert np.allclose(w, [0.5, 0.5, 0.25], atol=1e-14)


def test_default_tau_median():
    dims, ranks = (4, 4, 4), (2, 2, 2)
    loadings = identity_loadings(dims, ranks)
    xs = off_support_series(dims, ranks, [1.0, 2.0, 3.0])
    assert default_tau(xs, loadings) == pytest.approx(2.0, abs=1e-12)
    xs_const = off_support_series(dims, ranks, [1.5, 1.5, 1.5, 1.5])
    assert default_tau(xs_const, loadings) == pytest.approx(1.5, abs=1e-12)


def test_default_tau_low_rank_floor():
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2))
    result = fit(ds.true_common, EstimationConfig(ranks=(2, 2, 2), method="ls"))
    with pytest.warns(RuntimeWarning):
        tau = default_tau(ds.true_common, result.loadings)
    assert tau == 1e-12


def test_default_tau_deterministic():
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=50, ranks=(3, 3, 3), seed=6))
    loadings = initial_estimator(ds.observations, (3, 3, 3))
    assert default_tau(ds.observations, loadings) == default_tau(ds.observations, loadings)


# --- fit -----------------------------------------------------------------------

@pytest.mark.parametrize("method", ["ls", "huber"])
def test_fit_noiseless_exact_recovery(method):
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=30, ranks=(2, 2, 2), seed=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # tau floor on exact data
        result = fit(ds.true_common, EstimationConfig(ranks=(2, 2, 2), method=method))
    assert result.converged
    assert result.iterations_run <= 2
    for k in range(3):
        assert subspace_distance(result.loadings.mats[k], ds.true_loadings.mats[k]) <= 1e-8
    s_hat = common_components(result.loadings, result.factors)
    err = np.sqrt(np.sum((s_hat - ds.true_common) ** 2) / np.sum(ds.true_common**2))
    assert err <= 1e-8


def test_fit_huber_noiseless_weights_all_half():
    # every true residual scale is zero, so no slice may be down-weighted
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=30, ranks=(2, 2, 2), seed=3))
    config = EstimationConfig(ranks=(2, 2, 2), method="huber", record_diagnostics=True)
    with pytest.warns(RuntimeWarning, match="tau floored"):
        result = fit(ds.true_common, config)
    for w in result.diagnostics["weights"]:
        assert np.array_equal(w, np.full(30, 0.5))


def test_fit_huber_infinite_tau_equals_ls():
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=11, noise_law="tensor_t"))
    ls = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="ls"))
    hub = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="huber", tau=1e18))
    for k in range(3):
        assert subspace_distance(ls.loadings.mats[k], hub.loadings.mats[k]) <= 1e-10


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_fit_scale_invariance(method):
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=12))
    config = EstimationConfig(ranks=(2, 2, 2), method=method)
    base = fit(ds.observations, config)
    scaled = fit(5.0 * ds.observations, config)
    for k in range(3):
        assert subspace_distance(base.loadings.mats[k], scaled.loadings.mats[k]) <= 1e-10


def test_fit_normalization_invariant():
    ds = gen_dataset(DgpConfig(dims=(7, 6, 5), T=40, ranks=(2, 2, 2), seed=13))
    result = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="huber"))
    for a in result.loadings.mats:
        gram = a.T @ a / a.shape[0]
        assert np.max(np.abs(gram - np.eye(a.shape[1]))) <= 1e-8


def test_fit_deterministic():
    ds = gen_dataset(DgpConfig(dims=(6, 6, 6), T=30, ranks=(2, 2, 2), seed=14))
    config = EstimationConfig(ranks=(2, 2, 2), method="huber")
    r1 = fit(ds.observations, config)
    r2 = fit(ds.observations, config)
    for k in range(3):
        assert np.array_equal(r1.loadings.mats[k], r2.loadings.mats[k])
    assert np.array_equal(r1.factors, r2.factors)
    assert r1.tau_used == r2.tau_used


def one_sweep_reference(xs, ranks, method):
    """Single alternating sweep with materialized Kronecker projection factors."""
    t_len = xs.shape[0]
    dims = xs.shape[1:]
    p = math.prod(dims)
    ie = initial_estimator(xs, ranks)
    mats = list(ie.mats)
    tau = default_tau(xs, ie) if method == "huber" else None
    xnorm2 = np.sum(xs.reshape(t_len, -1) ** 2, axis=1)
    for k in range(len(dims)):
        b = kron_excluding(mats, k)
        u = series_unfold(xs, k)
        g = u @ b
        if method == "huber":
            core = np.matmul(mats[k].T, g)
            cnorm2 = np.sum(core.reshape(t_len, -1) ** 2, axis=1)
            s = np.sqrt(np.maximum(xnorm2 - cnorm2 / p, 0.0) / p)
            w = np.where(s <= tau, 0.5, 0.5 * tau / s)
            m = np.einsum("t,tij,tkj->ik", w, g, g)
        else:
            m = np.einsum("tij,tkj->ik", g, g)
        m /= t_len * p * (p // dims[k])
        pair = sym_eig(m, count=ranks[k])
        mats[k] = math.sqrt(dims[k]) * pair.vectors
    return mats


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_fit_single_sweep_matches_kron_reference(method):
    ds = gen_dataset(DgpConfig(dims=(5, 4, 3), T=25, ranks=(2, 2, 2), seed=15))
    result = fit(
        ds.observations,
        EstimationConfig(ranks=(2, 2, 2), method=method, max_iter=1, tol=0.0),
    )
    reference = one_sweep_reference(ds.observations, (2, 2, 2), method)
    assert result.iterations_run == 1
    for k in range(3):
        assert subspace_distance(result.loadings.mats[k], reference[k]) <= 1e-10


def test_fit_factor_formula():
    ds = gen_dataset(DgpConfig(dims=(6, 5, 4), T=20, ranks=(2, 2, 2), seed=16))
    result = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2)))
    p = 6 * 5 * 4
    for t in range(0, 20, 7):
        manual = multi_mode_product(
            ds.observations[t], [a.T for a in result.loadings.mats]
        ) / p
        assert np.allclose(result.factors[t], manual, atol=1e-12)
    assert np.array_equal(
        result.factors, extract_factors(ds.observations, result.loadings)
    )


def test_fit_iteration_bookkeeping():
    ds = gen_dataset(DgpConfig(dims=(6, 6, 6), T=30, ranks=(2, 2, 2), seed=17))
    result = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2)))
    assert len(result.per_iteration_subspace_change) == result.iterations_run
    assert result.converged
    assert result.per_iteration_subspace_change[-1] < 1e-6
    assert result.tau_used is None


def normalized(p, r, generator):
    return math.sqrt(p) * np.linalg.qr(generator.standard_normal((p, r)))[0]


@pytest.mark.parametrize("p, r", [(1, 1), (5, 1), (6, 3), (10, 3), (4, 4), (20, 7)])
def test_subspace_change_matches_subspace_distance(p, r):
    generator = np.random.default_rng(p * 100 + r)
    for _ in range(20):
        a, b = normalized(p, r, generator), normalized(p, r, generator)
        assert abs(_subspace_change(a, b) - subspace_distance(a, b)) <= 1e-12
        # a small perturbation: the distance near 0 stays accurate
        c = normalized(p, r, generator) * 1e-7 + a
        c = math.sqrt(p) * np.linalg.qr(c)[0]
        assert abs(_subspace_change(a, c) - subspace_distance(a, c)) <= 1e-12
        assert _subspace_change(a, a) == 0.0
        assert _subspace_change(a, a[:, ::-1]) <= 1e-15  # same span, other basis


def test_subspace_change_orthogonal_spans():
    a = math.sqrt(6) * np.eye(6)[:, :3]
    b = math.sqrt(6) * np.eye(6)[:, 3:]
    assert _subspace_change(a, b) == 1.0 == subspace_distance(a, b)


@pytest.mark.parametrize("method", ["ls", "huber"])
@pytest.mark.parametrize("dims, ranks, T, law", [
    ((10, 10, 10), (3, 3, 3), 50, "tensor_normal"),
    ((10, 10, 10), (3, 3, 3), 20, "tensor_t"),
    ((12,), (3,), 40, "tensor_t"),
    ((6, 4), (2, 4), 30, "tensor_normal"),
], ids=["A-normal", "A-t3", "K1", "full-rank-mode"])
def test_fit_stop_rule_matches_subspace_distance(monkeypatch, method, dims, ranks, T, law):
    # the stop rule's own distance gives the same sweeps, loadings and factors
    # as the public subspace_distance it replaces
    x = gen_dataset(DgpConfig(dims=dims, T=T, ranks=ranks, noise_law=law, seed=41)).observations
    config = EstimationConfig(ranks=ranks, method=method)
    got = fit(x, config)
    monkeypatch.setattr(estimation, "_subspace_change", subspace_distance)
    want = fit(x, config)
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged
    for a, b in zip(got.loadings.mats, want.loadings.mats):
        assert np.array_equal(a, b)
    assert np.array_equal(got.factors, want.factors)
    np.testing.assert_allclose(got.per_iteration_subspace_change,
                               want.per_iteration_subspace_change, rtol=0, atol=1e-12)


def test_fit_fixed_tau_recorded():
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=15, ranks=(2, 2, 2), seed=18))
    result = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="huber", tau=0.7))
    assert result.tau_used == 0.7


def test_fit_diagnostics_payload():
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=15, ranks=(2, 2, 2), seed=19))
    result = fit(
        ds.observations,
        EstimationConfig(ranks=(2, 2, 2), method="huber", record_diagnostics=True),
    )
    assert set(result.diagnostics) == {"warnings", "eigenvalues", "weights"}
    assert len(result.diagnostics["weights"]) == 3
    assert all(w.shape == (15,) for w in result.diagnostics["weights"])
    plain = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2)))
    assert plain.diagnostics is None


def test_fit_errors():
    xs = rng.standard_normal((10, 4, 4))
    bad = xs.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        fit(bad, EstimationConfig(ranks=(2, 2)))
    with pytest.raises(ValueError):
        fit(xs, EstimationConfig(ranks=(5, 2)))


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_fit_overflowing_initial_covariance_is_numerical_error(method):
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2))
    with pytest.raises(NumericalError):
        fit(1e160 * ds.observations, EstimationConfig(ranks=(2, 2, 2), method=method))


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_fit_overflowing_projected_covariance_is_numerical_error(method):
    # scaled so that the initial Grams stay finite but the projected ones,
    # up to p_{-k} = 25 times larger on exactly low-rank data, overflow
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=10, ranks=(2, 2, 2), seed=2))
    x = ds.true_common
    gram_max = max(np.max(np.sum(series_unfold(x, k) ** 2, axis=(0, 2))) for k in range(3))
    x = x * math.sqrt(0.2 * np.finfo(float).max / gram_max)
    initial_estimator(x, (2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # tau floor on exact data
        with pytest.raises(NumericalError):
            fit(x, EstimationConfig(ranks=(2, 2, 2), method=method))


# --- factor extraction / reconstruction ----------------------------------------

def test_common_components_zero_factors():
    loadings = identity_loadings((4, 4), (2, 2))
    assert np.array_equal(common_components(loadings, np.zeros((5, 2, 2))), np.zeros((5, 4, 4)))


def test_common_components_matches_mode_products():
    loadings = identity_loadings((5, 4, 3), (2, 2, 2))
    factors = rng.standard_normal((6, 2, 2, 2))
    out = common_components(loadings, factors)
    for t in range(6):
        assert np.allclose(out[t], multi_mode_product(factors[t], loadings.mats), atol=1e-13)


def test_huber_fit_validates_series_once(monkeypatch):
    from rtfa import estimation

    calls = []

    def counting(x, _check=estimation._check_series):
        calls.append(1)
        return _check(x)

    monkeypatch.setattr(estimation, "_check_series", counting)
    ds = gen_dataset(DgpConfig(dims=(6, 6, 6), T=20, ranks=(2, 2, 2), seed=31))
    fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="huber"))
    assert len(calls) == 1


@pytest.mark.parametrize("call", [
    lambda x, ls: initial_estimator(x, (2, 2)),
    lambda x, ls: residual_scales(x, ls),
    lambda x, ls: default_tau(x, ls),
    lambda x, ls: extract_factors(x, ls),
    lambda x, ls: fit(x, EstimationConfig(ranks=(2, 2), method="huber")),
    lambda x, ls: fit(x, EstimationConfig(ranks=(2, 2))),
    lambda x, ls: fit(x, EstimationConfig(ranks=(2, 2), method="huber", tau=1.0)),
    lambda x, ls: estimate_ranks(x, RankConfig(r_max=2)),
    lambda x, ls: estimate_ranks(x, RankConfig(r_max=2, method="huber")),
])
def test_public_series_functions_reject_non_finite(call):
    # each function checks the values where it first reads them, and raises
    # before any arithmetic on them can warn
    series = rng.standard_normal((10, 4, 4))
    for value in (np.nan, np.inf, -np.inf):
        for at in ((0, 0, 0), (3, 1, 2), (9, 0, 3), (9, 3, 3)):
            bad = series.copy()
            bad[at] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(NumericalError, match="non-finite values in input series"):
                    call(bad, identity_loadings((4, 4), (2, 2)))
