import math

import numpy as np
import pytest
from conftest import kron_excluding

from rtfa import (
    DgpConfig,
    EstimationConfig,
    RankConfig,
    eigenvalue_ratio_pick,
    fold,
    gen_factors,
    gen_noise,
    mode_product,
    multi_mode_product,
    rate_constants,
    replication_rng,
    run_monte_carlo,
    series_mode_product,
    series_multi_mode_product,
    series_unfold,
    sym_eig,
    unfold,
    varimax,
)

rng = np.random.default_rng(0)


def oracle_unfold(x, k):
    """Mode k to the front, the other modes flattened mode-1-major."""
    return np.moveaxis(x, k, 0).reshape(x.shape[k], -1, order="F")


def oracle_mode_product(x, k, a):
    """The tensordot form of the mode-k product, independent of the series kernels."""
    return np.moveaxis(np.tensordot(a, x, axes=(1, k)), 0, k)


def oracle_multi_mode_product(x, mats, transpose=False):
    for k, a in enumerate(mats):
        x = oracle_mode_product(x, k, a.T if transpose else a)
    return x

# 2x2x2 tensor with entries 1..8 in storage (mode-1-major) order
CUBE = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
CUBE_UNFOLDS = {
    0: np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]]),
    1: np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]]),
    2: np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]),
}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_unfold_cube_oracle(k):
    assert np.array_equal(unfold(CUBE, k), CUBE_UNFOLDS[k])


def test_unfold_zero_tensor():
    assert np.array_equal(unfold(np.zeros((3, 4, 2)), 1), np.zeros((4, 6)))


def test_unfold_bad_mode():
    with pytest.raises(ValueError):
        unfold(CUBE, 3)
    with pytest.raises(ValueError):
        unfold(CUBE, -1)


def test_fold_cube_oracle():
    assert np.array_equal(fold(CUBE_UNFOLDS[0], 0, (2, 2, 2)), CUBE)


def test_fold_zero_matrix():
    assert np.array_equal(fold(np.zeros((4, 6)), 1, (3, 4, 2)), np.zeros((3, 4, 2)))


def test_fold_shape_mismatch():
    with pytest.raises(ValueError):
        fold(np.zeros((4, 5)), 1, (3, 4, 2))


def test_fold_rejects_non_integer_dims():
    with pytest.raises(ValueError, match="must be integers"):
        fold(np.zeros((2, 2)), 0, (2.5, 2))  # int() used to truncate it to 2


def _dgp(**change):
    return DgpConfig(**{"dims": (5, 5), "T": 10, "ranks": (2, 2), **change})


_SPECTRUM = [10.0, 9.0, 0.1, 0.09, 0.08]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _dgp(T=True), "T and burn_in must be integers", id="dgp-T"),
    pytest.param(lambda: _dgp(dims=(True, 5), ranks=(1, 2)), "dims must be integers",
                 id="dgp-dims"),
    pytest.param(lambda: _dgp(ranks=(True, 2)), "ranks must be integers", id="dgp-ranks"),
    pytest.param(lambda: EstimationConfig(ranks=(True, 2)), "ranks must be integers",
                 id="estimation-ranks"),
    pytest.param(lambda: EstimationConfig(ranks=(2, 2), max_iter=True),
                 "max_iter must be integers", id="estimation-max_iter"),
    pytest.param(lambda: RankConfig(r_max=True), "r_max must be integers", id="rank-r_max"),
    pytest.param(lambda: RankConfig(max_iter=True), "max_iter must be integers",
                 id="rank-max_iter"),
    pytest.param(lambda: run_monte_carlo(_dgp(), EstimationConfig(ranks=(2, 2)), reps=True),
                 "reps must be integers", id="mc-reps"),
    pytest.param(lambda: run_monte_carlo(_dgp(), EstimationConfig(ranks=(2, 2)), reps=1,
                                         workers=False), "workers must be integers",
                 id="mc-workers"),
    pytest.param(lambda: eigenvalue_ratio_pick(_SPECTRUM, 0.0, True), "r_max must be integers",
                 id="ratio-pick-r_max"),
    pytest.param(lambda: sym_eig(np.eye(3), count=True), "count must be integers",
                 id="sym_eig-count"),
    pytest.param(lambda: rate_constants((3, 3), True), "T must be integers",
                 id="rate-constants-T"),
    pytest.param(lambda: rate_constants((3, True), 10), "dims must be integers",
                 id="rate-constants-dims"),
    pytest.param(lambda: fold(np.zeros((1, 2)), 0, (True, 2)), "dims must be integers",
                 id="fold-dims"),
    pytest.param(lambda: replication_rng(True), "seed must be integers", id="rng-seed"),
    pytest.param(lambda: replication_rng(1, True), "rep must be integers", id="rng-rep"),
    # a seed is checked where it is given, not first by SeedSequence at the draw
    pytest.param(lambda: _dgp(seed=True), "seed must be integers", id="dgp-seed-bool"),
    pytest.param(lambda: _dgp(seed=2.5), "seed must be integers", id="dgp-seed-float"),
    pytest.param(lambda: _dgp(seed="3"), "seed must be integers", id="dgp-seed-str"),
    pytest.param(lambda: _dgp(seed=-1), "seed must be >= 0", id="dgp-seed-negative"),
    pytest.param(lambda: replication_rng(2.5), "seed must be integers", id="rng-seed-float"),
    pytest.param(lambda: replication_rng(-1, 0), "seed must be >= 0", id="rng-seed-negative"),
])
def test_integer_rule_refuses_bools_and_bad_seeds(call, message):
    # bool is a numbers.Integral, so the rule must refuse True rather than read it as 1
    with pytest.raises(ValueError, match=message):
        call()


def test_configs_store_plain_ints():
    dgp = _dgp(T=np.int64(7), burn_in=np.int32(3), seed=np.uint8(4))
    est = EstimationConfig(ranks=(2, 2), max_iter=np.int64(5))
    rank = RankConfig(r_max=np.int16(4), max_iter=np.int64(3))
    values = (dgp.T, dgp.burn_in, dgp.seed, est.max_iter, rank.r_max, rank.max_iter)
    assert values == (7, 3, 4, 5, 4, 3)
    assert all(type(v) is int for v in values)


# Each real-valued setting, as a call that sets it to v, and the name its error gives.
_REAL_SETTINGS = [
    pytest.param(lambda v: EstimationConfig(ranks=(2, 2), method="huber", tau=v), "tau",
                 id="estimation-tau"),
    pytest.param(lambda v: EstimationConfig(ranks=(2, 2), tol=v), "tol", id="estimation-tol"),
    pytest.param(lambda v: RankConfig(method="huber", tau=v), "tau", id="rank-tau"),
    pytest.param(lambda v: RankConfig(c=v), "c must be", id="rank-c"),
    pytest.param(lambda v: eigenvalue_ratio_pick(_SPECTRUM, v, 2), "penalty",
                 id="ratio-pick-penalty"),
    pytest.param(lambda v: _dgp(phi=v), "phi", id="dgp-phi"),
    pytest.param(lambda v: _dgp(psi=v), "psi", id="dgp-psi"),
    pytest.param(lambda v: _dgp(noise_law="tensor_t", t_dof=v), "t_dof", id="dgp-t_dof"),
    pytest.param(lambda v: gen_factors((2, 2), 5, v, replication_rng(0)), "phi",
                 id="factors-phi"),
    pytest.param(lambda v: gen_noise((3, 3), 5, v, replication_rng(0)), "psi", id="noise-psi"),
    pytest.param(lambda v: gen_noise((3, 3), 5, 0.1, replication_rng(0), law="tensor_t", dof=v),
                 "t_dof", id="noise-dof"),
    pytest.param(lambda v: varimax(np.eye(3)[:, :2], tol=v), "tol", id="varimax-tol"),
]


@pytest.mark.parametrize("value", [True, False, math.inf, -math.inf, "0.5",
                                   pytest.param(10**400, id="int-over-float-max")])
@pytest.mark.parametrize("call, name", _REAL_SETTINGS)
def test_real_rule_refuses_bools_infinities_and_strings(call, name, value):
    # a bool used to pass as 0 or 1, t_dof=inf drew an all-NaN series, and an
    # int too large for a float raised OverflowError
    with pytest.raises(ValueError, match=name):
        call(value)


@pytest.mark.parametrize("ranks", [(0, 2), ()])
def test_estimation_config_refuses_empty_or_zero_ranks(ranks):
    with pytest.raises(ValueError, match="ranks must be non-empty and positive"):
        EstimationConfig(ranks=ranks)


def test_configs_store_plain_floats():
    dgp = _dgp(phi=np.float64(0.1), psi=np.float32(0.25), t_dof=np.int64(5))
    est = EstimationConfig(ranks=(2, 2), method="huber", tau=np.float64(1.5), tol=0)
    rank = RankConfig(c=0, tau=2)
    values = (dgp.phi, dgp.psi, dgp.t_dof, est.tau, est.tol, rank.c, rank.tau)
    assert values == (0.1, 0.25, 5.0, 1.5, 0.0, 0.0, 2.0)
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize(
    "dims",
    [(5,), (3, 4), (3, 4, 2), (2, 3, 2, 4)],
)
def test_unfold_fold_round_trip_bit_exact(dims):
    x = rng.standard_normal(dims)
    for k in range(len(dims)):
        assert np.array_equal(fold(unfold(x, k), k, dims), x)


def test_mode_product_identity():
    x = rng.standard_normal((3, 4, 2))
    for k, d in enumerate(x.shape):
        assert np.array_equal(mode_product(x, k, np.eye(d)), x)


def test_mode_product_row_scaling():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = mode_product(x, 0, np.diag([2.0, 3.0]))
    assert np.array_equal(out, np.array([[2.0, 4.0], [9.0, 12.0]]))


def test_mode_product_hand_case():
    # x stores (1,2,3,4) mode-1-major; contracting mode 1 with [[1,1],[0,1]]
    x = np.array([[1.0, 3.0], [2.0, 4.0]])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(mode_product(x, 1, a), np.array([[4.0, 3.0], [6.0, 4.0]]))


def test_mode_product_matches_unfold():
    x = rng.standard_normal((3, 3, 3))
    a = rng.standard_normal((2, 3))
    out = mode_product(x, 1, a)
    assert np.allclose(unfold(out, 1), a @ unfold(x, 1), atol=1e-13)


def test_mode_product_entry_formula():
    x = rng.standard_normal((2, 3, 2))
    a = rng.standard_normal((4, 3))
    out = mode_product(x, 1, a)
    for i in range(2):
        for j in range(4):
            for l in range(2):
                assert out[i, j, l] == pytest.approx(np.dot(a[j], x[i, :, l]), abs=1e-13)


def test_mode_product_dimension_mismatch():
    with pytest.raises(ValueError):
        mode_product(rng.standard_normal((3, 4)), 0, rng.standard_normal((2, 5)))


def test_multi_mode_product_identity():
    x = rng.standard_normal((3, 4, 2))
    mats = [np.eye(d) for d in x.shape]
    assert np.array_equal(multi_mode_product(x, mats), x)


def test_multi_mode_product_rank_one_outer():
    a = rng.standard_normal((4, 1))
    b = rng.standard_normal((5, 1))
    c = rng.standard_normal((3, 1))
    core = np.ones((1, 1, 1))
    out = multi_mode_product(core, [a, b, c])
    expected = np.einsum("i,j,k->ijk", a[:, 0], b[:, 0], c[:, 0])
    assert np.allclose(out, expected, atol=1e-14)


def test_multi_mode_product_order_independence():
    f = rng.standard_normal((2, 3, 2))
    mats = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)), rng.standard_normal((6, 2))]
    forward = multi_mode_product(f, mats)
    backward = f
    for k in reversed(range(3)):
        backward = mode_product(backward, k, mats[k])
    assert np.allclose(forward, backward, atol=1e-12)


def test_multi_mode_product_transpose():
    f = rng.standard_normal((2, 3))
    mats = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3))]
    out = multi_mode_product(multi_mode_product(f, mats), mats, transpose=True)
    expected = mats[0].T @ mats[0] @ f @ mats[1].T @ mats[1]
    assert np.allclose(out, expected, atol=1e-12)


def test_multi_mode_product_count_mismatch():
    with pytest.raises(ValueError):
        multi_mode_product(rng.standard_normal((3, 4)), [np.eye(3)])


def test_kron_excluding_matches_manual_chain():
    mats = [rng.standard_normal((d, 2)) for d in (3, 4, 2)]
    assert np.allclose(kron_excluding(mats, 0), np.kron(mats[2], mats[1]), atol=1e-14)
    assert np.allclose(kron_excluding(mats, 1), np.kron(mats[2], mats[0]), atol=1e-14)
    assert np.allclose(kron_excluding(mats, 2), np.kron(mats[1], mats[0]), atol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_multilinear_kron_identity(k):
    # unfold(F x_1 A_1 ... x_K A_K, k) = A_k unfold(F, k) B_k.T with
    # B_k = kron(A_K, ..., A_{k+1}, A_{k-1}, ..., A_1)
    f = rng.standard_normal((2, 3, 2))
    mats = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)), rng.standard_normal((6, 2))]
    left = unfold(multi_mode_product(f, mats), k)
    rest = [mats[j] for j in range(3) if j != k]
    b_k = np.kron(rest[1], rest[0])
    right = mats[k] @ unfold(f, k) @ b_k.T
    assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(right)))


def test_multilinear_kron_identity_order_four():
    f = rng.standard_normal((2, 2, 3, 2))
    mats = [rng.standard_normal((d, r)) for d, r in zip((4, 3, 5, 4), (2, 2, 3, 2))]
    for k in range(4):
        left = unfold(multi_mode_product(f, mats), k)
        b_k = np.ones((1, 1))
        for j in reversed(range(4)):
            if j != k:
                b_k = np.kron(b_k, mats[j])
        right = mats[k] @ unfold(f, k) @ b_k.T
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(right)))


def test_orthogonal_mode_product_preserves_norm():
    x = rng.standard_normal((4, 5, 3))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert np.linalg.norm(mode_product(x, 1, q)) == pytest.approx(
        np.linalg.norm(x), rel=1e-12
    )


def test_series_unfold_matches_per_slice():
    xs = rng.standard_normal((4, 3, 4, 2))
    for k in range(3):
        out = series_unfold(xs, k)
        for t in range(4):
            assert np.array_equal(out[t], oracle_unfold(xs[t], k))


def test_series_mode_product_matches_per_slice():
    xs = rng.standard_normal((4, 3, 4, 2))
    a = rng.standard_normal((2, 4))
    out = series_mode_product(xs, 1, a)
    for t in range(4):
        assert np.allclose(out[t], oracle_mode_product(xs[t], 1, a), atol=1e-13)


def test_series_multi_mode_product_matches_per_slice():
    xs = rng.standard_normal((4, 3, 4, 2))
    mats = [rng.standard_normal((2, 3)), rng.standard_normal((2, 4)), rng.standard_normal((2, 2))]
    out = series_multi_mode_product(xs, mats)
    for t in range(4):
        assert np.allclose(out[t], oracle_multi_mode_product(xs[t], mats), atol=1e-13)


SERIES_LAYOUTS = {
    "c": lambda xs: xs,
    "reversed_mode": lambda xs: xs[:, ::-1],
    "fortran": np.asfortranarray,
    "time_not_outermost": lambda xs: np.ascontiguousarray(np.swapaxes(xs, 0, 1)).swapaxes(0, 1),
}
SERIES_DIMS = [(5,), (4, 3), (3, 4, 2), (2, 3, 2, 4)]


@pytest.mark.parametrize("layout", SERIES_LAYOUTS)
@pytest.mark.parametrize("dims", SERIES_DIMS)
def test_series_mode_product_every_mode_and_layout(dims, layout):
    xs = SERIES_LAYOUTS[layout](rng.standard_normal((3, *dims)))
    for k, p_k in enumerate(dims):
        for d in (p_k - 1, p_k, p_k + 2):
            a = rng.standard_normal((d, p_k))
            out = series_mode_product(xs, k, a)
            assert out.flags.c_contiguous
            assert out.shape == (3, *dims[:k], d, *dims[k + 1:])
            for t in range(3):
                assert np.allclose(out[t], oracle_mode_product(xs[t], k, a), rtol=0, atol=1e-13)


@pytest.mark.parametrize("layout", SERIES_LAYOUTS)
@pytest.mark.parametrize("dims", SERIES_DIMS)
def test_series_multi_mode_product_every_layout(dims, layout):
    xs = SERIES_LAYOUTS[layout](rng.standard_normal((3, *dims)))
    mats = [rng.standard_normal((p_k + (k % 3) - 1, p_k)) for k, p_k in enumerate(dims)]
    out = series_multi_mode_product(xs, mats)
    back = series_multi_mode_product(out, mats, transpose=True)
    assert out.flags.c_contiguous and back.flags.c_contiguous
    for t in range(3):
        assert np.allclose(out[t], oracle_multi_mode_product(xs[t], mats), rtol=0, atol=1e-13)
        assert np.allclose(back[t], oracle_multi_mode_product(out[t], mats, transpose=True),
                           rtol=0, atol=1e-12)


def test_series_mode_product_errors():
    xs = rng.standard_normal((4, 3, 4, 2))
    with pytest.raises(ValueError):
        series_mode_product(xs, 3, rng.standard_normal((2, 2)))
    with pytest.raises(ValueError):
        series_mode_product(xs, -1, rng.standard_normal((2, 2)))
    with pytest.raises(ValueError):
        series_mode_product(xs, 1, rng.standard_normal((2, 3)))
    with pytest.raises(ValueError):
        series_mode_product(xs, 1, rng.standard_normal(4))


@pytest.mark.parametrize("dims", SERIES_DIMS)
def test_per_slice_functions_are_series_kernels_at_t1(dims):
    x = np.asfortranarray(rng.standard_normal(dims))
    mats = [rng.standard_normal((p_k + 1, p_k)) for p_k in dims]
    for k, a in enumerate(mats):
        out = mode_product(x, k, a)
        assert out.flags.c_contiguous
        assert np.array_equal(out, series_mode_product(x[None], k, a)[0])
        assert np.array_equal(unfold(x, k), series_unfold(x[None], k)[0])
    y = multi_mode_product(x, mats)
    assert np.array_equal(y, series_multi_mode_product(x[None], mats)[0])
    assert np.array_equal(multi_mode_product(y, mats, transpose=True),
                          series_multi_mode_product(y[None], mats, transpose=True)[0])


def uneven_blocks(n):
    # blocks of 1, 2, 3, ... slices, the last one whatever is left
    edges, size = [0], 1
    while edges[-1] < n:
        edges.append(min(n, edges[-1] + size))
        size += 1
    return list(zip(edges, edges[1:]))


def odd_blocks(n):
    # blocks of 3, 5, 7, ... slices, the last one whatever is left
    edges, size = [0], 3
    while edges[-1] < n:
        edges.append(min(n, edges[-1] + size))
        size += 2
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("dims, d, T, cut", [
    pytest.param((4, 300), 2, 40, uneven_blocks, id="wide-mode"),
    pytest.param((2, 204), 2, 40, uneven_blocks, id="wide-last-mode"),
    pytest.param((193, 3), 5, 30, uneven_blocks, id="width-193-rank-5"),
    pytest.param((40, 100), 32, 30, uneven_blocks, id="rank-32"),
    pytest.param((50,), 3, 1311, uneven_blocks, id="K1"),
    pytest.param((9, 9), 8, 61, odd_blocks, id="rank-8-odd-blocks"),
])
def test_series_products_contract_each_slice_on_its_own(dims, d, T, cut):
    # a slice's bits do not depend on the other slices in the call: the
    # products of the series equal, bit for bit, the same products over its
    # slices one at a time and over uneven blocks, for every mode, and both
    # contracting p_k terms to d and d terms to p_k
    gen = np.random.default_rng(40)
    xs = gen.standard_normal((T, *dims))
    ys = gen.standard_normal((T, *[d] * len(dims)))
    down = [gen.standard_normal((d, p_k)) for p_k in dims]
    up = [gen.standard_normal((p_k, d)) for p_k in dims]
    products = [lambda s, k=k: series_mode_product(s, k, down[k]) for k in range(len(dims))]
    products += [lambda s, k=k: series_mode_product(s, k, up[k]) for k in range(len(dims))]
    products.append(lambda s: series_multi_mode_product(s, down))
    products.append(lambda s: series_multi_mode_product(s, up))
    products.append(lambda s: series_multi_mode_product(s, up, transpose=True))
    inputs = [xs] * len(dims) + [ys] * len(dims) + [xs, ys, xs]
    singles = [(t, t + 1) for t in range(T)]
    for product, series in zip(products, inputs):
        whole = product(series)
        for blocks in (singles, cut(T)):
            got = np.concatenate([product(series[lo:hi]) for lo, hi in blocks])
            assert got.tobytes() == whole.tobytes()
