import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from rtfa import (
    ClusterTree,
    DgpConfig,
    EstimationConfig,
    common_components,
    complete_linkage,
    fit,
    gen_dataset,
    loading_distance_matrix,
    mse_common,
    orthonormal_basis,
    relative_mse,
    rolling_validation,
    subspace_distance,
)

rng = np.random.default_rng(2)


def test_orthonormal_basis_properties():
    a = rng.standard_normal((6, 3))
    q = orthonormal_basis(a)
    assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10
    # same column space: projector onto span(a) reproduces q
    proj = a @ np.linalg.solve(a.T @ a, a.T)
    assert np.max(np.abs(proj @ q - q)) <= 1e-10


def test_orthonormal_basis_rank_deficient():
    a = np.ones((5, 2))
    with pytest.raises(ValueError):
        orthonormal_basis(a)


def test_distance_zero_same_span():
    a = rng.standard_normal((8, 3))
    r = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    assert subspace_distance(a, a @ r) <= 1e-10


def test_distance_orthogonal_spans():
    e = np.eye(4)
    assert subspace_distance(e[:, :2], e[:, 2:]) == pytest.approx(1.0, abs=1e-12)


def test_distance_half_overlap():
    e = np.eye(4)
    a = e[:, [0, 1]]
    b = e[:, [0, 2]]
    assert subspace_distance(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_distance_symmetric_and_basis_free():
    a = rng.standard_normal((10, 3))
    b = rng.standard_normal((10, 3))
    d1 = subspace_distance(a, b)
    d2 = subspace_distance(b, a)
    assert d1 == pytest.approx(d2, abs=1e-12)
    ra = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    rb = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    assert subspace_distance(a @ ra, b @ rb) == pytest.approx(d1, abs=1e-10)


def test_distance_sign_diagonal_invariance():
    a = rng.standard_normal((7, 3))
    b = rng.standard_normal((7, 3))
    s = np.diag([1.0, -1.0, -1.0])
    assert subspace_distance(a @ s, b) == pytest.approx(subspace_distance(a, b), abs=1e-12)


def test_distance_range_and_shapes():
    a = rng.standard_normal((9, 2))
    b = rng.standard_normal((9, 2))
    d = subspace_distance(a, b)
    assert 0.0 <= d <= 1.0
    with pytest.raises(ValueError):
        subspace_distance(a, rng.standard_normal((9, 3)))


def test_distance_rank_deficient():
    a = np.ones((5, 2))
    with pytest.raises(ValueError):
        subspace_distance(a, np.eye(5)[:, :2])


def test_mse_common_zero_and_bias():
    s = rng.standard_normal((4, 3, 3))
    assert mse_common(s, s) == 0.0
    assert mse_common(s + 0.5, s) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        mse_common(s, s[:, :2])


def test_mse_common_formula():
    est = rng.standard_normal((5, 2, 3))
    truth = rng.standard_normal((5, 2, 3))
    by_hand = sum(np.sum((est[t] - truth[t]) ** 2) for t in range(5)) / (5 * 6)
    assert mse_common(est, truth) == pytest.approx(by_hand, rel=1e-12)


def test_relative_mse_oracles():
    x = rng.standard_normal((4, 3, 2))
    assert relative_mse(x, x) == 0.0
    assert relative_mse(x, np.zeros_like(x)) == pytest.approx(1.0, rel=1e-12)
    assert relative_mse(x, x / 2.0) == pytest.approx(0.25, rel=1e-12)
    with pytest.raises(ValueError):
        relative_mse(np.zeros_like(x), x)


def test_rolling_validation_noiseless():
    ds = gen_dataset(DgpConfig(dims=(6, 6, 6), T=40, ranks=(2, 2, 2), seed=9))
    est = EstimationConfig(ranks=(2, 2, 2))
    out = rolling_validation(ds.true_common, 2, 10, est)
    assert len(out) == 2
    assert all(v <= 1e-8 for v in out)


def test_rolling_validation_single_block_equals_split():
    ds = gen_dataset(DgpConfig(dims=(6, 6, 6), T=30, ranks=(2, 2, 2), seed=4))
    est = EstimationConfig(ranks=(2, 2, 2))
    out = rolling_validation(ds.observations, 2, 10, est)
    assert len(out) == 1
    from rtfa import extract_factors

    result = fit(ds.observations[:20], est)
    block = ds.observations[20:30]
    s_hat = common_components(result.loadings, extract_factors(block, result.loadings))
    assert out[0] == pytest.approx(relative_mse(block, s_hat), rel=1e-12)


def test_rolling_validation_window_too_long():
    ds = gen_dataset(DgpConfig(dims=(5, 5, 5), T=15, ranks=(2, 2, 2), seed=4))
    with pytest.raises(ValueError):
        rolling_validation(ds.observations, 2, 10, EstimationConfig(ranks=(2, 2, 2)))


def test_rolling_validation_robust_ordering_heavy_tails():
    ds = gen_dataset(
        DgpConfig(dims=(10, 10, 10), T=60, ranks=(3, 3, 3), noise_law="tensor_t", seed=7)
    )
    ls = rolling_validation(ds.observations, 2, 10, EstimationConfig(ranks=(3, 3, 3), method="ls"))
    hub = rolling_validation(
        ds.observations, 2, 10, EstimationConfig(ranks=(3, 3, 3), method="huber")
    )
    assert np.mean(hub) <= np.mean(ls)


def test_relative_mse_non_increasing_in_rank():
    ds = gen_dataset(DgpConfig(dims=(10, 10, 10), T=100, ranks=(3, 3, 3), seed=5))
    prev = None
    for r in (1, 2, 3, 4):
        res = fit(ds.observations, EstimationConfig(ranks=(r, r, r), method="ls"))
        s_hat = common_components(res.loadings, res.factors)
        val = relative_mse(ds.observations, s_hat)
        if prev is not None:
            assert val <= prev + 1e-12
        prev = val


def test_loading_distance_duplicate_rows():
    a = rng.standard_normal((5, 3))
    a[3] = a[1]
    d = loading_distance_matrix(a)
    assert d[1, 3] == 0.0
    assert d[3, 1] == 0.0
    assert np.array_equal(np.diag(d), np.zeros(5))
    assert np.array_equal(d, d.T)


def test_loading_distance_one_sd_difference():
    # column 0 has sample sd exactly 3; rows 0 and 1 differ by 3 only there
    a = np.array([[0.0, 1.0], [3.0, 1.0], [6.0, 7.0]])
    d = loading_distance_matrix(a)
    assert d[0, 1] == pytest.approx(1.0, abs=1e-14)


def test_loading_distance_brute_force():
    a = rng.standard_normal((6, 3))
    d = loading_distance_matrix(a)
    var = a.var(axis=0, ddof=1)
    for i in range(6):
        for j in range(6):
            expect = math.sqrt(np.sum((a[i] - a[j]) ** 2 / var))
            assert d[i, j] == pytest.approx(expect, abs=1e-12)


def test_loading_distance_zero_variance_column_dropped():
    a = rng.standard_normal((5, 3))
    a[:, 1] = 2.0
    with pytest.warns(UserWarning):
        d = loading_distance_matrix(a)
    b = a[:, [0, 2]]
    assert np.allclose(d, loading_distance_matrix(b), atol=1e-12)


def test_loading_distance_all_zero_variance():
    with pytest.raises(ValueError):
        loading_distance_matrix(np.ones((4, 2)))


def cophenetic_matrix(tree: ClusterTree, n: int) -> np.ndarray:
    members = {i: [i] for i in range(n)}
    coph = np.zeros((n, n))
    next_id = n
    for u, v, h in tree.merges:
        for i in members[u]:
            for j in members[v]:
                coph[i, j] = coph[j, i] = h
        members[next_id] = members.pop(u) + members.pop(v)
        next_id += 1
    return coph


def test_complete_linkage_hand_dendrogram():
    pts = np.array([0.0, 1.0, 10.0, 12.0])
    d = np.abs(pts[:, None] - pts[None, :])
    tree = complete_linkage(d)
    assert tree.merges == [(0, 1, 1.0), (2, 3, 2.0), (4, 5, 12.0)]


def test_complete_linkage_identical_points():
    d = np.zeros((4, 4))
    tree = complete_linkage(d)
    assert all(h == 0.0 for _, _, h in tree.merges)
    assert len(tree.merges) == 3


def test_complete_linkage_two_points():
    d = np.array([[0.0, 2.5], [2.5, 0.0]])
    tree = complete_linkage(d)
    assert tree.merges == [(0, 1, 2.5)]


def test_complete_linkage_monotone_heights():
    pts = rng.standard_normal((9, 2))
    d = np.sqrt(np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1))
    tree = complete_linkage(d)
    heights = [h for _, _, h in tree.merges]
    assert all(heights[i] <= heights[i + 1] + 1e-12 for i in range(len(heights) - 1))


def test_complete_linkage_rejects_asymmetric():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        complete_linkage(d)


@pytest.mark.parametrize("case", range(5))
def test_complete_linkage_matches_scipy_cophenet(case):
    pts = np.random.default_rng(200 + case).standard_normal((8, 3))
    d = np.sqrt(np.sum((pts[:, None] - pts[None, :]) ** 2, axis=-1))
    np.fill_diagonal(d, 0.0)
    d = (d + d.T) / 2.0
    tree = complete_linkage(d)
    mine = cophenetic_matrix(tree, 8)
    z = linkage(squareform(d, checks=False), method="complete")
    theirs = squareform(cophenet(z))
    assert np.max(np.abs(mine - theirs)) <= 1e-10


def test_loading_distance_rejects_non_finite():
    a = rng.standard_normal((5, 3))
    a[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        loading_distance_matrix(a)
    a[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        loading_distance_matrix(a)


def pair_rescan_linkage(d: np.ndarray) -> list[tuple[int, int, float]]:
    """Reference complete linkage: on each merge, rescan every member pair of
    every pair of active clusters in label order; the first pair at the
    smallest height, i.e. the lowest (u, v), wins."""
    n = d.shape[0]
    members = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        ids = sorted(members)
        best = None
        for ai in range(len(ids) - 1):
            for bi in range(ai + 1, len(ids)):
                u, v = ids[ai], ids[bi]
                h = max(d[i, j] for i in members[u] for j in members[v])
                if best is None or h < best[0]:
                    best = (h, u, v)
        h, u, v = best
        merges.append((u, v, float(h)))
        members[next_id] = members.pop(u) + members.pop(v)
        next_id += 1
    return merges


def city_block(n, levels, seed):
    pts = np.random.default_rng(seed).integers(0, levels, size=(n, 3))
    return np.abs(pts[:, None] - pts[None, :]).sum(axis=-1).astype(float)


@pytest.mark.parametrize("d", [
    city_block(40, 3, 1),
    city_block(40, 4, 2),
    np.zeros((12, 12)),
    np.full((10, 10), 2.5) - np.diag(np.full(10, 2.5)),
    loading_distance_matrix(np.random.default_rng(3).standard_normal((60, 3))),
], ids=["ties-40a", "ties-40b", "all-zero", "constant", "loadings-60"])
def test_complete_linkage_equals_pair_rescan(d):
    assert complete_linkage(d).merges == pair_rescan_linkage(d)


def test_complete_linkage_tie_goes_to_lowest_labels():
    # (0, 1) and (2, 3) merge at 1 into clusters 6 and 7; then (4, 5) and
    # (6, 7) tie at 5, and (4, 5) has the lower labels.
    d = np.full((6, 6), 9.0)
    np.fill_diagonal(d, 0.0)
    for i, j, h in [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 5.0),
                    (0, 2, 5.0), (0, 3, 5.0), (1, 2, 5.0), (1, 3, 5.0)]:
        d[i, j] = d[j, i] = h
    expect = [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 5.0), (6, 7, 5.0), (8, 9, 9.0)]
    assert complete_linkage(d).merges == expect
    assert pair_rescan_linkage(d) == expect


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_complete_linkage_rejects_non_finite(bad):
    d = np.array([[0.0, 1.0, bad], [1.0, 0.0, 2.0], [bad, 2.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        complete_linkage(d)


def test_complete_linkage_uses_upper_triangle():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    skewed = d.copy()
    skewed[2, 0] += 1e-13  # within the symmetry tolerance
    assert complete_linkage(skewed).merges == complete_linkage(d).merges
    skewed = d.copy()
    skewed[0, 2] += 1e-13
    assert complete_linkage(skewed).merges[-1][2] == 3.0 + 1e-13


def test_complete_linkage_no_merges_below_two_points():
    assert complete_linkage(np.zeros((1, 1))).merges == []
    assert complete_linkage(np.zeros((0, 0))).merges == []


def test_complete_linkage_matches_scipy_cophenet_n200():
    d = loading_distance_matrix(np.random.default_rng(210).standard_normal((200, 3)))
    mine = cophenetic_matrix(complete_linkage(d), 200)
    z = linkage(squareform(d, checks=False), method="complete")
    assert np.max(np.abs(mine - squareform(cophenet(z)))) <= 1e-10
