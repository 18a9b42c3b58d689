"""Edge shapes through fit (ls, huber) and estimate_ranks: each gives a finite
result or a documented error."""

import warnings

import numpy as np
import pytest

from rtfa import EstimationConfig, LoadingSet, RankConfig, estimate_ranks, fit

rng = np.random.default_rng(11)

# name: (series, fit ranks, ranks estimate_ranks must select or None)
EDGE_CASES = {
    "order_1": (rng.standard_normal((30, 6)), (2,), None),
    "order_4": (rng.standard_normal((20, 3, 4, 3, 2)), (1, 2, 1, 1), None),
    "single_slice": (rng.standard_normal((1, 5, 4, 3)), (2, 2, 1), None),
    "full_rank": (rng.standard_normal((15, 3, 4, 2)), (3, 4, 2), None),
    "unit_mode": (rng.standard_normal((15, 1, 4, 3)), (1, 2, 2), None),
    "constant": (np.full((12, 4, 3, 5), 2.5), (1, 1, 1), (1, 1, 1)),
    "zero": (np.zeros((12, 4, 3, 5)), (1, 1, 1), (1, 1, 1)),
}


@pytest.mark.parametrize("method", ["ls", "huber"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_fit_edge_shape(case, method):
    xs, ranks, _ = EDGE_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # tau floor, rank deficiency
        result = fit(xs, EstimationConfig(ranks=ranks, method=method))
    LoadingSet(result.loadings.mats)
    assert result.loadings.ranks == ranks
    assert all(np.isfinite(a).all() for a in result.loadings.mats)
    assert result.factors.shape == (xs.shape[0], *ranks)
    assert np.isfinite(result.factors).all()


@pytest.mark.parametrize("method", ["ls", "huber"])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_estimate_ranks_edge_shape(case, method):
    xs, _, expected = EDGE_CASES[case]
    config = RankConfig(r_max=4, method=method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if 1 in xs.shape[1:]:
            with pytest.raises(ValueError, match="cannot form an eigenvalue ratio"):
                estimate_ranks(xs, config)
            return
        result = estimate_ranks(xs, config)
    assert len(result.ranks) == xs.ndim - 1
    assert all(1 <= r < p_k for r, p_k in zip(result.ranks, xs.shape[1:]))
    assert all(np.isfinite(v).all() for v in result.eigenvalues)
    if expected is not None:
        assert result.ranks == expected


@pytest.mark.parametrize("method", ["ls", "huber"])
def test_estimate_ranks_clamps_inflation_at_p_k(method):
    # r_hat + 2 exceeds p_k in modes 1 (r_hat 3, p_k 4) and 2 (r_hat 1, p_k 2)
    xs = EDGE_CASES["full_rank"][0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # tau floor
        result = estimate_ranks(xs, RankConfig(r_max=4, method=method))
    assert result.ranks == (1, 3, 1)
    clamps = [note for note in result.warnings if "clamped" in note]
    assert clamps == [
        "mode 1: eigenvector inflation clamped at p_k=4",
        "mode 2: eigenvector inflation clamped at p_k=2",
    ]
