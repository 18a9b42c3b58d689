"""Acceptance gate: simulation studies at pinned scales plus a property battery.

Each criterion reports one PASS/FAIL line in the terminal summary (see
conftest.record).  Tolerances and replication counts are pinned; the seeded
runs are deterministic, so these tests are stable.
"""

import math
import time
import warnings

import numpy as np
import pytest
from conftest import record

from rtfa import (
    DgpConfig,
    EstimationConfig,
    RankConfig,
    estimate_ranks,
    fit,
    gen_dataset,
    initial_estimator,
    multi_mode_product,
    run_monte_carlo,
    subspace_distance,
    sym_eig,
    unfold,
    fold,
    write_aggregate_csv,
    write_replication_csv,
)

SETTING_A = dict(dims=(10, 10, 10), ranks=(3, 3, 3), phi=0.1, psi=0.1)
SETTING_C = dict(dims=(20, 20, 20), ranks=(3, 3, 3), phi=0.1, psi=0.1)


def aggregate_value(mc, name):
    for metric, mean, sd in mc.aggregate:
        if metric == name:
            return mean
    raise KeyError(name)


@pytest.fixture(scope="module")
def setting_a_huber_run():
    dgp = DgpConfig(T=200, noise_law="tensor_normal", seed=2026, **SETTING_A)
    est = EstimationConfig(ranks=(3, 3, 3), method="huber")
    start = time.perf_counter()
    mc = run_monte_carlo(dgp, est, reps=100, workers=1)
    elapsed = time.perf_counter() - start
    return mc, elapsed


def test_criterion_1_setting_a_huber_distance(setting_a_huber_run):
    mc, elapsed = setting_a_huber_run
    mean = aggregate_value(mc, "distance_mode1")
    ok = 0.012 <= mean <= 0.024 and elapsed < 180.0
    record(
        1,
        ok,
        f"setting A gaussian T=200 reps=100 huber: mean mode-1 distance "
        f"{mean:.4f} in [0.012, 0.024], runtime {elapsed:.1f}s < 180s",
    )
    assert 0.012 <= mean <= 0.024
    assert elapsed < 180.0


def test_criterion_3_setting_a_reconstruction_mse(setting_a_huber_run):
    mc, _ = setting_a_huber_run
    mean = aggregate_value(mc, "mse")
    ok = 0.020 <= mean <= 0.038
    record(
        3,
        ok,
        f"setting A gaussian T=200 reps=100 huber: mean reconstruction MSE "
        f"{mean:.4f} in [0.020, 0.038]",
    )
    assert 0.020 <= mean <= 0.038


def test_criterion_2_heavy_tail_robustness_ordering():
    dgp = DgpConfig(T=200, noise_law="tensor_t", t_dof=3.0, seed=2027, **SETTING_C)
    start = time.perf_counter()
    # one draw per replication serves both methods; each result equals its config run alone
    ls, hub = run_monte_carlo(
        dgp, [EstimationConfig(ranks=(3, 3, 3), method=m) for m in ("ls", "huber")], reps=100
    )
    elapsed = time.perf_counter() - start
    ls_mean = aggregate_value(ls, "distance_mode1")
    hub_mean = aggregate_value(hub, "distance_mode1")
    ok = hub_mean < ls_mean and hub_mean < 0.02 and elapsed < 900.0
    record(
        2,
        ok,
        f"setting C t3 T=200 reps=100: huber mean {hub_mean:.4f} < ls mean "
        f"{ls_mean:.4f} and < 0.02, runtime {elapsed:.1f}s < 900s",
    )
    assert hub_mean < ls_mean
    assert hub_mean < 0.02
    assert elapsed < 900.0


def test_criterion_4_rank_recovery_rates():
    rates = {}
    methods = ("ls", "huber")
    for law, seed in (("tensor_normal", 2028), ("tensor_t", 2029)):
        dgp = DgpConfig(T=200, noise_law=law, t_dof=3.0, seed=seed, **SETTING_C)
        mcs = run_monte_carlo(dgp, [RankConfig(r_max=8, c=0.0, method=m) for m in methods],
                              reps=100)
        for method, mc in zip(methods, mcs):
            rates[(law, method)] = aggregate_value(mc, "exact")
    gauss_ok = rates[("tensor_normal", "ls")] >= 0.95 and rates[("tensor_normal", "huber")] >= 0.95
    t3_ok = rates[("tensor_t", "huber")] >= rates[("tensor_t", "ls")]
    record(
        4,
        gauss_ok and t3_ok,
        f"setting C T=200 reps=100 rank recovery: gaussian ls "
        f"{rates[('tensor_normal', 'ls')]:.2f} / huber "
        f"{rates[('tensor_normal', 'huber')]:.2f} (both >= 0.95); t3 huber "
        f"{rates[('tensor_t', 'huber')]:.2f} >= ls {rates[('tensor_t', 'ls')]:.2f}",
    )
    assert gauss_ok
    assert t3_ok


def check_round_trip_and_kron_identity(failures):
    rng = np.random.default_rng(50)
    x = rng.standard_normal((3, 4, 2))
    for k in range(3):
        if not np.array_equal(fold(unfold(x, k), k, (3, 4, 2)), x):
            failures.append("unfold/fold round trip not bit-exact")
    f = rng.standard_normal((2, 3, 2))
    mats = [rng.standard_normal((5, 2)), rng.standard_normal((4, 3)), rng.standard_normal((6, 2))]
    for k in range(3):
        rest = [mats[j] for j in range(3) if j != k]
        right = mats[k] @ unfold(f, k) @ np.kron(rest[1], rest[0]).T
        left = unfold(multi_mode_product(f, mats), k)
        if np.max(np.abs(left - right)) > 1e-12 * max(1.0, np.max(np.abs(right))):
            failures.append(f"multilinear kron identity fails at mode {k}")


def check_eig_oracle(failures):
    rng = np.random.default_rng(51)
    m = rng.standard_normal((2, 2))
    m = (m + m.T) / 2.0
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    root = math.sqrt((a - c) ** 2 + 4 * b * b)
    expected = np.array([(a + c + root) / 2, (a + c - root) / 2])
    if np.max(np.abs(sym_eig(m).values - expected)) > 1e-8:
        failures.append("2x2 eigenvalues disagree with the quadratic formula")
    m5 = rng.standard_normal((5, 5))
    m5 = (m5 + m5.T) / 2.0
    pair = sym_eig(m5)
    if np.max(np.abs((pair.vectors * pair.values) @ pair.vectors.T - m5)) > 1e-9:
        failures.append("eigendecomposition reconstruction exceeds 1e-9")


def check_noiseless_recovery(failures):
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=30, ranks=(2, 2, 2), seed=52))
    ie = initial_estimator(ds.true_common, (2, 2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ls = fit(ds.true_common, EstimationConfig(ranks=(2, 2, 2), method="ls"))
        hub = fit(ds.true_common, EstimationConfig(ranks=(2, 2, 2), method="huber"))
        ranks = estimate_ranks(ds.true_common, RankConfig(r_max=5, c=0.0))
    for name, mats in (("ie", ie.mats), ("ls", ls.loadings.mats), ("huber", hub.loadings.mats)):
        worst = max(
            subspace_distance(mats[k], ds.true_loadings.mats[k]) for k in range(3)
        )
        if worst > 1e-8:
            failures.append(f"noiseless {name} recovery distance {worst:.2e} > 1e-8")
    if ranks.ranks != (2, 2, 2):
        failures.append(f"noiseless rank selection returned {ranks.ranks}")


def check_huber_ls_degeneracy(failures):
    ds = gen_dataset(
        DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=53, noise_law="tensor_t")
    )
    ls = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="ls"))
    hub = fit(ds.observations, EstimationConfig(ranks=(2, 2, 2), method="huber", tau=1e18))
    worst = max(
        subspace_distance(ls.loadings.mats[k], hub.loadings.mats[k]) for k in range(3)
    )
    if worst > 1e-10:
        failures.append(f"huber with infinite tau differs from ls by {worst:.2e}")


def check_scale_invariance(failures):
    ds = gen_dataset(DgpConfig(dims=(8, 8, 8), T=60, ranks=(2, 2, 2), seed=54))
    for method in ("ls", "huber"):
        config = EstimationConfig(ranks=(2, 2, 2), method=method)
        base = fit(ds.observations, config)
        scaled = fit(7.0 * ds.observations, config)
        worst = max(
            subspace_distance(base.loadings.mats[k], scaled.loadings.mats[k])
            for k in range(3)
        )
        if worst > 1e-10:
            failures.append(f"{method} subspaces moved by {worst:.2e} under data scaling")


def check_penalty_insensitivity(failures):
    for name, dims, t_len, seed in (("A", (10, 10, 10), 100, 55), ("C", (20, 20, 20), 100, 56)):
        ds = gen_dataset(DgpConfig(dims=dims, T=t_len, ranks=(3, 3, 3), seed=seed))
        for method in ("ls", "huber"):
            base = estimate_ranks(ds.observations, RankConfig(r_max=8, c=0.0, method=method))
            lam = max(float(v[0]) for v in base.eigenvalues)
            bumped = estimate_ranks(ds.observations, RankConfig(r_max=8, c=lam, method=method))
            if base.ranks != bumped.ranks:
                failures.append(
                    f"setting {name} {method}: ranks change from {base.ranks} to "
                    f"{bumped.ranks} at c=lambda_max"
                )


def check_worker_invariance(failures, tmp_path):
    dgp = DgpConfig(dims=(6, 6, 6), T=15, ranks=(2, 2, 2), seed=57)
    est = EstimationConfig(ranks=(2, 2, 2), method="huber")
    serial = run_monte_carlo(dgp, est, reps=8, workers=1)
    parallel = run_monte_carlo(dgp, est, reps=8, workers=8)
    for tag, mc in (("serial", serial), ("parallel", parallel)):
        write_replication_csv(mc, tmp_path / f"{tag}_rows.csv")
        write_aggregate_csv(mc, tmp_path / f"{tag}_agg.csv")
    if (tmp_path / "serial_rows.csv").read_bytes() != (tmp_path / "parallel_rows.csv").read_bytes():
        failures.append("per-replication CSV differs between 1 and 8 workers")
    if (tmp_path / "serial_agg.csv").read_bytes() != (tmp_path / "parallel_agg.csv").read_bytes():
        failures.append("aggregate CSV differs between 1 and 8 workers")


def test_criterion_5_property_battery(tmp_path):
    failures: list[str] = []
    check_round_trip_and_kron_identity(failures)
    check_eig_oracle(failures)
    check_noiseless_recovery(failures)
    check_huber_ls_degeneracy(failures)
    check_scale_invariance(failures)
    check_penalty_insensitivity(failures)
    check_worker_invariance(failures, tmp_path)
    record(
        5,
        not failures,
        "property battery (round trips, eig oracle, noiseless recovery, "
        "huber-ls degeneracy, scale invariance, penalty insensitivity, "
        "worker invariance): "
        + ("all hold" if not failures else "; ".join(failures)),
    )
    assert not failures


def test_criterion_6_consistency_trend():
    means = {}
    methods = ("ls", "huber")
    for t_len in (20, 200):
        dgp = DgpConfig(T=t_len, noise_law="tensor_normal", seed=2030, **SETTING_A)
        mcs = run_monte_carlo(dgp, [EstimationConfig(ranks=(3, 3, 3), method=m) for m in methods],
                              reps=50)
        for method, mc in zip(methods, mcs):
            means[(method, t_len)] = aggregate_value(mc, "distance_mode1")
    ls_ok = means[("ls", 200)] < means[("ls", 20)]
    hub_ok = means[("huber", 200)] < means[("huber", 20)]
    record(
        6,
        ls_ok and hub_ok,
        f"setting A reps=50: mean mode-1 distance falls from T=20 to T=200 for ls "
        f"({means[('ls', 20)]:.4f} -> {means[('ls', 200)]:.4f}) and huber "
        f"({means[('huber', 20)]:.4f} -> {means[('huber', 200)]:.4f})",
    )
    assert ls_ok
    assert hub_ok
