import math

import numpy as np
import pytest

from rtfa import sym_eig, varimax, varimax_criterion
from rtfa.eig import _fix_signs

rng = np.random.default_rng(1)


def brute_eigvals_2x2(m):
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    root = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    return np.array([(a + c + root) / 2.0, (a + c - root) / 2.0])


def brute_eigvals_3x3(m):
    # trigonometric solution of the characteristic cubic for symmetric 3x3
    q = np.trace(m) / 3.0
    p1 = m[0, 1] ** 2 + m[0, 2] ** 2 + m[1, 2] ** 2
    p2 = (m[0, 0] - q) ** 2 + (m[1, 1] - q) ** 2 + (m[2, 2] - q) ** 2 + 2.0 * p1
    if p2 <= 0.0:
        return np.array([q, q, q])
    p = math.sqrt(p2 / 6.0)
    b = (m - q * np.eye(3)) / p
    r = min(max(np.linalg.det(b) / 2.0, -1.0), 1.0)
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([lam1, 3.0 * q - lam1 - lam3, lam3])


def random_symmetric(n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return (m + m.T) / 2.0


def test_identity_eigenvalues():
    pair = sym_eig(np.eye(3))
    assert np.allclose(pair.values, np.ones(3), atol=1e-14)


def test_diagonal_oracle():
    pair = sym_eig(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(pair.values, [3.0, 2.0, 1.0], atol=1e-14)
    assert np.allclose(pair.vectors, np.eye(3), atol=1e-14)


@pytest.mark.parametrize("case", range(50))
def test_brute_force_2x2(case):
    m = random_symmetric(2, scale=1.0 + case)
    pair = sym_eig(m)
    expected = brute_eigvals_2x2(m)
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(pair.values - expected)) <= 1e-8 * scale
    # eigenvector alignment: |cos angle| = 1 for each pair
    for j in range(2):
        lam = expected[j]
        v = np.array([m[0, 1], lam - m[0, 0]])
        if np.linalg.norm(v) < 1e-12 * scale:
            v = np.array([lam - m[1, 1], m[0, 1]])
        if np.linalg.norm(v) < 1e-12 * scale:
            continue  # repeated eigenvalue, direction not unique
        v = v / np.linalg.norm(v)
        assert abs(np.dot(v, pair.vectors[:, j])) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("case", range(50))
def test_brute_force_3x3(case):
    m = random_symmetric(3, scale=1.0 + case)
    pair = sym_eig(m)
    expected = brute_eigvals_3x3(m)
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(pair.values - expected)) <= 1e-8 * scale


def test_reconstruction():
    m = random_symmetric(5)
    pair = sym_eig(m)
    rebuilt = (pair.vectors * pair.values) @ pair.vectors.T
    assert np.max(np.abs(rebuilt - m)) <= 1e-9


def test_eigen_residual():
    m = random_symmetric(7)
    pair = sym_eig(m)
    norm = np.sqrt(np.sum(m * m))
    for j in range(7):
        residual = m @ pair.vectors[:, j] - pair.values[j] * pair.vectors[:, j]
        assert np.linalg.norm(residual) <= 1e-8 * norm


def test_descending_and_orthonormal():
    pair = sym_eig(random_symmetric(6))
    assert (np.diff(pair.values) <= 1e-12).all()
    assert np.max(np.abs(pair.vectors.T @ pair.vectors - np.eye(6))) <= 1e-10


def test_sign_convention():
    pair = sym_eig(random_symmetric(6))
    for j in range(6):
        col = pair.vectors[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_rotation_invariance():
    m = random_symmetric(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = q @ m @ q.T
    rotated = (rotated + rotated.T) / 2.0
    v1 = sym_eig(m).values
    v2 = sym_eig(rotated).values
    assert np.max(np.abs(v1 - v2)) <= 1e-8 * max(1.0, np.max(np.abs(v1)))


def test_count_slices_leading_pairs():
    m = random_symmetric(5)
    full = sym_eig(m)
    top = sym_eig(m, count=2)
    assert np.array_equal(top.values, full.values[:2])
    assert np.array_equal(top.vectors, full.vectors[:, :2])


def test_count_out_of_range():
    with pytest.raises(ValueError):
        sym_eig(np.eye(3), count=4)
    with pytest.raises(ValueError):
        sym_eig(np.eye(3), count=0)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))


def test_rejects_non_finite():
    m = np.eye(3)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        sym_eig(m)


def test_rejects_asymmetric():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sym_eig(m)


def test_symmetrizes_tiny_asymmetry():
    m = random_symmetric(4)
    m[0, 1] += 1e-12
    pair = sym_eig(m)
    assert np.isfinite(pair.values).all()


def fix_signs_by_loop(vectors):
    # the column-by-column rule _fix_signs vectorizes: the oracle below
    v = vectors.copy()
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("shape", [(1, 1), (6, 6), (7, 3), (200, 200)])
def test_fix_signs_matches_loop(shape):
    v = rng.standard_normal(shape)
    assert same_bits(_fix_signs(v), fix_signs_by_loop(v))
    # eigh's output is a reversed (negative-stride) view, as sym_eig passes it
    w = np.linalg.eigh(random_symmetric(shape[0]))[1][:, ::-1]
    assert same_bits(_fix_signs(w), fix_signs_by_loop(w))


def test_fix_signs_ties_and_zero_columns():
    v = np.array([
        [-2.0, 2.0, 0.0, -0.0, 1.0],
        [2.0, -2.0, 0.0, 0.0, -1.0],
        [1.0, 0.0, -0.0, 0.0, 1.0],
    ])
    fixed = _fix_signs(v)
    assert same_bits(fixed, fix_signs_by_loop(v))
    # a tie goes to the first index: column 0 flips, column 1 does not
    assert fixed[:, 0].tolist() == [2.0, -2.0, -1.0]
    assert fixed[:, 1].tolist() == [2.0, -2.0, 0.0]
    # zero columns keep their signed zeros
    assert same_bits(fixed[:, 2:4], v[:, 2:4])


def test_sym_eig_signs_match_loop_on_projection_spectra():
    # repeated eigenvalues give ties and sign-sensitive columns
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    m = q @ np.diag(np.repeat([3.0, 1.0, 0.0], 10)) @ q.T
    m = (m + m.T) / 2.0
    w, v = np.linalg.eigh(m)
    pair = sym_eig(m)
    assert same_bits(pair.vectors, np.ascontiguousarray(fix_signs_by_loop(v[:, ::-1])))


def criterion_by_hand(a):
    return sum(np.var(a[:, j] ** 2) for j in range(a.shape[1]))


def test_varimax_single_column_unchanged():
    a = rng.standard_normal((6, 1))
    rotated, rotation = varimax(a)
    assert np.array_equal(rotated, a)
    assert np.array_equal(rotation, np.eye(1))


def test_varimax_already_optimal():
    # one nonzero per row: perfect simple structure, nothing to rotate
    a = np.array([[2.0, 0.0], [1.5, 0.0], [0.0, 1.0], [0.0, 3.0]])
    rotated, rotation = varimax(a)
    assert np.array_equal(rotation, np.eye(2))
    assert np.array_equal(rotated, a)


@pytest.mark.parametrize("case", range(10))
def test_varimax_improves_criterion(case):
    a = np.random.default_rng(100 + case).standard_normal((10, 3))
    rotated, rotation = varimax(a)
    assert varimax_criterion(rotated) >= varimax_criterion(a) - 1e-12
    assert np.max(np.abs(rotation.T @ rotation - np.eye(3))) <= 1e-10
    assert np.allclose(rotated, a @ rotation, atol=1e-10)
    # orthogonal rotation preserves the row Gram matrix
    assert np.max(np.abs(rotated @ rotated.T - a @ a.T)) <= 1e-10


def test_varimax_criterion_matches_hand_formula():
    a = rng.standard_normal((8, 3))
    assert varimax_criterion(a) == pytest.approx(criterion_by_hand(a), rel=1e-12)


def test_varimax_rejects_non_finite():
    a = rng.standard_normal((5, 2))
    a[0, 0] = np.inf
    with pytest.raises(ValueError):
        varimax(a)


def test_sym_eig_and_varimax_reject_non_integer_sizes():
    # these used to raise a TypeError from slicing and from range()
    m = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="must be integers"):
        sym_eig(m, count=1.5)
    with pytest.raises(ValueError, match="must be integers"):
        varimax(np.eye(3)[:, :2], max_sweeps=2.5)
    with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
        varimax(np.eye(3)[:, :2], max_sweeps=-1)


def test_sym_eig_and_varimax_take_numpy_integer_sizes():
    m = np.diag([3.0, 2.0, 1.0])
    assert np.array_equal(sym_eig(m, count=np.int64(2)).vectors, sym_eig(m, count=2).vectors)
    a = np.random.default_rng(3).standard_normal((6, 3))
    for got, want in zip(varimax(a, max_sweeps=np.int32(2)), varimax(a, max_sweeps=2)):
        assert np.array_equal(got, want)


def varimax_by_pairs(a, tol=1e-10, max_sweeps=100):
    """Reference form of ``varimax``: the same pair steps in an explicit i < j
    loop, with the rotation updated beside the loadings rather than with them.
    Also returns how many pair steps the monotone guard refused."""
    a = np.asarray(a, dtype=float)
    p, r = a.shape
    rotation = np.eye(r)
    refused = 0
    if r < 2:
        return a.copy(), rotation, refused
    b = a.copy()
    crit = varimax_criterion(b)
    for _ in range(max_sweeps):
        before = crit
        for i in range(r - 1):
            for j in range(i + 1, r):
                x, y = b[:, i], b[:, j]
                u = x * x - y * y
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u * u - v * v).sum() - (su * su - sv * sv) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-15:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                pair_before = np.var(x * x) + np.var(y * y)
                xn = c * x + s * y
                yn = -s * x + c * y
                if np.var(xn * xn) + np.var(yn * yn) < pair_before:
                    refused += 1
                    continue
                b[:, i], b[:, j] = xn, yn
                gi = c * rotation[:, i] + s * rotation[:, j]
                gj = -s * rotation[:, i] + c * rotation[:, j]
                rotation[:, i], rotation[:, j] = gi, gj
        crit = varimax_criterion(b)
        if crit - before < tol:
            break
    return b, rotation, refused


def assert_varimax_matches_pairs(a):
    rotated, rotation = varimax(a)
    want_rotated, want_rotation, refused = varimax_by_pairs(a)
    assert same_bits(rotated, want_rotated)
    assert same_bits(rotation, want_rotation)
    return refused


@pytest.mark.parametrize("shape", [(6, 1), (40, 1), (9, 2), (300, 2), (2, 3), (3, 7)])
def test_varimax_matches_pairwise_loop_on_edge_shapes(shape):
    assert_varimax_matches_pairs(np.random.default_rng(sum(shape)).standard_normal(shape))


def test_varimax_matches_pairwise_loop_when_already_optimal():
    a = np.array([[2.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -3.0]])
    assert assert_varimax_matches_pairs(a) == 0
    assert np.array_equal(varimax(a)[1], np.eye(3))


def test_varimax_matches_pairwise_loop_on_random_draws():
    # enough draws that the monotone guard refuses some pair steps
    draw = np.random.default_rng(28)
    refused = 0
    for _ in range(20):
        shape = (int(draw.integers(10, 201)), int(draw.integers(3, 9)))
        refused += assert_varimax_matches_pairs(draw.standard_normal(shape))
    assert refused > 0
