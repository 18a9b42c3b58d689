"""Dense tensor primitives: unfolding, folding, mode products, Kronecker helpers.

Conventions used throughout the package
---------------------------------------
A tensor of order K is a numpy array of shape (p_1, ..., p_K); a series of T
tensors stacks them along a leading time axis, shape (T, p_1, ..., p_K).
Vectorization is mode-1-major: index i_1 varies fastest, as in
``ravel(order="F")``.

The mode-k unfolding (k is a 0-based axis) sends entry (i_1, ..., i_K) to row
i_k and column sum_{m != k} i_m * prod_{l < m, l != k} p_l.  With this column
order the multilinear identity

    unfold(F x_1 A_1 ... x_K A_K, k) = A_k @ unfold(F, k) @ B_k.T

holds with B_k = kron(A_K, ..., A_{k+1}, A_{k-1}, ..., A_1), which is the form
every projection step in this package relies on.

There is one contraction path.  The per-slice :func:`unfold`,
:func:`mode_product` and :func:`multi_mode_product` are T=1 views of the
series kernels, so the contracts of :func:`series_mode_product` cover both:
every mode product returns a C-contiguous array, and each slice is contracted
on its own, so its bits do not depend on the other slices in the call.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a value that is not an integer (2.7, or
    2.0) is rejected rather than truncated."""
    values = tuple(values)
    if not all(isinstance(v, numbers.Integral) for v in values):
        raise ValueError(f"{what} must be integers, got {values!r}")
    return tuple(int(v) for v in values)


# A time block of the DGP, the common part or a Gram holds about this many bytes.
_BLOCK_BYTES = 512 * 1024


def _time_blocks(n: int, dims) -> list[tuple[int, int]]:
    """[0, n) cut into near-equal (lo, hi) blocks of about ``_BLOCK_BYTES`` of
    slices.  A mode product's bits do not depend on the blocks; a Gram summed
    over them does, so this tiling fixes the order of its summation."""
    step = max(1, _BLOCK_BYTES // (8 * math.prod(dims)))
    blocks = max(1, -(-n // step))
    edges = [n * b // blocks for b in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


def _rest_axes(order: int, k: int) -> list[int]:
    """Non-k axes in decreasing order (C-order reshape then runs mode 1 fastest)."""
    return [m for m in reversed(range(order)) if m != k]


def series_unfold(xs: np.ndarray, k: int) -> np.ndarray:
    """Unfold every slice at once: (T, p_1..p_K) -> (T, p_k, p_{-k})."""
    xs = np.asarray(xs, dtype=float)
    order = xs.ndim - 1
    if not 0 <= k < order:
        raise ValueError(f"mode {k} out of range for order-{order} series")
    perm = (0, k + 1, *[m + 1 for m in _rest_axes(order, k)])
    return xs.transpose(perm).reshape(xs.shape[0], xs.shape[k + 1], -1)


def series_mode_product(xs: np.ndarray, k: int, a: np.ndarray) -> np.ndarray:
    """Mode-k product applied to every slice of the series.

    Layout contract: the result is C-contiguous whatever the layout of ``xs``.
    A C-contiguous ``xs`` is contracted in place through reshapes by one
    batched matmul and is never copied, so a chain of products copies
    nothing; any other layout is copied to C order once first.

    Slice contract: each slice is contracted by its own matrix products, so
    the result for a slice is bit-identical to the product of that slice
    alone, or of any block of slices that holds it, on any BLAS.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    a = np.asarray(a, dtype=float)
    order = xs.ndim - 1
    if not 0 <= k < order:
        raise ValueError(f"mode {k} out of range for order-{order} series")
    if a.ndim != 2 or a.shape[1] != xs.shape[k + 1]:
        raise ValueError(f"a must be a matrix with {xs.shape[k + 1]} columns, got {a.shape}")
    rows = math.prod(xs.shape[1:k + 1])
    trail = math.prod(xs.shape[k + 2:])
    if trail == 1:
        out = np.matmul(xs.reshape(len(xs), rows, a.shape[1]), a.T)
    else:
        out = np.matmul(a, xs.reshape(len(xs) * rows, a.shape[1], trail))
    return out.reshape(*xs.shape[:k + 1], a.shape[0], *xs.shape[k + 2:])


def series_multi_mode_product(xs: np.ndarray, mats, transpose: bool = False) -> np.ndarray:
    """X_t x_1 A_1 ... x_K A_K (or the transposes) for every slice of the series."""
    out = np.asarray(xs, dtype=float)
    if len(mats) != out.ndim - 1:
        raise ValueError(f"need {out.ndim - 1} matrices, got {len(mats)}")
    for k, a in enumerate(mats):
        out = series_mode_product(out, k, np.asarray(a).T if transpose else a)
    return out


def unfold(x: np.ndarray, k: int) -> np.ndarray:
    """Mode-k unfolding of ``x`` as a (p_k, p_{-k}) matrix, 0-based ``k``."""
    return series_unfold(np.asarray(x)[None], k)[0]


def fold(m: np.ndarray, k: int, dims) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor with dimensions ``dims``."""
    dims = _ints(dims, "dims")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    m = np.asarray(m, dtype=float)
    if not 0 <= k < len(dims):
        raise ValueError(f"mode {k} out of range for dims {dims}")
    p = math.prod(dims)
    if m.shape != (dims[k], p // dims[k]):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} at mode {k}")
    perm = (k, *_rest_axes(len(dims), k))
    shaped = m.reshape(tuple(dims[a] for a in perm))
    return shaped.transpose(np.argsort(perm))


def mode_product(x: np.ndarray, k: int, a: np.ndarray) -> np.ndarray:
    """Contract mode k of ``x`` with the columns of ``a`` (d x p_k)."""
    return series_mode_product(np.asarray(x)[None], k, a)[0]


def multi_mode_product(x: np.ndarray, mats, transpose: bool = False) -> np.ndarray:
    """Apply one matrix per mode: X x_1 A_1 ... x_K A_K (or the transposes)."""
    return series_multi_mode_product(np.asarray(x)[None], mats, transpose)[0]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (standard block layout)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def kron_excluding(mats, k: int) -> np.ndarray:
    """kron(A_K, ..., A_{k+1}, A_{k-1}, ..., A_1): the mode-k projection factor."""
    out = np.ones((1, 1))
    for j in reversed(range(len(mats))):
        if j != k:
            out = np.kron(out, np.asarray(mats[j], dtype=float))
    return out
