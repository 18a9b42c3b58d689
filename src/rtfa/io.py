"""Tensor-series and matrix file formats.

Series, text: a line ``TSR 1 text``, a line ``K p_1 ... p_K T``, then T lines
of p values (one slice each, entries in storage order, %.17g).

Series, binary: magic ``TSRB``, version byte 1, u32 K, K u32 dims, u64 T,
then T*p little-endian f64 in the same order.

Matrix, text: a line ``MTX 1``, a line ``rows cols``, then one line of cols
values per row.

Text files are ASCII, payload values whitespace-separated in ``float`` syntax
without underscores. Blank lines are ignored; any other layout, including an
empty payload or a non-ASCII byte, is a ``FileFormatError``. Writers reject a
zero-length axis.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings

import numpy as np

_MAGIC = b"TSRB"
_VERSION = 1
_HEAD = struct.Struct("<4sBI")  # magic, version, K
_U32_MAX = 2**32 - 1


class FileFormatError(Exception):
    """Malformed or truncated tensor-series / matrix file."""


def _storage_flat(series: np.ndarray) -> np.ndarray:
    # slice-major, mode-1-major within each slice == F-order of (dims..., T)
    return np.moveaxis(series, 0, -1).ravel(order="F")


def _from_storage_flat(data: np.ndarray, dims: tuple[int, ...], t_len: int) -> np.ndarray:
    shaped = data.reshape((*dims, t_len), order="F")
    # always a copy: writable, and never a view that keeps the file's bytes alive
    return np.array(np.moveaxis(shaped, -1, 0), dtype=float, order="C")


def _write_rows(fh, rows: np.ndarray) -> None:
    # one template per row: a whole-payload tuple would box every value at once
    template = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    for row in rows:
        fh.write(template % tuple(row.tolist()))


def _read_rows(fh, rows: int, cols: int) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty payload warns; the shape check below reports it instead
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    except ValueError as exc:
        raise FileFormatError(f"bad text payload: {exc}") from exc
    if data.shape != (rows, cols):
        raise FileFormatError(f"payload shape {data.shape}, expected ({rows}, {cols})")
    return data


def _read_header(fh, magic: str) -> list[int]:
    try:
        if fh.readline().split() != magic.split():
            raise FileFormatError(f"bad {magic!r} header")
        return [int(v) for v in fh.readline().split()]
    except ValueError as exc:  # a bad integer, or a non-ASCII byte
        raise FileFormatError(f"bad {magic!r} header: {exc}") from exc


def write_series(series: np.ndarray, path, encoding: str = "binary") -> None:
    """Write a (T, p_1..p_K) series in the text or binary format."""
    series = np.asarray(series, dtype=float)
    if series.ndim < 2 or 0 in series.shape:
        raise ValueError("series must have a time axis plus at least one mode, none empty")
    t_len, dims = series.shape[0], series.shape[1:]
    if any(d > _U32_MAX for d in dims):
        raise FileFormatError("dimension overflow for the series format")
    flat = _storage_flat(series)
    if encoding == "text":
        with open(path, "w", encoding="ascii") as fh:
            fh.write("TSR 1 text\n")
            fh.write(" ".join(str(v) for v in (len(dims), *dims, t_len)) + "\n")
            _write_rows(fh, flat.reshape(t_len, -1))
    elif encoding == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEAD.pack(_MAGIC, _VERSION, len(dims)))
            fh.write(struct.pack(f"<{len(dims)}IQ", *dims, t_len))
            fh.write(flat.astype("<f8", copy=False))  # no copy on a little-endian host
    else:
        raise ValueError(f"unknown encoding {encoding!r}")


def _read_text_series(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        nums = _read_header(fh, "TSR 1 text")
        if len(nums) < 3:
            raise FileFormatError("bad dimension line")
        k = nums[0]
        if k < 1 or len(nums) != k + 2:
            raise FileFormatError("dimension count mismatch")
        dims = tuple(nums[1:-1])
        t_len = nums[-1]
        if any(d < 1 for d in dims) or t_len < 1:
            raise FileFormatError("dimensions must be positive")
        data = _read_rows(fh, t_len, math.prod(dims))
    return _from_storage_flat(data.ravel(), dims, t_len)


def _read_binary_series(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEAD.size:
        raise FileFormatError("truncated header")
    _, version, k = _HEAD.unpack_from(blob)  # read_series has matched the magic
    if version != _VERSION:
        raise FileFormatError(f"unsupported version {version}")
    if k < 1:
        raise FileFormatError("dimension count must be >= 1")
    shape = struct.Struct(f"<{k}IQ")  # the K dims, then T
    off = _HEAD.size + shape.size
    if len(blob) < off:
        raise FileFormatError("truncated header")
    *dims, t_len = shape.unpack_from(blob, _HEAD.size)
    if any(d < 1 for d in dims) or t_len < 1:
        raise FileFormatError("dimensions must be positive")
    expected = t_len * math.prod(dims)
    if len(blob) - off != 8 * expected:
        raise FileFormatError(
            f"truncated payload: expected {8 * expected} bytes, found {len(blob) - off}"
        )
    return _from_storage_flat(np.frombuffer(blob, "<f8", offset=off), dims, t_len)


def read_series(path) -> np.ndarray:
    """Read a series file, auto-detecting the encoding from the header."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return _read_binary_series(path)
    if head[:3] == b"TSR":
        return _read_text_series(path)
    raise FileFormatError("not a tensor series file")


def write_matrix(a: np.ndarray, path) -> None:
    """Write a matrix in the 2-line-header text format."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError("expected a matrix with no zero-length axis")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("MTX 1\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        _write_rows(fh, a)


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="ascii") as fh:
        shape = _read_header(fh, "MTX 1")
        if len(shape) != 2 or min(shape) < 1:
            raise FileFormatError("matrix shape must be two positive integers")
        return _read_rows(fh, *shape)


def _write_csv(out, header, rows) -> None:
    """Write a header and rows as CSV to a path or a text stream, in csv's default
    dialect: floats (numpy's too) as %.17g, None as an empty field, others by str."""
    if not hasattr(out, "write"):
        with open(out, "w", newline="") as fh:
            _write_csv(fh, header, rows)
        return
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row])
