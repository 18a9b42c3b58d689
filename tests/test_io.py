import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from rtfa import FileFormatError, read_matrix, read_series, write_matrix, write_series

rng = np.random.default_rng(5)

# one slice [[1,2],[3,4]]: storage order is mode-1-major within the slice
GOLDEN_SERIES = np.array([[[1.0, 2.0], [3.0, 4.0]]])
GOLDEN_PAYLOAD = (1.0, 3.0, 2.0, 4.0)
GOLDEN_BINARY = (
    b"TSRB"
    + struct.pack("<B", 1)
    + struct.pack("<I", 2)
    + struct.pack("<2I", 2, 2)
    + struct.pack("<Q", 1)
    + struct.pack("<4d", *GOLDEN_PAYLOAD)
)
GOLDEN_TEXT = "TSR 1 text\n2 2 2 1\n1 3 2 4\n"


def test_binary_golden_bytes(tmp_path):
    path = tmp_path / "golden.tsrb"
    write_series(GOLDEN_SERIES, path, "binary")
    assert path.read_bytes() == GOLDEN_BINARY


def test_binary_golden_read(tmp_path):
    path = tmp_path / "golden.tsrb"
    path.write_bytes(GOLDEN_BINARY)
    assert np.array_equal(read_series(path), GOLDEN_SERIES)


def test_text_golden_content(tmp_path):
    path = tmp_path / "golden.tsr"
    write_series(GOLDEN_SERIES, path, "text")
    assert path.read_text() == GOLDEN_TEXT


def test_text_golden_read(tmp_path):
    path = tmp_path / "golden.tsr"
    path.write_text(GOLDEN_TEXT)
    assert np.array_equal(read_series(path), GOLDEN_SERIES)


@pytest.mark.parametrize("encoding", ["binary", "text"])
def test_round_trip(tmp_path, encoding):
    xs = rng.standard_normal((5, 3, 4, 2))
    path = tmp_path / f"series.{encoding}"
    write_series(xs, path, encoding)
    assert np.array_equal(read_series(path), xs)


@pytest.mark.parametrize("shape", [(4, 6), (3, 2, 5), (2, 2, 3, 2, 2)])
def test_round_trip_orders(tmp_path, shape):
    xs = rng.standard_normal(shape)
    path = tmp_path / "series.tsrb"
    write_series(xs, path, "binary")
    assert np.array_equal(read_series(path), xs)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (4, 5), (1, 3, 2)],
                         ids=["T1-K1-p1", "T1-K1", "K1-p1", "K1", "T1"])
def test_binary_read_is_writable_and_c_ordered(tmp_path, shape):
    # where the stored order is already C order, the result is still a copy,
    # never a read-only view of the file's bytes
    xs = rng.standard_normal(shape)
    path = tmp_path / "series.tsrb"
    write_series(xs, path, "binary")
    got = read_series(path)
    assert got.flags.writeable and got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got, xs)
    got += 1.0


def test_binary_series_io_holds_one_copy_of_the_payload(tmp_path):
    # a read holds the file's bytes and the result (2x the series), a write
    # one storage-ordered copy of the series (1x) on top of its input
    xs = rng.standard_normal((20, 10, 10, 10))
    path = tmp_path / "series.tsrb"
    tracemalloc.start()
    try:
        write_series(xs, path, "binary")
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        got = read_series(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, xs)
    assert write_peak < 1.25 * xs.nbytes
    assert read_peak - base < 2.25 * xs.nbytes


def test_write_rejects_bad_encoding(tmp_path):
    with pytest.raises(ValueError):
        write_series(np.zeros((2, 2)), tmp_path / "x", "yaml")
    with pytest.raises(ValueError):
        write_series(np.zeros(3), tmp_path / "x", "binary")


def test_text_wrong_value_count(tmp_path):
    path = tmp_path / "bad.tsr"
    path.write_text("TSR 1 text\n2 2 2 1\n1 3 2\n")
    with pytest.raises(FileFormatError):
        read_series(path)


def test_text_bad_headers(tmp_path):
    path = tmp_path / "bad.tsr"
    path.write_text("TSR 2 text\n2 2 2 1\n1 3 2 4\n")
    with pytest.raises(FileFormatError):
        read_series(path)
    path.write_text("TSR 1 text\n3 2 2 1\n1 3 2 4\n")
    with pytest.raises(FileFormatError):
        read_series(path)
    path.write_text("TSR 1 text\n2 2 x 1\n1 3 2 4\n")
    with pytest.raises(FileFormatError):
        read_series(path)
    path.write_text("TSR 1 text\n2 2 2 1\n1 3 two 4\n")
    with pytest.raises(FileFormatError):
        read_series(path)
    path.write_bytes(b"TSR 1 text\n\xff\n")  # text files are ASCII
    with pytest.raises(FileFormatError):
        read_series(path)


def test_binary_zero_mode_count(tmp_path):
    path = tmp_path / "bad.tsrb"
    path.write_bytes(b"TSRB" + struct.pack("<B", 1) + struct.pack("<I", 0) + struct.pack("<Q", 1))
    with pytest.raises(FileFormatError):
        read_series(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + GOLDEN_BINARY[4:])
    with pytest.raises(FileFormatError):
        read_series(path)


def test_binary_bad_version(tmp_path):
    path = tmp_path / "bad.tsrb"
    path.write_bytes(b"TSRB" + struct.pack("<B", 9) + GOLDEN_BINARY[5:])
    with pytest.raises(FileFormatError):
        read_series(path)


def test_binary_truncated_payload(tmp_path):
    path = tmp_path / "bad.tsrb"
    path.write_bytes(GOLDEN_BINARY[:-8])
    with pytest.raises(FileFormatError):
        read_series(path)


def test_binary_truncated_header(tmp_path):
    path = tmp_path / "bad.tsrb"
    path.write_bytes(GOLDEN_BINARY[:10])
    with pytest.raises(FileFormatError):
        read_series(path)


def test_not_a_series_file(tmp_path):
    path = tmp_path / "noise.txt"
    path.write_text("hello world\n")
    with pytest.raises(FileFormatError):
        read_series(path)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_series(tmp_path / "absent.tsrb")


def test_matrix_round_trip(tmp_path):
    a = rng.standard_normal((4, 3))
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    assert np.array_equal(read_matrix(path), a)


def test_matrix_golden(tmp_path):
    path = tmp_path / "a.mtx"
    write_matrix(np.array([[1.5, 2.0], [3.0, 4.0]]), path)
    assert path.read_text() == "MTX 1\n2 2\n1.5 2\n3 4\n"


def test_matrix_errors(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("MAT 1\n2 2\n1 2\n3 4\n")
    with pytest.raises(FileFormatError):
        read_matrix(path)
    path.write_text("MTX 1\n2\n1 2\n")
    with pytest.raises(FileFormatError):
        read_matrix(path)
    path.write_text("MTX 1\n2 2\n1 2 3\n")
    with pytest.raises(FileFormatError):
        read_matrix(path)
    path.write_bytes(b"MTX 1\n1 1\n\xff\n")
    with pytest.raises(FileFormatError):
        read_matrix(path)
    path.write_bytes(GOLDEN_BINARY)  # a binary series where a matrix belongs
    with pytest.raises(FileFormatError):
        read_matrix(path)
    with pytest.raises(ValueError):
        write_matrix(np.zeros(3), path)


# --- the bulk text codec -------------------------------------------------------


def oracle_rows(rows):
    """The per-value writer the bulk codec replaced: one f-string per value."""
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def oracle_series_text(series):
    series = np.asarray(series, dtype=float)
    t_len, dims = series.shape[0], series.shape[1:]
    flat = np.moveaxis(series, 0, -1).ravel(order="F")
    header = " ".join(str(v) for v in (len(dims), *dims, t_len))
    return f"TSR 1 text\n{header}\n" + oracle_rows(flat.reshape(t_len, math.prod(dims)))


def oracle_matrix_text(a):
    a = np.asarray(a, dtype=float)
    return f"MTX 1\n{a.shape[0]} {a.shape[1]}\n" + oracle_rows(a)


SPECIALS = np.array(
    [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310, np.finfo(float).max, 1e16, 1e17, 0.1]
)


def _strided_views():
    x = rng.standard_normal((3, 4, 5))
    return {
        "fortran": np.asfortranarray(x),
        "reversed": x[::-1, :, ::-1],
        "transposed": x.transpose(0, 2, 1),
        "sliced": x[:, ::2, 1:],
        "time-not-outermost": np.moveaxis(x, 2, 0),
    }


@pytest.mark.parametrize(
    "shape", [(3, 4), (2, 3, 4), (2, 3, 1, 2), (1, 2, 2, 2, 2), (1, 3, 3), (4, 1), (3, 1, 1, 1)]
)
def test_text_series_bytes_match_oracle(tmp_path, shape):
    xs = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    path = tmp_path / "s.tsr"
    write_series(xs, path, "text")
    assert path.read_bytes() == oracle_series_text(xs).encode()
    assert np.array_equal(read_series(path), xs)


@pytest.mark.parametrize("name", sorted(_strided_views()))
def test_text_series_bytes_match_oracle_non_c_ordered(tmp_path, name):
    xs = _strided_views()[name]
    path = tmp_path / "s.tsr"
    write_series(xs, path, "text")
    assert path.read_bytes() == oracle_series_text(xs).encode()
    assert np.array_equal(read_series(path), xs)


def test_text_specials_match_oracle(tmp_path):
    xs = SPECIALS.reshape(2, 5)
    path = tmp_path / "s.tsr"
    write_series(xs, path, "text")
    assert path.read_bytes() == oracle_series_text(xs).encode()
    back = read_series(path)
    assert np.array_equal(back, xs, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(xs))
    path = tmp_path / "s.mtx"
    write_matrix(xs.T, path)
    assert path.read_bytes() == oracle_matrix_text(xs.T).encode()
    assert np.array_equal(read_matrix(path), xs.T, equal_nan=True)


@pytest.mark.parametrize("shape", [(4, 3), (1, 1), (1, 5), (5, 1), (7, 10)])
def test_matrix_bytes_match_oracle(tmp_path, shape):
    a = rng.standard_normal(shape)
    path = tmp_path / "a.mtx"
    write_matrix(a, path)
    assert path.read_bytes() == oracle_matrix_text(a).encode()
    write_matrix(np.asfortranarray(a)[::-1], path)
    assert path.read_bytes() == oracle_matrix_text(a[::-1]).encode()


def _fuzzed_tokens(gen, n):
    bits = gen.integers(0, 2**64, size=n, dtype=np.uint64).view(float)
    digits = gen.integers(0, 10, size=(n, 40))
    long_tokens = []
    for row, sign, width, exp in zip(
        digits, gen.integers(0, 2, n), gen.integers(20, 41, n), gen.integers(-340, 320, n)
    ):
        d = "".join(map(str, row[:width]))
        long_tokens.append(f"{'-' if sign else ''}{d[:3]}.{d[3:]}e{exp}")
    return [f"{v:.17g}" for v in bits] + [repr(float(v)) for v in bits] + long_tokens


def test_text_read_is_bit_equal_to_float(tmp_path):
    tokens = _fuzzed_tokens(np.random.default_rng(11), 4000)
    cols = 30
    path = tmp_path / "fuzz.mtx"
    lines = [" ".join(tokens[i:i + cols]) for i in range(0, len(tokens), cols)]
    path.write_text(f"MTX 1\n{len(lines)} {cols}\n" + "\n".join(lines) + "\n")
    expected = np.array([float(t) for t in tokens])
    assert np.array_equal(read_matrix(path).ravel().view(np.uint64), expected.view(np.uint64))
    path = tmp_path / "fuzz.tsr"
    path.write_text(f"TSR 1 text\n1 {cols} {len(lines)}\n" + "\n".join(lines) + "\n")
    assert np.array_equal(read_series(path).ravel().view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("encoding", ["text", "binary"])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 2)])
def test_write_series_rejects_zero_length_axis(tmp_path, encoding, shape):
    path = tmp_path / "empty.tsr"
    with pytest.raises(ValueError):
        write_series(np.zeros(shape), path, encoding)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_write_matrix_rejects_zero_length_axis(tmp_path, shape):
    path = tmp_path / "empty.mtx"
    with pytest.raises(ValueError):
        write_matrix(np.zeros(shape), path)
    assert not path.exists()


# payloads for 2 lines of 4 values: a (2, 2) T=2 series or a 2x4 matrix
BAD_PAYLOADS = {
    "ragged": "1 2 3\n4 5 6 7 8\n",
    "one line": "1 2 3 4 5 6 7 8\n",
    "empty": "",
    "blank only": "\n   \n\n",
    "hash": "1 2 3 4\n5 6 # 8\n",
    "hex": "1 2 3 4\n5 6 0x10 8\n",
    "comma": "1 2 3 4\n5 6 1,5 8\n",
    "word": "1 2 3 4\n5 6 two 8\n",
    "underscore": "1 2 3 4\n5 6 1_0 8\n",
    "extra line": "1 2 3 4\n5 6 7 8\n9 10 11 12\n",
}
GOOD_PAYLOADS = {
    "specials": ("nan inf -Infinity 4\n5 6 7 8\n", [np.nan, np.inf, -np.inf, 4, 5, 6, 7, 8]),
    "blank lines": ("\n1 2 3 4\n  \n5 6 7 8\n\n", [1, 2, 3, 4, 5, 6, 7, 8]),
}
READERS = {
    # storage order is mode-1-major within a slice, hence the transpose
    "series": (
        lambda path: read_series(path).transpose(0, 2, 1).reshape(2, 4),
        "TSR 1 text\n2 2 2 2\n",
        ".tsr",
    ),
    "matrix": (read_matrix, "MTX 1\n2 4\n", ".mtx"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("payload", sorted(BAD_PAYLOADS))
def test_text_payload_layout_errors(tmp_path, reader, payload):
    read, header, ext = READERS[reader]
    path = tmp_path / f"bad{ext}"
    path.write_text(header + BAD_PAYLOADS[payload])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FileFormatError):
            read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("payload", sorted(GOOD_PAYLOADS))
def test_text_payload_accepted(tmp_path, reader, payload):
    read, header, ext = READERS[reader]
    text, values = GOOD_PAYLOADS[payload]
    path = tmp_path / f"good{ext}"
    path.write_text(header + text)
    assert np.array_equal(read(path), np.reshape(values, (2, 4)), equal_nan=True)


def test_text_writers_ignore_a_gz_suffix(tmp_path):
    # a .gz name is only a name: the payload is plain ASCII, never gzip
    xs = rng.standard_normal((3, 2, 2))
    path = tmp_path / "s.tsr.gz"
    write_series(xs, path, "text")
    assert path.read_bytes() == oracle_series_text(xs).encode()
    assert np.array_equal(read_series(path), xs)
    a = rng.standard_normal((4, 3))
    path = tmp_path / "a.mtx.gz"
    write_matrix(a, path)
    assert path.read_bytes() == oracle_matrix_text(a).encode()
    assert np.array_equal(read_matrix(path), a)
