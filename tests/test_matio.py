import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from andnmf.linalg import BLOCK_BYTES
from andnmf.matio import (
    MAGIC,
    TRACE_HEADER,
    MatrixFormatError,
    TraceWriter,
    read_matrix,
    read_trace,
    write_matrix,
)
from andnmf.solver import TraceRow


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 3))
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_binary_layout_is_column_major_le(tmp_path):
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    buf = path.read_bytes()
    assert buf[:4] == MAGIC
    rows, cols = struct.unpack_from("<II", buf, 4)
    assert (rows, cols) == (2, 2)
    values = struct.unpack_from("<4d", buf, 12)
    assert values == (1.0, 2.0, 3.0, 4.0)  # column-major order


@pytest.mark.parametrize("layout", ["c", "fortran", "strided", "transposed", "vector"])
def test_binary_layout_does_not_depend_on_memory_order(tmp_path, layout):
    base = np.arange(1.0, 25.0).reshape(4, 6)
    m = {"c": base, "fortran": np.asfortranarray(base), "strided": base[::2, 1::2],
         "transposed": base.T, "vector": base[1]}[layout]
    expect = m.reshape(-1, 1) if m.ndim == 1 else m
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    buf = path.read_bytes()
    assert struct.unpack_from("<II", buf, 4) == expect.shape
    assert np.frombuffer(buf, "<f8", offset=12).tolist() == expect.ravel(order="F").tolist()


def _layouts(expect):
    strided = np.empty((2 * expect.shape[0], 3 * expect.shape[1]))[::2, ::3]
    strided[...] = expect
    return {"c": np.ascontiguousarray(expect), "fortran": np.asfortranarray(expect),
            "strided": strided, "transposed": np.ascontiguousarray(expect.T).T}


# rows and columns around the write's block width: columns of k = BLOCK_BYTES //
# (8 * rows) per block; a one-row matrix; and a column taller than one block
_ROWS = 4096
_WIDTH = BLOCK_BYTES // (8 * _ROWS)


@pytest.mark.parametrize("layout", ["c", "fortran", "strided", "transposed"])
@pytest.mark.parametrize("shape", [
    (_ROWS, _WIDTH - 1), (_ROWS, _WIDTH), (_ROWS, _WIDTH + 1), (_ROWS, 2 * _WIDTH + 1),
    (1, BLOCK_BYTES // 8 + 1), (BLOCK_BYTES // 8 + 1, 2),
])
def test_binary_layout_does_not_depend_on_block_boundaries(tmp_path, layout, shape):
    expect = np.random.default_rng(shape[1]).random(shape)
    m = _layouts(expect)[layout]
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    buf = path.read_bytes()
    assert struct.unpack_from("<II", buf, 4) == shape
    assert buf[12:] == expect.ravel(order="F").astype("<f8").tobytes()


def test_non_finite_write_leaves_an_existing_file_unchanged(tmp_path):
    # the whole matrix is validated before the file is opened, so a NaN in
    # the last column block never leaves earlier blocks on disk
    path = tmp_path / "m.mat"
    write_matrix(path, np.ones((3, 2)))
    before = path.read_bytes()
    m = np.random.default_rng(3).random((1000, 300))
    m[5, -1] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry at \(5, 299\)"):
        write_matrix(path, m)
    assert path.read_bytes() == before


def test_write_peak_memory_is_one_column_block(tmp_path):
    # a row-major matrix is made column-major one ~1 MB block at a time
    m = np.random.default_rng(4).random((1000, 2000))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.mat", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 8


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(MatrixFormatError, match="offset 0"):
        read_matrix(path)


def test_read_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.mat"
    path.write_bytes(b"NM")
    with pytest.raises(MatrixFormatError, match="truncated header"):
        read_matrix(path)


def test_read_rejects_payload_mismatch(tmp_path):
    path = tmp_path / "trunc.mat"
    path.write_bytes(struct.pack("<4sII", MAGIC, 2, 2) + b"\x00" * 16)
    with pytest.raises(MatrixFormatError, match="expected 32"):
        read_matrix(path)


def test_read_rejects_nonfinite_payload(tmp_path):
    path = tmp_path / "nan.mat"
    payload = struct.pack("<2d", 1.0, math.nan)
    path.write_bytes(struct.pack("<4sII", MAGIC, 2, 1) + payload)
    with pytest.raises(MatrixFormatError, match="offset 20"):
        read_matrix(path)


def test_read_peak_memory_is_about_the_payload(tmp_path):
    # the payload is read straight into the result, with no whole-file bytes
    # object or second array beside it
    m = np.random.default_rng(1).random((500, 400))
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    tracemalloc.start()
    try:
        read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * m.nbytes


def test_read_peak_memory_is_the_payload_and_one_block(tmp_path):
    m = np.random.default_rng(5).random((1000, 2000))
    path = tmp_path / "m.mat"
    write_matrix(path, m)
    tracemalloc.start()
    try:
        read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.02 * m.nbytes


def test_read_names_a_non_finite_value_past_the_first_block(tmp_path):
    rows = BLOCK_BYTES // 8 + 3
    m = np.zeros((rows, 2))
    m[0, -1] = np.inf
    m[-1, 0] = np.nan  # first in the column-major payload, past its first block
    path = tmp_path / "nan.mat"
    path.write_bytes(struct.pack("<4sII", MAGIC, rows, 2) + m.ravel(order="F").tobytes())
    with pytest.raises(MatrixFormatError, match=rf"non-finite value at offset {12 + 8 * (rows - 1)}$"):
        read_matrix(path)


def test_extreme_finite_values_round_trip_without_warning(tmp_path):
    m = np.full((BLOCK_BYTES // 8 + 3, 2), 1e308)
    m[::2] = -1e308
    path = tmp_path / "m.mat"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)


def test_trace_round_trip(tmp_path):
    rows = [
        TraceRow(0, 0, 0.001234, 0.1, 12.5, math.log10(12.5), 0.3, 0.001),
        TraceRow(0, 1, 0.002, 0.1, 11.0, math.log10(11.0), None, None),
        TraceRow(1, 0, 0.003, 0.1 / 1.1, 0.0, -math.inf, 0.1, 0.0),
        # a divergence row: an unevaluated iterate, no norms
        TraceRow(1, 4, 0.004, 0.1 / 1.1, math.inf, math.inf, None, None),
    ]
    path = tmp_path / "trace.csv"
    with TraceWriter(path) as write:
        for r in rows:
            write(r)
    back = read_trace(path)
    assert back == rows  # exact value round trip at 17 significant digits


@pytest.mark.parametrize("field", [f for f in TRACE_HEADER if f not in ("E_norm", "N_norm")])
def test_trace_reader_rejects_an_empty_field_that_is_always_written(tmp_path, field):
    values = dict(zip(TRACE_HEADER, ["0", "1", "0.5", "0.1", "12.5", "1.1", "0.3", "0.001"]))
    values[field] = ""
    path = tmp_path / "trace.csv"
    path.write_text(",".join(TRACE_HEADER) + "\n" + ",".join(values.values()) + "\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_trace_header_exact(tmp_path):
    path = tmp_path / "trace.csv"
    with TraceWriter(path):
        pass
    header = path.read_text().splitlines()[0]
    assert header == "stage,iter,seconds,alpha,total_error,log10_error,E_norm,N_norm"


def test_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(MatrixFormatError, match="header"):
        read_trace(path)
