"""On-disk formats: the NMF1 matrix container and the run-trace CSV.

NMF1 layout (little-endian throughout):

    offset 0   4 bytes   magic b"NMF1"
    offset 4   uint32    rows
    offset 8   uint32    cols
    offset 12  float64 * rows * cols, column-major

CSV import/export of matrices is provided for interop; values are written
with 17 significant digits so a write/read round trip is exact.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .linalg import as_matrix
from .solver import TraceRow

MAGIC = b"NMF1"
_HEADER = struct.Struct("<4sII")

TRACE_HEADER = ("stage", "iter", "seconds", "alpha", "total_error",
                "log10_error", "E_norm", "N_norm")


class MatrixFormatError(ValueError):
    """Malformed NMF1 file; message carries the byte offset of the problem."""


def write_matrix(path, a) -> None:
    a = as_matrix(a, "matrix")
    rows, cols = a.shape
    payload = np.asfortranarray(a).tobytes(order="F")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols))
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise MatrixFormatError(
            f"{path}: truncated header, need {_HEADER.size} bytes, got {len(buf)} (offset 0)"
        )
    magic, rows, cols = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"{path}: invalid shape {rows}x{cols} at offset 4")
    expect = rows * cols * 8
    got = len(buf) - _HEADER.size
    if got != expect:
        raise MatrixFormatError(
            f"{path}: payload at offset {_HEADER.size} has {got} bytes, expected {expect}"
        )
    flat = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size)
    m = np.array(flat.reshape((rows, cols), order="F"))
    if not np.all(np.isfinite(m)):
        bad = int(np.flatnonzero(~np.isfinite(m.ravel(order="F")))[0])
        raise MatrixFormatError(
            f"{path}: non-finite value at offset {_HEADER.size + 8 * bad}"
        )
    return m


def write_matrix_csv(path, a) -> None:
    a = as_matrix(a, "matrix")
    np.savetxt(path, a, delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> np.ndarray:
    return as_matrix(np.loadtxt(path, delimiter=",", ndmin=2), str(path))


def _fmt(x) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return format(x, ".17g")


class TraceWriter:
    """Streams trace rows to a CSV file: the header on open, then one line per
    call, so a run that fails midway leaves its rows so far on disk."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(TRACE_HEADER)

    def __call__(self, r: TraceRow) -> None:
        self._writer.writerow([
            r.stage, r.iteration, _fmt(r.seconds), _fmt(r.alpha),
            _fmt(r.total_error), _fmt(r.log10_error),
            _fmt(r.e_norm), _fmt(r.n_norm),
        ])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def write_trace(path, rows: list[TraceRow]) -> None:
    with TraceWriter(path) as write:
        for r in rows:
            write(r)


def read_trace(path) -> list[TraceRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRACE_HEADER:
            raise MatrixFormatError(f"{path}: unexpected trace header {header}")
        rows = []
        for rec in reader:
            rows.append(TraceRow(
                stage=int(rec[0]),
                iteration=int(rec[1]),
                seconds=float(rec[2]),
                alpha=float(rec[3]),
                total_error=float(rec[4]),
                log10_error=float(rec[5]),
                e_norm=float(rec[6]) if rec[6] else None,
                n_norm=float(rec[7]) if rec[7] else None,
            ))
    return rows
