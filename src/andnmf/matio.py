"""On-disk formats: the NMF1 matrix container and the run-trace CSV.

NMF1 layout (little-endian throughout):

    offset 0   4 bytes   magic b"NMF1"
    offset 4   uint32    rows
    offset 8   uint32    cols
    offset 12  float64 * rows * cols, column-major

A matrix is written in column blocks of about `linalg.BLOCK_BYTES`, each
made column-major on its own, so writing a row-major matrix adds one block,
not a full column-major copy. It is validated before the file is opened: a
non-finite matrix leaves no partial file. A read fills one array straight
from the file and checks it with the same block-wise scan.

Trace values are written with 17 significant digits so a write/read round
trip is exact.
"""

from __future__ import annotations

import csv
import math
import os
import struct

import numpy as np

from .linalg import BLOCK_BYTES, as_matrix, first_non_finite
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
    width = max(1, BLOCK_BYTES // (8 * rows))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, rows, cols))
        for c in range(0, cols, width):
            # a copy of one block, or a view of it when `a` is column-major
            fh.write(np.asfortranarray(a[:, c:c + width]).T.data)


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise MatrixFormatError(
                f"{path}: truncated header, need {_HEADER.size} bytes, got {len(header)} (offset 0)"
            )
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise MatrixFormatError(f"{path}: bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        if rows < 1 or cols < 1:
            raise MatrixFormatError(f"{path}: invalid shape {rows}x{cols} at offset 4")
        expect = rows * cols * 8
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got != expect:
            raise MatrixFormatError(
                f"{path}: payload at offset {_HEADER.size} has {got} bytes, expected {expect}"
            )
        flat = np.fromfile(fh, dtype="<f8", count=rows * cols)
    bad = first_non_finite(flat)
    if bad is not None:
        raise MatrixFormatError(
            f"{path}: non-finite value at offset {_HEADER.size + 8 * bad[0]}"
        )
    return flat.reshape((rows, cols), order="F")


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
