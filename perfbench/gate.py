"""Correctness gate applied to every output directory the benchmark measures.

The gate is independent of the program: it reads NMF1 files and trace CSVs
itself and recomputes the total correlation error with its own NumPy code.
It uses `np.einsum` (no BLAS) so that the benchmark process never wakes a
BLAS thread pool that would compete with the next timed child.

A directory passes when
  - every solver in summary.json has status "ok" and the expected row count,
  - every trace CSV has the expected number of rows,
  - the dataset files hash to the reference SHA-256 pinned for this seed,
  - every solver's recomputed final error is within RTOL (relative) of the
    reference value and of the value summary.json reports.
Errors are compared with a tolerance, never bitwise: the BLAS thread count
alone moves the last digit.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

DATASET_FILES = ("A_star.mat", "X.mat", "Y.mat", "Zeta.mat", "A0.mat")
RTOL = 1e-6
_HEADER = struct.Struct("<4sII")


def read_nmf1(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    magic, rows, cols = _HEADER.unpack_from(buf)
    if magic != b"NMF1" or len(buf) != _HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: not a well-formed NMF1 file")
    return np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).reshape((rows, cols), order="F")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dataset_hashes(out_dir) -> dict:
    return {name: sha256(Path(out_dir) / name) for name in DATASET_FILES}


def correlation_error(a: np.ndarray, a_star: np.ndarray) -> float:
    """sum_i min_{j, sigma} ||a*_i - sigma a_j||_2 over nonzero columns a_j."""
    h = np.einsum("wj,wi->ji", a, a_star)
    cn = np.einsum("wj,wj->j", a, a)
    star2 = np.einsum("wi,wi->i", a_star, a_star)
    ok = cn > 1e-24
    if not ok.any():
        return float(np.sqrt(star2).sum())
    res2 = np.full(h.shape, np.inf)
    res2[ok] = star2[None, :] - h[ok] ** 2 / cn[ok, None]
    js = np.argmin(res2, axis=0)
    sigma = h[js, np.arange(a_star.shape[1])] / cn[js]
    resid = a_star - a[:, js] * sigma[None, :]
    return float(np.sqrt(np.einsum("wi,wi->i", resid, resid)).sum())


def recovered_digits(error: float, out_dir) -> float:
    """-log10 of `error` relative to the ground truth's total column norm,
    the error of the all-zero estimate: the digits of A* recovered."""
    a_star = read_nmf1(Path(out_dir) / "A_star.mat")
    return -math.log10(error / float(np.sqrt(np.einsum("wi,wi->i", a_star, a_star)).sum()))


def _close(x, ref) -> bool:
    return abs(x - ref) <= RTOL * abs(ref)


def check_dataset(out_dir, reference: dict) -> list[str]:
    """Failures of the generated dataset files against the pinned hashes."""
    got = dataset_hashes(out_dir)
    return [f"{name}: sha256 {got[name][:12]} != reference {reference['files'][name][:12]}"
            for name in DATASET_FILES if got[name] != reference["files"][name]]


def check_run(out_dir, expected_rows: dict, reference: dict) -> tuple[dict, dict]:
    """Failures of a finished run directory, keyed by solver label, and the
    recomputed final errors. A failure that concerns no single solver (such
    as a wrong set of labels) is filed under every expected label."""
    out = Path(out_dir)
    failures = {label: [] for label in expected_rows}
    summary = json.loads((out / "summary.json").read_text())
    solvers = {s["label"]: s for s in summary["solvers"]}
    if set(solvers) != set(expected_rows):
        msg = f"summary labels {sorted(solvers)} != expected {sorted(expected_rows)}"
        return {label: [msg] for label in expected_rows}, {}
    for label, want in expected_rows.items():
        s = solvers[label]
        if s["status"] != "ok":
            failures[label].append(f"status {s['status']!r}: {s.get('detail', '')}")
            continue
        if s["rows"] != want:
            failures[label].append(f"summary reports {s['rows']} rows, expected {want}")
        with open(out / f"{label}_trace.csv") as fh:
            written = sum(1 for _ in fh) - 1
        if written != want:
            failures[label].append(f"trace CSV has {written} rows, expected {want}")
    errors = {}
    a_star = read_nmf1(out / "A_star.mat")
    for label in expected_rows:
        if failures[label]:
            continue
        err = errors[label] = correlation_error(read_nmf1(out / f"{label}_A_final.mat"), a_star)
        ref = reference["final_error"][label]
        if not _close(err, ref):
            failures[label].append(f"recomputed final error {err!r} != reference {ref!r}")
        if not _close(err, solvers[label]["final_error"]):
            failures[label].append(
                f"recomputed final error {err!r} != summary {solvers[label]['final_error']!r}")
    return {label: f for label, f in failures.items() if f}, errors
