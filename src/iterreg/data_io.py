"""Dataset ingestion (IDX image/label files), synthetic data, and reports.

The IDX container is the classic big-endian format: images carry magic
0x00000803 followed by (count, rows, cols) and raw bytes; labels carry
magic 0x00000801 followed by (count) and one byte per label.  Files
ending in ``.gz`` are transparently decompressed.
"""

from __future__ import annotations

import csv
import gzip
import json
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Dataset",
    "Report",
    "IdxFormatError",
    "load_idx",
    "write_idx_images",
    "write_idx_labels",
    "one_hot",
    "synthetic_mnist",
    "write_report",
]

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1] with one-hot labels and a provenance tag."""

    X: np.ndarray
    Y: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        x = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.Y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and Y (n, c) with matching n")
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise ValueError("features must lie in [0, 1]")
        if y.size and not (np.isin(y, (0.0, 1.0)).all() and np.allclose(y.sum(axis=1), 1.0)):
            raise ValueError("labels must be one-hot rows")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _open_maybe_gzip(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def _read_exact(fh, count: int, path: str, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxFormatError(f"{path}: truncated while reading {what} "
                             f"(wanted {count} bytes, got {len(data)})")
    return data


def load_idx(images_path: str, labels_path: str, limit: Optional[int] = None) -> Dataset:
    """Load an IDX image/label pair into a flat [0,1] feature matrix.

    Pixels are divided by 255 and labels one-hot encoded to 10 classes.
    ``limit`` truncates to the first rows for desk-scale runs.
    """
    with _open_maybe_gzip(images_path, "rb") as fh:
        magic, n_images, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, images_path, "image header")
        )
        if magic != _IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at offset 0 "
                f"(expected 0x{_IMAGE_MAGIC:08x})"
            )
        take = n_images if limit is None else min(limit, n_images)
        raw = _read_exact(fh, take * rows * cols, images_path, f"{take} images")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(take, rows * cols)

    with _open_maybe_gzip(labels_path, "rb") as fh:
        magic, n_labels = struct.unpack(
            ">II", _read_exact(fh, 8, labels_path, "label header")
        )
        if magic != _LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at offset 0 "
                f"(expected 0x{_LABEL_MAGIC:08x})"
            )
        if n_labels != n_images:
            raise IdxFormatError(
                f"label count {n_labels} != image count {n_images} "
                f"({labels_path} vs {images_path})"
            )
        raw = _read_exact(fh, take, labels_path, f"{take} labels")
    labels = np.frombuffer(raw, dtype=np.uint8)

    return Dataset(
        X=pixels.astype(np.float64) / 255.0,
        Y=one_hot(labels, 10),
        provenance=f"{images_path};{labels_path};limit={limit}",
    )


def write_idx_images(path: str, images: np.ndarray) -> None:
    """Write a uint8 (n, rows, cols) stack in IDX image format."""
    images = np.asarray(images)
    if images.dtype != np.uint8 or images.ndim != 3:
        raise ValueError("images must be a uint8 (n, rows, cols) array")
    n, rows, cols = images.shape
    with _open_maybe_gzip(path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    """Write uint8 labels in IDX label format."""
    labels = np.asarray(labels)
    if labels.dtype != np.uint8 or labels.ndim != 1:
        raise ValueError("labels must be a uint8 (n,) array")
    with _open_maybe_gzip(path, "wb") as fh:
        fh.write(struct.pack(">II", _LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def one_hot(labels, c: int) -> np.ndarray:
    """n x c one-hot matrix from integer labels in [0, c)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        bad = labels.min() if labels.min() < 0 else labels.max()
        raise ValueError(f"label {bad} outside [0, {c})")
    out = np.zeros((labels.size, c))
    if labels.size:
        out[np.arange(labels.size), labels] = 1.0
    return out


def synthetic_mnist(n: int = 2000, seed: int = 7, side: int = 28):
    """Seeded MNIST-like stand-in: images whose classes are bit patterns.

    Each of the four classes is a combination of two global +-0.2 pixel
    patterns on top of a 0.45 background, plus per-sample noise uniform
    in +-0.03, so pixels stay inside [0, 1]; they are quantized to the
    uint8 grid so an IDX round trip is exact.  The construction keeps the
    label-relevant directions of the second-moment matrix well separated
    from the noise directions, which makes regression error curves clean
    at desk scale.

    Returns (images uint8 (n, side, side), labels uint8 (n,)).
    """
    rng = np.random.default_rng(seed)
    d = side * side
    patterns = rng.choice((-1.0, 1.0), size=(2, d))
    labels = rng.integers(0, 4, size=n)
    signs = ((labels[:, None] >> np.arange(2)[None, :]) & 1) * 2.0 - 1.0
    pixels = 0.45 + signs @ (0.2 * patterns)
    pixels += 0.03 * rng.uniform(-1.0, 1.0, size=(n, d))
    pixels = np.clip(pixels, 0.0, 1.0)
    images = np.round(pixels * 255.0).astype(np.uint8).reshape(n, side, side)
    return images, labels.astype(np.uint8)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class Report:
    """Per-iteration error columns for one experiment, plus its config."""

    experiment: str
    iters: list = field(default_factory=list)
    err_plain: list = field(default_factory=list)
    err_avg: list = field(default_factory=list)
    p_cumulative: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def validate(self) -> None:
        n = len(self.iters)
        if not (len(self.err_plain) == len(self.err_avg) == len(self.p_cumulative) == n):
            raise ValueError("report columns have inconsistent lengths")
        for name in ("err_plain", "err_avg", "p_cumulative"):
            col = np.asarray(getattr(self, name), dtype=np.float64)
            if col.size and not np.isfinite(col).all():
                raise ValueError(f"report column {name} contains non-finite values")


_CSV_COLUMNS = ["iter", "err_plain_vs_reg_l1", "err_avg_vs_reg_l1", "P_k"]


def write_report(report: Report, path: str, format: str = "csv") -> None:
    """Serialize a report; numeric text uses shortest round-trip floats,
    so parsing it back yields bit-identical float64 values."""
    report.validate()
    if format == "csv":
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for i, row in enumerate(zip(report.err_plain, report.err_avg, report.p_cumulative)):
                writer.writerow([report.iters[i]] + [repr(float(v)) for v in row])
    elif format == "json":
        payload = {
            "experiment": report.experiment,
            "config": report.config,
            "wall_clock_s": report.wall_clock_s,
            "columns": {
                "iter": [int(i) for i in report.iters],
                "err_plain_vs_reg_l1": [float(v) for v in report.err_plain],
                "err_avg_vs_reg_l1": [float(v) for v in report.err_avg],
                "P_k": [float(v) for v in report.p_cumulative],
            },
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=1)
    else:
        raise ValueError(f"unknown report format {format!r}")

