"""Dataset ingestion (synthetic blob generator, CSV and IDX parsers) and the CSV writer.

All inputs are normalized into [0, 1]; splits are deterministic functions
of the seed.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# the dataset descriptor's defaults; a run config's dataset section starts from a copy
DATASET_DEFAULTS = {"kind": "synthetic", "n": 2000, "size": 16, "classes": 2, "noise": 0.15,
                    "test_fraction": 0.2}


class DataFormatError(ValueError):
    """Malformed dataset file or descriptor."""


@dataclass
class Dataset:
    inputs: np.ndarray  # (n, c, h, w) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise DataFormatError(
                f"{len(self.inputs)} inputs but {len(self.labels)} labels"
            )
        if self.inputs.size and (self.inputs.min() < 0.0 or self.inputs.max() > 1.0):
            raise DataFormatError("inputs must lie in [0, 1] after normalization")

    def __len__(self) -> int:
        return len(self.labels)

    def batches(self, batch_size: int, rng: np.random.Generator | None = None):
        """Yield (inputs, labels) batches, shuffled when an RNG is given."""
        idx = np.arange(len(self))
        if rng is not None:
            rng.shuffle(idx)
        for i in range(0, len(idx), batch_size):
            sel = idx[i : i + batch_size]
            yield self.inputs[sel], self.labels[sel]


def synthetic_blobs(n: int, size: int, classes: int, noise: float,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced images with one Gaussian blob whose location encodes the class."""
    if classes < 2:
        raise DataFormatError(f"dataset.classes must be >= 2, got {classes}")
    if n < 0 or noise < 0:
        raise DataFormatError(f"dataset.n and dataset.noise must be >= 0, got {n} and {noise}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    try:
        images = np.empty((n, 1, size, size))
        labels = np.tile(np.arange(classes), n // classes + 1)[:n]
    except (OverflowError, ValueError, MemoryError) as exc:
        gib = n * size * size * 8 >> 30  # integers only: a float overflows past about 1e308
        amount = f"{gib}" if gib < 2**40 else f"at least 2^{gib.bit_length() - 1}"
        raise DataFormatError(f"dataset.n = {n}, dataset.size = {size}: {amount} GiB of images "
                              "cannot be allocated") from exc
    rng.shuffle(labels)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    # class c sits at cell (c // g, c % g) of a g x g grid: 2-4 classes at 0.25 and 0.75
    g = max(2, math.ceil(math.sqrt(classes)))
    centers = [(size * (c // g + 0.5) / g, size * (c % g + 0.5) / g) for c in range(classes)]
    for i, c in enumerate(labels):
        cy, cx = centers[c]
        cy += rng.normal(0, size * 0.06)
        cx += rng.normal(0, size * 0.06)
        width = size * rng.uniform(0.10, 0.16)
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
        img = 0.75 * blob + rng.normal(0, noise, size=(size, size))
        images[i, 0] = np.clip(img, 0.0, 1.0)
    return images, labels.astype(np.int64)


def _split(inputs: np.ndarray, labels: np.ndarray, seed: int,
           test_fraction: float) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(13,)))
    idx = rng.permutation(len(labels))
    n_test = int(round(test_fraction * len(labels)))
    test_idx, train_idx = idx[:n_test], idx[n_test:]
    return (
        Dataset(inputs[train_idx], labels[train_idx]),
        Dataset(inputs[test_idx], labels[test_idx]),
    )


def write_csv(path, header: list[str], rows) -> None:
    """Write one CSV artifact: the header row, then each row of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path, classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``label,pixel,...`` with pixels in [0, 255]; square grayscale images."""
    rows = []
    labels = []
    with open(path, newline="", errors="replace") as fh:  # bytes that are not text fail as cells
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DataFormatError(f"{path}: non-numeric cell in row {lineno}") from exc
            if not all(map(math.isfinite, values)):
                raise DataFormatError(f"{path}: non-finite cell in row {lineno}")
            label = values[0]
            if label != int(label) or label < 0:
                raise DataFormatError(f"{path}: invalid label {label} in row {lineno}")
            if int(label) >= classes:
                raise DataFormatError(
                    f"{path}: label {int(label)} out of range (classes={classes}) in row {lineno}"
                )
            pixels = np.array(values[1:])
            if pixels.size == 0:
                raise DataFormatError(f"{path}: no pixels in row {lineno}")
            if pixels.min() < 0 or pixels.max() > 255:
                raise DataFormatError(f"{path}: pixel outside [0, 255] in row {lineno}")
            side = int(np.sqrt(pixels.size))
            if side * side != pixels.size:
                raise DataFormatError(f"{path}: row {lineno} is not a square image")
            if rows and rows[0].size != pixels.size:
                raise DataFormatError(f"{path}: row {lineno} has {pixels.size} pixels, "
                                      f"the first row {rows[0].size}")
            rows.append(pixels.reshape(1, side, side) / 255.0)
            labels.append(int(label))
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")
    return np.stack(rows), np.array(labels, dtype=np.int64)


def load_idx(images_path, labels_path, classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Big-endian IDX pair: magic 0x803 image file plus magic 0x801 label file."""
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{images_path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        pixels = count * rows * cols
        raw = fh.read()  # a header can claim any size: check it against the bytes there are
        if len(raw) < pixels:
            raise DataFormatError(f"{images_path}: header claims {pixels} pixels, "
                                  f"file has {len(raw)}")
        images = np.frombuffer(raw, np.uint8, pixels).reshape(count, 1, rows, cols) / 255.0
    with open(labels_path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise DataFormatError(f"{labels_path}: truncated IDX header")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        raw = fh.read()
        if len(raw) < n_labels:
            raise DataFormatError(f"{labels_path}: header claims {n_labels} labels, "
                                  f"file has {len(raw)}")
        labels = np.frombuffer(raw, np.uint8, n_labels).astype(np.int64)
    if n_labels != count:
        raise DataFormatError(f"IDX pair mismatch: {count} images vs {n_labels} labels")
    if labels.size and labels.max() >= classes:
        raise DataFormatError(f"{labels_path}: label {labels.max()} out of range (classes={classes})")
    return images, labels


def ingest(descriptor: dict, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Build (train, test) from a dataset descriptor merged over ``DATASET_DEFAULTS``.

    ``kind`` in {synthetic, csv, idx}; synthetic takes n/size/classes/noise, csv takes
    path, idx takes images/labels paths. Loaded images must be ``size`` x ``size`` and
    their labels below ``classes``. ``test_fraction`` controls the deterministic split.
    """
    d = {**DATASET_DEFAULTS, **descriptor}
    kind, size, classes, test_fraction = d["kind"], d["size"], d["classes"], d["test_fraction"]
    if kind == "synthetic":
        inputs, labels = synthetic_blobs(d["n"], size, classes, d["noise"], seed)
    elif kind == "csv":
        inputs, labels = load_csv(Path(d["path"]), classes)
    elif kind == "idx":
        inputs, labels = load_idx(Path(d["images"]), Path(d["labels"]), classes)
    else:
        raise DataFormatError(f"unknown dataset kind {kind!r}: dataset.kind must be one of "
                              "synthetic, csv, idx")
    if inputs.shape[2:] != (size, size):
        raise DataFormatError(f"{kind} images are {inputs.shape[2]}x{inputs.shape[3]}, "
                              f"not dataset.size x dataset.size = {size}x{size}")
    if not 0.0 < test_fraction < 1.0:
        raise DataFormatError(f"dataset.test_fraction must be in (0, 1), got {test_fraction}")
    train, test = _split(inputs, labels, seed, test_fraction)
    if not len(train) or not len(test):
        raise DataFormatError(f"{len(labels)} examples at test_fraction {test_fraction} "
                              f"leave {len(train)} to train on and {len(test)} to test on")
    return train, test
