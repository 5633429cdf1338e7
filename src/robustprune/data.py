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

    def batches(self, batch_size: int, rng: np.random.Generator):
        """Yield (inputs, labels) batches in an order shuffled by ``rng``."""
        idx = rng.permutation(len(self))
        for i in range(0, len(idx), batch_size):
            sel = idx[i : i + batch_size]
            yield self.inputs[sel], self.labels[sel]


def synthetic_blobs(n: int, size: int, classes: int, noise: float,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced images with one Gaussian blob whose location encodes the class."""
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


def load_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``label,pixel,...`` with pixels in [0, 255]; square grayscale images. The labels
    come back as parsed, in float64; ``ingest`` checks them against ``dataset.classes``."""
    rows, linenos = [], []
    with open(path, newline="", errors="replace") as fh:  # bytes that are not text fail as cells
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                values = np.array([float(v) for v in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}: non-numeric cell in row {lineno}") from exc
            if rows and rows[0].size != values.size:
                raise DataFormatError(f"{path}: row {lineno} has {values.size - 1} pixels, "
                                      f"the first row {rows[0].size - 1}")
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{path}: empty dataset")
    table = np.stack(rows)
    labels, pixels = table[:, 0], table[:, 1:]
    for bad, fault in ((~np.isfinite(table).all(axis=1), "non-finite cell"),
                       ((labels != np.floor(labels)) | (labels < 0), "invalid label {label}"),
                       (((pixels < 0) | (pixels > 255)).any(axis=1), "pixel outside [0, 255]")):
        if bad.any():  # the first row that holds the fault
            i = int(bad.argmax())
            raise DataFormatError(f"{path}: {fault.format(label=labels[i])} in row {linenos[i]}")
    side = math.isqrt(pixels.shape[1])
    if side == 0 or side * side != pixels.shape[1]:
        raise DataFormatError(f"{path}: rows of {pixels.shape[1]} pixels are not square images")
    return pixels.reshape(-1, 1, side, side) / 255.0, labels


def _read_idx(path, magic: int, dims: int, unit: str) -> tuple[list[int], bytes]:
    """One big-endian IDX file: its magic, ``dims`` sizes, then one byte per ``unit``.

    Returns the sizes and the bytes they claim, once the header is whole, its magic is
    ``magic``, and the file holds at least the claimed bytes."""
    with open(path, "rb") as fh:
        header, raw = fh.read(4 * (dims + 1)), fh.read()
    if len(header) < 4 * (dims + 1):
        raise DataFormatError(f"{path}: truncated IDX header")
    found, *sizes = struct.unpack(f">{dims + 1}I", header)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    claimed = math.prod(sizes)  # a header can claim any size: check it against the bytes there are
    if len(raw) < claimed:
        raise DataFormatError(f"{path}: header claims {claimed} {unit}, file has {len(raw)}")
    return sizes, raw[:claimed]


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Big-endian IDX pair: magic 0x803 image file plus magic 0x801 label file. The labels
    come back as stored, in uint8; ``ingest`` checks them against ``dataset.classes``."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixels")
    (n_labels,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "labels")
    if n_labels != count:
        raise DataFormatError(f"IDX pair mismatch: {count} images vs {n_labels} labels")
    images = np.frombuffer(pixels, np.uint8).reshape(count, 1, rows, cols) / 255.0
    return images, np.frombuffer(labels, np.uint8)


def ingest(descriptor: dict, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Build (train, test) from a dataset descriptor merged over ``DATASET_DEFAULTS``.

    ``kind`` in {synthetic, csv, idx}; synthetic takes n/size/classes/noise, csv takes
    path, idx takes images/labels paths. The readers only parse: here every kind's labels
    must lie below ``classes`` and its images be ``size`` x ``size``. ``test_fraction``
    controls the deterministic split.
    """
    d = {**DATASET_DEFAULTS, **descriptor}
    kind, size, classes, test_fraction = d["kind"], d["size"], d["classes"], d["test_fraction"]
    if kind == "synthetic":
        inputs, labels = synthetic_blobs(d["n"], size, classes, d["noise"], seed)
    elif kind == "csv":
        inputs, labels = load_csv(Path(d["path"]))
    elif kind == "idx":
        inputs, labels = load_idx(Path(d["images"]), Path(d["labels"]))
    else:
        raise DataFormatError(f"unknown dataset kind {kind!r}: dataset.kind must be one of "
                              "synthetic, csv, idx")
    if labels.size and labels.max() >= classes:  # before the cast: a CSV label may be 1e20
        raise DataFormatError(f"{kind} label {int(labels.max())} out of range: "
                              f"dataset.classes = {classes}")
    labels = labels.astype(np.int64)
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
