"""Dataset generation, parsing, normalization, and deterministic splits."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustprune import cli
from robustprune.data import (
    DataFormatError,
    Dataset,
    ingest,
    load_csv,
    load_idx,
    synthetic_blobs,
)


def test_blobs_balanced_classes():
    _, labels = synthetic_blobs(2000, size=16, classes=2, noise=0.15, seed=0)
    counts = np.bincount(labels)
    assert counts[0] == counts[1] == 1000


def test_blobs_values_in_unit_interval():
    images, _ = synthetic_blobs(100, size=16, classes=2, noise=0.15, seed=1)
    assert images.min() >= 0.0 and images.max() <= 1.0
    assert images.shape == (100, 1, 16, 16)


def test_blobs_deterministic():
    a, la = synthetic_blobs(50, 16, 2, 0.15, seed=3)
    b, lb = synthetic_blobs(50, 16, 2, 0.15, seed=3)
    assert np.array_equal(a, b) and np.array_equal(la, lb)


@pytest.mark.parametrize("classes", [5, 8, 9, 10])
def test_blobs_every_class_has_its_own_center(classes):
    # Without noise each class's mean image peaks at its blob center. Two classes
    # sharing a center would be one distribution under two labels.
    size = 24
    images, labels = synthetic_blobs(40 * classes, size=size, classes=classes, noise=0.0, seed=2)
    peaks = np.array([np.unravel_index(images[labels == c, 0].mean(axis=0).argmax(), (size, size))
                      for c in range(classes)])
    gaps = np.abs(peaks[:, None] - peaks[None]).max(axis=-1)
    np.fill_diagonal(gaps, size)
    assert gaps.min() >= size // 6, peaks.tolist()


def test_blobs_four_classes_sit_at_the_quarter_points():
    images, labels = synthetic_blobs(400, size=16, classes=4, noise=0.0, seed=5)
    peaks = [np.unravel_index(images[labels == c, 0].mean(axis=0).argmax(), (16, 16))
             for c in range(4)]
    assert [tuple(map(int, p)) for p in peaks] == [(4, 4), (4, 12), (12, 4), (12, 12)]


def test_ingest_synthetic_split():
    train, test = ingest({"kind": "synthetic", "n": 500, "size": 8, "classes": 2,
                          "test_fraction": 0.2}, seed=4)
    assert len(train) == 400 and len(test) == 100
    train2, test2 = ingest({"kind": "synthetic", "n": 500, "size": 8, "classes": 2,
                            "test_fraction": 0.2}, seed=4)
    assert np.array_equal(train.inputs, train2.inputs)
    assert np.array_equal(test.labels, test2.labels)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "toy.csv"
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(10):
        label = rng.integers(0, 2)
        pixels = rng.integers(0, 256, size=16)
        rows.append(",".join([str(label)] + [str(p) for p in pixels]))
    path.write_text("\n".join(rows) + "\n")
    images, labels = load_csv(path)
    assert images.shape == (10, 1, 4, 4)
    assert images.max() <= 1.0


def test_csv_blank_lines_between_rows_are_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("0,0,64,128,255\n\n1,255,128,64,0\n\n")
    images, labels = load_csv(path)
    assert labels.tolist() == [0, 1]
    assert np.array_equal(images[1, 0] * 255, [[255, 128], [64, 0]])


def test_csv_fault_after_a_blank_line_names_its_line(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("0,0,0,0,0\n\n1.5,0,0,0,0\n")
    with pytest.raises(DataFormatError, match="invalid label 1.5 in row 3"):
        load_csv(path)


def test_csv_non_numeric_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,2,3,4\n1,x,2,3,4\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_csv(path)


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,0,0,0\n1e20,0,0,0,0\n")  # past int64: checked before the cast
    with pytest.raises(DataFormatError, match="csv label 100000000000000000000 out of range: "
                                              "dataset.classes = 2"):
        ingest({"kind": "csv", "path": str(path), "size": 2, "classes": 2}, seed=0)


def _write_idx_pair(tmp_path, n=6, side=4, magic_images=0x803, magic_labels=0x801):
    rng = np.random.default_rng(6)
    pixels = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = rng.integers(0, 2, size=n, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", magic_images, n, side, side))
        fh.write(pixels.tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", magic_labels, n))
        fh.write(labels.tobytes())
    return img_path, lab_path, pixels, labels


def test_idx_roundtrip(tmp_path):
    img, lab, pixels, labels = _write_idx_pair(tmp_path)
    images, got = load_idx(img, lab)
    assert np.array_equal(got, labels)
    assert np.allclose(images[:, 0] * 255, pixels)


def test_idx_bad_magic(tmp_path):
    img, lab, _, _ = _write_idx_pair(tmp_path, magic_images=0x807)
    with pytest.raises(DataFormatError, match="magic"):
        load_idx(img, lab)


def test_idx_ingest(tmp_path):
    img, lab, _, _ = _write_idx_pair(tmp_path, n=10)
    train, test = ingest({"kind": "idx", "images": str(img), "labels": str(lab),
                          "size": 4, "test_fraction": 0.3}, seed=1)
    assert len(train) == 7 and len(test) == 3


def test_unknown_kind_rejected():
    with pytest.raises(DataFormatError, match="unknown dataset kind"):
        ingest({"kind": "tar"}, seed=0)


def test_dataset_validates_range():
    with pytest.raises(DataFormatError):
        Dataset(np.full((2, 1, 2, 2), 1.5), np.zeros(2, dtype=int))


def test_batches_cover_everything():
    train, _ = ingest({"kind": "synthetic", "n": 100, "size": 8, "classes": 2}, seed=9)
    seen = 0
    for x, y in train.batches(32, np.random.default_rng(0)):
        assert len(x) == len(y)
        seen += len(y)
    assert seen == len(train)


def test_batches_shuffle_deterministic():
    train, _ = ingest({"kind": "synthetic", "n": 64, "size": 8, "classes": 2}, seed=9)
    a = [y.copy() for _, y in train.batches(16, np.random.default_rng(3))]
    b = [y.copy() for _, y in train.batches(16, np.random.default_rng(3))]
    for ya, yb in zip(a, b):
        assert np.array_equal(ya, yb)


def test_cli_csv_image_size_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(8)
    rows = [",".join(map(str, [i % 2, *rng.integers(0, 256, size=64)])) for i in range(40)]
    data = tmp_path / "rows.csv"
    data.write_text("\n".join(rows) + "\n")
    config = tmp_path / "csv.cfg"  # 8x8 images, no dataset.size line: the default is 16
    config.write_text(f"dataset.kind = csv\ndataset.path = {data}\n")
    argv = ["run", "--config", str(config), "--seed", "1", "--set", "arch=mlp-small",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "dataset.size" in capsys.readouterr().err


# cells a hand-edited or damaged CSV may hold; None cuts the row short at that column
CSV_CELLS = ["nan", "inf", "-inf", "1e400", "-1", "0", "1", "1.7", "64", "255", "256", "true",
             "no", "", "x", "\xff", None]


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 16), st.sampled_from(CSV_CELLS)),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_csv_with_edited_cells_loads_or_raises_data_format_error(edits):
    rows = [[str(i % 2), *map(str, range(0, 256, 16))] for i in range(10)]  # 4x4 images
    for row, col, cell in edits:
        if cell is None:
            del rows[row][col:]
        elif col < len(rows[row]):
            rows[row][col] = cell
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_bytes("".join(",".join(r) + "\n" for r in rows).encode("latin-1"))
        try:
            train, test = ingest({"kind": "csv", "path": str(path), "size": 4, "classes": 2,
                                  "test_fraction": 0.3}, seed=1)
        except DataFormatError:
            return
    # an accepted file's examples are its rows (an emptied row is a blank line, skipped)
    want = [(float(r[0]), np.array([float(v) for v in r[1:]]).reshape(1, 4, 4) / 255.0)
            for r in rows if r]
    assert _examples(train, test) == sorted((int(y), x.tobytes()) for y, x in want)


def _examples(*parts):
    """The (label, input bytes) pairs of the given splits, in one canonical order."""
    return sorted((int(y), x.tobytes()) for part in parts for x, y in zip(part.inputs, part.labels))


@given(st.sampled_from(["images", "labels"]),
       st.tuples(st.integers(0, 15), st.integers(0, 255))
       | st.tuples(st.just("cut"), st.integers(0, 175)))
@settings(max_examples=60, deadline=None)
def test_idx_with_an_edited_header_or_cut_short_loads_or_raises_data_format_error(which, edit):
    with tempfile.TemporaryDirectory() as tmp:
        img, lab, pixels, labels = _write_idx_pair(Path(tmp), n=10)
        path = img if which == "images" else lab
        raw = bytearray(path.read_bytes())
        at, value = edit
        if at == "cut":
            del raw[value:]
        else:  # one byte of the header: 16 bytes for images, 8 for labels
            raw[at % (16 if which == "images" else 8)] = value
        path.write_bytes(bytes(raw))
        try:
            train, test = ingest({"kind": "idx", "images": str(img), "labels": str(lab),
                                  "size": 4, "classes": 2, "test_fraction": 0.3}, seed=1)
        except DataFormatError:
            return
    want = sorted((int(y), (x[None] / 255.0).tobytes()) for x, y in zip(pixels, labels))
    assert _examples(train, test) == want
