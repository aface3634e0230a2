import gzip
import importlib.util
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from knnrobust import load_csv

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "make_mnist_csv.py"
_spec = importlib.util.spec_from_file_location("make_mnist_csv", _PATH)
make_mnist_csv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_mnist_csv)

# Three 2x3 images holding every kind of byte: 0, 255 and values in between.
_PIXELS = np.array([[0, 1, 2, 127, 128, 255],
                    [255, 254, 3, 0, 0, 17],
                    [9, 99, 199, 200, 201, 0]], dtype=np.uint8)
_DIGITS = [0, 2, 1]


def _write(path: Path, payload: bytes) -> Path:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wb") as fh:
        fh.write(payload)
    return path


def _images(magic=2051, count=3, extra=b""):
    return struct.pack(">IIII", magic, count, 2, 3) + _PIXELS.tobytes() + extra


def _labels(magic=2049, count=3):
    return struct.pack(">II", magic, count) + bytes(_DIGITS)


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_converts_and_loads(tmp_path, suffix, capsys):
    images = _write(tmp_path / f"images{suffix}", _images())
    labels = _write(tmp_path / f"labels{suffix}", _labels())
    out = tmp_path / "out.csv"
    make_mnist_csv.main(["make_mnist_csv.py", str(images), str(labels), str(out)])
    assert "wrote 3 rows" in capsys.readouterr().out
    expected = "".join(f"{digit + 1}," + ",".join("%.6g" % (p / 255.0) for p in row) + "\n"
                       for digit, row in zip(_DIGITS, _PIXELS.tolist()))
    assert out.read_text() == expected
    ds = load_csv(out)
    np.testing.assert_array_equal(ds.labels, [1, 3, 2])      # digits 0..9 become 1..10
    assert ds.points.shape == (3, 6)
    np.testing.assert_allclose(ds.points, _PIXELS / 255.0, rtol=5e-6)


def test_pixel_table_matches_the_formula():
    assert make_mnist_csv._PIXEL_TEXT == ["%.6g" % (p / 255.0) for p in range(256)]
    assert make_mnist_csv._PIXEL_TEXT[0] == "0" and make_mnist_csv._PIXEL_TEXT[255] == "1"


@pytest.mark.parametrize("images, labels, message", [
    (_images(magic=2049), _labels(), "not an IDX image file (magic 2049)"),
    (_images(), _labels(magic=2051), "not an IDX label file (magic 2051)"),
    (_images(count=4), _labels(), "truncated payload: 18 of 24 bytes"),
    (_images(), _labels(count=5), "truncated payload: 3 of 5 bytes"),
    (_images()[:10], _labels(), "truncated header: 10 of 16 bytes"),
    (_images(count=2), _labels(), "count mismatch: 2 images, 3 labels"),
], ids=["image-magic", "label-magic", "short-images", "short-labels", "short-header",
        "count-mismatch"])
def test_rejects_malformed_files(tmp_path, images, labels, message):
    paths = [_write(tmp_path / "images.gz", images), _write(tmp_path / "labels", labels)]
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit, match=re.escape(message)):
        make_mnist_csv.main(["make_mnist_csv.py", *map(str, paths), str(out)])
    assert not out.exists()
