#!/usr/bin/env python3
"""Convert MNIST-style IDX files into the CSV format this package reads.

Usage:
    python scripts/make_mnist_csv.py IMAGES_IDX LABELS_IDX OUT.CSV

The IDX files are the standard distribution format (optionally gzipped,
detected by the .gz suffix), e.g. train-images-idx3-ubyte.gz and
train-labels-idx1-ubyte.gz for MNIST or Fashion-MNIST.  Pixels are scaled
to [0, 1] and the 0-based digit labels are shifted to 1..10 because the
library requires positive class ids.  A file that ends before the count its
header declares is rejected.

For the benchmark suite place the outputs in one directory as
mnist_train.csv, mnist_test.csv, fashion_train.csv, fashion_test.csv and
point KNNROBUST_DATA_DIR at it.
"""

import gzip
import struct
import sys


# Each pixel byte's text in the CSV, "%.6g" of its value scaled to [0, 1].
_PIXEL_TEXT = ["%.6g" % (p / 255.0) for p in range(256)]


def _open(path):
    return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")


def _read_exactly(fh, size, path, what):
    data = fh.read(size)
    if len(data) != size:
        raise SystemExit(f"{path}: truncated {what}: {len(data)} of {size} bytes")
    return data


def read_images(path):
    with _open(path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exactly(fh, 16, path, "header"))
        if magic != 2051:
            raise SystemExit(f"{path}: not an IDX image file (magic {magic})")
        payload = _read_exactly(fh, count * rows * cols, path, "payload")
    size = rows * cols
    return [payload[i * size:(i + 1) * size] for i in range(count)]


def read_labels(path):
    with _open(path) as fh:
        magic, count = struct.unpack(">II", _read_exactly(fh, 8, path, "header"))
        if magic != 2049:
            raise SystemExit(f"{path}: not an IDX label file (magic {magic})")
        return list(_read_exactly(fh, count, path, "payload"))


def main(argv):
    if len(argv) != 4:
        raise SystemExit(__doc__)
    images = read_images(argv[1])
    labels = read_labels(argv[2])
    if len(images) != len(labels):
        raise SystemExit(f"count mismatch: {len(images)} images, {len(labels)} labels")
    with open(argv[3], "w", encoding="utf-8") as out:
        for label, pixels in zip(labels, images):
            values = ",".join([_PIXEL_TEXT[p] for p in pixels])
            out.write(f"{label + 1},{values}\n")
    print(f"wrote {len(images)} rows to {argv[3]}")


if __name__ == "__main__":
    main(sys.argv)
