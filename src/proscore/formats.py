"""Serialization helpers shared by all model and text file formats.

Every binary format starts with a 4-byte ASCII magic and a u32 version,
and a reader accepts only the version in `VERSIONS`. All integers are
unsigned 32-bit little-endian, all reals are 64-bit IEEE-754 little-endian.
Matrices are row-major. A model that holds another model (the UBM of a
PIVM, the backbone of a PDNF) writes it inline, magic and version
included, since its reader knows where it ends. No field holds what a
reader can derive from the fields before it. Serialization is canonical:
writing what was just read reproduces the bytes exactly.

Text tables (manifests, alignments, labels, splits, embeddings, score
tables) are UTF-8 TSV: one row per line, fields separated by tabs, blank
lines skipped, floats written as `%.17g` so that they read back exactly.
"""

from __future__ import annotations

import io
import math
import os
import struct
from typing import BinaryIO

import numpy as np

# magic -> the one version that is written and read
VERSIONS = {"PRF1": 1, "PGMM": 1, "PIVM": 3, "PNF1": 2, "PDNF": 3, "PSVR": 1}
# a read of more bytes than this is first checked against the bytes left in
# the stream, so that a corrupt length fails before a buffer that size is
# allocated; every field of a model or corpus file the program writes at
# its presets is smaller
_UNCHECKED_READ = 1 << 20


class DataError(ValueError):
    """Input data the program cannot use (the CLI exits 2 on it). A bad
    setting is a plain ValueError (exit 1)."""


def save(path, write, model) -> None:
    """Write one file: `write(f, model)` on a fresh binary file."""
    with open(path, "wb") as f:
        write(f, model)


def load(path, read):
    """Read one input file with `read(f)`; trailing bytes are an error. An
    OSError, bytes that are not UTF-8 or a DataError raised while reading
    is a DataError whose message starts with the path."""
    try:
        with open(path, "rb") as f:
            model = read(f)
            if f.read(1):
                raise DataError("trailing bytes after payload")
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    return model


def file_magic(path, known) -> str:
    """The 4-byte magic that the file at `path` starts with, one of `known`."""
    def read(f):
        got = f.read(4).decode("ascii", errors="replace")
        if got not in known:
            raise DataError(f"unknown model file magic {got!r}")
        f.seek(0, os.SEEK_END)  # the rest is for the loader of that magic
        return got
    return load(path, read)


def write_magic(f: BinaryIO, magic: str) -> None:
    f.write(magic.encode("ascii"))
    write_u32(f, VERSIONS[magic])


def read_magic(f: BinaryIO, magic: str) -> None:
    got = f.read(4)
    if got != magic.encode("ascii"):
        raise DataError(f"bad magic {got!r}, expected {magic!r}")
    version = read_u32(f)
    if version != VERSIONS[magic]:
        raise DataError(f"{magic} version {version} is not supported"
                        f" (expected version {VERSIONS[magic]})")


def read_bytes(f: BinaryIO, n: int, what: str) -> bytes:
    """Exactly n bytes of f, else DataError naming `what`."""
    if n > _UNCHECKED_READ:
        pos = f.tell()
        left = f.seek(0, os.SEEK_END) - pos
        f.seek(pos)
        if n > left:
            raise DataError(f"truncated file while reading {what}"
                            f" ({n} bytes, {left} left)")
    raw = f.read(n)
    if len(raw) != n:
        raise DataError(f"truncated file while reading {what}")
    return raw


def write_u32(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<I", value))


def read_u32(f: BinaryIO) -> int:
    return struct.unpack("<I", read_bytes(f, 4, "u32"))[0]


def write_f64(f: BinaryIO, value: float) -> None:
    f.write(struct.pack("<d", float(value)))


def read_f64(f: BinaryIO) -> float:
    value = struct.unpack("<d", read_bytes(f, 8, "f64"))[0]
    if value != value:
        raise DataError("NaN in a real-valued field")
    return value


def write_array(f: BinaryIO, arr: np.ndarray) -> None:
    """Write the raw payload of an array (shape must be known to the reader)."""
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_array(f: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    raw = read_bytes(f, 8 * math.prod(shape), "array payload")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise DataError("non-finite value in an array payload")
    return arr


def write_matrix(f: BinaryIO, mat: np.ndarray) -> None:
    """u32 rows, u32 cols, then the row-major payload."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise DataError(f"expected a 2-D matrix, got shape {mat.shape}")
    write_u32(f, mat.shape[0])
    write_u32(f, mat.shape[1])
    write_array(f, mat)


def read_matrix(f: BinaryIO) -> np.ndarray:
    rows = read_u32(f)
    cols = read_u32(f)
    return read_array(f, (rows, cols))


def write_string(f: BinaryIO, s: str) -> None:
    data = s.encode("utf-8")
    write_u32(f, len(data))
    f.write(data)


def read_string(f: BinaryIO) -> str:
    return read_bytes(f, read_u32(f), "string").decode("utf-8")


# ---------------------------------------------------------------------------
# text tables


def read_tsv(path, columns=None, keyed=False, whole=False):
    """Yield ("PATH:LINE", fields) for each non-blank line of a TSV file.

    Every line must have `columns` fields, or as many as the first line
    when `columns` is None; any other count is a DataError, as is, when
    `keyed`, a first field that an earlier line holds, and, when `whole`,
    a last line with no newline (a file that `tsv` wrote, cut short).
    Lines end as in a file read in text mode, so a CRLF file reads as an
    LF one.
    """
    text = load(path, lambda f: f.read().decode("utf-8"))
    if whole and not text.endswith("\n"):
        raise DataError(f"{path}: cut short: no newline at the end")
    first = {}  # key -> the line that holds it
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if columns is None:
            columns = len(fields)
        where = f"{path}:{lineno}"
        if len(fields) != columns:
            raise DataError(f"{where}: expected {columns} TSV columns,"
                            f" got {len(fields)}")
        if keyed:
            check_key(first, fields[0], where)
        yield where, fields


def check_key(first: dict, key: str, where: str) -> None:
    """Note that line `where` ("PATH:LINE") holds `key`, in `first` (key ->
    the first line that holds it); a DataError if an earlier line holds it."""
    earlier = first.setdefault(key, where)
    if earlier != where:
        raise DataError(f"{where}: {key} is listed twice"
                        f" (first on line {earlier.rpartition(':')[2]})")


def parse(where: str, convert, *values) -> list:
    """[convert(v) for v in values], with a ValueError raised as a
    DataError at `where`."""
    try:
        return list(map(convert, values))
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def tsv(rows) -> str:
    """TSV text of `rows`: floats as `%.17g`, every other value with str()."""
    return "".join("\t".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                             for v in row) + "\n" for row in rows)
