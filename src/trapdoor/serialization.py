"""Exact, deterministic serialization shared by all modules.

Dyadic values travel as format_dyadic's canonical form "a/2^e" (numerator
odd unless e = 0; "0" for zero), in CSV cells and JSON reports alike: each
report formats its dyadics before dumps_json, which has no hook for them.
Matrix CSV files carry a header row with the block length, initial state
(or "general"), and dimension.  Image writers emit binary PGM (P5) and a
minimal 8-bit grayscale PNG; both are byte-deterministic functions of their
inputs.  PNG image data is deflated at zlib's default level
(Z_DEFAULT_COMPRESSION, level 6, as in libpng): on the rendered images it
is 6 to 10 times faster than level 9, with files within a fifth of level
9's size.
"""

from __future__ import annotations

import json
import math
import re
import struct
import zlib
from json.encoder import encode_basestring_ascii as _json_str  # what json.dumps calls for a str
from pathlib import Path
from typing import Any, Callable, Iterator, Union

import numpy as np

from . import config
from .channel import ChannelMatrix, check_channel_data
from .dyadic import Dyadic
from .matrices import DyadicMatrix

_DYADIC_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")
_PNG_BLOCK_BYTES = 1 << 20  # filtered image bytes handed to zlib at a time
_PNG_MAX_SIDE = (1 << 31) - 1  # the PNG specification's limit on width and height


def format_dyadic(d: Dyadic) -> str:
    """Canonical exact form: "0" or "a/2^e" (e.g. 1/2 -> "1/2^1", 1 -> "1/2^0")."""
    if d.num == 0:
        return "0"
    return f"{d.num}/2^{d.exp}"


def parse_dyadic(s: str) -> Dyadic:
    """Inverse of format_dyadic; also accepts plain integers."""
    s = s.strip()
    if not s:
        raise ValueError("empty dyadic string")
    m = _DYADIC_RE.match(s)
    if m:
        return Dyadic(int(m.group(1)), int(m.group(2)))
    try:
        return Dyadic(int(s))
    except ValueError:
        raise ValueError(f"malformed dyadic string {s!r}") from None


Matrix = Union[ChannelMatrix, DyadicMatrix]


class _Cells(dict):
    """Integer entry -> its formatted cell, formatted on the first lookup."""

    def __init__(self, fmt: Callable[[Dyadic], str], exp: int) -> None:
        super().__init__()
        self.fmt, self.exp = fmt, exp

    def __missing__(self, v: int) -> str:
        text = self[v] = self.fmt(Dyadic(v, self.exp))
        return text


def matrix_lines(data: DyadicMatrix, fmt: Callable[[Dyadic], str], sep: str) -> Iterator[str]:
    """The rows of a matrix as text: cells formatted by fmt, joined by sep.

    Rows are read one at a time, so no list of the whole matrix is built.
    Each distinct entry is formatted once, on its first lookup, and each row
    is mapped through the dict of formatted cells: ``map`` over
    ``dict.__getitem__`` makes no Python call for a cell already formatted.
    """
    cell = _Cells(fmt, data.exp).__getitem__
    for row in data.array:
        yield sep.join(map(cell, row.tolist()))


def matrix_csv_text(matrix: Matrix) -> str:
    """CSV serialization of a matrix: header row, then canonical dyadic cells."""
    if isinstance(matrix, ChannelMatrix):
        n, s0, data = matrix.n, str(matrix.s0), matrix.data
    else:
        data = matrix
        n = data.dim.bit_length() - 1
        s0 = "general"
    lines = [f"n={n},s0={s0},dim={data.dim}", *matrix_lines(data, format_dyadic, ",")]
    return "\n".join(lines) + "\n"


def write_matrix_csv(matrix: Matrix, path: Union[str, Path]) -> None:
    """Serialize a matrix losslessly; round-trips through read_matrix_csv."""
    Path(path).write_text(matrix_csv_text(matrix), encoding="utf-8")


def read_matrix_csv(path: Union[str, Path]) -> Matrix:
    """Parse a matrix written by write_matrix_csv.

    Returns a ChannelMatrix when the header names an initial state (s0=0 or
    s0=1) and the cells equal P(n, s0), a DyadicMatrix for s0=general.
    Raises ValueError (with the path) on malformed content, any other s0
    included, and names the first row that differs from P(n, s0).
    """
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{p}: empty matrix file")
    header = dict(
        item.split("=", 1) for item in lines[0].split(",") if "=" in item
    )
    try:
        n = int(header["n"])
        dim = int(header["dim"])
        s0_raw = header["s0"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{p}: malformed header {lines[0]!r}") from exc
    if s0_raw not in ("0", "1", "general"):
        raise ValueError(f"{p}: header {lines[0]!r} has s0={s0_raw}, expected 0, 1 or general")
    if len(lines) - 1 != dim:
        raise ValueError(f"{p}: expected {dim} rows, found {len(lines) - 1}")
    # each distinct cell text is parsed once; a matrix has few of them
    parsed: dict[str, Dyadic] = {}
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != dim:
            raise ValueError(f"{p}: expected {dim} columns, found {len(cells)}")
        for c in cells:
            if c not in parsed:
                try:
                    parsed[c] = parse_dyadic(c)
                except ValueError as exc:
                    raise ValueError(f"{p}: {exc}") from None
        rows.append(cells)
    # the shared scale is the largest exponent of a cell in lowest terms
    exp = max((d.exp for d in parsed.values()), default=0)
    values = config.integer_array([d.num << (exp - d.exp) for d in parsed.values()], "matrix entries")
    index = {c: i for i, c in enumerate(parsed)}  # each cell as the index of its value
    try:
        data = DyadicMatrix(values[np.array([[index[c] for c in cells] for cells in rows], dtype=np.intp)], exp)
        return data if s0_raw == "general" else check_channel_data(ChannelMatrix(n, int(s0_raw), data))
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None


def dumps_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def distribution_json(dist) -> str:
    """dumps_json(dist.to_json_dict()), byte for byte, for an OutputDistribution.

    json's indented encoder is pure Python and takes most of the time of a
    large support; here each output's record is laid out in the same
    two-space form, its fields C-encoded by json's string encoder.  A
    distribution has at least one output, so the list is never empty.
    """
    d = dist.to_json_dict()
    records = ",\n".join([
        f'    {{\n      "y": {_json_str(r["y"])},\n      "p": {_json_str(r["p"])}\n    }}'
        for r in d["outputs"]
    ])
    return (f'{{\n  "input": {_json_str(d["input"])},\n  "state": {json.dumps(d["state"])},\n'
            f'  "outputs": [\n{records}\n  ]\n}}\n')


def write_pgm(data: bytes, path: Union[str, Path]) -> None:
    """Persist rendered PGM bytes exactly."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise OSError(f"cannot write PGM to {path}: {exc}") from exc


def png_bytes(pixels: bytes, width: int, height: int) -> bytes:
    """Minimal 8-bit grayscale PNG for a row-major pixel buffer.

    Width and height must be integers from 1 to 2**31 - 1; anything else
    raises ValueError naming the value.
    """
    for name, side in (("width", width), ("height", height)):
        try:
            ok = 1 <= config.integer(side, name) <= _PNG_MAX_SIDE
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"PNG {name} must be an integer from 1 to {_PNG_MAX_SIDE}, got {side!r}")
    if len(pixels) != width * height:
        raise ValueError("pixel buffer does not match dimensions")

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload))
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    # filtered rows (filter byte 0, then the pixels) go to the compressor a
    # block at a time, so the whole filtered image is never held
    deflate = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION)
    step = max(1, _PNG_BLOCK_BYTES // (width + 1))
    idat = []
    for y0 in range(0, height, step):
        block = b"".join(
            b"\x00" + pixels[y * width : (y + 1) * width]
            for y in range(y0, min(y0 + step, height))
        )
        idat.append(deflate.compress(block))
    idat.append(deflate.flush())
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", b"".join(idat))
        + chunk(b"IEND", b"")
    )


def pgm_to_png(pgm: bytes) -> bytes:
    """Convert P5 bytes produced by render_pgm into PNG bytes."""
    m = re.match(rb"^P5\n(\d+) (\d+)\n255\n", pgm)
    if not m:
        raise ValueError("not a P5 graymap produced by render_pgm")
    w, h = int(m.group(1)), int(m.group(2))
    return png_bytes(memoryview(pgm)[m.end() :], w, h)  # no copy of the pixels


def write_png(pgm: bytes, path: Union[str, Path]) -> None:
    """Write P5 bytes as a PNG file (png_bytes encodes a raw buffer)."""
    data = pgm_to_png(pgm)
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise OSError(f"cannot write PNG to {path}: {exc}") from exc


def bound_report(result) -> dict:
    """JSON-ready dict for a BoundResult (exact S string, 1-based negative
    indices of d, or None for a result made with include_d=False)."""
    return {
        "n": result.n,
        "s0": result.s0,
        "S": format_dyadic(result.S),
        "c_upper_bits_per_use": result.c_up,
        "d_negative_indices": None if result.d is None else result.negative_d_indices(),
    }


def ba_report(report, bound: float) -> dict:
    """JSON-ready dict for an OptimizationReport plus its gap to the bound.

    An unbounded bracket (final_gap = inf, from a run that reached an output
    of float mass 0) is written as null, which strict JSON parsers accept.
    """
    gap = report.final_gap
    return {
        "n": report.n,
        "s0": report.s0,
        "capacity_bits_per_use": report.capacity_per_letter,
        "bound_bits_per_use": bound,
        "gap_to_bound": bound - report.capacity_per_letter,
        "iterations": report.iterations,
        "bracket_width": gap if math.isfinite(gap) else None,
        "converged": report.converged,
        "distribution": [float(x) for x in report.distribution],
    }
