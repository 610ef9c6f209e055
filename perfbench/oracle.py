"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports ``trapdoor``.  The channel is simulated as the ball
process itself (one ball in the box, one ball in per use, a fair draw when
the labels differ), inverses are checked with Freivalds' test in plain
Python integers, closed forms are evaluated with ``Fraction``, and the files
the package writes are decoded here rather than with its own readers.
"""

from __future__ import annotations

import math
import operator
import random
import struct
import zlib
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- the ball process ---------------------------------------------------------


def ball_outputs(x: str, s0: int) -> dict[int, int]:
    """Every output of the ball process on input bits x from box state s0.

    Maps the output (as an integer, most significant bit first) to the number
    of fair draws on its path, so its likelihood is 2**-draws.  Raises if two
    paths give the same output, which the ball process never does.
    """
    paths = [(0, "01"[s0], 0)]
    for xi in x:
        bit = int(xi)
        nxt = []
        for out, state, draws in paths:
            if xi == state:
                nxt.append(((out << 1) | bit, state, draws))
            else:
                nxt.append(((out << 1) | bit, state, draws + 1))  # input ball drawn
                nxt.append(((out << 1) | (1 - bit), xi, draws + 1))  # stored ball drawn
        paths = nxt
    result = {out: draws for out, _, draws in paths}
    expect(len(result) == len(paths), f"ball process merged two paths on {x}")
    return result


def ball_walk(x: str, y: str, s0: int) -> int | None:
    """Fair draws on the one path of the ball process from input x to output y.

    When input and stored ball differ, the emitted label tells which ball was
    drawn, so the path is forced; None when y cannot be emitted.
    """
    state, draws = "01"[s0], 0
    for xi, yi in zip(x, y):
        if xi != state:
            draws += 1
            if yi == state:  # stored ball drawn; the input ball stays
                state = xi
        elif yi != xi:
            return None
    return draws


def path_count(x: str, s0: int) -> int:
    """Number of paths of the ball process on x, counted state by state."""
    counts = {"01"[s0]: 1}
    for xi in x:
        nxt: dict[str, int] = {}
        for state, c in counts.items():
            nxt[state] = nxt.get(state, 0) + c
            if xi != state:
                nxt[xi] = nxt.get(xi, 0) + c
        counts = nxt
    return sum(counts.values())


def expected_row_ints(n: int, s0: int, row: int, exp: int) -> list[int]:
    """Row `row` of P(n, s0) scaled by 2**exp, from the ball process."""
    out = [0] * (1 << n)
    for y, draws in ball_outputs(format(row, f"0{n}b") if n else "", s0).items():
        expect(draws <= exp, f"likelihood 2^-{draws} finer than scale 2^-{exp}")
        out[y] = 1 << (exp - draws)
    return out


def expected_grid_row(k: int, s0: int, row: int) -> list[int]:
    """Row of the resolution-k height codes of P(k, s0): -1 empty, m for z = 2**-m."""
    out = [-1] * (1 << k)
    for y, draws in ball_outputs(format(row, f"0{k}b") if k else "", s0).items():
        out[y] = draws
    return out


def sierpinski_occupied(k: int, r: int, c: int) -> bool:
    """Cell (r, c) of the depth-k Sierpinski iterate (row 0 at the top) is filled.

    The three half-scale maps fill every quadrant but the top-right one, at
    every depth: no bit position may have r in the top half and c in the
    right half.
    """
    return (~r & c) & ((1 << k) - 1) == 0


# -- exact arithmetic -------------------------------------------------------


def closed_form_S(n: int) -> Fraction:
    """(5/2)**(n/2) at even n, (5/4)(5/2)**((n-1)/2) at odd n."""
    if n % 2 == 0:
        return Fraction(5, 2) ** (n // 2)
    return Fraction(5, 4) * Fraction(5, 2) ** ((n - 1) // 2)


def closed_form_bound(n: int) -> float:
    S = closed_form_S(n)
    return (math.log2(S.numerator) - math.log2(S.denominator)) / n


def zero_error_rate(n: int) -> float:
    """Bits per use sent without error on a block of n uses by the disjoint pairs.

    Inputs 00 and 11 from any state give disjoint outputs, so each of the
    floor(n/2) pairs carries one bit: 1/2 at even n, (n-1)/(2n) at odd n.
    """
    return (n // 2) / n


def dyadic_sum(pairs) -> Fraction:
    """Exact sum of num / 2**exp over (num, exp) pairs."""
    pairs = list(pairs)
    top = max((e for _, e in pairs), default=0)
    return Fraction(sum(num << (top - e) for num, e in pairs), 1 << top)


def _matvec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [sum(map(operator.mul, row, v)) for row in rows]


def freivalds_identity(
    a_rows: list[list[int]], a_exp: int, b_rows: list[list[int]], b_exp: int,
    rng: random.Random, trials: int,
) -> bool:
    """A (B v) == v for random integer vectors v, A = a_rows/2**a_exp, B likewise."""
    dim = len(a_rows)
    for _ in range(trials):
        v = [rng.randrange(-(1 << 20), 1 << 20) for _ in range(dim)]
        if _matvec(a_rows, _matvec(b_rows, v)) != [x << (a_exp + b_exp) for x in v]:
            return False
    return True


def scaled_equal(a_rows, a_exp: int, b_rows, b_exp: int) -> bool:
    """a_rows / 2**a_exp == b_rows / 2**b_exp entrywise."""
    if a_exp == b_exp:
        return a_rows == b_rows
    top = max(a_exp, b_exp)
    sa, sb = top - a_exp, top - b_exp
    return all(
        [v << sa for v in ra] == [v << sb for v in rb] for ra, rb in zip(a_rows, b_rows)
    )


def weights_solve_entropy(p_rows, p_exp: int, w: list[int], h: list[tuple[int, int]]) -> bool:
    """P w == -h exactly, i.e. w = -P^-1 h without an inverse."""
    for row, (num, e) in zip(p_rows, h):
        # (row . w) / 2**p_exp == -num / 2**e
        if sum(map(operator.mul, row, w)) << e != -num << p_exp:
            return False
    return True


def transpose_solves_weights(p_rows, p_exp: int, d: list[tuple[int, int]], w: list[int]) -> bool:
    """P^T d == 2**w exactly, i.e. d = (P^-1)^T 2**w without an inverse."""
    top = max(e for _, e in d)
    dd = [num << (top - e) for num, e in d]
    scale = p_exp + top
    for col, wj in zip(zip(*p_rows), w):
        val = sum(map(operator.mul, col, dd))
        if Fraction(val, 1 << scale) != Fraction(2) ** wj:
            return False
    return True


# -- floats -------------------------------------------------------------------


def mutual_information(p_rows, p_exp: int, p: np.ndarray, n: int) -> float:
    """(1/n) I(X; Y) in bits for input distribution p on the channel rows."""
    W = np.array(p_rows, dtype=float) / 2.0**p_exp
    q = p @ W
    mask = W > 0.0
    safe_q = np.where(q > 0.0, q, 1.0)
    terms = np.where(mask, W * np.log2(np.where(mask, W, 1.0) / safe_q[None, :]), 0.0)
    return float(p @ terms.sum(axis=1)) / n


# -- files ----------------------------------------------------------------------


def parse_dyadic_text(s: str) -> tuple[int, int]:
    """'a/2^e' or a plain integer, as (a, e)."""
    if "/2^" in s:
        a, e = s.split("/2^")
        return int(a), int(e)
    return int(s), 0


def parse_matrix_csv(text: str) -> tuple[dict[str, str], list[list[int]], int]:
    """Header fields, integer rows and their common scale exponent."""
    lines = text.splitlines()
    header = dict(item.split("=", 1) for item in lines[0].split(","))
    cells = [[parse_dyadic_text(c) for c in ln.split(",")] for ln in lines[1:] if ln]
    top = max((e for row in cells for _, e in row), default=0)
    return header, [[a << (top - e) for a, e in row] for row in cells], top


def decode_pgm(data: bytes) -> tuple[int, int, bytes]:
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    expect(magic == b"P5" and maxval == b"255", "not an 8-bit binary graymap")
    w, h = (int(v) for v in dims.split())
    expect(len(pixels) == w * h, "graymap pixel count differs from its header")
    return w, h, pixels


def decode_png(data: bytes) -> tuple[int, int, bytes]:
    """Width, height and pixels of an 8-bit grayscale PNG with unfiltered rows."""
    expect(data[:8] == b"\x89PNG\r\n\x1a\n", "missing PNG signature")
    pos, idat, ihdr = 8, b"", None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        expect(zlib.crc32(tag + payload) == crc, f"bad CRC in PNG chunk {tag!r}")
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif tag == b"IDAT":
            idat += payload
        pos += 12 + length
    expect(ihdr is not None and ihdr[2:5] == (8, 0, 0), "not an 8-bit grayscale PNG")
    w, h = ihdr[0], ihdr[1]
    raw = zlib.decompress(idat)
    expect(len(raw) == h * (w + 1), "PNG image data has the wrong size")
    rows = [raw[r * (w + 1) : (r + 1) * (w + 1)] for r in range(h)]
    expect(all(row[0] == 0 for row in rows), "PNG row filter other than None")
    return w, h, b"".join(row[1:] for row in rows)
