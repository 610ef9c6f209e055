"""Geometric view: channel matrices as height fields and their function systems.

A channel matrix embeds into the unit square as a field of half-open square
cells carrying heights z in {0} u {2**-m}: input sequences run top to bottom
(row 1 of the matrix at the top), output sequences left to right, so the
shape looks exactly like the matrix as printed.  In (x, y) coordinates that
means x grows with the output index and y decreases with the input index.
Cell boundaries carry no value; only cell interiors are modeled.

Three affine contractions reproduce the block recursion of the matrices: one
iteration of the system on the resolution-n grid yields the resolution-(n+1)
grid, and iterating from the constant-1 unit cell reproduces the embedded
channel matrix of the same depth cell-for-cell.  A 180-degree rotation of
the square swaps the two initial states.  The classic three-map
Sierpinski system is included; its iterates keep z = 1 and have exactly 3**k
occupied cells at depth k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import config
from .channel import BLOCK_CELLS as _BLOCK_CELLS, ChannelMatrix  # render_pgm's; tests patch it here
from .dyadic import Dyadic

Frac3 = tuple[Fraction, Fraction, Fraction]

EMPTY = -1  # z-code for an empty cell; code m >= 0 means z = 2**-m
_UNWRITTEN = -2  # ifs_iterate's mark for output cells no map has written yet


class GridSemanticsError(ValueError):
    """The map cannot act exactly on dyadic grids (cells, overlap, or z form)."""


@dataclass(frozen=True)
class AffineMap3:
    """Affine map of R^3: (x, y, z) -> linear @ (x, y, z) + translation.

    Coefficients are exact rationals (ints, Fractions and Dyadics are taken;
    a float, string or bool raises ValueError).  The restriction to the (x, y) plane
    must be a contraction; this is asserted numerically on construction of an
    Ifs.
    """

    linear: tuple[Frac3, Frac3, Frac3]
    translation: Frac3

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], translation: Sequence) -> "AffineMap3":
        lin = tuple(tuple(config.rational(v, "map coefficient") for v in row) for row in rows)
        tr = tuple(config.rational(v, "map translation") for v in translation)
        if len(lin) != 3 or any(len(r) != 3 for r in lin) or len(tr) != 3:
            raise ValueError("need a 3x3 linear part and a length-3 translation")
        return cls(lin, tr)  # type: ignore[arg-type]

    def xy_contraction_factor(self) -> float:
        """Spectral norm of the 2x2 xy block."""
        a, b = float(self.linear[0][0]), float(self.linear[0][1])
        c, d = float(self.linear[1][0]), float(self.linear[1][1])
        t = a * a + b * b + c * c + d * d
        det = a * d - b * c
        disc = max(t * t - 4.0 * det * det, 0.0)
        return math.sqrt((t + math.sqrt(disc)) / 2.0)


@dataclass(frozen=True)
class Ifs:
    """A finite family of affine contractions of the unit cube."""

    maps: tuple[AffineMap3, ...]

    def __post_init__(self) -> None:
        if not self.maps:
            raise ValueError("an iterated function system needs at least one map")
        if self.contractivity >= 1.0:
            raise ValueError("xy restrictions must be contractions")

    @property
    def contractivity(self) -> float:
        return max(m.xy_contraction_factor() for m in self.maps)


class ShapeGrid:
    """2**k x 2**k field of dyadic heights over the unit square.

    cells are indexed [row][col], row 0 at the top (y near 1), col 0 at the
    left (x near 0); cell (r, c) covers the open box
    (c*2**-k, (c+1)*2**-k) x (1-(r+1)*2**-k, 1-r*2**-k).  Heights are stored
    as codes: -1 for z = 0, m >= 0 for z = 2**-m with m <= k.

    The codes live in one read-only int8 numpy array, ``array``: one byte per
    cell, so resolution 14 takes 256 MiB.  ``codes`` is the same grid as a
    list of lists; it is computed from the array on each access, not cached.
    A grid is built from a list of lists or an integer array, checked for
    shape (a ragged list fails it) before its codes, and copied.
    """

    __slots__ = ("resolution", "array")

    def __init__(self, resolution: int, codes: list[list[int]] | np.ndarray) -> None:
        self.resolution = resolution = config.integer(resolution, "resolution")
        if resolution < 0:
            raise ValueError("resolution must be non-negative")
        # no array side reaches 2**63: a larger resolution is named, not shifted, and matches no shape
        side = 1 << resolution if resolution < 63 else f"2**{resolution}"
        arr = codes if isinstance(codes, np.ndarray) else np.array(codes, dtype=object)
        if arr.shape != (side, side):
            raise ValueError(f"expected a {side}x{side} grid")
        self.array = _int8_codes(config.integer_array(arr, "height codes"), resolution)
        self.array.flags.writeable = False

    @classmethod
    def _wrap(cls, resolution: int, array: np.ndarray) -> "ShapeGrid":
        """A grid around an int8 array the caller built valid (no copy, no checks)."""
        grid = cls.__new__(cls)
        grid.resolution = resolution
        grid.array = array
        array.flags.writeable = False
        return grid

    @property
    def side(self) -> int:
        return 1 << self.resolution

    @property
    def codes(self) -> list[list[int]]:
        return self.array.tolist()

    def z(self, row: int, col: int) -> Dyadic:
        m = int(self.array[row, col])
        return Dyadic(0) if m == EMPTY else Dyadic(1, m)

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.array != EMPTY))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShapeGrid):
            return NotImplemented
        return self.resolution == other.resolution and np.array_equal(self.array, other.array)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ShapeGrid(resolution={self.resolution}, nonzero={self.nonzero_count()})"


def _code_range_error(m: int, resolution: int) -> ValueError:
    return ValueError(f"height code {m} outside {{0}} u {{2**-m: m <= {resolution}}}")


def _int8_codes(arr: np.ndarray, resolution: int) -> np.ndarray:
    """An int8 copy of integer height codes, once each is EMPTY or in 0..resolution."""
    bad = (arr < EMPTY) | (arr > resolution)
    if bad.any():
        raise _code_range_error(arr.flat[np.flatnonzero(bad)[0]], resolution)
    return arr.astype(np.int8)


def unit_grid() -> ShapeGrid:
    """The initial shape: the unit square at height z = 1."""
    return ShapeGrid(0, [[0]])


def rho_representation(P: ChannelMatrix) -> ShapeGrid:
    """Embed a channel matrix as a height grid at resolution n (matrix as printed)."""
    codes = [_int8_codes(np.where(v == 0, EMPTY, m), P.n) for v, m in P.halvings()]
    return ShapeGrid._wrap(P.n, np.concatenate(codes))


def tau_transform(g: ShapeGrid) -> ShapeGrid:
    """180-degree rotation (x, y) -> (1-x, 1-y) with z preserved; involutive.

    Maps the embedding of one initial state onto the other.
    """
    return ShapeGrid._wrap(g.resolution, g.array[::-1, ::-1])


def trapdoor_ifs(s0: int) -> Ifs:
    """The three-map system whose iterates reproduce the channel embeddings.

    State 0:  (x, y, z) -> ((x+1)/2, y/2, z/2), (x/2, (y+1)/2, z),
              (-(x-1)/2, -(y-1)/2, z/2).
    State 1 is the 180-degree conjugate of state 0.
    """
    h = Fraction(1, 2)
    if config.check_state(s0) == 0:
        return Ifs(
            (
                AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, h]], [h, 0, 0]),
                AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [0, h, 0]),
                AffineMap3.from_rows([[-h, 0, 0], [0, -h, 0], [0, 0, h]], [h, h, 0]),
            )
        )
    return Ifs(
        (
            AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [h, 0, 0]),
            AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, h]], [0, h, 0]),
            AffineMap3.from_rows([[-h, 0, 0], [0, -h, 0], [0, 0, h]], [1, 1, 0]),
        )
    )


def sierpinski_ifs() -> Ifs:
    """The classic three half-scale maps (z unchanged); attractor: Sierpinski triangle."""
    h = Fraction(1, 2)
    z_keep = [0, 0, 1]
    return Ifs(
        (
            AffineMap3.from_rows([[h, 0, 0], [0, h, 0], z_keep], [h, 0, 0]),
            AffineMap3.from_rows([[h, 0, 0], [0, h, 0], z_keep], [0, h, 0]),
            AffineMap3.from_rows([[h, 0, 0], [0, h, 0], z_keep], [0, 0, 0]),
        )
    )


def _cell_transform(m: AffineMap3, res: int) -> tuple[int, int, int, int, int, int, int]:
    """Integer action of a map on cell indices: res -> res + 1.

    Returns (r0, c0, dr_dr, dr_dc, dc_dr, dc_dc, zshift) such that cell
    (r, c) maps to (r0 + dr_dr*r + dr_dc*c, c0 + dc_dr*r + dc_dc*c) and the
    height code moves by +zshift.  Raises GridSemanticsError when the map
    does not send dyadic cells of this resolution onto cells of the next.

    The action is affine in the cell index, so it is computed in closed form
    from the xy block L and the translation t.  With u = 2**(res+1), cell
    (r, c) has centre x = (2c+1)/u, y = 1 - (2r+1)/u, and a centre (x', y')
    of the next resolution is cell (u (1-y') - 1/2, u x' - 1/2).
    Substituting x' = L00 x + L01 y + t0 and y' = L10 x + L11 y + t1 gives
    r = u (1 - L11 - t1) + L11 - L10 - 1/2 + 2 L11 r - 2 L10 c and
    c = u (L01 + t0) + L00 - L01 - 1/2 - 2 L01 r + 2 L00 c, evaluated in
    integers over the common denominator of L, t and 1/2.
    """
    lin, tr = m.linear, m.translation
    if lin[0][2] or lin[1][2] or lin[2][0] or lin[2][1] or tr[2]:
        raise GridSemanticsError("grid maps must not mix z with x/y or translate z")
    za = lin[2][2]
    if za.numerator != 1 or (za.denominator & (za.denominator - 1)):
        raise GridSemanticsError(f"z scale {za} is not 2**-j for j >= 0")
    zshift = za.denominator.bit_length() - 1

    xy = (lin[0][0], lin[0][1], lin[1][0], lin[1][1], tr[0], tr[1])
    d = math.lcm(2, *(v.denominator for v in xy))
    l00, l01, l10, l11, t0, t1 = (v.numerator * (d // v.denominator) for v in xy)
    u = 1 << (res + 1)
    scaled = (
        u * (d - l11 - t1) + l11 - l10 - d // 2,
        u * (l01 + t0) + l00 - l01 - d // 2,
        2 * l11,
        -2 * l10,
        -2 * l01,
        2 * l00,
    )
    if any(v % d for v in scaled):
        raise GridSemanticsError(
            "map does not send dyadic cell centers onto cell centers"
        )
    r0, c0, drdr, drdc, dcdr, dcdc = (v // d for v in scaled)
    last = (1 << res) - 1
    for r, c in ((0, 0), (0, last), (last, 0), (last, last)):
        tr_, tc_ = r0 + drdr * r + drdc * c, c0 + dcdr * r + dcdc * c
        if not (0 <= tr_ < u and 0 <= tc_ < u):
            raise GridSemanticsError("map sends cells outside the unit square")
    return r0, c0, drdr, drdc, dcdr, dcdc, zshift


def _self_overlap(drdr: int, drdc: int, dcdr: int, dcdc: int, side: int) -> tuple[int, int] | None:
    """A source cell whose image another cell of the same map also hits, or None.

    The integer map (r, c) -> (drdr*r + drdc*c, dcdr*r + dcdc*c) of a contraction has entries
    in {-1, 0, 1}; when singular it collides p and p + v, v in its kernel, iff side >= 2.  p is
    (0, 1) if the first non-zero row (a, b) has a == b (v = (1, -1)), else (0, 0).
    """
    if drdr * dcdc != drdc * dcdr or side < 2:
        return None
    a, b = (drdr, drdc) if drdr or drdc else (dcdr, dcdc)
    return 0, int(a == b != 0)


def _overlap_error(cell: tuple[int, int]) -> GridSemanticsError:
    return GridSemanticsError(
        f"maps overlap at output cell {cell}; the system does not tile under grid semantics"
    )


def ifs_iterate(ifs: Ifs, initial: ShapeGrid, k: int) -> ShapeGrid:
    """Apply the union-of-maps operator k times; resolution grows by k.

    Every map image must land on its own cells (the systems here tile three
    disjoint quadrants); writing one output cell twice raises
    GridSemanticsError rather than merging.  Uncovered cells end at z = 0.

    Each map is one array write: its integer cell action is affine, so its
    image is a strided view of the flattened output.  Output cells start at
    a mark below every code, so a map whose view holds anything above the
    mark would overwrite an earlier map's cell.
    """
    if config.integer(k, "iteration count") < 0:
        raise ValueError("iteration count must be non-negative")
    config.check_cap(
        initial.resolution + k, config.MATRIX_CAP_ENV, "its grid alone takes 4**{n} bytes", "resolution"
    )
    grid = initial
    for _ in range(k):
        res, src = grid.resolution, grid.array
        side, side_out = grid.side, 1 << (res + 1)
        top = int(src.max())
        target = np.full((side_out, side_out), _UNWRITTEN, dtype=np.int8)
        flat = target.reshape(-1)
        for m in ifs.maps:
            r0, c0, drdr, drdc, dcdr, dcdc, zshift = _cell_transform(m, res)
            if top == EMPTY:
                zshift = 0  # an all-empty source has no heights to scale

            def image(r: int, c: int) -> tuple[int, int]:
                return r0 + drdr * r + drdc * c, c0 + dcdr * r + dcdc * c

            # _cell_transform checked that the four corner cells land inside
            # the output; the image is their parallelogram, so every strided
            # offset below stays inside the array
            dest = as_strided(
                flat[r0 * side_out + c0 :],
                shape=(side, side),
                strides=(drdr * side_out + dcdr, drdc * side_out + dcdc),
            )
            if dest.max() != _UNWRITTEN:
                r, c = divmod(int(np.argmax(dest != _UNWRITTEN)), side)
                raise _overlap_error(image(r, c))
            cell = _self_overlap(drdr, drdc, dcdr, dcdc, side)
            if cell is not None:
                raise _overlap_error(image(*cell))
            if zshift and top + zshift > res + 1:
                raise _code_range_error(top + zshift, res + 1)
            dest[...] = src
            if zshift:
                np.add(dest, zshift, out=dest, where=src != EMPTY)
        np.maximum(target, EMPTY, out=target)  # cells no map wrote are empty
        grid = ShapeGrid._wrap(res + 1, target)
    return grid


def render_pgm(grid: ShapeGrid, mode: str = "linear", gamma: float = 1.0) -> bytes:
    """Render to a binary 8-bit PGM (P5), one pixel per cell, top row first.

    linear: pixel = round(255 * z**gamma); log: z = 2**-m maps to
    round(255 * (1 - m/k)) so deep levels stay visible; binary: occupancy
    mask.  Pure function of (grid, mode, gamma): identical bytes across runs.
    """
    if mode not in ("linear", "log", "binary"):
        raise ValueError(f"unknown render mode {mode!r}")
    if mode == "linear" and not gamma > 0:
        raise ValueError("gamma must be positive")
    side = grid.side
    k = grid.resolution
    # one pixel value per height code, indexed by the code's unsigned byte,
    # which puts EMPTY (-1) at 255
    lut = np.zeros(256, dtype=np.uint8)
    for m in range(k + 1):
        if mode == "binary":
            lut[m] = 255
        elif mode == "log":
            lut[m] = 255 if k == 0 else round(255 * (1 - m / k))
        else:
            lut[m] = round(255 * (0.5**m) ** gamma)
    cells = grid.array.view(np.uint8)
    rows = max(1, _BLOCK_CELLS // side)
    blocks = (lut[cells[r : r + rows]].tobytes() for r in range(0, side, rows))
    return b"".join([b"P5\n%d %d\n255\n" % (side, side), *blocks])
