"""Construction and exact inversion of the trapdoor channel matrices.

P(n, s0) is the 2**n x 2**n matrix of conditional probabilities of length-n
output sequences given length-n input sequences when the box initially holds
ball s0.  Row i (1-based in all documentation, 0-based in code) corresponds
to the input bit string spelling the integer i-1, most-significant bit first;
columns index output strings the same way.  The matrices obey the block
recursions

    P(n+1, 0) = [[ P(n, 0),      0        ],        P(n+1, 1) = [[ P(n,1)/2,  P(n,0)/2 ],
                 [ P(n, 1)/2,    P(n, 0)/2 ]]                    [ 0,         P(n,1)   ]]

with P(0, 0) = P(0, 1) = [1], so every entry is 0 or a power of 1/2 and rows
sum to exactly 1.  Inverses are computed by the block-triangular inversion
formula applied recursively, entirely in exact integer arithmetic.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Union

import numpy as np

from . import config
from .dyadic import Dyadic
from .matrices import DyadicMatrix, IntRows, exact_product, int_array, reverse_vector, shift_down


class ChannelMatrix:
    """P(n, s0) with its block length and initial state attached."""

    __slots__ = ("n", "s0", "data")

    def __init__(self, n: int, s0: int, data: DyadicMatrix) -> None:
        if data.dim != 1 << n:
            raise ValueError(f"expected dimension {1 << n}, got {data.dim}")
        self.n = n
        self.s0 = config.check_state(s0)
        self.data = data

    @property
    def dim(self) -> int:
        return self.data.dim

    def entry(self, i: int, j: int) -> Dyadic:
        return self.data.entry(i, j)

    def row_dyadics(self, i: int) -> list[Dyadic]:
        return self.data.row_dyadics(i)

    def row_index(self, bits: str) -> int:
        """0-based row index of an input bit string."""
        return int(config.check_bits(bits, "input", self.n) or "0", 2)

    def float_rows(self) -> list[list[float]]:
        scale = float(1 << self.data.exp)
        return [[v / scale for v in row] for row in self.data.int_rows]

    def validate(self) -> None:
        """Check stochasticity and the power-of-two entry property; raises on failure."""
        one = 1 << self.data.exp
        for row in self.data.int_rows:
            if sum(row) != one:
                raise ValueError("row does not sum to exactly 1")
            for v in row:
                if v < 0 or (v and (v & (v - 1))):
                    raise ValueError("entry is neither 0 nor a power of 1/2")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelMatrix):
            return NotImplemented
        return self.n == other.n and self.s0 == other.s0 and self.data == other.data

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ChannelMatrix(n={self.n}, s0={self.s0})"


def _int_ladder(n: int) -> Iterator[tuple[IntRows, IntRows]]:
    """Scaled integer rows of (P(k,0), P(k,1)) for k = 0..n; level k is scaled by 2**k.

    Yields one level at a time and keeps only the one it builds the next
    from, so at most two levels are alive while a caller walks the ladder.
    """
    rows0: IntRows = [[1]]
    rows1: IntRows = [[1]]
    yield rows0, rows1
    for k in range(1, n + 1):
        half = 1 << (k - 1)
        zeros = [0] * half
        new0 = [[v << 1 for v in r] + zeros for r in rows0]
        new0 += [r1 + r0 for r1, r0 in zip(rows1, rows0)]
        new1 = [r1 + r0 for r1, r0 in zip(rows1, rows0)]
        new1 += [zeros + [v << 1 for v in r] for r in rows1]
        rows0, rows1 = new0, new1
        yield rows0, rows1


_MATRIX_COST = "storage is 4**{n} entries"


def build_channel_matrix(n: int, s0: int) -> ChannelMatrix:
    """Build P(n, s0) by n applications of the block recursion."""
    s0 = config.check_state(s0)
    return channel_pair(n)[s0]


def channel_pair(n: int) -> tuple[ChannelMatrix, ChannelMatrix]:
    """Both P(n, 0) and P(n, 1) from one pass of the recursion."""
    config.check_cap(n, config.MATRIX_CAP_ENV, _MATRIX_COST)
    rows0, rows1 = deque(_int_ladder(n), maxlen=1)[0]  # the top level only
    return (
        ChannelMatrix(n, 0, DyadicMatrix(rows0, n)),
        ChannelMatrix(n, 1, DyadicMatrix(rows1, n)),
    )


_LIST_ROWS = 128  # rows of the last inversion level turned into lists at a time


def _corner(inv: np.ndarray, mid: IntRows, right: np.ndarray, k: int) -> np.ndarray:
    """inv @ mid @ right / 2**k exactly; raises ArithmeticError if the division is not exact."""
    out = shift_down(exact_product(exact_product(inv, int_array(mid)), right), k)
    if out is None:
        raise ArithmeticError(f"corner block is not divisible by 2^{k}")
    return out


def _widen(x: np.ndarray) -> np.ndarray:
    """x as Python ints when a small multiple of it could leave int64."""
    if x.dtype != object and np.abs(x).max() >= 1 << 60:
        return x.astype(object)
    return x


def _assemble(grid: list[list[np.ndarray]], last: bool) -> np.ndarray | IntRows:
    """The block matrix of an inversion level: an array, or list rows at the last level.

    The last level goes to lists a few rows at a time, so no full-size array
    of it is ever built next to its list form.
    """
    if not last:
        return np.block(grid)
    rows: IntRows = []
    for blocks in grid:
        for start in range(0, len(blocks[0]), _LIST_ROWS):
            rows += np.hstack([b[start : start + _LIST_ROWS] for b in blocks]).tolist()
    return rows


def _invert_ladder(n: int, s0: int) -> DyadicMatrix:
    """Inverse of P(n, s0) via the one-step block formula, bottom-up.

    For state 0 the matrix is lower block triangular:
        [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]
    with A = P(k-1,0), C = P(k-1,1)/2, D = P(k-1,0)/2, which collapses to
    -D^-1 C A^-1 = -A^-1 P(k-1,1) A^-1 and D^-1 = 2 A^-1.  State 1 is the
    mirrored upper-triangular case.  The working inverse is an integer array
    between levels.
    """
    if n == 0:
        return DyadicMatrix([[1]], 0)
    ladder = _int_ladder(n - 1)
    inv = np.ones((1, 1), dtype=np.int64)
    for k in range(1, n + 1):
        # P(k-1, 1) for state 0 and P(k-1, 0) for state 1, scaled by 2**(k-1)
        corner = _corner(inv, next(ladder)[1 - s0], inv, k - 1)
        if k == n:
            ladder.close()  # drop the last level before the full-size blocks
        inv, corner = _widen(inv), _widen(corner)
        zeros = np.zeros_like(inv)
        if s0 == 0:
            grid = [[inv, zeros], [-corner, 2 * inv]]
        else:
            grid = [[2 * inv, -corner], [zeros, inv]]
        inv = _assemble(grid, k == n)
    return DyadicMatrix(inv, 0)


def invert_channel_matrix(P: ChannelMatrix) -> DyadicMatrix:
    """Exact inverse of a channel matrix; satisfies P @ inverse == I entrywise."""
    return _invert_ladder(P.n, P.s0)


def invert_two_step(n: int, s0: int) -> DyadicMatrix:
    """Inverse of P(n, s0) for even n via the four-block recursion.

    Builds the inverse of P(n, 0) two levels at a time from the corner
    product M0 = P(2k,0)^-1 P(2k,1) P(2k,0)^-1.  P(n, 1) = J P(n, 0) J with J
    the exchange matrix, so state 1 assembles the last level's block grid
    exchange-reversed.  This is an independent route kept as a cross-check
    against the one-step formula, which computes each state on its own.
    """
    s0 = config.check_state(s0)
    config.check_cap(n, config.MATRIX_CAP_ENV, _MATRIX_COST)
    if n % 2:
        raise ValueError("two-step inversion needs an even block length")
    if n == 0:
        return DyadicMatrix([[1]], 0)
    levels = islice(_int_ladder(n - 2), 0, None, 2)
    inv = np.ones((1, 1), dtype=np.int64)
    for k in range(2, n + 1, 2):
        mid = next(levels)[1]  # P(k-2, 1), scaled by 2**(k-2)
        m = _corner(inv, mid, inv, k - 2)
        f = _corner(m, mid, inv, k - 2)
        iv, m, f = _widen(inv), _widen(m), _widen(f)
        z = np.zeros_like(iv)
        grid = [
            [iv, z, z, z],
            [-m, 2 * iv, z, z],
            [z, -iv, 2 * iv, z],
            [2 * f, -3 * m, -2 * m, 4 * iv],
        ]
        if k == n and s0 == 1:  # J grid J, as views
            grid = [[b[::-1, ::-1] for b in row[::-1]] for row in grid[::-1]]
        inv = _assemble(grid, k == n)
    return DyadicMatrix(inv, 0)


def exchange_conjugate(
    M: Union[ChannelMatrix, DyadicMatrix]
) -> Union[ChannelMatrix, DyadicMatrix]:
    """Conjugate by the exchange (anti-diagonal) matrix: entry (i, j) -> (dim-1-i, dim-1-j).

    Involutive.  Applied to a channel matrix it yields the matrix for the
    opposite initial state, so the result keeps channel metadata.
    """
    if isinstance(M, ChannelMatrix):
        return ChannelMatrix(M.n, 1 - M.s0, M.data.reversed_conjugate())
    return M.reversed_conjugate()


def disjoint_support_check(
    P: ChannelMatrix, row_a: Union[int, str], row_b: Union[int, str]
) -> bool:
    """True iff no output column is reachable from both input rows.

    Rows may be given as 1-based indices (the documentation convention) or as
    input bit strings.
    """

    def resolve(r: Union[int, str]) -> int:
        if isinstance(r, str):
            return P.row_index(r)
        if not 1 <= r <= P.dim:
            raise ValueError(f"row index {r} out of range 1..{P.dim}")
        return r - 1

    ra = P.data.int_rows[resolve(row_a)]
    rb = P.data.int_rows[resolve(row_b)]
    return all(not (a and b) for a, b in zip(ra, rb))


__all__ = [
    "ChannelMatrix",
    "build_channel_matrix",
    "channel_pair",
    "invert_channel_matrix",
    "invert_two_step",
    "exchange_conjugate",
    "disjoint_support_check",
    "reverse_vector",
]
