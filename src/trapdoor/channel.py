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
sum to exactly 1.  P(n, 1) = J P(n, 0) J with J the exchange matrix, so only
state 0 is computed: P(n, 1) and its inverse are the state-0 arrays read with
both axes reversed, views that share their memory.  P(n, 0) is lower block
triangular, so [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]] gives
the one-step formula P(n,0)^-1 = [[A, 0], [-A P(n-1,1) A, 2 A]] with
A = P(n-1,0)^-1.  The inverse is computed from it without any matrix
product: the blocks of A_k U_k^j, U_k = P(k,1) A_k, follow level by level
as small integer multiples of the blocks one level down.  The one-step
formula itself is checked block by block in trapdoor.verify.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from . import config
from .matrices import DyadicMatrix, dtype_for, max_abs


BLOCK_CELLS = 1 << 16  # entries per row block; public, as fractal.render_pgm blocks by it too


class ChannelMatrix:
    """P(n, s0) with its block length and initial state attached."""

    __slots__ = ("n", "s0", "data")

    def __init__(self, n: int, s0: int, data: DyadicMatrix) -> None:
        self.n = config.check_block_length(n, data.dim, "dimension")
        self.s0 = config.check_state(s0)
        self.data = data

    @property
    def dim(self) -> int:
        return self.data.dim

    def row_index(self, bits: str) -> int:
        """0-based row index of an input bit string."""
        return int(config.check_bits(bits, "input", self.n) or "0", 2)

    def validate(self) -> None:
        """Check stochasticity and the power-of-two entry property; raises on failure.

        Rows are compared with 1 as integers: each row sum of the array must
        equal 2**exp.
        """
        if not self.data.rows_sum_to_one():
            raise ValueError("row does not sum to exactly 1")
        for _ in self.halvings():  # raises on an entry that is neither 0 nor a power of two
            pass

    def halvings(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Blocks of consecutive rows as (entries, m), each non-zero entry being 2**-m.

        Blocks hold about BLOCK_CELLS entries, so their temporaries stay
        small.  Raises ValueError unless every entry is 0 or a power of two.
        """
        a = self.data.array
        step = max(1, BLOCK_CELLS // self.dim)
        for start in range(0, self.dim, step):
            v = np.ascontiguousarray(a[start : start + step])  # ufuncs are slow on reversed views
            if ((v < 0) | (v & (v - 1) != 0)).any():
                raise ValueError("channel entry is not a power of two")
            yield v, self.data.exp + 1 - np.frexp(v)[1]  # frexp is exact on powers of two

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelMatrix):
            return NotImplemented
        return self.n == other.n and self.s0 == other.s0 and self.data == other.data

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ChannelMatrix(n={self.n}, s0={self.s0})"


def _ladder(n: int) -> np.ndarray:
    """P(n, 0) scaled by 2**n, built in place in one array.

    Level k is the top-left 2**k x 2**k corner; its exchange view
    ``a[::-1, ::-1]`` is P(k, 1) at the same scale.  The array has the
    narrowest dtype that holds 2**n, and each level is written from the one
    before without temporaries.
    """
    dim = 1 << n
    p = np.zeros((dim, dim), dtype=dtype_for(dim))
    p[0, 0] = 1
    for k in range(n):
        h = 1 << k
        a = p[:h, :h]
        # P(k+1, 0) = [[2 a, 0], [J a J, a]]
        p[h : 2 * h, h : 2 * h] = a
        p[h : 2 * h, :h] = a[::-1, ::-1]
        a <<= 1
    return p


_MATRIX_COST = "storage is 4**{n} entries"


def build_channel_matrix(n: int, s0: int) -> ChannelMatrix:
    """Build P(n, s0) by n applications of the block recursion.

    Only P(n, 0) is built; P(n, 1) is its exchange view, sharing its memory.
    """
    s0 = config.check_state(s0)
    n = config.check_cap(n, config.MATRIX_CAP_ENV, _MATRIX_COST)
    P = ChannelMatrix(n, 0, DyadicMatrix(_ladder(n), n))
    return exchange_conjugate(P) if s0 else P


def check_channel_data(P: ChannelMatrix) -> ChannelMatrix:
    """P, once its data is checked to be P(P.n, P.s0) on any scale; raises
    ValueError naming the first row that differs."""
    want = build_channel_matrix(P.n, P.s0).data
    if P.data != want:
        e = max(P.data.exp, want.exp)  # rows are compared on the finer scale
        row = int((P.data.with_exp(e).array != want.with_exp(e).array).any(axis=1).argmax()) + 1
        raise ValueError(f"not a valid channel matrix: row {row} differs from P({P.n}, {P.s0})")
    return P


def channel_pair(n: int) -> tuple[ChannelMatrix, ChannelMatrix]:
    """Both P(n, 0) and P(n, 1): one array, the second an exchange view of the first."""
    P0 = build_channel_matrix(n, 0)
    return P0, exchange_conjugate(P0)


def _level(x: list[np.ndarray], m: int) -> list[np.ndarray]:
    """X_k(j) for j = 0..m from the blocks x[j] = X_{k-1}(j), j = 0..m+1.

    X_k(j) = [[(1-j) X(j), j X(j-1)], [-(j+1) X(j+1), (j+2) X(j)]] with
    X = X_{k-1}.  Each quarter of X_k(j) is one coefficient times one block
    of x, so X_k(j) is written into one array of the narrowest dtype that
    holds the largest |coefficient * entry|, and scaled in that dtype: no
    product wraps.
    """
    h = len(x[0])
    tops = [max_abs(b) for b in x]
    out = []
    for j in range(m + 1):
        cells = ((0, 0, 1 - j, j), (0, h, j, j - 1), (h, 0, -(j + 1), j + 1), (h, h, j + 2, j))
        blk = np.zeros((2 * h, 2 * h), dtype=dtype_for(max(abs(c) * tops[i] for *_, c, i in cells)))
        for r, s, c, i in cells:
            if c:
                np.multiply(x[i], c, out=blk[r : r + h, s : s + h], dtype=blk.dtype)
        out.append(blk)
    return out


def _inverse_ladder(n: int, s0: int) -> DyadicMatrix:
    """P(n, s0)^-1 by an integer recursion that needs no matrix product.

    With A_k = P(k, 0)^-1 and U_k = P(k, 1) A_k, the one-step formula gives
    U_k = [[0, I], [-U_{k-1}^2, 2 U_{k-1}]], so X_k(j) = A_k U_k^j follows
    from the level below by _level, starting from X_0(j) = [1].  Level k
    needs j <= n - k, and P(n, 0)^-1 = X_n(0); P(n, 1)^-1 is its exchange view.
    """
    x = [np.ones((1, 1), dtype=np.int16)] * (n + 1)
    for k in range(1, n + 1):
        x = _level(x, n - k)
    inv = DyadicMatrix(x[0], 0)
    return exchange_conjugate(inv) if s0 else inv


def times_inverse(x: np.ndarray, s0: int) -> np.ndarray:
    """x P(n, s0)^-1 for an integer row vector x of 2**n entries, with no matrix.

    _inverse_ladder's recursion on a row vector y = [y_a, y_b]:
    y X_k(j) = [(1-j) y_a X(j) - (j+1) y_b X(j+1), j y_a X(j-1) + (j+2) y_b X(j)].
    Level k holds y X_k(j), j = 0..n-k, for every aligned 2**k-entry segment y
    of x, in the narrowest dtype that holds (2(n-k) + 2) * max |entry|, which
    bounds every new entry: O(n**2 2**n) work in all, and no product wraps.
    """
    if config.check_state(s0):  # P(n, 1)^-1 = J P(n, 0)^-1 J
        return times_inverse(x[::-1], 0)[::-1]
    n = len(x).bit_length() - 1
    y = np.broadcast_to(x, (n + 1, len(x)))  # X_0(j) = [1] for every j
    for m in reversed(range(n)):  # level k = n - m
        c = np.arange(m + 1, dtype=dtype_for((2 * m + 2) * max_abs(y)))[:, None, None]
        a, b = np.moveaxis(y.reshape(m + 2, 1 << m, 2, -1), 2, 0)  # the halves of each segment
        y = np.empty((m + 1, 1 << m, 2, a.shape[-1]), dtype=c.dtype)
        np.multiply(1 - c, a[:-1], out=y[:, :, 0])
        y[:, :, 0] -= (c + 1) * b[1:]
        np.multiply(c + 2, b[:-1], out=y[:, :, 1])
        y[1:, :, 1] += c[1:] * a[:-2]
        y = y.reshape(m + 1, -1)
    return y[0]


def invert_channel_matrix(P: ChannelMatrix) -> DyadicMatrix:
    """Exact inverse of a channel matrix, whose data must be P(n, s0); P @ inverse == I entrywise."""
    return _inverse_ladder(P.n, check_channel_data(P).s0)


def invert_two_step(n: int, s0: int) -> DyadicMatrix:
    """Inverse of P(n, s0) for even n; raises ValueError at odd n.

    The same recursion as invert_channel_matrix, without building P(n, s0) first.
    """
    s0 = config.check_state(s0)
    n = config.check_cap(n, config.MATRIX_CAP_ENV, _MATRIX_COST)
    if n % 2:
        raise ValueError("two-step inversion needs an even block length")
    return _inverse_ladder(n, s0)


def exchange_conjugate(M: Union[ChannelMatrix, DyadicMatrix]) -> Union[ChannelMatrix, DyadicMatrix]:
    """Conjugate by the exchange (anti-diagonal) matrix: entry (i, j) -> (dim-1-i, dim-1-j).

    Involutive, and a reversed view that shares M's memory.  Applied to a
    channel matrix it yields the matrix for the opposite initial state, so
    the result keeps channel metadata.
    """
    if isinstance(M, ChannelMatrix):
        return ChannelMatrix(M.n, 1 - M.s0, exchange_conjugate(M.data))
    return DyadicMatrix(M.array[::-1, ::-1], M.exp)


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
        if not 1 <= config.integer(r, "row index") <= P.dim:
            raise ValueError(f"row index {r} out of range 1..{P.dim}")
        return r - 1

    a = P.data.array
    return not ((a[resolve(row_a)] != 0) & (a[resolve(row_b)] != 0)).any()

