"""Dense exact matrices over the dyadic rationals.

A matrix is stored as integer rows plus one shared scale exponent: the value
of entry (i, j) is ``rows[i][j] / 2**exp``.  Keeping a single scale makes
block assembly and equality checks integer-only.

Every exact product of the package is computed here.  Matrix products
(``matmul``, ``product_equals``, ``exact_product``) are exact and run on
float64 matrix products (BLAS dgemm).  A float64 holds every integer of
magnitude below 2**53, so for integer matrices A @ B comes out exact, in any
order of summation, when every partial sum stays below 2**53 in magnitude.
That holds when max_i sum_k |a_ik| * max_kj |b_kj| < 2**53, and no float
product is used unless that bound has been checked.  When it fails, the
operands are cut into limbs (signed digits in base 2**L) chosen so that each
pair of limbs meets it, and the shifted limb products are summed in int64, or
in Python ints once the bound on the result leaves int64.  The left factor
is converted one block of rows at a time, so no float copy of it is ever
whole.  A matrix-vector product is one pass over the rows in Python ints,
which costs less than converting the rows for a float64 product.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .dyadic import Dyadic

IntRows = list[list[int]]

_FLOAT_EXACT = 1 << 53  # float64 holds every integer of smaller magnitude
_INT64_LIMIT = 1 << 63
# a left factor whose row sums reach 2**_ROW_SUM_BITS is cut into limbs as well,
# which leaves at least 53 - 40 = 13 bits for each limb of the right factor
_ROW_SUM_BITS = 40
# rows of the left factor converted to float64 at a time; dgemm runs near full
# speed from 128 rows up (measured at dimensions 1024 to 4096)
_BLOCK_ROWS = 128


def int_array(rows) -> np.ndarray:
    """Integer rows as an int64 array, or as an object array of Python ints
    when some entry's magnitude does not fit in int64."""
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)
    if arr.size and arr.min() == np.iinfo(np.int64).min:
        return arr.astype(object)  # -2**63 has no int64 magnitude
    return arr


def _max_abs(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _exact_float(b) -> np.ndarray | None:
    """Integer rows or array b as float64 when every |entry| < 2**53 (so the
    conversion is exact), else None."""
    try:
        f = np.array(b, dtype=np.float64)
    except OverflowError:
        return None
    if _max_abs(f) >= _FLOAT_EXACT:
        return None
    return f


def _max_row_sum(x: np.ndarray) -> int:
    """max_i sum_k |x_ik| as a Python int, summed in Python ints where int64 could overflow."""
    if not x.size:
        return 0
    mag = np.abs(x)
    if mag.dtype != object and int(mag.max()) * x.shape[1] >= _INT64_LIMIT:
        mag = mag.astype(object)
    return int(mag.sum(axis=1).max())


def _limbs(x: np.ndarray, width: int) -> list[np.ndarray]:
    """Signed limbs of x in base 2**width: x == sum_t limbs[t] << (t * width), |limbs[t]| < 2**width."""
    top = _max_abs(x)
    if top >> width == 0:
        return [x]
    mag, neg = np.abs(x), x < 0
    mask = (1 << width) - 1
    limbs = []
    for shift in range(0, top.bit_length(), width):
        limb = ((mag >> shift) & mask).astype(np.int64)
        np.negative(limb, out=limb, where=neg)
        limbs.append(limb)
    return limbs


class _RightFactor:
    """Right factor b of exact products, held as float64 limbs cut for the narrowest width asked.

    ``b`` is a list of integer rows or an integer array; it is read again
    only when narrower limbs are needed.
    """

    def __init__(self, b) -> None:
        self.b = b
        whole = _exact_float(b)
        self.max_abs = _max_abs(int_array(b) if whole is None else whole)
        self.width = max(self.max_abs.bit_length(), 1)
        self._limbs: list[tuple[np.ndarray, int]] = [] if whole is None else [(whole, self.max_abs)]

    def limbs(self, width: int) -> list[tuple[np.ndarray, int]]:
        """(float64 limb, max |entry|) pairs in a base 2**w with w <= width.

        Limbs narrower than asked still meet the caller's bound, so they are
        cut again only when a narrower width is asked for.
        """
        width = min(width, max(self.max_abs.bit_length(), 1))
        if not self._limbs or width < self.width:
            self._limbs = []  # release the old limbs before making new ones
            self._limbs = [
                (v.astype(np.float64), _max_abs(v)) for v in _limbs(int_array(self.b), width)
            ]
            self.width = width
        return self._limbs


def _block_product(a: np.ndarray, right: _RightFactor) -> np.ndarray:
    """a @ b exactly, as int64, or as an object array of Python ints past int64.

    Every float64 product runs only after its bound check: max row sum of
    |a limb| times max |b limb| must stay below 2**53.
    """
    shape = (a.shape[0], len(right.b[0]))
    ra, mb = _max_row_sum(a), right.max_abs
    if ra == 0 or mb == 0:
        return np.zeros(shape, dtype=np.int64)
    if ra.bit_length() <= _ROW_SUM_BITS:
        a_width, a_limbs = 0, [(a.astype(np.float64), ra)]
    else:
        # limb row sums stay below inner * 2**a_width <= 2**_ROW_SUM_BITS
        a_width = max(1, _ROW_SUM_BITS - a.shape[1].bit_length())
        a_limbs = [(v.astype(np.float64), _max_row_sum(v)) for v in _limbs(a, a_width)]
    b_limbs = right.limbs(53 - max(s for _, s in a_limbs).bit_length())
    wide = ra * mb >= _INT64_LIMIT  # |any partial sum of shifted limb products| <= ra * mb
    acc = np.zeros(shape, dtype=object if wide else np.int64)
    for s, (a_f, a_sum) in enumerate(a_limbs):
        for t, (b_f, b_max) in enumerate(b_limbs):
            if a_sum * b_max >= _FLOAT_EXACT:
                raise ArithmeticError("a float64 limb product could round")
            part = (a_f @ b_f).astype(np.int64)
            if wide:
                part = part.astype(object)
            acc += part << (s * a_width + t * right.width)
    return acc


def _row_blocks(a, right: _RightFactor) -> Iterator[tuple[int, np.ndarray]]:
    """Exact products with b of a's rows, _BLOCK_ROWS at a time, each with its first row index.

    ``a`` is a list of integer rows (converted one block at a time) or an integer array.
    """
    for start in range(0, len(a), _BLOCK_ROWS):
        block = a[start : start + _BLOCK_ROWS]
        yield start, _block_product(int_array(block) if isinstance(block, list) else block, right)


def exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly for integer arrays: int64, or an object array of Python ints past int64."""
    return np.concatenate([block for _, block in _row_blocks(a, _RightFactor(b))])


def shift_down(x: np.ndarray, k: int) -> np.ndarray | None:
    """x / 2**k for an integer array, or None unless every entry is divisible by 2**k."""
    if k == 0:
        return x
    if x.dtype != object and k >= 63:
        x = x.astype(object)
    if np.any(x & ((1 << k) - 1)):
        return None
    return x >> k


class DyadicMatrix:
    """Square exact matrix; entry (i, j) equals ``int_rows[i][j] / 2**exp``.

    The int rows are owned by the instance and must not be mutated by
    callers; all operations return fresh matrices.
    """

    __slots__ = ("int_rows", "exp", "dim")

    def __init__(self, int_rows: IntRows, exp: int = 0) -> None:
        dim = len(int_rows)
        if any(len(r) != dim for r in int_rows):
            raise ValueError("matrix must be square")
        if exp < 0:
            raise ValueError("scale exponent must be non-negative")
        self.int_rows = int_rows
        self.exp = exp
        self.dim = dim

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "DyadicMatrix":
        rows = [[0] * dim for _ in range(dim)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls(rows, 0)

    # -- element access ------------------------------------------------------

    def entry(self, i: int, j: int) -> Dyadic:
        """Entry at 0-based position (i, j)."""
        return Dyadic(self.int_rows[i][j], self.exp)

    def row_dyadics(self, i: int) -> list[Dyadic]:
        e = self.exp
        return [Dyadic(v, e) for v in self.int_rows[i]]

    def to_lists(self) -> list[list[Dyadic]]:
        return [self.row_dyadics(i) for i in range(self.dim)]

    # -- scale handling ------------------------------------------------------

    def with_exp(self, exp: int) -> "DyadicMatrix":
        """Rescale to the given exponent; raises if entries are not exactly representable."""
        shift = exp - self.exp
        if shift >= 0:
            return DyadicMatrix([[v << shift for v in row] for row in self.int_rows], exp)
        down = -shift
        mask = (1 << down) - 1
        out = []
        for row in self.int_rows:
            new = []
            for v in row:
                if v & mask:
                    raise ValueError("entries not divisible by the requested power of two")
                new.append(v >> down)
            out.append(new)
        return DyadicMatrix(out, exp)

    def reduced(self) -> "DyadicMatrix":
        """Equivalent matrix with the smallest possible scale exponent."""
        g = self.exp
        for row in self.int_rows:
            for v in row:
                if v:
                    tz = (v & -v).bit_length() - 1
                    if tz < g:
                        g = tz
                    if g == 0:
                        return self.with_exp(self.exp)  # copy
        return self.with_exp(self.exp - g)

    # -- structure ops -------------------------------------------------------

    def reversed_conjugate(self) -> "DyadicMatrix":
        """Entry (i, j) moved to (dim-1-i, dim-1-j): conjugation by the exchange matrix."""
        return DyadicMatrix([row[::-1] for row in self.int_rows[::-1]], self.exp)

    def row_sums(self) -> list[Dyadic]:
        return [Dyadic(sum(row), self.exp) for row in self.int_rows]

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.exp == other.exp:
            return self.int_rows == other.int_rows
        e = max(self.exp, other.exp)
        ls, rs = e - self.exp, e - other.exp
        return all(
            [v << ls for v in ra] == [v << rs for v in rb]
            for ra, rb in zip(self.int_rows, other.int_rows)
        )

    __hash__ = None  # type: ignore[assignment]

    def is_identity(self) -> bool:
        one = 1 << self.exp
        for i, row in enumerate(self.int_rows):
            for j, v in enumerate(row):
                if v != (one if i == j else 0):
                    return False
        return True

    # -- products ------------------------------------------------------------

    def __matmul__(self, other: "DyadicMatrix") -> "DyadicMatrix":
        return self.matmul(other)

    def matmul(self, other: "DyadicMatrix") -> "DyadicMatrix":
        """Exact matrix product."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        right = _RightFactor(other.int_rows)
        rows: IntRows = []
        for _, block in _row_blocks(self.int_rows, right):
            rows += block.tolist()
        return DyadicMatrix(rows, self.exp + other.exp)

    def product_equals(self, other: "DyadicMatrix", expected: "DyadicMatrix") -> bool:
        """Check self @ other == expected without materializing the product."""
        if self.dim != other.dim or self.dim != expected.dim:
            return False
        prod_exp = self.exp + other.exp
        shift = prod_exp - expected.exp
        if shift < 0:
            # expected is on a finer scale; rescale it down if possible
            try:
                expected = expected.with_exp(prod_exp)
            except ValueError:
                return False
            shift = 0
        want = expected.int_rows
        right = _RightFactor(other.int_rows)
        for start, block in _row_blocks(self.int_rows, right):
            block = shift_down(block, shift)
            if block is None or block.tolist() != want[start : start + len(block)]:
                return False
        return True

    def product_is_identity(self, other: "DyadicMatrix") -> bool:
        """Check self @ other == I exactly."""
        return self.product_equals(other, DyadicMatrix.identity(self.dim))

    def matvec(self, vec: Sequence[Dyadic]) -> list[Dyadic]:
        """Exact matrix-vector product."""
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        ve = max((d.exp for d in vec), default=0)
        nums = [d.num << (ve - d.exp) for d in vec]
        e = self.exp + ve
        # one pass over the rows in Python ints: converting the rows to an
        # array for a float64 product would cost more than this pass
        return [Dyadic(sum(map(mul, row, nums)), e) for row in self.int_rows]


def reverse_vector(v: Sequence) -> list:
    """Entries in reverse order (multiplication by the exchange matrix); involutive."""
    return list(v)[::-1]
