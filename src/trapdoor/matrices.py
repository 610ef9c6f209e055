"""Dense exact matrices over the dyadic rationals.

A matrix is one read-only integer numpy array plus one shared scale exponent:
the value of entry (i, j) is ``array[i, j] / 2**exp``.  Keeping a single
scale makes block assembly and equality checks integer-only.  The array is
stored in the narrowest of int16, int32 and int64 whose range holds the
magnitude of every entry, or as an object array of Python ints past int64
(-2**63 included).  Arithmetic runs in int64, or in Python ints once a bound
says int64 could overflow, and results are narrowed only when stored.
Python lists of the rows are an export view, built on first use.

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
whole; the right factor is cut once, for the largest row sum of them all.
Each block of rows is multiplied only over the span of columns that holds its
non-zero entries, against the same rows of the right factor: the entries left
out are zero, so block triangular factors skip their zero blocks.  A
matrix-vector product is the same product with one column.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import config
from .dyadic import Dyadic

_FLOAT_EXACT = 1 << 53  # float64 holds every integer of smaller magnitude
_INT64_LIMIT = 1 << 63
# a left factor whose row sums reach 2**_ROW_SUM_BITS is cut into limbs as well,
# which leaves at least 53 - 40 = 13 bits for each limb of the right factor
_ROW_SUM_BITS = 40
# rows of the left factor converted to float64 at a time; dgemm runs near full
# speed from 128 rows up (measured at dimensions 1024 to 4096)
_BLOCK_ROWS = 128
_NARROW = tuple(np.dtype(t) for t in (np.int16, np.int32, np.int64))


def dtype_for(top: int) -> np.dtype:
    """The narrowest of int16, int32, int64 and object holding every integer of magnitude <= top."""
    for dt in _NARROW:
        if top <= np.iinfo(dt).max:
            return dt
    return np.dtype(object)


def _working(x: np.ndarray, top: int) -> np.ndarray:
    """x in int64 for arithmetic whose magnitudes stay at most top, or as Python ints past int64."""
    return x.astype(np.int64 if top < _INT64_LIMIT else object, copy=False)


def max_abs(x: np.ndarray) -> int:
    """The largest |entry| of an array as a Python int, 0 when it is empty."""
    # the same entries with every stride forward, where numpy reduces fastest
    x = x[tuple(slice(None, None, -1 if s < 0 else 1) for s in x.strides)]
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _limbs(x: np.ndarray, width: int) -> list[np.ndarray]:
    """Signed limbs of x in base 2**width: x == sum_t limbs[t] << (t * width), |limbs[t]| < 2**width."""
    top = max_abs(x)
    if top >> width == 0:
        return [x]
    # np.abs wraps -2**63 in int64, so a magnitude past int64 takes Python ints
    mag, neg = np.abs(x if top < _INT64_LIMIT else x.astype(object)), x < 0
    mask = (1 << width) - 1
    limbs = []
    for shift in range(0, top.bit_length(), width):
        limb = ((mag >> shift) & mask).astype(np.int64)
        np.negative(limb, out=limb, where=neg)
        limbs.append(limb)
    return limbs


def _abs_sums(x: np.ndarray, axis: int, wide: bool) -> np.ndarray:
    """Sums of |x| along an axis, in int64, or in Python ints when wide."""
    return np.abs(x.astype(object)).sum(axis=axis) if wide else np.abs(x, dtype=np.int64).sum(axis=axis)


def _block_stats(a: np.ndarray) -> list[tuple[int, int, int]]:
    """(ra, lo, hi) for each block of _BLOCK_ROWS rows of a: ra is the block's
    largest row sum of |a| as a Python int, and every non-zero entry of the
    block lies in columns [lo, hi).

    Both reductions run over a's forward-strided view; a column-major view (a
    transposed array) is reduced as its row-major base, a block of base rows at
    a time, where a's row sums are column sums.
    """
    rows, cols = a.shape
    blocks = [(start, min(start + _BLOCK_ROWS, rows)) for start in range(0, rows, _BLOCK_ROWS)]
    if not a.size:
        return [(0, 0, 0)] * len(blocks)
    # row sums in int64 unless a bound on them leaves it; int16 and int32 need no scan
    wide = a.dtype == object or (
        (np.iinfo(a.dtype).max + 1) * cols >= _INT64_LIMIT and max_abs(a) * cols >= _INT64_LIMIT
    )
    flip_rows, flip_cols = a.strides[0] < 0, a.strides[1] < 0
    f = a[:: -1 if flip_rows else 1, :: -1 if flip_cols else 1]
    if flip_rows:  # the same blocks as rows of f, in f's order
        blocks = [(rows - hi, rows - lo) for lo, hi in reversed(blocks)]
    if rows == 1 or f.strides[0] >= f.strides[1]:  # a row vector's view may step 0 bytes per row
        stats = [(_abs_sums(f[lo:hi], 1, wide), f[lo:hi].any(axis=0)) for lo, hi in blocks]
    else:
        base = f.T
        sums = np.zeros(rows, dtype=object if wide else np.int64)
        used = np.empty((len(blocks), cols), dtype=bool)
        firsts = [lo for lo, _ in blocks]
        for k in range(0, cols, _BLOCK_ROWS):
            chunk = base[k : k + _BLOCK_ROWS]
            sums += _abs_sums(chunk, 0, wide)
            used[:, k : k + _BLOCK_ROWS] = np.logical_or.reduceat(chunk != 0, firsts, axis=1).T
        stats = [(sums[lo:hi], block_used) for (lo, hi), block_used in zip(blocks, used)]
    out = []
    for block_sums, block_used in stats[::-1] if flip_rows else stats:
        idx = np.flatnonzero(block_used)
        lo, hi = (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)
        if flip_cols:
            lo, hi = cols - hi, cols - lo
        out.append((int(block_sums.max()) if hi > lo else 0, lo, hi))
    return out


def _block_product(a: np.ndarray, ra: int, mb: int, b_limbs: list, b_width: int, lo: int) -> np.ndarray:
    """a @ b[lo : lo + a.shape[1]] exactly, as int64, or as an object array of
    Python ints past int64, from b's (float64 limb, max |limb|) pairs in base 2**b_width.

    ra is the max row sum of |a| and mb the max |b|.  Every float64 product runs only after
    its bound check: max row sum of |a limb| times max |b limb| must stay below 2**53.
    """
    if ra == 0 or mb == 0:
        return np.zeros((a.shape[0], b_limbs[0][0].shape[1]), dtype=np.int64)
    hi = lo + a.shape[1]
    if ra.bit_length() <= _ROW_SUM_BITS:
        a_width, a_limbs = 0, [(a.astype(np.float64), ra)]
    else:
        # limb row sums stay below inner * 2**a_width <= 2**_ROW_SUM_BITS
        a_width = max(1, _ROW_SUM_BITS - a.shape[1].bit_length())
        a_limbs = [(v.astype(np.float64), int(_abs_sums(v, 1, False).max())) for v in _limbs(a, a_width)]
    wide = ra * mb >= _INT64_LIMIT  # |any partial sum of shifted limb products| <= ra * mb
    acc = None
    for s, (a_f, a_sum) in enumerate(a_limbs):
        for t, (b_f, b_max) in enumerate(b_limbs):
            if a_sum * b_max >= _FLOAT_EXACT:
                raise ArithmeticError("a float64 limb product could round")
            part = (a_f @ b_f[lo:hi]).astype(np.int64)
            if wide:
                part = part.astype(object)
            shift = s * a_width + t * b_width
            if shift:
                part <<= shift
            if acc is None:
                acc = part
            else:
                acc += part
    return acc


def _row_blocks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Exact products with b of a's rows, _BLOCK_ROWS at a time, each with its first row index.

    Each block is multiplied only over the column span that holds its non-zero
    entries, with the same rows of b; the entries left out are zero.  Every
    block's limbs have row sums below 2**_ROW_SUM_BITS, and below the largest
    row sum of |a|, so limbs of b cut once for that bound serve all blocks.
    """
    stats = _block_stats(a)
    bits = min(max((ra for ra, _, _ in stats), default=0).bit_length(), _ROW_SUM_BITS)
    mb = max_abs(b)
    width = max(1, min(53 - bits, mb.bit_length()))
    b_limbs = [(v.astype(np.float64), max_abs(v)) for v in _limbs(b, width)]
    for start, (ra, lo, hi) in zip(range(0, len(a), _BLOCK_ROWS), stats):
        yield start, _block_product(a[start : start + _BLOCK_ROWS, lo:hi], ra, mb, b_limbs, width, lo)


def exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly for integer arrays: int64, or an object array of Python ints past int64."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return np.concatenate([block for _, block in _row_blocks(a, b)])


def _identity_rows(x: np.ndarray, start: int, exp: int) -> bool:
    """Whether x is the rows from start on of 2**exp times the identity: one
    non-zero entry per row, 2**exp on the diagonal."""
    return np.count_nonzero(x) == len(x) and bool((np.diagonal(x, start) == 1 << exp).all())


def shift_down(x: np.ndarray, k: int) -> np.ndarray | None:
    """x / 2**k for an integer array, or None unless every entry is divisible by 2**k."""
    if k == 0:
        return x
    if x.dtype != object:
        x = x.astype(object if k >= 63 else np.int64, copy=False)
    if np.any(x & ((1 << k) - 1)):
        return None
    return x >> k


class DyadicMatrix:
    """Square exact matrix; entry (i, j) equals ``array[i, j] / 2**exp``.

    The array is read-only and owned by the instance (an integer array passed
    in is kept without a copy when its dtype is already the narrowest);
    all operations return fresh matrices.
    """

    __slots__ = ("array", "exp", "_rows")

    def __init__(self, entries, exp: int = 0) -> None:
        arr = entries if isinstance(entries, np.ndarray) else np.array(entries, dtype=object)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:  # a ragged list fails here
            raise ValueError("matrix must be square")
        arr = config.integer_array(arr, "matrix entries")
        exp = config.integer(exp, "scale exponent")
        if exp < 0:
            raise ValueError("scale exponent must be non-negative")
        dt = dtype_for(max_abs(arr))  # stored in the narrowest dtype, read-only
        self.array = arr.astype(dt) if arr.dtype != dt else arr.view()
        self.array.flags.writeable = False
        self.exp = exp
        self._rows: list[list[int]] | None = None

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    @property
    def int_rows(self) -> list[list[int]]:
        """The entries as lists of Python ints, for export and test oracles.

        Built on first access and cached, as perfbench's self-test corrupts an
        inverse by writing into the list; the package itself never reads it.
        """
        if self._rows is None:
            self._rows = self.array.tolist()
        return self._rows

    # -- scale handling ------------------------------------------------------

    def with_exp(self, exp: int) -> "DyadicMatrix":
        """Rescale to the given exponent; raises if entries are not exactly representable."""
        shift = exp - self.exp
        if shift >= 0:
            a = self.array
            return DyadicMatrix(_working(a, max_abs(a) << shift) << shift, exp)
        out = shift_down(self.array, -shift)
        if out is None:
            raise ValueError("entries not divisible by the requested power of two")
        return DyadicMatrix(out, exp)

    # -- structure ops -------------------------------------------------------

    def rows_sum_to_one(self) -> bool:
        """Whether every row sums to exactly 1: every integer row sum equals 2**exp."""
        a = self.array
        sums = _working(a, max_abs(a) * self.dim).sum(axis=1)
        return bool((sums == 1 << self.exp).all())

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        coarse, fine = sorted((self, other), key=lambda m: m.exp)
        # equal only if every entry on the finer scale divides down to the coarser one
        down = shift_down(fine.array, fine.exp - coarse.exp)
        return down is not None and np.array_equal(coarse.array, down)

    __hash__ = None  # type: ignore[assignment]

    def is_identity(self) -> bool:
        return _identity_rows(self.array, 0, self.exp)

    # -- products ------------------------------------------------------------

    def __matmul__(self, other: "DyadicMatrix") -> "DyadicMatrix":
        return self.matmul(other)

    def matmul(self, other: "DyadicMatrix") -> "DyadicMatrix":
        """Exact matrix product."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return DyadicMatrix(exact_product(self.array, other.array), self.exp + other.exp)

    def product_equals(self, other: "DyadicMatrix", expected: "DyadicMatrix | None") -> bool:
        """Check self @ other == expected (the identity when None) without
        materializing the product: each block of product rows is compared
        with the same rows of expected, or with the rows of the identity."""
        dim = self.dim
        if other.dim != dim or (expected is not None and expected.dim != dim):
            return False
        prod_exp = self.exp + other.exp
        shift = prod_exp - (0 if expected is None else expected.exp)
        if shift < 0:
            # expected is on a finer scale; rescale it down if possible
            try:
                expected = expected.with_exp(prod_exp)
            except ValueError:
                return False
            shift = 0
        for start, block in _row_blocks(self.array, other.array):
            if expected is None:
                same = _identity_rows(block, start, shift)
            else:
                block = shift_down(block, shift)
                same = block is not None and np.array_equal(block, expected.array[start : start + len(block)])
            if not same:
                return False
        return True

    def product_is_identity(self, other: "DyadicMatrix") -> bool:
        """Check self @ other == I exactly."""
        return self.product_equals(other, None)

    def matvec(self, vec: Sequence[Dyadic]) -> list[Dyadic]:
        """Exact matrix-vector product."""
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        e = max((d.exp for d in vec), default=0)  # vec[i] == nums[i] / 2**e
        nums = config.integer_array([[d.num << (e - d.exp)] for d in vec], "vector entries")
        e += self.exp
        return [Dyadic(v, e) for v in exact_product(self.array, nums)[:, 0].tolist()]
