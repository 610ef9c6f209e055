"""Dense exact matrices over the dyadic rationals.

A matrix is stored as integer rows plus one shared scale exponent: the value
of entry (i, j) is ``rows[i][j] / 2**exp``.  Keeping a single scale makes
block assembly and equality checks integer-only, and it lets matrix products
run through a packed big-integer representation: each row of the right-hand
factor is encoded as one large integer with fixed-width signed limbs, so a
row of the product is a short linear combination of big integers instead of
O(dim) Python-level dot products.  That is what keeps the exact identity
checks at dimension 1024 in the seconds range.
"""

from __future__ import annotations

from typing import Sequence

from .dyadic import Dyadic

IntRows = list[list[int]]


def _pack_rows(rows: IntRows, limb_bytes: int) -> list[int]:
    """Pack each row of signed ints into one big integer, base 2**(8*limb_bytes).

    Requires |entry| < 2**(8*limb_bytes - 1); to_bytes raises otherwise.
    """
    bits = 8 * limb_bytes
    off = 1 << (bits - 1)
    n = len(rows[0])
    unit = ((1 << (bits * n)) - 1) // ((1 << bits) - 1)  # 1 + B + ... + B**(n-1)
    off_total = off * unit
    packed = []
    for row in rows:
        data = b"".join((c + off).to_bytes(limb_bytes, "little") for c in row)
        packed.append(int.from_bytes(data, "little") - off_total)
    return packed


def _unpack_row(acc: int, limb_bytes: int, n: int) -> list[int]:
    """Inverse of _pack_rows for a single packed value with n limbs."""
    bits = 8 * limb_bytes
    off = 1 << (bits - 1)
    unit = ((1 << (bits * n)) - 1) // ((1 << bits) - 1)
    data = (acc + off * unit).to_bytes(limb_bytes * n, "little")
    return [
        int.from_bytes(data[limb_bytes * i : limb_bytes * (i + 1)], "little") - off
        for i in range(n)
    ]


def _max_abs(rows: IntRows) -> int:
    m = 0
    for row in rows:
        for v in row:
            if v > m:
                m = v
            elif -v > m:
                m = -v
    return m


def _limb_bytes_for(bound: int) -> int:
    # one spare bit for the sign, one for safety
    return (bound.bit_length() + 2 + 7) // 8


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
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)], 0)

    @classmethod
    def from_dyadic_rows(cls, rows: Sequence[Sequence[Dyadic]]) -> "DyadicMatrix":
        exp = 0
        for row in rows:
            for d in row:
                if d.exp > exp:
                    exp = d.exp
        ints = [[d.num << (exp - d.exp) for d in row] for row in rows]
        return cls(ints, exp)

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

    def max_abs_int(self) -> int:
        return _max_abs(self.int_rows)

    # -- structure ops -------------------------------------------------------

    def transpose(self) -> "DyadicMatrix":
        return DyadicMatrix([list(col) for col in zip(*self.int_rows)], self.exp)

    def reversed_conjugate(self) -> "DyadicMatrix":
        """Entry (i, j) moved to (dim-1-i, dim-1-j): conjugation by the exchange matrix."""
        return DyadicMatrix([row[::-1] for row in self.int_rows[::-1]], self.exp)

    def __neg__(self) -> "DyadicMatrix":
        return DyadicMatrix([[-v for v in row] for row in self.int_rows], self.exp)

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
        n = self.dim
        b_max = other.max_abs_int()
        # the limbs hold the packed factor's own entries as well as the product's
        lb = _limb_bytes_for(max(self.max_abs_int() * b_max * n + 1, b_max))
        packed = _pack_rows(other.int_rows, lb)
        out = []
        for arow in self.int_rows:
            acc = 0
            for k, a in enumerate(arow):
                if a:
                    acc += a * packed[k]
            out.append(_unpack_row(acc, lb, n))
        return DyadicMatrix(out, self.exp + other.exp)

    def product_equals(self, other: "DyadicMatrix", expected: "DyadicMatrix") -> bool:
        """Check self @ other == expected without materializing the product."""
        if self.dim != other.dim or self.dim != expected.dim:
            return False
        n = self.dim
        prod_exp = self.exp + other.exp
        shift_e = prod_exp - expected.exp
        if shift_e < 0:
            # expected is on a finer scale; rescale it down if possible
            try:
                expected = expected.with_exp(prod_exp)
            except ValueError:
                return False
            shift_e = 0
        b_max = other.max_abs_int()
        lb = _limb_bytes_for(
            max(self.max_abs_int() * b_max * n + 1, b_max, expected.max_abs_int() << shift_e)
        )
        packed = _pack_rows(other.int_rows, lb)
        want_rows = (
            expected.int_rows
            if shift_e == 0
            else [[v << shift_e for v in row] for row in expected.int_rows]
        )
        want = _pack_rows(want_rows, lb)
        for arow, w in zip(self.int_rows, want):
            acc = 0
            for k, a in enumerate(arow):
                if a:
                    acc += a * packed[k]
            if acc != w:
                return False
        return True

    def product_is_identity(self, other: "DyadicMatrix") -> bool:
        """Check self @ other == I exactly."""
        return self.product_equals(other, DyadicMatrix.identity(self.dim))

    def matvec(self, vec: Sequence[Dyadic]) -> list[Dyadic]:
        """Exact matrix-vector product."""
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        ve = 0
        for d in vec:
            if d.exp > ve:
                ve = d.exp
        nums = [d.num << (ve - d.exp) for d in vec]
        out = []
        for row in self.int_rows:
            s = 0
            for a, b in zip(row, nums):
                if a:
                    s += a * b
            out.append(Dyadic(s, self.exp + ve))
        return out


def reverse_vector(v: Sequence) -> list:
    """Entries in reverse order (multiplication by the exchange matrix); involutive."""
    return list(v)[::-1]
