"""Conditional entropy vectors, weight vectors, and the capacity upper bound.

For a channel matrix P(n, s0) define

    h = -(P o log2 P) 1        (entry i: H(Y^n | X^n = i-th input), in bits)
    w = -P^-1 h                (integer-valued weight vector)
    S = sum_i 2**w_i           (exact dyadic)
    c_up = log2(S) / n         (bits per use)

c_up is the absolute maximum of the per-letter mutual information over the
relaxed feasible set (sum-to-one distributions with non-negative output
masses), hence an upper bound on the n-letter capacity.  Both h and w obey
cheap block recursions that avoid building any matrix, which this module
implements alongside the direct definitions; the two routes are checked
against each other in the test suite; d, too, comes from the recursion for
P^-1 without a matrix.  All quantities except the final logarithms are exact.

The even-length bound is log2(5/2)/2 = 0.660964... for every even n; the
odd-length bounds increase strictly toward that value.  The pre-normalized
optimizer d = (P^-1)^T 2**w sums to S exactly; a negative entry of d
certifies that the relaxed optimum lies outside the probability simplex.
For every n >= 2 the entry d[2**n - 1] (1-based) is negative: it equals
-3 * 2**(n-3) at even lengths and -3 * 2**(n-5) at odd lengths (the weight
vector ends in (-2, 0) or (-4, -2) respectively).  For n = 1 the vector
d = [3/4, 1/2] is non-negative and the bound is attained on the simplex at
[3/5, 2/5].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .channel import ChannelMatrix, build_channel_matrix, invert_channel_matrix, times_inverse
from .dyadic import Dyadic
from .matrices import DyadicMatrix, dtype_for, exact_product, max_abs, shift_down


def _int64_entries(values) -> np.ndarray:
    """values as a read-only flat int64 array (no copy of one), once config.integer_array accepts them."""
    a = config.integer_array(values, "entries")
    if a.ndim != 1:
        raise ValueError(f"entries must be integers, got a {a.ndim}-d array")
    if a.dtype == object or a.dtype == np.uint64 and a.max(initial=0) >> 63:
        raise ValueError("entries must fit in int64")
    a = a.astype(np.int64, copy=False).view()
    a.flags.writeable = False
    return a


class _ExactVector:
    """A weight or entropy vector: one read-only int64 array of 2**n entries.

    ``entries`` is the list export view, built from the array on each read,
    like ``ShapeGrid.codes``.
    """

    __slots__ = ("n", "s0", "array")

    def __init__(self, n: int, values) -> None:
        self.array = _int64_entries(values)
        self.n = config.check_block_length(n, len(self.array), "length")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, s0={self.s0})"


class EntropyVector(_ExactVector):
    """Per-input conditional output entropies of P(n, s0), exact in bits.

    ``array`` holds h * 2**n, integers in [0, n 2**n]; ``entries`` is h as
    a list of Dyadics.
    """

    def __init__(self, n: int, s0: int, scaled) -> None:
        super().__init__(n, scaled)
        self.s0 = config.check_state(s0)
        if self.array[-self.s0] != 0:  # the all-s0 input: first entry or last
            raise ValueError("the all-s0 input must have zero conditional entropy")
        if self.array.min() < 0 or self.array.max() > n << n:
            raise ValueError("entries must lie in [0, n]")

    @property
    def entries(self) -> list[Dyadic]:
        return [Dyadic(v, self.n) for v in self.array.tolist()]


class OmegaVector(_ExactVector):
    """Weight vector -P^-1 h; entries are even non-positive integers.

    ``array`` holds w; ``entries`` is w as a list of Python ints.
    """

    def __init__(self, n: int, s0: int, entries) -> None:
        super().__init__(n, entries)
        a = self.array
        if a.max() > 0 or np.bitwise_or.reduce(a) & 1:
            raise ValueError("entries must be even and non-positive")
        self.s0 = config.check_state(s0)
        if a[-self.s0] != 0:  # the all-s0 input: first entry or last
            raise ValueError("the all-s0 input must carry weight 0")
        if n % 2 == 0 and not np.array_equal(a, a[::-1]):
            raise ValueError("even-length weight vectors must be palindromic")

    @property
    def entries(self) -> list[int]:
        return self.array.tolist()


@dataclass(frozen=True)
class BoundResult:
    """Exact bound data for one block length.

    d holds the pre-normalized optimizer of the relaxed problem (d / S is the
    optimum), or None when upper_bound skips it; negative_d_indices reads its signs.
    """

    n: int
    s0: int
    S: Dyadic
    c_up: float
    d: list[Dyadic] | None = None

    def negative_d_indices(self) -> list[int]:
        """1-based indices i with d_i < 0, read from the numerators (empty when d is unavailable)."""
        if self.d is None:
            return []
        return [i + 1 for i, v in enumerate(self.d) if v.num < 0]


# -- conditional entropy vectors ---------------------------------------------

_VECTOR_COST = "the vector has 2**{n} entries; closed_form(n) needs no cap"


def entropy_vector_direct(P: ChannelMatrix) -> EntropyVector:
    """h from the definition: row-wise -sum p*log2(p) with 0*log(0) = 0.

    Every non-zero entry of a channel matrix is 2**-m and contributes
    m * 2**-m, so the sum is exact.
    """
    # each term m 2**-m is at most 1/2, so m * entry stays in the entries' dtype
    nums = np.concatenate([(v * m).sum(axis=1, dtype=np.int64) for v, m in P.halvings()])
    # a ChannelMatrix may carry a finer scale than 2**n
    shift = P.data.exp - P.n
    scaled = nums << -shift if shift < 0 else shift_down(nums, shift)
    if scaled is None:
        raise ValueError(f"an entropy is not a multiple of 2**-{P.n}")
    return EntropyVector(P.n, P.s0, scaled)


def entropy_vector_recursive_step(n: int) -> EntropyVector:
    """h(n, 0) by the one-step block recursion h -> [h, h/2 + rev(h)/2 + 1].

    On H = h * 2**k the step reads H -> [2H, H + rev(H) + 2**(k+1)].  Each
    level writes its new block into the final array, then doubles H in place.
    """
    n = config.check_cap(n, config.BOUND_CAP_ENV, _VECTOR_COST)
    out = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        m = 1 << k
        h, new = out[:m], out[m : 2 * m]
        np.add(h, h[::-1], out=new)
        new += 2 << k
        h <<= 1
    return EntropyVector(n, 0, out)


def entropy_vector_recursive_even(n: int) -> EntropyVector:
    """h(n, 0) for even n by the four-block recursion.

    One double step maps h to
        [h, h/2 + r/2 + 1, 3h/4 + r/4 + 3/2, h/4 + 3r/4 + 3/2]
    with r the reversal of h.  The 3/2 constants are pinned by the direct
    definition at n = 2 (fourth entry 3/2).  On H = h * 2**k and
    R = r * 2**k it reads
        [4H, 2H + 2R + 4 * 2**k, 3H + R + 6 * 2**k, H + 3R + 6 * 2**k],
    the three new blocks written into the final array before H is scaled.
    """
    n = config.check_cap(n, config.BOUND_CAP_ENV, _VECTOR_COST)
    if n % 2:
        raise ValueError("the four-block recursion covers even lengths only")
    out = np.zeros(1 << n, dtype=np.int64)
    for k in range(0, n, 2):
        m = 1 << k
        h, b1, b2, b3 = (out[i * m : (i + 1) * m] for i in range(4))
        np.add(h, h[::-1], out=b1)
        b1 <<= 1
        b1 += 4 << k
        np.multiply(h, 3, out=b2)
        b2 += h[::-1]
        b2 += 6 << k
        np.copyto(b3, b2[::-1])  # H + 3R is 3H + R reversed
        h <<= 2
    return EntropyVector(n, 0, out)


def entropy_state1(n: int) -> EntropyVector:
    """h(n, 1), the reversal of h(n, 0)."""
    return EntropyVector(n, 1, entropy_vector_recursive_step(n).array[::-1])


# -- weight vectors -----------------------------------------------------------


def _check_inverse(inverse: DyadicMatrix, n: int) -> DyadicMatrix:
    """inverse, once its dimension is checked to be 2**n."""
    if inverse.dim != 1 << n:
        raise ValueError(f"the inverse has dimension {inverse.dim}, expected 2**{n} = {1 << n}")
    return inverse


def omega_direct(
    P: ChannelMatrix,
    h: EntropyVector,
    inverse: DyadicMatrix | None = None,
) -> OmegaVector:
    """w = -P^-1 h evaluated exactly; asserts integrality of every entry.

    A precomputed inverse may be passed to avoid repeating the inversion.
    """
    if (P.n, P.s0) != (h.n, h.s0):
        raise ValueError("channel matrix and entropy vector disagree on (n, s0)")
    inv = invert_channel_matrix(P) if inverse is None else _check_inverse(inverse, P.n)
    w = shift_down(exact_product(inv.array, h.array[:, None])[:, 0], h.n + inv.exp)
    if w is None:
        raise AssertionError("a weight entry is not an integer")
    return OmegaVector(P.n, P.s0, -w)


def omega_recursive(n: int) -> OmegaVector:
    """w(n, 0) by the block recursions, no matrices involved.

    Even lengths double as [w, w - 2, w - 2, w] from w(0) = [0]; odd lengths
    double as [w, rev(w), w - 2, rev(w) - 2] from w(1) = [0, -2], each level
    written into the final array after w.
    """
    n = config.check_cap(n, config.BOUND_CAP_ENV, _VECTOR_COST)
    out = np.empty(1 << n, dtype=np.int64)
    m = 1 + n % 2  # the length of w(0) or w(1)
    out[:m] = [0, -2][:m]
    for _ in range(n // 2):
        w, b1, b2, b3 = (out[i * m : (i + 1) * m] for i in range(4))
        if n % 2 == 0:
            np.subtract(w, 2, out=b1)
            np.copyto(b2, b1)
            np.copyto(b3, w)
        else:
            np.copyto(b1, w[::-1])
            np.subtract(w, 2, out=b2)
            np.subtract(b1, 2, out=b3)
        m *= 4
    return OmegaVector(n, 0, out)


def omega_state1(n: int) -> OmegaVector:
    """w(n, 1) = reversal of w(n, 0)."""
    return OmegaVector(n, 1, omega_recursive(n).array[::-1])


# -- bound evaluation ---------------------------------------------------------


def exp2_sum(w: Sequence[int] | np.ndarray) -> Dyadic:
    """Exact sum of 2**w_i for integer weights within int64.

    The weights are grouped by distinct value over a copy in the narrowest
    dtype that holds them.  Raises ValueError for entries that are not
    integers within int64, as the vectors do.
    """
    w = _int64_entries(w)
    values, counts = np.unique(w.astype(dtype_for(max_abs(w))), return_counts=True)
    emax = -int(values.min(initial=0))  # positive weights need no scale
    return Dyadic(sum(c << (emax + v) for v, c in zip(values.tolist(), counts.tolist())), emax)


def _log2_dyadic(S: Dyadic) -> float:
    if S.num <= 0:
        raise ValueError("log2 of a non-positive value")
    return math.log2(S.num) - S.exp


def upper_bound(n: int, s0: int = 0, include_d: bool = True) -> BoundResult:
    """Bound for block length n: exact S = sum 2**w_i and c_up = log2(S)/n.

    The weight vector comes from the block recursions and d from d_vector,
    which builds no matrix, so this works up to the bound cap.  Pass
    include_d=False to skip d, whose O(n**2 2**n) cost dominates past
    n = 15 (seconds at n = 18 to 20).
    """
    n = config.check_per_letter(n)
    s0 = config.check_state(s0)
    w = omega_recursive(n) if s0 == 0 else omega_state1(n)
    S = exp2_sum(w.array)
    c_up = _log2_dyadic(S) / n
    d = d_vector(n, s0) if include_d else None
    return BoundResult(n=n, s0=s0, S=S, c_up=c_up, d=d)


def closed_form_S(n: int) -> Dyadic:
    """Exact S for any block length: (5/2)**(n/2) for even n, (5/4)(5/2)**((n-1)/2) odd."""
    n = config.check_per_letter(n)
    if n % 2 == 0:
        m = n // 2
        return Dyadic(5**m, m)
    m = (n + 1) // 2
    return Dyadic(5**m, m + 1)


def closed_form(n: int) -> float:
    """The bound as a float for any n: log2(5/2)/2 at even lengths, and
    (log2(5/4) + (m-1) log2(5/2)) / (2m-1) at odd lengths."""
    n = config.check_per_letter(n)
    if n % 2 == 0:
        return math.log2(2.5) / 2
    m = (n + 1) // 2
    return (math.log2(1.25) + (m - 1) * math.log2(2.5)) / n


def d_vector(n: int, s0: int = 0, inverse: DyadicMatrix | None = None) -> list[Dyadic]:
    """Pre-normalized relaxed optimizer d = (P^-1)^T 2**w, exact.

    Sums to S, so d / S sums to one.  Negative entries flag that the relaxed
    optimum is not a probability distribution.  Computed without a matrix by
    channel.times_inverse; a given dense inverse is used instead, as a cross-check.
    """
    s0 = config.check_state(s0)
    w = omega_recursive(n) if s0 == 0 else omega_state1(n)
    top = -int(w.array.min())
    x = w.array + top
    np.left_shift(1, x, out=x)  # 2**w scaled to integers by 2**top
    if inverse is None:
        return [Dyadic(v, top) for v in times_inverse(x, s0).tolist()]
    nums = exact_product(_check_inverse(inverse, n).array.T, x[:, None])[:, 0]
    return [Dyadic(v, top + inverse.exp) for v in nums.tolist()]


def constraint_check(
    n: int, s0: int, p: Sequence, P: ChannelMatrix | None = None
) -> bool:
    """True iff every output mass (P^T p)_j is non-negative.

    p follows config's probability-vector rule, with any sign and sum.  The
    test is exact and integer-only: the sign of each entry of p_int @
    P.data.array decides, p_int being p times the lcm of its denominators.
    """
    s0 = config.check_state(s0)
    if P is None:
        P = build_channel_matrix(n, s0)
    elif (P.n, P.s0) != (n, s0):
        raise ValueError(f"channel matrix is P({P.n}, {P.s0}), expected P({n}, {s0})")
    p_int, _ = config.exact_probabilities(p, P.dim)
    return bool((exact_product(p_int[None, :], P.data.array) >= 0).all())


def golden_ratio_reference() -> float:
    """log2 of the golden ratio, the feedback-capacity constant, for display."""
    return math.log2((1 + math.sqrt(5)) / 2)


ZERO_ERROR_RATE = 0.5
