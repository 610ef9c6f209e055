"""Simplex-constrained mutual-information maximization (Blahut-Arimoto).

The relaxed upper bound from the bounds module is attained outside the
probability simplex for block lengths >= 2, so the true n-letter maximum
over actual distributions is strictly smaller there.  This module certifies
that numerically: Blahut-Arimoto produces, at every iteration, a certified
bracket [sum_i p_i D_i, max_i D_i] around the capacity (D_i is the KL
divergence in bits between channel row i and the current output
distribution), so "BA result <= bound" checks are rigorous up to float
error.  Everything here is double precision on purpose; exactness lives in
the other modules.

The loop takes the over-relaxed step p_i * 2**(2 (D_i - max D)) (the
natural-gradient BA of Matz and Duhamel, ITW 2004), in about half the plain
step's iterations.  A monotone safeguard keeps it safe: a relaxed iterate
that does not strictly raise the lower end, or that leaves an output dead
which was live, is dropped for the plain step from the iterate before it,
and the relaxed step is taken only while max D is below 26 bits, so that it
sends no mass of normal size to 0.  The bracket holds for every
distribution p, whichever step produced it, so the certificate is unchanged.

The comparisons are per block: repeated use of the channel over many blocks
couples consecutive blocks through the final state, which is out of scope
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import config
from .bounds import closed_form, entropy_vector_direct
from .channel import ChannelMatrix, build_channel_matrix
from .matrices import exact_product


# the relaxed step is taken only from an iterate whose max D is below this
# many bits; as every D_i >= 0, its factors 2**(2 (D_i - max D)) are then at
# least 2**-52, so no mass of at least 2**-1022 (the smallest normal double)
# underflows to 0 in one step.  From the uniform start max D <= 2 n bits, so
# the rule only acts on starts with tiny masses, far from the optimum.
_RELAX_BELOW = 26.0


class ConvergenceError(RuntimeError):
    """Blahut-Arimoto did not reach the requested bracket width."""


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    """Result of one Blahut-Arimoto run; capacities are bits per letter."""

    n: int
    s0: int
    capacity_per_letter: float
    iterations: int
    final_gap: float
    distribution: np.ndarray = field(repr=False)
    tol: float = field(default=1e-10)
    history: list[tuple[float, float]] | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.final_gap <= self.tol


def _float_matrix(P: ChannelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(W, wlogw): the channel as floats and its row sums of W_ij log2 W_ij.

    wlogw is -h from entropy_vector_direct (a matrix it rejects raises
    ValueError).  Both are exact in double precision: entries are 0 or powers
    of two, and each h * 2**n is a small integer.  ``0.0 -`` keeps +0.0 for the all-s0 row.
    W starts on a 64-byte boundary: otherwise the speed of the matrix-vector
    products depends on where the allocator put it (BA at n = 7 took 25 to
    32 ms by its address mod 64).
    """
    wlogw = 0.0 - entropy_vector_direct(P).array * 2.0**-P.n
    size = P.dim * P.dim
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    W = raw[start : start + size].reshape(P.dim, P.dim)
    np.multiply(P.data.array, 2.0**-P.data.exp, out=W)
    return W, wlogw


def _divergences(W: np.ndarray, wlogw: np.ndarray, logq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """D_i = sum_j W_ij log2(W_ij / q_j) = wlogw_i - (W log2 q)_i in bits, written into out.

    logq is log2 q for the output distribution q = p W.  A caller that reads
    log2 q_j as 0 at a dead output (q_j == 0) keeps every D_i finite: exact
    for a row that reaches no dead output, and below the true divergence for
    one that does (+inf, or merely huge when q_j underflowed: 5e-324 * 0.25 == 0).
    """
    return np.subtract(wlogw, np.matmul(W, logq, out=out), out=out)


def _masked_step(
    W: np.ndarray,
    wlogw: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    logq: np.ndarray,
    alphabet: np.ndarray | None,
    D: np.ndarray,
) -> tuple[float, float]:
    """(lower, upper) for one BA iteration that has a dead output or a restricted alphabet.

    q is p W, logq its log2 and D their divergences.  D is recomputed with
    log2 q_j = 0 at a dead output, so the lower end p . D counts a row that
    reaches one below its true share and stays a lower bound.  The upper end
    is the max over the alphabet (all inputs when alphabet is None) with
    D_i = +inf for such a row, so a bracket that misses a dead output is never
    certified.  D is left holding the update exponents: D_i minus its max
    over the support of p, and -inf off it.
    """
    dead = q == 0.0
    if dead.any():
        logq[dead] = 0.0
        _divergences(W, wlogw, logq, D)
    lower = float(p @ D)
    top = np.where(W[:, dead].any(axis=1), np.inf, D)
    upper = float(top.max() if alphabet is None else top[alphabet].max())
    support = p > 0.0
    D -= D[support].max()
    D[~support] = -np.inf
    return lower, upper


def mutual_information(P: ChannelMatrix, p: Sequence[float]) -> float:
    """(1/n) I(X^n; Y^n) in bits per letter for input distribution p.

    Zero-probability inputs and zero channel entries contribute nothing.
    """
    config.check_per_letter(P.n)
    arr = config.probabilities(p, P.dim)
    W, wlogw = _float_matrix(P)
    q = arr @ W
    D = _divergences(W, wlogw, np.log2(np.where(q > 0.0, q, 1.0)), np.empty(P.dim))
    support = arr > 0.0
    return float(arr[support] @ D[support]) / P.n


def mutual_information_exact(P: ChannelMatrix, p: Sequence) -> Fraction:
    """Exact per-letter mutual information for rational p.

    Only defined when every likelihood ratio P_ij / q_j is a power of two
    (then each log2 is an integer and the sum is rational); raises ValueError
    otherwise.  The disjoint-support zero-error input [1/2, 0, 0, 1/2] on the
    n=2 channel is the motivating case, where the result is exactly 1/2.
    """
    config.check_per_letter(P.n)
    p_arr, scale = config.exact_probabilities(p, P.dim)
    p_int = p_arr.tolist()
    if sum(p_int) != scale:
        raise ValueError("distribution must sum to exactly 1")
    if min(p_int) < 0:
        raise ValueError("distribution has a negative entry")
    # q_j = q_int[j] / (scale * 2**exp), so the likelihood ratio P_ij / q_j
    # is a[i, j] * scale / q_int[j]
    a = P.data.array
    q_int = exact_product(p_arr[None, :], a)[0].tolist()
    total = 0
    for i, pi in enumerate(p_int):
        if not pi:
            continue
        cols = np.flatnonzero(a[i])
        for j, v in zip(cols.tolist(), a[i, cols].tolist()):
            ratio = Fraction(v * scale, q_int[j])
            num, den = ratio.numerator, ratio.denominator
            if num & (num - 1) or den & (den - 1):
                raise ValueError(
                    f"likelihood ratio {ratio} is not a power of two; "
                    "use mutual_information for float evaluation"
                )
            total += pi * v * (num.bit_length() - den.bit_length())
    return Fraction(total, (scale << P.data.exp) * P.n)


def blahut_arimoto(
    P: ChannelMatrix,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    init: Sequence[float] | None = None,
    track_history: bool = False,
) -> OptimizationReport:
    """Maximize per-letter mutual information over the simplex.

    tol is the per-letter width of the capacity bracket.  Non-convergence is
    not an exception: the report carries the achieved bracket and
    report.converged is False.  The input alphabet is the set of inputs
    positive in init: all of them for the default uniform init.  Inputs that
    start at exactly zero stay at zero, and the bracket then certifies the
    capacity of the restricted alphabet.  The upper end is the max of D_i
    over the alphabet, read as +inf for a row that reaches an output whose
    float mass is 0 (which a positive but subnormal init entry can produce),
    so such a run ends unconverged rather than at a wrong value.

    From an accepted iterate p with exponents E = D - max D the loop takes
    the over-relaxed step p * 2**(2 E), normalized.  That iterate is accepted
    only if it strictly raises the lower end and leaves no output dead
    (q_j == 0) that was live at p; otherwise p and E come back from the
    second buffer and the plain step p * 2**E is taken instead, which is
    always accepted.  The relaxed step is taken only while max D is below
    _RELAX_BELOW bits, so it underflows no normal mass.  iterations counts
    every evaluation, rejected ones included; history, the stopping rule and
    the report see accepted iterates only.  Each iterate's [I(p), max D]
    brackets the capacity whatever step produced p, so the certificate is
    that of plain BA.

    Each iteration works in buffers allocated once.  Only an iteration with
    a dead output (log2 0 = -inf makes max D non-finite), or a restricted
    alphabet, takes the masked step.
    """
    config.check_per_letter(P.n)
    if not tol > 0:  # NaN included
        raise ValueError("tolerance must be positive")
    if config.integer(max_iter, "max_iter") < 1:
        raise ValueError("need at least one iteration")
    W, wlogw = _float_matrix(P)
    dim = P.dim
    p = np.full(dim, 1.0 / dim) if init is None else config.probabilities(init, dim)
    alphabet = None if p.all() else p > 0.0
    # the accepted iterate's p, exponents and q wait in the second buffers
    # while the relaxed step's iterate is evaluated
    p_prev, D, E = np.empty(dim), np.empty(dim), np.empty(dim)
    q, q_prev = np.empty(W.shape[1]), np.empty(W.shape[1])
    logq = np.empty_like(q)
    history: list[tuple[float, float]] | None = [] if track_history else None
    lower = float("-inf")
    relaxed = False
    it = 0
    gap = float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):  # log2 0 and 0 * -inf on a dead output
        for it in range(1, max_iter + 1):
            np.matmul(p, W, out=q)
            np.log2(q, out=logq)
            _divergences(W, wlogw, logq, D)
            top = float(D.max())
            killed = False  # a finite max D means no output is dead
            if alphabet is None and math.isfinite(top):
                low = float(p.dot(D))
                D -= top
            else:
                low, top = _masked_step(W, wlogw, p, q, logq, alphabet, D)
                killed = relaxed and bool(np.any((q == 0.0) & (q_prev > 0.0)))
            if relaxed and (killed or not low > lower):
                p, p_prev = p_prev, p
                relaxed = False
            else:
                lower = low
                if history is not None:
                    history.append((low / P.n, top / P.n))
                gap = (top - low) / P.n
                if gap <= tol:
                    break
                D, E = E, D
                q, q_prev = q_prev, q
                relaxed = top < _RELAX_BELOW
            np.multiply(E, 2.0 if relaxed else 1.0, out=D)  # D is free: swapped out or rejected
            np.exp2(D, out=D)
            np.multiply(p, D, out=p_prev)
            p_prev /= p_prev.sum()
            p, p_prev = p_prev, p
        else:
            p = p_prev  # max_iter reached: report the last accepted iterate
    return OptimizationReport(
        n=P.n,
        s0=P.s0,
        capacity_per_letter=lower / P.n,
        iterations=it,
        final_gap=gap,
        distribution=p,
        tol=tol,
        history=history,
    )


def verify_bound(
    n: int, s0: int = 0, tol: float = 1e-8, max_iter: int = 200_000
) -> tuple[bool, OptimizationReport]:
    """Check that the simplex capacity at block length n stays below the bound.

    Returns (ok, report) where ok means BA capacity <= closed_form(n) + tol.
    Raises ConvergenceError if the bracket does not reach tol.
    """
    P = build_channel_matrix(n, s0)
    report = blahut_arimoto(P, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise ConvergenceError(
            f"bracket {report.final_gap:.3e} > tol {tol:.3e} "
            f"after {report.iterations} iterations (n={n}, s0={s0})"
        )
    ok = report.capacity_per_letter <= closed_form(n) + tol
    return ok, report
