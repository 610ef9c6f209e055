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
    """
    wlogw = 0.0 - entropy_vector_direct(P).array * 2.0**-P.n
    return P.data.array * 2.0**-P.data.exp, wlogw


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
    q = np.empty(W.shape[1])
    logq = np.empty_like(q)
    D = np.empty(dim)
    history: list[tuple[float, float]] | None = [] if track_history else None
    lower = upper = float("nan")
    it = 0
    gap = float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):  # log2 0 and 0 * -inf on a dead output
        for it in range(1, max_iter + 1):
            np.matmul(p, W, out=q)
            np.log2(q, out=logq)
            _divergences(W, wlogw, logq, D)
            upper = float(D.max())
            if alphabet is None and math.isfinite(upper):
                lower = float(p.dot(D))
                D -= upper
            else:
                lower, upper = _masked_step(W, wlogw, p, q, logq, alphabet, D)
            if history is not None:
                history.append((lower / P.n, upper / P.n))
            gap = (upper - lower) / P.n
            if gap <= tol:
                break
            np.exp2(D, out=D)
            p *= D
            p /= p.sum()
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
