"""One-shot verification suite: every cross-module identity, with named checks.

Each check returns quietly or raises AssertionError with a description; the
runner collects (name, ok, detail) tuples for the CLI, and also records a
ConvergenceError, ArithmeticError or ValueError raised inside a check as a
failed check that carries the message.  A max_n out of range is a usage
error: run_checks raises ValueError before any check runs.  The suite
covers the recursion-vs-definition oracles, the exact inverses (computed by
trapdoor.channel without any matrix product, so checked here by exact
products: P P^-1 = I and the paper's one-step block formula), the exchange
symmetries, the exact bound identities, the enumeration/matrix
cross-check, the fractal equivalences, the pre-normalized optimizer closed
forms, and the numerical simplex certification.

The second-to-last optimizer entry follows the closed form -3*2**(n-3) at
even lengths; at odd lengths >= 3 the exact value is -3*2**(n-5) (the block
recursion puts weights (-4, -2) at the tail instead of (-2, 0)).  Both are
asserted here, and the entry is negative for every n >= 2 either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import bounds, config, enumeration, fractal, optimize
from .channel import (
    ChannelMatrix,
    channel_pair,
    disjoint_support_check,
    exchange_conjugate,
    invert_channel_matrix,
)
from .dyadic import Dyadic
from .matrices import DyadicMatrix


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


class _Context:
    """Shared lazily-built matrices and inverses for one verification run."""

    def __init__(self, max_n: int) -> None:
        self.max_n = max_n
        self._pairs: dict[int, tuple[ChannelMatrix, ChannelMatrix]] = {}
        self._inverses: dict[int, DyadicMatrix] = {}

    def pair(self, n: int) -> tuple[ChannelMatrix, ChannelMatrix]:
        if n not in self._pairs:
            self._pairs[n] = channel_pair(n)
        return self._pairs[n]

    def matrix(self, n: int, s0: int) -> ChannelMatrix:
        return self.pair(n)[s0]

    def inverse(self, n: int, s0: int) -> DyadicMatrix:
        """P(n, s0)^-1; state 1's is the exchange view of the cached state-0 inverse."""
        if n not in self._inverses:
            self._inverses[n] = invert_channel_matrix(self.matrix(n, 0))
        return exchange_conjugate(self._inverses[n]) if s0 else self._inverses[n]


def _check_stochastic(ctx: _Context) -> str:
    for n in range(ctx.max_n + 1):
        for s0 in (0, 1):
            P = ctx.matrix(n, s0)
            P.validate()  # so every entry is 0 or a power of two
            assert P.data.array.max() <= 1 << P.n, "entry exponent out of range"
    return f"rows sum to 1, entries in {{0, 2^-j (j <= n)}}, n <= {ctx.max_n}"


def _check_inverse_identity(ctx: _Context) -> str:
    for n in range(ctx.max_n + 1):
        for s0 in (0, 1):
            P = ctx.matrix(n, s0)
            inv = ctx.inverse(n, s0)
            assert P.data.product_is_identity(inv), f"P*inv != I at n={n}, s0={s0}"
    return f"P @ P^-1 == I exactly, n <= {ctx.max_n}"


def _check_inverse_row_sums(ctx: _Context) -> str:
    for n in range(ctx.max_n + 1):
        for s0 in (0, 1):
            assert ctx.inverse(n, s0).rows_sum_to_one(), f"inverse row sums differ from 1 at n={n}"
    return f"inverse row sums are exactly 1, n <= {ctx.max_n}"


def _check_inverse_blocks(ctx: _Context) -> str:
    # the inverse comes from a product-free recursion, so it is checked against
    # the paper's one-step formula [[A, 0], [-A P(n-1,1) A, 2A]], A = P(n-1,0)^-1
    for n in range(1, ctx.max_n + 1):
        inv, A, h = ctx.inverse(n, 0), ctx.inverse(n - 1, 0), 1 << (n - 1)
        a, e = inv.array, inv.exp
        assert DyadicMatrix(a[:h, :h], e) == A, f"P(n,0)^-1 block (0, 0) differs from A at n={n}"
        assert not a[:h, h:].any(), f"P(n,0)^-1 block (0, 1) is not zero at n={n}"
        assert DyadicMatrix(a[h:, h:], e + 1) == A, f"P(n,0)^-1 block (1, 1) differs from 2A at n={n}"
        # -A P(n-1,1) A, compared row block by row block without holding it
        corner = DyadicMatrix(-a[h:, :h], e)
        assert (A @ ctx.matrix(n - 1, 1).data).product_equals(A, corner), (
            f"P(n,0)^-1 block (1, 0) differs from -A P(n-1,1) A at n={n}"
        )
    return (
        f"P(n,0)^-1 equals [[A, 0], [-A P(n-1,1) A, 2A]], A = P(n-1,0)^-1, "
        f"block by block, n <= {ctx.max_n}"
    )


def _check_exchange_symmetry(ctx: _Context) -> str:
    # P(n,1) is built as J P(n,0) J, so it is checked against the paper's own
    # state-1 recursion [[P(n-1,1)/2, P(n-1,0)/2], [0, P(n-1,1)]], block by block
    assert ctx.matrix(0, 1).data.is_identity(), "P(0,1) differs from [1] at n=0"
    for n in range(1, ctx.max_n + 1):
        Q0, Q1 = (Q.data for Q in ctx.pair(n - 1))
        P1, h = ctx.matrix(n, 1).data, 1 << (n - 1)
        zero = DyadicMatrix(np.zeros((h, h), dtype=np.int16))
        for i, row in enumerate([[(Q1, 1), (Q0, 1)], [(zero, 0), (Q1, 0)]]):
            for j, (Q, halvings) in enumerate(row):
                block = DyadicMatrix(P1.array[i * h : (i + 1) * h, j * h : (j + 1) * h], P1.exp)
                assert block == DyadicMatrix(Q.array, Q.exp + halvings), (
                    f"P(n,1) block ({i}, {j}) differs from the state-1 recursion at n={n}"
                )
    return f"P(n,1) equals [[P(n-1,1)/2, P(n-1,0)/2], [0, P(n-1,1)]] block by block, n <= {ctx.max_n}"


def _check_entropy_recursions(ctx: _Context) -> str:
    for n in range(ctx.max_n + 1):
        direct0 = bounds.entropy_vector_direct(ctx.matrix(n, 0))
        step = bounds.entropy_vector_recursive_step(n)
        assert np.array_equal(step.array, direct0.array), f"one-step h recursion differs at n={n}"
        if n % 2 == 0:
            even = bounds.entropy_vector_recursive_even(n)
            assert np.array_equal(even.array, direct0.array), f"even h recursion differs at n={n}"
        direct1 = bounds.entropy_vector_direct(ctx.matrix(n, 1))
        assert np.array_equal(direct1.array, direct0.array[::-1]), (
            f"h reversal symmetry fails at n={n}"
        )
    return f"h recursions match the definition; h(n,1) is h(n,0) reversed, n <= {ctx.max_n}"


def _check_omega_recursions(ctx: _Context) -> str:
    for n in range(ctx.max_n + 1):
        w = bounds.omega_recursive(n)
        for s0 in (0, 1):
            P = ctx.matrix(n, s0)
            h = bounds.entropy_vector_direct(P)
            direct = bounds.omega_direct(P, h, inverse=ctx.inverse(n, s0))
            expect = w.array if s0 == 0 else w.array[::-1]
            assert np.array_equal(direct.array, expect), f"omega differs at n={n}, s0={s0}"
    return f"omega recursion equals -P^-1 h for both states, n <= {ctx.max_n}"


def _check_state_coupling_identity(ctx: _Context) -> str:
    # P(2n,1) P(2n,0)^-1 h(2n,0) == reversal of h(2n,0)
    ns = range(0, min(ctx.max_n, 8) + 1, 2)
    for n in ns:
        P1 = ctx.matrix(n, 1)
        h0 = bounds.entropy_vector_direct(ctx.matrix(n, 0)).entries
        lhs = P1.data.matvec(ctx.inverse(n, 0).matvec(h0))
        assert lhs == h0[::-1], f"coupling identity fails at n={n}"
    return f"P(2n,1) P(2n,0)^-1 h equals reversed h, even n <= {ns[-1]}"


def _check_bound_identities(ctx: _Context) -> str:
    top = min(20, config.cap(config.BOUND_CAP_ENV))  # the weight vectors have 2^n entries
    prev = 0.0
    for n in range(1, top + 1):
        b = bounds.upper_bound(n, include_d=False)  # this check reads S and c_up only
        assert b.S == bounds.closed_form_S(n), f"sum 2^w differs from the closed form at n={n}"
        assert abs(b.c_up - bounds.closed_form(n)) < 1e-14, f"c_up differs from the closed form at n={n}"
        if n % 2:
            c_odd = bounds.closed_form(n)
            assert prev < c_odd < bounds.closed_form(2), "odd bounds must increase toward the even value"
            prev = c_odd
    return f"sum 2^w equals (5/2)^m even / (5/4)(5/2)^(m-1) odd, n <= {top}; bounds match closed form"


def _check_d_vector(ctx: _Context) -> str:
    d1 = bounds.d_vector(1, 0, inverse=ctx.inverse(1, 0))
    assert d1 == bounds.d_vector(1, 0), "matrix-free d differs from the dense product at n=1"
    assert d1 == [Dyadic(3, 2), Dyadic(1, 1)], "n=1 optimizer should be [3/4, 1/2]"
    S1 = bounds.closed_form_S(1).as_fraction()
    assert [v.as_fraction() / S1 for v in d1] == [
        Fraction(3, 5),
        Fraction(2, 5),
    ], "n=1 relaxed optimum should be [3/5, 2/5]"
    ns = range(2, ctx.max_n + 1)
    for n in ns:
        d = bounds.d_vector(n, 0, inverse=ctx.inverse(n, 0))
        assert d == bounds.d_vector(n, 0), f"matrix-free d differs from the dense product at n={n}"
        S = bounds.closed_form_S(n)
        assert sum(d, Dyadic(0)) == S, f"sum of d differs from S at n={n}"
        second_last = d[-2]
        assert second_last < 0, f"d[2^n-1] should be negative at n={n}"
        if n % 2 == 0:
            assert second_last == Dyadic(-3, 0).shift(n - 3), (
                f"even-length closed form -3*2^(n-3) fails at n={n}"
            )
        else:
            assert second_last == Dyadic(-3, 0).shift(n - 5), (
                f"odd-length value -3*2^(n-5) fails at n={n}"
            )
    n1, forms = "n=1 optimum [3/5, 2/5] on the simplex", "(-3*2^(n-3) even, -3*2^(n-5) odd)"
    return f"sum d == S and d[2^n-1] < 0 for {ns[0]} <= n <= {ns[-1]} {forms}; {n1}" if ns else n1


def _check_enumeration(ctx: _Context) -> str:
    top = min(ctx.max_n, 8)
    for n in range(1, top + 1):
        for s0 in (0, 1):
            P = ctx.matrix(n, s0).data
            # every input of length n at once, from the chunk table, as 2^n P
            table, scaled = enumeration.enumerate_all(n, s0), P.with_exp(n).array
            if not np.array_equal(table, scaled):
                x = int((table != scaled).any(axis=1).argmax())
                raise AssertionError(f"row mismatch at n={n}, s0={s0}, x={x:0{n}b}")
            if n > 5:
                continue
            # and generate_outputs itself, one input at a time
            for i, want in enumerate(P.array.tolist()):
                bits = format(i, f"0{n}b")
                # likelihoods as integers at P's scale; None: finer than it, equal to no entry
                row = [0] * len(want)
                for y, p in enumeration.generate_outputs(bits, s0).outputs.items():
                    row[int(y, 2)] = p.num << (P.exp - p.exp) if p.exp <= P.exp else None
                assert row == want, f"row mismatch at n={n}, s0={s0}, x={bits}"
    dist = enumeration.generate_outputs("101", 0)
    assert "110" not in dist.outputs, "output 110 must be infeasible for input 101"
    assert enumeration.feasibility("101", "110", 0) == 0
    assert disjoint_support_check(ctx.matrix(2, 0), "00", "11")
    return f"enumeration rows equal matrix rows exhaustively, n <= {top}; causality spot checks"


def _check_fractal(ctx: _Context) -> str:
    for s0 in (0, 1):
        ifs = fractal.trapdoor_ifs(s0)
        grid = fractal.unit_grid()
        for k in range(1, ctx.max_n + 1):
            grid = fractal.ifs_iterate(ifs, grid, 1)
            rep = fractal.rho_representation(ctx.matrix(k, s0))
            assert grid == rep, f"IFS iterate differs from embedding at k={k}, s0={s0}"
            assert grid.nonzero_count() == 3**k
    for k in range(ctx.max_n + 1):
        g0 = fractal.rho_representation(ctx.matrix(k, 0))
        assert fractal.tau_transform(g0) == fractal.rho_representation(ctx.matrix(k, 1))
    s_grid = fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), min(ctx.max_n, 8))
    assert s_grid.nonzero_count() == 3**s_grid.resolution
    a = fractal.render_pgm(s_grid, "binary")
    b = fractal.render_pgm(s_grid, "binary")
    assert a == b, "rendering must be deterministic"
    return (
        f"IFS iterates equal matrix embeddings cell-for-cell, k <= {ctx.max_n}; "
        "rotation swaps states; Sierpinski count 3^k; rendering deterministic"
    )


def _check_simplex_certification(ctx: _Context) -> str:
    tol = 1e-8
    details = []
    for n in [n for n in (1, 2, 4) if n <= ctx.max_n]:
        ok, report = optimize.verify_bound(n, 0, tol=tol)
        assert ok, f"BA capacity exceeds the bound at n={n}"
        assert bounds.constraint_check(n, 0, report.distribution, P=ctx.matrix(n, 0))
        details.append(f"n={n}: {report.capacity_per_letter:.6f}")
    r1 = optimize.blahut_arimoto(ctx.matrix(1, 0), tol=1e-10)
    assert abs(r1.capacity_per_letter - bounds.closed_form(1)) < 1e-6, (
        "n=1 bound should be attained on the simplex"
    )
    if not details:  # max n 0: the n = 1 run above is the only one
        return f"n=1: {r1.capacity_per_letter:.6f} attains the bound within 1e-6"
    return "; ".join(details) + f" all <= bound + {tol}"


def _check_reference_constants(ctx: _Context) -> str:
    exact = optimize.mutual_information_exact(
        ctx.matrix(2, 0), [Dyadic(1, 1), Dyadic(0), Dyadic(0), Dyadic(1, 1)]
    )
    assert exact == Fraction(1, 2), "disjoint-pair rate should be exactly 1/2"
    assert optimize.mutual_information(ctx.matrix(2, 0), [0.5, 0.0, 0.0, 0.5]) == 0.5
    golden = bounds.golden_ratio_reference()
    assert bounds.closed_form(2) < golden, "bound must stay below the feedback constant"
    assert golden > 0.5, "feedback constant must exceed the zero-error rate"
    return "zero-error input achieves exactly 1/2 b/u; bound 0.660964 < feedback 0.694242"


CHECKS: list[tuple[str, Callable[[_Context], str]]] = [
    ("channel matrices stochastic", _check_stochastic),
    ("exact inverses", _check_inverse_identity),
    ("inverse row sums", _check_inverse_row_sums),
    ("one-step inverse blocks", _check_inverse_blocks),
    ("exchange symmetry", _check_exchange_symmetry),
    ("entropy recursions", _check_entropy_recursions),
    ("weight recursions", _check_omega_recursions),
    ("state-coupling identity", _check_state_coupling_identity),
    ("bound identities", _check_bound_identities),
    ("pre-normalized optimizer", _check_d_vector),
    ("enumeration vs matrices", _check_enumeration),
    ("fractal equivalences", _check_fractal),
    ("simplex certification", _check_simplex_certification),
    ("reference constants", _check_reference_constants),
]


def run_checks(max_n: int = 8, names: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the suite (matrix-dependent checks up to block length max_n).

    Raises ValueError unless 0 <= max_n <= the matrix cap.
    """
    max_n = config.check_cap(
        max_n, config.MATRIX_CAP_ENV, "its largest P(n, s0) stores 4**{n} entries", "max n"
    )
    ctx = _Context(max_n)
    wanted = None if names is None else set(names)
    results = []
    for name, fn in CHECKS:
        if wanted is not None and name not in wanted:
            continue
        start = time.perf_counter()
        try:
            detail = fn(ctx)
            ok = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            ok = False
        except (optimize.ConvergenceError, ArithmeticError, ValueError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results
