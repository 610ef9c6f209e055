"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion is asserted at its stated tolerance; timing-limited criteria
measure their own fresh computations (no session caches).  The closed-form
subcases of criterion 4 at odd block lengths assert the stated formula
-3*2**(n-3) verbatim even though the exact value there is -3*2**(n-5); those
subcases fail by design and document the discrepancy (the negativity of the
entry, which is what the value certifies, holds for every n >= 2 and is
asserted separately).
"""

import time
from fractions import Fraction

import pytest

from acceptance_report import criterion
from oracles import channel_row_from_enumeration, row_dyadics, row_sums

from trapdoor.bounds import (
    closed_form,
    closed_form_S,
    d_vector,
    entropy_vector_direct,
    entropy_vector_recursive_even,
    entropy_vector_recursive_step,
    exp2_sum,
    golden_ratio_reference,
    omega_direct,
    omega_recursive,
    omega_state1,
    upper_bound,
)
from trapdoor.channel import (
    channel_pair,
    exchange_conjugate,
    invert_channel_matrix,
    invert_two_step,
)
from trapdoor.dyadic import Dyadic
from trapdoor.enumeration import generate_outputs
from trapdoor.fractal import (
    ifs_iterate,
    render_pgm,
    rho_representation,
    sierpinski_ifs,
    tau_transform,
    trapdoor_ifs,
    unit_grid,
)
from trapdoor.optimize import blahut_arimoto, mutual_information, mutual_information_exact

# pinned at build time from the BA oracle (bracket <= 1e-12): the n=2 simplex
# optimum is the disjoint-support pair, so the capacity is exactly 1/2
BA_N2_CAPACITY = 0.5
BA_N2_GAP = 0.160964047444


def test_criterion_1_even_length_bound_exact():
    with criterion("1", "even-length sums equal (5/2)^m exactly, C_up = 0.660964, < 1 s"):
        start = time.perf_counter()
        for m in range(1, 11):
            w = omega_recursive(2 * m)
            assert exp2_sum(w.entries) == Dyadic(5**m, m), f"sum differs at m={m}"
        c = upper_bound(2, include_d=False).c_up
        elapsed = time.perf_counter() - start
        assert round(c, 6) == 0.660964
        assert round(closed_form(20), 6) == 0.660964
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_odd_length_bound_exact():
    with criterion(
        "2", "odd-length sums equal (5/4)(5/2)^(m-1) exactly, increasing to 0.660964, < 1 s"
    ):
        start = time.perf_counter()
        values = []
        for m in range(1, 11):
            w = omega_recursive(2 * m - 1)
            assert exp2_sum(w.entries) == Dyadic(5**m, m + 1), f"sum differs at m={m}"
            values.append(closed_form(2 * m - 1))
        elapsed = time.perf_counter() - start
        assert round(values[0], 6) == 0.321928
        # the exact identity S_3 = 25/8 forces (1/3) log2(25/8) = 0.547952
        assert round(values[1], 6) == 0.547952
        even = closed_form(2)
        for a, b in zip(values, values[1:]):
            assert a < b < even, "odd-length bounds must increase below the even value"
        assert round(even, 6) == 0.660964
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_recursion_vs_definition_oracles():
    with criterion("3", "recursion-vs-definition oracles exact for n <= 10, both states, < 60 s"):
        start = time.perf_counter()
        for n in range(0, 11):
            P0, P1 = channel_pair(n)
            w_rec = omega_recursive(n).entries
            for P in (P0, P1):
                inv = invert_channel_matrix(P)
                assert P.data.product_is_identity(inv), f"P inv != I at n={n}, s0={P.s0}"
                assert all(s == 1 for s in row_sums(inv)), f"inverse row sums at n={n}"
                h_direct = entropy_vector_direct(P)
                if P.s0 == 0:
                    assert entropy_vector_recursive_step(n).entries == h_direct.entries
                    if n % 2 == 0:
                        assert entropy_vector_recursive_even(n).entries == h_direct.entries
                w_direct = omega_direct(P, h_direct, inverse=inv)
                expect = w_rec if P.s0 == 0 else list(reversed(w_rec))
                assert w_direct.entries == expect, f"weights at n={n}, s0={P.s0}"
                if n % 2 == 0:
                    assert invert_two_step(n, P.s0) == inv, f"two-step at n={n}, s0={P.s0}"
                if P.s0 == 0:
                    inv1 = invert_channel_matrix(P1)
                    assert exchange_conjugate(P0) == P1
                    assert exchange_conjugate(inv) == inv1
                    h1 = entropy_vector_direct(P1)
                    assert h1.entries == h_direct.entries[::-1]
                    assert omega_state1(n).entries == list(reversed(w_rec))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("n", range(2, 11))
def test_criterion_4_closed_form(n):
    with criterion("4", f"d[2^n-1] = -3*2^(n-3) at n={n}"):
        d = d_vector(n, 0)
        assert d[-2] < 0, f"d[2^n-1] must be negative at n={n}"
        stated = Dyadic(-3, 0).shift(n - 3)
        assert d[-2] == stated, (
            f"stated closed form gives {stated} but the exact value is {d[-2]} "
            f"(odd lengths follow -3*2^(n-5))"
        )


def test_criterion_4_sums_and_n1():
    with criterion("4", "sum d = S for n <= 10; n=1 optimizer non-negative with optimum [3/5, 2/5]"):
        for n in range(1, 11):
            d = d_vector(n, 0)
            total = Dyadic(0)
            for v in d:
                total = total + v
            assert total == closed_form_S(n), f"sum d != S at n={n}"
        d1 = d_vector(1, 0)
        assert d1 == [Dyadic(3, 2), Dyadic(1, 1)]
        assert all(v >= 0 for v in d1)
        S1 = closed_form_S(1).as_fraction()
        assert [v.as_fraction() / S1 for v in d1] == [Fraction(3, 5), Fraction(2, 5)]


def test_criterion_5_enumeration_oracle():
    with criterion("5", "enumeration equals matrix rows exhaustively for n <= 10, both states, < 60 s"):
        start = time.perf_counter()
        for n in range(1, 11):
            P0, P1 = channel_pair(n)
            for P in (P0, P1):
                for i in range(1 << n):
                    bits = format(i, f"0{n}b")
                    dist = generate_outputs(bits, P.s0)
                    total = Dyadic(0)
                    for p in dist.outputs.values():
                        total = total + p
                    assert total == 1, f"sum != 1 for {bits}, s0={P.s0}"
                    row = channel_row_from_enumeration(n, P.s0, bits)
                    assert row == row_dyadics(P, i), f"row mismatch {bits}, s0={P.s0}"
        support = generate_outputs("101", 0).support()
        assert "110" not in support
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_6_simplex_certification():
    with criterion("6", "BA brackets <= 1e-9 at n = 1, 2, 4, 6; capacities below the bound"):
        results = {}
        for n in (1, 2, 4, 6):
            P = channel_pair(n)[0]
            report = blahut_arimoto(P, tol=1e-9, max_iter=500_000)
            assert report.converged, f"no convergence at n={n}"
            assert report.final_gap <= 1e-9
            assert report.capacity_per_letter <= closed_form(n) + 1e-8, f"bound violated at n={n}"
            results[n] = report
        assert abs(results[1].capacity_per_letter - 0.321928) < 1e-6
        cap2 = results[2].capacity_per_letter
        gap2 = closed_form(2) - cap2
        assert abs(cap2 - BA_N2_CAPACITY) < 1e-6
        assert gap2 > 0.1
        assert abs(gap2 - BA_N2_GAP) < 1e-6


def test_criterion_7_fractal_equivalence():
    with criterion(
        "7", "IFS iterates equal embeddings cell-for-cell (k <= 10, both states); 3^k Sierpinski; byte-stable PGM"
    ):
        for s0 in (0, 1):
            ifs = trapdoor_ifs(s0)
            grid = unit_grid()
            for k in range(1, 11):
                grid = ifs_iterate(ifs, grid, 1)
                rep = rho_representation(channel_pair(k)[s0])
                assert grid == rep, f"IFS differs from embedding at k={k}, s0={s0}"
                if s0 == 0:
                    assert tau_transform(rep) == rho_representation(channel_pair(k)[1])
        grid = unit_grid()
        for k in range(1, 9):
            grid = ifs_iterate(sierpinski_ifs(), grid, 1)
            assert grid.nonzero_count() == 3**k
        first = render_pgm(ifs_iterate(sierpinski_ifs(), unit_grid(), 5), "binary")
        second = render_pgm(ifs_iterate(sierpinski_ifs(), unit_grid(), 5), "binary")
        assert first == second
        again = render_pgm(ifs_iterate(trapdoor_ifs(0), unit_grid(), 6), "log")
        assert again == render_pgm(ifs_iterate(trapdoor_ifs(0), unit_grid(), 6), "log")


def test_criterion_8_reference_constants():
    with criterion("8", "zero-error rate 0.5 exact; bound below the feedback constant 0.694242"):
        P2 = channel_pair(2)[0]
        exact = mutual_information_exact(
            P2, [Dyadic(1, 1), Dyadic(0), Dyadic(0), Dyadic(1, 1)]
        )
        assert exact == Fraction(1, 2)
        assert mutual_information(P2, [0.5, 0.0, 0.0, 0.5]) == 0.5
        golden = golden_ratio_reference()
        assert round(golden, 6) == 0.694242
        assert closed_form(2) < golden
