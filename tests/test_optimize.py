import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import blahut_arimoto_reference, mutual_information_reference
from trapdoor.bounds import closed_form, constraint_check
from trapdoor.channel import ChannelMatrix
from trapdoor.dyadic import Dyadic
from trapdoor.matrices import DyadicMatrix
from trapdoor.optimize import (
    ConvergenceError,
    _float_matrix,
    blahut_arimoto,
    mutual_information,
    mutual_information_exact,
    verify_bound,
)


def test_point_mass_gives_zero(pairs):
    assert mutual_information(pairs(1)[0], [1.0, 0.0]) == 0.0
    assert mutual_information(pairs(2)[0], [0.0, 0.0, 1.0, 0.0]) == 0.0


def test_relaxed_optimum_value_at_n1(pairs):
    got = mutual_information(pairs(1)[0], [0.6, 0.4])
    assert abs(got - math.log2(1.25)) < 1e-12


def test_zero_error_input_exact_half(pairs):
    P = pairs(2)[0]
    assert mutual_information(P, [0.5, 0.0, 0.0, 0.5]) == 0.5
    exact = mutual_information_exact(
        P, [Dyadic(1, 1), Dyadic(0), Dyadic(0), Dyadic(1, 1)]
    )
    assert exact == Fraction(1, 2)


def test_exact_mi_rejects_non_power_ratios(pairs):
    with pytest.raises(ValueError, match="power of two"):
        mutual_information_exact(
            pairs(1)[0], [Fraction(3, 5), Fraction(2, 5)]
        )


def test_mi_matches_reference(pairs):
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for P in pairs(n):
            for _ in range(10 if n <= 3 else 3):
                p = rng.dirichlet(np.ones(P.dim))
                ref = mutual_information_reference((P.data.array * 2.0**-P.data.exp).tolist(), list(p), n)
                assert abs(mutual_information(P, p) - ref) < 1e-12


@pytest.mark.parametrize("n", range(0, 13))
def test_wlogw_is_minus_h_bitwise(n, pairs):
    # the reference: float row sums of W log2 W, 256 rows at a time to keep n = 12 small
    for P in pairs(n):
        W, wlogw = _float_matrix(P)
        ref = np.concatenate([
            (w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=1) for w in np.split(W, range(256, P.dim, 256))
        ])
        assert wlogw.dtype == np.float64 and wlogw.tobytes() == ref.tobytes()  # sign of zero included
        assert not np.signbit(wlogw[-P.s0])  # +0.0 for the all-s0 input


@pytest.mark.parametrize("n", range(0, 11))
def test_float_matrix_is_aligned_and_exact(n, pairs):
    for P in pairs(n):
        W = _float_matrix(P)[0]
        assert W.ctypes.data % 64 == 0 and W.flags.c_contiguous
        assert W.tobytes() == (P.data.array * 2.0**-P.data.exp).tobytes()


@pytest.mark.parametrize("rows, exp, message", [
    # P(2, 0) with row 01 changed to [3/8, 1/8, 1/4, 1/4]: still stochastic
    ([[8, 0, 0, 0], [3, 1, 2, 2], [2, 2, 4, 0], [0, 4, 2, 2]], 3, "not a power of two"),
    # P(2, 0) transposed: powers of two, but the all-0 row [1, 1/2, 1/4, 0] has entropy 1
    ([[4, 2, 1, 0], [0, 2, 1, 2], [0, 0, 2, 1], [0, 0, 0, 1]], 2, "all-s0 input"),
], ids=("3/8 entry", "transposed"))
def test_ba_and_mi_reject_what_entropy_vector_direct_rejects(rows, exp, message):
    P = ChannelMatrix(2, 0, DyadicMatrix(rows, exp))
    with pytest.raises(ValueError, match=message):
        blahut_arimoto(P, tol=1e-6)
    with pytest.raises(ValueError, match=message):
        mutual_information(P, [0.25] * 4)


def test_mi_validates_distribution(pairs):
    with pytest.raises(ValueError):
        mutual_information(pairs(1)[0], [0.7, 0.7])
    with pytest.raises(ValueError):
        mutual_information(pairs(1)[0], [1.5, -0.5])
    with pytest.raises(ValueError):
        mutual_information(pairs(1)[0], [1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="entry 0"):
            mutual_information(pairs(1)[0], [bad, 1.0])


def test_mi_nonnegative_on_random_simplex(pairs):
    P = pairs(2)[0]
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        assert mutual_information(P, p) >= -1e-15


def test_ba_n1_matches_exact_optimum(pairs):
    r = blahut_arimoto(pairs(1)[0], tol=1e-10, max_iter=10_000)
    assert r.converged
    assert abs(r.capacity_per_letter - math.log2(1.25)) < 1e-9
    assert np.allclose(r.distribution, [0.6, 0.4], atol=1e-5)


def test_ba_n2_stays_below_even_bound(pairs):
    r = blahut_arimoto(pairs(2)[0], tol=1e-10, max_iter=10_000)
    assert r.converged
    assert r.capacity_per_letter < closed_form(2) - 0.1


def test_ba_init_independence(pairs):
    P = pairs(2)[0]
    base = blahut_arimoto(P, tol=1e-10, max_iter=10_000)
    for init in ([0.4, 0.1, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]):
        r = blahut_arimoto(P, tol=1e-10, max_iter=10_000, init=init)
        assert abs(r.capacity_per_letter - base.capacity_per_letter) < 1e-8


def test_ba_lower_bound_monotone(pairs):
    # a relaxed iterate is kept only if it raises the lower end, and a plain step raises it too
    for n in range(1, 9):
        for P in pairs(n):
            r = blahut_arimoto(P, tol=1e-10, max_iter=10_000, track_history=True)
            lows = [lo for lo, _ in r.history]
            for a, b in zip(lows, lows[1:]):
                assert b >= a - 1e-12


def test_ba_bracket_validity(pairs):
    # lower <= capacity <= upper at every iteration (capacity from a long run)
    for n in range(2, 7):
        P = pairs(n)[0]
        best = blahut_arimoto(P, tol=1e-13, max_iter=100_000).capacity_per_letter
        r = blahut_arimoto(P, tol=1e-10, max_iter=10_000, track_history=True)
        for lo, up in r.history:
            assert lo - 1e-12 <= best <= up + 1e-12


@pytest.mark.parametrize("tol", [1e-8, 1e-9, 1e-10])
def test_ba_converges_at_n2_without_a_two_cycle(tol, pairs):
    # a relaxed step kept at a tiny drop of the lower end cycles at 0.4999529
    # here; only a strict rise accepts it
    for P in pairs(2):
        r = blahut_arimoto(P, tol=tol, max_iter=10_000)
        assert r.converged and abs(r.capacity_per_letter - 0.5) <= tol


def test_ba_sends_no_normal_mass_to_zero(pairs):
    # max D starts near 900 bits here, so a relaxed step would underflow the
    # unit mass to 0 and leave the bracket at 1.16 for good; plain steps
    # until max D < 26 bits keep every mass of at least 2**-1022 positive
    for P in pairs(4):
        init = np.full(P.dim, 1e-270)
        init[-P.s0] = 1.0  # the all-s0 input
        r = blahut_arimoto(P, tol=1e-8, max_iter=5_000, init=init)
        best = blahut_arimoto(P, tol=1e-8, max_iter=5_000).capacity_per_letter
        assert r.converged and abs(r.capacity_per_letter - best) <= 1e-8


@pytest.mark.parametrize("n", range(1, 9))
def test_ba_agrees_with_the_plain_loop(n, pairs):
    # the relaxed steps reach the plain loop's capacity, and both final brackets hold it
    tol = 1e-8
    for P in pairs(n):
        W = P.data.array * 2.0**-P.data.exp
        _, cap, _, _, history = blahut_arimoto_reference(
            W, n, tol=tol, max_iter=10_000, track_history=True, relaxed=False
        )
        r = blahut_arimoto(P, tol=tol, max_iter=10_000, track_history=True)
        assert r.converged and abs(r.capacity_per_letter - cap) <= tol
        (lo, up), (plain_lo, plain_up) = r.history[-1], history[-1]
        assert max(lo, plain_lo) <= min(up, plain_up)


def test_ba_iterates_stay_feasible(pairs):
    P = pairs(2)[0]
    r = blahut_arimoto(P, tol=1e-10, max_iter=10_000)
    assert constraint_check(2, 0, [float(x) for x in r.distribution])


def test_ba_non_convergence_reported(pairs):
    r = blahut_arimoto(pairs(4)[0], tol=1e-14, max_iter=3)
    assert not r.converged
    assert r.iterations == 3
    assert r.final_gap > 1e-14


def test_exact_mi_rejects_non_finite_entries(pairs):
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError) as exc:
            mutual_information_exact(pairs(1)[0], [bad, 0.0])
        assert str(exc.value) == f"distribution entry 0 is {bad}, not a finite number"


def test_exact_mi_rejects_non_numeric_entries(pairs):
    for bad in (["1", "0"], [None, 1], [b"1", 0]):
        with pytest.raises(ValueError, match=r"^distribution entry 0 is .*, not a finite number$"):
            mutual_information_exact(pairs(1)[0], bad)


def test_ba_rejects_bad_tol(pairs):
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError):
            blahut_arimoto(pairs(1)[0], tol=tol)


def test_ba_rejects_non_finite_init(pairs):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="entry 0"):
            blahut_arimoto(pairs(1)[0], tol=1e-9, init=[bad, 1.0])


# iterations at tol 1e-8 from the uniform start, states 0 and 1
_RELAXED_ITERATIONS = {1: (13, 13), 2: (95, 95), 3: (124, 124), 4: (203, 205), 5: (194, 193), 6: (690, 690)}


@pytest.mark.parametrize(
    "n, plain", [(1, 36), (2, 87), (3, 192), (4, 236), (5, 364), (6, 1385)]
)
def test_ba_iteration_counts_pinned(n, plain, pairs):
    # plain is the count of the plain update (the reference loop with
    # relaxed=False); the safeguarded relaxed steps never take 1.15 times it
    for P, pinned in zip(pairs(n), _RELAXED_ITERATIONS[n]):
        W = P.data.array * 2.0**-P.data.exp
        assert blahut_arimoto_reference(W, n, tol=1e-8, max_iter=10_000, relaxed=False)[0] == plain
        assert blahut_arimoto(P, tol=1e-8, max_iter=10_000).iterations == pinned <= 1.15 * plain


@pytest.mark.parametrize("n", range(1, 9))
def test_ba_matches_reference_loop(n, pairs):
    # the buffered loop repeats the reference's float operations in the same
    # order, so every report field is bitwise equal, n = 7 and 8 included
    for P in pairs(n):
        W = P.data.array * 2.0**-P.data.exp
        its, cap, gap, dist, history = blahut_arimoto_reference(
            W, n, tol=1e-8, max_iter=10_000, track_history=True
        )
        r = blahut_arimoto(P, tol=1e-8, max_iter=10_000, track_history=True)
        assert r.iterations == its
        assert r.final_gap == gap
        assert r.capacity_per_letter == cap
        assert np.array_equal(r.distribution, dist)
        assert r.history == history


@pytest.mark.parametrize("n", [3, 4, 6])
def test_ba_never_certifies_a_missed_dead_output(n, pairs):
    # 5e-324 * 0.25 == 0: the middle rows' outputs get no float mass although
    # every input is positive, so a bracket that skips them would certify 1/n
    P = pairs(n)[0]
    init = np.full(P.dim, 5e-324)
    init[0] = init[-1] = 0.5
    r = blahut_arimoto(P, tol=1e-8, max_iter=500, init=init)
    best = blahut_arimoto(P, tol=1e-8, max_iter=10_000).capacity_per_letter
    assert not r.converged or abs(r.capacity_per_letter - best) <= 1e-8


def test_ba_grows_a_subnormal_mass_that_alone_feeds_an_output(pairs):
    # q_1 = 5e-311 is positive, so D_1 is finite and p_1 is scaled back up;
    # a product that dropped subnormal masses would read output 1 as dead
    r = blahut_arimoto(pairs(1)[0], tol=1e-10, max_iter=10_000, init=[1 - 1e-310, 1e-310])
    assert r.converged
    assert abs(r.capacity_per_letter - math.log2(1.25)) < 1e-9


def test_ba_zero_inputs_stay_zero(pairs):
    P = pairs(2)[0]
    r = blahut_arimoto(P, tol=1e-9, max_iter=10_000, init=[0.5, 0.0, 0.0, 0.5])
    assert r.distribution[1] == 0.0 and r.distribution[2] == 0.0
    # restricted to the disjoint pair the capacity is the zero-error rate
    assert r.converged and abs(r.capacity_per_letter - 0.5) < 1e-9


def test_ba_degenerate_support(pairs):
    r = blahut_arimoto(pairs(1)[0], tol=1e-9, max_iter=50, init=[1.0, 0.0])
    assert r.converged and r.capacity_per_letter == 0.0
    assert list(r.distribution) == [1.0, 0.0]
    with pytest.raises(ValueError):
        blahut_arimoto(pairs(1)[0], tol=1e-9, init=[0.0, 0.0])


def test_verify_bound_small():
    for n in (1, 2, 4):
        ok, report = verify_bound(n, 0, tol=1e-8)
        assert ok and report.converged
    ok, report = verify_bound(1, 0, tol=1e-8)
    assert abs(report.capacity_per_letter - closed_form(1)) < 1e-6


def test_capacity_below_bound_up_to_eight():
    caps = {}
    for n in (1, 2, 4, 6, 8):
        ok, report = verify_bound(n, 0, tol=1e-8, max_iter=500_000)
        assert ok
        caps[n] = report.capacity_per_letter
    # larger blocks recover some of the memory: capacities increase past n=2
    assert caps[2] < caps[4] < caps[6] < caps[8] < closed_form(8)


def test_verify_bound_propagates_non_convergence():
    with pytest.raises(ConvergenceError):
        verify_bound(4, 0, tol=1e-13, max_iter=5)
