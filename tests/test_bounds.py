import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    channel_fractions,
    entropy_even_lists,
    entropy_fractions,
    entropy_step_lists,
    gauss_jordan_inverse,
    omega_lists,
    output_masses_nonnegative,
)
from trapdoor import bounds, channel
from trapdoor.bounds import (
    EntropyVector,
    OmegaVector,
    closed_form,
    closed_form_S,
    constraint_check,
    d_vector,
    entropy_state1,
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
from trapdoor.dyadic import Dyadic
from trapdoor.matrices import DyadicMatrix

Z = Dyadic(0)
ONE = Dyadic(1)
TH = Dyadic(3, 1)


# -- entropy vectors ----------------------------------------------------------


def test_entropy_direct_examples(pairs):
    assert entropy_vector_direct(pairs(0)[0]).entries == [Z]
    assert entropy_vector_direct(pairs(1)[0]).entries == [Z, ONE]
    assert entropy_vector_direct(pairs(2)[0]).entries == [Z, ONE, TH, TH]


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("s0", (0, 1))
def test_entropy_direct_matches_fraction_oracle(n, s0, pairs):
    oracle = entropy_fractions(channel_fractions(n)[s0])
    got = entropy_vector_direct(pairs(n)[s0]).entries
    assert [d.as_fraction() for d in got] == oracle


def test_entropy_recursive_even_examples():
    assert entropy_vector_recursive_even(0).entries == [Z]
    assert entropy_vector_recursive_even(2).entries == [Z, ONE, TH, TH]
    assert entropy_vector_recursive_even(4).entries[:4] == [Z, ONE, TH, TH]
    with pytest.raises(ValueError):
        entropy_vector_recursive_even(3)


def test_entropy_recursive_step_examples():
    assert entropy_vector_recursive_step(1).entries == [Z, ONE]
    assert entropy_vector_recursive_step(3).entries[:4] == [Z, ONE, TH, TH]
    assert (
        entropy_vector_recursive_step(2).entries
        == entropy_vector_recursive_even(2).entries
    )


@pytest.mark.parametrize("n", range(0, 11))
def test_entropy_recursions_match_direct(n, pairs):
    direct = entropy_vector_direct(pairs(n)[0]).entries
    assert entropy_vector_recursive_step(n).entries == direct
    if n % 2 == 0:
        assert entropy_vector_recursive_even(n).entries == direct


@pytest.mark.parametrize("n", range(0, 11))
def test_entropy_state1_is_reversal(n, pairs):
    assert entropy_state1(n).entries == entropy_vector_direct(pairs(n)[1]).entries
    assert entropy_state1(n).entries == entropy_vector_direct(pairs(n)[0]).entries[::-1]


def test_entropy_vector_validation():
    with pytest.raises(ValueError):
        EntropyVector(1, 0, [2, 2])  # all-zeros input must carry 0 (entries are h * 2**n)
    with pytest.raises(ValueError):
        EntropyVector(1, 0, [0, 6])  # 3, above n


@pytest.mark.parametrize("n", [10**8, 10**12, -1, 1])
@pytest.mark.parametrize("make", [EntropyVector, OmegaVector])
def test_a_block_length_that_does_not_match_the_length_is_rejected(make, n):
    with pytest.raises(ValueError, match=re.escape(f"length 1 is not 2**n for block length n = {n}")):
        make(n, 0, [0])


@pytest.mark.parametrize("n", range(0, 15))
def test_array_recursions_equal_list_recursions(n):
    h = entropy_step_lists(n)
    assert entropy_vector_recursive_step(n).entries == h
    assert entropy_state1(n).entries == h[::-1]
    if n % 2 == 0:
        assert entropy_vector_recursive_even(n).entries == entropy_even_lists(n)
    w = omega_lists(n)
    assert omega_recursive(n).entries == w
    assert omega_state1(n).entries == w[::-1]


def test_recursions_agree_at_the_bound_cap():
    step, even = entropy_vector_recursive_step(20), entropy_vector_recursive_even(20)
    assert np.array_equal(step.array, even.array)
    assert step.array.max() <= 20 << 20
    assert exp2_sum(omega_recursive(20).array) == closed_form_S(20)
    assert exp2_sum(omega_state1(19).array) == closed_form_S(19)


@pytest.mark.parametrize(
    "make", [entropy_vector_recursive_step, entropy_state1, omega_recursive, omega_state1]
)
def test_vectors_hold_one_read_only_int64_array(make):
    v = make(5)
    assert v.array.dtype == np.int64 and v.array.shape == (32,)
    assert not v.array.flags.writeable
    with pytest.raises(ValueError):
        v.array[0] = 1
    nums = v.array.tolist()
    assert v.entries == (nums if isinstance(v, OmegaVector) else [Dyadic(x, 5) for x in nums])


def test_entries_lists_are_not_kept_by_the_vectors():
    # .entries is built on each read, so dropping the list leaves the
    # vector's footprint where it was
    for v in (entropy_vector_recursive_step(8), omega_recursive(10)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(v.entries) >= 256
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # freed lists stay on CPython's free list of 80 lists (56 bytes each)
        assert kept < 8192, (type(v).__name__, kept)


def test_vectors_accept_int_sequences_and_integer_arrays():
    for w in ([-2, 0], (-2, 0), [np.int32(-2), 0], np.array([-2, 0], dtype=np.int8),
              np.array([-2, 0], dtype=object)):
        v = OmegaVector(1, 1, w)
        assert v.array.dtype == np.int64 and v.entries == [-2, 0]
    for h in ([0, 2], np.array([0, 2], dtype=np.uint8), np.array([0, 2], dtype=np.uint64)):
        assert EntropyVector(1, 0, h).entries == [Z, ONE]


_NOT_INT64 = {
    "float": [-2.5, 0],
    "numpy float": [np.float64(-2.0), 0],
    "bool": [True, 0],
    "numpy bool": [np.bool_(False), 0],
    "str": ["0", 0],
    "None": [None, 0],
    "2**63": [2**63, 0],
    "-2**70": [-(2**70), 0],
    "float array": np.array([-2.5, 0.0]),
    "bool array": np.array([True, False]),
    "uint64 array past int64": np.array([2**63, 0], dtype=np.uint64),
    "2-d array": np.zeros((2, 1), dtype=np.int64),
    "str array": np.array(["0", "0"]),
}


@pytest.mark.parametrize("bad", sorted(_NOT_INT64))
@pytest.mark.parametrize(
    "make",
    [lambda v: OmegaVector(1, 1, v), lambda v: EntropyVector(1, 1, v), exp2_sum],
    ids=["OmegaVector", "EntropyVector", "exp2_sum"],
)
def test_vectors_reject_entries_that_are_not_int64_integers(make, bad):
    # rejected, never truncated, parsed or wrapped, before any other check sees them
    with pytest.raises(ValueError, match=r"^entries must (be integers, got|fit in int64)"):
        make(_NOT_INT64[bad])


_BUILDERS = [
    entropy_vector_recursive_step,
    entropy_vector_recursive_even,
    entropy_state1,
    omega_recursive,
    omega_state1,
]


def test_vectors_are_built_in_place_at_their_final_size():
    # one array of 2**16 int64 entries, plus at most a quarter of it in transients
    for make in _BUILDERS:
        tracemalloc.start()
        try:
            nbytes = make(16).array.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * nbytes, (make.__name__, peak / nbytes)
    w = omega_recursive(16).array
    tracemalloc.start()
    try:
        assert exp2_sum(w) == closed_form_S(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= w.nbytes, peak / w.nbytes


# -- weight vectors -----------------------------------------------------------


def test_omega_recursive_examples():
    assert omega_recursive(0).entries == [0]
    assert omega_recursive(1).entries == [0, -2]
    assert omega_recursive(2).entries == [0, -2, -2, 0]
    assert omega_recursive(3).entries == [0, -2, -2, 0, -2, -4, -4, -2]
    assert omega_recursive(4).entries == [
        0, -2, -2, 0, -2, -4, -4, -2, -2, -4, -4, -2, 0, -2, -2, 0,
    ]


def test_omega_state1_examples():
    assert omega_state1(1).entries == [-2, 0]
    assert omega_state1(2).entries == [0, -2, -2, 0]
    assert omega_state1(3).entries == omega_recursive(3).entries[::-1]


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("s0", (0, 1))
def test_omega_direct_matches_recursive(n, s0, pairs, inverses):
    P = pairs(n)[s0]
    h = entropy_vector_direct(P)
    direct = omega_direct(P, h, inverse=inverses(n, s0))
    rec = omega_recursive(n) if s0 == 0 else omega_state1(n)
    assert direct.entries == rec.entries


def test_omega_direct_with_fraction_oracle():
    P, _ = channel_fractions(3)
    inv = gauss_jordan_inverse(P)
    h = entropy_fractions(P)
    oracle = [-sum(inv[i][j] * h[j] for j in range(8)) for i in range(8)]
    assert [Fraction(w) for w in omega_recursive(3).entries] == oracle


def test_omega_vector_validation():
    with pytest.raises(ValueError):
        OmegaVector(1, 0, [0, -1])  # odd entry
    with pytest.raises(ValueError):
        OmegaVector(1, 0, [-2, 0])  # zero must sit at the all-zeros input
    with pytest.raises(ValueError):
        OmegaVector(2, 0, [0, -2, 0, -2])  # even length must be palindromic
    OmegaVector(1, 1, [-2, 0])


@pytest.mark.parametrize(
    "s0, last, message",
    [
        (0, 2, "entries must be even and non-positive"),
        (0, -3, "entries must be even and non-positive"),
        (1, -2, "the all-s0 input must carry weight 0"),
        (0, -2, "even-length weight vectors must be palindromic"),
    ],
)
def test_omega_vector_validation_messages_at_n16(s0, last, message):
    # a 2^16-entry vector whose only bad entry is the last one
    entries = [0] * ((1 << 16) - 1) + [last]
    with pytest.raises(ValueError, match=message):
        OmegaVector(16, s0, entries)


def test_omega_mismatch_rejected(pairs):
    P = pairs(2)[0]
    h1 = entropy_vector_direct(pairs(2)[1])
    with pytest.raises(ValueError):
        omega_direct(P, h1)


@pytest.mark.parametrize(
    "use",
    [
        lambda P, inv: omega_direct(P, entropy_vector_direct(P), inverse=inv),
        lambda P, inv: d_vector(P.n, P.s0, inverse=inv),
    ],
    ids=["omega_direct", "d_vector"],
)
def test_a_given_inverse_of_the_wrong_dimension_is_rejected(use, pairs, inverses):
    with pytest.raises(ValueError, match=r"^the inverse has dimension 4, expected 2\*\*3 = 8$"):
        use(pairs(3)[0], inverses(2, 0))


# -- bound values -------------------------------------------------------------


def test_exp2_sum_small():
    assert exp2_sum([0, -2]) == Dyadic(5, 2)
    assert exp2_sum([0, -2, -2, 0]) == Dyadic(5, 1)
    assert exp2_sum([0]) == ONE
    assert exp2_sum([1, 0]) == 3 and exp2_sum(np.array([3])) == 8
    assert exp2_sum([]) == Z


@pytest.mark.parametrize(
    "n,S,c6",
    [
        (1, Dyadic(5, 2), 0.321928),
        (2, Dyadic(5, 1), 0.660964),
        (3, Dyadic(25, 3), 0.547952),
        (4, Dyadic(25, 2), 0.660964),
    ],
)
def test_upper_bound_examples(n, S, c6):
    b = upper_bound(n)
    assert b.S == S
    assert round(b.c_up, 6) == c6
    assert round(closed_form(n), 6) == c6


@pytest.mark.parametrize("m", range(1, 11))
def test_exact_sum_identities(m):
    assert exp2_sum(omega_recursive(2 * m).entries) == Dyadic(5**m, m)
    assert exp2_sum(omega_recursive(2 * m - 1).entries) == Dyadic(5**m, m + 1)


def test_closed_form_matches_upper_bound_to_cap():
    for n in range(1, 21):
        assert math.isclose(
            upper_bound(n, include_d=False).c_up, closed_form(n), abs_tol=1e-12
        )


def test_closed_form_large_n():
    # the analytic form keeps working far beyond the recursion cap
    assert abs(closed_form(99) - (math.log2(1.25) + 49 * math.log2(2.5)) / 99) < 1e-12
    assert closed_form(10**6) == closed_form(2)
    assert closed_form(10**6 + 1) < closed_form(2)


def test_odd_bounds_increase_to_even_value():
    prev = 0.0
    for m in range(1, 40):
        c = closed_form(2 * m - 1)
        assert prev < c < closed_form(2)
        prev = c


def test_upper_bound_attaches_d_without_building_a_matrix(monkeypatch):
    monkeypatch.setenv("TRAPDOOR_MATRIX_CAP", "0")

    def refuse(*args):
        raise AssertionError("a dense matrix was built")

    for module in (bounds, channel):
        for name in ("build_channel_matrix", "invert_channel_matrix"):
            monkeypatch.setattr(module, name, refuse)
    for name in ("_ladder", "_inverse_ladder"):
        monkeypatch.setattr(channel, name, refuse)
    for n in range(1, 13):
        b = upper_bound(n)
        assert sum(b.d, Z) == b.S == closed_form_S(n)
        assert len(b.negative_d_indices()) == (1 << (n - 1) if n >= 2 else 0)
    b = upper_bound(4, include_d=False)
    assert b.d is None
    assert b.negative_d_indices() == []


def test_upper_bound_state1_matches_state0():
    b0, b1 = upper_bound(3, 0), upper_bound(3, 1)
    assert b0.S == b1.S
    assert b0.c_up == b1.c_up
    assert b1.d == b0.d[::-1]


# -- pre-normalized optimizer -------------------------------------------------


def test_d_vector_n1():
    d = d_vector(1, 0)
    assert d == [Dyadic(3, 2), Dyadic(1, 1)]
    S = closed_form_S(1).as_fraction()
    assert [v.as_fraction() / S for v in d] == [Fraction(3, 5), Fraction(2, 5)]


def test_d_vector_n2():
    d = d_vector(2, 0)
    assert d[2] == Dyadic(-3, 1)
    total = Z
    for v in d:
        total = total + v
    assert total == closed_form_S(2)


def test_d_vector_second_last_closed_forms(inverses):
    # even lengths follow -3*2^(n-3); odd lengths >= 3 follow -3*2^(n-5)
    for n in range(2, 11):
        d = d_vector(n, 0, inverse=inverses(n, 0))
        expected = Dyadic(-3, 0).shift(n - 3 if n % 2 == 0 else n - 5)
        assert d[-2] == expected
        assert d[-2] < 0


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("s0", (0, 1))
def test_matrix_free_d_equals_dense(n, s0, inverses):
    assert d_vector(n, s0) == d_vector(n, s0, inverse=inverses(n, s0))


def test_d_at_n16_sums_to_S_and_is_half_negative():
    # past the dense reach: int64 gives way to Python ints at the last levels
    d = d_vector(16, 0)
    assert sum(d, Z) == closed_form_S(16)
    assert sum(v < 0 for v in d) == 1 << 15
    assert d[-2] == Dyadic(-3 << 13)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("s0", (0, 1))
def test_d_sums_to_S(n, s0, inverses):
    d = d_vector(n, s0, inverse=inverses(n, s0))
    total = Z
    for v in d:
        total = total + v
    assert total == closed_form_S(n)


def test_d_vector_fraction_oracle():
    P, _ = channel_fractions(4)
    inv = gauss_jordan_inverse(P)
    w = omega_recursive(4).entries
    x = [Fraction(1, 2 ** (-v)) for v in w]
    oracle = [sum(inv[j][i] * x[j] for j in range(16)) for i in range(16)]
    assert [v.as_fraction() for v in d_vector(4, 0)] == oracle


# -- feasibility of distributions ---------------------------------------------


def test_constraint_check_examples(pairs):
    assert constraint_check(2, 0, [Fraction(11, 10), Fraction(-11, 10), Fraction(-3, 5), Fraction(8, 5)])
    assert constraint_check(2, 0, [0.25, 0.25, 0.25, 0.25])
    assert not constraint_check(2, 0, [2, -1, 0, 0])
    with pytest.raises(ValueError):
        constraint_check(2, 0, [1, 0, 0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="entry 2"):
            constraint_check(2, 0, [0.5, 0.0, bad, 0.5])


@pytest.mark.parametrize("bad", ["1/2", "0.5", b"1", None, 1j])
def test_constraint_check_rejects_non_numeric_entries(bad):
    # Fraction would parse the strings; None and bytes would end in its TypeError
    with pytest.raises(ValueError, match=r"^distribution entry 1 is .*, not a finite number$"):
        constraint_check(1, 0, [0.5, bad])


@pytest.mark.parametrize("n", range(1, 7))
def test_constraint_check_matches_fraction_oracle(n, pairs):
    # signed mixed-type vectors: ints, floats, Dyadics and non-dyadic Fractions
    rng = random.Random(1000 + n)
    kinds = (
        lambda: rng.randint(-3, 9),
        lambda: rng.uniform(-0.5, 2.0),
        lambda: Dyadic(rng.randint(-8, 40), rng.randint(0, 6)),
        lambda: Fraction(rng.randint(-2, 9), rng.choice((3, 5, 7, 10))),
    )
    fractions = channel_fractions(n)
    seen = set()
    for s0 in (0, 1):
        for _ in range(12):
            p = [rng.choice(kinds)() for _ in range(1 << n)]
            exact = [v.as_fraction() if isinstance(v, Dyadic) else Fraction(v) for v in p]
            want = output_masses_nonnegative(fractions[s0], exact)
            assert constraint_check(n, s0, p, P=pairs(n)[s0]) is want
            seen.add(want)
    assert seen == {True, False}


def test_relaxed_optimum_feasible_for_small_n(inverses):
    # d/S satisfies the output-mass constraints even when it leaves the simplex
    for n in (1, 2, 3, 4):
        d = d_vector(n, 0, inverse=inverses(n, 0))
        S = closed_form_S(n).as_fraction()
        p = [v.as_fraction() / S for v in d]
        assert sum(p) == 1
        assert constraint_check(n, 0, p)


def test_golden_ratio_reference():
    g = golden_ratio_reference()
    assert round(g, 6) == 0.694242
    assert closed_form(2) < g
    assert g > 0.5


@pytest.mark.parametrize("n", range(0, 9, 2))
def test_state_coupling_identity_even_lengths(n, pairs, inverses):
    # P(2n,1) P(2n,0)^-1 h(2n,0) equals the reversal of h(2n,0)
    P1 = pairs(n)[1]
    h0 = entropy_vector_direct(pairs(n)[0]).entries
    assert P1.data.matvec(inverses(n, 0).matvec(h0)) == h0[::-1]


def test_d_vector_equals_transposed_inverse_times_weights(inverses):
    # d = (P^-1)^T 2^w, here from an explicitly transposed inverse
    for n in range(0, 7):
        for s0 in (0, 1):
            inv = inverses(n, s0)
            w = omega_recursive(n) if s0 == 0 else omega_state1(n)
            transposed = DyadicMatrix([list(col) for col in zip(*inv.int_rows)], inv.exp)
            expect = transposed.matvec([Dyadic(1).shift(v) for v in w.entries])
            assert d_vector(n, s0, inverse=inv) == expect


@pytest.mark.parametrize("s0", (0, 1))
def test_exact_vectors_hold_python_ints(s0, pairs, inverses):
    P, inv = pairs(6)[s0], inverses(6, s0)
    h = entropy_vector_direct(P)
    w = omega_direct(P, h, inverse=inv)
    assert all(type(x) is int for x in w.entries)
    assert all(type(d.num) is int for d in h.entries + d_vector(6, s0, inverse=inv))
