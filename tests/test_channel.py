import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from oracles import (
    channel_fractions,
    entropy_direct_lists,
    gauss_jordan_inverse,
    int_ladder_lists,
    invert_ladder_lists,
    invert_two_step_lists,
    row_dyadics,
    row_sums,
)
from trapdoor.bounds import EntropyVector, entropy_vector_direct, omega_direct
from trapdoor.channel import (
    ChannelMatrix,
    _level,
    build_channel_matrix,
    channel_pair,
    disjoint_support_check,
    exchange_conjugate,
    invert_channel_matrix,
    invert_two_step,
    times_inverse,
)
from trapdoor.dyadic import Dyadic
from trapdoor.matrices import DyadicMatrix

H = Dyadic(1, 1)
Q = Dyadic(1, 2)
ONE = Dyadic(1)
ZERO = Dyadic(0)


def test_initial_matrix():
    P = build_channel_matrix(0, 0)
    assert (P.data.int_rows, P.data.exp) == ([[1]], 0)


def test_length_one_matrices():
    assert build_channel_matrix(1, 0).data.int_rows == [[2, 0], [1, 1]]
    assert build_channel_matrix(1, 1).data.int_rows == [[1, 1], [0, 2]]
    assert build_channel_matrix(1, 0).data.exp == 1


def test_length_two_matrix():
    expected = [  # quarters
        [4, 0, 0, 0],
        [2, 2, 0, 0],
        [1, 1, 2, 0],
        [0, 2, 1, 1],
    ]
    P = build_channel_matrix(2, 0)
    assert (P.data.int_rows, P.data.exp) == (expected, 2)
    assert row_dyadics(P, 2) == [Q, Q, H, ZERO]


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("s0", (0, 1))
def test_matches_fraction_oracle(n, s0, pairs):
    oracle = channel_fractions(n)[s0]
    P = pairs(n)[s0]
    assert [
        [d.as_fraction() for d in row_dyadics(P, i)] for i in range(P.dim)
    ] == oracle


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("s0", (0, 1))
def test_rows_stochastic_and_dyadic(n, s0, pairs):
    P = pairs(n)[s0]
    P.validate()
    for row in P.data.int_rows:
        for v in row:
            assert v == 0 or (1 << n) % v == 0  # entry is 2^-j with j <= n


def test_invert_small_cases():
    assert invert_channel_matrix(build_channel_matrix(1, 0)) == DyadicMatrix(
        [[1, 0], [-1, 2]], 0
    )
    assert invert_channel_matrix(build_channel_matrix(0, 0)).is_identity()


def test_inversion_rejects_data_other_than_p():
    bad = ChannelMatrix(1, 0, DyadicMatrix([[1, 1], [1, 1]], 1))
    with pytest.raises(ValueError, match=r"not a valid channel matrix: row 1 differs from P\(1, 0\)"):
        invert_channel_matrix(bad)
    with pytest.raises(ValueError, match="row 1 differs"):
        omega_direct(bad, EntropyVector(1, 0, [0, 2]))
    P = build_channel_matrix(6, 1)
    rows = P.data.array.copy()
    rows[40, 0] += 1
    with pytest.raises(ValueError, match=r"row 41 differs from P\(6, 1\)"):
        invert_channel_matrix(ChannelMatrix(6, 1, DyadicMatrix(rows, 6)))
    # the same matrix stored at a finer scale is still P(6, 1)
    fine = ChannelMatrix(6, 1, P.data.with_exp(9))
    assert invert_channel_matrix(fine) == invert_channel_matrix(P)


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("s0", (0, 1))
def test_inverse_matches_gauss_jordan(n, s0, pairs, inverses):
    oracle = gauss_jordan_inverse(channel_fractions(n)[s0])
    inv = inverses(n, s0)
    assert [
        [d.as_fraction() for d in row_dyadics(inv, i)] for i in range(inv.dim)
    ] == oracle


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("s0", (0, 1))
def test_inverse_identity_and_row_sums(n, s0, pairs, inverses):
    P = pairs(n)[s0]
    inv = inverses(n, s0)
    assert P.data.product_is_identity(inv)
    assert all(s == 1 for s in row_sums(inv))
    assert inv.rows_sum_to_one()


@pytest.mark.parametrize("n", range(0, 11, 2))
@pytest.mark.parametrize("s0", (0, 1))
def test_two_step_inverse_agrees(n, s0, inverses):
    assert invert_two_step(n, s0) == inverses(n, s0)


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("s0", (0, 1))
def test_inverses_equal_list_ladders(n, s0, inverses):
    assert inverses(n, s0).array.tolist() == invert_ladder_lists(n, s0)
    if n % 2 == 0:
        assert invert_two_step(n, s0).array.tolist() == invert_two_step_lists(n, s0)


@pytest.mark.parametrize("n", range(0, 11))
def test_array_ladder_and_entropy_equal_list_code(n, pairs):
    levels = int_ladder_lists(n)
    for s0, P in enumerate(pairs(n)):
        rows = levels[n][s0]
        assert (P.data.exp, P.data.array.tolist()) == (n, rows)
        h = entropy_vector_direct(P).entries
        assert [d.shift(n).num for d in h] == [num for num, _ in entropy_direct_lists(rows, n)]


@pytest.mark.parametrize("n", range(0, 11))
def test_narrowest_dtypes(n, pairs, inverses):
    for s0 in (0, 1):
        assert pairs(n)[s0].data.array.dtype == np.int16
        assert inverses(n, s0).array.dtype == (np.int16 if n <= 7 else np.int32)
        assert not pairs(n)[s0].data.array.flags.writeable


def test_level_widens_instead_of_wrapping():
    # m = 0: X_k(0) = [[X(0), 0], [-X(1), 2 X(0)]]
    t = (1 << 31) - 1
    top = [np.full((2, 2), t, dtype=np.int32)] * 2
    (out,) = _level(top, 0)
    assert out.dtype == np.int64
    assert out.tolist() == [[t, t, 0, 0]] * 2 + [[-t, -t, 2 * t, 2 * t]] * 2
    big = [np.full((1, 1), 1 << 62, dtype=np.int64)] * 3
    out = _level(big, 1)  # j = 1 scales X(0) by 1, X(1) by 3 and X(2) by -2
    assert [blk.dtype for blk in out] == [object, object]
    assert [blk.tolist() for blk in out] == [[[1 << 62, 0], [-1 << 62, 1 << 63]], [[0, 1 << 62], [-1 << 63, 3 << 62]]]


def test_times_inverse_widens_instead_of_wrapping():
    # x X_1(0) = [x_a - x_b, 2 x_b]: 2 x_b leaves int64 exactly when x_b reaches 2**62
    for t, dtype in (((1 << 62) - 1, np.int64), (1 << 62, object)):
        x = np.array([t, t], dtype=np.int64)
        d = times_inverse(x, 0)
        assert d.dtype == dtype and d.tolist() == [0, 2 * t]
        assert times_inverse(x, 1).tolist() == [2 * t, 0]
    # three levels on entries near the int64 limit, against the inverse in Python ints
    rng = np.random.default_rng(7)
    for s0 in (0, 1):
        inv = invert_ladder_lists(3, s0)
        x = rng.integers(-(1 << 62), 1 << 62, 8)
        want = [sum(int(x[i]) * inv[i][j] for i in range(8)) for j in range(8)]
        assert times_inverse(x, s0).tolist() == want


@pytest.mark.parametrize("k", range(0, 7))
def test_level_stack_is_inverse_times_powers(k):
    """X_k(j) == A_k (P(k,1) A_k)^j with A_k = P(k,0)^-1, for j <= 3."""
    x = [np.ones((1, 1), dtype=np.int16)] * (k + 4)
    for level in range(1, k + 1):
        x = _level(x, k + 3 - level)
    A = DyadicMatrix(invert_ladder_lists(k, 0))
    U = build_channel_matrix(k, 1).data.matmul(A)
    want = A
    for j in range(4):
        assert DyadicMatrix(x[j]) == want
        want = want.matmul(U)


@pytest.mark.parametrize("delta", (-1, 1))
def test_identity_check_rejects_one_changed_entry(delta, pairs, inverses):
    P, inv = pairs(10)[0], inverses(10, 0)
    rows = [list(row) for row in inv.int_rows]
    rows[700][300] += delta
    assert not P.data.product_is_identity(DyadicMatrix(rows, inv.exp))


def test_two_step_rejects_odd():
    with pytest.raises(ValueError):
        invert_two_step(3, 0)


def test_two_step_defining_property(pairs):
    P = pairs(4)[0]
    assert P.data.product_is_identity(invert_two_step(4, 0))


@pytest.mark.parametrize("n", range(0, 11))
def test_exchange_swaps_states(n, pairs, inverses):
    P0, P1 = pairs(n)
    assert exchange_conjugate(P0) == P1
    assert exchange_conjugate(P1) == P0
    assert exchange_conjugate(exchange_conjugate(P0)) == P0
    assert exchange_conjugate(inverses(n, 0)) == inverses(n, 1)


def test_exchange_on_identity():
    I = DyadicMatrix(np.eye(8, dtype=np.int64))
    assert exchange_conjugate(I) == I


def test_reverse_vector_entropy_example(pairs):
    from trapdoor.bounds import entropy_vector_direct

    h20 = entropy_vector_direct(pairs(2)[0]).entries
    h21 = entropy_vector_direct(pairs(2)[1]).entries
    assert h20 == [ZERO, ONE, Dyadic(3, 1), Dyadic(3, 1)]
    assert h20[::-1] == h21


def test_disjoint_support(pairs):
    P = pairs(2)[0]
    assert disjoint_support_check(P, "00", "11")
    assert not disjoint_support_check(P, "00", "01")
    assert disjoint_support_check(P, 1, 4)  # 1-based indices of 00 and 11
    P0 = pairs(0)[0]
    assert not disjoint_support_check(P0, 1, 1)
    with pytest.raises(ValueError):
        disjoint_support_check(P, 0, 1)  # 1-based: 0 is out of range
    assert disjoint_support_check(P, np.int64(1), 4)
    with pytest.raises(ValueError, match=r"^row index must be an integer, got 1\.0$"):
        disjoint_support_check(P, 1.0, 4)  # not a traceback from the array index
    with pytest.raises(ValueError):
        disjoint_support_check(P, "000", "111")


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=1))
def test_exchange_is_involution_property(n, s0):
    P = build_channel_matrix(n, s0)
    assert exchange_conjugate(exchange_conjugate(P)) == P


@pytest.mark.parametrize("n", range(13))
def test_single_state_build_equals_pair(n):
    pair = channel_pair(n)
    for s0 in (0, 1):
        P = build_channel_matrix(n, s0)
        assert P == pair[s0]
        assert P.data.exp == pair[s0].data.exp == n
        assert P.data.array.dtype == pair[s0].data.array.dtype


@pytest.mark.parametrize("n", range(0, 13))
def test_state_one_is_a_view_of_the_state_zero_array(n):
    P0, P1 = channel_pair(n)
    assert np.shares_memory(P0.data.array, P1.data.array)
    single = build_channel_matrix(n, 1).data.array
    assert np.array_equal(single.base, P0.data.array)  # the memory holds P(n, 0)


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("s0", (0, 1))
def test_inverses_of_both_states_view_the_state_zero_inverse(n, s0, pairs, inverses):
    inv = invert_channel_matrix(pairs(n)[s0]).array
    owner = inv if inv.base is None else inv.base
    assert np.shares_memory(inv, owner)
    assert np.array_equal(owner, inverses(n, 0).array)  # the memory holds P(n, 0)^-1


@pytest.mark.parametrize("s0", (0, 1))
@pytest.mark.parametrize("delta", (-1, 1))
def test_validate_rejects_a_row_off_by_one_step(s0, delta, pairs):
    # P(4, s0) at scale 2**4 has entries 0, 1, 2, 4, 8, 16; a row off by 2**-4
    # keeps every entry a power of two (1 -> 2 or 0 -> 1, 2 -> 1)
    P = pairs(4)[s0]
    bad = P.data.array.copy()
    row = bad[9]
    col = int(np.flatnonzero(row == (0 if delta > 0 else 2))[0])
    row[col] += delta
    Q = ChannelMatrix(4, s0, DyadicMatrix(bad, P.data.exp))
    with pytest.raises(ValueError, match="row does not sum to exactly 1"):
        Q.validate()
    P.validate()
