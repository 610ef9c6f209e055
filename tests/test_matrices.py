import pytest
from hypothesis import example, given, settings, strategies as st

from trapdoor.dyadic import Dyadic
from trapdoor.matrices import DyadicMatrix, _pack_rows, _unpack_row


def naive_matmul(a, b):
    n = len(a.int_rows)
    rows = [
        [sum(a.int_rows[i][k] * b.int_rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return DyadicMatrix(rows, a.exp + b.exp)


small_int_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(lambda rows: DyadicMatrix(rows, 0))


@given(st.lists(st.integers(min_value=-(2**50), max_value=2**50), min_size=1, max_size=20))
def test_pack_unpack_round_trip(row):
    lb = 8
    packed = _pack_rows([row], lb)[0]
    assert _unpack_row(packed, lb, len(row)) == row


class _Drawn:
    """Stand-in for st.data() in an explicit example: draw returns a fixed value."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


@settings(deadline=None)
@given(small_int_matrices, st.data())
# an all-zero left factor must still leave the packed right factor's entries room
@example(a=DyadicMatrix([[0]], 0), data=_Drawn(DyadicMatrix([[128]], 0)))
def test_packed_matmul_matches_naive(a, data):
    n = a.dim
    b = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda rows: DyadicMatrix(rows, 0))
    )
    assert a.matmul(b) == naive_matmul(a, b)
    assert a.product_equals(b, naive_matmul(a, b))


def test_matmul_scales_exponents():
    a = DyadicMatrix([[1, 0], [1, 1]], 1)  # [[1/2, 0], [1/2, 1/2]]
    b = DyadicMatrix([[2, 0], [0, 2]], 0)
    prod = a.matmul(b)
    assert prod.entry(0, 0) == 1
    assert prod.entry(1, 1) == 1
    assert prod == DyadicMatrix([[1, 0], [1, 1]], 0)


def test_with_exp_checks_divisibility():
    m = DyadicMatrix([[1, 0], [0, 2]], 1)
    with pytest.raises(ValueError):
        m.with_exp(0)
    assert DyadicMatrix([[2, 0], [0, 4]], 1).with_exp(0).int_rows == [[1, 0], [0, 2]]


def test_reduced_minimizes_exponent():
    m = DyadicMatrix([[4, 0], [2, 8]], 3)
    r = m.reduced()
    assert r == m
    assert r.exp == 2


def test_entry_and_rows():
    m = DyadicMatrix([[1, 0], [1, 2]], 1)
    assert m.entry(1, 0) == Dyadic(1, 1)
    assert m.row_dyadics(1) == [Dyadic(1, 1), Dyadic(1, 0)]
    assert m.row_sums() == [Dyadic(1, 1), Dyadic(3, 1)]


def test_reversed_conjugate_involutive():
    m = DyadicMatrix([[1, 2], [3, 4]], 0)
    r = m.reversed_conjugate()
    assert r.int_rows == [[4, 3], [2, 1]]
    assert r.reversed_conjugate() == m


def test_matvec_exact():
    m = DyadicMatrix([[1, 1], [0, 2]], 1)  # [[1/2,1/2],[0,1]]
    v = [Dyadic(1, 1), Dyadic(1, 2)]  # [1/2, 1/4]
    assert m.matvec(v) == [Dyadic(3, 3), Dyadic(1, 2)]


def test_identity_detection():
    assert DyadicMatrix.identity(4).is_identity()
    assert DyadicMatrix([[2, 0], [0, 2]], 1).is_identity()
    assert not DyadicMatrix([[1, 0], [1, 1]], 0).is_identity()


def test_non_square_rejected():
    with pytest.raises(ValueError):
        DyadicMatrix([[1, 2, 3], [4, 5, 6]], 0)
