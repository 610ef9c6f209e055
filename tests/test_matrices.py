import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import _pack_rows, _unpack_row, row_dyadics, row_sums
from trapdoor.channel import build_channel_matrix, exchange_conjugate, invert_channel_matrix
from trapdoor.dyadic import Dyadic
from trapdoor import matrices
from trapdoor.matrices import DyadicMatrix, exact_product


def naive_matmul(a, b):
    """a @ b in Python ints, row by row: the rows of b weighted by the non-zero entries of a's row."""
    rows = []
    for row in a.int_rows:
        acc = [0] * b.dim
        for k, v in enumerate(row):
            if v:
                acc = [x + v * y for x, y in zip(acc, b.int_rows[k])]
        rows.append(acc)
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
    assert Dyadic(int(prod.array[0, 0]), prod.exp) == 1
    assert Dyadic(int(prod.array[1, 1]), prod.exp) == 1
    assert prod == DyadicMatrix([[1, 0], [1, 1]], 0)


def test_with_exp_checks_divisibility():
    m = DyadicMatrix([[1, 0], [0, 2]], 1)
    with pytest.raises(ValueError):
        m.with_exp(0)
    assert DyadicMatrix([[2, 0], [0, 4]], 1).with_exp(0).int_rows == [[1, 0], [0, 2]]


def test_entry_and_rows():
    m = DyadicMatrix([[1, 0], [1, 2]], 1)
    assert Dyadic(int(m.array[1, 0]), m.exp) == Dyadic(1, 1)
    assert row_dyadics(m, 1) == [Dyadic(1, 1), Dyadic(1, 0)]
    assert row_sums(m) == [Dyadic(1, 1), Dyadic(3, 1)]
    assert not m.rows_sum_to_one()
    assert DyadicMatrix([[1, 1], [0, 2]], 1).rows_sum_to_one()


def test_exchange_conjugate_involutive():
    m = DyadicMatrix([[1, 2], [3, 4]], 0)
    r = exchange_conjugate(m)
    assert r.int_rows == [[4, 3], [2, 1]]
    assert exchange_conjugate(r) == m


def test_matvec_exact():
    m = DyadicMatrix([[1, 1], [0, 2]], 1)  # [[1/2,1/2],[0,1]]
    v = [Dyadic(1, 1), Dyadic(1, 2)]  # [1/2, 1/4]
    assert m.matvec(v) == [Dyadic(3, 3), Dyadic(1, 2)]


def test_identity_detection():
    assert DyadicMatrix(np.eye(4, dtype=np.int64)).is_identity()
    assert DyadicMatrix([[2, 0], [0, 2]], 1).is_identity()
    assert not DyadicMatrix([[1, 0], [1, 1]], 0).is_identity()


def test_non_square_rejected():
    with pytest.raises(ValueError):
        DyadicMatrix([[1, 2, 3], [4, 5, 6]], 0)


def test_exact_product_rejects_unequal_inner_dimensions():
    # the column span trimming must not slice a longer right factor to fit
    with pytest.raises(ValueError, match=r"inner dimensions differ: \(4, 4\) @ \(8, 1\)"):
        exact_product(np.eye(4, dtype=np.int64), np.arange(8)[:, None])


def test_exact_product_of_the_int64_minimum():
    # np.abs wraps -2**63 in int64, so its limbs must come from its Python-int magnitude
    a = np.array([[-(2**63), 0], [0, 1]], dtype=np.int64)
    b = np.array([[3], [2**60]], dtype=np.int64)
    assert exact_product(a, b).tolist() == [[-3 * 2**63], [2**60]]
    assert exact_product(b.T.copy(), a).tolist() == [[-3 * 2**63, 2**60]]


# Magnitudes clustered where the exact product changes route: small entries
# and 2^26 fit one float64 product in small dimensions, 2^53 needs limbs of the
# right factor, 2^63 and 2^70 need limbs of both factors and Python-int sums;
# 0 gives all-zero factors.
_MAGNITUDE_BITS = st.sampled_from([0, 3, 26, 53, 63, 70])


def _entries(bits):
    if bits == 0:
        return st.just(0)
    near = st.integers(min_value=(1 << bits) - (1 << (bits // 2)), max_value=min(1 << bits, 1 << 70))
    magnitude = st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << bits), near)
    return st.tuples(magnitude, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


def _rows(n, bits):
    row = st.lists(_entries(bits), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


@settings(deadline=None, max_examples=40)
@given(st.data(), st.integers(min_value=1, max_value=40), _MAGNITUDE_BITS, _MAGNITUDE_BITS,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_exact_product_matches_naive(data, n, a_bits, b_bits, a_exp, b_exp):
    a = DyadicMatrix(data.draw(_rows(n, a_bits)), a_exp)
    b = DyadicMatrix(data.draw(_rows(n, b_bits)), b_exp)
    want = naive_matmul(a, b)
    assert a.matmul(b) == want
    assert a.product_equals(b, want)
    off = [list(row) for row in want.int_rows]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    off[i][j] += data.draw(st.sampled_from([-1, 1]))
    assert not a.product_equals(b, DyadicMatrix(off, want.exp))
    assert a.product_is_identity(b) == want.is_identity()
    col = data.draw(st.integers(0, n - 1))
    vec = [Dyadic(row[col], b.exp) for row in b.int_rows]
    assert a.matvec(vec) == [Dyadic(row[col], want.exp) for row in want.int_rows]


@settings(deadline=None, max_examples=40)
@given(st.data(), st.integers(min_value=1, max_value=40), _MAGNITUDE_BITS,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_product_is_identity_on_inverse_pairs(data, n, bits, a_exp, b_exp):
    # (I + N)(I - N) == I when N lives in the top-right block, since then N @ N == 0
    h = data.draw(st.integers(min_value=0, max_value=n))
    top_right = data.draw(st.lists(st.lists(_entries(bits), min_size=n - h, max_size=n - h),
                                   min_size=h, max_size=h))

    def factor(sign, exp):
        rows = [[(1 << exp) if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(h):
            rows[i][h:] = [sign * (v << exp) for v in top_right[i]]
        return rows

    a, b = DyadicMatrix(factor(1, a_exp), a_exp), factor(-1, b_exp)
    assert a.product_is_identity(DyadicMatrix(b, b_exp))
    assert a.matmul(DyadicMatrix(b, b_exp)).is_identity()
    if h and n > h:
        b[0][n - 1] += 1
        assert not a.product_is_identity(DyadicMatrix(b, b_exp))


# -- past one row block -------------------------------------------------------

# 300 rows make three blocks of 128 rows, each multiplied over its own span of
# non-zero columns; magnitudes 2**53 and 2**63 need limbs and Python-int sums
_ROWS = 300
_BIG_BITS = st.sampled_from([3, 53, 63])


def _magnitude(rng, bits):
    top = 1 << bits
    m = (top, top - 1, int(rng.integers(1, 1 << 62)) % top or 1)[int(rng.integers(3))]
    return -m if rng.integers(2) else m


def _sparse(rng, bits, lower, per_row=6):
    """A _ROWS x _ROWS object array with per_row non-zero entries in each row:
    in columns up to the diagonal when lower, from the diagonal on otherwise."""
    out = np.zeros((_ROWS, _ROWS), dtype=object)
    for i in range(_ROWS):
        for j in rng.integers(0, i + 1, per_row) if lower else rng.integers(i, _ROWS, per_row):
            out[i, j] = _magnitude(rng, bits)
    return out


def _left_factor(rng, kind, bits):
    """A left factor of the given structure; the last two are views of a
    block lower triangular array, as the package's transposed and
    exchange-reversed arrays are."""
    arr = _sparse(rng, bits, lower=kind != "upper")
    if kind == "zero block":
        arr[128:256] = 0
    view = {"transposed": lambda x: x.T, "reversed": lambda x: x[::-1, ::-1]}.get(kind)
    m = DyadicMatrix(arr, 2)
    return DyadicMatrix(view(m.array), 2) if view else m


def _dense(rng, bits):
    arr = rng.integers(-(1 << 20), 1 << 20, (_ROWS, _ROWS)).astype(object) << max(0, bits - 20)
    for i, j in rng.integers(0, _ROWS, (8, 2)):
        arr[i, j] = _magnitude(rng, bits)
    return arr


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["lower", "upper", "zero block", "transposed", "reversed"]),
       _BIG_BITS, _BIG_BITS)
def test_products_past_one_row_block_match_naive(seed, kind, a_bits, b_bits):
    rng = np.random.default_rng(seed)
    a = _left_factor(rng, kind, a_bits)
    assert kind not in ("transposed", "reversed") or not a.array.flags.c_contiguous
    b = DyadicMatrix(_dense(rng, b_bits), 1)
    want = naive_matmul(a, b)
    assert exact_product(a.array, b.array).tolist() == want.int_rows
    assert a.matmul(b) == want
    assert a.product_equals(b, want)
    off = np.array(want.int_rows, dtype=object)
    off[tuple(rng.integers(0, _ROWS, 2))] += 1
    assert not a.product_equals(b, DyadicMatrix(off, want.exp))
    assert a.product_is_identity(b) == want.is_identity()


@settings(deadline=None, max_examples=12)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["upper", "lower", "transposed", "reversed"]), _BIG_BITS,
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_product_is_identity_past_one_row_block(seed, kind, bits, a_exp, b_exp):
    # (I + N)(I - N) == I when N lives in the top-right block, since then N @ N == 0;
    # the transposes and the exchange-reversed arrays multiply to I as well
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, _ROWS))
    top_right = np.zeros((_ROWS, _ROWS), dtype=object)
    top_right[:h, h:] = _sparse(rng, bits, lower=False)[:h, : _ROWS - h]
    view = {"upper": lambda x: x, "lower": lambda x: np.ascontiguousarray(x.T),
            "transposed": np.transpose, "reversed": lambda x: x[::-1, ::-1]}[kind]
    eye = np.eye(_ROWS, dtype=np.int64).astype(object)

    def factor(sign, exp):
        return view(DyadicMatrix((eye + sign * top_right) << exp, exp).array)

    a, b = DyadicMatrix(factor(1, a_exp), a_exp), factor(-1, b_exp)
    assert a.product_is_identity(DyadicMatrix(b, b_exp))
    assert a.matmul(DyadicMatrix(b, b_exp)).is_identity()
    bad = b.astype(object)
    bad[tuple(rng.integers(0, _ROWS, 2))] += 1
    assert not a.product_is_identity(DyadicMatrix(bad, b_exp))


@pytest.mark.parametrize("row", [640, 1023])
def test_identity_check_reads_rows_only_the_lower_blocks_multiply(row):
    # P(10, 0) is lower triangular: its first four row blocks have no entry in
    # these columns, so only the lower blocks read this row of the inverse
    P = build_channel_matrix(10, 0)
    assert not P.data.array[:512, row].any()
    inv = invert_channel_matrix(P)
    bad = inv.array.copy()
    bad[row, 0] += 1
    assert P.data.product_is_identity(inv)
    assert not P.data.product_is_identity(DyadicMatrix(bad, inv.exp))


def test_int_rows_is_one_cached_list_view():
    m = DyadicMatrix([[1, -2], [3, 1 << 40]], 2)
    rows = m.int_rows
    assert rows is m.int_rows
    assert rows == m.array.tolist() == [[1, -2], [3, 1 << 40]]
    assert all(type(v) is int for row in rows for v in row)
    assert m.array.dtype == np.int64 and not m.array.flags.writeable


@pytest.mark.parametrize("edge", [1 << 63, 1 << 70, -(1 << 63), -(1 << 80)])
def test_object_dtype_beyond_int64(edge):
    m = DyadicMatrix([[edge, 1], [0, 1]], 0)
    assert m.array.dtype == object  # -2**63 too: its magnitude leaves int64
    one = DyadicMatrix(np.eye(2, dtype=np.int64))
    assert m.matmul(one) == m and one.matmul(m) == m
    assert m.matmul(one).array.dtype == object
    prod = DyadicMatrix([[2 * edge, 2], [0, 2]], 1)
    assert m.product_equals(one, prod)
    assert not m.product_equals(one, DyadicMatrix([[2 * edge + 2, 2], [0, 2]], 1))
    assert m.with_exp(3) == m and m.with_exp(3).int_rows[0][0] == edge << 3
    assert m.with_exp(3).with_exp(0).int_rows == m.int_rows
    assert m != DyadicMatrix([[edge + 1, 1], [0, 1]], 0)
    square = m.matmul(m)
    assert square.int_rows == [[edge * edge, edge + 1], [0, 1]]
    assert m.array[0, 0] == edge and type(m.array[0, 0]) is int


def test_with_exp_widens_near_the_dtype_limit():
    m = DyadicMatrix(np.array([[(1 << 31) - 1, 0], [0, 1 << 30]], dtype=np.int32), 0)
    assert m.array.dtype == np.int32
    up = m.with_exp(1)
    assert up.array.dtype == np.int64 and up.int_rows == [[(1 << 32) - 2, 0], [0, 1 << 31]]
    assert up == m and up.with_exp(0).array.dtype == np.int32
    assert DyadicMatrix([[1 << 62]], 0).with_exp(1).array.dtype == object


def test_public_results_are_python_types():
    m = DyadicMatrix([[2, 0], [1, 1]], 1)
    inv = DyadicMatrix([[1, 0], [-1, 2]], 0)
    assert m.product_is_identity(inv) is True
    assert m.product_equals(inv, DyadicMatrix([[1, 1], [0, 1]], 0)) is False
    values = m.matvec([Dyadic(1), Dyadic(1, 1)]) + row_dyadics(m, 1)
    assert all(type(d.num) is int for d in values)
    assert m.rows_sum_to_one() is True


def test_right_factor_is_cut_once_when_later_row_blocks_have_larger_sums(monkeypatch):
    # the first block of 128 rows has row sums 8, the second 8 * 2**20, so the
    # second needs narrower limbs of b (entries near 2**50) than the first
    a = np.full((256, 4), 2, dtype=np.int64)
    a[128:] <<= 20
    a[200, 1] = -a[200, 1]
    b = np.array([[(1 << 50) - 1, -(1 << 49) + 3, 7]] * 4, dtype=np.int64)
    b[2, 0] = 5
    cuts = []
    cut = matrices._limbs

    def counted(x, width):
        if x is b:
            cuts.append(width)
        return cut(x, width)

    monkeypatch.setattr(matrices, "_limbs", counted)
    want = [[sum(int(p) * int(q) for p, q in zip(row, col)) for col in b.T] for row in a]
    assert exact_product(a, b).tolist() == want
    assert len(cuts) == 1


@pytest.mark.parametrize("rows", ([[1, 2], [3]], [[1], [2, 3]], [[1, 2, 3], [4, 5, 6]], [1, 2], [[[1]]]))
def test_a_matrix_that_is_not_square_says_so(rows):
    with pytest.raises(ValueError, match="matrix must be square"):
        DyadicMatrix(rows)


@pytest.mark.parametrize("edge", [1 << 63, 1 << 70, -(1 << 80)])
def test_rows_sum_to_one_past_int64(edge):
    assert DyadicMatrix([[edge, 1 - edge], [0, 1]], 0).rows_sum_to_one()
    assert not DyadicMatrix([[edge, 2 - edge], [0, 1]], 0).rows_sum_to_one()
    assert DyadicMatrix([[edge, (1 << 64) - edge], [0, 1 << 64]], 64).rows_sum_to_one()
    assert not DyadicMatrix([[1 << 63, 1 << 63], [0, 1 << 64]], 70).rows_sum_to_one()


@pytest.mark.parametrize("n", (8, 9))
def test_identity_check_reads_a_changed_zero_of_the_right_factor(n):
    # P(n,0)^-1 is lower triangular; a non-zero entry put above its diagonal
    # must still reach the product, whatever zero spans the block products skip
    P = build_channel_matrix(n, 0)
    inv = invert_channel_matrix(P)
    assert P.data.product_is_identity(inv)
    e = P.data.exp + inv.exp
    for row, col in ((0, P.dim - 1), (P.dim // 2 - 1, P.dim // 2), (130, 200)):
        bad = inv.array.copy()
        assert bad[row, col] == 0
        bad[row, col] = 1
        assert not P.data.product_is_identity(DyadicMatrix(bad, inv.exp)), (row, col)
        # P @ bad = P @ inv + P @ (the one new entry) = 2**e I + column row of P, at column col
        want = np.eye(P.dim, dtype=np.int64) << e
        want[:, col] += P.data.array[:, row]
        assert np.array_equal(P.data.matmul(DyadicMatrix(bad, inv.exp)).with_exp(e).array, want)

