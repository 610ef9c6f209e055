"""The shared input rules: one integer rule for scalars and one for entries,
one cap check, one state check, one bit-string check.

Each table runs every entry point that takes the input, so a copy of a rule
that drifts from the others shows up as one failing row.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import channel_row_from_enumeration, row_dyadics
from test_bounds import _NOT_INT64
from trapdoor import bounds, config, enumeration, fractal, optimize, serialization, verify
from trapdoor.channel import (
    ChannelMatrix,
    build_channel_matrix,
    channel_pair,
    invert_channel_matrix,
    invert_two_step,
)
from trapdoor.dyadic import Dyadic
from trapdoor.fractal import ShapeGrid
from trapdoor.matrices import DyadicMatrix

# -- exact integers --------------------------------------------------------------

# every entry point that takes a length, count, resolution, side or exponent,
# called with the value 2 in that place
INTEGER_SCALARS = {
    "build_channel_matrix": lambda v: build_channel_matrix(v, 0),
    "channel_pair": channel_pair,
    "invert_two_step": lambda v: invert_two_step(v, 0),
    "ChannelMatrix": lambda v: ChannelMatrix(v, 0, build_channel_matrix(2, 0).data),
    "channel_row_from_enumeration": lambda v: channel_row_from_enumeration(v, 0, "01"),
    "enumerate_all": lambda v: enumeration.enumerate_all(v, 0),
    "entropy_vector_recursive_step": bounds.entropy_vector_recursive_step,
    "entropy_vector_recursive_even": bounds.entropy_vector_recursive_even,
    "entropy_state1": bounds.entropy_state1,
    "omega_recursive": bounds.omega_recursive,
    "omega_state1": bounds.omega_state1,
    "EntropyVector": lambda v: bounds.EntropyVector(v, 0, [0, 2, 3, 3]),
    "OmegaVector": lambda v: bounds.OmegaVector(v, 0, [0, -2, -2, 0]),
    "upper_bound": bounds.upper_bound,
    "d_vector": bounds.d_vector,
    "closed_form": bounds.closed_form,
    "closed_form_S": bounds.closed_form_S,
    "ShapeGrid": lambda v: ShapeGrid(v, np.zeros((4, 4), dtype=np.int8)),
    "ifs_iterate": lambda v: fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), v),
    "run_checks": lambda v: verify.run_checks(max_n=v, names=["channel matrices stochastic"]),
    "blahut_arimoto": lambda v: optimize.blahut_arimoto(build_channel_matrix(1, 0), max_iter=v),
    "png_bytes_width": lambda v: serialization.png_bytes(bytes(4), v, 2),
    "png_bytes_height": lambda v: serialization.png_bytes(bytes(4), 2, v),
    "Dyadic_num": lambda v: Dyadic(v, 1),
    "Dyadic_exp": lambda v: Dyadic(1, v),
    "DyadicMatrix_exp": lambda v: DyadicMatrix([[1]], v),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", None, Fraction(2)], ids=repr)
@pytest.mark.parametrize("name", sorted(INTEGER_SCALARS))
def test_non_integer_scalars_rejected_everywhere(name, bad):
    # never rounded, parsed or kept, and never a TypeError from deeper down
    with pytest.raises(ValueError, match=f"must be an integer.*got {re.escape(repr(bad))}"):
        INTEGER_SCALARS[name](bad)


@pytest.mark.parametrize("name", sorted(INTEGER_SCALARS))
def test_numpy_integer_scalars_accepted_everywhere(name):
    assert INTEGER_SCALARS[name](np.int64(2)) is not None


def test_integer_likes_become_plain_ints():
    for v in (2, np.int64(2), np.uint8(2)):
        assert type(config.integer(v, "x")) is int and config.integer(v, "x") == 2
    assert config.integer(True, "x") == 1 and type(config.integer(True, "x")) is int
    d = Dyadic(np.int64(4), np.int8(1))
    assert d == Dyadic(2) and type(d.num) is int and type(d.exp) is int
    assert repr(Dyadic(True)) == "Dyadic(1, 0)"
    P = build_channel_matrix(np.int64(2), 0)
    assert P == build_channel_matrix(2, 0) and type(P.n) is int
    assert type(bounds.upper_bound(np.int64(3)).n) is int
    assert type(fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), np.int64(1)).resolution) is int


# _NOT_INT64's rows that are not integers at all, and a Fraction; integers past
# int64 are valid matrix entries and grid codes (as Python ints)
_NON_INTEGER_ROWS = ("float", "numpy float", "bool", "numpy bool", "str", "None", "float array", "bool array", "str array")
NOT_INTEGERS = {k: _NOT_INT64[k] for k in _NON_INTEGER_ROWS} | {"Fraction": [Fraction(-2), 0]}


def _square(row, as_array):
    """The two entries of row over a row of zeros: an ndarray row stays an
    ndarray of its dtype; a list row is given as lists or as an object array."""
    if isinstance(row, np.ndarray):
        return np.stack([row, np.zeros_like(row)])
    rows = [list(row), [0, 0]]
    return np.array(rows, dtype=object) if as_array else rows


INTEGER_ENTRIES = {
    "DyadicMatrix_list": lambda row: DyadicMatrix(_square(row, False)),
    "DyadicMatrix_array": lambda row: DyadicMatrix(_square(row, True)),
    "ShapeGrid_list": lambda row: ShapeGrid(1, _square(row, False)),
    "ShapeGrid_array": lambda row: ShapeGrid(1, _square(row, True)),
    "EntropyVector": lambda row: bounds.EntropyVector(1, 0, row),
    "OmegaVector": lambda row: bounds.OmegaVector(1, 1, row),
    "exp2_sum": bounds.exp2_sum,
}


@pytest.mark.parametrize("bad", sorted(NOT_INTEGERS))
@pytest.mark.parametrize("name", sorted(INTEGER_ENTRIES))
def test_non_integer_entries_rejected_everywhere(name, bad):
    with pytest.raises(ValueError, match="must be integers, got"):
        INTEGER_ENTRIES[name](NOT_INTEGERS[bad])


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint8])
def test_integer_arrays_pass_unchanged(dtype):
    a = np.arange(6, dtype=dtype).reshape(2, 3)
    assert config.integer_array(a, "entries") is a


def test_integer_array_scans_everything_else():
    out = config.integer_array([[1, 2], [np.int32(3), 4]], "entries")
    assert out.dtype == np.int64 and out.tolist() == [[1, 2], [3, 4]]
    wide = config.integer_array([np.uint64(2**64 - 1), 2**70], "entries")
    assert wide.dtype == object and [type(v) for v in wide] == [int, int]
    assert wide.tolist() == [2**64 - 1, 2**70]
    with pytest.raises(ValueError, match=r"^weights must be integers, got True$"):
        config.integer_array([1, True], "weights")


# -- caps ------------------------------------------------------------------------

# (env var, lowered cap, call at a given length); each call allocates 4**n or
# 2**n cells for length n, so the cap must be checked where that happens
CAPPED = {
    "build_channel_matrix": (config.MATRIX_CAP_ENV, 3, lambda n: build_channel_matrix(n, 0)),
    "channel_pair": (config.MATRIX_CAP_ENV, 3, channel_pair),
    "invert_two_step": (config.MATRIX_CAP_ENV, 4, lambda n: invert_two_step(n, 1)),
    "ifs_iterate": (
        config.MATRIX_CAP_ENV,
        4,
        lambda k: fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), k),
    ),
    "ifs_iterate_from_resolution_2": (
        config.MATRIX_CAP_ENV,
        4,
        lambda k: fractal.ifs_iterate(
            fractal.trapdoor_ifs(0), fractal.rho_representation(build_channel_matrix(2, 0)), k - 2
        ),
    ),
    "omega_recursive": (config.BOUND_CAP_ENV, 5, bounds.omega_recursive),
    "omega_state1": (config.BOUND_CAP_ENV, 5, bounds.omega_state1),
    "entropy_vector_recursive_step": (config.BOUND_CAP_ENV, 5, bounds.entropy_vector_recursive_step),
    "entropy_vector_recursive_even": (config.BOUND_CAP_ENV, 4, bounds.entropy_vector_recursive_even),
    "entropy_state1": (config.BOUND_CAP_ENV, 5, bounds.entropy_state1),
    "upper_bound": (config.BOUND_CAP_ENV, 5, lambda n: bounds.upper_bound(n, include_d=False)),
    "d_vector": (config.BOUND_CAP_ENV, 5, bounds.d_vector),
    "enumerate_all": (config.MATRIX_CAP_ENV, 4, lambda n: enumeration.enumerate_all(n, 1)),
    "generate_outputs": (config.INPUT_CAP_ENV, 4, lambda n: enumeration.generate_outputs(("10" * n)[:n], 0)),
    "channel_row_from_enumeration": (
        config.INPUT_CAP_ENV,
        4,
        lambda n: channel_row_from_enumeration(n, 1, "1" * n),
    ),
}


def _step(name):
    # the even-only recursions and the two-step inverse skip odd lengths
    return 2 if name in ("invert_two_step", "entropy_vector_recursive_even") else 1


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_cap_is_checked_where_memory_is_allocated(name, monkeypatch):
    env, limit, call = CAPPED[name]
    monkeypatch.setenv(env, str(limit))
    assert call(limit) is not None  # the cap itself is allowed
    over = limit + _step(name)
    with pytest.raises(ValueError, match=rf"{over} exceeds the cap {limit} \(.*override with {env}\)"):
        call(over)


@pytest.mark.parametrize(
    "call, env",
    [
        (lambda: build_channel_matrix(config.DEFAULT_MATRIX_CAP + 1, 0), config.MATRIX_CAP_ENV),
        (lambda: bounds.upper_bound(config.DEFAULT_BOUND_CAP + 1), config.BOUND_CAP_ENV),
        (lambda: enumeration.generate_outputs("0" * (config.DEFAULT_INPUT_CAP + 1), 0), config.INPUT_CAP_ENV),
    ],
    ids=["matrix", "bound", "input"],
)
def test_default_caps(call, env, monkeypatch):
    monkeypatch.delenv(env, raising=False)
    with pytest.raises(ValueError, match=f"exceeds the cap .*{env}"):
        call()


@pytest.mark.parametrize(
    "call, cost",
    [
        (lambda: build_channel_matrix(4, 0), "storage is 4**4 entries"),
        (lambda: enumeration.enumerate_all(4, 0), "its array stores 4**4 entries"),
        (lambda: bounds.omega_recursive(4), "the vector has 2**4 entries"),
        (lambda: enumeration.generate_outputs("0101", 0), "worst-case support is 2**4"),
        (lambda: fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), 4), "4**4 bytes"),
    ],
    ids=["matrix", "enumerate_all", "bound", "input", "grid"],
)
def test_cap_message_states_the_cost(call, cost, monkeypatch):
    for env in (config.MATRIX_CAP_ENV, config.BOUND_CAP_ENV, config.INPUT_CAP_ENV):
        monkeypatch.setenv(env, "3")
    with pytest.raises(ValueError, match=re.escape(cost)):
        call()


@pytest.mark.parametrize("raw", ["junk", "-1", "2.5"])
def test_cap_env_must_be_a_non_negative_integer(raw, monkeypatch):
    monkeypatch.setenv(config.MATRIX_CAP_ENV, raw)
    with pytest.raises(ValueError, match=config.MATRIX_CAP_ENV):
        build_channel_matrix(2, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_channel_matrix(-1, 0),
        lambda: channel_pair(-1),
        lambda: invert_two_step(-2, 0),
        lambda: bounds.omega_recursive(-1),
        lambda: bounds.entropy_vector_recursive_step(-1),
        lambda: bounds.entropy_vector_recursive_even(-2),
        lambda: bounds.d_vector(-1),
        lambda: enumeration.enumerate_all(-1, 0),
        lambda: fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), -1),
    ],
    ids=[
        "build_channel_matrix",
        "channel_pair",
        "invert_two_step",
        "omega_recursive",
        "entropy_vector_recursive_step",
        "entropy_vector_recursive_even",
        "d_vector",
        "enumerate_all",
        "ifs_iterate",
    ],
)
def test_negative_lengths_rejected(call):
    with pytest.raises(ValueError, match="must be non-negative"):
        call()


def test_verify_passes_under_a_lowered_bound_cap(monkeypatch):
    monkeypatch.setenv(config.BOUND_CAP_ENV, "6")
    results = verify.run_checks(max_n=4)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    (bound,) = [r for r in results if r.name == "bound identities"]
    assert "n <= 6" in bound.detail


# -- per-letter lengths ----------------------------------------------------------

# every entry point that divides by the block length, called at n = 0
PER_LETTER = {
    "mutual_information": lambda: optimize.mutual_information(build_channel_matrix(0, 0), [1.0]),
    "mutual_information_exact": lambda: optimize.mutual_information_exact(
        build_channel_matrix(0, 0), [1]
    ),
    "blahut_arimoto": lambda: optimize.blahut_arimoto(build_channel_matrix(0, 0)),
    "upper_bound": lambda: bounds.upper_bound(0),
    "closed_form": lambda: bounds.closed_form(0),
    "closed_form_S": lambda: bounds.closed_form_S(0),
}


@pytest.mark.parametrize("name", sorted(PER_LETTER))
def test_per_letter_quantities_need_a_positive_length(name):
    with pytest.raises(ValueError) as exc:
        PER_LETTER[name]()
    assert str(exc.value) == "a per-letter quantity needs block length n >= 1"


# -- initial state ---------------------------------------------------------------


def _p(n, s0):
    return build_channel_matrix(n, s0)


STATE_ENTRY_POINTS = {
    "ChannelMatrix": lambda s: ChannelMatrix(1, s, _p(1, 0).data),
    "build_channel_matrix": lambda s: build_channel_matrix(2, s),
    "invert_two_step": lambda s: invert_two_step(2, s),
    "upper_bound": lambda s: bounds.upper_bound(3, s),
    "d_vector": lambda s: bounds.d_vector(2, s, inverse=invert_channel_matrix(_p(2, 0))),
    "constraint_check": lambda s: bounds.constraint_check(2, s, [0.25] * 4),
    "constraint_check_with_P": lambda s: bounds.constraint_check(2, s, [0.25] * 4, P=_p(2, 0)),
    "generate_outputs": lambda s: enumeration.generate_outputs("01", s),
    "feasibility": lambda s: enumeration.feasibility("01", "01", s),
    "enumerate_all": lambda s: enumeration.enumerate_all(2, s),
    "channel_row_from_enumeration": lambda s: channel_row_from_enumeration(2, s, "01"),
    "trapdoor_ifs": lambda s: fractal.trapdoor_ifs(s),
    "EntropyVector": lambda s: bounds.EntropyVector(1, s, [0, 0]),
    "OmegaVector": lambda s: bounds.OmegaVector(1, s, [0, 0]),
}


@pytest.mark.parametrize("bad", [2, -1, 1.0, "1", None], ids=repr)
@pytest.mark.parametrize("name", sorted(STATE_ENTRY_POINTS))
def test_bad_state_rejected_everywhere(name, bad):
    with pytest.raises(ValueError, match="^initial state must be 0 or 1$"):
        STATE_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("state", [True, np.int64(1), np.int8(1)], ids=repr)
def test_integer_likes_act_as_their_state(state):
    assert enumeration.feasibility("01", "01", state) == Dyadic(1, 1)
    assert enumeration.generate_outputs("01", state) == enumeration.generate_outputs("01", 1)
    assert channel_row_from_enumeration(2, state, "01") == row_dyadics(_p(2, 1), 1)
    b = bounds.upper_bound(3, state)
    assert b.s0 == 1 and type(b.s0) is int
    P = build_channel_matrix(2, state)
    assert P == _p(2, 1) and type(P.s0) is int
    assert invert_two_step(2, state) == invert_channel_matrix(_p(2, 1))
    assert fractal.trapdoor_ifs(state) == fractal.trapdoor_ifs(1)


def test_check_state_returns_a_plain_int():
    for s in (0, 1, False, True, np.int64(0), np.uint8(1)):
        out = config.check_state(s)
        assert type(out) is int and out == s


def test_constraint_check_rejects_a_mismatched_matrix():
    with pytest.raises(ValueError, match=re.escape("P(2, 0), expected P(3, 0)")):
        bounds.constraint_check(3, 0, [0.25] * 4, P=_p(2, 0))
    with pytest.raises(ValueError, match=re.escape("P(2, 0), expected P(2, 1)")):
        bounds.constraint_check(2, 1, [0.25] * 4, P=_p(2, 0))
    assert bounds.constraint_check(2, 1, [0.25] * 4, P=_p(2, 1))


# -- bit strings -----------------------------------------------------------------

BIT_ENTRY_POINTS = {
    "row_index": lambda b: _p(2, 0).row_index(b),
    "generate_outputs": lambda b: enumeration.generate_outputs(b, 0),
    "feasibility_input": lambda b: enumeration.feasibility(b, "01", 0),
    "feasibility_output": lambda b: enumeration.feasibility("01", b, 0),
    "channel_row_from_enumeration": lambda b: channel_row_from_enumeration(2, 0, b),
}


@pytest.mark.parametrize("bad", ["", "012", "0 1", "ab", 10, None, b"01"], ids=repr)
@pytest.mark.parametrize("name", sorted(BIT_ENTRY_POINTS))
def test_bad_bit_strings_rejected_everywhere(name, bad):
    with pytest.raises(ValueError, match="string over 0/1|non-empty|bit string"):
        BIT_ENTRY_POINTS[name](bad)


def test_check_bits_messages():
    assert config.check_bits("0110") == "0110"
    assert config.check_bits("", "row", 0) == ""
    with pytest.raises(ValueError, match=re.escape("input must be a string over 0/1, got '012'")):
        config.check_bits("012")
    with pytest.raises(ValueError, match="^output must be non-empty$"):
        config.check_bits("", "output")
    with pytest.raises(ValueError, match=re.escape("input must be a length-3 bit string, got '01'")):
        config.check_bits("01", "input", 3)


def test_row_index_of_the_empty_string():
    assert _p(0, 1).row_index("") == 0
    assert _p(2, 0).row_index("10") == 2



# -- probability vectors ---------------------------------------------------------------

# each entry point of the probability-vector rule, on P(1, 0) with a length-2 vector
DISTRIBUTION_ENTRY_POINTS = {
    "constraint_check": lambda p: bounds.constraint_check(1, 0, p),
    "mutual_information_exact": lambda p: optimize.mutual_information_exact(_p(1, 0), p),
    "mutual_information": lambda p: optimize.mutual_information(_p(1, 0), p),
    "blahut_arimoto": lambda p: optimize.blahut_arimoto(_p(1, 0), max_iter=1, init=p),
}


@pytest.mark.parametrize(
    "p, entry, shown",
    [
        ([True, False], 0, "True"),
        ([1, False], 1, "False"),
        (np.array([True, False]), 0, "np.True_"),
        (["0.5", "0.5"], 0, "'0.5'"),
        ([0.5, "1/2"], 1, "'1/2'"),
    ],
    ids=["bool", "bool-after-int", "numpy-bool-array", "string", "string-after-float"],
)
@pytest.mark.parametrize("name", sorted(DISTRIBUTION_ENTRY_POINTS))
def test_bools_and_strings_are_not_distribution_entries(name, p, entry, shown):
    with pytest.raises(ValueError) as exc:
        DISTRIBUTION_ENTRY_POINTS[name](p)
    assert str(exc.value) == f"distribution entry {entry} is {shown}, not a finite number"


@pytest.mark.parametrize("name", sorted(DISTRIBUTION_ENTRY_POINTS))
def test_distribution_length_has_one_message(name):
    for p in ([0.5, 0.25, 0.25], np.array([1.0]), np.array([[0.5, 0.5]])):
        with pytest.raises(ValueError, match=r"^distribution must have length 2$"):
            DISTRIBUTION_ENTRY_POINTS[name](p)


@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name in sorted(DISTRIBUTION_ENTRY_POINTS) for kind in ("None", "float", "iterator")
     if (name, kind) != ("blahut_arimoto", "None")],  # init=None is the uniform start
)
def test_a_distribution_without_a_length_is_a_value_error(name, kind):
    p = {"None": None, "float": 0.5, "iterator": iter([0.5, 0.5])}[kind]
    with pytest.raises(ValueError, match=r"^distribution must be a sequence of 2 numbers, got "):
        DISTRIBUTION_ENTRY_POINTS[name](p)


@pytest.mark.parametrize("name", ["mutual_information", "blahut_arimoto"])
@pytest.mark.parametrize(
    "p, entry",
    [([10**400, 0], 0), ([1, -(10**400)], 1), ([Fraction(10**400, 3), 1], 0)],
    ids=["int", "negative-int", "fraction"],
)
def test_a_float_entry_past_the_float_range_is_a_value_error(name, p, entry):
    with pytest.raises(ValueError, match=rf"^distribution entry {entry} is past the float range$"):
        DISTRIBUTION_ENTRY_POINTS[name](p)


def test_exact_entry_points_take_entries_past_the_float_range():
    # the exact rule has no float range: 10**400 and 0 pass, and the sum check names the total
    assert bounds.constraint_check(1, 0, [10**400, 0])
    with pytest.raises(ValueError, match="^distribution must sum to exactly 1$"):
        optimize.mutual_information_exact(_p(1, 0), [10**400, 0])


@pytest.mark.parametrize(
    "p, want",
    [
        ([Fraction(3, 4), Fraction(1, 4)], [0.75, 0.25]),
        ([Dyadic(3, 2), Dyadic(1, 2)], [0.75, 0.25]),
        ([0.75, Fraction(1, 4)], [0.75, 0.25]),
        ([np.float32(0.75), np.float16(0.25)], [0.75, 0.25]),
        ([np.float64(0.75), Dyadic(1, 2)], [0.75, 0.25]),
        ([np.int8(1), np.uint64(0)], [1.0, 0.0]),
        ([1, 0], [1.0, 0.0]),
        (np.array([0.75, 0.25]), [0.75, 0.25]),
        (np.array([0.75, 0.25], dtype=np.float32), [0.75, 0.25]),
        (np.array([1, 0], dtype=np.int16), [1.0, 0.0]),
    ],
    ids=repr,
)
def test_every_entry_kind_reads_the_same(p, want):
    P = _p(1, 0)
    assert optimize.mutual_information(P, p) == optimize.mutual_information(P, want)
    assert bounds.constraint_check(1, 0, p)
    floats = config.probabilities(p, 2)
    assert floats.dtype == np.float64 and floats.tolist() == want and floats is not p
    p_int, scale = config.exact_probabilities(p, 2)
    assert [Fraction(v, scale) for v in p_int.tolist()] == [Fraction(v) for v in want]


def test_exact_probabilities_scale_by_the_lcm_of_denominators():
    p_int, scale = config.exact_probabilities([Fraction(1, 3), 0.25, Dyadic(5, 3), -1, np.int64(2)], 5)
    assert scale == 24 and p_int.tolist() == [8, 6, 15, -24, 48]
    p_int, scale = config.exact_probabilities(np.array([1, 2], dtype=np.uint8), 2)
    assert scale == 1 and p_int.tolist() == [1, 2]
    big, scale = config.exact_probabilities([Fraction(1, 2**70), 1], 2)
    assert scale == 2**70 and big.tolist() == [1, 2**70]


def test_probability_tolerances():
    assert config.probabilities([1 + 5e-10, -5e-13], 2).tolist() == [1 + 5e-10, 0.0]
    with pytest.raises(ValueError, match="^distribution has a negative entry$"):
        config.probabilities([1.1, -0.1], 2)
    with pytest.raises(ValueError, match=r"^distribution sums to 0\.9, expected 1$"):
        config.probabilities(np.array([0.5, 0.4]), 2)
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, np.inf])):
        with pytest.raises(ValueError, match=r"^distribution entry [01] is (nan|inf), not a finite number$"):
            config.probabilities(bad, 2)
