"""The shared input rules: one cap check, one state check, one bit-string check.

Each table runs every entry point that takes the input, so a copy of a rule
that drifts from the others shows up as one failing row.
"""

import re

import numpy as np
import pytest

from oracles import row_dyadics
from trapdoor import bounds, config, enumeration, fractal, optimize, verify
from trapdoor.channel import (
    ChannelMatrix,
    build_channel_matrix,
    channel_pair,
    invert_channel_matrix,
    invert_two_step,
)
from trapdoor.dyadic import Dyadic

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
    "generate_outputs": (config.INPUT_CAP_ENV, 4, lambda n: enumeration.generate_outputs(("10" * n)[:n], 0)),
    "channel_row_from_enumeration": (
        config.INPUT_CAP_ENV,
        4,
        lambda n: enumeration.channel_row_from_enumeration(n, 1, "1" * n),
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
        (lambda: bounds.omega_recursive(4), "the vector has 2**4 entries"),
        (lambda: enumeration.generate_outputs("0101", 0), "worst-case support is 2**4"),
        (lambda: fractal.ifs_iterate(fractal.sierpinski_ifs(), fractal.unit_grid(), 4), "4**4 bytes"),
    ],
    ids=["matrix", "bound", "input", "grid"],
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
    "channel_row_from_enumeration": lambda s: enumeration.channel_row_from_enumeration(2, s, "01"),
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
    assert enumeration.channel_row_from_enumeration(2, state, "01") == row_dyadics(_p(2, 1), 1)
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
    "channel_row_from_enumeration": lambda b: enumeration.channel_row_from_enumeration(2, 0, b),
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

