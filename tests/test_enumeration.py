import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import channel_row_from_enumeration, generate_outputs_dfs, row_dyadics, simulate_outputs
from trapdoor.channel import build_channel_matrix
from trapdoor.config import DEFAULT_INPUT_CAP
from trapdoor.dyadic import Dyadic
from trapdoor.enumeration import enumerate_all, feasibility, generate_outputs

bit_strings = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from("01"), min_size=n, max_size=n).map("".join),
        st.integers(min_value=0, max_value=1),
    )
)


def test_traced_example():
    dist = generate_outputs("101", 0)
    expected = {
        "101": Dyadic(1, 2),
        "100": Dyadic(1, 2),
        "001": Dyadic(1, 2),
        "011": Dyadic(1, 3),
        "010": Dyadic(1, 3),
    }
    assert dist.outputs == expected
    assert "110" not in dist.outputs
    assert dist.support() == ["001", "010", "011", "100", "101"]


def test_deterministic_cases():
    assert generate_outputs("0", 0).outputs == {"0": Dyadic(1)}
    assert generate_outputs("111", 1).outputs == {"111": Dyadic(1)}


def test_input_validation():
    with pytest.raises(ValueError):
        generate_outputs("", 0)
    with pytest.raises(ValueError):
        generate_outputs("102", 0)
    with pytest.raises(ValueError):
        generate_outputs("01", 2)


@settings(deadline=None)
@given(bit_strings)
def test_matches_simulation_oracle(case):
    bits, s0 = case
    dist = generate_outputs(bits, s0)
    oracle = simulate_outputs(bits, s0)
    assert {y: p.as_fraction() for y, p in dist.outputs.items()} == oracle


@settings(deadline=None)
@given(bit_strings)
def test_likelihoods_sum_to_one_and_are_halving_powers(case):
    bits, s0 = case
    dist = generate_outputs(bits, s0)
    total = Dyadic(0)
    for p in dist.outputs.values():
        assert p.num == 1 and 0 < p <= 1  # a power of two: 2**-m in lowest terms
        total = total + p
    assert total == 1
    assert len(dist.outputs) <= 1 << len(bits)


@settings(deadline=None)
@given(
    st.lists(st.sampled_from("01"), min_size=1, max_size=16).map("".join),
    st.integers(min_value=0, max_value=1),
)
def test_matches_depth_first_recursion(bits, s0):
    assert generate_outputs(bits, s0).outputs == generate_outputs_dfs(bits, s0)


# -- chunk composition: 8 input bits per table entry ----------------------------------


@pytest.mark.parametrize("s0", (0, 1))
def test_every_input_up_to_length_11_matches_the_recursion(s0):
    # lengths 9 to 11 end in a second chunk read from either ball
    for n in range(1, 12):
        for i in range(1 << n):
            bits = format(i, f"0{n}b")
            assert generate_outputs(bits, s0).outputs == generate_outputs_dfs(bits, s0), bits


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.sampled_from("01"), min_size=15, max_size=18).map("".join),
    st.integers(min_value=0, max_value=1),
)
def test_inputs_across_the_second_chunk_boundary_match_the_recursion(bits, s0):
    assert generate_outputs(bits, s0).outputs == generate_outputs_dfs(bits, s0)


def test_an_input_past_the_default_cap(monkeypatch):
    # 1**26 from ball 0 has 27 outputs, one with 26 halvings: past every size the default cap suggests
    monkeypatch.setenv("TRAPDOOR_INPUT_CAP", "26")
    bits = "1" * 26
    dist = generate_outputs(bits, 0)
    assert dist.outputs == generate_outputs_dfs(bits, 0)
    assert dist.outputs["1" * 26] == Dyadic(1, 26)


def test_the_chunk_table_is_bounded():
    from trapdoor.enumeration import _chunks

    for n in range(1, 11):
        for i in range(1 << n):
            for s0 in (0, 1):
                generate_outputs(format(i, f"0{n}b"), s0)
    # every (ball, chunk of 1 to 8 bits) has been read as a first chunk: 2 * (2**9 - 2) keys
    assert len(_chunks) == 1020
    assert {ball for ball, _ in _chunks} == {"0", "1"} and {len(c) for _, c in _chunks} == set(range(1, 9))


def test_the_chunk_table_is_empty_after_import():
    code = "import trapdoor.enumeration as e; assert not e._chunks and e._likelihoods.cache_info().currsize == 0"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- the two routes through the paper's second view -------------------------------


@pytest.fixture(scope="module")
def tables():
    """enumerate_all(n, s0), built once per (n, s0) for this module."""
    cache = {}

    def get(n, s0):
        if (n, s0) not in cache:
            cache[(n, s0)] = enumerate_all(n, s0)
        return cache[(n, s0)]

    yield get
    cache.clear()


@settings(deadline=None)
@given(
    st.lists(st.sampled_from("01"), min_size=1, max_size=12).map("".join),
    st.integers(min_value=0, max_value=1),
)
def test_generate_outputs_is_a_row_of_the_trie_walk(tables, bits, s0):
    n = len(bits)
    row = tables(n, s0)[int(bits, 2)]
    want = {format(y, f"0{n}b"): Dyadic(int(v), n) for y, v in enumerate(row.tolist()) if v}
    assert generate_outputs(bits, s0).outputs == want


@pytest.mark.parametrize("s0", (0, 1))
@pytest.mark.parametrize("n", range(11))
def test_trie_walk_equals_the_block_recursion(n, s0):
    table = enumerate_all(n, s0)
    assert table.shape == (1 << n, 1 << n) and table.dtype.kind == "i"
    assert np.array_equal(table, build_channel_matrix(n, s0).data.with_exp(n).array)


def test_alternating_input_at_the_cap():
    bits = "10" * 12
    assert len(bits) == DEFAULT_INPUT_CAP
    dist = generate_outputs(bits, 0)
    assert len(dist.outputs) == 121393  # Fibonacci(26): the support of an alternating input
    total = Dyadic(0)
    for p in dist.outputs.values():
        total = total + p
    assert total == 1


@pytest.mark.parametrize("n", (11, 12))
@pytest.mark.parametrize("s0", (0, 1))
def test_long_inputs_sum_to_one(n, s0):
    # spot inputs at lengths beyond the exhaustive range
    for bits in ("01" * (n // 2) + "0" * (n % 2), "1" * n, format(0b1011 << (n - 4), f"0{n}b")):
        dist = generate_outputs(bits, s0)
        total = Dyadic(0)
        for p in dist.outputs.values():
            total = total + p
        assert total == 1


def test_row_expansion_examples(pairs):
    assert channel_row_from_enumeration(2, 0, "00") == [
        Dyadic(1),
        Dyadic(0),
        Dyadic(0),
        Dyadic(0),
    ]
    assert channel_row_from_enumeration(2, 1, "11") == [
        Dyadic(0),
        Dyadic(0),
        Dyadic(0),
        Dyadic(1),
    ]
    P = pairs(3)[0]
    assert channel_row_from_enumeration(3, 0, "101") == row_dyadics(P, 0b101)


def test_row_expansion_length_check():
    with pytest.raises(ValueError):
        channel_row_from_enumeration(3, 0, "10")


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("s0", (0, 1))
def test_rows_match_matrix_exhaustive(n, s0, pairs):
    P = pairs(n)[s0]
    for i in range(1 << n):
        bits = format(i, f"0{n}b")
        assert channel_row_from_enumeration(n, s0, bits) == row_dyadics(P, i)


def test_feasibility_examples():
    assert feasibility("101", "110", 0) == 0
    assert feasibility("101", "010", 0) == Dyadic(1, 3)
    assert feasibility("1", "1", 1) == Dyadic(1)
    with pytest.raises(ValueError):
        feasibility("101", "10", 0)


@settings(deadline=None)
@given(bit_strings, st.data())
def test_feasibility_consistent_with_enumeration(case, data):
    bits, s0 = case
    n = len(bits)
    y = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    output = format(y, f"0{n}b")
    dist = generate_outputs(bits, s0)
    assert feasibility(bits, output, s0) == dist.outputs.get(output, Dyadic(0))


def test_json_dict_shape():
    d = generate_outputs("101", 0).to_json_dict()
    assert d["input"] == "101"
    assert d["state"] == 0
    assert d["outputs"][0] == {"y": "001", "p": "1/2^2"}
    assert [rec["y"] for rec in d["outputs"]] == sorted(rec["y"] for rec in d["outputs"])


@pytest.mark.parametrize(
    "outputs, message",
    [
        ({"01": Dyadic(1, 1), "10": Dyadic(1, 1)}, None),
        ({"0": Dyadic(1, 1), "1": Dyadic(1, 2), "11": Dyadic(1, 2)}, "output length must match"),
        ({"0": Dyadic(3, 2), "1": Dyadic(1, 2)}, "likelihood 3/4 is not a positive power of 1/2"),
        ({"0": Dyadic(2)}, "likelihood 2 is not"),
        ({"0": Dyadic(0), "1": Dyadic(1)}, "likelihood 0 is not"),
        ({"0": Dyadic(-1, 1), "1": Dyadic(1)}, "likelihood -1/2 is not"),
        ({"0": Dyadic(1, 1), "1": Dyadic(1, 2)}, "likelihoods sum to 3/4, expected 1"),
        ({"0": Dyadic(1), "1": Dyadic(1, 60)}, "likelihoods sum to"),
        ({}, "likelihoods sum to 0, expected 1"),
    ],
)
def test_output_distribution_validation(outputs, message):
    from trapdoor.enumeration import OutputDistribution

    bits = "0" if outputs and len(next(iter(outputs))) == 1 else "00"
    if message is None:
        assert OutputDistribution(bits, 0, outputs).outputs == outputs
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            OutputDistribution(bits, 0, outputs)
