"""Feasible output sequences and their exact likelihoods for a given input.

The channel at each step holds one ball (the state) and receives one ball
(the input bit).  If they are equal the output is forced; if they differ the
receiver draws one of the two uniformly, the drawn label is emitted, and the
other ball becomes the new state.  The paper characterises the channel by an
algorithm that generates every feasible output of an input, much like the
recursion that generates all permutations of a string: each unequal step
branches into "emit the input, keep the state" and "emit the state, adopt
the input", halving the likelihood on both branches.

generate_outputs makes the same choices as that recursion, but level by
level instead of depth first, the way all permutations of a string can be
grown one position at a time for every prefix at once.  Its frontier (from
_start) holds, for each ball that can be left in the box, the output
prefixes whose paths leave it there and how often each path halved its
likelihood.  _step takes input bit x: prefixes that left x in the box gain x
(forced); those that left the other ball s branch, keeping s with x appended
or leaving x with s appended, each with one more halving: four list
comprehensions per bit, not one call per path.  As _step leaves its argument
unchanged, enumerate_all walks the input trie depth first, two extensions
sharing each prefix's frontier, and returns 2**n P(n, s0) in one integer
array.  _package turns a last frontier into likelihoods 2**-halvings, one
Dyadic per count.  The tests keep the depth-first recursion as reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import config
from .dyadic import Dyadic
from .matrices import dtype_for


@dataclass(frozen=True)
class OutputDistribution:
    """Exact conditional distribution of output strings for one input and state."""

    input: str
    initial_state: int
    outputs: dict[str, Dyadic]

    def __post_init__(self) -> None:
        # integer arithmetic on (num, exp): a power of 1/2 is num = 1 once
        # Dyadic has normalized it, and the sum is taken over 2**top
        n = len(self.input)
        values = self.outputs.values()
        if set(map(len, self.outputs)) - {n} or {p.num for p in values} - {1}:
            # name the first offending entry, length before likelihood
            for y, p in self.outputs.items():
                if len(y) != n:
                    raise ValueError("output length must match input length")
                if p.num != 1:
                    raise ValueError(f"likelihood {p} is not a positive power of 1/2")
        exps = Counter([p.exp for p in values])
        top = max(exps, default=0)
        total = sum(count << (top - e) for e, count in exps.items())
        if total != 1 << top:
            raise ValueError(f"likelihoods sum to {Dyadic(total, top)}, expected 1")

    def support(self) -> list[str]:
        """Feasible outputs in lexicographic order."""
        return sorted(self.outputs)

    def to_json_dict(self) -> dict:
        from .serialization import format_dyadic

        return {
            "input": self.input,
            "state": self.initial_state,
            "outputs": [
                {"y": y, "p": format_dyadic(self.outputs[y])} for y in self.support()
            ],
        }


def _start(s0: int) -> dict[str, tuple[list[str], list[int]]]:
    """frontier[s] = (prefixes, halvings) of the paths that leave ball s in the box, before any input."""
    return {str(s0): ([""], [0]), str(1 - s0): ([], [])}


def _step(frontier: dict, x: str) -> dict[str, tuple[list[str], list[int]]]:
    """The frontier after input bit x; ``frontier`` itself is left as it was."""
    other = "1" if x == "0" else "0"
    (same, h_same), (diff, h_diff) = frontier[x], frontier[other]
    grown = [p + x for p in same]
    if diff:
        h_diff = [h + 1 for h in h_diff]
        grown += [p + other for p in diff]
        h_same, diff = h_same + h_diff, [p + x for p in diff]
    return {x: (grown, h_same), other: (diff, h_diff)}


def _package(bits: str, s0: int, frontier: dict) -> OutputDistribution:
    """The frontier after the last input bit as an exact distribution over outputs."""
    (outputs, halvings), (more, h_more) = frontier["0"], frontier["1"]
    halvings = halvings + h_more
    likelihood = {h: Dyadic(1, h) for h in set(halvings)}
    acc = dict(zip(outputs + more, map(likelihood.__getitem__, halvings)))
    # distinctness of outputs across paths is provable; comparing the merged
    # keys with the path count turns that proof into a runtime check
    if len(acc) != len(halvings):
        raise AssertionError("two recursion paths produced the same output string; "
                             "outputs are expected to be pairwise distinct")
    return OutputDistribution(bits, s0, acc)


def generate_outputs(bits: str, s0: int) -> OutputDistribution:
    """All feasible outputs for the given input string and initial state, with
    exact likelihoods: an unequal input/state step branches and halves them,
    taken for every output prefix at once (see the module docstring)."""
    config.check_bits(bits)
    s0 = config.check_state(s0)
    config.check_cap(len(bits), config.INPUT_CAP_ENV, "worst-case support is 2**{n}", "input length")
    frontier = _start(s0)
    for x in bits:
        frontier = _step(frontier, x)
    return _package(bits, s0, frontier)


def enumerate_all(n: int, s0: int) -> np.ndarray:
    """2**n P(n, s0) as an integer array whose row x enumerates input x, grown over the
    input trie with the step of generate_outputs (see the module docstring)."""
    n = config.check_cap(n, config.MATRIX_CAP_ENV, "its array stores 4**{n} entries")
    s0 = config.check_state(s0)
    cells, entries = [], []  # flat indices x * 2**n + y and their values 2**(n - halvings)
    stack = [(0, 0, _start(s0))]  # (depth, input prefix as an integer, frontier)
    while stack:
        depth, x, frontier = stack.pop()
        if depth < n:
            stack += [(depth + 1, 2 * x + int(b), _step(frontier, b)) for b in "01"]
            continue
        for outputs, halvings in frontier.values():
            cells += [x << n | int(y or "0", 2) for y in outputs]
            entries += [1 << n - h for h in halvings]
    table = np.zeros(1 << 2 * n, dtype=dtype_for(1 << n))
    table[cells] = entries
    return table.reshape(1 << n, 1 << n)


def feasibility(bits: str, output: str, s0: int) -> Dyadic:
    """Exact conditional probability of one output string (0 if infeasible).

    Walks the unique trajectory forced by the output: when input and state
    differ, the emitted symbol identifies the drawn ball, so no branching is
    needed.  Independent of generate_outputs and cross-checked against it.
    """
    config.check_bits(bits)
    config.check_bits(output, "output", len(bits))
    state = str(config.check_state(s0))
    halvings = 0
    for x, y in zip(bits, output):
        if x == state:
            if y != x:
                return Dyadic(0)
        else:
            halvings += 1
            if y != x:  # the state ball was drawn, so the input ball stays
                state = x
    return Dyadic(1, halvings)
