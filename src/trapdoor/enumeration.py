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
grown one position at a time for every prefix at once.  A frontier (from
_start) holds, for each ball that can be left in the box, the output
prefixes whose paths leave it there and how often each path halved its
likelihood.  _step takes input bit x: prefixes that left x in the box gain x
(forced); those that left the other ball s branch, keeping s with x appended
or leaving x with s appended, each with one more halving: four list
comprehensions per bit, not one call per path.  _step is the one statement
of the channel law.

As the channel is finite-state, the frontier of an input is the composition
of the frontiers of its chunks, each chunk read from the ball the previous
one left.  generate_outputs reads the input 8 bits at a time through a
table mapping (ball, chunk of at most 8 bits) to that chunk's frontier from
an empty prefix; each entry is one _step from the entry of its chunk
without the last bit.  The table is filled on first use, never at import,
and holds at most 2 * (2**9 - 2) = 1020 entries.  The first chunk's
frontier is its entry; each later chunk extends every path once by every
path of its entry (_compose).  _package turns the last frontier into
likelihoods 2**-halvings through one tuple of Dyadic(1, h), h = 0..n, per
input length n, cached on first use.  As _step leaves its argument unchanged,
enumerate_all walks the input trie depth first with it, two extensions
sharing each prefix's frontier, and returns 2**n P(n, s0) in one integer
array.  The tests keep the depth-first recursion as reference.
"""

from __future__ import annotations

import functools
import sys
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


class _Chunks(dict):
    """(ball, chunk) -> the frontier of chunk read from ball with no prefix, made on the
    first lookup by one _step from the entry of the chunk without its last bit.  The
    outputs are interned: the 510 distinct ones stand for about 20000 paths.  Filling
    is idempotent, so threads that race on a missing entry store equal frontiers."""

    def __missing__(self, key: tuple[str, str]) -> dict:
        ball, chunk = key
        start = self[ball, chunk[:-1]] if len(chunk) > 1 else _start(int(ball))
        frontier = self[key] = {
            end: (list(map(sys.intern, outs)), halvings)
            for end, (outs, halvings) in _step(start, chunk[-1]).items()
        }
        return frontier


_CHUNK = 8  # input bits per table entry: 2 * (2**(_CHUNK + 1) - 2) = 1020 entries at most
_chunks = _Chunks()


@functools.cache
def _likelihoods(n: int) -> tuple[Dyadic, ...]:
    """Dyadic(1, h) for h = 0..n: a path through n input bits halves at most n times."""
    return tuple(Dyadic(1, h) for h in range(n + 1))


def _compose(frontier: dict, chunk: str) -> dict[str, tuple[list[str], list[int]]]:
    """The frontier after chunk: each path extended once by every path of chunk read from its ball."""
    grown = {"0": ([], []), "1": ([], [])}
    for ball, (prefixes, halvings) in frontier.items():
        if prefixes:
            for end, (outs, dhs) in _chunks[ball, chunk].items():
                ps, hs = grown[end]
                ps += [p + o for p in prefixes for o in outs]
                hs += [h + d for h in halvings for d in dhs]
    return grown


def _package(bits: str, s0: int, frontier: dict) -> OutputDistribution:
    """The frontier after the last input bit as an exact distribution over outputs."""
    acc: dict[str, Dyadic] = {}
    paths = 0
    likelihood = _likelihoods(len(bits))
    for outputs, halvings in frontier.values():
        acc.update(zip(outputs, [likelihood[h] for h in halvings]))
        paths += len(halvings)
    # distinctness of outputs across paths is provable; comparing the merged
    # keys with the path count turns that proof into a runtime check
    if len(acc) != paths:
        raise AssertionError("two recursion paths produced the same output string; "
                             "outputs are expected to be pairwise distinct")
    return OutputDistribution(bits, s0, acc)


def generate_outputs(bits: str, s0: int) -> OutputDistribution:
    """All feasible outputs for the given input string and initial state, with
    exact likelihoods: an unequal input/state step branches and halves them,
    taken for every output prefix at once, a chunk of input bits at a time
    (see the module docstring)."""
    config.check_bits(bits)
    s0 = config.check_state(s0)
    config.check_cap(len(bits), config.INPUT_CAP_ENV, "worst-case support is 2**{n}", "input length")
    frontier = _chunks[str(s0), bits[:_CHUNK]]
    for i in range(_CHUNK, len(bits), _CHUNK):
        frontier = _compose(frontier, bits[i : i + _CHUNK])
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
