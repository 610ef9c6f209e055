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
grown one position at a time for every prefix at once.  After each input
bit it holds, for each of the two balls that can be left in the box, the
list of output prefixes whose paths leave that ball there, and beside it
how often each path halved its likelihood.  For input bit x, the prefixes
that left x in the box all gain x (a forced step).  Those that left the
other ball s all branch: with x appended they keep s in the box, with s
appended they leave x, and both carry one more halving.  So one input bit
costs four list comprehensions over the frontier instead of one Python
call per path, and at the end each prefix is a feasible output of
likelihood 2**-halvings, with one shared Dyadic per number of halvings.
Expanding the result to a dense vector reproduces one row of the channel
matrix, which the test suite checks exhaustively; the former depth-first
recursion is kept in the tests as the reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import config
from .dyadic import Dyadic


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


def generate_outputs(bits: str, s0: int) -> OutputDistribution:
    """All feasible outputs for the given input string and initial state.

    Equal input/state steps extend the output with probability unchanged;
    unequal steps branch, halving the probability: one branch emits the input
    bit and keeps the state, the other emits the old state and adopts the
    input bit as the new state.  Each step is taken for all prefixes that
    leave the same ball in the box at once (see the module docstring).
    """
    config.check_bits(bits)
    s0 = config.check_state(s0)
    config.check_cap(len(bits), config.INPUT_CAP_ENV, "worst-case support is 2**{n}", "input length")
    # frontier[s] = (prefixes, halvings): the output prefixes whose paths
    # leave ball s in the box, and how often each path halved its likelihood
    frontier = {"0": ([], []), "1": ([], [])}
    frontier[str(s0)] = ([""], [0])
    for x in bits:
        other = "1" if x == "0" else "0"
        (same, h_same), (diff, h_diff) = frontier[x], frontier[other]
        grown = [p + x for p in same]
        if diff:
            h_diff = [h + 1 for h in h_diff]
            grown += [p + other for p in diff]
            h_same += h_diff
            frontier[other] = ([p + x for p in diff], h_diff)
        frontier[x] = (grown, h_same)
    (outputs, halvings), (more, h_more) = frontier["0"], frontier["1"]
    outputs += more
    halvings += h_more
    likelihood = {h: Dyadic(1, h) for h in set(halvings)}
    acc = dict(zip(outputs, map(likelihood.__getitem__, halvings)))
    # distinctness of outputs across paths is provable; comparing the merged
    # keys with the path count turns that proof into a runtime check
    if len(acc) != len(halvings):
        raise AssertionError(
            "two recursion paths produced the same output string; "
            "outputs are expected to be pairwise distinct"
        )
    return OutputDistribution(bits, s0, acc)


def channel_row_from_enumeration(n: int, s0: int, bits: str) -> list[Dyadic]:
    """Dense length-2**n row of output likelihoods, column j = bit string of j.

    Equals the corresponding row of the channel matrix built by the block
    recursion (cross-checked exhaustively in the tests).
    """
    config.check_bits(bits, "input", config.integer(n, "block length"))
    dist = generate_outputs(bits, s0)
    row = [Dyadic(0)] * (1 << n)
    for y, p in dist.outputs.items():
        row[int(y, 2)] = p
    return row


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
