"""Feasible output sequences and their exact likelihoods for a given input.

The channel at each step holds one ball (the state) and receives one ball
(the input bit).  If they are equal the output is forced; if they differ the
receiver draws one of the two uniformly, the drawn label is emitted, and the
other ball becomes the new state.  Walking this branching process over an
input string yields every feasible output with a likelihood that is an exact
power of 1/2.  Expanding the result to a dense vector reproduces one row of
the channel matrix, which the test suite checks exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .dyadic import Dyadic


def _check_bits(s: str, what: str) -> None:
    if not s:
        raise ValueError(f"{what} must be non-empty")
    if set(s) - {"0", "1"}:
        raise ValueError(f"{what} must be a string over 0/1, got {s!r}")


def _check_state(s0: int) -> None:
    if s0 not in (0, 1):
        raise ValueError("initial state must be 0 or 1")


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
        top = 0
        for y, p in self.outputs.items():
            if len(y) != n:
                raise ValueError("output length must match input length")
            if p.num != 1:
                raise ValueError(f"likelihood {p} is not a positive power of 1/2")
            top = max(top, p.exp)
        total = sum(1 << (top - p.exp) for p in self.outputs.values())
        if total != 1 << top:
            raise ValueError(f"likelihoods sum to {Dyadic(total, top)}, expected 1")

    def support(self) -> list[str]:
        """Feasible outputs in lexicographic order."""
        return sorted(self.outputs)

    def probability(self, output: str) -> Dyadic:
        return self.outputs.get(output, Dyadic(0))

    def to_json_dict(self) -> dict:
        from .serialization import format_dyadic

        return {
            "input": self.input,
            "state": self.initial_state,
            "outputs": [
                {"y": y, "p": format_dyadic(self.outputs[y])} for y in self.support()
            ],
        }


def generate_outputs(bits: str, s0: int, cap: int | None = None) -> OutputDistribution:
    """All feasible outputs for the given input string and initial state.

    Equal input/state steps extend the output with probability unchanged;
    unequal steps branch, halving the probability: one branch emits the input
    bit and keeps the state, the other emits the old state and adopts the
    input bit as the new state.
    """
    _check_bits(bits, "input")
    _check_state(s0)
    limit = config.input_cap() if cap is None else cap
    if len(bits) > limit:
        raise ValueError(
            f"input length {len(bits)} exceeds the cap {limit} (worst-case support "
            f"is 2**n; override with {config.INPUT_CAP_ENV})"
        )
    # distinctness of outputs across paths is provable; the accumulator still
    # merges by summation and the merge flag turns that proof into a runtime check
    acc: dict[str, Dyadic] = {}
    merged = False

    def walk(pos: int, out: list[str], state: str, halvings: int) -> None:
        nonlocal merged
        if pos == len(bits):
            y = "".join(out)
            if y in acc:
                merged = True
                acc[y] = acc[y] + Dyadic(1, halvings)
            else:
                acc[y] = Dyadic(1, halvings)
            return
        x = bits[pos]
        if x == state:
            out.append(x)
            walk(pos + 1, out, state, halvings)
            out.pop()
        else:
            out.append(x)
            walk(pos + 1, out, state, halvings + 1)
            out[-1] = state
            walk(pos + 1, out, x, halvings + 1)
            out.pop()

    walk(0, [], str(s0), 0)
    if merged:
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
    if len(bits) != n:
        raise ValueError(f"input length {len(bits)} does not match n={n}")
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
    _check_bits(bits, "input")
    _check_state(s0)
    if len(output) != len(bits):
        raise ValueError("input and output must have equal length")
    _check_bits(output, "output")
    state = str(s0)
    halvings = 0
    for x, y in zip(bits, output):
        if x == state:
            if y != x:
                return Dyadic(0)
        else:
            halvings += 1
            if y == x:
                pass  # state ball stays in the box
            elif y == state:
                state = x
            else:  # unreachable for binary alphabets
                return Dyadic(0)
    return Dyadic(1, halvings)
