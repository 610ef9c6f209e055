"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and Fraction-based: channel matrices
from the block recursion in plain Fractions, Gauss-Jordan inversion, direct
entropy sums, a physical simulation of the ball process, and a double-loop
mutual information.  None of it shares code with the package.
"""

from __future__ import annotations

from fractions import Fraction


def channel_fractions(n: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(P(n,0), P(n,1)) as Fraction rows via the block recursion."""
    P0 = [[Fraction(1)]]
    P1 = [[Fraction(1)]]
    half = Fraction(1, 2)
    for _ in range(n):
        zero_row = [Fraction(0)] * len(P0)
        new0 = [row + zero_row for row in P0]
        new0 += [[half * v for v in r1] + [half * v for v in r0] for r1, r0 in zip(P1, P0)]
        new1 = [[half * v for v in r1] + [half * v for v in r0] for r1, r0 in zip(P1, P0)]
        new1 += [zero_row + r1 for r1 in P1]
        P0, P1 = new0, new1
    return P0, P1


def gauss_jordan_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by row reduction; raises ZeroDivisionError if singular."""
    n = len(M)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for i in range(n):
        piv = next((k for k in range(i, n) if A[k][i] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        A[i], A[piv] = A[piv], A[i]
        inv = Fraction(1) / A[i][i]
        A[i] = [v * inv for v in A[i]]
        for k in range(n):
            if k != i and A[k][i]:
                f = A[k][i]
                A[k] = [v - f * w for v, w in zip(A[k], A[i])]
    return [row[n:] for row in A]


def exact_log2(fr: Fraction) -> int:
    """log2 of a Fraction that is exactly a power of two."""
    num, den = fr.numerator, fr.denominator
    if num <= 0 or (num & (num - 1)) or (den & (den - 1)):
        raise ValueError(f"{fr} is not a power of two")
    return num.bit_length() - den.bit_length()


def entropy_fractions(P: list[list[Fraction]]) -> list[Fraction]:
    """Row entropies -sum p log2 p in bits, exact for power-of-two entries."""
    out = []
    for row in P:
        acc = Fraction(0)
        for v in row:
            if v:
                acc += Fraction(-exact_log2(v)) * v
        out.append(acc)
    return out


def simulate_outputs(bits: str, s0: int) -> dict[str, Fraction]:
    """Distribution over outputs by walking every receiver draw sequence.

    At each step where the stored and incoming balls differ, branch on which
    one is drawn (probability 1/2 each); duplicates merge by summation.
    """
    dist: dict[str, Fraction] = {}

    def walk(pos: int, state: str, out: str, prob: Fraction) -> None:
        if pos == len(bits):
            dist[out] = dist.get(out, Fraction(0)) + prob
            return
        x = bits[pos]
        if x == state:
            walk(pos + 1, state, out + x, prob)
        else:
            walk(pos + 1, state, out + x, prob / 2)
            walk(pos + 1, x, out + state, prob / 2)

    walk(0, str(s0), "", Fraction(1))
    return dist


def mutual_information_reference(P: list[list[float]], p: list[float], n: int) -> float:
    """Double-loop per-letter mutual information in bits."""
    import math

    dim = len(P)
    q = [sum(p[i] * P[i][j] for i in range(dim)) for j in range(dim)]
    total = 0.0
    for i in range(dim):
        if p[i] <= 0:
            continue
        for j in range(dim):
            if P[i][j] > 0:
                total += p[i] * P[i][j] * math.log2(P[i][j] / q[j])
    return total / n


def output_masses_nonnegative(P: list[list[Fraction]], p: list[Fraction]) -> bool:
    """True iff every column sum sum_i p_i P_ij is >= 0, in plain Fractions."""
    dim = len(P)
    return all(sum(p[i] * P[i][j] for i in range(dim)) >= 0 for j in range(dim))


def ifs_iterate_lists(ifs, codes: list[list[int]], resolution: int, k: int) -> list[list[int]]:
    """The per-cell list loop that `fractal.ifs_iterate` replaced, on raw codes.

    Reuses the package's `_cell_transform` for the integer action of each map
    (the embedding tests check it against the channel matrices), so this loop
    checks only how the maps are applied.  Raises ValueError on an overlap or
    on a height code too fine for its resolution.
    """
    from trapdoor.fractal import _cell_transform

    for _ in range(k):
        side_out = 1 << (resolution + 1)
        target: list[list[int | None]] = [[None] * side_out for _ in range(side_out)]
        for m in ifs.maps:
            r0, c0, drdr, drdc, dcdr, dcdc, zshift = _cell_transform(m, resolution)
            for r, row in enumerate(codes):
                for c, code in enumerate(row):
                    tr_, tc_ = r0 + drdr * r + drdc * c, c0 + dcdr * r + dcdc * c
                    if target[tr_][tc_] is not None:
                        raise ValueError(f"maps overlap at output cell ({tr_}, {tc_})")
                    target[tr_][tc_] = code if code == -1 else code + zshift
        resolution += 1
        codes = [[-1 if v is None else v for v in row] for row in target]
        if any(m > resolution for row in codes for m in row):
            raise ValueError("height code too fine for the resolution")
    return codes


def render_pgm_lists(codes: list[list[int]], resolution: int, mode: str, gamma: float = 1.0) -> bytes:
    """The per-cell render loop that `fractal.render_pgm` replaced, on raw codes."""
    side, k = len(codes), resolution
    pixels = bytearray()
    for row in codes:
        for m in row:
            if m == -1:
                pixels.append(0)
            elif mode == "binary":
                pixels.append(255)
            elif mode == "log":
                pixels.append(255 if k == 0 else round(255 * (1 - m / k)))
            else:
                pixels.append(round(255 * (0.5**m) ** gamma))
    return b"P5\n%d %d\n255\n" % (side, side) + bytes(pixels)
