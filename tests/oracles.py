"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and Fraction-based: channel matrices
from the block recursion in plain Fractions, Gauss-Jordan inversion, direct
entropy sums, a physical simulation of the ball process, and a double-loop
mutual information, and a PNG decoder.  None of it shares code with the
package, except that ``row_dyadics`` and ``row_sums`` read a matrix's array
and scale, and ``channel_row_from_enumeration`` expands the package's
``generate_outputs`` into a dense row, through the package's input checks,
so that enumeration can be compared with matrix rows.  The packed
big-integer product, the list-backed channel and inversion ladders, the
list-backed h and w recursions and the depth-first output enumeration are
the package's former implementations, kept here as references for the
float64 products, the array-backed ladders and vector recursions and the
level-wise enumeration.  The Blahut-Arimoto loop that allocates its
temporaries on every iteration restates the optimizer's safeguarded
over-relaxed steps, as the reference for the loop that works in
preallocated buffers; with relaxed=False it takes the plain steps the
optimizer took before.  The cell action of an affine map, found by applying
the map to three cell centres in Fractions, is the reference for the closed
form in `fractal._cell_transform`, and the kernel search over any integer
action is the reference for the closed form in `fractal._self_overlap`.
"""

from __future__ import annotations

import math
import struct
import zlib
from fractions import Fraction

import numpy as np

from trapdoor import config
from trapdoor.dyadic import Dyadic
from trapdoor.enumeration import generate_outputs


def row_dyadics(M, i: int) -> list[Dyadic]:
    """Row i of a DyadicMatrix, or of a ChannelMatrix's data, as Dyadics."""
    m = getattr(M, "data", M)
    return [Dyadic(v, m.exp) for v in m.array[i].tolist()]


def row_sums(M) -> list[Dyadic]:
    """The row sums of a DyadicMatrix, or of a ChannelMatrix's data, one Dyadic per row."""
    m = getattr(M, "data", M)
    return [Dyadic(sum(row), m.exp) for row in m.array.tolist()]


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


def blahut_arimoto_reference(
    W, n: int, tol: float, max_iter: int, track_history: bool = False, relaxed: bool = True
):
    """(iterations, capacity_per_letter, final_gap, distribution, history) of
    Blahut-Arimoto on the float channel W from the uniform start.

    With relaxed=False every step is the plain one, p * 2**(D - max D).
    Otherwise an accepted iterate whose max D is below 26 bits takes the
    over-relaxed step p * 2**(2 (D - max D)); its result is accepted only if
    it strictly raises the lower end and leaves no output dead that was
    live, else the accepted iterate takes the plain step instead.  Every
    evaluation counts as an iteration.  The
    upper end is the max over all inputs, those whose mass underflowed to 0
    included, so the bracket certifies the full alphabet; a run that reaches
    a dead output in an accepted iterate is outside what this loop covers.
    """
    wlogw = (W * np.log2(np.where(W > 0.0, W, 1.0))).sum(axis=1)
    dim = W.shape[0]
    p = best = np.full(dim, 1.0 / dim)
    history = [] if track_history else None
    saved = None  # (p, exponents, q) of the accepted iterate a relaxed step left
    lower = float("-inf")
    it = 0
    gap = float("inf")
    for it in range(1, max_iter + 1):
        q = p @ W
        D = wlogw - W @ np.log2(np.where(q > 0.0, q, 1.0))
        low = float(p @ D)
        upper = float(D.max())
        exponents = D - upper
        killed = saved is not None and bool(np.any((q == 0.0) & (saved[2] > 0.0)))
        if saved is not None and (killed or not low > lower):
            p, exponents = saved[0], saved[1]
            lam = 1.0
            saved = None
        else:
            best, lower = p, low
            if history is not None:
                history.append((low / n, upper / n))
            gap = (upper - low) / n
            if gap <= tol:
                break
            lam = 2.0 if relaxed and upper < 26.0 else 1.0
            saved = (p, exponents, q) if lam == 2.0 else None
        p = p * np.exp2(lam * exponents)
        p = p / p.sum()
    return it, lower / n, gap, best, history


def output_masses_nonnegative(P: list[list[Fraction]], p: list[Fraction]) -> bool:
    """True iff every column sum sum_i p_i P_ij is >= 0, in plain Fractions."""
    dim = len(P)
    return all(sum(p[i] * P[i][j] for i in range(dim)) >= 0 for j in range(dim))


def apply_map(m, x, y, z) -> tuple[Fraction, Fraction, Fraction]:
    """The image of the point (x, y, z) under an AffineMap3, in Fractions."""
    lin, tr = m.linear, m.translation
    return tuple(row[0] * x + row[1] * y + row[2] * z + t for row, t in zip(lin, tr))


def cell_transform_fractions(m, res: int) -> tuple[int, int, int, int, int, int, int]:
    """The integer cell action of an affine map, res -> res + 1, from three cell centres.

    The former `fractal._cell_transform`: it applies the map to the centres of
    cells (0, 0), (0, 1) and (1, 0) in Fractions and reads the affine action
    off their images.  Returns (r0, c0, dr_dr, dr_dc, dc_dr, dc_dc, zshift);
    raises GridSemanticsError with the package's messages.
    """
    from trapdoor.fractal import GridSemanticsError

    lin, tr = m.linear, m.translation
    if lin[0][2] or lin[1][2] or lin[2][0] or lin[2][1] or tr[2]:
        raise GridSemanticsError("grid maps must not mix z with x/y or translate z")
    za = lin[2][2]
    if za.numerator != 1 or (za.denominator & (za.denominator - 1)):
        raise GridSemanticsError(f"z scale {za} is not 2**-j for j >= 0")
    zshift = za.denominator.bit_length() - 1

    def target(r: int, c: int) -> tuple[Fraction, Fraction]:
        x = Fraction(2 * c + 1, 1 << (res + 1))
        y = 1 - Fraction(2 * r + 1, 1 << (res + 1))
        xp, yp, _ = apply_map(m, x, y, 0)
        cp = (xp * (1 << (res + 2)) - 1) / 2
        rp = ((1 - yp) * (1 << (res + 2)) - 1) / 2
        return rp, cp

    r00, c00 = target(0, 0)
    r01, c01 = target(0, 1)
    r10, c10 = target(1, 0)
    coeffs = (r00, c00, r10 - r00, r01 - r00, c10 - c00, c01 - c00)
    if any(v.denominator != 1 for v in coeffs):
        raise GridSemanticsError("map does not send dyadic cell centers onto cell centers")
    r0, c0, drdr, drdc, dcdr, dcdc = (int(v) for v in coeffs)
    side_out = 1 << (res + 1)
    last = (1 << res) - 1
    for r, c in ((0, 0), (0, last), (last, 0), (last, last)):
        tr_, tc_ = r0 + drdr * r + drdc * c, c0 + dcdr * r + dcdc * c
        if not (0 <= tr_ < side_out and 0 <= tc_ < side_out):
            raise GridSemanticsError("map sends cells outside the unit square")
    return r0, c0, drdr, drdc, dcdr, dcdc, zshift


def ifs_iterate_lists(ifs, codes: list[list[int]], resolution: int, k: int) -> list[list[int]]:
    """The per-cell list loop that `fractal.ifs_iterate` replaced, on raw codes.

    Takes the integer action of each map from `cell_transform_fractions`, so
    this loop shares no code with the package's.  Raises ValueError on an
    overlap or on a height code too fine for its resolution.
    """
    for _ in range(k):
        side_out = 1 << (resolution + 1)
        target: list[list[int | None]] = [[None] * side_out for _ in range(side_out)]
        for m in ifs.maps:
            r0, c0, drdr, drdc, dcdr, dcdc, zshift = cell_transform_fractions(m, resolution)
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


def self_overlap_search(drdr: int, drdc: int, dcdr: int, dcdc: int, side: int) -> tuple[int, int] | None:
    """The kernel search that `fractal._self_overlap` replaced, for any integer action.

    A singular action's kernel holds a shortest vector v (normalised to point
    down, or right on row 0); cells p and p + v collide iff both lie in the
    side x side box, and p is the first such cell in row 0.
    """
    if drdr * dcdc != drdc * dcdr:
        return None
    a, b = (drdr, drdc) if drdr or drdc else (dcdr, dcdc)
    if a == b == 0:
        vr, vc = 0, 1
    else:
        g = math.gcd(a, b)
        vr, vc = -b // g, a // g
        if vr < 0 or (vr == 0 and vc < 0):
            vr, vc = -vr, -vc
    if vr >= side or abs(vc) >= side:
        return None
    return 0, max(0, -vc)

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


def _pack_rows(rows: list[list[int]], limb_bytes: int) -> list[int]:
    """Pack each row of signed ints into one big integer, base 2**(8*limb_bytes).

    Requires |entry| < 2**(8*limb_bytes - 1); to_bytes raises otherwise.
    """
    bits = 8 * limb_bytes
    off = 1 << (bits - 1)
    n = len(rows[0])
    unit = ((1 << (bits * n)) - 1) // ((1 << bits) - 1)  # 1 + B + ... + B**(n-1)
    off_total = off * unit
    packed = []
    for row in rows:
        data = b"".join((c + off).to_bytes(limb_bytes, "little") for c in row)
        packed.append(int.from_bytes(data, "little") - off_total)
    return packed


def _unpack_row(acc: int, limb_bytes: int, n: int) -> list[int]:
    """Inverse of _pack_rows for a single packed value with n limbs."""
    bits = 8 * limb_bytes
    off = 1 << (bits - 1)
    unit = ((1 << (bits * n)) - 1) // ((1 << bits) - 1)
    data = (acc + off * unit).to_bytes(limb_bytes * n, "little")
    return [
        int.from_bytes(data[limb_bytes * i : limb_bytes * (i + 1)], "little") - off
        for i in range(n)
    ]


def _limb_bytes_for(bound: int) -> int:
    # one spare bit for the sign, one for safety
    return (bound.bit_length() + 2 + 7) // 8


def packed_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact product of square integer rows: each row of b packed into one big integer."""
    n = len(a)
    a_max = max(abs(v) for row in a for v in row)
    b_max = max(abs(v) for row in b for v in row)
    # the limbs hold the packed factor's own entries as well as the product's
    lb = _limb_bytes_for(max(a_max * b_max * n + 1, b_max))
    packed = _pack_rows(b, lb)
    out = []
    for arow in a:
        acc = 0
        for k, v in enumerate(arow):
            if v:
                acc += v * packed[k]
        out.append(_unpack_row(acc, lb, n))
    return out


def _exact_halvings(rows: list[list[int]], k: int) -> list[list[int]]:
    """rows / 2**k entrywise; raises ValueError unless every entry is divisible."""
    if any(v & ((1 << k) - 1) for row in rows for v in row):
        raise ValueError(f"entries not divisible by 2^{k}")
    return [[v >> k for v in row] for row in rows]


def int_ladder_lists(n: int) -> list[tuple[list[list[int]], list[list[int]]]]:
    """Integer rows of (P(k,0), P(k,1)) scaled by 2**k for k = 0..n, by the block recursion on lists."""
    rows0, rows1 = [[1]], [[1]]
    levels = [(rows0, rows1)]
    for k in range(1, n + 1):
        zeros = [0] * (1 << (k - 1))
        new0 = [[v << 1 for v in r] + zeros for r in rows0]
        new0 += [r1 + r0 for r1, r0 in zip(rows1, rows0)]
        new1 = [r1 + r0 for r1, r0 in zip(rows1, rows0)]
        new1 += [zeros + [v << 1 for v in r] for r in rows1]
        rows0, rows1 = new0, new1
        levels.append((rows0, rows1))
    return levels


def entropy_direct_lists(rows: list[list[int]], e: int) -> list[tuple[int, int]]:
    """Row entropies of integer rows scaled by 2**e, as (numerator, e) pairs at scale 2**e.

    Every non-zero entry v = 2**(e-m) contributes m * v.
    """
    return [(sum((e + 1 - v.bit_length()) * v for v in row if v), e) for row in rows]


def entropy_step_lists(n: int) -> list:
    """h(n, 0) as Dyadics by the one-step recursion h -> [h, h/2 + rev(h)/2 + 1] on lists."""
    from trapdoor.dyadic import Dyadic

    h = [Dyadic(0)]
    half = Dyadic(1, 1)
    for _ in range(n):
        h = h + [half * a + half * b + 1 for a, b in zip(h, h[::-1])]
    return h


def entropy_even_lists(n: int) -> list:
    """h(n, 0) as Dyadics, even n, by the four-block recursion on lists."""
    from trapdoor.dyadic import Dyadic

    h = [Dyadic(0)]
    half, quarter, three_q, three_half = Dyadic(1, 1), Dyadic(1, 2), Dyadic(3, 2), Dyadic(3, 1)
    for _ in range(n // 2):
        rev = h[::-1]
        h = (
            list(h)
            + [half * a + half * b + 1 for a, b in zip(h, rev)]
            + [three_q * a + quarter * b + three_half for a, b in zip(h, rev)]
            + [quarter * a + three_q * b + three_half for a, b in zip(h, rev)]
        )
    return h


def omega_lists(n: int) -> list[int]:
    """w(n, 0) by the block recursions on lists: even n doubles as
    [w, w - 2, w - 2, w] from [0], odd n as [w, rev(w), w - 2, rev(w) - 2] from [0, -2]."""
    if n % 2 == 0:
        w = [0]
        for _ in range(n // 2):
            shifted = [x - 2 for x in w]
            w = w + shifted + shifted + w
    else:
        w = [0, -2]
        for _ in range((n - 1) // 2):
            rev = w[::-1]
            w = w + rev + [x - 2 for x in w] + [x - 2 for x in rev]
    return w


def invert_ladder_lists(n: int, s0: int) -> list[list[int]]:
    """Integer rows of P(n, s0)^-1 by the one-step block formula on lists and packed products."""
    ladder = int_ladder_lists(max(n - 1, 0))
    inv = [[1]]
    for k in range(1, n + 1):
        mid = ladder[k - 1][1 - s0]  # scaled by 2**(k-1)
        corner = _exact_halvings(packed_matmul(packed_matmul(inv, mid), inv), k - 1)
        zeros = [0] * (1 << (k - 1))
        if s0 == 0:
            new = [r + zeros for r in inv]
            new += [[-v for v in cr] + [v << 1 for v in ir] for cr, ir in zip(corner, inv)]
        else:
            new = [[v << 1 for v in ir] + [-v for v in cr] for ir, cr in zip(inv, corner)]
            new += [zeros + r for r in inv]
        inv = new
    return inv


def invert_two_step_lists(n: int, s0: int) -> list[list[int]]:
    """Integer rows of P(n, s0)^-1, even n, by the four-block recursion on lists."""
    ladder = int_ladder_lists(max(n - 2, 0))
    iv = [[1]]
    for k in range(2, n + 1, 2):
        quarter = 1 << (k - 2)
        mid = ladder[k - 2][1 - s0]  # scaled by 2**(k-2)
        m = _exact_halvings(packed_matmul(packed_matmul(iv, mid), iv), k - 2)
        f = _exact_halvings(packed_matmul(packed_matmul(m, mid), iv), k - 2)
        zeros = [0] * quarter
        new = []
        if s0 == 0:
            for r in range(quarter):
                new.append(iv[r] + zeros + zeros + zeros)
            for r in range(quarter):
                new.append([-v for v in m[r]] + [v << 1 for v in iv[r]] + zeros + zeros)
            for r in range(quarter):
                new.append(zeros + [-v for v in iv[r]] + [v << 1 for v in iv[r]] + zeros)
            for r in range(quarter):
                new.append(
                    [v << 1 for v in f[r]]
                    + [-3 * v for v in m[r]]
                    + [-(v << 1) for v in m[r]]
                    + [v << 2 for v in iv[r]]
                )
        else:
            for r in range(quarter):
                new.append(
                    [v << 2 for v in iv[r]]
                    + [-(v << 1) for v in m[r]]
                    + [-3 * v for v in m[r]]
                    + [v << 1 for v in f[r]]
                )
            for r in range(quarter):
                new.append(zeros + [v << 1 for v in iv[r]] + [-v for v in iv[r]] + zeros)
            for r in range(quarter):
                new.append(zeros + zeros + [v << 1 for v in iv[r]] + [-v for v in m[r]])
            for r in range(quarter):
                new.append(zeros + zeros + zeros + iv[r])
        iv = new
    return iv


def generate_outputs_dfs(bits: str, s0: int) -> dict:
    """Feasible outputs and their Dyadic likelihoods by depth-first recursion.

    The package's former enumeration: one call per step of each output path,
    one Dyadic per output, merging repeated outputs by summation.  Kept as the
    reference for the level-wise frontier of generate_outputs.
    """
    from trapdoor.dyadic import Dyadic

    acc: dict = {}

    def walk(pos: int, out: list[str], state: str, halvings: int) -> None:
        if pos == len(bits):
            y = "".join(out)
            acc[y] = acc[y] + Dyadic(1, halvings) if y in acc else Dyadic(1, halvings)
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
    return acc


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


def decode_png(data: bytes) -> tuple[int, int, bytes]:
    """Width, height and pixels of an 8-bit grayscale PNG with one IDAT chunk.

    Checks the signature, every chunk's CRC, the IHDR fields, and that every
    row carries filter byte 0 (None), as the package's writer emits them.
    """
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag, payload = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert zlib.crc32(tag + payload) == crc, tag
        chunks.append((tag, payload))
        pos += 12 + length
    assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, color, comp, filt, interlace) == (8, 0, 0, 0, 0)
    raw = zlib.decompress(chunks[1][1])
    assert len(raw) == height * (width + 1)
    rows = [raw[y * (width + 1) : (y + 1) * (width + 1)] for y in range(height)]
    assert all(row[0] == 0 for row in rows)
    return width, height, b"".join(row[1:] for row in rows)
