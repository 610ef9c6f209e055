"""The four workloads: seeded inputs, the operations of one pass, their checks.

Each workload is built from (seed, tiny).  Building it generates every input
from the seed; ``operations()`` returns the same list of named operations on
every pass.  An operation calls the package only through ``meter.call``,
which times the call, and then checks the outputs against ``oracle``, raising
``CheckFailed`` on a mismatch.  Checks are not timed.  The package is always
reached through a module attribute (``channel.build_channel_matrix``, not a
name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from trapdoor import bounds, channel, cli, enumeration, fractal, optimize, serialization

import oracle
from oracle import expect


class Workload:
    """Inputs drawn from the seed in __init__; the same operations on every pass."""

    def __init__(self, seed: int, tiny: bool, scratch: Path) -> None:
        self.rng = random.Random(seed)
        self.scratch = scratch  # directory for the files an operation writes

    def operations(self) -> list[tuple[str, Callable]]:
        raise NotImplementedError


# -- exact: dense exact algebra in channel / matrices / bounds ----------------


class Exact(Workload):
    """Build, invert and check P(n, s0); h, w, d and S; a CSV round trip of one inverse."""

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.top = 4 if tiny else 10
        # the CSV round trip of the n = 10 inverse alone takes 4 s, longer than
        # all the algebra at n <= 9, so it runs one size down
        self.csv_n = self.top - 1
        self.csv_state = self.rng.randrange(2)
        self.spot_rows = {
            (n, s0): self.rng.sample(range(1 << n), min(8, 1 << n))
            for n in range(1, self.top + 1) for s0 in (0, 1)
        }
        self.vector_seed = self.rng.randrange(1 << 30)

    def operations(self):
        return [
            (f"exact n={n} s0={s0}", lambda m, n=n, s0=s0: self.block(m, n, s0))
            for n in range(1, self.top + 1) for s0 in (0, 1)
        ]

    def block(self, m, n: int, s0: int) -> None:
        rng = random.Random(self.vector_seed + 2 * n + s0)
        P = m.call(channel.build_channel_matrix, n, s0)
        rows, e = P.data.int_rows, P.data.exp
        for i in self.spot_rows[(n, s0)]:
            expect(rows[i] == oracle.expected_row_ints(n, s0, i, e),
                   f"P({n},{s0}) row {i} differs from the ball process")

        inv = m.call(channel.invert_channel_matrix, P)
        expect(m.call(P.data.product_is_identity, inv) is True,
               f"product_is_identity rejects P^-1 P at n={n}, s0={s0}")
        expect(oracle.freivalds_identity(rows, e, inv.int_rows, inv.exp, rng, 2),
               f"P (P^-1 v) != v at n={n}, s0={s0}")
        if n % 2 == 0:
            inv2 = m.call(channel.invert_two_step, n, s0)
            expect(oracle.freivalds_identity(rows, e, inv2.int_rows, inv2.exp, rng, 2),
                   f"two-step inverse fails P (P^-1 v) == v at n={n}, s0={s0}")
            del inv2

        h = m.call(bounds.entropy_vector_direct, P)
        w = m.call(bounds.omega_direct, P, h, inverse=inv).entries
        expect(all(type(x) is int and x <= 0 and x % 2 == 0 for x in w),
               f"w is not even, non-positive and integral at n={n}, s0={s0}")
        expect(oracle.weights_solve_entropy(rows, e, w, [(d.num, d.exp) for d in h.entries]),
               f"P w != -h at n={n}, s0={s0}")
        S = oracle.closed_form_S(n)
        expect(sum(Fraction(2) ** x for x in w) == S, f"sum 2^w != closed form at n={n}")

        d = m.call(bounds.d_vector, n, s0, inverse=inv)
        dd = [(v.num, v.exp) for v in d]
        expect(oracle.dyadic_sum(dd) == S, f"sum d != S at n={n}, s0={s0}")
        expect(oracle.transpose_solves_weights(rows, e, dd, w), f"P^T d != 2^w at n={n}")
        if n >= 2:
            # d[2^n - 1] (1-based) for state 0; the exchange mirrors it to d[2] for state 1
            index = (1 << n) - 2 if s0 == 0 else 1
            expect(dd[index][0] < 0, f"d[{index + 1}] is not negative at n={n}, s0={s0}")

        ub = m.call(bounds.upper_bound, n, s0, include_d=False)
        expect(oracle.dyadic_sum([(ub.S.num, ub.S.exp)]) == S, f"upper_bound S != closed form at n={n}")
        expect(abs(ub.c_up - oracle.closed_form_bound(n)) < 1e-12, f"c_up differs at n={n}")

        if n == self.csv_n and s0 == self.csv_state:
            path = self.scratch / f"inverse_n{n}_s{s0}.csv"
            m.call(serialization.write_matrix_csv, inv, path)
            back = m.call(serialization.read_matrix_csv, path)
            expect(oracle.scaled_equal(back.int_rows, back.exp, inv.int_rows, inv.exp),
                   "CSV read-back differs from the inverse written")
            path.unlink()


# -- certify: Blahut-Arimoto in optimize ------------------------------------


class Certify(Workload):
    """BA to 1e-8 per letter on both states, then constraint_check and MI."""

    TOL = 1e-8

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        self.ns = range(1, 4 if tiny else 9)
        # a random interior distribution per (n, s0) at which MI is cross-checked
        self.probes = {}
        for n in self.ns:
            for s0 in (0, 1):
                p = np.array([self.rng.random() + 0.01 for _ in range(1 << n)])
                self.probes[(n, s0)] = p / p.sum()

    def operations(self):
        return [(f"certify n={n}", lambda m, n=n: self.certify(m, n)) for n in self.ns]

    def certify(self, m, n: int) -> None:
        tol = self.TOL
        bound = oracle.closed_form_bound(n)
        caps = []
        for s0 in (0, 1):
            P = m.call(channel.build_channel_matrix, n, s0)
            rows, e = P.data.int_rows, P.data.exp
            rep = m.call(optimize.blahut_arimoto, P, tol=tol, max_iter=200_000)
            expect(rep.converged and rep.final_gap <= tol,
                   f"BA bracket {rep.final_gap:.3e} > {tol} at n={n}, s0={s0}")
            cap = rep.capacity_per_letter
            if n >= 2:
                floor = oracle.zero_error_rate(n)
                expect(floor <= cap + tol and cap <= bound + tol,
                       f"capacity {cap} outside [{floor}, {bound}] at n={n}, s0={s0}")
            else:
                expect(abs(cap - bound) <= 1e-6, f"n=1 capacity {cap} != bound {bound}")
            p = rep.distribution
            expect(m.call(bounds.constraint_check, n, s0, p, P=P) is True,
                   f"constraint_check rejects the BA distribution at n={n}")
            own = oracle.mutual_information(rows, e, p, n)
            expect(abs(own - cap) <= 1e-9, f"MI {own} at the BA optimum != lower bracket {cap}")
            mi = m.call(optimize.mutual_information, P, p)
            expect(abs(mi - own) <= 1e-9, f"mutual_information {mi} != {own} at n={n}")
            probe = self.probes[(n, s0)]
            mi = m.call(optimize.mutual_information, P, probe)
            expect(abs(mi - oracle.mutual_information(rows, e, probe, n)) <= 1e-9,
                   f"mutual_information differs at a random distribution, n={n}")
            caps.append(cap)
        expect(abs(caps[0] - caps[1]) <= tol, f"states disagree at n={n}: {caps}")


# -- views: enumeration and the fractal ----------------------------------------


class Views(Workload):
    """Output enumeration on seeded, constant and alternating inputs; IFS, render, PNG."""

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        rng = self.rng
        self.all_length = 4 if tiny else 10
        long = 8 if tiny else 24
        self.patterns = [
            ("1" * long, 0), ("0" * long, 1),
            ("10" * (long // 2), 0), ("01" * (long // 2 - 1), 1),
        ]
        # random inputs whose support lies in a fixed window, so every seed
        # enumerates about the same number of outputs
        length, lo, hi = (6, 4, 12) if tiny else (20, 2000, 4000)
        while len(self.patterns) < (6 if tiny else 12):
            bits = "".join(rng.choice("01") for _ in range(length))
            s0 = rng.randrange(2)
            if lo <= oracle.path_count(bits, s0) <= hi:
                self.patterns.append((bits, s0))
        self.ifs_res = 4 if tiny else 11
        self.sierpinski_res = 4 if tiny else 10
        self.rho_n = 4 if tiny else 10
        self.render_state = rng.randrange(2)
        self.cell_seed = rng.randrange(1 << 30)

    def operations(self):
        ops = [(f"views all inputs length {self.all_length} s0={s0}",
                lambda m, s0=s0: self.all_inputs(m, s0)) for s0 in (0, 1)]
        ops += [(f"views enumerate {bits} s0={s0}",
                 lambda m, bits=bits, s0=s0: self.enumerate(m, bits, s0))
                for bits, s0 in self.patterns]
        ops += [("views trapdoor fractal", self.trapdoor_fractal),
                ("views sierpinski", self.sierpinski),
                ("views rho", self.rho)]
        return ops

    def _check_distribution(self, dist, bits: str, s0: int) -> None:
        outs = dist.outputs
        expect(len(outs) == oracle.path_count(bits, s0),
               f"support of {bits} (s0={s0}) differs from the ball process")
        expect(oracle.dyadic_sum((p.num, p.exp) for p in outs.values()) == 1,
               f"likelihoods of {bits} do not sum to 1")

    def all_inputs(self, m, s0: int) -> None:
        k = self.all_length
        total = 0
        for i in range(1 << k):
            bits = format(i, f"0{k}b")
            dist = m.call(enumeration.generate_outputs, bits, s0)
            self._check_distribution(dist, bits, s0)
            total += len(dist.outputs)
        expect(total == 3**k, f"supports over all inputs sum to {total}, not 3^{k}")

    def enumerate(self, m, bits: str, s0: int) -> None:
        dist = m.call(enumeration.generate_outputs, bits, s0)
        self._check_distribution(dist, bits, s0)
        rng = random.Random(self.cell_seed + int(bits, 2) + s0)
        for y in rng.sample(sorted(dist.outputs), min(16, len(dist.outputs))):
            p = m.call(enumeration.feasibility, bits, y, s0)
            expect(p == dist.outputs[y], f"feasibility({bits}, {y}) != enumerated likelihood")
            draws = oracle.ball_walk(bits, y, s0)
            expect(draws is not None and (p.num, p.exp) == (1, draws),
                   f"likelihood of {y} given {bits} differs from the ball process")
        y = "".join(rng.choice("01") for _ in bits)
        p = m.call(enumeration.feasibility, bits, y, s0)
        draws = oracle.ball_walk(bits, y, s0)
        expect((p.num, p.exp) == ((0, 0) if draws is None else (1, draws)),
               f"feasibility({bits}, {y}) differs from the ball process")

    def _spot_rows(self, k: int, salt: int) -> list[int]:
        return random.Random(self.cell_seed + salt).sample(range(1 << k), min(8, 1 << k))

    def _check_png(self, pgm: bytes, path: Path) -> bytes:
        w, h, pixels = oracle.decode_pgm(pgm)
        pw, ph, png_pixels = oracle.decode_png(path.read_bytes())
        expect((pw, ph) == (w, h) and png_pixels == pixels, "PNG does not decode to the PGM pixels")
        path.unlink()
        return pixels

    def trapdoor_fractal(self, m) -> None:
        k = self.ifs_res
        grids = [m.call(fractal.ifs_iterate, fractal.trapdoor_ifs(s0), fractal.unit_grid(), k)
                 for s0 in (0, 1)]
        for s0, g in enumerate(grids):
            expect(sum(len(row) - row.count(-1) for row in g.codes) == 3**k,
                   f"trapdoor grid s0={s0} does not have 3^{k} occupied cells")
            for r in self._spot_rows(k, s0):
                expect(g.codes[r] == oracle.expected_grid_row(k, s0, r),
                       f"IFS grid s0={s0} row {r} differs from the ball process")
        rotated = m.call(fractal.tau_transform, grids[0])
        expect(rotated.codes == grids[1].codes, "tau_transform does not swap the two states")
        del rotated
        s = self.render_state
        pgm = m.call(fractal.render_pgm, grids[s], "log")
        path = self.scratch / f"trapdoor_s{s}.png"
        m.call(serialization.write_png, pgm, path)
        pixels = self._check_png(pgm, path)
        side = 1 << k
        for r in self._spot_rows(k, 2):
            want = bytes(0 if c < 0 else round(255 * (1 - c / k)) for c in oracle.expected_grid_row(k, s, r))
            expect(pixels[r * side:(r + 1) * side] == want, f"rendered row {r} differs")

    def sierpinski(self, m) -> None:
        k = self.sierpinski_res
        g = m.call(fractal.ifs_iterate, fractal.sierpinski_ifs(), fractal.unit_grid(), k)
        expect(sum(len(row) - row.count(-1) for row in g.codes) == 3**k,
               f"Sierpinski grid does not have 3^{k} occupied cells")
        for r in self._spot_rows(k, 3):
            want = [0 if oracle.sierpinski_occupied(k, r, c) else -1 for c in range(1 << k)]
            expect(g.codes[r] == want, f"Sierpinski row {r} differs")
        pgm = m.call(fractal.render_pgm, g, "binary")
        path = self.scratch / "sierpinski.png"
        m.call(serialization.write_png, pgm, path)
        pixels = self._check_png(pgm, path)
        expect(pixels.count(255) == 3**k, "Sierpinski image does not have 3^k white pixels")

    def rho(self, m) -> None:
        k = self.rho_n
        shapes = []
        for s0 in (0, 1):
            P = m.call(channel.build_channel_matrix, k, s0)
            g = m.call(fractal.rho_representation, P)
            for r in self._spot_rows(k, 4 + s0):
                expect(g.codes[r] == oracle.expected_grid_row(k, s0, r),
                       f"rho(P({k},{s0})) row {r} differs from the ball process")
            shapes.append(g)
        rotated = m.call(fractal.tau_transform, shapes[0])
        expect(rotated.codes == shapes[1].codes, "tau_transform does not map rho(P0) to rho(P1)")


# -- cli: whole commands through trapdoor.cli.main ------------------------------


class Cli(Workload):
    """A fixed list of commands as a user types them, each output checked."""

    def __init__(self, seed, tiny, scratch):
        super().__init__(seed, tiny, scratch)
        rng = self.rng
        self.verify_n = 3 if tiny else 9
        self.bound_ns = range(1, 4 if tiny else 10)
        self.ba_ns = range(2, 3 if tiny else 6)
        self.matrix_n = 3 if tiny else 7
        enum_len = 5 if tiny else 14
        self.enum_inputs = [("".join(rng.choice("01") for _ in range(enum_len)), rng.randrange(2))
                            for _ in range(2)]
        self.fractal_res = 3 if tiny else 9
        self.fractal_state = rng.randrange(2)
        self.sierpinski_res = 3 if tiny else 8
        self.vector_seed = rng.randrange(1 << 30)

    def operations(self):
        ops = [("cli verify", self.verify)]
        ops += [(f"cli bound -n {n}", lambda m, n=n: self.bound(m, n)) for n in self.bound_ns]
        ops += [(f"cli ba -n {n}", lambda m, n=n: self.ba(m, n)) for n in self.ba_ns]
        ops += [("cli matrix --inverse", self.matrix_inverse), ("cli matrix", self.matrix)]
        ops += [(f"cli enumerate {bits}", lambda m, bits=bits, s0=s0: self.enumerate(m, bits, s0))
                for bits, s0 in self.enum_inputs]
        ops += [("cli fractal", self.fractal), ("cli sierpinski", self.sierpinski)]
        return ops

    def run(self, m, *argv: str) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.call(cli.main, list(argv))
        expect(code == 0, f"trapdoor {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def verify(self, m) -> None:
        lines = self.run(m, "verify", "--max-n", str(self.verify_n)).splitlines()
        checks, summary = lines[:-1], lines[-1]
        expect(checks and all(ln.startswith("ok ") for ln in checks),
               f"verify reports a failed check: {[ln for ln in checks if not ln.startswith('ok ')]}")
        expect(summary.startswith(f"{len(checks)}/{len(checks)} checks passed"),
               f"verify summary {summary!r}")

    def bound(self, m, n: int) -> None:
        rep = json.loads(self.run(m, "bound", "-n", str(n), "--format", "json"))
        num, e = oracle.parse_dyadic_text(rep["S"])
        expect(Fraction(num, 1 << e) == oracle.closed_form_S(n), f"bound S {rep['S']} at n={n}")
        expect(abs(rep["c_upper_bits_per_use"] - oracle.closed_form_bound(n)) < 1e-12,
               f"bound c_up at n={n}")
        neg = rep["d_negative_indices"]
        expect(((1 << n) - 1 in neg) if n >= 2 else neg == [], f"d negativity at n={n}: {neg[:4]}")

    def ba(self, m, n: int) -> None:
        rep = json.loads(self.run(m, "ba", "-n", str(n), "--tol", "1e-9", "--format", "json"))
        bound = oracle.closed_form_bound(n)
        cap = rep["capacity_bits_per_use"]
        expect(rep["converged"] and rep["bracket_width"] <= 1e-9, f"ba did not converge at n={n}")
        expect(abs(rep["bound_bits_per_use"] - bound) < 1e-12, f"ba bound field at n={n}")
        expect(oracle.zero_error_rate(n) <= cap + 1e-9 and cap <= bound + 1e-9,
               f"ba capacity {cap} outside [zero-error rate, bound] at n={n}")
        p = np.array(rep["distribution"])
        expect(abs(p.sum() - 1.0) < 1e-9, f"ba distribution sums to {p.sum()}")
        rows = [oracle.expected_row_ints(n, 0, i, n) for i in range(1 << n)]
        expect(abs(oracle.mutual_information(rows, n, p, n) - cap) < 1e-8,
               f"MI at the ba distribution differs from its capacity at n={n}")

    def matrix_inverse(self, m) -> None:
        n = self.matrix_n
        path = self.scratch / "inverse.csv"
        self.run(m, "matrix", "-n", str(n), "--inverse", "--format", "csv", "-o", str(path))
        _, rows, e = oracle.parse_matrix_csv(path.read_text())
        path.unlink()
        p_rows = [oracle.expected_row_ints(n, 0, i, n) for i in range(1 << n)]
        expect(oracle.freivalds_identity(p_rows, n, rows, e, random.Random(self.vector_seed), 4),
               "matrix --inverse output is not the inverse of P")

    def matrix(self, m) -> None:
        n = self.matrix_n - 1
        path = self.scratch / "matrix.csv"
        self.run(m, "matrix", "-n", str(n), "-s", "1", "--format", "csv", "-o", str(path))
        header, rows, e = oracle.parse_matrix_csv(path.read_text())
        path.unlink()
        expect(header == {"n": str(n), "s0": "1", "dim": str(1 << n)}, f"matrix header {header}")
        want = [oracle.expected_row_ints(n, 1, i, n) for i in range(1 << n)]
        expect(oracle.scaled_equal(rows, e, want, n), "matrix output differs from the ball process")

    def enumerate(self, m, bits: str, s0: int) -> None:
        path = self.scratch / "outputs.json"
        self.run(m, "enumerate", "-i", bits, "-s", str(s0), "--format", "json", "-o", str(path))
        rep = json.loads(path.read_text())
        path.unlink()
        want = oracle.ball_outputs(bits, s0)
        got = {int(o["y"], 2): oracle.parse_dyadic_text(o["p"]) for o in rep["outputs"]}
        expect(got == {y: (1, d) for y, d in want.items()},
               f"enumerate {bits} differs from the ball process")

    def fractal(self, m) -> None:
        k, s = self.fractal_res, self.fractal_state
        path = self.scratch / "fractal.png"
        text = self.run(m, "fractal", "--resolution", str(k), "-s", str(s),
                        "--mode", "binary", "-o", str(path))
        expect(f"{3**k} occupied cells" in text, f"fractal summary {text.strip()!r}")
        w, h, pixels = oracle.decode_png(path.read_bytes())
        path.unlink()
        expect(w == h == 1 << k and pixels.count(255) == 3**k, "fractal PNG has the wrong pixels")
        for r in random.Random(self.vector_seed).sample(range(w), min(8, w)):
            want = bytes(0 if c < 0 else 255 for c in oracle.expected_grid_row(k, s, r))
            expect(pixels[r * w:(r + 1) * w] == want, f"fractal PNG row {r} differs")

    def sierpinski(self, m) -> None:
        k = self.sierpinski_res
        path = self.scratch / "sierpinski.png"
        self.run(m, "sierpinski", "--resolution", str(k), "-o", str(path))
        w, h, pixels = oracle.decode_png(path.read_bytes())
        path.unlink()
        want = bytes(255 if oracle.sierpinski_occupied(k, r, c) else 0
                     for r in range(h) for c in range(w))
        expect(pixels == want, "sierpinski PNG differs from the Sierpinski pattern")


WORKLOADS = {"exact": Exact, "certify": Certify, "views": Views, "cli": Cli}
