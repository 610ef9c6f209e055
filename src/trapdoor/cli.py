"""Command-line front end.

Subcommands: matrix, enumerate, entropy, omega, bound, ba, fractal,
sierpinski, verify.  Exit codes: 0 success, 1 verification failure (an
internal assertion, arithmetic or convergence failure included, and for
verify any error inside a check), 2 usage error (a request too large for
memory included), 130 interrupted (Ctrl-C).
Default initial state is 0 everywhere; `verify` checks state 1 against its
own block recursion and the exchange symmetries of h and w.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bounds, config, enumeration, fractal, optimize, serialization, verify
from .channel import build_channel_matrix, invert_channel_matrix

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C

# default output file of each image command, without its suffix
_IMAGE_NAMES = {"fractal": "trapdoor_s{s}_k{resolution}", "sierpinski": "sierpinski_k{resolution}"}


def _add_state(p: argparse.ArgumentParser) -> None:
    p.add_argument("-s", type=int, default=0, choices=(0, 1), help="initial state (default 0)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="block length")
    _add_state(p)
    p.add_argument("-o", metavar="PATH", default=None, help="output file (default: stdout)")


def _add_matrix(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--inverse", action="store_true", help="emit the inverse matrix")
    p.add_argument("--format", choices=("csv", "text"), default="text")


def _add_enumerate(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", metavar="BITS", required=True, help="input bit string")
    _add_state(p)
    p.add_argument("-o", metavar="PATH", default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")


def _add_vector(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="text")


def _add_ba(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-10, help="per-letter bracket width (default 1e-10)")
    p.add_argument("--max-iter", type=int, default=200_000)
    p.add_argument("--format", choices=("json", "text"), default="text")


def _add_render(p: argparse.ArgumentParser, name: str, mode: str, state: bool) -> None:
    p.add_argument("--resolution", type=int, required=True, help="number of iterations")
    if state:
        _add_state(p)
    p.add_argument("--mode", choices=("linear", "log", "binary"), default=mode)
    p.add_argument("--gamma", type=float, default=1.0)
    default = f"{_IMAGE_NAMES[name]}.pgm, or .png with --format png"
    p.add_argument("-o", metavar="PATH", default=None, help=f"output image (default: {default})")
    p.add_argument("--format", choices=("pgm", "png"), default=None, help="default: from file suffix")


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=8, help="largest block length checked (default 8)")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapdoor",
        description=(
            "Exact computations for the binary trapdoor channel: transition "
            "matrices and inverses, output enumeration, capacity upper bounds, "
            "simplex certification, and fractal rendering."
        ),
        epilog=(
            f"Resource caps honor the environment variables "
            f"{config.MATRIX_CAP_ENV}, {config.INPUT_CAP_ENV}, {config.BOUND_CAP_ENV}."
        ),
    )
    # only a named command's subparser is built; the metavar keeps every name in the usage line
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, add, _) in _COMMANDS.items():
        if command in (None, name):
            add(sub.add_parser(name, help=text))
    return parser


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _cmd_matrix(args: argparse.Namespace) -> int:
    P = build_channel_matrix(args.n, args.s)
    data = invert_channel_matrix(P) if args.inverse else P.data
    if args.format == "csv":
        _emit(serialization.matrix_csv_text(data if args.inverse else P), args.o)
    else:
        _emit("\n".join(serialization.matrix_lines(data, str, "  ")), args.o)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    dist = enumeration.generate_outputs(args.i, args.s)
    if args.format == "json":
        _emit(serialization.distribution_json(dist), args.o)
    else:
        lines = [f"input {args.i}, initial state {args.s}:"]
        for y in dist.support():
            lines.append(f"  {y}  p = {dist.outputs[y]}")
        _emit("\n".join(lines), args.o)
    return 0


def _cmd_vector(args: argparse.Namespace) -> int:
    """entropy and omega: the vector from P, checked against the block recursion."""
    P = build_channel_matrix(args.n, args.s)
    vec = bounds.entropy_vector_direct(P)
    if args.command == "entropy":
        name = "h"
        recursion = bounds.entropy_vector_recursive_step if args.s == 0 else bounds.entropy_state1
    else:
        name, vec = "omega", bounds.omega_direct(P, vec)
        recursion = bounds.omega_recursive if args.s == 0 else bounds.omega_state1
    agree = np.array_equal(vec.array, recursion(args.n).array)
    if args.format == "json":
        entries = [serialization.format_dyadic(v) for v in vec.entries] if name == "h" else vec.entries
        report = {"n": args.n, "s0": args.s, "entries": entries, "recursion_agrees": agree}
        _emit(serialization.dumps_json(report), args.o)
    else:
        entries = "  ".join(map(str, vec.entries))
        _emit(f"{name}(n={args.n}, s0={args.s}) = [{entries}]\nrecursion agrees: {agree}", args.o)
    return 0 if agree else CHECK_FAILED


def _cmd_bound(args: argparse.Namespace) -> int:
    result = bounds.upper_bound(args.n, args.s)
    if args.format == "json":
        _emit(serialization.dumps_json(serialization.bound_report(result)), args.o)
        return 0
    lines = [f"S = {result.S}, C_up = {result.c_up:.6f} b/u"]
    neg = result.negative_d_indices()
    if neg:
        lines.append(f"relaxed optimum leaves the simplex: d < 0 at {len(neg)} of {len(result.d)} "
                     f"indices, the first at 1-based index {neg[0]}")
    else:
        lines.append("relaxed optimum lies on the simplex (all d >= 0)")
    lines.append(f"zero-error rate reference: {bounds.ZERO_ERROR_RATE:.6f} b/u")
    lines.append(f"feedback capacity reference: {bounds.golden_ratio_reference():.6f} b/u")
    _emit("\n".join(lines), args.o)
    return 0


def _cmd_ba(args: argparse.Namespace) -> int:
    P = build_channel_matrix(args.n, args.s)
    report = optimize.blahut_arimoto(P, tol=args.tol, max_iter=args.max_iter)
    bound = bounds.closed_form(args.n)
    if args.format == "json":
        _emit(serialization.dumps_json(serialization.ba_report(report, bound)), args.o)
    else:
        lines = [
            f"capacity (simplex) = {report.capacity_per_letter:.9f} b/u "
            f"after {report.iterations} iterations (bracket {report.final_gap:.2e})",
            f"upper bound        = {bound:.9f} b/u (gap {bound - report.capacity_per_letter:.9f})",
            "argmax p = [" + ", ".join(f"{x:.6g}" for x in report.distribution) + "]",
        ]
        _emit("\n".join(lines), args.o)
    return 0 if report.converged else CHECK_FAILED


def _cmd_render(args: argparse.Namespace) -> int:
    """fractal and sierpinski: iterate the IFS and write the image."""
    ifs = fractal.trapdoor_ifs(args.s) if args.command == "fractal" else fractal.sierpinski_ifs()
    grid = fractal.ifs_iterate(ifs, fractal.unit_grid(), args.resolution)
    pgm = fractal.render_pgm(grid, mode=args.mode, gamma=args.gamma)
    out, fmt = args.o, args.format
    if out is None:
        out = f"{_IMAGE_NAMES[args.command].format(**vars(args))}.{fmt or 'pgm'}"
    if fmt is None:
        fmt = "png" if str(out).lower().endswith(".png") else "pgm"
    if fmt == "png":
        serialization.write_png(pgm, out)
    else:
        serialization.write_pgm(pgm, out)
    sys.stdout.write(f"wrote {out} ({grid.side}x{grid.side}, {grid.nonzero_count()} occupied cells)\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_checks(max_n=args.max_n)
    failed = 0
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        sys.stdout.write(f"{status} {r.name} ({r.seconds:.2f}s): {r.detail}\n")
        failed += not r.ok
    sys.stdout.write(
        f"{len(results) - failed}/{len(results)} checks passed (max n = {args.max_n})\n"
    )
    return CHECK_FAILED if failed else 0


# name: (help, argument adder, handler), in the order of the help listing
_COMMANDS = {
    "matrix": ("channel matrix or its exact inverse", _add_matrix, _cmd_matrix),
    "enumerate": ("feasible outputs and exact likelihoods", _add_enumerate, _cmd_enumerate),
    "entropy": ("conditional entropy vector, direct vs recursive", _add_vector, _cmd_vector),
    "omega": ("weight vector, direct vs recursive", _add_vector, _cmd_vector),
    "bound": ("exact S and the capacity upper bound", _add_vector, _cmd_bound),
    "ba": ("simplex capacity via Blahut-Arimoto", _add_ba, _cmd_ba),
    "fractal": ("render the channel attractor approximant",
                lambda p: _add_render(p, "fractal", "log", state=True), _cmd_render),
    "sierpinski": ("render the Sierpinski iterate",
                   lambda p: _add_render(p, "sierpinski", "binary", state=False), _cmd_render),
    "verify": ("run the cross-module invariant suite", _add_verify, _cmd_verify),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except (AssertionError, ArithmeticError, optimize.ConvergenceError) as exc:
        # an internal check or computation failed: a failure, not a usage error
        sys.stderr.write(f"error: {args.command}: {type(exc).__name__}: {exc}\n")
        return CHECK_FAILED
    except MemoryError:
        sys.stderr.write(f"error: {args.command}: the requested size did not fit in memory\n")
        return USAGE_ERROR
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
