import argparse
import gc
import json
import os
import re
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from trapdoor import bounds, cli, enumeration, fractal, optimize, verify
from trapdoor.channel import ChannelMatrix
from trapdoor.cli import main
from trapdoor.dyadic import Dyadic
from trapdoor.matrices import DyadicMatrix
from trapdoor.serialization import read_matrix_csv

from oracles import decode_png


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_text(capsys):
    code, out, _ = run(capsys, "bound", "-n", "2")
    assert code == 0
    assert out.splitlines()[0] == "S = 5/2, C_up = 0.660964 b/u"
    assert "d < 0" in out


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "-n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["S"] == "5/2^1"
    assert data["d_negative_indices"] == [2, 3]
    assert round(data["c_upper_bits_per_use"], 6) == 0.660964


def test_bound_reports_d_past_the_dense_reach(capsys, monkeypatch):
    monkeypatch.setenv("TRAPDOOR_MATRIX_CAP", "0")  # d needs no matrix
    code, out, _ = run(capsys, "bound", "-n", "12", "--format", "json")
    assert code == 0
    neg = json.loads(out)["d_negative_indices"]
    assert len(neg) == 1 << 11 and neg[:3] == [2, 3, 5] and neg[-1] == (1 << 12) - 1
    code, out, _ = run(capsys, "bound", "-n", "12")
    assert code == 0
    assert out.splitlines()[1] == (
        "relaxed optimum leaves the simplex: d < 0 at 2048 of 4096 indices, "
        "the first at 1-based index 2"
    )


def test_bound_n1_on_simplex(capsys):
    code, out, _ = run(capsys, "bound", "-n", "1")
    assert code == 0
    assert "S = 5/4, C_up = 0.321928 b/u" in out
    assert "lies on the simplex" in out


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "-i", "101", "-s", "0")
    assert code == 0
    assert "110" not in out
    assert out.count("p = ") == 5


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "-i", "101", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert [rec["y"] for rec in data["outputs"]] == ["001", "010", "011", "100", "101"]


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "1")
    assert code == 0
    assert out.splitlines() == ["1  0", "1/2  1/2"]


def test_matrix_csv_file(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, out, _ = run(capsys, "matrix", "-n", "2", "--format", "csv", "-o", str(path))
    assert code == 0
    assert read_matrix_csv(path).n == 2


def test_matrix_csv_stdout(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n=1,s0=0,dim=2", "1/2^0,0", "1/2^1,1/2^1"]


def test_matrix_inverse_last_row(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "2", "--inverse")
    assert code == 0
    assert out.splitlines()[3] == "2  -3  -2  4"


def test_matrix_two_step_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "matrix", "-n", "2", "--inverse", "--two-step")
    assert exc.value.code == 2
    assert "--two-step" in capsys.readouterr().err


def test_entropy_agreement(capsys):
    code, out, _ = run(capsys, "entropy", "-n", "2")
    assert code == 0
    assert "0  1  3/2  3/2" in out
    assert "recursion agrees: True" in out


def test_omega_agreement_state1(capsys):
    code, out, _ = run(capsys, "omega", "-n", "1", "-s", "1")
    assert code == 0
    assert "[-2  0]" in out


def test_ba_json(capsys):
    code, out, _ = run(capsys, "ba", "-n", "1", "--tol", "1e-9", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert abs(data["capacity_bits_per_use"] - 0.321928) < 1e-5


def test_fractal_writes_images(tmp_path, capsys):
    pgm = tmp_path / "t.pgm"
    code, out, _ = run(capsys, "fractal", "--resolution", "3", "-o", str(pgm))
    assert code == 0 and pgm.read_bytes().startswith(b"P5\n8 8\n255\n")
    png = tmp_path / "t.png"
    code, out, _ = run(capsys, "sierpinski", "--resolution", "4", "-o", str(png))
    assert code == 0 and png.read_bytes().startswith(b"\x89PNG")
    assert "243" not in out  # 4 iterations -> 81 cells


def test_fractal_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    run(capsys, "sierpinski", "--resolution", "5", "-o", str(a))
    run(capsys, "sierpinski", "--resolution", "5", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    assert "14/14 checks passed" in out
    assert "FAIL" not in out


def test_exchange_symmetry_checks_the_state_one_recursion():
    [result] = verify.run_checks(5, ["exchange symmetry"])
    assert result.ok
    assert result.detail == (
        "P(n,1) equals [[P(n-1,1)/2, P(n-1,0)/2], [0, P(n-1,1)]] block by block, n <= 5"
    )


@pytest.mark.parametrize("bad", (1, 3))
def test_exchange_symmetry_catches_a_transposed_state_one(monkeypatch, bad):
    real = verify.channel_pair

    def transposed(n):
        P0, P1 = real(n)
        if n == bad:
            P1 = ChannelMatrix(n, 1, DyadicMatrix(P1.data.array.T, P1.data.exp))
        return P0, P1

    monkeypatch.setattr(verify, "channel_pair", transposed)
    [result] = verify.run_checks(5, ["exchange symmetry"])
    assert not result.ok
    assert result.detail.endswith(f"differs from the state-1 recursion at n={bad}")


@pytest.mark.parametrize("factor", (Dyadic(1, 1), 2), ids=("finer", "coarser"))
def test_enumeration_check_names_a_changed_likelihood(monkeypatch, factor):
    real = enumeration.generate_outputs

    def changed(bits, s0):
        dist = real(bits, s0)
        if (bits, s0) != ("010", 1):
            return dist
        outputs = dict(dist.outputs)
        y = min(outputs, key=lambda y: outputs[y])  # a likelihood of 2**-3, the matrix's scale
        outputs[y] = outputs[y] * factor
        return SimpleNamespace(outputs=outputs)

    monkeypatch.setattr(enumeration, "generate_outputs", changed)
    [result] = verify.run_checks(5, ["enumeration vs matrices"])
    assert not result.ok
    assert result.detail.endswith("row mismatch at n=3, s0=1, x=010")


@pytest.mark.parametrize(("n", "s0", "x", "y", "delta"), ((3, 0, 0b101, 0b100, 1), (7, 1, 0b1100101, 0, -1)))
def test_enumeration_check_names_a_changed_entry_of_the_trie_walk(monkeypatch, n, s0, x, y, delta):
    real = enumeration.enumerate_all

    def changed(m, s):
        table = real(m, s)
        if (m, s) == (n, s0):
            table[x, y] += delta
        return table

    monkeypatch.setattr(enumeration, "enumerate_all", changed)
    [result] = verify.run_checks(8, ["enumeration vs matrices"])
    assert not result.ok
    assert result.detail == f"row mismatch at n={n}, s0={s0}, x={x:0{n}b}"


def test_simplex_certification_at_max_n_0_names_the_n1_run():
    [result] = verify.run_checks(0, ["simplex certification"])
    assert result.ok
    assert result.detail == "n=1: 0.321928 attains the bound within 1e-6"
    [result] = verify.run_checks(2, ["simplex certification"])
    assert result.detail == "n=1: 0.321928; n=2: 0.500000 all <= bound + 1e-08"



@pytest.mark.parametrize(
    "max_n, coupling, optimizer",
    [
        (0, "even n <= 0", None),
        (1, "even n <= 0", None),
        (2, "even n <= 2", "for 2 <= n <= 2 "),
        (3, "even n <= 2", "for 2 <= n <= 3 "),
    ],
)
def test_verify_details_name_only_what_ran(max_n, coupling, optimizer):
    coupled, d = verify.run_checks(max_n, ["state-coupling identity", "pre-normalized optimizer"])
    assert coupled.ok and d.ok
    assert coupled.detail == f"P(2n,1) P(2n,0)^-1 h equals reversed h, {coupling}"
    n1 = "n=1 optimum [3/5, 2/5] on the simplex"
    if optimizer is None:
        assert d.detail == n1
    else:
        assert d.detail == f"sum d == S and d[2^n-1] < 0 {optimizer}(-3*2^(n-3) even, -3*2^(n-5) odd); {n1}"


ENTROPY_N3_JSON = {
    "0": '{\n  "n": 3,\n  "s0": 0,\n  "entries": [\n    "0",\n    "1/2^0",\n    "3/2^1",\n    "3/2^1",\n'
    '    "7/2^2",\n    "9/2^2",\n    "9/2^2",\n    "7/2^2"\n  ],\n  "recursion_agrees": true\n}\n',
    "1": '{\n  "n": 3,\n  "s0": 1,\n  "entries": [\n    "7/2^2",\n    "9/2^2",\n    "9/2^2",\n    "7/2^2",\n'
    '    "3/2^1",\n    "3/2^1",\n    "1/2^0",\n    "0"\n  ],\n  "recursion_agrees": true\n}\n',
}


@pytest.mark.parametrize("s0", sorted(ENTROPY_N3_JSON))
def test_entropy_json_bytes_are_pinned(capsys, s0):
    # entries are formatted by format_dyadic before dumps_json, which has no dyadic hook
    assert run(capsys, "entropy", "-n", "3", "-s", s0, "--format", "json") == (0, ENTROPY_N3_JSON[s0], "")


def test_inverse_blocks_check_the_one_step_formula():
    [result] = verify.run_checks(5, ["one-step inverse blocks"])
    assert result.ok
    assert result.detail == (
        "P(n,0)^-1 equals [[A, 0], [-A P(n-1,1) A, 2A]], A = P(n-1,0)^-1, block by block, n <= 5"
    )


@pytest.mark.parametrize("delta", (-1, 1))
def test_inverse_blocks_catch_one_changed_lower_left_entry(monkeypatch, delta):
    real = verify._Context.inverse

    def changed(self, n, s0):
        inv = real(self, n, s0)
        if n != 3 or s0 != 0:
            return inv
        a = inv.array.copy()
        a[6, 1] += delta  # row 6, column 1: inside the lower-left 4 x 4 block
        return DyadicMatrix(a, inv.exp)

    monkeypatch.setattr(verify._Context, "inverse", changed)
    [result] = verify.run_checks(5, ["one-step inverse blocks"])
    assert not result.ok
    assert result.detail == "P(n,0)^-1 block (1, 0) differs from -A P(n-1,1) A at n=3"


@pytest.mark.parametrize(("n", "s0", "delta"), ((3, 0, 1), (3, 1, -1), (4, 0, 2)))
def test_inverse_row_sums_catch_one_changed_entry(monkeypatch, n, s0, delta):
    real = verify._Context.inverse

    def changed(self, m, s):
        inv = real(self, m, s)
        if (m, s) != (n, s0):
            return inv
        a = inv.array.copy()
        a[5, 2] += delta
        return DyadicMatrix(a, inv.exp)

    monkeypatch.setattr(verify._Context, "inverse", changed)
    [result] = verify.run_checks(5, ["inverse row sums"])
    assert not result.ok
    assert result.detail == f"inverse row sums differ from 1 at n={n}"


@pytest.mark.parametrize(
    ("field", "delta", "message"),
    (("S", Dyadic(1, 40), "sum 2^w differs"), ("c_up", 1e-13, "c_up differs")),
    ids=("S", "c_up"),
)
@pytest.mark.parametrize("bad", (3, 11, 20))
def test_bound_identities_name_the_length_of_a_wrong_bound(monkeypatch, bad, field, delta, message):
    # the check runs to n = 20 whatever max_n is, so lengths past it are caught too
    real = bounds.upper_bound

    def changed(n, s0=0, include_d=True):
        b = real(n, s0, include_d)
        return replace(b, **{field: getattr(b, field) + delta}) if n == bad else b

    monkeypatch.setattr(bounds, "upper_bound", changed)
    [result] = verify.run_checks(6, ["bound identities"])
    assert not result.ok
    assert result.detail == f"{message} from the closed form at n={bad}"


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fractal, "ifs_iterate", no_memory)
    code, out, err = run(capsys, "fractal", "--resolution", "3")
    assert code == 2
    assert err.startswith("error: ") and "did not fit in memory" in err
    assert "Traceback" not in out + err


def _not_converged(P, tol=1e-10, max_iter=200_000, **kwargs):
    p = np.full(P.dim, 1.0 / P.dim)
    return optimize.OptimizationReport(P.n, P.s0, 0.5, max_iter, 1.0, p, tol=tol)


def _no_exact_weights(*args, **kwargs):
    raise ArithmeticError("weights are not exact")


def test_run_checks_rejects_unknown_names_before_any_check(monkeypatch):
    def no_matrices(n):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "channel_pair", no_matrices)
    with pytest.raises(ValueError) as exc:
        verify.run_checks(1, ["exact inverses", "nope", "exact inverse"])
    message = str(exc.value)
    assert message.startswith("unknown check names ['exact inverse', 'nope']; the checks are: ")
    assert message.endswith(", ".join(name for name, _ in verify.CHECKS))


def test_run_checks_frees_its_matrices_on_return(monkeypatch):
    # no reference cycle holds the context: its matrices go with the last reference,
    # not at the garbage collector's next pass
    real = verify.channel_pair
    refs = []

    def tracked(n):
        pair = real(n)
        refs.append(weakref.ref(pair[0].data.array))
        return pair

    monkeypatch.setattr(verify, "channel_pair", tracked)
    gc.disable()
    try:
        assert all(r.ok for r in verify.run_checks(4))
        alive = [r for r in refs if r() is not None]
    finally:
        gc.enable()
    assert len(refs) == 5 and not alive


def test_run_checks_records_internal_failures(monkeypatch):
    monkeypatch.setattr(optimize, "blahut_arimoto", _not_converged)
    monkeypatch.setattr(bounds, "omega_direct", _no_exact_weights)
    results = verify.run_checks(2, ["weight recursions", "simplex certification"])
    assert [(r.name, r.ok) for r in results] == [
        ("weight recursions", False),
        ("simplex certification", False),
    ]
    assert results[0].detail == "ArithmeticError: weights are not exact"
    assert results[1].detail.startswith("ConvergenceError: bracket 1.000e+00 > tol 1.000e-08")


def test_verify_reports_non_convergence_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(optimize, "blahut_arimoto", _not_converged)
    code, out, err = run(capsys, "verify", "--max-n", "2")
    assert code == 1
    assert "FAIL simplex certification" in out and "ConvergenceError: bracket" in out
    assert "13/14 checks passed" in out
    assert "Traceback" not in out + err


def test_verify_records_a_value_error_inside_a_check(monkeypatch, capsys):
    real_pair = verify.channel_pair

    def transposed_state_one(n):
        P0, P1 = real_pair(n)
        if n == 3:
            P1 = ChannelMatrix(3, 1, DyadicMatrix(P1.data.array.T, P1.data.exp))
        return P0, P1

    monkeypatch.setattr(verify, "channel_pair", transposed_state_one)
    code, out, err = run(capsys, "verify", "--max-n", "4")
    assert code == 1
    assert "FAIL channel matrices stochastic" in out
    assert "ValueError: row does not sum to exactly 1" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "max_n, message",
    [("-1", "max n must be non-negative"), ("15", "max n 15 exceeds the cap 14")],
    ids=["negative", "above-cap"],
)
def test_verify_bad_max_n_is_usage_error(monkeypatch, capsys, max_n, message):
    monkeypatch.delenv("TRAPDOOR_MATRIX_CAP", raising=False)
    code, out, err = run(capsys, "verify", "--max-n", max_n)
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert out == ""


@pytest.mark.parametrize(
    "command, target, failure",
    [
        (("omega", "-n", "2"), (bounds, "omega_direct"), ArithmeticError("inexact")),
        (("enumerate", "-i", "101"), (enumeration, "generate_outputs"), AssertionError("merged")),
        (("bound", "-n", "2"), (bounds, "upper_bound"), optimize.ConvergenceError("bracket")),
    ],
)
def test_internal_failure_exits_1(monkeypatch, capsys, command, target, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(*target, fail)
    code, out, err = run(capsys, *command)
    assert code == 1
    assert err == f"error: {command[0]}: {type(failure).__name__}: {failure}\n"
    assert "Traceback" not in out + err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "matrix", "-n", "99")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "enumerate", "-i", "10x")
    assert code == 2
    code, _, err = run(capsys, "fractal", "--resolution", "99")
    assert code == 2 and "cap" in err
    with pytest.raises(SystemExit) as exc:
        main(["matrix"])  # missing -n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2


def test_interrupt_exits_130(monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(fractal, "ifs_iterate", interrupted)
    code, out, err = run(capsys, "fractal", "--resolution", "3")
    assert code == 130
    assert err == "error: interrupted\n"
    assert "Traceback" not in out + err


def test_resolution_cap_states_the_grid_bytes(monkeypatch, capsys):
    monkeypatch.setenv("TRAPDOOR_MATRIX_CAP", "4")
    code, _, err = run(capsys, "sierpinski", "--resolution", "5")
    assert code == 2
    assert "4**5 bytes" in err and "cap 4" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["matrix", "-n", "16", "--inverse"], "TRAPDOOR_MATRIX_CAP"),
        (["bound", "-n", "21"], "TRAPDOOR_BOUND_CAP"),
        (["enumerate", "-i", "0" * 25], "TRAPDOOR_INPUT_CAP"),
        (["sierpinski", "--resolution", "15"], "TRAPDOOR_MATRIX_CAP"),
    ],
    ids=["inverse", "bound", "enumerate", "sierpinski"],
)
def test_cap_errors_exit_2(argv, env, monkeypatch, capsys):
    monkeypatch.delenv(env, raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "exceeds the cap" in err and env in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "command",
    [
        *(("fractal", "-s", s, "--mode", m) for s in ("0", "1") for m in ("linear", "log", "binary")),
        ("sierpinski",),
    ],
)
def test_png_decodes_to_pgm_pixels(tmp_path, capsys, command):
    for resolution in range(9):
        args = (*command, "--resolution", str(resolution))
        pgm, png = tmp_path / "a.pgm", tmp_path / "a.png"
        assert run(capsys, *args, "-o", str(pgm))[0] == 0
        assert run(capsys, *args, "-o", str(png))[0] == 0
        side = 1 << resolution
        header = b"P5\n%d %d\n255\n" % (side, side)
        data = pgm.read_bytes()
        assert data.startswith(header)
        assert decode_png(png.read_bytes()) == (side, side, data[len(header) :])


# -- consecutive in-process calls ----------------------------------------------


def _outcome(argv, capsys, directory):
    """(exit code, stdout, stderr, files written) of one in-process call run in directory."""
    directory.mkdir()
    cwd = Path.cwd()
    os.chdir(directory)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on a usage error
        code = exc.code
    finally:
        os.chdir(cwd)
    out = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in directory.iterdir()}
    return code, out.out, out.err, files


@pytest.mark.parametrize(
    ("first", "second"),
    (
        (("matrix", "-n", "2", "-o", "m.txt"), ("matrix", "-n", "2")),
        (("matrix", "-n", "2", "-s", "1"), ("matrix", "-n", "2")),
        (("matrix", "-n", "2", "--inverse", "--format", "csv"), ("matrix", "-n", "2")),
        (("bound", "-n", "3", "-s", "1", "--format", "json", "-o", "b.json"), ("bound", "-n", "3")),
        (("enumerate", "-i", "0110", "-s", "1", "--format", "json"), ("enumerate", "-i", "0110")),
        (("fractal", "--resolution", "2", "-s", "1", "--format", "png"), ("fractal", "--resolution", "2")),
        (("sierpinski", "--resolution", "2", "-o", "s.png"), ("sierpinski", "--resolution", "2")),
        (("matrix", "-n", "x"), ("bound", "-n", "2")),
        (("matrix", "-n", "2", "--format", "json"), ("matrix", "-n", "2")),
        (("bogus",), ("enumerate", "-i", "01")),
        (("bound", "-n", "-1"), ("bound", "-n", "2", "--format", "json")),
    ),
    ids=("o", "s", "inverse-format", "bound-all", "enumerate", "fractal", "sierpinski",
         "usage-type", "usage-choice", "usage-command", "usage-value"),
)
def test_a_call_after_another_equals_the_call_alone(capsys, tmp_path, first, second):
    alone = _outcome(second, capsys, tmp_path / "alone")
    before = _outcome(first, capsys, tmp_path / "first")
    after = _outcome(second, capsys, tmp_path / "after")
    assert after == alone
    assert before[0] != 0 or before[1:] != alone[1:]  # the first call differs from the second


# -- one subparser per call ------------------------------------------------------

_COMMAND_NAMES = ("matrix", "enumerate", "entropy", "omega", "bound", "ba", "fractal", "sierpinski", "verify")


@pytest.mark.parametrize(
    "argv",
    (
        ("matrix", "-n", "2", "--inverse"),
        ("enumerate", "-i", "0110", "-s", "1", "--format", "json"),
        ("entropy", "-n", "3"),
        ("omega", "-n", "3", "-s", "1"),
        ("bound", "-n", "3", "--format", "json"),
        ("ba", "-n", "2", "--tol", "1e-6"),
        ("fractal", "--resolution", "2", "-o", "f.png"),
        ("sierpinski", "--resolution", "2"),
        ("verify", "--max-n", "0"),
        ("-h",),
        *((name, "-h") for name in _COMMAND_NAMES),
        ("matrix",),
        ("matrix", "-n", "2", "--format", "json"),
        ("bound", "-n", "x"),
        ("bogus",),
        (),
        ("verify", "--max-n", "2", "extra"),
    ),
    ids=repr,
)
def test_the_lazy_parser_acts_as_the_full_one(capsys, tmp_path, monkeypatch, argv):
    lazy = _outcome(argv, capsys, tmp_path / "lazy")
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_parser())
    full = _outcome(argv, capsys, tmp_path / "full")
    if argv[:1] == ("verify",):  # the timings of the checks differ
        lazy, full = ([re.sub(r" \(\d+\.\d+s\)", "", o) if isinstance(o, str) else o for o in r]
                      for r in (lazy, full))
    assert lazy == full


def test_a_named_command_builds_its_subparser_only():
    [sub] = [a for a in cli._build_parser("bound")._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["bound"]
    assert sub.metavar == "{" + ",".join(_COMMAND_NAMES) + "}"
    [sub] = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(sub.choices) == _COMMAND_NAMES


@pytest.mark.parametrize(
    ("argv", "message"),
    (
        ((), "the following arguments are required: command"),
        (("bogus",), "argument command: invalid choice: 'bogus' (choose from 'matrix', 'enumerate', "),
        (("verify", "--max-n", "2", "extra"), "unrecognized arguments: extra"),
    ),
    ids=("none", "unknown", "extra"),
)
def test_top_level_usage_errors_list_every_command(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage line to the terminal width
    code, out, err, _ = _outcome(argv, capsys, tmp_path / "call")
    usage = "usage: trapdoor [-h]\n                {" + ",".join(_COMMAND_NAMES) + "}\n                ...\n"
    assert (code, out) == (2, "")
    assert err.startswith(usage) and err.splitlines()[-1].startswith(f"trapdoor: error: {message}")
