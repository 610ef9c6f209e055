import json
import re
import zlib

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from trapdoor.bounds import upper_bound
from trapdoor.channel import ChannelMatrix, build_channel_matrix
from trapdoor.dyadic import Dyadic
from trapdoor.enumeration import generate_outputs
from trapdoor import serialization
from trapdoor.matrices import DyadicMatrix
from trapdoor.serialization import (
    ba_report,
    bound_report,
    dumps_json,
    format_dyadic,
    matrix_csv_text,
    parse_dyadic,
    pgm_to_png,
    png_bytes,
    read_matrix_csv,
    write_matrix_csv,
    write_pgm,
    write_png,
)

from oracles import decode_png

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=40),
)


def test_format_examples():
    assert format_dyadic(Dyadic(1, 1)) == "1/2^1"
    assert format_dyadic(Dyadic(0)) == "0"
    assert format_dyadic(Dyadic(-3, 1)) == "-3/2^1"
    assert format_dyadic(Dyadic(1, 0)) == "1/2^0"


def test_parse_examples():
    assert parse_dyadic("1/2^2") == Dyadic(1, 2)
    assert parse_dyadic("0") == Dyadic(0)
    assert parse_dyadic("-3/2^1") == Dyadic(-3, 1)
    assert parse_dyadic("7") == Dyadic(7, 0)
    for bad in ("", "x", "1/3^2", "1/2^", "2^3"):
        with pytest.raises(ValueError):
            parse_dyadic(bad)


@given(dyadics)
def test_round_trip_dyadic(d):
    assert parse_dyadic(format_dyadic(d)) == d


def test_matrix_csv_cells(pairs):
    text = matrix_csv_text(pairs(1)[0])
    lines = text.strip().splitlines()
    assert lines[0] == "n=1,s0=0,dim=2"
    assert lines[1] == "1/2^0,0"
    assert lines[2] == "1/2^1,1/2^1"


def test_channel_matrix_round_trip(tmp_path, pairs):
    path = tmp_path / "p3.csv"
    write_matrix_csv(pairs(3)[1], path)
    back = read_matrix_csv(path)
    assert isinstance(back, ChannelMatrix)
    assert back == pairs(3)[1]
    back.validate()


def test_inverse_round_trip(tmp_path, inverses):
    inv = inverses(3, 0)
    path = tmp_path / "inv3.csv"
    write_matrix_csv(inv, path)
    back = read_matrix_csv(path)
    assert isinstance(back, DyadicMatrix)
    assert back == inv
    assert "s0=general" in path.read_text().splitlines()[0]


def test_read_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_matrix_csv(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("hello\n1,0\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_matrix_csv(bad_header)
    short = tmp_path / "short.csv"
    short.write_text("n=1,s0=0,dim=2\n1/2^0,0\n")
    with pytest.raises(ValueError, match="rows"):
        read_matrix_csv(short)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("n=1,s0=0,dim=2\n1/2^0,0\n1/2^1\n")
    with pytest.raises(ValueError, match="columns"):
        read_matrix_csv(ragged)
    cell = tmp_path / "cell.csv"
    cell.write_text("n=1,s0=0,dim=2\n1/2^0,0\n1/3,0\n")
    with pytest.raises(ValueError, match="malformed"):
        read_matrix_csv(cell)
    not_stochastic = tmp_path / "bad_rows.csv"
    not_stochastic.write_text("n=1,s0=0,dim=2\n1/2^0,1/2^0\n0,1/2^0\n")
    with pytest.raises(ValueError, match="channel"):
        read_matrix_csv(not_stochastic)


@pytest.mark.parametrize("n", ["100000000", "1000000000000", "-1", "2"])
def test_read_rejects_a_block_length_that_does_not_match_the_dimension(tmp_path, n):
    # n is compared with dim before any 2**n is formed, so a huge or negative n says so
    path = tmp_path / "p1.csv"
    path.write_text(matrix_csv_text(build_channel_matrix(1, 0)).replace("n=1,", f"n={n},"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: dimension 2 is not 2**n for block length n = {n}")):
        read_matrix_csv(path)


def test_read_rejects_a_stochastic_matrix_that_is_not_the_channel(tmp_path):
    # the identity is stochastic with power-of-two entries, but it is not P(2, 0)
    path = tmp_path / "identity.csv"
    path.write_text(matrix_csv_text(DyadicMatrix(np.eye(4, dtype=np.int64))).replace("s0=general", "s0=0"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid channel matrix: row 2 differs from P(2, 0)")):
        read_matrix_csv(path)


def test_read_names_the_row_of_a_changed_cell(tmp_path):
    path = tmp_path / "p3.csv"
    lines = matrix_csv_text(build_channel_matrix(3, 1)).splitlines()
    cells = lines[6].split(",")  # row 6 of the matrix
    cells[5] = "1/2^3" if cells[5] == "0" else "0"
    lines[6] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a valid channel matrix: row 6 differs from P(3, 1)")):
        read_matrix_csv(path)


def test_read_brings_cells_to_lowest_terms(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("n=1,s0=general,dim=2\n2/2^2,1/2^1\n 4/2^3,0/2^5\n")
    back = read_matrix_csv(path)
    assert (back.int_rows, back.exp) == ([[1, 1], [1, 0]], 1)
    path.write_text("n=1,s0=general,dim=2\n1/2^1,x\n1/2^1,x\n")
    for _ in range(2):  # a failed parse is reported again, never remembered
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed dyadic string 'x'")):
            read_matrix_csv(path)


@pytest.mark.parametrize("s0", ["general", "0"])
def test_read_names_the_path_of_a_matrix_with_no_rows(tmp_path, s0):
    # header and row count agree, so the shape check is the first to object
    path = tmp_path / "none.csv"
    path.write_text(f"n=0,s0={s0},dim=0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: matrix must be square")):
        read_matrix_csv(path)


@pytest.mark.parametrize("s0", ["2", "banana", ""])
def test_read_rejects_an_unknown_state_header(tmp_path, pairs, s0):
    path = tmp_path / "p2.csv"
    lines = matrix_csv_text(pairs(2)[0]).splitlines()
    header = lines[0].replace("s0=0", f"s0={s0}")
    path.write_text("\n".join([header] + lines[1:]) + "\n")
    with pytest.raises(ValueError) as exc:
        read_matrix_csv(path)
    assert str(path) in str(exc.value) and repr(header) in str(exc.value)


def test_no_floats_in_csv(pairs, inverses):
    for obj in (pairs(4)[0], inverses(4, 1)):
        assert "." not in matrix_csv_text(obj)


def test_dumps_json_takes_dyadics_formatted():
    # a report formats its dyadics with format_dyadic; dumps_json has no hook that would
    data = json.loads(dumps_json({"S": format_dyadic(Dyadic(5, 1)), "values": [format_dyadic(Dyadic(1, 2))]}))
    assert data == {"S": "5/2^1", "values": ["1/2^2"]}
    with pytest.raises(TypeError, match="Dyadic is not JSON serializable"):
        dumps_json({"S": Dyadic(5, 1)})


def test_bound_report_shape():
    rep = bound_report(upper_bound(2))
    assert rep == {
        "n": 2,
        "s0": 0,
        "S": "5/2^1",
        "c_upper_bits_per_use": rep["c_upper_bits_per_use"],
        "d_negative_indices": [2, 3],
    }
    assert round(rep["c_upper_bits_per_use"], 6) == 0.660964


def test_ba_report_shape(pairs):
    from trapdoor.bounds import closed_form
    from trapdoor.optimize import blahut_arimoto

    report = blahut_arimoto(pairs(1)[0], tol=1e-9)
    rep = ba_report(report, closed_form(1))
    assert rep["converged"] is True
    assert rep["iterations"] == report.iterations
    assert abs(rep["gap_to_bound"]) < 1e-6
    assert len(rep["distribution"]) == 2
    json.dumps(rep)  # must be serializable as-is


def test_ba_report_writes_an_unbounded_bracket_as_null(pairs):
    from trapdoor.bounds import closed_form
    from trapdoor.optimize import blahut_arimoto

    # 5e-324 * 0.25 == 0: the middle rows reach outputs of float mass 0
    init = np.full(8, 5e-324)
    init[0] = init[-1] = 0.5
    report = blahut_arimoto(pairs(3)[0], tol=1e-8, max_iter=500, init=init)
    assert report.final_gap == float("inf")

    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    rep = json.loads(serialization.dumps_json(ba_report(report, closed_form(3))), parse_constant=reject)
    assert rep["bracket_width"] is None
    assert rep["converged"] is False


def test_enumeration_report(pairs):
    rec = generate_outputs("101", 0).to_json_dict()
    assert len(rec["outputs"]) == 5
    assert {"y": "010", "p": "1/2^3"} in rec["outputs"]


@pytest.mark.parametrize("bits, s0", [("0", 0), ("1", 0), ("101", 0), ("0110", 1), ("10" * 6, 0), ("1" * 17, 1)])
def test_distribution_json_is_the_indented_json_byte_for_byte(bits, s0):
    dist = generate_outputs(bits, s0)
    assert serialization.distribution_json(dist) == dumps_json(dist.to_json_dict())


def test_distribution_json_escapes_like_json():
    from trapdoor.enumeration import OutputDistribution

    # not an output of the channel, but a valid distribution whose strings need escaping
    dist = OutputDistribution('"\\', 1, {'\u00e9"': Dyadic(1, 1), "\n\t": Dyadic(1, 1)})
    assert serialization.distribution_json(dist) == dumps_json(dist.to_json_dict())


def test_write_pgm_deterministic(tmp_path):
    from trapdoor.fractal import ifs_iterate, render_pgm, sierpinski_ifs, unit_grid

    grid = ifs_iterate(sierpinski_ifs(), unit_grid(), 5)
    data = render_pgm(grid, "binary")
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(data, a)
    write_pgm(render_pgm(grid, "binary"), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"P5\n32 32\n255\n")


def test_png_bytes_structure():
    img = png_bytes(bytes([0, 255, 128, 64]), 2, 2)
    assert img.startswith(b"\x89PNG\r\n\x1a\n")
    assert b"IHDR" in img and b"IDAT" in img and img.endswith(b"IEND" + zlib.crc32(b"IEND").to_bytes(4, "big"))
    # decode the IDAT stream back to filtered scanlines
    start = img.index(b"IDAT") + 4
    length = int.from_bytes(img[img.index(b"IDAT") - 4 : img.index(b"IDAT")], "big")
    raw = zlib.decompress(img[start : start + length])
    assert raw == b"\x00\x00\xff\x00\x80\x40"
    with pytest.raises(ValueError):
        png_bytes(bytes(3), 2, 2)


def test_write_png_from_pgm(tmp_path):
    from trapdoor.fractal import render_pgm, rho_representation

    pgm = render_pgm(rho_representation(build_channel_matrix(1, 0)), "binary")
    out = tmp_path / "img.png"
    write_png(pgm, out)
    assert out.read_bytes().startswith(b"\x89PNG")
    with pytest.raises(ValueError):
        pgm_to_png(b"P2\n1 1\n255\n0")


@st.composite
def gray_images(draw):
    width = draw(st.integers(min_value=1, max_value=70))
    height = draw(st.integers(min_value=1, max_value=70))
    return width, height, draw(st.binary(min_size=width * height, max_size=width * height))


@given(gray_images(), st.integers(min_value=1, max_value=400))
@example((5, 7, bytes(range(35))), 12)  # blocks of 2 rows: 2 + 2 + 2 + 1
def test_png_round_trip_in_blocks(image, block_bytes):
    width, height, pixels = image
    original = serialization._PNG_BLOCK_BYTES
    serialization._PNG_BLOCK_BYTES = block_bytes  # many blocks, the last one often partial
    try:
        img = png_bytes(pixels, width, height)
    finally:
        serialization._PNG_BLOCK_BYTES = original
    assert decode_png(img) == (width, height, pixels)


@pytest.mark.parametrize(
    "pixels, width, height, bad",
    [
        (b"", 0, 0, "0"),
        (bytes(4), -2, -2, "-2"),
        (bytes(4), 2.0, 2, "2.0"),
        (bytes(4), 2, "2", "'2'"),
        (b"", 1 << 31, 0, str(1 << 31)),
    ],
    ids=["zero", "negative", "float", "string", "too_wide"],
)
def test_png_bytes_rejects_bad_dimensions(pixels, width, height, bad):
    with pytest.raises(ValueError, match=f"PNG (width|height) must be an integer from 1 to 2147483647, got {bad}$"):
        png_bytes(pixels, width, height)


def test_pgm_to_png_rejects_empty_image():
    with pytest.raises(ValueError, match="PNG width must be an integer from 1 to 2147483647, got 0"):
        pgm_to_png(b"P5\n0 0\n255\n")
