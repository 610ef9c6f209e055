"""The array-backed fractal code against the per-cell list loops it replaced."""

import re
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from oracles import cell_transform_fractions, ifs_iterate_lists, render_pgm_lists, self_overlap_search
from trapdoor import fractal
from trapdoor.channel import ChannelMatrix
from trapdoor.fractal import (
    EMPTY,
    AffineMap3,
    GridSemanticsError,
    Ifs,
    ShapeGrid,
    _cell_transform,
    ifs_iterate,
    render_pgm,
    sierpinski_ifs,
    trapdoor_ifs,
    unit_grid,
)
from trapdoor.matrices import DyadicMatrix

h = Fraction(1, 2)

# One map per quadrant, one of each kind: identity (top-left), transposition
# (top-right), quarter turn (bottom-left), half turn (bottom-right).
DIHEDRAL_TILING = Ifs(
    (
        AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [0, h, 0]),
        AffineMap3.from_rows([[0, h, 0], [h, 0, 0], [0, 0, h]], [h, h, 0]),
        AffineMap3.from_rows([[0, -h, 0], [h, 0, 0], [0, 0, h]], [h, 0, 0]),
        AffineMap3.from_rows([[-h, 0, 0], [0, -h, 0], [0, 0, 1]], [1, h, 0]),
    )
)

SYSTEMS = {"trapdoor0": trapdoor_ifs(0), "trapdoor1": trapdoor_ifs(1), "sierpinski": sierpinski_ifs()}


def random_grid(resolution, seed):
    rng = np.random.default_rng(seed)
    side = 1 << resolution
    return ShapeGrid(resolution, rng.integers(EMPTY, resolution + 1, size=(side, side)))


def overlap_cell(message):
    return re.search(r"output cell \((\d+), (\d+)\)", message).groups()


# The maps of the GridSemanticsError cases in test_fractal.py and this file,
# and one map for each message of _cell_transform.
ERROR_MAPS = {
    "same": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [0, 0, 0]),
    "quarter": AffineMap3.from_rows([[0, -h, 0], [h, 0, 0], [0, 0, 1]], [h, 0, 0]),
    "collapse": AffineMap3.from_rows([[h, 0, 0], [h, 0, 0], [0, 0, 1]], [0, 0, 0]),
    "third": AffineMap3.from_rows([[Fraction(1, 3), 0, 0], [0, Fraction(1, 3), 0], [0, 0, 1]], [0, 0, 0]),
    "mix": AffineMap3.from_rows([[h, 0, h], [0, h, 0], [0, 0, 1]], [0, 0, 0]),
    "translate_z": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [0, 0, h]),
    "z_three_quarters": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, Fraction(3, 4)]], [0, 0, 0]),
    "z_double": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 2]], [0, 0, 0]),
    "quarter_z": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, Fraction(1, 4)]], [0, 0, 0]),
    "tiny_z": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, Fraction(1, 2**200)]], [0, 0, 0]),
    "outside": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [1, 0, 0]),
    "quarter_offset": AffineMap3.from_rows([[Fraction(1, 4), 0, 0], [0, h, 0], [0, 0, 1]], [0, 0, 0]),
    # a shift by 1/8 is a whole cell of the output from resolution 2 on
    "shift_eighth": AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [Fraction(1, 8), 0, 0]),
}


def _cell_outcome(transform, m, res):
    try:
        return transform(m, res)
    except GridSemanticsError as exc:
        return str(exc)


@pytest.mark.parametrize("res", range(14))
def test_cell_transform_matches_the_fraction_reference(res):
    maps = [m for ifs in (*SYSTEMS.values(), DIHEDRAL_TILING) for m in ifs.maps]
    for m in maps + list(ERROR_MAPS.values()):
        assert _cell_outcome(_cell_transform, m, res) == _cell_outcome(cell_transform_fractions, m, res)
    for m in maps:
        assert isinstance(_cell_transform(m, res), tuple)  # the systems act on every grid
    messages = {_cell_outcome(_cell_transform, m, res) for m in ERROR_MAPS.values()}
    assert {
        "grid maps must not mix z with x/y or translate z",
        "z scale 3/4 is not 2**-j for j >= 0",
        "z scale 2 is not 2**-j for j >= 0",
        "map sends cells outside the unit square",
        "map does not send dyadic cell centers onto cell centers",
    } <= messages


_COEFF = st.sampled_from([Fraction(k, 4) for k in range(-4, 5)] + [Fraction(1, 3), Fraction(-3, 8)])


@settings(max_examples=300, deadline=None)
@given(
    xy=st.lists(_COEFF, min_size=4, max_size=4),
    shift=st.lists(_COEFF, min_size=2, max_size=2),
    z=st.sampled_from([Fraction(1), h, Fraction(1, 4), Fraction(3, 4)]),
    res=st.integers(0, 13),
)
def test_cell_transform_of_random_maps_matches_the_fraction_reference(xy, shift, z, res):
    m = AffineMap3.from_rows([[xy[0], xy[1], 0], [xy[2], xy[3], 0], [0, 0, z]], [*shift, 0])
    assert _cell_outcome(_cell_transform, m, res) == _cell_outcome(cell_transform_fractions, m, res)


# -- ifs_iterate --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_ifs_matches_list_loop(name):
    ifs = SYSTEMS[name]
    codes = [[0]]
    for k in range(9):
        assert ifs_iterate(ifs, unit_grid(), k).codes == codes, f"k={k}"
        codes = ifs_iterate_lists(ifs, codes, k, 1)


def test_dihedral_tiling_matches_list_loop():
    coefficients = {_cell_transform(m, 3)[2:6] for m in DIHEDRAL_TILING.maps}
    assert {(0, -1, -1, 0), (0, -1, 1, 0)} <= coefficients  # rows move with columns and back
    start = random_grid(2, seed=7)
    for k in range(5):
        want = ifs_iterate_lists(DIHEDRAL_TILING, start.codes, 2, k)
        assert ifs_iterate(DIHEDRAL_TILING, start, k).codes == want, f"k={k}"


def test_overlap_between_maps_names_the_loops_cell():
    same = AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [0, 0, 0])
    quarter = AffineMap3.from_rows([[0, -h, 0], [h, 0, 0], [0, 0, 1]], [h, 0, 0])
    system = Ifs((quarter, same))
    with pytest.raises(ValueError) as want:
        ifs_iterate_lists(system, [[0, 1], [1, 1]], 1, 1)
    with pytest.raises(GridSemanticsError, match="overlap") as got:
        ifs_iterate(system, ShapeGrid(1, [[0, 1], [1, 1]]), 1)
    assert overlap_cell(str(got.value)) == overlap_cell(str(want.value))


def test_overlap_within_one_map_is_detected():
    # (x, y) -> (x/2, x/2) is a contraction that sends whole columns to one cell
    collapse = Ifs((AffineMap3.from_rows([[h, 0, 0], [h, 0, 0], [0, 0, 1]], [0, 0, 0]),))
    assert ifs_iterate(collapse, unit_grid(), 1).nonzero_count() == 1
    with pytest.raises(ValueError) as want:
        ifs_iterate_lists(collapse, [[0]], 0, 2)
    with pytest.raises(GridSemanticsError, match="overlap") as got:
        ifs_iterate(collapse, unit_grid(), 2)
    assert overlap_cell(str(got.value)) == overlap_cell(str(want.value))


def test_height_codes_too_fine_are_rejected():
    quarter_z = Ifs((AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, Fraction(1, 4)]], [0, 0, 0]),))
    with pytest.raises(ValueError):
        ifs_iterate_lists(quarter_z, [[0]], 0, 1)
    with pytest.raises(ValueError, match="height code 2"):
        ifs_iterate(quarter_z, unit_grid(), 1)
    tiny_z = Ifs((AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, Fraction(1, 2**200)]], [0, 0, 0]),))
    empty = ShapeGrid(1, [[EMPTY, EMPTY], [EMPTY, EMPTY]])
    assert ifs_iterate(tiny_z, empty, 2).codes == ifs_iterate_lists(tiny_z, empty.codes, 1, 2)


@pytest.mark.parametrize("side", (1, 2, 3, 4, 8))
def test_self_overlap_closed_form_equals_the_kernel_search(side):
    # a contraction's integer cell action has entries in {-1, 0, 1}: all 81 of them
    actions = [(a, b, c, d) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1) for d in (-1, 0, 1)]
    assert len(actions) == 81
    for action in actions:
        assert fractal._self_overlap(*action, side) == self_overlap_search(*action, side), action


# -- render_pgm ---------------------------------------------------------------


@pytest.mark.parametrize("block_cells", (8, fractal._BLOCK_CELLS))
@pytest.mark.parametrize("mode", ("linear", "log", "binary"))
@pytest.mark.parametrize("gamma", (0.5, 0.7, 1.0, 2.0))
def test_render_matches_list_loop(mode, gamma, block_cells, monkeypatch):
    monkeypatch.setattr(fractal, "_BLOCK_CELLS", block_cells)
    grids = [ifs_iterate(ifs, unit_grid(), 6) for ifs in SYSTEMS.values()]
    grids += [unit_grid(), random_grid(5, seed=3), fractal.tau_transform(random_grid(4, seed=4))]
    for g in grids:
        assert render_pgm(g, mode, gamma) == render_pgm_lists(g.codes, g.resolution, mode, gamma)


def test_render_rejects_nan_gamma():
    with pytest.raises(ValueError, match="gamma"):
        render_pgm(unit_grid(), "linear", gamma=float("nan"))


# -- ShapeGrid construction ---------------------------------------------------


def test_grid_from_lists_equals_grid_from_arrays():
    codes = [[0, EMPTY, 2, 1], [1, 1, EMPTY, EMPTY], [2, 2, 2, 2], [EMPTY] * 4]
    from_lists = ShapeGrid(2, codes)
    for dtype in (np.int8, np.int16, np.int64):
        assert ShapeGrid(2, np.array(codes, dtype=dtype)) == from_lists
    assert from_lists.codes == codes
    assert from_lists.array.dtype == np.int8 and from_lists.array.shape == (4, 4)


@pytest.mark.parametrize(
    "codes",
    (
        [[0, 0]],
        [[0, 0], [0]],
        [[0, 0], [0, 0], [0, 0]],
        np.zeros((2, 3), dtype=np.int8),
        np.zeros(4, dtype=np.int8),
        np.zeros((2, 2, 1), dtype=np.int8),
    ),
)
def test_grid_rejects_bad_shapes(codes):
    with pytest.raises(ValueError, match="expected a 2x2 grid"):
        ShapeGrid(1, codes)


@pytest.mark.parametrize("bad", (2, -2, 127, -128, 10**30, -(10**30)))
def test_grid_rejects_out_of_range_codes(bad):
    with pytest.raises(ValueError, match=f"height code {bad} outside"):
        ShapeGrid(1, [[0, EMPTY], [bad, 1]])
    if -(2**63) <= bad < 2**63:
        with pytest.raises(ValueError, match=f"height code {bad} outside"):
            ShapeGrid(1, np.array([[0, EMPTY], [bad, 1]], dtype=np.int64))


@pytest.mark.parametrize(
    "resolution, message",
    (
        (-1, "resolution must be non-negative"),
        (10**6, "expected a 2**1000000x2**1000000 grid"),
        (10**12, "expected a 2**1000000000000x2**1000000000000 grid"),
    ),
)
def test_grid_checks_its_resolution_before_any_shift(resolution, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ShapeGrid(resolution, [[0]])


def test_grid_rejects_non_integer_arrays():
    with pytest.raises(ValueError, match="integers"):
        ShapeGrid(1, np.zeros((2, 2)))


def test_grid_owns_a_read_only_copy():
    source = np.array([[0, EMPTY], [1, 1]], dtype=np.int8)
    g = ShapeGrid(1, source)
    source[0, 0] = 1
    g.codes[0][0] = 1  # a fresh list on every access
    assert g.z(0, 0) == 1
    with pytest.raises(ValueError):
        g.array[0, 0] = 1
    with pytest.raises(ValueError):
        fractal.tau_transform(g).array[0, 0] = 1


# -- rho_representation -------------------------------------------------------


@pytest.mark.parametrize("bad", (3, -2))
def test_rho_rejects_entries_that_are_not_powers_of_two(bad):
    P = ChannelMatrix(1, 0, DyadicMatrix([[2, 0], [bad, 1]], 1))
    with pytest.raises(ValueError, match="power of two"):
        fractal.rho_representation(P)
