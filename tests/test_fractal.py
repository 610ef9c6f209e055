from fractions import Fraction

import pytest

from oracles import apply_map
from trapdoor.channel import build_channel_matrix
from trapdoor.dyadic import Dyadic
from trapdoor.fractal import (
    EMPTY,
    AffineMap3,
    GridSemanticsError,
    Ifs,
    ShapeGrid,
    ifs_iterate,
    render_pgm,
    rho_representation,
    sierpinski_ifs,
    tau_transform,
    trapdoor_ifs,
    unit_grid,
)


def codes_half(codes):
    return [[c if c == EMPTY else c + 1 for c in row] for row in codes]


# -- embedding ----------------------------------------------------------------


def test_rho_of_initial_matrix():
    g = rho_representation(build_channel_matrix(0, 0))
    assert g.resolution == 0
    assert g.z(0, 0) == 1


def test_rho_orientation_matches_printed_matrix(pairs):
    g = rho_representation(pairs(1)[0])
    # upper-left 1, upper-right 0, lower-left 1/2, lower-right 1/2
    assert g.z(0, 0) == 1
    assert g.z(0, 1) == 0
    assert g.z(1, 0) == Dyadic(1, 1)
    assert g.z(1, 1) == Dyadic(1, 1)


def test_rho_upper_right_quadrant_empty(pairs):
    g = rho_representation(pairs(2)[0])
    assert all(c == EMPTY for row in g.array[:2, 2:].tolist() for c in row)


def test_rho_nonzero_count_matches_matrix(pairs):
    for n in range(0, 9):
        for s0 in (0, 1):
            P = pairs(n)[s0]
            nnz = sum(1 for row in P.data.int_rows for v in row if v)
            assert rho_representation(P).nonzero_count() == nnz == 3**n


# -- rotation -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 11))
def test_tau_swaps_states(n, pairs):
    P0, P1 = pairs(n)
    assert tau_transform(rho_representation(P0)) == rho_representation(P1)


def test_tau_involutive(pairs):
    g = rho_representation(pairs(3)[0])
    assert tau_transform(tau_transform(g)) == g


# -- function systems ---------------------------------------------------------


def test_trapdoor_ifs_shapes():
    for s0 in (0, 1):
        ifs = trapdoor_ifs(s0)
        assert len(ifs.maps) == 3
        assert ifs.contractivity == 0.5
    # state-1 third map translates by (1, 1)
    psi3 = trapdoor_ifs(1).maps[2]
    assert psi3.translation[0] == 1 and psi3.translation[1] == 1
    with pytest.raises(ValueError):
        trapdoor_ifs(2)


def test_trapdoor_maps_pointwise():
    phi1, phi2, phi3 = trapdoor_ifs(0).maps
    assert apply_map(phi1, 1, 1, 1) == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert apply_map(phi2, 1, 1, 1) == (Fraction(1, 2), Fraction(1), Fraction(1))
    assert apply_map(phi3, 0, 0, 1) == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_state1_system_is_rotation_conjugate_of_state0():
    g0 = ifs_iterate(trapdoor_ifs(0), unit_grid(), 3)
    g1 = ifs_iterate(trapdoor_ifs(1), unit_grid(), 3)
    assert tau_transform(g0) == g1


def test_ifs_requires_contractions():
    grow = AffineMap3.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0])
    with pytest.raises(ValueError):
        Ifs((grow,))
    with pytest.raises(ValueError):
        Ifs(())


# -- iteration ----------------------------------------------------------------


def test_zero_iterations_is_identity():
    g = unit_grid()
    assert ifs_iterate(trapdoor_ifs(0), g, 0) == g


def test_multi_step_equals_repeated_single_steps():
    ifs = trapdoor_ifs(0)
    grid = unit_grid()
    for _ in range(4):
        grid = ifs_iterate(ifs, grid, 1)
    assert ifs_iterate(ifs, unit_grid(), 4) == grid
    with pytest.raises(ValueError):
        ifs_iterate(ifs, unit_grid(), -1)


@pytest.mark.parametrize("s0", (0, 1))
def test_iterates_equal_embeddings(s0, pairs):
    grid = unit_grid()
    ifs = trapdoor_ifs(s0)
    for k in range(1, 11):
        grid = ifs_iterate(ifs, grid, 1)
        assert grid == rho_representation(pairs(k)[s0])


def test_blockwise_structure_at_three(pairs):
    g3 = rho_representation(pairs(3)[0])
    g2 = rho_representation(pairs(2)[0])
    g21 = rho_representation(pairs(2)[1])
    assert g3.array[:4, :4].tolist() == g2.codes
    assert all(c == EMPTY for row in g3.array[:4, 4:].tolist() for c in row)
    assert g3.array[4:, :4].tolist() == codes_half(g21.codes)
    assert g3.array[4:, 4:].tolist() == codes_half(g2.codes)


def test_sierpinski_counts_and_layout():
    s = sierpinski_ifs()
    g1 = ifs_iterate(s, unit_grid(), 1)
    # occupied: upper-left, lower-left, lower-right; empty upper-right
    assert g1.codes == [[0, EMPTY], [0, 0]]
    grid = unit_grid()
    for k in range(1, 9):
        grid = ifs_iterate(s, grid, 1)
        assert grid.nonzero_count() == 3**k
        assert all(c in (EMPTY, 0) for row in grid.codes for c in row)  # z stays 1


def test_overlapping_system_rejected():
    h = Fraction(1, 2)
    same = AffineMap3.from_rows([[h, 0, 0], [0, h, 0], [0, 0, 1]], [0, 0, 0])
    with pytest.raises(GridSemanticsError, match="overlap"):
        ifs_iterate(Ifs((same, same)), unit_grid(), 1)


def test_non_cell_aligned_map_rejected():
    third = AffineMap3.from_rows(
        [[Fraction(1, 3), 0, 0], [0, Fraction(1, 3), 0], [0, 0, 1]], [0, 0, 0]
    )
    with pytest.raises(GridSemanticsError):
        ifs_iterate(Ifs((third,)), unit_grid(), 1)


def test_z_mixing_map_rejected():
    h = Fraction(1, 2)
    mix = AffineMap3.from_rows([[h, 0, h], [0, h, 0], [0, 0, 1]], [0, 0, 0])
    with pytest.raises(GridSemanticsError):
        ifs_iterate(Ifs((mix,)), unit_grid(), 1)


# -- grids --------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        ShapeGrid(1, [[0, 0]])  # wrong shape
    with pytest.raises(ValueError):
        ShapeGrid(1, [[0, 2], [0, 0]])  # code 2 means z = 1/4, too fine for k=1
    g = ShapeGrid(1, [[0, EMPTY], [1, 1]])
    assert g.nonzero_count() == 3
    assert [g.z(1, c) for c in range(2)] == [Dyadic(1, 1), Dyadic(1, 1)]


# -- rendering ----------------------------------------------------------------


def test_render_binary_example(pairs):
    pgm = render_pgm(rho_representation(pairs(1)[0]), "binary")
    assert pgm == b"P5\n2 2\n255\n" + bytes([255, 0, 255, 255])


def test_render_single_cell():
    assert render_pgm(unit_grid(), "linear") == b"P5\n1 1\n255\n" + bytes([255])
    assert render_pgm(unit_grid(), "log") == b"P5\n1 1\n255\n" + bytes([255])


def test_render_all_zero():
    g = ShapeGrid(1, [[EMPTY, EMPTY], [EMPTY, EMPTY]])
    for mode in ("linear", "log", "binary"):
        assert render_pgm(g, mode)[-4:] == b"\x00\x00\x00\x00"


def test_render_linear_gamma():
    g = ShapeGrid(1, [[0, EMPTY], [1, 1]])
    flat = render_pgm(g, "linear", gamma=1.0)
    assert flat[-4:] == bytes([255, 0, 128, 128])
    bright = render_pgm(g, "linear", gamma=0.5)
    assert bright[-4:] == bytes([255, 0, 180, 180])
    with pytest.raises(ValueError):
        render_pgm(g, "linear", gamma=0.0)


def test_render_log_levels():
    g = ShapeGrid(2, [[0, 1, 2, EMPTY]] + [[EMPTY] * 4] * 3)
    data = render_pgm(g, "log")[-16:]
    # m=0 -> 255, m=1 -> round(127.5) = 128, m=k -> 0, empty -> 0
    assert data[:4] == bytes([255, 128, 0, 0])


def test_render_rejects_unknown_mode():
    with pytest.raises(ValueError):
        render_pgm(unit_grid(), "heatmap")


def test_render_deterministic(pairs):
    g = rho_representation(pairs(6)[0])
    for mode in ("linear", "log", "binary"):
        assert render_pgm(g, mode, 0.7) == render_pgm(g, mode, 0.7)


# -- exact coefficients ---------------------------------------------------------


_IDENTITY_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("bad", ("1/2", 0.5, 0.1, None, True, False, 1j), ids=repr)
def test_affine_maps_take_exact_rationals_only(bad):
    with pytest.raises(ValueError, match="map translation must be an exact rational"):
        AffineMap3.from_rows(_IDENTITY_ROWS, [bad, 0, 0])
    rows = [[1, 0, 0], [0, bad, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="map coefficient must be an exact rational"):
        AffineMap3.from_rows(rows, [0, 0, 0])


def test_affine_maps_keep_int_fraction_and_dyadic_values():
    h = Fraction(1, 2)
    m = AffineMap3.from_rows([[h, 0, 0], [0, Dyadic(1, 1), 0], [0, 0, 1]], [h, 0, Dyadic(3, 2)])
    assert m.linear == ((h, 0, 0), (0, h, 0), (0, 0, 1))
    assert m.translation == (h, 0, Fraction(3, 4))
    assert all(type(v) is Fraction for row in m.linear for v in row)
    phi1 = trapdoor_ifs(0).maps[0]
    assert phi1.linear == ((h, 0, 0), (0, h, 0), (0, 0, h)) and phi1.translation == (h, 0, 0)
    assert sierpinski_ifs().maps[2].translation == (0, 0, 0)
