"""Graded mesh construction and nested subdomains."""

import numpy as np
import pytest

from degen_blowup import (
    ParameterError,
    build_graded_grid,
    first_nested_index,
    nested_margin,
)


def test_uniform_three_nodes():
    grid = build_graded_grid(R=1.0, eta=0.5, m=3, grading=1.0)
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5])


def test_grading_compresses_boundary_layer():
    grid = build_graded_grid(R=1.0, eta=1e-3, m=9, grading=2.0)
    h = grid.spacings
    assert h[-1] < h[0]


def test_eta_must_stay_below_radius():
    with pytest.raises(ParameterError, match="eta"):
        build_graded_grid(R=1.0, eta=1.5, m=9)


def test_node_count_and_grading_preconditions():
    with pytest.raises(ParameterError):
        build_graded_grid(R=1.0, eta=0.1, m=2)
    with pytest.raises(ParameterError):
        build_graded_grid(R=1.0, eta=0.1, m=9, grading=0.5)


@pytest.mark.parametrize("m", [3, 8, 33, 200])
@pytest.mark.parametrize("grading", [1.0, 2.0, 3.5])
def test_endpoints_and_monotonicity(m, grading):
    grid = build_graded_grid(R=2.0, eta=1e-4, m=m, grading=grading)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(2.0 - 1e-4, rel=1e-14)
    assert np.all(np.diff(grid.nodes) > 0.0)


def test_refinement_halves_max_spacing():
    for grading in (1.0, 2.0):
        coarse = build_graded_grid(R=1.0, eta=1e-3, m=41, grading=grading)
        fine = build_graded_grid(R=1.0, eta=1e-3, m=81, grading=grading)
        ratio = np.max(coarse.spacings) / np.max(fine.spacings)
        assert 2.0 / 2.1 < ratio < 2.1


def test_cell_widths_partition_the_interval():
    grid = build_graded_grid(R=1.0, eta=1e-2, m=17, grading=2.0)
    assert np.sum(grid.cell_widths) == pytest.approx(grid.nodes[-1] - grid.nodes[0])


def test_nested_examples():
    assert 1.0 - nested_margin(1.0, 2) == pytest.approx(0.5)
    assert 1.0 - nested_margin(1.0, 1000) == pytest.approx(0.999)


def test_nested_empty_domain():
    with pytest.raises(ParameterError, match="margin 1/2 >= R = 0.5 leaves an empty subdomain"):
        nested_margin(0.5, 2)


def test_nested_radius_formula_and_monotonicity():
    radii = [1.0 - nested_margin(1.0, n) for n in range(2, 40)]
    for n, r in zip(range(2, 40), radii):
        assert r == 1.0 - 1.0 / n
    assert np.all(np.diff(radii) > 0.0)


def test_first_nested_index_keeps_half_radius():
    for R in (0.3, 1.0, 2.5, 10.0):
        n0 = first_nested_index(R)
        assert R - 1.0 / n0 > R / 2.0
        if n0 > 1:
            assert R - 1.0 / (n0 - 1) <= R / 2.0
