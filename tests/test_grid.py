"""Grid inputs: size limits, cell checks and parsing."""

import tracemalloc

import pytest

from gridmind import Grid
from gridmind.grid import GridError


def test_from_text_refuses_a_row_wider_than_the_limit():
    with pytest.raises(GridError, match="257x1"):
        Grid.from_text("x" * 257 + "\n")


@pytest.mark.parametrize(
    "text, size",
    [("x" * 1_000_000 + "\n", "1000000x1"), ("x\n" * 200_000, "1x200000")],
    ids=["wide", "tall"],
)
def test_from_text_refuses_an_oversize_text_before_it_builds_cells(text, size):
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match=f"grid dimensions out of range: {size}$"):
            Grid.from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_cell_outside_the_grid_is_refused():
    with pytest.raises(GridError, match="outside"):
        Grid(2, 2, {(5, 0): "x"})


def test_from_text_drops_trailing_blank_lines():
    assert Grid.from_text("x.\n.x\n\n  \n") == Grid(2, 2, {(0, 0): "x", (1, 1): "x"})


def test_from_cells_of_nothing_is_an_empty_one_cell_grid():
    g = Grid.from_cells({})
    assert (g.width, g.height) == (1, 1)
    assert g.is_empty()


def test_empty_grid_has_no_bounding_box_or_anchor():
    g = Grid(3, 2, {})
    with pytest.raises(GridError, match="bounding box"):
        g.bounding_box()
    with pytest.raises(GridError, match="anchor"):
        g.anchor()


def test_equal_grids_hash_equal():
    a = Grid.from_text("x.\n.y\n")
    b = Grid(2, 2, {(1, 1): "y", (0, 0): "x"})
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
