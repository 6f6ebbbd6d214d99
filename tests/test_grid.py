"""Grid inputs: size limits, cell checks and parsing."""

import tracemalloc

import pytest

from gridmind import Grid
from gridmind.grid import MAX_DIM, GridError


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


@pytest.mark.parametrize("size", [(0, 1), (1, 0), (MAX_DIM + 1, 1), (1, MAX_DIM + 1)])
def test_directly_built_grid_of_out_of_range_size_is_refused(size):
    with pytest.raises(GridError, match=f"grid dimensions out of range: {size[0]}x{size[1]}$"):
        Grid(*size, {})


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


@pytest.mark.parametrize(
    "text, sym, cell",
    [("x\x00\n", "\x00", (1, 0)), ("ab\n.\tc\n", "\t", (1, 1)), ("a\x01\n\x02b\n", "\x01", (1, 0))],
    ids=["nul", "tab", "first-of-two"],
)
def test_from_text_refuses_a_non_printable_symbol_as_a_direct_grid_does(text, sym, cell):
    # from_text checks each symbol as it reads it, not through the
    # constructor's full check, and must refuse with the same message
    with pytest.raises(GridError) as direct:
        Grid(3, 2, {cell: sym})
    with pytest.raises(GridError) as parsed:
        Grid.from_text(text)
    assert str(parsed.value) == str(direct.value) == f"bad symbol {sym!r} at {cell}"
