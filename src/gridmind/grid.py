"""Symbolic grid inputs.

A grid is a sparse map of (x, y) -> single printable symbol. '.' (and
whitespace) means empty. Coordinates grow right (x) and down (y).
"""

from __future__ import annotations

MAX_DIM = 256

EMPTY_CHARS = {".", " "}


class GridError(ValueError):
    """An input the engine refuses. `learning.LearningError` and
    `solver.InvalidEnvError` derive from it."""


class Grid:
    """A `width` x `height` canvas and its occupied `cells`. A directly
    built grid has its size and every cell checked; `from_text` checks
    each symbol as it reads it."""

    __slots__ = ("width", "height", "cells")

    def __init__(self, width: int, height: int, cells: dict[tuple[int, int], str] | None = None):
        if cells is None:
            cells = {}
        if not (1 <= width <= MAX_DIM and 1 <= height <= MAX_DIM):
            raise GridError(f"grid dimensions out of range: {width}x{height}")
        for (x, y), sym in cells.items():
            if not (0 <= x < width and 0 <= y < height):
                raise GridError(f"cell ({x}, {y}) outside {width}x{height}")
            if len(sym) != 1 or sym in EMPTY_CHARS or not sym.isprintable():
                raise GridError(f"bad symbol {sym!r} at ({x}, {y})")
        self.width, self.height, self.cells = width, height, cells

    def __eq__(self, other):
        if type(other) is not Grid:
            return NotImplemented
        return (self.width, self.height, self.cells) == (other.width, other.height, other.cells)

    def __hash__(self):
        return hash((self.width, self.height, frozenset(self.cells.items())))

    def is_empty(self) -> bool:
        return not self.cells

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of occupied cells."""
        if not self.cells:
            raise GridError("empty grid has no bounding box")
        xs = [x for x, _ in self.cells]
        ys = [y for _, y in self.cells]
        return min(xs), min(ys), max(xs), max(ys)

    def anchor(self) -> tuple[int, int]:
        """Top-left-most occupied cell: smallest (y, x)."""
        if not self.cells:
            raise GridError("empty grid has no anchor")
        y, x = min((y, x) for x, y in self.cells)
        return x, y

    def cropped(self) -> "Grid":
        """Translate so the bounding box starts at (0, 0)."""
        return Grid.from_cells(self.cells)

    def to_text(self) -> str:
        rows = []
        for y in range(self.height):
            rows.append(
                "".join(self.cells.get((x, y), ".") for x in range(self.width))
            )
        return "\n".join(rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Grid":
        lines = text.splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        if not lines:
            raise GridError("no grid rows in input")
        width, height = max(map(len, lines)), len(lines)
        if width > MAX_DIM or height > MAX_DIM:  # before a cell is made
            raise GridError(f"grid dimensions out of range: {width}x{height}")
        # the size is in range and every cell inside it, so only each
        # symbol is checked, once, as its row is read
        cells = {}
        for y, line in enumerate(lines):
            if not line.isprintable():
                x = next(x for x, ch in enumerate(line) if not ch.isprintable())
                raise GridError(f"bad symbol {line[x]!r} at ({x}, {y})")
            for x, ch in enumerate(line):
                if ch not in EMPTY_CHARS:
                    cells[(x, y)] = ch
        grid = object.__new__(cls)
        grid.width, grid.height, grid.cells = width, height, cells
        return grid

    @classmethod
    def from_cells(cls, cells: dict[tuple[int, int], str]) -> "Grid":
        """Build the tightest grid containing the given cells (shifted to origin)."""
        if not cells:
            return cls(1, 1, {})
        min_x = min(x for x, _ in cells)
        min_y = min(y for _, y in cells)
        shifted = {(x - min_x, y - min_y): s for (x, y), s in cells.items()}
        w = max(x for x, _ in shifted) + 1
        h = max(y for _, y in shifted) + 1
        return cls(w, h, shifted)
