"""Symbolic grid inputs.

A grid is a sparse map of (x, y) -> single printable symbol. '.' (and
whitespace) means empty. Coordinates grow right (x) and down (y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_DIM = 256

EMPTY_CHARS = {".", " "}


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    width: int
    height: int
    cells: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self):
        if not (1 <= self.width <= MAX_DIM and 1 <= self.height <= MAX_DIM):
            raise GridError(f"grid dimensions out of range: {self.width}x{self.height}")
        for (x, y), sym in self.cells.items():
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise GridError(f"cell ({x}, {y}) outside {self.width}x{self.height}")
            if len(sym) != 1 or sym in EMPTY_CHARS or not sym.isprintable():
                raise GridError(f"bad symbol {sym!r} at ({x}, {y})")

    # the generated `__eq__` compares the fields; `cells` is a dict, so the
    # hash is written out
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
        lines = [ln for ln in text.splitlines()]
        while lines and not lines[-1].strip():
            lines.pop()
        if not lines:
            raise GridError("no grid rows in input")
        width = max(len(ln) for ln in lines)
        cells = {}
        for y, line in enumerate(lines):
            for x, ch in enumerate(line):
                if ch in EMPTY_CHARS:
                    continue
                cells[(x, y)] = ch
        return cls(width, len(lines), cells)

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
