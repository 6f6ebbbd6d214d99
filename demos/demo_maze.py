"""Solve a maze, enumerate every distinct route, then forbid a cell.

Dead-end corridors are inhibited before the search starts. Routes come
shortest first, and each found solution becomes a concept node;
inhibiting that concept makes the next solve discover a different route.
"""

from gridmind import (
    Environment,
    NoSolution,
    StateSpace,
    enumerate_solutions,
    solve,
    solve_with_constraints,
)

MAZE = (
    "S..#.\n"
    ".#...\n"
    ".#.#.\n"
    "...#G\n"
)


def main():
    env = Environment.from_text(MAZE)
    print(MAZE)

    result = solve(StateSpace(env))
    print("first solution:", " ".join(result.moves))

    print("\nall distinct simple routes:")
    for sol in enumerate_solutions(StateSpace(env)):
        print(f"  {len(sol.moves):2d} moves: {' '.join(sol.moves)}")

    blocked = (1, 0)  # on the shortest route, forcing the southern detour
    result = solve_with_constraints(StateSpace(env), {blocked})
    if isinstance(result, NoSolution):
        print(f"\nwith cell {blocked} forbidden: no solution")
    else:
        print(f"\nwith cell {blocked} forbidden: {' '.join(result.moves)}")


if __name__ == "__main__":
    main()
