"""Recognition with graded scores and zero-shot transformation matching.

A learned shape is found again when translated, and a rotated or scaled
copy is matched by searching over a small family of transformations --
without ever observing the transformed variant.
"""

from gridmind import Grid, Learner, Transformation

L_SHAPE = "x..\nx..\nxxx\n"


def main():
    learner = Learner()
    root = learner.observe(Grid.from_text(L_SHAPE)).root
    print(f"learned L shape as node {root}\n")

    shifted = Grid.from_text("....\n.x..\n.x..\n.xxx\n")
    for m in learner.recognize(shifted):
        print(f"shifted copy: node {m.concept} matches with score "
              f"{m.score} at anchor {m.anchor}")

    damaged = Grid.from_text("x..\nx..\nxx.\n")
    print("\ndamaged copy:")
    for m in learner.recognize(damaged):
        print(f"  node {m.concept} score {m.score}")

    rotated = Transformation("rotate90", k=1).apply(Grid.from_text(L_SHAPE))
    print("\nrotated copy:")
    print(rotated.to_text())
    for m, t in learner.match_under_transformations(rotated):
        if m.score == 1:
            print(f"  node {m.concept} matches exactly under {t}")


if __name__ == "__main__":
    main()
