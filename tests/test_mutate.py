import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import mutate  # noqa: E402


def test_mutants_swap_operators_move_boundaries_and_bump_constants():
    tree = ast.parse("def f(x: int | None, n) -> int:\n    return 0 <= x < n * 2\n")
    got = [(scope, before, after) for scope, before, after, _ in mutate.mutants(tree)]
    # the type hints compute nothing, so they are never mutated
    assert got == [
        ("f", "0 <= x < n * 2", "0 < x < n * 2"),
        ("f", "0 <= x < n * 2", "0 <= x <= n * 2"),
        ("f", "0 <= x < n * 2", "1 <= x < n * 2"),
        ("f", "n * 2", "n // 2"),
        ("f", "n * 2", "n * 3"),
    ]
    # each mutant is its own tree; the original is untouched
    trees = [ast.unparse(t) for *_, t in mutate.mutants(tree)]
    assert len(set(trees)) == 5 and ast.unparse(tree) not in trees
