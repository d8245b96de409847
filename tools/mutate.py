#!/usr/bin/env python3
"""Mutation sweep: which small changes to a source file does tier-1 not notice?

Usage: python tools/mutate.py src/bitwave/bitslice_engine.py [more files]

Each mutant makes one change to one file's syntax tree:

* an arithmetic operator swapped for its partner (``+``/``-``, ``*``/``//``,
  ``<<``/``>>``, ``&``/``|`` and so on);
* a comparison's boundary moved (``<``/``<=``, ``>``/``>=``);
* 1 added to a numeric constant.

The tree is written back with ``ast.unparse`` into a copy of the checkout in
a temporary directory, never into the checkout itself, and tier-1 runs there
with ``-x``, the file's own test module first. A mutant survives when tier-1
passes. The unmutated file, written back the same way, must pass first; a
mutant that runs ten times as long as it is counted as killed.

Every survivor must be named in ``tools/mutants.json``, a list of
``{"mutant": key, "status": "killed" | "equivalent" | "deleted", "note": why}``.
The script prints each survivor and exits 1 if any is not named there.
A survivor is closed by a new test ("killed") or by deleting the code it
mutates ("deleted"); "equivalent" says why no input can tell it apart.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SURVIVORS = ROOT / "tools" / "mutants.json"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

#: each arithmetic operator and the one it is swapped for
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}
#: each comparison and the same comparison with its boundary moved
BOUNDARIES = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def mutants(tree: ast.Module):
    """Yield (scope, before, after, mutated tree) for every mutant of ``tree``, in source order.

    ``scope`` is the qualified name of the enclosing function or class, or
    ``<module>``. ``before`` and ``after`` show the mutated expression; a
    constant is shown with the expression around it.
    """
    sites = []  # (node path from the root, scope, kind, comparison index)

    def walk(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            sites.append((path, scope, "op", None))
        elif isinstance(node, ast.Compare):
            sites.extend((path, scope, "cmp", i) for i, op in enumerate(node.ops) if type(op) in BOUNDARIES)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            sites.append((path, scope, "const", None))
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):  # a type hint computes nothing
                continue
            items = value if isinstance(value, list) else [value]
            for i, child in enumerate(items):
                if isinstance(child, ast.AST):
                    walk(child, path + [(field, i if isinstance(value, list) else None)], scope)

    walk(tree, [], "<module>")
    for path, scope, kind, index in sites:
        mutated = copy.deepcopy(tree)
        node, parent = mutated, None
        for field, i in path:
            parent, node = node, getattr(node, field) if i is None else getattr(node, field)[i]
        shown = parent if kind == "const" else node
        before = ast.unparse(shown)
        if kind == "op":
            node.op = SWAPS[type(node.op)]()
        elif kind == "cmp":
            node.ops[index] = BOUNDARIES[type(node.ops[index])]()
        else:
            node.value += 1
        yield scope, before, ast.unparse(shown), mutated


def run_tier1(tree: ast.Module, target: Path, copy_root: Path, timeout: float | None) -> tuple[bool, float]:
    """Write ``tree`` over ``target`` in the copy and run tier-1: (passed, seconds)."""
    rel = target.relative_to(ROOT)
    (copy_root / rel).write_text(ast.unparse(tree) + "\n")
    own_tests = copy_root / "tests" / f"test_{target.stem}.py"
    args = [str(own_tests.relative_to(copy_root))] if own_tests.exists() else []
    # no bytecode: a mutant of the same size written within the same second would
    # pass the cached .pyc's mtime and size check and run the previous mutant
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    try:
        done = subprocess.run(TIER1 + args + ["tests"], cwd=copy_root, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start
    return done.returncode == 0, time.monotonic() - start


def sweep(target: Path, copy_root: Path) -> list[str]:
    """Run every mutant of ``target`` and return the survivors' keys."""
    original = target.read_text()
    tree = ast.parse(original)
    rel = target.relative_to(ROOT)
    passed, seconds = run_tier1(tree, target, copy_root, None)
    if not passed:
        raise SystemExit(f"{rel}: tier-1 fails on the unmutated file")
    survivors, seen, total = [], {}, 0
    for scope, before, after, mutated in mutants(tree):
        total += 1
        key = f"{rel}::{scope}: {before} -> {after}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        survived, _ = run_tier1(mutated, target, copy_root, 10 * seconds)
        print(f"{'SURVIVED' if survived else 'killed  '} {key}", flush=True)
        if survived:
            survivors.append(key)
    (copy_root / rel).write_text(original)
    print(f"{rel}: {total} mutants, {len(survivors)} survived", flush=True)
    return survivors


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    named = {entry["mutant"] for entry in json.loads(SURVIVORS.read_text())}
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        copy_root = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks", "runs"))
        for name in argv:
            survivors += sweep(Path(name).resolve(), copy_root)
    unnamed = [key for key in survivors if key not in named]
    for key in unnamed:
        print(f"unnamed survivor: {key}", file=sys.stderr)
    return 1 if unnamed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
