"""Every public function and method of curvepath has a caller outside tests.

A name counts as used when a Name or Attribute node spells it somewhere in
src/ outside its own definition, in perfbench/*.py or scripts/*.py, or when
pyproject.toml's entry point names it. Everything is parsed with ast, so a
docstring, a comment or a string that mentions a name does not count.
Dunder methods are exempt. The check goes by name, not by owner: a method
whose name another used method shares passes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _spelled(tree) -> Counter:
    """How often each identifier is spelled as a Name or an Attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _public_defs(tree):
    """Module-level functions and the methods of module-level classes whose
    names do not start with an underscore, with their qualified names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_every_public_function_has_a_caller_outside_tests():
    src_trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "curvepath").glob("*.py"))}
    in_src = Counter()
    for tree in src_trees.values():
        in_src.update(_spelled(tree))
    outside = Counter()
    for folder in ("perfbench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            outside.update(_spelled(ast.parse(path.read_text())))
    entry_points = set(re.findall(r'=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))

    unused = []
    for path, tree in src_trees.items():
        for qualname, node in _public_defs(tree):
            name = node.name
            if name.startswith("_"):
                continue
            # spellings inside the definition itself (recursion) are not uses
            uses = in_src[name] - _spelled(node)[name] + outside[name]
            if uses <= 0 and name not in entry_points:
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"public API with no caller outside tests: {unused}"
