"""Count a package's code lines, classes, caches and exported names, per module.

Usage::

    python tools/loc.py [PACKAGE_DIR]    # default: src/ltlgen

Prints one row per module of the package directory, then a total row:

- ``code``: the lines that hold a token other than a comment, a line break
  or indentation, and that are not part of a docstring (the string that
  opens a module, class or function body), by ``tokenize`` and ``ast``;
- ``classes``: the class statements in the module;
- ``caches``: the module-level functions decorated with ``functools.cache``
  or ``functools.lru_cache``;
- ``exported``: the names of the package's ``__all__`` that its
  ``__init__.py`` imports from the module, or defines itself.

Standard library only; nothing is imported from the package.  Exits 0, or
2 when the directory holds no ``.py`` file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Tokens that never make a line count as code.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_CACHES = {"cache", "lru_cache"}


class Counts(NamedTuple):
    code: int
    classes: int
    caches: int
    exported: int


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    docs = docstring_lines(tree)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute) and isinstance(decorator.value, ast.Name):
        return decorator.value.id == "functools" and decorator.attr in _CACHES
    return isinstance(decorator, ast.Name) and decorator.id in _CACHES


def exported_by_module(init: ast.Module) -> dict[str, int]:
    """How many names of ``__all__`` each module provides, by module stem."""
    names: list[str] = []
    source: dict[str, str] = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                source[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names = ast.literal_eval(node.value)
    counts: dict[str, int] = {}
    for name in names:
        module = source.get(name, "__init__")
        counts[module] = counts.get(module, 0) + 1
    return counts


def count(package: Path) -> dict[str, Counts]:
    """The counts of each module of ``package``, by file name, in name order."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    trees = {name: ast.parse(source) for name, source in sources.items()}
    init = trees.get("__init__.py")
    exported = exported_by_module(init) if init is not None else {}
    rows = {}
    for name, tree in trees.items():
        rows[name] = Counts(
            code_lines(sources[name], tree),
            sum(isinstance(node, ast.ClassDef) for node in ast.walk(tree)),
            sum(
                isinstance(node, ast.FunctionDef) and any(map(is_cache, node.decorator_list))
                for node in tree.body
            ),
            exported.get(name.removesuffix(".py"), 0),
        )
    return rows


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "ltlgen"
    rows = count(package)
    if not rows:
        print(f"error: no .py file in {package}", file=sys.stderr)
        return 2
    total = Counts(*map(sum, zip(*rows.values())))
    width = max(len(name) for name in (*rows, "total"))
    print(f"{'module':<{width}}" + "".join(f"{column:>10}" for column in Counts._fields))
    for name, counts in (*rows.items(), ("total", total)):
        print(f"{name:<{width}}" + "".join(f"{value:>10}" for value in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
