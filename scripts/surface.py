#!/usr/bin/env python3
"""Count the size and the settable surface of each module of a package.

    python scripts/surface.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's `src/boxlab`.  For each `.py` file
in it, and in total, prints:
- lines: physical lines, as `wc -l` counts them;
- code: lines holding a token that is neither a comment nor part of a
  docstring (blank lines do not count);
- settable: defaulted parameters of public functions and methods, plus
  defaulted fields of public dataclasses.  A name is public unless it
  starts with one underscore; dunder methods such as `__init__` are public.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                  tokenize.DEDENT, tokenize.ENDMARKER}


def is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str, tree: ast.Module) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED_TOKENS:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(tree))


def defaulted(fn) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_public(node.name):
            count += defaulted(node)
        elif isinstance(node, ast.ClassDef) and is_public(node.name):
            fields = is_dataclass(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    count += defaulted(item) if is_public(item.name) else 0
                elif fields and isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def survey(package: str) -> list:
    """(module, lines, code, settable) for each module of package, by name."""
    rows = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            source = fh.read()
        tree = ast.parse(source)
        rows.append((name[:-3], source.count("\n"), code_lines(source, tree), settable(tree)))
    return rows


def main() -> int:
    if len(sys.argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    package = sys.argv[1] if len(sys.argv) == 2 else os.path.join(ROOT, "src", "boxlab")
    rows = survey(package)
    total = ("total",) + tuple(sum(col) for col in zip(*(r[1:] for r in rows)))
    print(f"{'module':<12} {'lines':>6} {'code':>6} {'settable':>8}")
    for module, lines, code, values in rows + [total]:
        print(f"{module:<12} {lines:>6} {code:>6} {values:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
