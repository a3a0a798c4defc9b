"""No unused symbols in ``src/ioslab``: every module-level ``_name`` must be
mentioned somewhere in ``src/``, ``tests/`` or ``iosbench/`` besides its own
definition, and every non-dunder method of a class must be accessed there as
an attribute ``.name``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ioslab"


def _private_definitions(tree: ast.Module):
    """Names of the module-level functions, classes and assignment targets
    that start with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            roots = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for root in roots for n in ast.walk(root)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _corpus() -> list[str]:
    return [path.read_text() for top in ("src", "tests", "iosbench")
            for path in sorted((ROOT / top).rglob("*.py"))]


def test_every_private_module_symbol_is_used():
    corpus = _corpus()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _private_definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(text)) for text in corpus) <= 1:
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_every_method_is_accessed():
    # an ast.Attribute, not a word: a method named like a common word
    # ("passes") is not kept alive by prose or by a local variable
    accessed = {node.attr for text in _corpus() for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Attribute)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            unused += [f"{path.name}:{cls.name}.{fn.name}" for fn in cls.body
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (fn.name.startswith("__") and fn.name.endswith("__"))
                       and fn.name not in accessed]
    assert unused == []
