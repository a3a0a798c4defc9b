"""No unused private symbols: every module-level ``_name`` defined in
``src/ioslab`` must be mentioned somewhere in ``src/``, ``tests/`` or
``iosbench/`` besides its own definition."""

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


def test_every_private_module_symbol_is_used():
    corpus = [path.read_text() for top in ("src", "tests", "iosbench")
              for path in sorted((ROOT / top).rglob("*.py"))]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _private_definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(text)) for text in corpus) <= 1:
                unused.append(f"{path.name}:{name}")
    assert unused == []
