"""No ``out=`` into a subscript in ``src/ioslab``.

NumPy 2.4.6 writes wrong values through ``out=`` into a column view whose
row stride is 8 doubles: with ``x = np.arange(24.).reshape(3, 8)``,
``np.negative(x[:, 0], out=d[:, 0])`` reads the input as if it were
contiguous.  An ``out=`` whose value is a subscript (``d[:, 0]``,
``d[..., 1:]``) is where such a view appears, so none is allowed; assign
instead (``d[..., 0] = -x[..., 0]``)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ioslab"


def _subscript_outs(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg != "out":
                    continue
                # out=d[:, 0] or, for a ufunc with several outputs, out=(d[:, 0], e)
                values = kw.value.elts if isinstance(kw.value, ast.Tuple) else [kw.value]
                if any(isinstance(v, ast.Subscript) for v in values):
                    yield node.lineno


def test_no_out_keyword_into_a_subscript():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _subscript_outs(ast.parse(path.read_text()))]
    assert found == []
