"""No unused symbols in ``src/ioslab``: every module-level ``_name`` must be
mentioned somewhere in ``src/``, ``tests/`` or ``iosbench/`` besides its own
definition, every non-dunder method of a class must be accessed there as
an attribute ``.name``, and every defaulted parameter must be set by some
call there, and every defaulted dataclass field must be set there."""

import ast
import re
from collections import Counter
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
    # a name's \b-bounded occurrences are exactly the \w+ runs equal to it
    words = Counter(word for text in _corpus() for word in re.findall(r"\w+", text))
    unused = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _private_definitions(ast.parse(path.read_text()))
              if words[name] <= 1]
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


def _defaulted_parameters(tree: ast.Module):
    """(function name, parameter name, its position or None when keyword-only)
    for every defaulted parameter of a named function; the position does
    not count ``self`` or ``cls``."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
        for k, a in enumerate(positional[len(positional) - len(args.defaults):]):
            yield fn.name, a, len(positional) - len(args.defaults) + k - skip
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, a.arg, None


def test_every_defaulted_parameter_is_set_by_some_call():
    """A call to a function of the same name sets a defaulted parameter when
    it passes it by keyword, passes more positional arguments than its
    position, or splats ``**kwargs``."""
    calls: dict = {}  # function name -> [(positional count, keywords, splats)]
    for text in _corpus():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (len(node.args), keywords - {None}, None in keywords))
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, pos in _defaulted_parameters(ast.parse(path.read_text())):
            if not any(param in keywords or splat or (pos is not None and count > pos)
                       for count, keywords, splat in calls.get(name, [])):
                unset.append(f"{path.name}:{name}({param})")
    assert unset == []


def _defaulted_fields(tree: ast.Module):
    """(class name, field name, its position) for every defaulted field of a
    dataclass."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [st for st in cls.body if isinstance(st, ast.AnnAssign)]
            for pos, st in enumerate(fields):
                if st.value is not None:
                    yield cls.name, st.target.id, pos


def test_every_defaulted_dataclass_field_is_set_somewhere():
    """A field is set by a keyword in a call to its class or to ``replace``,
    by more positional arguments in a call to its class than its position,
    or by an attribute assignment; a ``**`` splat does not set it."""
    calls: dict = {}  # class or function name -> [(positional count, keywords)]
    assigned = set()
    for text in _corpus():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords} - {None}))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
    replaced = {k for _, keywords in calls.get("replace", []) for k in keywords}
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name, pos in _defaulted_fields(ast.parse(path.read_text())):
            if not (name in assigned or name in replaced
                    or any(name in keywords or count > pos
                           for count, keywords in calls.get(cls, []))):
                unset.append(f"{path.name}:{cls}.{name}")
    assert unset == []


def test_every_defaulted_dataclass_field_is_omitted_somewhere():
    """A field's default is used when a call to its class leaves the field
    out: fewer positional arguments than its position and no keyword for it,
    with no ``*`` or ``**`` splat that might set it.  A class passed as an
    argument (``.map(Name)``) is called elsewhere on any fields, so it counts
    as leaving every field out."""
    calls: dict = {}  # class name -> [(positional count, keywords)] of splat-free calls
    passed = set()
    for text in _corpus():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            keywords = [k.arg for k in node.keywords]
            if None not in keywords and not any(isinstance(a, ast.Starred) for a in node.args):
                calls.setdefault(name, []).append((len(node.args), set(keywords)))
            passed.update(a.id if isinstance(a, ast.Name) else a.attr for a in node.args
                          if isinstance(a, (ast.Name, ast.Attribute)))
    always_set = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name, pos in _defaulted_fields(ast.parse(path.read_text())):
            if not (cls in passed or any(count <= pos and name not in keywords
                                         for count, keywords in calls.get(cls, []))):
                always_set.append(f"{path.name}:{cls}.{name}")
    assert always_set == []
