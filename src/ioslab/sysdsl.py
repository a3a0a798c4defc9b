"""Parser and evaluator for the system-descriptor language.

A descriptor is UTF-8 text, one statement per line, ``#`` starts a comment.
Every statement has the one form ``statement = KEY [NAME] "=" expr ;``,
where only ``param`` takes a NAME.  Normative keys::

    dim_x = <int>            state dimension (required)
    dim_u = <int>            input dimension (required, may be 0)
    time = continuous|discrete   optional, default continuous (an identifier)
    param <name> = <number>  named scalar constants
    dx<i> = <expr>           state derivative (continuous) / step map (discrete)
    y<j> = <expr>            output coordinates, contiguous from y0

Expression grammar (EBNF)::

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | primary ;
    primary = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;

Identifiers are the state variables ``x0..x{n-1}``, input variables
``u0..u{m-1}``, declared parameters, and the built-in functions
sin, cos, exp, ln, sqrt, abs, min, max, sat, atan2, pow (``sat`` is
min{., 1}).  Division, ln and sqrt are guarded at evaluation: out-of-domain
arguments yield NaN, which the simulator reports.

Diagnostics carry the line of the statement at fault.  A missing
declaration points at the last statement, a wrong number of ``dx`` lines at
the ``dim_x`` statement, and non-contiguous outputs at the first output out
of sequence (else the last statement).

Compiled systems follow the simulator's batch contract: every expression is
a broadcasting NumPy closure over ``x[..., i]`` and ``u[..., j]``, so one
call evaluates a whole (P, n) block of states row by row.

Whether the right-hand side is Lipschitz on bounded sets is the author's
responsibility; descriptor systems violating it may break the
finite-dimensional equivalences this package checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .systems import SystemModel

__all__ = ["SystemSpecDoc", "parse_system", "compile_system", "print_system",
           "Lit", "Name", "Un", "Bin", "Call"]


def _guarded(fn, ok, safe):
    """fn where ok(arguments) holds, NaN elsewhere; fn only ever sees
    in-domain values (``safe`` replaces the rest), so it raises no warning."""
    def apply(*args):
        inside = ok(*args)
        return np.where(inside, fn(*(np.where(inside, a, s) for a, s in zip(args, safe))), np.nan)
    return apply


_DIV = _guarded(np.divide, lambda a, b: b != 0.0, (0.0, 1.0))

_FUNCS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "ln": (1, _guarded(np.log, lambda a: a > 0.0, (1.0,))),
    "sqrt": (1, _guarded(np.sqrt, lambda a: a >= 0.0, (0.0,))),
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "sat": (1, lambda a: np.minimum(a, 1.0)),
    "atan2": (2, np.arctan2),
    # libm's pow, as the scalar ``**`` was; np.power may round differently
    "pow": (2, np.float_power),
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str
    col: int = field(default=1, compare=False)  # for diagnostics only


@dataclass(frozen=True)
class Un:
    op: str
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    col: int = field(default=1, compare=False)  # for diagnostics only


@dataclass(frozen=True)
class SystemSpecDoc:
    state_dim: int
    input_dim: int
    output_dim: int
    rhs_exprs: tuple
    output_exprs: tuple
    time_set: str
    params: tuple  # ((name, value), ...)
    name: str = "descriptor"


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@dataclass
class _Tok:
    kind: str  # NUM IDENT OP EOL
    text: str
    line: int
    col: int


# A number is checked as a whole when it is parsed, so "1.2.3" is one token.
_TOKEN = re.compile(r"\s*(?:(?P<NUM>\.?\d(?:[\d.]|[eE][+-]?)*)|(?P<IDENT>[^\W\d]\w*)"
                    r"|(?P<OP>[-+*/(),=])|(?P<EOL>#.*|$))?")


def _tokenize_line(text: str, line_no: int) -> list[_Tok]:
    toks, end = [], 0
    while True:
        m = _TOKEN.match(text, end)
        kind = m.lastgroup
        # \w also admits numerals such as "½", which do not start an identifier
        if kind is None or kind == "IDENT" and not (m[kind][0].isalpha() or m[kind][0] == "_"):
            col = m.end() if kind is None else m.start(kind)
            raise ParseError(f"unexpected character {text[col]!r}", line_no, col + 1)
        if kind == "EOL":  # its column is just past the code, before any comment
            return toks + [_Tok("EOL", "", line_no, end + 1)]
        toks.append(_Tok(kind, m[kind], line_no, m.start(kind) + 1))
        end = m.end()


_LEVELS = ("+-", "*/")  # binary operators, loosest first; unary minus binds tighter
# most brackets and unary minus signs open at once, and most nodes on a path
# from an expression's root to a leaf: the parser recurses per open level, the
# fold, the compiler, the printer and node equality per node level, and 200
# levels of each stay well inside Python's default recursion limit
_MAX_DEPTH = 200


def _nest(level: int, tok: _Tok) -> int:
    """One level deeper than ``level``; past ``_MAX_DEPTH`` a parse error at ``tok``."""
    if level >= _MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", tok.line, tok.col)
    return level + 1


class _Parser:
    def __init__(self, toks: list[_Tok], pos: int):
        self.toks = toks
        self.pos = pos
        self.depth = 0

    def at(self, ops: str) -> bool:
        tok = self.toks[self.pos]
        return tok.kind == "OP" and tok.text in ops

    def take(self) -> _Tok:
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, op: str):
        tok = self.take()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.col)

    def enter(self) -> _Tok:
        """Step over a "(" or a unary "-": one level deeper."""
        tok = self.take()
        self.depth = _nest(self.depth, tok)
        return tok

    def parse_expr(self, level: int = 0):
        """(expression, height): the height counts the nodes on the longest
        path from the root to a leaf.  ``enter`` counts what opens before its
        operand; a chain of binary operators nests its first operand one
        level per operator read after it, so only the height bounds it."""
        if level == len(_LEVELS):
            if self.at("-"):
                tok = self.enter()
                node, height = self.parse_expr(level)
                self.depth -= 1
                return Un("-", node), _nest(height, tok)
            return self.parse_primary()
        node, height = self.parse_expr(level + 1)
        while self.at(_LEVELS[level]):
            tok = self.take()
            right, right_height = self.parse_expr(level + 1)
            node, height = Bin(tok.text, node, right), _nest(max(height, right_height), tok)
        return node, height

    def parse_primary(self):
        if self.at("("):
            self.enter()
            expr = self.parse_expr()  # (node, height)
            self.expect(")")
            self.depth -= 1
            return expr
        tok = self.take()
        if tok.kind == "NUM":
            try:
                value = float(tok.text)
            except ValueError:
                value = math.inf
            if math.isinf(value):  # malformed, or overflowing like 1e400
                raise ParseError(f"bad number {tok.text!r}", tok.line, tok.col)
            return Lit(value), 0
        if tok.kind == "IDENT":
            if not self.at("("):
                return Name(tok.text, tok.col), 0
            self.enter()
            args = [self.parse_expr()]
            while self.at(","):
                self.pos += 1
                args.append(self.parse_expr())
            self.expect(")")
            self.depth -= 1
            return (Call(tok.text, tuple(a for a, _ in args), tok.col),
                    _nest(max(h for _, h in args), tok))
        raise ParseError("unexpected end of expression" if tok.kind == "EOL"
                         else f"unexpected token {tok.text!r}", tok.line, tok.col)


def _fold(node, allowed, line: int):
    """Constant folding: subtrees with only literal leaves become literals,
    as long as their value is finite (a NaN or inf has no number token, so
    it could not be printed back; such a subtree stays as written).

    With ``allowed`` (a predicate on names) the same depth-first,
    left-to-right walk validates: the first unknown name, unknown function
    or wrong arity raises, at its column on ``line``.  Without it, an
    unknown function or a wrong arity stays as written."""
    if isinstance(node, Name) and allowed is not None and not allowed(node.ident):
        raise ParseError(f"unknown identifier {node.ident!r}", line, node.col)
    if isinstance(node, (Lit, Name)):
        return node
    if isinstance(node, Un):
        arg = _fold(node.arg, allowed, line)
        return Lit(-arg.value) if isinstance(arg, Lit) else Un(node.op, arg)
    if isinstance(node, Bin):
        left, right = _fold(node.left, allowed, line), _fold(node.right, allowed, line)
        return _folded(Bin(node.op, left, right), _APPLY_BIN[node.op], (left, right))
    arity, fn = _FUNCS.get(node.fn, (None, None))
    if allowed is not None and arity != len(node.args):
        raise ParseError(f"unknown function {node.fn!r}" if arity is None else
                         f"{node.fn} takes {arity} argument(s), got {len(node.args)}",
                         line, node.col)
    call = Call(node.fn, tuple(_fold(a, allowed, line) for a in node.args), node.col)
    return call if arity != len(call.args) else _folded(call, fn, call.args)


def _folded(node, fn, args):
    """``node`` as a literal when all its arguments are literals and
    ``fn`` of them is finite; ``node`` itself otherwise."""
    if not all(isinstance(a, Lit) for a in args):
        return node
    with np.errstate(all="ignore"):
        value = float(fn(*(a.value for a in args)))
    return Lit(value) if math.isfinite(value) else node


_APPLY_BIN = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _DIV}


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------

_INDEXED = re.compile(r"(dx|y)(\d+)")
# a dimension is a finite float, so no longer than 309 digits
_VARIABLE = re.compile(r"([xu])(0|[1-9][0-9]{0,308})")


def parse_system(text: str, name: str = "descriptor") -> SystemSpecDoc:
    """Parse and validate a descriptor document; errors carry line/column."""
    dims: dict[str, tuple] = {}  # "x" / "u" -> (dimension, where declared)
    time_set = "continuous"
    params: dict[str, float] = {}
    rhs: dict[int, tuple] = {}  # index -> (expression, (line, col))
    outs: dict[int, tuple] = {}
    at = (1, 1)  # where the last statement starts

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, line_no)
        key = toks[0]
        if key.kind == "EOL":
            continue
        if key.kind != "IDENT":
            raise ParseError("statement must start with a key", line_no, key.col)
        named = key.text == "param"
        if named and (len(toks) < 4 or toks[1].kind != "IDENT"):
            raise ParseError("param needs a name", line_no, key.col)
        if named and toks[1].text[0] in "xu" and toks[1].text[1:].isdigit():
            raise ParseError(
                f"param name {toks[1].text!r} shadows a state/input variable", line_no, toks[1].col
            )
        equals = toks[1 + named]
        if equals.kind != "OP" or equals.text != "=":
            raise ParseError("expected '=' after key" if equals.kind == "EOL" else "expected '='",
                             line_no, equals.col)
        indexed = _INDEXED.fullmatch(key.text)
        if not indexed and key.text not in ("param", "dim_x", "dim_u", "time"):
            raise ParseError(f"unknown key {key.text!r}", line_no, key.col)
        if indexed and len(indexed[2]) > 309:  # as _VARIABLE bounds a variable's index
            raise ParseError(f"{indexed[1]} index longer than 309 digits", line_no, key.col)
        p = _Parser(toks, 2 + named)
        node = _fold(p.parse_expr()[0], None, line_no)
        if toks[p.pos].kind != "EOL":
            raise ParseError(f"trailing input {toks[p.pos].text!r}", line_no, toks[p.pos].col)
        col = toks[2 + named].col
        at = (line_no, key.col)
        if indexed:
            (rhs if indexed[1] == "dx" else outs)[int(indexed[2])] = (node, at)
        elif named:
            if not isinstance(node, Lit):
                raise ParseError("param value must be a literal expression", line_no, col)
            params[toks[1].text] = node.value
        elif key.text == "time":
            # written bare: a parenthesised name is not a time set
            if not (isinstance(node, Name) and node.col == col
                    and node.ident in ("continuous", "discrete")):
                raise ParseError("time must be 'continuous' or 'discrete'", line_no, col)
            time_set = node.ident
        elif not isinstance(node, Lit) or node.value != int(node.value) or node.value < 0:
            raise ParseError(f"{key.text} must be a nonnegative integer", line_no, col)
        else:
            dims[key.text[-1]] = (int(node.value), at)

    for axis in "xu":
        if axis not in dims:
            raise ParseError(f"missing dim_{axis} declaration", *at)
    n, m = dims["x"][0], dims["u"][0]
    if len(rhs) != n or any(i >= n for i in rhs):
        raise ParseError(f"need exactly dx0..dx{n-1}", *dims["x"][1])
    late = [where for j, (_, where) in outs.items() if j >= len(outs)]
    if not outs or late:
        raise ParseError(f"need contiguous outputs y0..y{max(len(outs), 1) - 1}",
                         *min(late, default=at))

    def allowed(ident: str) -> bool:
        var = _VARIABLE.fullmatch(ident)
        return ident in params or var is not None and int(var[2]) < dims[var[1]][0]

    return SystemSpecDoc(
        state_dim=n,
        input_dim=m,
        output_dim=len(outs),
        rhs_exprs=tuple(_fold(rhs[i][0], allowed, rhs[i][1][0]) for i in range(n)),
        output_exprs=tuple(_fold(outs[j][0], allowed, outs[j][1][0]) for j in range(len(outs))),
        time_set=time_set,
        params=tuple(sorted(params.items())),
        name=name,
    )


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _compile_expr(node, env: dict):
    """Build a broadcasting closure (x, u) -> value per row; NaN propagates
    to the simulator."""
    if isinstance(node, Lit):
        v = node.value
        return lambda x, u: v
    if isinstance(node, Name):
        ident = node.ident
        if ident in env:
            v = env[ident]
            return lambda x, u: v
        axis, idx = ident[0], int(ident[1:])
        if axis == "x":
            return lambda x, u: x[..., idx]
        return lambda x, u: u[..., idx]
    if isinstance(node, Un):
        f = _compile_expr(node.arg, env)
        return lambda x, u: -f(x, u)
    if isinstance(node, Bin):
        fl = _compile_expr(node.left, env)
        fr = _compile_expr(node.right, env)
        op = _APPLY_BIN[node.op]
        return lambda x, u: op(fl(x, u), fr(x, u))
    if isinstance(node, Call):
        _, fn = _FUNCS[node.fn]
        fs = [_compile_expr(a, env) for a in node.args]
        if len(fs) == 1:
            f0 = fs[0]
            return lambda x, u: fn(f0(x, u))
        f0, f1 = fs
        return lambda x, u: fn(f0(x, u), f1(x, u))
    raise TypeError(node)


def compile_system(doc: SystemSpecDoc) -> SystemModel:
    """Interpret a validated descriptor as a SystemModel."""
    env = dict(doc.params)
    rhs_fns = [_compile_expr(e, env) for e in doc.rhs_exprs]
    out_fns = [_compile_expr(e, env) for e in doc.output_exprs]

    def rows(fns, x, u):
        out = np.empty(np.shape(x)[:-1] + (len(fns),))
        for j, f in enumerate(fns):
            out[..., j] = f(x, u)
        return out

    def rhs(x, u):
        return rows(rhs_fns, x, u)

    def output(x, u):
        return rows(out_fns, x, u)

    return SystemModel(
        name=doc.name,
        time_set=doc.time_set,
        state_dim=doc.state_dim,
        input_dim=doc.input_dim,
        rhs=rhs,
        output=output,
        output_dim=doc.output_dim,
    )


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def _print_expr(node, parent_prec: int = 0) -> str:
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Un):
        inner = _print_expr(node.arg, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        left = _print_expr(node.left, prec)
        right = _print_expr(node.right, prec + 1)  # left-assoc
        text = f"{left} {node.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Call):
        args = ", ".join(_print_expr(a) for a in node.args)
        return f"{node.fn}({args})"
    raise TypeError(node)


def print_system(doc: SystemSpecDoc) -> str:
    """Canonical text form; reparsing yields an AST-equal document."""
    lines = [f"dim_x = {doc.state_dim}", f"dim_u = {doc.input_dim}"]
    if doc.time_set != "continuous":
        lines.append(f"time = {doc.time_set}")
    for name, value in doc.params:
        lines.append(f"param {name} = {value!r}")
    for i, expr in enumerate(doc.rhs_exprs):
        lines.append(f"dx{i} = {_print_expr(expr)}")
    for j, expr in enumerate(doc.output_exprs):
        lines.append(f"y{j} = {_print_expr(expr)}")
    return "\n".join(lines) + "\n"
