"""Parser and evaluator for the system-descriptor language.

A descriptor is UTF-8 text, one statement per line, ``#`` starts a comment.
Normative keys::

    dim_x = <int>            state dimension (required)
    dim_u = <int>            input dimension (required, may be 0)
    time = continuous|discrete   optional, default continuous
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

Compiled systems follow the simulator's batch contract: every expression is
a broadcasting NumPy closure over ``x[..., i]`` and ``u[..., j]``, so one
call evaluates a whole (P, n) block of states row by row.

Whether the right-hand side is Lipschitz on bounded sets is the author's
responsibility; descriptor systems violating it may break the
finite-dimensional equivalences this package checks.
"""

from __future__ import annotations

import math
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


def _tokenize_line(text: str, line_no: int) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            toks.append(_Tok("NUM", text[i:j], line_no, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", text[i:j], line_no, col))
            i = j
            continue
        if ch in "+-*/(),=":
            toks.append(_Tok("OP", ch, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    toks.append(_Tok("EOL", "", line_no, len(text.rstrip()) + 1))
    return toks


class _ExprParser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Tok:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.col)
        return self.next()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.next()
            return Un("-", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok = self.next()
        if tok.kind == "NUM":
            try:
                value = float(tok.text)
            except ValueError:
                value = math.inf
            if math.isinf(value):  # malformed, or overflowing like 1e400
                raise ParseError(f"bad number {tok.text!r}", tok.line, tok.col)
            return Lit(value)
        if tok.kind == "IDENT":
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == "OP" and self.peek().text == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect_op(")")
                return Call(tok.text, tuple(args), tok.col)
            return Name(tok.text, tok.col)
        if tok.kind == "OP" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError("unexpected end of expression" if tok.kind == "EOL"
                         else f"unexpected token {tok.text!r}", tok.line, tok.col)


def _fold(node):
    """Constant folding: subtrees with only literal leaves become literals,
    as long as their value is finite (a NaN or inf has no number token, so
    it could not be printed back; such a subtree stays as written)."""
    if isinstance(node, Lit) or isinstance(node, Name):
        return node
    if isinstance(node, Un):
        arg = _fold(node.arg)
        if isinstance(arg, Lit):
            return Lit(-arg.value)
        return Un(node.op, arg)
    if isinstance(node, Bin):
        left, right = _fold(node.left), _fold(node.right)
        return _folded(Bin(node.op, left, right), _APPLY_BIN[node.op], (left, right))
    if isinstance(node, Call):
        call = Call(node.fn, tuple(_fold(a) for a in node.args), node.col)
        if _FUNCS.get(call.fn, (None,))[0] != len(call.args):
            return call  # unknown function or wrong arity: validation reports it
        return _folded(call, _FUNCS[call.fn][1], call.args)
    raise TypeError(node)


def _folded(node, fn, args):
    """``node`` as a literal when all its arguments are literals and
    ``fn`` of them is finite; ``node`` itself otherwise."""
    if not all(isinstance(a, Lit) for a in args):
        return node
    with np.errstate(all="ignore"):
        value = float(fn(*(a.value for a in args)))
    return Lit(value) if math.isfinite(value) else node


_APPLY_BIN = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _DIV}


def _validate_idents(node, allowed: set, line: int):
    if isinstance(node, Name):
        if node.ident not in allowed:
            raise ParseError(f"unknown identifier {node.ident!r}", line, node.col)
    elif isinstance(node, Un):
        _validate_idents(node.arg, allowed, line)
    elif isinstance(node, Bin):
        _validate_idents(node.left, allowed, line)
        _validate_idents(node.right, allowed, line)
    elif isinstance(node, Call):
        if node.fn not in _FUNCS:
            raise ParseError(f"unknown function {node.fn!r}", line, node.col)
        arity, _ = _FUNCS[node.fn]
        if len(node.args) != arity:
            raise ParseError(
                f"{node.fn} takes {arity} argument(s), got {len(node.args)}", line, node.col
            )
        for a in node.args:
            _validate_idents(a, allowed, line)


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------

def parse_system(text: str, name: str = "descriptor") -> SystemSpecDoc:
    """Parse and validate a descriptor document; errors carry line/column."""
    dims: dict[str, int] = {}
    time_set = "continuous"
    params: dict[str, float] = {}
    rhs: dict[int, object] = {}
    outs: dict[int, object] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, line_no)
        if toks[0].kind == "EOL":
            continue
        head = toks[0]
        if head.kind != "IDENT":
            raise ParseError("statement must start with a key", line_no, head.col)

        if head.text == "param":
            if len(toks) < 4 or toks[1].kind != "IDENT":
                raise ParseError("param needs a name", line_no, head.col)
            pname = toks[1].text
            if pname[0] in "xu" and pname[1:].isdigit():
                raise ParseError(
                    f"param name {pname!r} shadows a state/input variable", line_no, toks[1].col
                )
            p = _ExprParser(toks[3:])
            _eat_equals(toks[2])
            node = _fold(p.parse_expr())
            _expect_eol(p)
            if not isinstance(node, Lit):
                raise ParseError("param value must be a literal expression", line_no, toks[3].col)
            params[pname] = node.value
            continue

        if len(toks) < 3:
            raise ParseError("expected '=' after key", line_no,
                             toks[1].col if len(toks) > 1 else head.col + len(head.text))
        _eat_equals(toks[1])
        p = _ExprParser(toks[2:])

        if head.text in ("dim_x", "dim_u"):
            node = p.parse_expr()
            _expect_eol(p)
            node = _fold(node)
            if not isinstance(node, Lit) or node.value != int(node.value) or node.value < 0:
                raise ParseError(f"{head.text} must be a nonnegative integer", line_no, toks[2].col)
            dims[head.text] = int(node.value)
            continue
        if head.text == "time":
            tok = p.next()
            _expect_eol(p)
            if tok.kind != "IDENT" or tok.text not in ("continuous", "discrete"):
                raise ParseError("time must be 'continuous' or 'discrete'", line_no, tok.col)
            time_set = tok.text
            continue
        if head.text.startswith("dx") and head.text[2:].isdigit():
            rhs[int(head.text[2:])] = (_fold(p.parse_expr()), line_no)
            _expect_eol(p)
            continue
        if head.text.startswith("y") and head.text[1:].isdigit():
            outs[int(head.text[1:])] = (_fold(p.parse_expr()), line_no)
            _expect_eol(p)
            continue
        raise ParseError(f"unknown key {head.text!r}", line_no, head.col)

    if "dim_x" not in dims:
        raise ParseError("missing dim_x declaration", 1, 1)
    if "dim_u" not in dims:
        raise ParseError("missing dim_u declaration", 1, 1)
    n, m = dims["dim_x"], dims["dim_u"]
    if sorted(rhs) != list(range(n)):
        raise ParseError(f"need exactly dx0..dx{n-1}", 1, 1)
    if not outs or sorted(outs) != list(range(len(outs))):
        raise ParseError("need contiguous outputs y0..y{k}", 1, 1)
    allowed = (
        {f"x{i}" for i in range(n)} | {f"u{j}" for j in range(m)} | set(params)
    )
    for i, (node, line) in sorted(rhs.items()):
        _validate_idents(node, allowed, line)
    for j, (node, line) in sorted(outs.items()):
        _validate_idents(node, allowed, line)
    return SystemSpecDoc(
        state_dim=n,
        input_dim=m,
        output_dim=len(outs),
        rhs_exprs=tuple(rhs[i][0] for i in range(n)),
        output_exprs=tuple(outs[j][0] for j in range(len(outs))),
        time_set=time_set,
        params=tuple(sorted(params.items())),
        name=name,
    )


def _eat_equals(tok: _Tok):
    if tok.kind != "OP" or tok.text != "=":
        raise ParseError("expected '='", tok.line, tok.col)


def _expect_eol(p: _ExprParser):
    tok = p.peek()
    if tok.kind != "EOL":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


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
        meta={"descriptor": True},
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
