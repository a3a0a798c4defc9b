"""Descriptor language: grammar coverage, diagnostics, round-trip, compile."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ioslab.errors import ParseError
from ioslab.signals import InputSignal
from ioslab.sysdsl import (
    _FUNCS, Bin, Call, Lit, Name, SystemSpecDoc, Un, compile_system, parse_system, print_system,
)
from ioslab.systems import SimPlan, simulate
from ioslab.zoo import make_example

SIN_DOC = """
# contraction with sine read-out
dim_x = 1
dim_u = 0
dx0 = -x0
y0 = sin(x0)
"""

LIN_DOC = """
dim_x = 1
dim_u = 1
dx0 = -x0 + u0
y0 = x0
"""


def test_parse_sin_output_document():
    doc = parse_system(SIN_DOC)
    assert doc.state_dim == 1
    assert doc.input_dim == 0
    assert doc.output_dim == 1
    assert doc.time_set == "continuous"


def test_parse_linear_document():
    doc = parse_system(LIN_DOC)
    sys = compile_system(doc)
    assert sys.rhs(np.array([2.0]), np.array([0.5]))[0] == -1.5


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_system("dx0 = x0 +")
    assert err.value.line == 1
    assert err.value.column == 11


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("dim_x = 1\ndim_u = 0\ndx0 = z9\ny0 = x0", "unknown identifier"),
        ("dim_x = 1\ndim_u = 0\ndx0 = foo(x0)\ny0 = x0", "unknown function"),
        ("dim_x = 1\ndim_u = 0\ndx0 = sin(x0, x0)\ny0 = x0", "argument"),
        ("dim_x = 2\ndim_u = 0\ndx0 = -x0\ny0 = x0", "dx0..dx1"),
        ("dim_x = 1\ndim_u = 0\ndx0 = -x0", "outputs"),
        ("dim_u = 0\ndx0 = -x0\ny0 = x0", "dim_x"),
        ("dim_x = 1\ndim_u = 0\ndx0 = (x0\ny0 = x0", "expected ')'"),
        ("dim_x = 1\ndim_u = 0\ndx0 = -x0\ny0 = x0 x0", "trailing"),
        ("dim_x = 1\ndim_u = 0\nparam u0 = 1\ndx0 = -x0\ny0 = x0", "shadows"),
        ("dim_x = 1\ndim_u = 0\ntime = sometimes\ndx0 = -x0\ny0 = x0", "continuous"),
        ("dim_x = 1.5\ndim_u = 0\ndx0 = -x0\ny0 = x0", "integer"),
        ("dim_x = 1\ndim_u = 0\nwhat = 3\ndx0 = -x0\ny0 = x0", "unknown key"),
    ],
)
def test_rejects_each_malformed_production(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("expr, fragment", [
    ("-x0 + z9", "unknown identifier"),
    ("-x0 + foo(x0)", "unknown function"),
    ("-x0 + sin(x0, x0)", "takes 1 argument"),
])
def test_name_errors_point_at_the_name(expr, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(f"dim_x = 1\ndim_u = 0\ndx0 = {expr}\ny0 = x0")
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (3, 13)


@pytest.mark.parametrize(
    "text",
    [
        "dim_x = 1\ndim_u = 0\ndx0 = 1.5e-3 * x0\ny0 = x0",          # literals
        "dim_x = 1\ndim_u = 1\ndx0 = -x0 + u0\ny0 = x0",              # identifiers
        "dim_x = 1\ndim_u = 0\ndx0 = -(x0 + 1) * 2 / 3\ny0 = x0",     # arithmetic
        "dim_x = 1\ndim_u = 0\ndx0 = min(x0, 1) - max(x0, -1)\ny0 = abs(x0)",
        "dim_x = 1\ndim_u = 0\ndx0 = atan2(x0, 1) + pow(x0, 2)\ny0 = sqrt(abs(x0))",
        "dim_x = 1\ndim_u = 0\nparam a = -0.5\ndx0 = a * x0\ny0 = exp(x0) - ln(x0 + 2)",
        "dim_x = 1\ndim_u = 0\ntime = discrete\ndx0 = sat(x0)\ny0 = x0",
        "dim_x = 2\ndim_u = 0\ndx0 = -x1\ndx1 = x0\ny0 = x0\ny1 = x1",
    ],
)
def test_accepts_each_production(text):
    doc = parse_system(text)
    compile_system(doc)


def test_parse_print_roundtrip_ast_equal():
    docs = [SIN_DOC, LIN_DOC,
            "dim_x = 1\ndim_u = 0\nparam k = 2.5\ndx0 = -(k*x0 - 1)/(x0+2)\ny0 = sat(x0*x0)"]
    for text in docs:
        doc = parse_system(text)
        again = parse_system(print_system(doc))
        assert again == doc


def test_constant_folding():
    doc = parse_system("dim_x = 1\ndim_u = 0\ndx0 = -x0\ny0 = 2*3")
    assert doc.output_exprs[0] == Lit(6.0)


@pytest.mark.parametrize("expr, want", [
    ("1/0", math.nan),
    ("ln(0)", math.nan),
    ("sqrt(0-1)", math.nan),
    ("exp(1000)", math.inf),
])
def test_nonfinite_constants_are_not_folded_and_round_trip(expr, want):
    doc = parse_system(f"dim_x = 1\ndim_u = 0\ndx0 = -x0 + {expr}\ny0 = x0")
    again = parse_system(print_system(doc))
    assert again == doc
    with np.errstate(over="ignore"):
        got = compile_system(again).rhs(np.zeros(1), np.zeros(0))[0]
    assert got == want or (math.isnan(want) and math.isnan(got))


@pytest.mark.parametrize("expr, fragment", [
    ("1e400", "bad number"),
    ("foo(1)", "unknown function"),
    ("sin(1, 2)", "takes 1 argument"),
])
def test_rejects_bad_literal_expressions(expr, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(f"dim_x = 1\ndim_u = 0\ndx0 = -x0\ny0 = {expr}")
    assert fragment in str(err.value)


def test_sat_builtin_value():
    doc = parse_system("dim_x = 1\ndim_u = 0\ndx0 = -x0\ny0 = sat(1.7)")
    assert doc.output_exprs[0] == Lit(1.0)


def test_compiled_sin_output_matches_builtin():
    compiled = compile_system(parse_system(SIN_DOC, name="sin_dsl"))
    builtin = make_example("sin_output")
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-4, 4, size=1)
        assert compiled.rhs(x, np.zeros(0)) == pytest.approx(builtin.rhs(x, np.zeros(0)), abs=1e-9)
        assert compiled.output(x, np.zeros(0)) == pytest.approx(
            np.atleast_1d(builtin.output(x, np.zeros(0))), abs=1e-9
        )


def test_compiled_system_simulates():
    sys = compile_system(parse_system(LIN_DOC, name="lin_dsl"))
    traj = simulate(sys, [1.0], InputSignal.constant([1.0]), SimPlan(3.0, 1e-3))
    expected = math.exp(-3.0) * 1.0 + (1.0 - math.exp(-3.0))
    assert traj.states[-1, 0] == pytest.approx(expected, abs=1e-8)


def test_evaluator_determinism():
    sys = compile_system(parse_system(
        "dim_x = 2\ndim_u = 1\ndx0 = sin(x1)*u0\ndx1 = cos(x0)/(1+x1*x1)\ny0 = x0*x1"
    ))
    x = np.array([0.3, -1.7])
    u = np.array([0.9])
    a = sys.rhs(x, u)
    b = sys.rhs(x.copy(), u.copy())
    assert np.array_equal(a, b)


def test_guarded_ln_propagates_nan():
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = -x0\ny0 = ln(x0)"))
    out = sys.output(np.array([-1.0]), np.zeros(0))
    assert math.isnan(out[0])


BROADCAST_DOC = """
dim_x = 3
dim_u = 1
dx0 = x1 / x0 + sat(u0)
dx1 = ln(x0) - sqrt(x1)
dx2 = min(x0, x2) * max(x1, u0) + abs(x2) - atan2(x2, x1)
y0 = pow(abs(x2), 1.5) + x0 / x2
y1 = sqrt(x0 - x1)
"""


def _scalar_reference(x, u):
    """The descriptor evaluated one row at a time with scalar guards."""
    x0, x1, x2 = (float(v) for v in x)
    u0 = float(u[0])
    div = lambda a, b: a / b if b != 0.0 else math.nan
    ln = lambda a: math.log(a) if a > 0 else math.nan
    sqrt = lambda a: math.sqrt(a) if a >= 0 else math.nan
    rhs = [div(x1, x0) + min(u0, 1.0),
           ln(x0) - sqrt(x1),
           min(x0, x2) * max(x1, u0) + abs(x2) - math.atan2(x2, x1)]
    out = [abs(x2) ** 1.5 + div(x0, x2), sqrt(x0 - x1)]
    return np.array(rhs), np.array(out)


def test_compiled_descriptor_broadcasts_over_rows():
    sys = compile_system(parse_system(BROADCAST_DOC))
    x = np.array([
        [0.0, 1.0, 2.0],     # x1 / x0 divides by zero, ln(0)
        [-1.0, 0.5, 0.0],    # ln of a negative value, x0 / x2 divides by zero
        [2.0, -0.5, 1.5],    # sqrt of a negative value
        [1.5, 0.25, -3.0],   # every guard passes
        [0.7, 0.9, 0.2],     # sqrt(x0 - x1) of a negative value
    ])
    u = np.array([[0.3], [2.5], [-1.0], [1.0], [0.0]])
    rhs, out = sys.rhs(x, u), sys.output(x, u)
    assert rhs.shape == (5, 3) and out.shape == (5, 2)
    for i in range(len(x)):
        assert np.array_equal(rhs[i], sys.rhs(x[i], u[i]), equal_nan=True)
        assert np.array_equal(out[i], sys.output(x[i], u[i]), equal_nan=True)
        want_rhs, want_out = _scalar_reference(x[i], u[i])
        assert np.array_equal(np.isnan(rhs[i]), np.isnan(want_rhs))
        assert np.array_equal(np.isnan(out[i]), np.isnan(want_out))
        # atan2 may differ from libm's by one ulp; everything else is exact
        np.testing.assert_allclose(rhs[i], want_rhs, rtol=1e-15, atol=0.0)
        assert np.array_equal(out[i], want_out, equal_nan=True)
    assert np.isnan(rhs[0, 0]) and np.isnan(rhs[1, 1]) and np.isnan(rhs[2, 1])
    assert np.isnan(out[1, 0]) and np.isnan(out[4, 1])


PARAMS = ("a", "k_1")
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _expressions(n, m):
    """Trees over literals, x/u names, declared parameters, unary minus,
    the four operators and every built-in at its arity."""
    names = [f"x{i}" for i in range(n)] + [f"u{j}" for j in range(m)] + list(PARAMS)
    leaves = st.one_of(FLOATS.map(Lit), st.sampled_from(names).map(Name))

    def grow(sub):
        calls = [st.tuples(*[sub] * arity).map(lambda args, fn=fn: Call(fn, args))
                 for fn, (arity, _) in sorted(_FUNCS.items())]
        return st.one_of(sub.map(lambda a: Un("-", a)),
                         st.builds(Bin, st.sampled_from("+-*/"), sub, sub), *calls)

    return st.recursive(leaves, grow, max_leaves=10)


@st.composite
def _documents(draw):
    n, m, k = draw(st.integers(1, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    trees = draw(st.lists(_expressions(n, m), min_size=n + k, max_size=n + k))
    values = draw(st.lists(FLOATS, min_size=len(PARAMS), max_size=len(PARAMS)))
    return SystemSpecDoc(n, m, k, tuple(trees[:n]), tuple(trees[n:]),
                         draw(st.sampled_from(("continuous", "discrete"))),
                         tuple(zip(PARAMS, values)))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_documents())
def test_print_parse_round_trip_on_random_trees(drawn):
    doc = parse_system(print_system(drawn))
    again = parse_system(print_system(doc))
    assert again == doc
    x = np.random.default_rng(3).uniform(-3, 3, size=(4, doc.state_dim + doc.input_dim))
    x[0] = 0.0
    x, u = x[:, :doc.state_dim], x[:, doc.state_dim:]
    want, got = compile_system(drawn), compile_system(again)
    with np.errstate(all="ignore"):
        assert np.array_equal(want.rhs(x, u), got.rhs(x, u), equal_nan=True)
        assert np.array_equal(want.output(x, u), got.output(x, u), equal_nan=True)


@pytest.mark.parametrize("text, fragment, where", [
    ("dim_u = 0\n dim_x = 2\ndx0 = -x0\ny0 = x0", "need exactly dx0..dx1", (2, 2)),
    ("dim_x = 1\ndim_u = 0\ndx0 = -x0\ny1 = x0", "need contiguous outputs y0..y0", (4, 1)),
    ("dim_x = 1\ndim_u = 0\ny0 = x0\ny2 = x0\ndx0 = -x0", "outputs y0..y1", (4, 1)),
    ("dim_x = 1\ndim_u = 0\ndx0 = -x0\n# no output", "outputs y0..y0", (3, 1)),
    ("dim_u = 0\ndx0 = -x0\n  y0 = x0\n", "missing dim_x declaration", (3, 3)),
    ("dim_x = 1\ndim_u = 0\n  dx0 = x0 +   # note", "unexpected end of expression", (3, 13)),
    ("dim_x = 1\ndim_u = 0\ntime =\ndx0 = -x0\ny0 = x0", "unexpected end", (3, 7)),
    ("time = ", "unexpected end", (1, 7)),
])
def test_diagnostics_point_at_the_statement(text, fragment, where):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == where


SEED_LINES = ("dim_x = 2", "dim_u = 1", "time = discrete", "param a = 2", "dx0 = -x0",
              "dx1 = a * x1 / (1 + x0 * x0)", "y0 = x0", "y1 = min(sin(u0), 2.5e-1)")
PIECES = (
    "dim_x", "dim_u", "time", "param", "dx0", "dx1", "y0", "y1", "dx", "dx²", "y٣", "what",
    "=", "x0", "x1", "u0", "a", "continuous", "discrete", "sin", "min", "pow", "foo",
    "(", ")", ",", "+", "-", "*", "/", "0", "1", "2", "1.5", ".5", "1e-3", "1e30", "1e400",
    "1.2.3", "3e", "# note", "#", "$", "@", "²", "½", "é", ";", ".", "\t", " ",
)


def _random_document(rng):
    """A valid document with a few random edits: a piece inserted into a
    line, a line dropped or repeated, or a line of random pieces."""
    lines = list(SEED_LINES)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        i = rng.randrange(len(lines))
        edit = rng.randrange(4)
        if edit == 0:
            cut, gap = rng.randint(0, len(lines[i])), rng.choice(("", " "))
            lines[i] = lines[i][:cut] + gap + rng.choice(PIECES) + gap + lines[i][cut:]
        elif edit == 1 and len(lines) > 1:
            del lines[i]
        elif edit == 2:
            lines.insert(i, lines[rng.randrange(len(lines))])
        else:
            lines[i] = " ".join(rng.choice(PIECES) for _ in range(rng.randint(0, 5)))
    return "\n".join(lines)


def test_random_documents_parse_or_raise_parse_error():
    # inputs that once raised IndexError, ValueError and OverflowError come
    # first; a huge dim_u in the random ones once built a name per input
    texts = ["time =", "dim_x = 1\ndim_u = 0\ntime =\ndx0 = -x0\ny0 = x0", "dx² = x0",
             "dim_x = 1e30\ndim_u = 0\ndx0 = -x0\ny0 = x0"]
    rng = random.Random(14)
    texts += [_random_document(rng) for _ in range(4000)]
    accepted = 0
    for text in texts:
        try:
            parse_system(text)
        except ParseError:
            continue
        accepted += 1
    assert 0 < accepted < len(texts)


_DEEP = "dim_x = 1\ndim_u = 0\ndx0 = {}\ny0 = x0"


@pytest.mark.parametrize("expr, col", [("(" * 400 + "x0" + ")" * 400, 207),
                                       ("-" * 1500 + "x0", 207),
                                       ("sin(" * 400 + "x0" + ")" * 400, 810)],
                         ids=["parentheses", "unary-minus", "calls"])
def test_deep_nesting_is_a_parse_error(expr, col):
    # the parser recurses per level: these once raised RecursionError
    with pytest.raises(ParseError) as err:
        parse_system(_DEEP.format(expr))
    assert "nested deeper than 200 levels" in str(err.value)
    assert (err.value.line, err.value.column) == (3, col)  # the 201st opening token


@pytest.mark.parametrize("expr", ["(" * 200 + "x0" + ")" * 200, "-" * 200 + "x0"],
                         ids=["parentheses", "unary-minus"])
def test_nesting_at_the_limit_parses_and_compiles(expr):
    doc = parse_system(_DEEP.format(expr))
    assert compile_system(doc).rhs(np.array([1.0]), np.zeros(0)).shape == (1,)


def test_long_key_index_is_a_parse_error():
    # int() refuses more than 4,300 digits: this once raised ValueError
    with pytest.raises(ParseError) as err:
        parse_system("dim_x = 1\ndim_u = 0\ndx" + "0" * 5000 + " = x0\ny0 = x0")
    assert "index longer than 309 digits" in str(err.value)
    assert (err.value.line, err.value.column) == (3, 1)


@pytest.mark.parametrize("op", ["+", "*"], ids=["sum", "product"])
def test_long_chain_is_a_parse_error(op):
    # a chain nests its first operand one level per operator: a 1,000-term
    # sum or product once raised RecursionError
    with pytest.raises(ParseError) as err:
        parse_system(_DEEP.format(f" {op} ".join(["x0"] * 1000)))
    assert "nested deeper than 200 levels" in str(err.value)
    assert (err.value.line, err.value.column) == (3, 1010)  # the 201st operator


def test_chain_at_the_limit_parses_compiles_and_prints_back():
    doc = parse_system(_DEEP.format(" + ".join(["x0"] * 200)))
    assert parse_system(print_system(doc)) == doc
    assert compile_system(doc).rhs(np.array([0.5]), np.zeros(0))[0] == 100.0


def test_bracketed_chains_count_toward_one_height():
    # a chain's first operand may itself hold a chain: no chain and no
    # bracket depth passes 200, but 8 chains of 190 nest 1,520 levels deep
    # on the path to the innermost x0, past the fold's recursion limit
    expr = "x0"
    for _ in range(8):
        expr = "(" + expr + ")" + " + x0" * 190
    with pytest.raises(ParseError, match="nested deeper than 200 levels"):
        parse_system(_DEEP.format(expr))
