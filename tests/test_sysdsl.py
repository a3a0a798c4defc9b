"""Descriptor language: grammar coverage, diagnostics, round-trip, compile."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ioslab.errors import ParseError
from ioslab.signals import InputSignal
from ioslab.sysdsl import Lit, compile_system, parse_system, print_system
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
