"""Algebra of comparison functions used by stability certificates.

Conventions
-----------
Scalar comparison functions map the nonnegative reals to the nonnegative
reals and carry a declared class tag:

    K           zero at zero, strictly increasing
    Kinf        class K and unbounded
    L           nonincreasing with limit zero
    increasing  nondecreasing, no further guarantees
    decreasing  nonincreasing, positive limit allowed
    constant    constant value c >= 0 (tag "zero" when c == 0)

K / Kinf / L declarations are enforced at construction by dense sampling on
a logarithmic grid; a function failing its sampled check is rejected with
``ClassError``.  The checks are numerical, not symbolic: a pass means "no
violation found on the grid".

Two-argument decay functions beta(r, t) are expression trees as well.  They
are validated on demand (:func:`check_kl`) rather than per node, because
useful intermediate nodes (e.g. the time profile ``1 + exp(-t)``) are not KL
on their own even though enclosing min-expressions are.  This module alone
knows what each KL node kind means: its value (``KLFn._eval``), its zero
slice beta(., 0) (:func:`kl_at_zero`), its radius cap (``_kl_radius_cap``)
and, through the cap, its class-check grid (:func:`check_kl`).

The one piecewise-exponential node, ``kl_grid_pw_exp``, holds one knot row
per grid radius and decays by a factor e between consecutive knots.  It
reads its radius cell by the tables' ball-axis rule (:func:`snap_up`), so a
profile built from a table answers exactly the radii the table answers, and
its last grid radius is the largest radius it answers.

All nodes are immutable and hashable, so certificates built from them can be
shared freely between concurrent evaluations.  Evaluation is vectorised over
numpy arrays.  Serialisation uses plain dicts with field names ``kind``,
``class``, ``children``, ``knots``, ``values``, ``r_grid``, ``knot_rows``
plus scalar parameters, and round-trips closed forms bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ClassError, DomainError, FitError, TableGapError

__all__ = [
    "ScalarFn",
    "KLFn",
    "KnotSequence",
    "identity",
    "scale",
    "power",
    "constant",
    "zero",
    "sat",
    "exp_decay",
    "pwl",
    "combine",
    "add",
    "fmax",
    "fmin",
    "compose",
    "scale_arg",
    "scale_val",
    "invert",
    "fit_monotone_envelope",
    "kl_separable",
    "kl_exp",
    "kl_min",
    "kl_max",
    "kl_sum",
    "kl_outer",
    "kl_inner",
    "kl_time_scale",
    "build_piecewise_kl",
    "grid_piecewise_kl",
    "snap_up",
    "kl_eval",
    "kl_at_zero",
    "check_class",
    "declare",
    "check_kl",
    "fn_to_dict",
    "fn_from_dict",
    "EPS_SLOPE",
]

# Strictness repair slope for fitted envelopes (nondecreasing -> strictly
# increasing without losing domination).
EPS_SLOPE = 1e-9

# Sampled class checks: log grid for increase/decrease, single large probe
# for unboundedness / vanishing limit.
_CLASS_GRID = np.concatenate(([0.0], np.logspace(-6.0, 6.0, 257)))
_UNBOUNDED_PROBE = 1e18
_UNBOUNDED_FLOOR = 1e6
_LIMIT_PROBE_FACTOR = 40.0

_ZERO_AT_ZERO = ("K", "Kinf", "zero")
_INCREASING_LIKE = ("K", "Kinf", "zero", "increasing")


def _as_nonneg(r):
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("comparison functions are defined on r >= 0")
    return arr


def _ret(arr, scalar_in):
    return float(arr) if scalar_in else arr


@dataclass(frozen=True)
class ScalarFn:
    """Expression-tree node for a scalar comparison function."""

    kind: str
    fn_class: str
    children: tuple = ()
    param: float | None = None
    knots: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        # a pwl table is read as arrays, built once; kept outside the fields,
        # so equality, hash and dicts still read the tuples
        if self.kind == "pwl":
            for name, field in (("_kn", self.knots), ("_vals", self.values)):
                arr = np.array(field, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def __call__(self, r):
        scalar_in = np.isscalar(r) or (isinstance(r, np.ndarray) and r.ndim == 0)
        arr = _as_nonneg(r)
        return _ret(self._eval(arr), scalar_in)

    def _eval(self, arr):
        k = self.kind
        if k == "identity":
            return arr.copy() if isinstance(arr, np.ndarray) else arr
        if k == "scale":
            return self.param * arr
        if k == "power":
            return arr ** self.param
        if k == "constant":
            return np.full_like(arr, self.param)
        if k == "sat":
            return np.minimum(arr, 1.0)
        if k == "exp_decay":
            return np.exp(-arr)
        if k == "pwl":
            return self._eval_pwl(arr)
        if k == "add":
            return self.children[0]._eval(arr) + self.children[1]._eval(arr)
        if k == "max":
            return np.maximum(self.children[0]._eval(arr), self.children[1]._eval(arr))
        if k == "min":
            return np.minimum(self.children[0]._eval(arr), self.children[1]._eval(arr))
        if k == "compose":
            inner = self.children[1]._eval(arr)
            return self.children[0]._eval(inner)
        raise ValueError(f"unknown scalar node kind {k!r}")

    def _eval_pwl(self, arr):
        kn, vals = self._kn, self._vals
        out = np.interp(arr, kn, vals)
        if kn.size >= 2:
            last_slope = (vals[-1] - vals[-2]) / (kn[-1] - kn[-2])
            above = arr > kn[-1]
            if np.any(above):
                out = np.where(above, vals[-1] + last_slope * (arr - kn[-1]), out)
        # left of the first knot: constant extension (np.interp already does)
        return out

    # -- introspection -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.fn_class == "zero"

    def to_dict(self) -> dict:
        return fn_to_dict(self)


def _check_k(fn: ScalarFn, unbounded: bool):
    with np.errstate(over="ignore"):
        vals = fn._eval(_CLASS_GRID)
    if not np.all(np.isfinite(vals[: len(vals) // 2])):
        raise ClassError("non-finite values on the class-check grid")
    if abs(vals[0]) > 1e-12:
        raise ClassError(f"declared class K but f(0) = {vals[0]!r}")
    if not np.all(np.diff(vals) > 0.0):
        idx = int(np.argmin(np.diff(vals)))
        raise ClassError(
            f"declared class K but not strictly increasing near r = {_CLASS_GRID[idx]:g}"
        )
    if unbounded:
        with np.errstate(over="ignore"):
            top = float(fn._eval(np.asarray(_UNBOUNDED_PROBE)))
        if not (top > _UNBOUNDED_FLOOR or math.isinf(top)):
            raise ClassError(
                f"declared class Kinf but f({_UNBOUNDED_PROBE:g}) = {top:g} "
                f"does not exceed {_UNBOUNDED_FLOOR:g}"
            )


def _check_l(fn: ScalarFn):
    vals = fn._eval(_CLASS_GRID)
    if np.any(np.diff(vals) > 1e-15):
        raise ClassError("declared class L but increasing somewhere on the grid")
    tail = float(fn._eval(np.asarray(_CLASS_GRID[-1] * _LIMIT_PROBE_FACTOR)))
    head = float(vals[0])
    if not tail <= max(1e-6 * head, 1e-12):
        raise ClassError(f"declared class L but tail value {tail:g} does not vanish")


def check_class(fn: ScalarFn) -> ScalarFn:
    """Run the sampled check for the declared class; return fn on success."""
    if fn.fn_class == "K":
        _check_k(fn, unbounded=False)
    elif fn.fn_class == "Kinf":
        _check_k(fn, unbounded=True)
    elif fn.fn_class == "L":
        _check_l(fn)
    return fn


def declare(fn: ScalarFn, fn_class: str) -> ScalarFn:
    """Re-tag a node with a stronger class, subject to the sampled check.

    The structural closure rules are conservative (e.g. Kinf + bounded
    increasing is tagged merely "increasing"); this upgrades the tag when
    dense sampling supports it.
    """
    return check_class(ScalarFn(fn.kind, fn_class, fn.children, fn.param, fn.knots, fn.values))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def identity() -> ScalarFn:
    return ScalarFn("identity", "Kinf")


def scale(a: float) -> ScalarFn:
    """r -> a * r, a > 0."""
    if a <= 0:
        raise DomainError("scale factor must be positive")
    return ScalarFn("scale", "Kinf", param=float(a))


def power(p: float) -> ScalarFn:
    """r -> r ** p, p > 0."""
    if p <= 0:
        raise DomainError("exponent must be positive")
    return ScalarFn("power", "Kinf", param=float(p))


def constant(c: float) -> ScalarFn:
    if c < 0:
        raise DomainError("constants must be nonnegative")
    return ScalarFn("constant", "zero" if c == 0.0 else "constant", param=float(c))


def zero() -> ScalarFn:
    return constant(0.0)


def sat() -> ScalarFn:
    """Saturation min{r, 1}: increasing and bounded, not class K-strict."""
    return ScalarFn("sat", "increasing")


def exp_decay() -> ScalarFn:
    """r -> exp(-r), the canonical class-L profile."""
    return ScalarFn("exp_decay", "L")


def pwl(knots, values, fn_class: str | None = None) -> ScalarFn:
    """Piecewise-linear table, linear interpolation between knots.

    Beyond the last knot the last segment's slope continues; before the first
    knot the first value extends as a constant.  Strictly increasing knots
    are required.  The class is inferred from the table unless given.
    """
    kn = tuple(float(k) for k in knots)
    vals = tuple(float(v) for v in values)
    if len(kn) != len(vals) or len(kn) < 1:
        raise DomainError("pwl needs equally many knots and values, at least one")
    if any(b <= a for a, b in zip(kn, kn[1:])):
        raise DomainError("pwl knots must be strictly increasing")
    if any(v < 0 for v in vals):
        raise DomainError("pwl values must be nonnegative")
    if fn_class is None:
        if len(vals) >= 2 and all(b > a for a, b in zip(vals, vals[1:])):
            # the last-slope extension keeps strictly increasing tables unbounded
            fn_class = "Kinf" if (kn[0] == 0.0 and vals[0] == 0.0) else "increasing"
        elif all(b >= a for a, b in zip(vals, vals[1:])):
            fn_class = "increasing"
        else:
            fn_class = "generic"
    node = ScalarFn("pwl", fn_class, knots=kn, values=vals)
    return check_class(node)


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def _merged_class(f: ScalarFn, g: ScalarFn, what: str) -> str:
    """The class of ``what`` ("add", "take max of" or "take min of") on two
    nonzero operands.  Two K operands stay K, and Kinf when one operand is
    (both, for a min); increasing operands and constants stay increasing;
    nonincreasing ones stay decreasing, L when both are L."""
    a, b = f.fn_class, g.fn_class
    pair = {a, b}
    if pair <= {"K", "Kinf"}:
        unbounded = pair == {"Kinf"} if what == "take min of" else "Kinf" in pair
        return "Kinf" if unbounded else "K"
    if pair <= {"K", "Kinf", "increasing", "constant"} and pair != {"constant"}:
        return "increasing"
    if pair <= {"L", "decreasing", "constant"}:
        return "L" if pair == {"L"} else "decreasing"
    raise ClassError(f"cannot {what} classes {a} and {b}")


def add(f: ScalarFn, g: ScalarFn) -> ScalarFn:
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    return ScalarFn("add", _merged_class(f, g, "add"), children=(f, g))


def fmax(f: ScalarFn, g: ScalarFn) -> ScalarFn:
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    return ScalarFn("max", _merged_class(f, g, "take max of"), children=(f, g))


def fmin(f: ScalarFn, g: ScalarFn) -> ScalarFn:
    if f.is_zero or g.is_zero:
        return zero()
    return ScalarFn("min", _merged_class(f, g, "take min of"), children=(f, g))


def compose(f: ScalarFn, g: ScalarFn) -> ScalarFn:
    """f after g, i.e. r -> f(g(r))."""
    if g.kind == "identity":
        return f
    if f.kind == "identity":
        return g
    if g.is_zero:
        return constant(float(f(0.0)))
    if g.fn_class in _INCREASING_LIKE:
        if f.fn_class in _ZERO_AT_ZERO:
            both_inf = f.fn_class == "Kinf" and g.fn_class == "Kinf"
            cls = "Kinf" if both_inf else ("zero" if f.fn_class == "zero" else "K")
        elif f.fn_class in ("L", "decreasing"):
            cls = f.fn_class
        else:
            cls = "increasing"
    elif g.fn_class in ("L", "decreasing"):
        if f.fn_class in _ZERO_AT_ZERO:
            # K after L: decreasing, limit f(limit g)
            cls = "L" if (g.fn_class == "L" and f.fn_class != "zero") else "decreasing"
        else:
            raise ClassError(f"cannot compose {f.fn_class} with inner {g.fn_class}")
    else:
        raise ClassError(f"cannot compose with inner class {g.fn_class}")
    return ScalarFn("compose", cls, children=(f, g))


def scale_arg(f: ScalarFn, a: float) -> ScalarFn:
    """r -> f(a * r)."""
    return compose(f, scale(a))


def scale_val(f: ScalarFn, a: float) -> ScalarFn:
    """r -> a * f(r)."""
    return compose(scale(a), f)


def combine(op: str, f: ScalarFn, g) -> ScalarFn:
    """Named combination entry point: compose, add, max, scale-arg, scale-val."""
    if op == "compose":
        return compose(f, g)
    if op == "add":
        return add(f, g)
    if op == "max":
        return fmax(f, g)
    if op in ("scale-arg", "scale-val"):
        factor = g.param if isinstance(g, ScalarFn) else float(g)
        return scale_arg(f, factor) if op == "scale-arg" else scale_val(f, factor)
    raise ValueError(f"unknown combination {op!r}")


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def invert(f: ScalarFn, v: float) -> float:
    """Solve f(r) = v for a Kinf function f.

    Closed forms are inverted exactly; otherwise an expanding-bracket
    bisection is used down to relative tolerance 1e-10.
    """
    if f.fn_class != "Kinf":
        raise ClassError(f"inversion requires class Kinf, got {f.fn_class}")
    if v < 0:
        raise DomainError("can only invert at nonnegative values")
    if v == 0.0:
        return 0.0
    if f.kind == "identity":
        return float(v)
    if f.kind == "scale":
        return float(v) / f.param
    if f.kind == "power":
        return float(v) ** (1.0 / f.param)
    if f.kind == "pwl":
        kn, vals = f._kn, f._vals
        if v <= vals[-1]:
            return float(np.interp(v, vals, kn))
        last_slope = (vals[-1] - vals[-2]) / (kn[-1] - kn[-2])
        return float(kn[-1] + (v - vals[-1]) / last_slope)
    if f.kind == "compose":
        outer, inner = f.children
        if outer.fn_class == "Kinf" and inner.fn_class == "Kinf":
            return invert(inner, invert(outer, v))
    lo, hi = 0.0, 1.0
    with np.errstate(over="ignore"):
        for _ in range(2000):
            if float(f(hi)) >= v:
                break
            hi *= 2.0
        else:
            raise ClassError("no finite bracket found; function not unbounded?")
        for _ in range(200):
            if hi - lo <= 1e-10 * max(hi, 1e-300):
                break
            mid = 0.5 * (lo + hi)
            if float(f(mid)) < v:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# envelope fitting
# ---------------------------------------------------------------------------

def fit_monotone_envelope(
    samples,
    force_zero_at_zero: bool = False,
) -> ScalarFn:
    """Smallest nondecreasing piecewise-linear dominator of (r, value) samples,
    given as pairs or as an (N, 2) array.

    The envelope is the running maximum over increasing abscissae, then made
    strictly increasing by adding ``EPS_SLOPE * r``.  With
    ``force_zero_at_zero`` the result is pinned to f(0) = 0, which requires
    all samples at r <= 1e-9 to sit at or below 1e-9 and no negative values.
    """
    pts = np.array(samples if isinstance(samples, np.ndarray) else list(samples),
                   dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise FitError("need at least two samples to fit an envelope")
    r, v = pts[:, 0], pts[:, 1]
    if np.any(r < 0):
        raise DomainError("sample abscissae must be nonnegative")
    if force_zero_at_zero:
        if np.any(v < 0):
            raise FitError("negative sample values cannot be dominated from zero")
        if np.any((r <= 1e-9) & (v > 1e-9)):
            raise FitError("samples at r = 0 exceed tolerance; cannot force f(0) = 0")
    # collapse duplicate abscissae to their max: sorted by (r, v), a run of
    # equal r keeps its first abscissa (0.0 or -0.0) and its last value
    order = np.lexsort((v, r))
    r, v = r[order], v[order]
    new = np.flatnonzero(np.append(True, r[1:] != r[:-1]))
    rs = r[new]
    grouped = v[np.append(new[1:], len(r)) - 1]
    # running max that, on a tie, keeps the value it had (the sign of a zero)
    top = np.maximum.accumulate(grouped)
    rises = np.append(True, top[1:] > top[:-1])
    env = grouped[np.maximum.accumulate(np.where(rises, np.arange(len(top)), 0))]
    if force_zero_at_zero:
        if rs[0] > 0.0:
            rs, env = np.append(0.0, rs), np.append(0.0, env)
        else:
            env[0] = 0.0
    rs, env = rs.tolist(), np.where(0.0 > env, 0.0, env).tolist()  # a -0.0 stays
    if len(rs) == 1:
        rs = [rs[0], rs[0] + 1.0]
        env = [env[0], env[0]]
    elif not math.isfinite((env[-1] - env[-2]) / (rs[-1] - rs[-2])):
        # a subnormal last gap overflows the slope the table extends with;
        # a flat last segment keeps it finite (EPS_SLOPE keeps it increasing)
        rs.append(rs[-1] + 1.0)
        env.append(env[-1])
    table = ScalarFn("pwl", "increasing", knots=tuple(rs), values=tuple(env))
    out = add(table, scale(EPS_SLOPE))
    cls = "Kinf" if (force_zero_at_zero and rs[0] == 0.0 and env[0] == 0.0) else "increasing"
    out = ScalarFn(out.kind, cls, children=out.children)
    return check_class(out)


# ---------------------------------------------------------------------------
# KL candidates
# ---------------------------------------------------------------------------

def snap_up(grid: np.ndarray, x):
    """The ball-axis cell rule shared by tables and knot-row profiles: the
    index of the first grid point at or above x - 1e-12, whose entry covers
    the whole ball below it; ``len(grid)`` when x lies beyond the grid.
    Elementwise on an array of queries."""
    return grid.searchsorted(x - 1e-12, side="left")


@dataclass(frozen=True)
class KnotSequence:
    """One knot row: strictly increasing times tau_0 = 0 < tau_1 < ..., plus
    a Kinf amplitude profile eps0; the constructions put at tau_n the time
    by which the level e**-n eps0(r) is reached."""

    taus: tuple
    eps0: ScalarFn

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if len(taus) < 2:
            raise DomainError("need at least two knots")
        if taus[0] != 0.0:
            raise DomainError("the first knot must be 0")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise DomainError("knots must be strictly increasing")
        if self.eps0.fn_class != "Kinf":
            raise ClassError("amplitude profile must be class Kinf")


@dataclass(frozen=True)
class KLFn:
    """Expression-tree node for a two-argument decay candidate beta(r, t)."""

    kind: str
    children: tuple = ()          # KLFn children
    fns: tuple = ()               # ScalarFn children, role fixed by kind
    r_grid: tuple = ()
    knot_rows: tuple = ()
    param: float | None = None    # time-scale factor; e for a profile

    def __call__(self, r, t):
        scalar_in = np.isscalar(r) and np.isscalar(t)
        r_arr = _as_nonneg(r)
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise DomainError("time argument must be nonnegative")
        r_arr, t_arr = np.broadcast_arrays(r_arr, t_arr)
        return _ret(self._eval(r_arr, t_arr), scalar_in)

    def _eval(self, r, t):
        k = self.kind
        if k == "kl_separable":
            return self.fns[0]._eval(r) * self.fns[1]._eval(t)
        if k == "kl_min":
            return np.minimum(self.children[0]._eval(r, t), self.children[1]._eval(r, t))
        if k == "kl_max":
            return np.maximum(self.children[0]._eval(r, t), self.children[1]._eval(r, t))
        if k == "kl_sum":
            return self.children[0]._eval(r, t) + self.children[1]._eval(r, t)
        if k == "kl_outer":
            return self.fns[0]._eval(self.children[0]._eval(r, t))
        if k == "kl_inner":
            return self.children[0]._eval(self.fns[0]._eval(r), t)
        if k == "kl_time_scale":
            return self.children[0]._eval(r, self.param * t)
        if k == "kl_grid_pw_exp":
            return self._eval_grid_pw(r, t)
        raise ValueError(f"unknown KL node kind {k!r}")

    def _eval_grid_pw(self, r, t):
        grid = np.asarray(self.r_grid)
        r, t = np.broadcast_arrays(r, t)
        cell = snap_up(grid, r)
        if np.any(cell >= len(grid)):
            raise TableGapError(
                f"radius {np.max(r):g} beyond certified grid end {grid[-1]:g}"
            )
        out = np.empty(r.shape)
        for i in np.unique(cell):  # one knot row per radius cell
            mask = cell == i
            knots, tm = np.asarray(self.knot_rows[i]), t[mask]
            idx = np.clip(np.searchsorted(knots, tm, side="right") - 1, 0, len(knots) - 2)
            expo = -(idx - 1.0) - (tm - knots[idx]) / (knots[idx + 1] - knots[idx])
            out[mask] = math.e ** expo * self.fns[0]._eval(r[mask])
        return out

    def to_dict(self) -> dict:
        return fn_to_dict(self)


def kl_at_zero(beta: KLFn) -> ScalarFn:
    """The radial slice beta(., 0) as a scalar function, built structurally."""
    k, kids = beta.kind, beta.children
    if k == "kl_separable":
        lam0 = float(beta.fns[1](0.0))
        return zero() if lam0 == 0.0 else scale_val(beta.fns[0], lam0)
    if k == "kl_grid_pw_exp":
        return scale_val(beta.fns[0], math.e)  # e**(0-(-1)) at t = 0
    if k in ("kl_min", "kl_max", "kl_sum"):
        merge = {"kl_min": fmin, "kl_max": fmax, "kl_sum": add}[k]
        return merge(kl_at_zero(kids[0]), kl_at_zero(kids[1]))
    if k == "kl_outer":
        return compose(beta.fns[0], kl_at_zero(kids[0]))
    if k == "kl_inner":
        return compose(kl_at_zero(kids[0]), beta.fns[0])
    if k == "kl_time_scale":
        return kl_at_zero(kids[0])
    raise DomainError(f"no zero-slice rule for KL node {k!r}")


def _kl_radius_cap(beta: KLFn) -> float:
    """Largest radius the tree answers: a profile's last grid radius, pulled
    back through inner radius maps; inf for a tree without a profile."""
    if beta.kind == "kl_grid_pw_exp":
        return beta.r_grid[-1]
    if beta.kind == "kl_inner":
        cap = _kl_radius_cap(beta.children[0])
        return cap if math.isinf(cap) else _monotone_cap_solve(beta.fns[0], cap)
    return min((_kl_radius_cap(c) for c in beta.children), default=math.inf)


def _monotone_cap_solve(g: ScalarFn, cap: float) -> float:
    """Largest r with g(r) <= cap for a monotone map g (bisection)."""
    if float(g(0.0)) > cap:
        return 0.0
    hi = 1.0
    for _ in range(200):
        if float(g(hi)) > cap:
            break
        hi *= 2.0
        if hi > 1e30:
            return math.inf
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(g(mid)) <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def kl_separable(radial: ScalarFn, temporal: ScalarFn) -> KLFn:
    """beta(r, t) = radial(r) * temporal(t)."""
    return KLFn("kl_separable", fns=(radial, temporal))


def kl_exp() -> KLFn:
    """The closed form r * exp(-t)."""
    return kl_separable(identity(), exp_decay())


def kl_min(a: KLFn, b: KLFn) -> KLFn:
    return KLFn("kl_min", children=(a, b))


def kl_max(a: KLFn, b: KLFn) -> KLFn:
    return KLFn("kl_max", children=(a, b))


def kl_sum(a: KLFn, b: KLFn) -> KLFn:
    return KLFn("kl_sum", children=(a, b))


def kl_outer(g: ScalarFn, beta: KLFn) -> KLFn:
    """(r, t) -> g(beta(r, t))."""
    return KLFn("kl_outer", children=(beta,), fns=(g,))


def kl_inner(beta: KLFn, g: ScalarFn) -> KLFn:
    """(r, t) -> beta(g(r), t)."""
    return KLFn("kl_inner", children=(beta,), fns=(g,))


def kl_time_scale(beta: KLFn, a: float) -> KLFn:
    """(r, t) -> beta(r, a * t)."""
    if a <= 0:
        raise DomainError("time-scale factor must be positive")
    return KLFn("kl_time_scale", children=(beta,), param=float(a))


def build_piecewise_kl(knot_seq: KnotSequence) -> KLFn:
    """The profile of one knot row for every radius:
    ``grid_piecewise_kl((inf,), (knot_seq.taus,), knot_seq.eps0)``."""
    return grid_piecewise_kl((math.inf,), (knot_seq.taus,), knot_seq.eps0)


def grid_piecewise_kl(r_grid, knot_rows, eps0: ScalarFn) -> KLFn:
    """Piecewise-exponential decay with one knot row per grid radius.

    On [tau_n, tau_{n+1}) of a row the value is
    ``e**(-(n-1) - (t - tau_n)/(tau_{n+1} - tau_n)) * eps0(r)``, which is
    continuous at every knot and equals ``e**(-(n-1)) * eps0(r)`` there.
    Beyond the last knot the final segment's rate keeps going, so the
    profile still decays to zero.  ``knot_rows[i]`` is valid for all radii
    up to ``r_grid[i]``: a radius reads its row by the tables' ball-axis
    rule (:func:`snap_up`), which only ever delays the decay and therefore
    keeps any bound built from the rows valid.  Radii beyond the last grid
    point raise ``TableGapError``; a last grid point of inf covers them all.
    The grid radii must be >= 0 and strictly increasing (``DomainError``).
    """
    rg = tuple(float(x) for x in r_grid)
    rows = tuple(tuple(float(t) for t in row) for row in knot_rows)
    if len(rg) != len(rows) or not rg:
        raise DomainError("need one knot row per grid radius")
    if not (rg[0] >= 0.0 and all(a < b for a, b in zip(rg, rg[1:]))):
        raise DomainError(f"grid radii must be >= 0 and strictly increasing, not {rg}")
    for row in rows:
        KnotSequence(row, eps0)  # validates shape
    return KLFn("kl_grid_pw_exp", fns=(eps0,), r_grid=rg, knot_rows=rows, param=math.e)


def kl_eval(beta: KLFn, r, t):
    return beta(r, t)


def check_kl(
    beta: KLFn,
    r_grid=None,
    t_grid=None,
) -> list[str]:
    """Sampled KL marginal checks; returns a list of violation messages.

    For every fixed t the r-marginal must vanish at 0 and strictly increase;
    for every fixed r > 0 the t-marginal must be nonincreasing with a
    vanishing tail.  The default grids are t in ``linspace(0, 50, 24)`` and
    r = 0 plus 24 geometric points from top * 1e-5 up to top = 100, or, for
    a tree that reads a profile, top = 0.999 times its radius cap
    (``_kl_radius_cap``), so the tree answers every sampled radius.  For a
    cap of at least 1e-6 both ends are floored at 1e-6; a cap of 0 answers
    no positive radius and raises ``CertificateError``.
    """
    if r_grid is None:
        cap = _kl_radius_cap(beta)
        if cap == 0.0:
            raise CertificateError("beta answers no positive radius (radius cap 0)")
        floor = 1e-6 if cap >= 1e-6 else 0.0
        top = 100.0 if math.isinf(cap) else max(cap * 0.999, floor)
        r_grid = np.concatenate(([0.0], np.geomspace(max(top * 1e-5, floor), top, 24)))
    if t_grid is None:
        t_grid = np.linspace(0.0, 50.0, 24)
    r_grid = np.asarray(r_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    problems = []
    vals = beta(r_grid[:, None], t_grid[None, :])
    if np.any(np.abs(vals[0]) > 1e-9) and r_grid[0] == 0.0:
        problems.append("r-marginal does not vanish at r = 0")
    diffs_r = np.diff(vals, axis=0)
    if not np.all(diffs_r > 0.0):
        problems.append("r-marginal not strictly increasing at some t")
    diffs_t = np.diff(vals, axis=1)
    if not np.all(diffs_t <= 1e-12):
        problems.append("t-marginal increasing at some r")
    t_tail = float(t_grid[-1]) * _LIMIT_PROBE_FACTOR + 1.0
    tail = beta(r_grid[1:], t_tail)
    head = vals[1:, 0]
    if not np.all(tail <= np.maximum(1e-6 * head, 1e-9)):
        problems.append("t-marginal tail does not vanish")
    return problems


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def fn_to_dict(fn) -> dict:
    if isinstance(fn, ScalarFn):
        d = {"node": "scalar", "kind": fn.kind, "class": fn.fn_class}
        if fn.param is not None:
            d["param"] = fn.param
        if fn.children:
            d["children"] = [fn_to_dict(c) for c in fn.children]
        if fn.knots:
            d["knots"] = list(fn.knots)
        if fn.values:
            d["values"] = list(fn.values)
        return d
    if isinstance(fn, KLFn):
        d = {"node": "kl", "kind": fn.kind}
        if fn.param is not None:
            d["param"] = fn.param
        if fn.children:
            d["children"] = [fn_to_dict(c) for c in fn.children]
        if fn.fns:
            d["fns"] = [fn_to_dict(c) for c in fn.fns]
        if fn.r_grid:
            d["r_grid"] = list(fn.r_grid)
            d["knot_rows"] = [list(row) for row in fn.knot_rows]
        return d
    raise TypeError(f"not a comparison function: {fn!r}")


# leaf nodes rebuilt through their factories, which validate parameters
_SCALAR_LEAVES = {
    "identity": lambda d: identity(),
    "scale": lambda d: scale(d["param"]),
    "power": lambda d: power(d["param"]),
    "constant": lambda d: constant(d["param"]),
    "sat": lambda d: sat(),
    "exp_decay": lambda d: exp_decay(),
    "pwl": lambda d: pwl(d["knots"], d["values"], d["class"]),
}
_SCALAR_COMPOSITES = ("add", "max", "min", "compose")
_KL_COMPOSITES = ("kl_separable", "kl_min", "kl_max", "kl_sum", "kl_outer", "kl_inner",
                  "kl_time_scale")
_CLASSES = ("K", "Kinf", "L", "increasing", "decreasing", "constant", "zero", "generic")


def fn_from_dict(d: dict):
    """Inverse of ``fn_to_dict``.

    Leaf nodes are rebuilt through their factories and re-declared with the
    stored class when it differs, so invalid parameters or a class the
    sampled check refutes raise.  Composite nodes keep their stored class
    unchecked: the structural closure rules tagged them, and some valid
    structural tags do not survive the sampled check.  An unknown node,
    kind or class, or a profile whose decay base is not e, raises
    ``DomainError``.
    """
    node, kind = d.get("node", "scalar"), d.get("kind")
    children = tuple(fn_from_dict(c) for c in d.get("children", ()))
    if node == "scalar" and d.get("class") in _CLASSES:
        if kind in _SCALAR_LEAVES:
            fn = _SCALAR_LEAVES[kind](d)
            return fn if fn.fn_class == d["class"] else declare(fn, d["class"])
        if kind in _SCALAR_COMPOSITES:
            return ScalarFn(kind, d["class"], children, d.get("param"))
    if node == "kl":
        fns = tuple(fn_from_dict(c) for c in d.get("fns", ()))
        if kind == "kl_grid_pw_exp":
            if d.get("param") != math.e:
                raise DomainError(f"a profile decays in base e, not {d.get('param')!r}")
            return grid_piecewise_kl(d["r_grid"], d["knot_rows"], fns[0])
        if kind in _KL_COMPOSITES:
            return KLFn(kind, children, fns, param=d.get("param"))
    raise DomainError(f"unknown comparison-function node {node!r}, kind {kind!r} "
                      f"or class {d.get('class')!r}")
