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
on their own even though enclosing min-expressions are.

All nodes are immutable and hashable, so certificates built from them can be
shared freely between concurrent evaluations.  Evaluation is vectorised over
numpy arrays.  Serialisation uses plain dicts with field names ``kind``,
``class``, ``children``, ``knots``, ``values`` plus scalar parameters, and
round-trips closed forms bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassError, DomainError, FitError, TableGapError

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
    "kl_eval",
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
        kn = np.asarray(self.knots)
        vals = np.asarray(self.values)
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
        kn = np.asarray(f.knots)
        vals = np.asarray(f.values)
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
    """Smallest nondecreasing piecewise-linear dominator of (r, value) samples.

    The envelope is the running maximum over increasing abscissae, then made
    strictly increasing by adding ``EPS_SLOPE * r``.  With
    ``force_zero_at_zero`` the result is pinned to f(0) = 0, which requires
    all samples at r <= 1e-9 to sit at or below 1e-9 and no negative values.
    """
    pts = sorted((float(r), float(v)) for r, v in samples)
    if len(pts) < 2:
        raise FitError("need at least two samples to fit an envelope")
    if any(r < 0 for r, _ in pts):
        raise DomainError("sample abscissae must be nonnegative")
    if force_zero_at_zero:
        if any(v < 0 for _, v in pts):
            raise FitError("negative sample values cannot be dominated from zero")
        if any(r <= 1e-9 and v > 1e-9 for r, v in pts):
            raise FitError("samples at r = 0 exceed tolerance; cannot force f(0) = 0")
    # collapse duplicate abscissae to their max
    grouped: dict[float, float] = {}
    for r, v in pts:
        grouped[r] = max(v, grouped.get(r, -math.inf))
    rs = sorted(grouped)
    env = []
    running = -math.inf
    for r in rs:
        running = max(running, grouped[r])
        env.append(running)
    if force_zero_at_zero:
        if rs[0] > 0.0:
            rs = [0.0] + rs
            env = [0.0] + env
        else:
            env[0] = 0.0
    env = [max(v, 0.0) for v in env]
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

@dataclass(frozen=True)
class KnotSequence:
    """Strictly increasing times starting at 0 plus a Kinf amplitude profile."""

    taus: tuple
    eps0: ScalarFn
    decay_base: float = math.e

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
        if self.decay_base <= 1.0:
            raise DomainError("decay base must exceed 1")


@dataclass(frozen=True)
class KLFn:
    """Expression-tree node for a two-argument decay candidate beta(r, t)."""

    kind: str
    children: tuple = ()          # KLFn children
    fns: tuple = ()               # ScalarFn children, role fixed by kind
    knots: tuple = ()
    r_grid: tuple = ()
    knot_rows: tuple = ()
    param: float | None = None    # time-scale factor / decay base

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
        if k == "kl_pw_exp":
            return self._eval_pw(np.asarray(self.knots), r, t)
        if k == "kl_grid_pw_exp":
            return self._eval_grid_pw(r, t)
        raise ValueError(f"unknown KL node kind {k!r}")

    def _eval_pw(self, knots, r, t):
        base = self.param
        idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
        lo = knots[idx]
        width = knots[idx + 1] - knots[idx]
        expo = -(idx - 1.0) - (t - lo) / width
        return base ** expo * self.fns[0]._eval(r)

    def _eval_grid_pw(self, r, t):
        grid = np.asarray(self.r_grid)
        r, t = np.broadcast_arrays(r, t)
        cell = np.searchsorted(grid, r, side="left")
        if np.any(cell >= len(grid)):
            raise TableGapError(
                f"radius {np.max(r):g} beyond certified grid end {grid[-1]:g}"
            )
        out = np.empty(r.shape)
        for i in np.unique(cell):  # one knot row per radius cell
            mask = cell == i
            out[mask] = self._eval_pw(np.asarray(self.knot_rows[i]), r[mask], t[mask])
        return out

    def to_dict(self) -> dict:
        return fn_to_dict(self)


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
    """Knot-anchored exponential decay profile.

    On [tau_n, tau_{n+1}) the value is
    ``base**(-(n-1) - (t - tau_n)/(tau_{n+1} - tau_n)) * eps0(r)``, which is
    continuous at every knot and equals ``base**(-(n-1)) * eps0(r)`` there.
    Beyond the last knot the final segment's rate keeps going, so the profile
    still decays to zero.
    """
    return KLFn(
        "kl_pw_exp",
        fns=(knot_seq.eps0,),
        knots=knot_seq.taus,
        param=float(knot_seq.decay_base),
    )


def grid_piecewise_kl(r_grid, knot_rows, eps0: ScalarFn, base: float = math.e) -> KLFn:
    """Piecewise-exponential decay with radius-dependent knot sequences.

    ``knot_rows[i]`` is the knot sequence valid for all radii up to
    ``r_grid[i]``; evaluation snaps the radius argument up to the next grid
    point, which only ever delays the decay and therefore keeps any bound
    built from the rows valid.  Queries beyond the last grid radius raise
    ``TableGapError``.
    """
    rg = tuple(float(x) for x in r_grid)
    rows = tuple(tuple(float(t) for t in row) for row in knot_rows)
    if len(rg) != len(rows) or not rg:
        raise DomainError("need one knot row per grid radius")
    for row in rows:
        KnotSequence(row, eps0, base)  # validates shape
    return KLFn("kl_grid_pw_exp", fns=(eps0,), r_grid=rg, knot_rows=rows, param=float(base))


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
    vanishing tail.
    """
    if r_grid is None:
        r_grid = np.concatenate(([0.0], np.logspace(-3, 2, 24)))
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
        if fn.knots:
            d["knots"] = list(fn.knots)
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
_KL_LEAVES = {
    "kl_pw_exp": lambda d, fns: build_piecewise_kl(
        KnotSequence(tuple(d["knots"]), fns[0], d["param"])),
    "kl_grid_pw_exp": lambda d, fns: grid_piecewise_kl(d["r_grid"], d["knot_rows"], fns[0],
                                                       d["param"]),
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
    kind or class raises ``DomainError``.
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
        if kind in _KL_LEAVES:
            return _KL_LEAVES[kind](d, fns)
        if kind in _KL_COMPOSITES:
            return KLFn(kind, children, fns, param=d.get("param"))
    raise DomainError(f"unknown comparison-function node {node!r}, kind {kind!r} "
                      f"or class {d.get('class')!r}")
