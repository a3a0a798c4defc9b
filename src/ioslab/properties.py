"""Machine-checkable encodings of the stability and attractivity notions.

Every notion is checked against a *certificate*, a concrete parameter bundle
(comparison functions, decay profiles, convergence-time or continuity
tables, constants) claimed to witness the defining inequality.  Checking is
sampled: a plan expands into a deterministic family of probes (initial
states on radius shells times seeded directions, inputs from a documented
family with constants first), each probe is simulated once, and the
defining inequality is evaluated with its quantifier structure respected.
``_CHECKERS`` is the single table that maps a property to its quantifier:
the probe source its samples come from and the checker that reduces them,
shared by ``verify`` (over the whole source) and ``falsify`` (one probe at a
time).  The quantifier patterns are:

  pointwise notions   bound must hold at every grid time
                      (IOS, ISS, IOpS, OCAG, OL family, OUGS family, IOSS,
                      output-map bounds)
  window notions      sup of |y| over the certificate's horizon must stay
                      below its constant (reachability bounds BORS, OBORS)
  convergence notions bound must hold at every grid time at or beyond the
                      certificate's tabulated time (OUAG, OGUAG)
  visit notions       bound must hold at SOME grid time at or before the
                      tabulated time (OLIM, OULIM, OGULIM, OOULIM)
  continuity tables   outputs from the tabulated ball must stay below the
                      row's level over the row's horizon (OCEP, table OULS)

The window notions and the continuity tables share one rule: a trajectory
that blows up inside the window is an unbounded sample there.

Across quantifiers the notions differ on two axes, each decided by one set:
``_BY_OUTPUT`` holds the notions whose bound or table radius reads the
initial output |y(0)| instead of |x0| (OL, local OL, OOUGB, OOULIM), and
``_OF_STATE`` the notions that bound the state norm |x| instead of |y|
(ISS, IOSS).

Probes come from the plan or from shells: the (r, s) balls that the
tables (tau, delta and reachability) and the shell-sourced checks (OOULIM,
the continuity tables) read.  ``ProbeSet.shells`` is the one shell request:
each consumer asks it once for all its cells, and the misses run as one
kernel call.

Verdicts are three-valued.  "certified" never asserts the mathematical
truth of a universally quantified statement; it records that no sampled
violation beat the margin, together with the sample count and the worst
slack.  "falsified" always carries a replayable witness.  Anything else is
"inconclusive" with a reason.

Input-global notions (OGUAG, OGULIM) are only exercised up to the plan's
largest input norm; their verdicts carry an explicit "up to s_max" note,
because the distinction from their input-ball-uniform counterparts lives at
unbounded input norms.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from . import comparison as cf
from .comparison import KLFn, ScalarFn
from .errors import (
    BlowUpError,
    CertificateError,
    DomainError,
    EstimationError,
    TableGapError,
)
from .signals import InputSignal
from .systems import SimPlan, SystemModel, Trajectory, simulate, simulate_batch

__all__ = [
    "PropertyId",
    "Certificate",
    "SamplingPlan",
    "Verdict",
    "Witness",
    "ConvergenceTimeTable",
    "DeltaTable",
    "ReachabilityBound",
    "ProbeSet",
    "verify",
    "falsify",
    "estimate_gain",
    "estimate_tau",
    "first_crossing_time",
    "build_reachability_bound",
    "plan_hash",
]


class PropertyId(str, Enum):
    FC = "FC"
    OCEP = "OCEP"
    BORS = "BORS"
    OBORS = "OBORS"
    H_BOUNDED = "H_BOUNDED"
    H_K_BOUNDED = "H_K_BOUNDED"
    IOS = "IOS"
    ISS = "ISS"
    IOPS = "IOPS"
    OL = "OL"
    LOCAL_OL = "LOCAL_OL"
    OULS = "OULS"
    OUGS = "OUGS"
    OUGB = "OUGB"
    OOUGB = "OOUGB"
    OAG = "OAG"
    OUAG = "OUAG"
    OGUAG = "OGUAG"
    OCAG = "OCAG"
    OLIM = "OLIM"
    OULIM = "OULIM"
    OGULIM = "OGULIM"
    OOULIM = "OOULIM"
    IOSS = "IOSS"


# notions whose bound (or table radius) measures the initial condition by
# the initial output |y(0)|; every other notion measures it by |x0|
_BY_OUTPUT = frozenset({PropertyId.OL, PropertyId.LOCAL_OL, PropertyId.OOUGB,
                        PropertyId.OOULIM})
# notions that bound the state norm |x|; every other notion bounds |y|
_OF_STATE = frozenset({PropertyId.ISS, PropertyId.IOSS})


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

_BALL, _LEVEL = "ball", "level"


class _GridTable:
    """A frozen table of monotone data over ball and level axes, with one
    lookup rule.  A ball axis (r, s, a horizon) snaps a query up to the next
    grid point, whose entry covers the whole ball below it; a level axis
    (eps) snaps down to the next tighter level, whose claim implies the
    queried one.  Raw values are rectified on construction so that each
    cell holds the worse (``_worse``) of itself and every cell it answers
    for.  Queries beyond the grids and non-finite cells raise
    ``TableGapError``: constructions built from a table are only valid
    inside the certified region.

    A subclass declares ``_axes``, its (grid field, ``_BALL`` or ``_LEVEL``)
    pairs in value order, and ``_worse``.  A grid may be None: a lookup
    then ignores that axis's coordinate.  Equality, hash and dict round
    trip are read off the dataclass fields: arrays compare with
    ``np.array_equal`` and hash by their bytes, grids serialise as lists
    (or None), and a field missing from a dict takes its default.
    """

    def __post_init__(self):
        present = [(k, field, kind) for k, (field, kind) in enumerate(self._axes)
                   if getattr(self, field) is not None]
        vals = np.array(self.values, dtype=float)
        expected = tuple(len(getattr(self, field)) for _, field, _ in present)
        if vals.shape != expected:
            raise DomainError(f"table shape {vals.shape} does not match grids {expected}")
        lookup = []
        for axis, (k, field, kind) in enumerate(present):
            # rectify toward the worse neighbour: from small grid values to
            # large on a ball axis, from large to small on a level axis
            if kind == _BALL:
                vals = self._worse.accumulate(vals, axis=axis)
            else:
                vals = np.flip(self._worse.accumulate(np.flip(vals, axis), axis=axis), axis)
            grid = tuple(float(x) for x in getattr(self, field))
            object.__setattr__(self, field, grid)
            lookup.append((k, kind == _BALL, np.array(grid), field.removesuffix("_grid")))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # kept outside the dataclass fields: equality, hash and dicts skip it
        object.__setattr__(self, "_lookup_axes", tuple(lookup))

    def _lookup(self, *coords) -> float:
        """The rectified cell a query reads: one coordinate per declared axis."""
        idx = []
        for k, ball, grid, name in self._lookup_axes:
            x = coords[k]
            if x is None:
                names = ", ".join(axis[3] for axis in self._lookup_axes)
                raise DomainError(f"this table is indexed by ({names})")
            if ball:
                i = int(grid.searchsorted(x - 1e-12, side="left"))
            else:
                i = int(grid.searchsorted(x + 1e-12, side="right")) - 1
            if not 0 <= i < len(grid):
                raise TableGapError(f"{name} query {x:g} " + (
                    f"beyond table axis end {grid[-1]:g}" if ball
                    else f"below table axis start {grid[0]:g}"))
            idx.append(i)
        idx = tuple(idx)
        v = float(self.values[idx])
        if not math.isfinite(v):
            raise TableGapError(f"table cell {idx} is unavailable (inconclusive fit)")
        return v

    def _items(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        return isinstance(other, type(self)) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._items(), other._items())
        )

    def __hash__(self):
        return hash(tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                          for v in self._items()))

    def to_dict(self) -> dict:
        return {f.name: v.tolist() if isinstance(v, np.ndarray)
                else list(v) if isinstance(v, tuple) else v
                for f, v in zip(fields(self), self._items())}

    @classmethod
    def from_dict(cls, d: dict):
        kwargs = {}
        for f in fields(cls):
            if f.name in d or f.default is MISSING:
                v = d[f.name]
                kwargs[f.name] = tuple(v) if isinstance(v, list) else v
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class ConvergenceTimeTable(_GridTable):
    """Tabulated convergence/visit times over (eps, r[, s]) grids: eps is a
    level axis, r and s are ball axes, and the worse time is the larger.
    ``mode`` tags whether the time bounds hold for all later times ("uag")
    or promise a visit no later than the entry ("lim").
    """

    eps_grid: tuple
    r_grid: tuple
    s_grid: Optional[tuple]
    values: np.ndarray
    mode: str = "uag"

    _axes = (("eps_grid", _LEVEL), ("r_grid", _BALL), ("s_grid", _BALL))
    _worse = np.maximum

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("uag", "lim"):
            raise DomainError("table mode must be 'uag' or 'lim'")

    def eval(self, eps: float, r: float, s: float | None = None) -> float:
        return self._lookup(eps, r, s)


@dataclass(frozen=True, eq=False)
class DeltaTable(_GridTable):
    """Continuity table: delta levels per (eps[, tau]) row.  eps is a level
    axis, the horizon tau a ball axis, and the worse delta is the smaller.
    Used for the continuity-at-equilibrium property (with a tau axis) and
    for the table flavour of uniform local stability (without one).
    """

    eps_grid: tuple
    tau_grid: Optional[tuple]
    values: np.ndarray

    _axes = (("eps_grid", _LEVEL), ("tau_grid", _BALL))
    _worse = np.minimum

    def rows(self):
        taus = self.tau_grid if self.tau_grid is not None else (None,)
        vals = self.values.reshape(len(self.eps_grid), len(taus))
        for i, eps in enumerate(self.eps_grid):
            for j, tau in enumerate(taus):
                yield eps, tau, float(vals[i, j])

    def eval(self, eps: float, tau: float | None = None) -> float:
        return self._lookup(eps, tau)


@dataclass(frozen=True, eq=False)
class ReachabilityBound(_GridTable):
    """Empirical sup-output table over (r, s, t): three ball axes, and the
    worse bound is the larger.

    ``over_initial_output`` switches the first axis from initial-state norm
    shells to initial-output norm shells.  Unbounded cells (blow-ups) are
    +inf and poison any lookup touching them.
    """

    r_grid: tuple
    s_grid: tuple
    t_grid: tuple
    values: np.ndarray
    over_initial_output: bool = False

    _axes = (("r_grid", _BALL), ("s_grid", _BALL), ("t_grid", _BALL))
    _worse = np.maximum

    def eval(self, r: float, s: float, t: float) -> float:
        try:
            return self._lookup(r, s, t)
        except TableGapError as exc:
            raise TableGapError(f"bound table cell ({r:g}, {s:g}, {t:g}): {exc}") from None

    def growth_diagnostic(self) -> dict:
        """Does sup |y| appear to diverge in r at the final horizon?"""
        last = self.values[:, -1, -1]
        finite = np.isfinite(last)
        diverges = bool(np.any(~finite))
        ratio = None
        if np.all(finite) and last[0] > 0:
            ratio = float(last[-1] / max(last[0], 1e-300))
        return {"diverging_cells": int(np.sum(~finite)), "top_over_bottom": ratio,
                "suspected_unbounded": diverges or (ratio is not None and ratio > 1e3)}


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _is_gain(fn) -> bool:
    return isinstance(fn, ScalarFn) and (fn.fn_class == "Kinf" or fn.is_zero)


def _is_k(fn) -> bool:
    return isinstance(fn, ScalarFn) and fn.fn_class in ("K", "Kinf")


def _is_k_or_zero(fn) -> bool:
    return _is_k(fn) or (isinstance(fn, ScalarFn) and fn.is_zero)


_PARAM_CHECKS = {
    "gain": (_is_gain, "class Kinf (or the zero stand-in)"),
    "k": (_is_k_or_zero, "class K"),
    "kl": (lambda v: isinstance(v, KLFn), "a KL candidate"),
    "const": (lambda v: isinstance(v, (int, float)) and v >= 0, "a nonnegative number"),
    "pos": (lambda v: isinstance(v, (int, float)) and v > 0, "a positive number"),
    "tau_table": (lambda v: isinstance(v, ConvergenceTimeTable), "a convergence-time table"),
    "tau_table_r": (lambda v: isinstance(v, ConvergenceTimeTable) and v.s_grid is None,
                    "a convergence-time table over (eps, r)"),
    "delta_table": (lambda v: isinstance(v, DeltaTable), "a delta table"),
}

# the tables a certificate can hold, by their kind tag in a certificate dict
_TABLE_KINDS = {"tau": ConvergenceTimeTable, "delta": DeltaTable}

# property -> its parameter types; a type ending in "?" marks an optional
# parameter.  OULS has a function form and a table form: a certificate takes
# the first form whose required parameters it gives (else the first form),
# so a parameter of the other form is unexpected.
_SCHEMAS: dict[PropertyId, dict | tuple] = {
    PropertyId.IOS: {"beta": "kl", "gamma": "gain"},
    PropertyId.ISS: {"beta": "kl", "gamma": "gain"},
    PropertyId.IOPS: {"beta": "kl", "gamma": "gain", "c": "const"},
    PropertyId.OCAG: {"beta": "kl", "gamma": "gain", "c": "const"},
    PropertyId.OL: {"sigma": "gain", "gamma": "gain"},
    PropertyId.LOCAL_OL: {"sigma": "gain", "gamma": "gain", "radius": "pos"},
    PropertyId.OUGS: {"sigma": "gain", "gamma": "gain"},
    PropertyId.OUGB: {"sigma": "gain", "gamma": "gain", "c": "const"},
    PropertyId.OOUGB: {"sigma": "gain", "gamma": "gain", "c": "const"},
    PropertyId.H_BOUNDED: {"sigma1": "k", "gamma1": "k", "c": "const"},
    PropertyId.H_K_BOUNDED: {"sigma1": "k", "gamma1": "k"},
    PropertyId.BORS: {"radius": "pos", "horizon": "pos", "bound": "const"},
    PropertyId.OBORS: {"radius": "pos", "horizon": "pos", "bound": "const"},
    PropertyId.OULS: ({"sigma": "gain", "gamma": "gain", "radius": "pos"},
                      {"delta_table": "delta_table"}),
    PropertyId.OUAG: {"gamma": "gain", "tau_table": "tau_table"},
    PropertyId.OGUAG: {"gamma": "gain", "tau_table": "tau_table_r", "s_max": "pos?"},
    PropertyId.OLIM: {"gamma": "gain"},
    PropertyId.OAG: {"gamma": "gain"},
    PropertyId.OULIM: {"gamma": "gain", "tau_table": "tau_table"},
    PropertyId.OGULIM: {"gamma": "gain", "tau_table": "tau_table_r"},
    PropertyId.OOULIM: {"gamma": "gain", "tau_table": "tau_table"},
    PropertyId.IOSS: {"beta": "kl", "gamma1": "k", "gamma2": "k"},
    PropertyId.OCEP: {"delta_table": "delta_table"},
}


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


def _kl_radius_cap(beta: KLFn) -> float:
    """Largest safely evaluable radius, pushed through inner radius maps."""
    k = beta.kind
    if k == "kl_grid_pw_exp":
        return beta.r_grid[-1]
    if k == "kl_inner":
        inner_cap = _kl_radius_cap(beta.children[0])
        if math.isinf(inner_cap):
            return math.inf
        return _monotone_cap_solve(beta.fns[0], inner_cap)
    if k in ("kl_min", "kl_max", "kl_sum"):
        return min(_kl_radius_cap(c) for c in beta.children)
    if beta.children:
        return _kl_radius_cap(beta.children[0])
    return math.inf


def _kl_check_grids(beta: KLFn):
    """Class-check grids for a KL tree, respecting table-backed radius caps."""
    cap = _kl_radius_cap(beta)
    top = 100.0 if math.isinf(cap) else max(cap * 0.999, 1e-6)
    r_grid = np.concatenate(([0.0], np.geomspace(max(top * 1e-5, 1e-6), top, 24)))
    return r_grid, np.linspace(0.0, 50.0, 24)


@dataclass(frozen=True)
class Certificate:
    """Property tag plus the parameter bundle its definition demands.

    Scalar parameters are validated against the class the definition asks
    for; decay candidates run the sampled KL marginal checks on
    construction.  The zero function is accepted wherever a gain is
    demanded: a zero gain only strengthens the claimed bound.
    """

    property: PropertyId
    params: dict

    def __post_init__(self):
        if self.property == PropertyId.FC:
            raise CertificateError("forward completeness has no bound-form certificate")
        forms = _SCHEMAS[self.property]
        forms = forms if isinstance(forms, tuple) else (forms,)
        schema = next((form for form in forms
                       if all(name in self.params for name, typ in form.items()
                              if not typ.endswith("?"))), forms[0])
        unknown = set(self.params) - set(schema)
        if unknown:
            raise CertificateError(
                f"{self.property.value}: unexpected parameters {sorted(unknown)}"
            )
        for name, typ in schema.items():
            if name in self.params:
                pred, desc = _PARAM_CHECKS[typ.rstrip("?")]
                if not pred(self.params[name]):
                    raise CertificateError(
                        f"{self.property.value}: parameter {name!r} must be {desc}")
            elif not typ.endswith("?"):
                raise CertificateError(f"{self.property.value}: missing parameter {name!r}")
        for name, value in self.params.items():
            if isinstance(value, KLFn):
                r_grid, t_grid = _kl_check_grids(value)
                problems = cf.check_kl(value, r_grid, t_grid)
                if problems:
                    raise CertificateError(
                        f"{self.property.value}: parameter {name!r} fails KL checks: "
                        + "; ".join(problems)
                    )

    def __getitem__(self, name: str):
        return self.params[name]

    def get(self, name: str, default=None):
        return self.params.get(name, default)

    def to_dict(self) -> dict:
        out = {"schema": 1, "property": self.property.value, "params": {}}
        for name, value in self.params.items():
            kind = next((k for k, cls in _TABLE_KINDS.items() if isinstance(value, cls)), None)
            if isinstance(value, (ScalarFn, KLFn)):
                out["params"][name] = cf.fn_to_dict(value)
            elif kind is not None:
                out["params"][name] = {"table": kind, **value.to_dict()}
            else:
                out["params"][name] = value
        return out

    @staticmethod
    def from_dict(d: dict) -> "Certificate":
        prop = PropertyId(d["property"])
        params = {}
        for name, value in d["params"].items():
            if isinstance(value, dict) and "table" in value:
                if value["table"] not in _TABLE_KINDS:
                    raise DomainError(f"unknown table kind {value['table']!r}")
                params[name] = _TABLE_KINDS[value["table"]].from_dict(value)
            elif isinstance(value, dict) and "kind" in value:
                params[name] = cf.fn_from_dict(value)
            else:
                params[name] = value
        return Certificate(prop, params)


# ---------------------------------------------------------------------------
# sampling plans and probes
# ---------------------------------------------------------------------------

def _directions(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """Signed axis directions first, then seeded random unit vectors."""
    dirs: list[np.ndarray] = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dirs.append(e.copy())
        e[i] = -1.0
        dirs.append(e.copy())
    rng = np.random.default_rng(seed)
    while len(dirs) < count:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
        if n > 1e-9:
            dirs.append(v / n)
    return dirs[:count]


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic probe-family description.

    ``radii`` are the initial-state norm shells, ``input_norms`` the input
    sup-norm ladder (the zero input is always probed first), ``eps_grid``
    the levels used by convergence/visit/continuity checks.  Each input
    norm s is probed by one fixed family: the constant s, a step of height
    s switched off at half the horizon, and a 4-piece piecewise-constant
    input of sup norm s drawn from the seed.  A fixed seed
    makes the expansion fully deterministic; checks reduce their probe
    results order-independently (worst margin, ties broken by probe index),
    so concurrent evaluation cannot change a verdict.
    """

    radii: tuple
    input_norms: tuple = ()
    eps_grid: tuple = (0.1, 0.5)
    horizon: float = 15.0
    sim: SimPlan = None
    directions: int = 3
    seed: int = 2024
    delta_margin: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "input_norms",
                           tuple(float(s) for s in self.input_norms if s > 0.0))
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        if not self.radii:
            raise DomainError("plan needs at least one radius shell")
        if not self.eps_grid:
            raise DomainError("plan needs a nonempty eps grid")
        if not all(math.isfinite(x) for x in self.radii + self.eps_grid):
            # the delta fit halves from min(eps, largest radius) to its floor
            raise DomainError("plan radii and eps levels must be finite")
        if self.sim is None:
            object.__setattr__(self, "sim", SimPlan(self.horizon))
        elif abs(self.sim.horizon - self.horizon) > 1e-12:
            object.__setattr__(self, "sim", replace(self.sim, horizon=self.horizon))

    @property
    def s_max(self) -> float:
        return max(self.input_norms) if self.input_norms else 0.0

    def tau_grid(self) -> tuple:
        return (0.5 * self.horizon, self.horizon)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "radii": list(self.radii),
            "input_norms": list(self.input_norms),
            "eps_grid": list(self.eps_grid),
            "horizon": self.horizon,
            "step": self.sim.step,
            # the integrator and the input family are fixed; their keys keep
            # plan_hash, and the plan_hash of every stored verdict, valid
            "method": "rk4",
            "blow_up_threshold": self.sim.blow_up_threshold,
            "directions": self.directions,
            "input_kinds": ["const", "step", "pw"],
            "pw_pieces": _PW_PIECES,
            "seed": self.seed,
            "delta_margin": self.delta_margin,
        }


def plan_hash(plan: SamplingPlan) -> str:
    text = json.dumps(plan.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Probe:
    index: int
    x0: tuple
    u: InputSignal
    r: float
    s: float
    tag: str
    direction: tuple = ()


@dataclass
class ProbeData:
    probe: Probe
    traj: Trajectory
    ynorm: np.ndarray
    ysup: np.ndarray      # running sup of |y|
    xnorm: np.ndarray     # state norms under the system's norm
    urestr: np.ndarray    # |u restricted to [0, t]| per grid point
    uval_norm: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.traj.times

    @property
    def blown(self) -> bool:
        return self.traj.blow_up is not None

    @property
    def y0(self) -> float:
        return float(self.ynorm[0])


_PW_PIECES = 4  # pieces of the seeded piecewise-constant probe input


def _inputs_at_norm(plan: SamplingPlan, input_dim: int, s: float, seed_extra: int = 0):
    """Input family at exactly sup norm s: a constant, a step switched off at
    half the horizon and a seeded piecewise-constant input, in that order."""
    if input_dim == 0 or s == 0.0:
        return [("zero", InputSignal.zero(input_dim))]
    e0 = np.zeros(input_dim)
    e0[0] = 1.0
    rng = np.random.default_rng((plan.seed, int(s * 1e6), seed_extra))
    breaks = np.concatenate(([0.0], np.sort(rng.uniform(0, plan.horizon, _PW_PIECES - 1))))
    vals = rng.uniform(-1.0, 1.0, size=(_PW_PIECES, input_dim))
    peak = np.max(np.linalg.norm(vals, axis=1))
    if peak > 0:
        vals = vals * (s / peak)
    return [
        (f"const[{s:g}]", InputSignal.constant(s * e0)),
        (f"step[{s:g}]",
         InputSignal.steps([0.0, 0.5 * plan.horizon], np.stack([s * e0, 0.0 * e0]))),
        (f"pw[{s:g}]", InputSignal.steps(breaks, vals)),
    ]


class ProbeSet:
    """Deterministic probe expansion plus a per-probe simulation cache.

    ``data_many`` looks probes up and simulates the misses as one kernel
    call; ``shells`` is the one request for the probes of (r, s) balls.
    """

    def __init__(self, sys: SystemModel, plan: SamplingPlan):
        self.sys = sys
        self.plan = plan
        self._cache: dict = {}
        self.probes = self._expand()

    def _expand(self) -> list[Probe]:
        sys, plan = self.sys, self.plan
        dirs = _directions(sys.state_dim, plan.directions, plan.seed)
        inputs = [("zero", InputSignal.zero(sys.input_dim))]
        for s in plan.input_norms:
            inputs.extend(_inputs_at_norm(plan, sys.input_dim, s))
        probes = []
        idx = 0
        for r in plan.radii:
            for d in dirs:
                x0 = np.asarray(sys.embed(r, d), dtype=float)
                for tag, u in inputs:
                    probes.append(Probe(idx, tuple(x0), u, r, u.norm(), tag, tuple(d)))
                    idx += 1
        return probes

    def data(self, probe: Probe) -> ProbeData:
        return self.data_many([probe])[0]

    def data_many(self, probes) -> list[ProbeData]:
        """Data for each probe: every key is looked up once, and all misses
        run as one ``simulate_batch`` call (a key asked for twice runs once)."""
        datas = [None] * len(probes)
        misses: dict = {}  # key -> positions in probes that asked for it
        for i, probe in enumerate(probes):
            key = (probe.x0, probe.u)
            hit = self._cache.get(key)
            if hit is None:
                misses.setdefault(key, []).append(i)
            else:
                datas[i] = hit
        if misses:
            firsts = [probes[where[0]] for where in misses.values()]
            trajs = simulate_batch(self.sys, [p.x0 for p in firsts], [p.u for p in firsts],
                                   self.plan.sim)
            for (key, where), probe, traj in zip(misses.items(), firsts, trajs):
                data = self._cache[key] = self._probe_data(probe, traj)
                for i in where:
                    datas[i] = data
        # the constructor, not dataclasses.replace: this runs once per shell probe
        return [d if d.probe.index == p.index else
                ProbeData(p, d.traj, d.ynorm, d.ysup, d.xnorm, d.urestr, d.uval_norm)
                for d, p in zip(datas, probes)]

    def _probe_data(self, probe: Probe, traj: Trajectory) -> ProbeData:
        ynorm = traj.output_norms()
        ysup = np.maximum.accumulate(ynorm)
        xnorm = np.asarray(self.sys.state_norm(traj.states), dtype=float)
        if probe.u.dim:
            piece = np.linalg.norm(probe.u.values, axis=1)
            run = np.maximum.accumulate(piece)
            idx = np.searchsorted(probe.u.breakpoints, traj.times, side="right") - 1
            urestr = run[idx]
            uval = np.linalg.norm(traj.input_values, axis=1)
        else:
            urestr = np.zeros_like(ynorm)
            uval = np.zeros_like(ynorm)
        return ProbeData(probe, traj, ynorm, ysup, xnorm, urestr, uval)

    def all_data(self) -> list[ProbeData]:
        return self.data_many(self.probes)

    def shells(self, cells, by_output: bool = False) -> list[list[ProbeData]]:
        """The one shell request: data of the probes of each (r, s) cell, as
        one list per cell aligned with ``cells`` (duplicates kept).  A cell
        holds the probes at state norm exactly r, or with ``by_output`` at
        initial output norm up to r, and at input norm s.  The misses of
        all cells run as one kernel call."""
        build = self._output_shell if by_output else self._state_shell
        groups = [build(r, s) for r, s in cells]
        datas = iter(self.data_many([p for g in groups for p in g]))
        return [[next(datas) for _ in g] for g in groups]

    def _state_shell(self, r: float, s: float) -> list[Probe]:
        dirs = _directions(self.sys.state_dim, self.plan.directions, self.plan.seed)
        inputs = _inputs_at_norm(self.plan, self.sys.input_dim, s)
        probes = []
        for d in dirs:
            x0 = np.asarray(self.sys.embed(r, d), dtype=float)
            for tag, u in inputs:
                probes.append(Probe(-1000 - len(probes), tuple(x0), u, r, u.norm(),
                                    f"shell:{tag}", tuple(d)))
        return probes

    def _output_shell(self, r_y: float, s: float) -> list[Probe]:
        """Probes whose initial output norm lies at or below r_y: a ladder
        of state radii is screened by rejection, keeping the candidates
        inside the ball (preferring the top of the shell).  Sampling the
        level set of the output map this way is heuristic."""
        dirs = _directions(self.sys.state_dim, max(self.plan.directions, 3), self.plan.seed + 7)
        inputs = _inputs_at_norm(self.plan, self.sys.input_dim, s, 7)
        ladder = [r_y * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        kept = []
        for radius in ladder:
            for d in dirs:
                x0 = np.asarray(self.sys.embed(radius, d), dtype=float)
                for tag, u in inputs:
                    y0 = np.linalg.norm(np.atleast_1d(self.sys.output(x0, u(0.0))))
                    if y0 <= r_y + 1e-12:
                        kept.append((float(y0), radius, x0, u, tag, tuple(d)))
        kept.sort(key=lambda item: (-item[0], item[1], tuple(item[2])))
        return [Probe(-2000 - i, tuple(x0), u, float(self.sys.state_norm(x0)), u.norm(),
                      f"yshell:{tag}", d)
                for i, (y0, radius, x0, u, tag, d) in
                enumerate(kept[: 3 * max(self.plan.directions, 3)])]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Replayable violation: initial state, input, time, observed vs bound.

    ``series`` names the norm that was observed: "output" (|y|) or "state"
    (|x|, for the notions in ``_OF_STATE``).
    """

    x0: tuple
    u: dict
    t: float
    observed: float
    bound: float
    margin: float
    probe_index: int = -1
    series: str = "output"

    @staticmethod
    def of_probe(prop: PropertyId, probe: Probe, t: float, observed: float,
                 bound: float) -> "Witness":
        """The violation of ``prop`` by ``probe`` at time t."""
        return Witness(x0=probe.x0, u=probe.u.to_dict(), t=t, observed=observed,
                       bound=bound, margin=observed - bound, probe_index=probe.index,
                       series="state" if prop in _OF_STATE else "output")

    def signal(self) -> InputSignal:
        return InputSignal.from_dict(self.u)

    def replay(self, sys: SystemModel, sim: SimPlan) -> float:
        """Re-simulate and return the observed norm (of ``series``) at t."""
        traj = simulate(sys, np.asarray(self.x0), self.signal(), sim)
        k = traj.at_time(self.t)
        if self.series == "state":
            return float(sys.state_norm(traj.states[k]))
        return float(np.linalg.norm(traj.outputs[k]))

    def to_dict(self) -> dict:
        return {
            "x0": list(self.x0),
            "u": self.u,
            "t": self.t,
            "observed": self.observed,
            "bound": self.bound,
            "margin": self.margin,
            "probe_index": self.probe_index,
            "series": self.series,
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # "certified" | "falsified" | "inconclusive"
    property: PropertyId
    samples: int
    min_slack: Optional[float]
    witness: Optional[Witness]
    reason: Optional[str]
    plan_hash: str
    notes: tuple = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "property": self.property.value,
            "status": self.status,
            "samples": self.samples,
            "slack": self.min_slack,
            "witness": self.witness.to_dict() if self.witness else None,
            "reason": self.reason,
            "plan_hash": self.plan_hash,
            "notes": list(self.notes),
        }


class _Outcome:
    """Order-independent reduction of per-sample slacks."""

    def __init__(self):
        self.min_slack = math.inf
        self.worst = None  # (probe, t, observed, bound)
        self.samples = 0
        self.notes: list[str] = []
        self.blown: list[int] = []

    def add(self, probe: Probe, t: float, observed: float, bound: float):
        self.samples += 1
        slack = bound - observed
        if slack < self.min_slack or (
            slack == self.min_slack
            and self.worst is not None
            and probe.index < self.worst[0].index
        ):
            self.min_slack = slack
            self.worst = (probe, float(t), float(observed), float(bound))

    def add_blown(self, probe: Probe):
        self.blown.append(probe.index)

    def verdict(self, prop: PropertyId, plan: SamplingPlan, phash: str) -> Verdict:
        notes = tuple(self.notes)
        if self.blown:
            notes = notes + (
                f"{len(self.blown)} probe(s) blew up: forward-completeness failure at those samples",
            )
        if self.samples == 0:
            return Verdict("inconclusive", prop, 0, None, None,
                           "no samples satisfied the property's ball constraints",
                           phash, notes)
        if self.min_slack >= -plan.delta_margin:
            return Verdict("certified", prop, self.samples, float(self.min_slack),
                           None, None, phash, notes)
        witness = Witness.of_probe(prop, *self.worst)
        return Verdict("falsified", prop, self.samples, float(self.min_slack),
                       witness, None, phash, notes)


# ---------------------------------------------------------------------------
# per-property checkers
# ---------------------------------------------------------------------------

def _initial(prop: PropertyId, data: ProbeData) -> float:
    """The probe's initial condition as ``prop`` measures it: |y(0)| for
    the notions in ``_BY_OUTPUT``, |x0| for every other."""
    return data.y0 if prop in _BY_OUTPUT else data.probe.r


def _observed(prop: PropertyId, data: ProbeData) -> np.ndarray:
    """The norm series ``prop`` bounds: |x| for the notions in
    ``_OF_STATE``, |y| for every other."""
    return data.xnorm if prop in _OF_STATE else data.ynorm


def _in_ball(r: float, s: float, radius: float) -> bool:
    return r <= radius + 1e-12 and s <= radius + 1e-12


def _pointwise_bound(cert: Certificate, data: ProbeData) -> np.ndarray:
    """Bound curve over the probe's time grid for pointwise properties."""
    p = cert.property
    t = data.times
    s = data.probe.s
    c = cert.get("c", 0.0)
    if p == PropertyId.IOSS:
        g1, g2 = cert["gamma1"], cert["gamma2"]
        return cert["beta"](data.probe.r, t) + g1(data.urestr) + g2(data.ysup)
    if p in (PropertyId.H_BOUNDED, PropertyId.H_K_BOUNDED):
        s1, g1 = cert["sigma1"], cert["gamma1"]
        return s1(data.xnorm) + g1(data.uval_norm) + c
    if "beta" in cert.params:
        # beta(r, t) + gamma(s): IOpS adds c, OCAG shifts r by c
        shift, offset = (c, 0.0) if p == PropertyId.OCAG else (0.0, c)
        return cert["beta"](data.probe.r + shift, t) + cert["gamma"](s) + offset
    # sigma(initial condition) + gamma(s) + c: the OL and OUGS families
    const = cert["sigma"](_initial(p, data)) + cert["gamma"](s) + c
    return np.full_like(t, const)


def _probe_filter(cert: Certificate, data: ProbeData) -> bool:
    """Does the probe lie in the certificate's ball: |x0| (|y(0)| for OBORS)
    and |u| up to its ``radius``, or |u| up to its ``s_max``?"""
    radius = cert.get("radius")
    if radius is not None:
        r = data.y0 if cert.property == PropertyId.OBORS else data.probe.r
        return _in_ball(r, data.probe.s, radius)
    s_max = cert.get("s_max")
    return s_max is None or data.probe.s <= s_max + 1e-12


def _sup_until(data: ProbeData, horizon: float) -> int:
    """Grid index of the largest |y| at times up to ``horizon``."""
    mask = data.times <= horizon + 1e-12
    return int(np.argmax(np.where(mask, data.ynorm, -math.inf)))


def _sweep(cert: Certificate, datas, levels, sample, out: _Outcome) -> list:
    """Per-probe loop shared by the pointwise, convergence and visit checkers.

    Probes outside the property's ball are skipped and blow-ups recorded.
    Each remaining probe is sampled once per level by ``sample(data,
    level)``, which returns (t, observed, bound), or None for an empty cell.
    A cell whose table lookup raises ``TableGapError`` is skipped; the
    skipped (probe, error message) pairs are returned.
    """
    gaps = []
    for data in datas:
        if not _probe_filter(cert, data):
            continue
        if data.blown:
            out.add_blown(data.probe)
            continue
        for level in levels:
            try:
                hit = sample(data, level)
            except TableGapError as exc:
                gaps.append((data.probe, str(exc)))  # not exc: its traceback pins frames
                continue
            if hit is not None:
                out.add(data.probe, *hit)
    return gaps


def _check_pointwise(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    def sample(data, _level):
        bound = _pointwise_bound(cert, data)
        observed = _observed(cert.property, data)
        k = int(np.argmin(bound - observed))
        return data.times[k], observed[k], bound[k]

    # a table-backed beta raises TableGapError: no claim this far out
    gaps = _sweep(cert, datas, (None,), sample, out)
    if gaps:
        probe, reason = gaps[0]
        out.notes.append(f"{len(gaps)} probe(s) beyond the certified radius skipped "
                         f"(first at r = {probe.r:g}: {reason})")


def _window_sup(data: ProbeData, horizon: float) -> tuple[float, float]:
    """(t, |y(t)|) at the largest |y| up to ``horizon``.  A blow-up at or
    before the horizon is an unbounded excursion inside the window, the
    worst possible sample: (blow-up time, inf)."""
    if data.blown and data.traj.blow_up <= horizon:
        return data.traj.blow_up, math.inf
    k = _sup_until(data, horizon)
    return data.times[k], data.ynorm[k]


def _check_window_rows(cert: Certificate, rows, plan: SamplingPlan, out: _Outcome):
    """Window rows: for each (bound, horizon, probe) the sup of |y| up to the
    horizon must stay below the bound.  The continuity rows (OCEP, table
    OULS) are (eps, horizon, probe) for each probe from a delta ball."""
    for bound, horizon, data in rows:
        out.add(data.probe, *_window_sup(data, horizon), bound)


def _check_sup_bound(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    """Reachability bounds: sup over t < horizon of |y| against a constant."""
    _check_window_rows(cert, ((cert["bound"], cert["horizon"], data) for data in datas
                              if _probe_filter(cert, data)), plan, out)


def _check_uag(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    table: ConvergenceTimeTable = cert["tau_table"]
    gamma = cert["gamma"]
    late = []  # (eps, r, tau) per cell skipped because tau exceeds the horizon

    def sample(data, eps):
        r, s = _initial(cert.property, data), data.probe.s
        tau = table.eval(eps, r, s)
        if tau > plan.horizon + 1e-12:
            late.append((eps, r, tau))
            return None
        mask = data.times >= tau - 1e-12
        if not np.any(mask):
            return None
        k = int(np.argmax(np.where(mask, data.ynorm, -math.inf)))
        return data.times[k], data.ynorm[k], eps + gamma(s)

    _sweep(cert, datas, table.eps_grid, sample, out)
    if late:
        eps, r, tau = late[0]
        out.notes.append(f"{len(late)} cell(s) skipped where tau exceeds the horizon "
                         f"(first tau({eps:g}, {r:g}) = {tau:g})")


def _check_lim(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    gamma = cert["gamma"]
    table: ConvergenceTimeTable | None = cert.get("tau_table")

    def sample(data, eps):
        if table is None:
            tau = plan.horizon
        else:
            tau = table.eval(eps, _initial(cert.property, data), data.probe.s)
        mask = data.times <= tau + 1e-12
        if not np.any(mask):
            return None
        # existence check: best time must dip below the bound
        k = int(np.argmin(np.where(mask, data.ynorm, math.inf)))
        return data.times[k], data.ynorm[k], eps + gamma(data.probe.s)

    _sweep(cert, datas, plan.eps_grid if table is None else table.eps_grid, sample, out)
    if table is None:
        out.notes.append(
            "visit times capped by the plan horizon: per-trajectory quantifier "
            "is checked as a finite-horizon proxy"
        )


def _input_global(check):
    """The checker plus the note that an input-global claim was only
    exercised up to the largest input norm sampled."""
    def run(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
        check(cert, datas, plan, out)
        out.notes.append(f"input-global claim certified up to s_max = "
                         f"{cert.get('s_max', plan.s_max):g}")
    return run


# ---------------------------------------------------------------------------
# probe sources and the checker table
# ---------------------------------------------------------------------------

def _plan_probes(cert: Certificate, ps: ProbeSet, plan: SamplingPlan, out: _Outcome):
    return ps.all_data()


def _initial_output_shells(cert: Certificate, ps: ProbeSet, plan: SamplingPlan,
                           out: _Outcome):
    """Probes from the initial-output balls the visit table is indexed by."""
    cells = [(r_y, s) for r_y in cert["tau_table"].r_grid for s in (0.0,) + plan.input_norms]
    return [data for shell in ps.shells(cells, by_output=True) for data in shell]


def _delta_row_shells(cert: Certificate, ps: ProbeSet, plan: SamplingPlan, out: _Outcome):
    """(eps, horizon, probe) for each continuity row, from the shells at
    delta and delta / 2; a row without horizon runs to the plan's."""
    rows, cells = [], []
    for eps, tau, delta in cert["delta_table"].rows():
        if delta <= 0.0:
            out.notes.append(f"empty delta at eps={eps:g}; row skipped")
            continue
        rows.append((eps, tau if tau is not None else plan.horizon))
        cells.extend(_delta_cells(ps, delta))
    shells = ps.shells(cells)
    return [(eps, horizon, data) for (eps, horizon), a, b in zip(rows, shells[::2], shells[1::2])
            for data in a + b]


def _delta_cells(ps: ProbeSet, delta: float) -> list[tuple]:
    """The (r, s) cells of the shells at delta and delta / 2, with input
    norm up to the shell radius (and the plan's s_max)."""
    return [(r, min(r, ps.plan.s_max) if ps.sys.input_dim else 0.0)
            for r in (delta, delta * 0.5)]


# property -> (probe source, checker): the one place that decides which
# quantifier a property's inequality is checked under
_CHECKERS = {
    PropertyId.IOS: (_plan_probes, _check_pointwise),
    PropertyId.ISS: (_plan_probes, _check_pointwise),
    PropertyId.IOPS: (_plan_probes, _check_pointwise),
    PropertyId.OCAG: (_plan_probes, _check_pointwise),
    PropertyId.OL: (_plan_probes, _check_pointwise),
    PropertyId.LOCAL_OL: (_plan_probes, _check_pointwise),
    PropertyId.OUGS: (_plan_probes, _check_pointwise),
    PropertyId.OULS: (_plan_probes, _check_pointwise),
    PropertyId.OUGB: (_plan_probes, _check_pointwise),
    PropertyId.OOUGB: (_plan_probes, _check_pointwise),
    PropertyId.IOSS: (_plan_probes, _check_pointwise),
    PropertyId.H_BOUNDED: (_plan_probes, _check_pointwise),
    PropertyId.H_K_BOUNDED: (_plan_probes, _check_pointwise),
    PropertyId.BORS: (_plan_probes, _check_sup_bound),
    PropertyId.OBORS: (_plan_probes, _check_sup_bound),
    PropertyId.OUAG: (_plan_probes, _check_uag),
    PropertyId.OGUAG: (_plan_probes, _input_global(_check_uag)),
    PropertyId.OLIM: (_plan_probes, _check_lim),
    PropertyId.OAG: (_plan_probes, _check_lim),
    PropertyId.OULIM: (_plan_probes, _check_lim),
    PropertyId.OGULIM: (_plan_probes, _input_global(_check_lim)),
    PropertyId.OOULIM: (_initial_output_shells, _check_lim),
    PropertyId.OCEP: (_delta_row_shells, _check_window_rows),
}


def _checker(cert: Certificate):
    """The table entry for ``cert``.  The table form of OULS is a continuity
    table without a tau axis, so it is checked as OCEP is."""
    prop = PropertyId.OCEP if "delta_table" in cert.params else cert.property
    if prop not in _CHECKERS:
        raise CertificateError(f"no checker for property {cert.property.value}")
    return _CHECKERS[prop]


# ---------------------------------------------------------------------------
# public checking API
# ---------------------------------------------------------------------------

def verify(sys: SystemModel, cert: Certificate, plan: SamplingPlan,
           probe_set: ProbeSet | None = None) -> Verdict:
    """Check the certificate's defining inequality over the probes its
    table entry draws: the plan's, or shells of its own balls."""
    source, check = _checker(cert)
    ps = probe_set if probe_set is not None else ProbeSet(sys, plan)
    out = _Outcome()
    check(cert, source(cert, ps, plan, out), plan, out)
    return out.verdict(cert.property, plan, plan_hash(plan))


def falsify(sys: SystemModel, cert: Certificate, budget: int,
            plan: SamplingPlan) -> Verdict:
    """Search for a maximal-margin witness within a simulation budget.

    The plan's probes are swept first (constants before richer inputs), as
    far as the budget reaches, in one simulation batch; afterwards the worst
    swept probes are refined by local grid search over the initial-state
    radius, the direction on their shell and the input amplitude, one batch
    per round, with the violation time taken as the worst grid time of each
    refined trajectory.  The verdict's
    ``samples`` counts probe requests, so it bounds the simulations run and
    never exceeds ``budget``.  The search is deterministic for a fixed plan
    seed.  Continuity-table certificates are not supported: their checker
    needs the row each probe was drawn for.
    """
    _, check = _checker(cert)
    if check is _check_window_rows:
        raise CertificateError(f"falsification unsupported for {cert.property.value}")
    phash = plan_hash(plan)
    ps = ProbeSet(sys, plan)
    swept = ps.probes[: max(budget, 0)]
    spent = len(swept)
    ranked = []  # (margin, probe, t, observed, bound) per admissible swept probe
    for probe, data in zip(swept, ps.data_many(swept)):
        margin, t, observed, bound = _probe_margin_from_data(cert, plan, data)
        if margin > -math.inf:
            ranked.append((margin, probe, t, observed, bound))
    if not ranked:
        return Verdict("inconclusive", cert.property, spent, None, None,
                       "no admissible probes for this certificate", phash)

    # multi-start local refinement: one hill-climb per elite coarse probe,
    # so a degenerate near-zero basin cannot shadow a genuine violation
    ranked.sort(key=lambda item: (-item[0], item[1].index))
    starts = []
    seen_radii = set()
    for item in ranked:
        key = round(item[1].r, 9)
        if key not in seen_radii:
            starts.append(item)
            seen_radii.add(key)
        if len(starts) >= 3:
            break

    best = ranked[0]
    for start in starts:
        if spent >= budget:
            break
        refined, spent = _refine_from(sys, cert, plan, ps, start, spent, budget)
        if refined[0] > best[0]:
            best = refined
    margin, probe, t, observed, bound = best

    if margin > plan.delta_margin:
        witness = Witness.of_probe(cert.property, probe, t, observed, bound)
        return Verdict("falsified", cert.property, spent, float(-margin),
                       witness, None, phash)
    return Verdict(
        "inconclusive", cert.property, spent, float(-margin), None,
        f"budget exhausted, max slack = {-margin:.6g}", phash,
    )


def _refine_from(sys, cert, plan, ps, start, spent, budget):
    """Hill-climb from a swept probe.  Each round's candidates move the
    round-start best's radius, direction or amplitude, and run as one batch
    cut to the remaining budget.  Amplitudes are absolute factors on the
    swept probe's input, so accepted steps do not compound."""
    best = start
    base_u = start[1].u
    span_r = _initial_span(plan.radii, start[1].r)
    dir_best = np.asarray(start[1].direction) if start[1].direction else np.ones(sys.state_dim)
    if np.linalg.norm(dir_best) > 0:
        dir_best = dir_best / np.linalg.norm(dir_best)
    amp = 1.0
    stale = 0
    for _ in range(18):
        if spent >= budget or span_r <= 1e-9 or stale >= 4:
            break
        probe = best[1]
        moves = [(probe.r + fr * span_r, dir_best, amp) for fr in (-1.0, -0.5, 0.5, 1.0)
                 if probe.r + fr * span_r > 1e-9]
        moves += [(probe.r, d_new, amp) for d_new in
                  _direction_neighbours(dir_best, span_angle=span_r / max(probe.r, 1e-9))]
        if base_u.norm() > 0:
            moves += [(probe.r, dir_best, amp * fa) for fa in (0.8, 1.25)]
        moves = moves[: budget - spent]
        cands = []
        for r_new, d_new, amp_new in moves:
            x0 = np.asarray(sys.embed(r_new, d_new), dtype=float)
            u = _scaled_input(base_u, amp_new)
            cands.append(Probe(probe.index, tuple(x0), u, r_new, u.norm(),
                               probe.tag + "+", tuple(d_new)))
        spent += len(cands)
        improved = False
        for cand, (_, d_new, amp_new), data in zip(cands, moves, ps.data_many(cands)):
            m, t_new, obs, bnd = _probe_margin_from_data(cert, plan, data)
            if m > best[0]:
                best = (m, cand, t_new, obs, bnd)
                next_dir, next_amp = d_new, amp_new
                improved = True
        if improved:
            dir_best, amp = next_dir, next_amp
        span_r *= 0.5
        stale = 0 if improved else stale + 1
    return best, spent


def _probe_margin_from_data(cert, plan, data) -> tuple[float, float, float, float]:
    out = _Outcome()
    _checker(cert)[1](cert, [data], plan, out)
    if out.worst is None:
        return -math.inf, 0.0, 0.0, 0.0
    _, t, observed, bound = out.worst
    return observed - bound, t, observed, bound


def _initial_span(radii, r):
    if len(radii) < 2:
        return max(r, 1.0)
    gaps = [abs(b - a) for a, b in zip(radii, radii[1:])]
    return max(max(gaps) * 0.5, 1e-6)


def _direction_neighbours(d: np.ndarray, span_angle: float):
    span = min(max(span_angle, 1e-3), 0.5)
    out = []
    for axis in range(min(len(d), 3)):
        for sign in (1.0, -1.0):
            v = d.copy()
            v[axis] += sign * span
            n = np.linalg.norm(v)
            if n > 1e-9:
                out.append(v / n)
    return out


def _scaled_input(u: InputSignal, factor: float) -> InputSignal:
    if factor == 1.0 or u.dim == 0:
        return u
    return InputSignal(u.breakpoints, u.values * factor)


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def _shell_tau(datas, eps: float, mode: str, gamma_ref: ScalarFn):
    """Worst convergence ("uag": just after the last miss) or visit ("lim":
    the first hit) time of ``eps + gamma_ref(s)`` over a shell of probes.

    Returns (tau, None), or (None, offending ProbeData) when some probe
    blows up or never satisfies the bound within the horizon.
    """
    if mode not in ("uag", "lim"):
        raise DomainError("mode must be 'uag' or 'lim'")
    worst = 0.0
    for data in datas:
        if data.blown:
            return None, data
        ok = data.ynorm <= eps + gamma_ref(data.probe.s) + 1e-12
        if mode == "uag":
            if not ok[-1]:
                return None, data
            bad = np.nonzero(~ok)[0]
            tau = 0.0 if bad.size == 0 else float(data.times[bad[-1] + 1])
        else:
            hits = np.nonzero(ok)[0]
            if hits.size == 0:
                return None, data
            tau = float(data.times[hits[0]])
        worst = max(worst, tau)
    return worst, None


def estimate_tau(sys: SystemModel, eps: float, r: float, s: float, mode: str,
                 plan: SamplingPlan, gamma_ref: ScalarFn,
                 probe_set: ProbeSet | None = None):
    """Empirical convergence ("uag") or visit ("lim") time for one cell.

    Returns (tau, None) on success or (None, offending ProbeData) when some
    trajectory never satisfies the bound within the horizon.
    """
    ps = probe_set if probe_set is not None else ProbeSet(sys, plan)
    return _shell_tau(ps.shells([(r, s)])[0], eps, mode, gamma_ref)


def build_tau_table(sys: SystemModel, plan: SamplingPlan, mode: str,
                    gamma_ref: ScalarFn, eps_grid=None, r_grid=None, s_grid=None,
                    probe_set: ProbeSet | None = None,
                    over_initial_output: bool = False) -> ConvergenceTimeTable:
    """Tabulate empirical times over plan grids; unreachable cells become inf."""
    ps = probe_set if probe_set is not None else ProbeSet(sys, plan)
    eps_grid = tuple(eps_grid if eps_grid is not None else plan.eps_grid)
    r_grid = tuple(r_grid if r_grid is not None else plan.radii)
    s_levels = tuple(s_grid) if s_grid is not None else (0.0,) + tuple(plan.input_norms)
    shells = ps.shells([(r, s) for r in r_grid for s in s_levels], by_output=over_initial_output)
    if over_initial_output:
        # the check reads a probe in the row its own |y(0)| snaps up to, so row
        # r_y is fitted on every drawn probe, from any shell, that snaps to r_y or below
        n_s = len(s_levels)
        drawn = [[data for shell in shells[k::n_s] for data in shell] for k in range(n_s)]
        shells = [[data for data in drawn[k] if data.y0 - 1e-12 <= r]
                  for r in r_grid for k in range(n_s)]
    taus = [_shell_tau(shell, eps, mode, gamma_ref)[0] for eps in eps_grid for shell in shells]
    vals = np.array([math.inf if tau is None else tau for tau in taus]).reshape(
        len(eps_grid), len(r_grid), len(s_levels))
    if s_grid is None:
        return ConvergenceTimeTable(eps_grid, r_grid, None, vals.max(axis=2), mode=mode)
    return ConvergenceTimeTable(eps_grid, r_grid, s_levels, vals, mode=mode)


def _fit_decay_rate(series_list, horizon: float, floor: float = 5e-3) -> float:
    """Shared exponential rate read off the late-time window of each probe.

    A probe that has already converged below numerical noise does not
    constrain the rate; a probe whose tail fails to shrink forces the rate
    to zero, which is reported as an estimation failure (no separable decay
    envelope exists on such data).
    """
    rates = []
    for times, y in series_list:
        k1 = int(np.argmin(np.abs(times - 0.7 * horizon)))
        k2 = len(times) - 1
        y1, y2 = float(y[k1]), float(y[k2])
        span = float(times[k2] - times[k1])
        if span <= 0:
            continue
        if y1 <= 1e-12:
            continue  # fully decayed, unconstraining
        if y2 <= 1e-12:
            continue  # decayed to zero inside the window
        if y2 >= y1:
            rates.append(0.0)
        else:
            rates.append(math.log(y1 / y2) / span)
    if not rates:
        return 1.0
    a = 0.9 * min(rates)
    if a <= floor:
        raise EstimationError(
            "output profiles do not decay within the horizon: no separable "
            "decay envelope exists on this data"
        )
    return a


def _fit_separable_kl(datas, series, plan: SamplingPlan):
    """Radial envelope of max_t series(t) * exp(a t) times a decaying profile.

    With the rate fixed from the tails, the radial part absorbs delayed
    excursions exactly: series(t) <= sigma(r) * exp(-a t) holds at every
    sample by construction of the envelope.
    """
    a = _fit_decay_rate([(d.times, series(d)) for d in datas], plan.horizon)
    samples = [(0.0, 0.0)]
    for d in datas:
        boosted = series(d) * np.exp(a * d.times)
        samples.append((d.probe.r, float(np.max(boosted))))
    sigma = cf.fit_monotone_envelope(samples, force_zero_at_zero=True)
    temporal = cf.compose(cf.exp_decay(), cf.scale(a))
    return cf.kl_separable(sigma, temporal), sigma, a


def _gain_envelope(pairs) -> ScalarFn:
    """Class Kinf envelope through (0, 0) of the largest value per abscissa
    among the (abscissa, value) pairs; (1, 0) stands in when no pair is
    off the origin."""
    samples = {0.0: 0.0}
    for x, v in pairs:
        samples[x] = max(samples.get(x, 0.0), v)
    if len(samples) == 1:
        samples[1.0] = 0.0
    return cf.fit_monotone_envelope(sorted(samples.items()), force_zero_at_zero=True)


def _residual_gain(prop: PropertyId, datas, bound_fn) -> ScalarFn:
    """Envelope against the input norm of the positive residuals of the
    series ``prop`` observes."""
    return _gain_envelope(
        (data.probe.s, float(np.max(np.maximum(_observed(prop, data) - bound_fn(data), 0.0))))
        for data in datas)


def estimate_gain(sys: SystemModel, prop: PropertyId, plan: SamplingPlan,
                  probe_set: ProbeSet | None = None, radius: float | None = None,
                  table_form: bool = False) -> Certificate:
    """Fit a certificate from simulation data; over-approximates by envelopes.

    The envelopes dominate every sample they were fitted to, so the result
    verifies on the same plan wherever the check reads the samples the fit
    read.  Properties whose quantifiers cannot be exhausted from
    bounded-horizon data (the per-trajectory visit property over unbounded
    inputs) are rejected with ``EstimationError``.
    """
    ps = probe_set if probe_set is not None else ProbeSet(sys, plan)
    datas = ps.all_data()
    live = [d for d in datas if not d.blown]
    if not live:
        raise EstimationError("every probe blew up; nothing to fit")
    zero_in = [d for d in live if d.probe.s == 0.0]

    if prop == PropertyId.OAG:
        raise EstimationError(
            "per-trajectory visit times over unbounded inputs are not estimable "
            "from bounded-horizon data; use the uniform variants instead"
        )

    if prop == PropertyId.OULS and table_form:
        table = _fit_delta_table(plan, ps, with_tau=False)
        return Certificate(prop, {"delta_table": table})

    if prop in (PropertyId.OUGS, PropertyId.OULS, PropertyId.OUGB,
                PropertyId.OL, PropertyId.LOCAL_OL, PropertyId.OOUGB):
        if radius is None:
            radius = max(plan.radii)
        local = prop in (PropertyId.OULS, PropertyId.LOCAL_OL)
        pool = [d for d in live if not local or _in_ball(d.probe.r, d.probe.s, radius)]
        sigma = cf.fit_monotone_envelope(
            [(_initial(prop, d), float(np.max(d.ynorm))) for d in pool if d.probe.s == 0.0]
            + [(0.0, 0.0)],
            force_zero_at_zero=True,
        )
        gamma = _residual_gain(
            prop, pool, lambda d: np.full_like(d.ynorm, float(sigma(_initial(prop, d)))))
        params = {"sigma": sigma, "gamma": gamma}
        if local:
            params["radius"] = radius
        elif prop in (PropertyId.OUGB, PropertyId.OOUGB):
            params["c"] = 1e-9
        return Certificate(prop, params)

    if prop in (PropertyId.H_BOUNDED, PropertyId.H_K_BOUNDED):
        sigma1_samples = [(0.0, 0.0)]
        for d in zero_in:
            sigma1_samples.extend(zip(d.xnorm.tolist(), d.ynorm.tolist()))
        sigma1 = cf.fit_monotone_envelope(sigma1_samples, force_zero_at_zero=True)
        # static-map residuals are pointwise in the instantaneous input value
        gamma1 = _gain_envelope(chain.from_iterable(
            zip(d.uval_norm.tolist(), np.maximum(d.ynorm - sigma1(d.xnorm), 0.0).tolist())
            for d in live))
        params = {"sigma1": sigma1, "gamma1": gamma1}
        if prop == PropertyId.H_BOUNDED:
            params["c"] = 0.0
        return Certificate(prop, params)

    if prop in (PropertyId.IOS, PropertyId.ISS, PropertyId.OCAG, PropertyId.IOPS,
                PropertyId.IOSS):
        beta, sigma, a = _fit_separable_kl(zero_in, lambda d: _observed(prop, d), plan)
        if prop == PropertyId.IOSS:
            gamma2 = cf.identity()
            gamma1 = _gain_envelope(
                (float(np.max(d.urestr)) if d.probe.s > 0 else 0.0,
                 float(np.max(np.maximum(
                     d.xnorm - (beta(d.probe.r, d.times) + gamma2(d.ysup)), 0.0))))
                for d in live)
            params = {"beta": beta, "gamma1": gamma1, "gamma2": gamma2}
        else:
            params = {"beta": beta,
                      "gamma": _residual_gain(prop, live, lambda d: beta(d.probe.r, d.times))}
            if prop in (PropertyId.OCAG, PropertyId.IOPS):
                params["c"] = 0.0
        return Certificate(prop, params)

    if prop == PropertyId.OCEP:
        table = _fit_delta_table(plan, ps, with_tau=True)
        return Certificate(prop, {"delta_table": table})

    if prop in (PropertyId.OUAG, PropertyId.OGUAG, PropertyId.OULIM,
                PropertyId.OGULIM, PropertyId.OOULIM, PropertyId.OLIM):
        gamma = _fit_asymptotic_gain(live, plan)
        if prop == PropertyId.OLIM:
            return Certificate(prop, {"gamma": gamma})
        mode = "uag" if prop in (PropertyId.OUAG, PropertyId.OGUAG) else "lim"
        s_grid = ((0.0,) + tuple(plan.input_norms)
                  if prop in (PropertyId.OUAG, PropertyId.OULIM) else None)
        table = build_tau_table(sys, plan, mode, gamma, s_grid=s_grid, probe_set=ps,
                                over_initial_output=prop in _BY_OUTPUT)
        if np.all(~np.isfinite(table.values)):
            raise EstimationError(
                f"{prop.value}: no finite convergence cell within the horizon"
            )
        params = {"gamma": gamma, "tau_table": table}
        if prop == PropertyId.OGUAG:
            params["s_max"] = max(plan.s_max, 1e-9)
        return Certificate(prop, params)

    raise EstimationError(f"no estimator for property {prop.value}")


def _fit_asymptotic_gain(datas, plan: SamplingPlan) -> ScalarFn:
    """Late-window sup of |y| for driven probes, enveloped against the norm.

    Zero-input tails are deliberately excluded: covering them is the
    convergence table's job (a non-vanishing undriven tail simply leaves the
    table cells unreachable), while the gain must vanish at zero.
    """
    cut = 0.8 * plan.horizon
    tails = ((d.probe.s, d.ynorm[d.times >= cut]) for d in datas if d.probe.s != 0.0)
    return _gain_envelope((s, float(np.max(tail))) for s, tail in tails if tail.size)


def _fit_delta_table(plan: SamplingPlan, ps: ProbeSet, with_tau: bool) -> DeltaTable:
    """Largest delta per (eps, horizon) row: halve from min(eps, largest
    radius) until no probe of the delta and delta / 2 shells blows up or
    exceeds 0.98 eps up to the horizon.  A row whose next halving would
    drop below 1e-9 gets delta = 0 (an empty row), so every returned
    delta was checked.

    The rows still halving are requested together, with their shells at
    delta, delta / 2 and delta / 4, so one kernel call decides two
    halvings: a failed delta's delta / 2 shell is the next candidate's
    delta shell."""
    horizons = plan.tau_grid() if with_tau else (plan.horizon,)
    rows = [(eps, horizon) for eps in plan.eps_grid for horizon in horizons]
    deltas = [min(eps, max(plan.radii)) for eps, _ in rows]

    def fails(i, datas) -> bool:
        eps, horizon = rows[i]
        return any(data.blown or data.ynorm[_sup_until(data, horizon)] > eps * 0.98
                   for data in datas)

    def halve(i) -> bool:
        deltas[i] = 0.0 if deltas[i] * 0.5 < 1e-9 else deltas[i] * 0.5
        return deltas[i] > 0

    halving = [i for i, delta in enumerate(deltas) if delta > 0]
    while halving:
        shells = ps.shells([cell for i in halving for cell in
                            _delta_cells(ps, deltas[i]) + _delta_cells(ps, deltas[i] * 0.5)[1:]])
        # fail at delta, halve, fail at delta / 2, halve: still halving
        halving = [i for i, a, b, c in zip(halving, shells[::3], shells[1::3], shells[2::3])
                   if fails(i, a + b) and halve(i) and fails(i, b + c) and halve(i)]
    vals = np.array(deltas).reshape(len(plan.eps_grid), len(horizons))
    return DeltaTable(plan.eps_grid, horizons if with_tau else None,
                      vals if with_tau else vals[:, 0])


# ---------------------------------------------------------------------------
# reachability and crossing times
# ---------------------------------------------------------------------------

def build_reachability_bound(sys: SystemModel, plan: SamplingPlan,
                             over_initial_output: bool = False,
                             probe_set: ProbeSet | None = None) -> ReachabilityBound:
    """Empirical sup-output table with monotone rectification."""
    ps = probe_set if probe_set is not None else ProbeSet(sys, plan)
    r_grid = tuple(plan.radii)
    s_grid = (0.0,) + tuple(plan.input_norms)
    t_grid = tuple(np.linspace(0.0, plan.horizon, 9)[1:])

    def worst(datas, t_cap):
        return max((float(_window_sup(data, t_cap)[1]) for data in datas), default=0.0)

    shells = ps.shells([(r, s) for r in r_grid for s in s_grid], by_output=over_initial_output)
    values = np.array([[worst(datas, t_cap) for t_cap in t_grid] for datas in shells]).reshape(
        len(r_grid), len(s_grid), len(t_grid))
    return ReachabilityBound(r_grid, s_grid, t_grid, values, over_initial_output)


def first_crossing_time(sys: SystemModel, x0, u: InputSignal, target_radius: float,
                        plan: SimPlan) -> float:
    """First time the output norm enters the open ball of the given radius.

    Grid detection plus bisection between the bracketing grid points;
    returns +inf when the ball is never entered within the horizon.
    """
    if target_radius <= 0:
        raise DomainError("target radius must be positive")
    traj = simulate(sys, np.asarray(x0, dtype=float), u, plan)
    ynorm = traj.output_norms()
    inside = ynorm < target_radius
    if inside[0]:
        return 0.0
    hits = np.nonzero(inside)[0]
    if hits.size == 0:
        if traj.blow_up is not None:
            raise BlowUpError("trajectory blew up before entering the target ball",
                              traj.blow_up)
        return math.inf
    k = int(hits[0])
    lo, hi = float(traj.times[k - 1]), float(traj.times[k])
    x_lo = traj.states[k - 1]
    t0 = lo

    def norm_at(dt: float) -> float:
        if dt <= 0.0:
            return float(ynorm[k - 1])
        sub = simulate(sys, x_lo, u.shift(t0),
                       replace(plan, horizon=dt, step=min(plan.step, dt)))
        return float(np.linalg.norm(sub.outputs[-1]))

    a, b = 0.0, hi - lo
    for _ in range(30):
        mid = 0.5 * (a + b)
        if norm_at(mid) < target_radius:
            b = mid
        else:
            a = mid
    return t0 + 0.5 * (a + b)
