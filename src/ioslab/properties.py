"""Machine-checkable encodings of the stability and attractivity notions.

Every notion is checked against a *certificate*, a concrete parameter bundle
(comparison functions, decay profiles, convergence-time or continuity
tables, constants) claimed to witness the defining inequality.  Checking is
sampled: a plan expands into a deterministic family of probes (initial
states on radius shells times seeded directions, inputs from a documented
family with constants first), each probe is simulated once, and the
defining inequality is evaluated with its quantifier structure respected.
The keys of a certificate's form (``_SCHEMAS``) pick its quantifier by one
rule (``_form_checker``): the probe source its samples come from and the
checker that reduces them, shared by ``verify`` (over the whole source) and
``falsify`` (over each search batch).  ``_CHECKERS`` lists the rule's pick
for each notion's function form.  The quantifier patterns are:

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

The window notions and the continuity tables share one rule
(``_window_sup``): a trajectory that blows up inside the window is an
unbounded sample there, and so is a witness replay that blows up by the
witness's time.  ``estimate_gain`` fits the same certificate forms
(``_SCHEMAS``) the checkers read, and its delta fit reads windows by the
same rule.

Across quantifiers the notions differ on two axes, each decided by one set:
``_BY_OUTPUT`` holds the notions whose bound or table radius reads the
initial output |y(0)| instead of |x0| (OL, local OL, OOUGB, OOULIM), and
``_OF_STATE`` the notions that bound the state norm |x| instead of |y|
(ISS, IOSS).  Among the level notions, checked against eps + gamma(s),
``_CONVERGENCE`` holds the convergence notions; it decides "after tau"
against "by tau" for the checker and the tau fit alike.

Probes come from the plan or from shells: the (r, s) balls that the
tables (tau, delta and reachability) and the shell-sourced checks (OOULIM,
the continuity tables) read.  A probe's data (``ProbeData``) is the probe
and its simulated row, a ``Trajectory``: every series a check reads is the
row's, under the row's names, and a probe set caches rows only.
``ProbeSet.shells`` is the one shell request: each consumer asks it once
for all its cells, and the misses run as one kernel call.  A probe set the
caller shares between ``verify`` and ``estimate_gain`` calls is simulated
in one kernel call where it can: the first plan-probe request on its empty
cache also simulates the delta fit's first-round continuity shells, which
depend on the plan alone (see ``ProbeSet``).

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
# the level notions whose bound holds at every time after tau (a convergence
# time, tau table mode "uag"); every other level notion visits it by tau ("lim")
_CONVERGENCE = frozenset({PropertyId.OUAG, PropertyId.OGUAG})


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

_BALL, _LEVEL = "ball", "level"


def _snap_down(grid: np.ndarray, x):
    """The level-axis cell rule: the index of the last grid point at or
    below x + 1e-12; -1 when x lies below the grid.  Elementwise on an
    array of queries."""
    return grid.searchsorted(x + 1e-12, side="right") - 1


class _GridTable:
    """A frozen table of monotone data over ball and level axes, with one
    lookup rule.  A ball axis (r, s, a horizon) snaps a query up to the next
    grid point, whose entry covers the whole ball below it; a level axis
    (eps) snaps down to the next tighter level, whose claim implies the
    queried one.  The ball rule is ``comparison.snap_up``, by which
    knot-row decay profiles read their radius cell as well.  Raw values are
    rectified on construction so that each cell holds the worse
    (``_worse``) of itself and every cell it answers for.  Queries beyond
    the grids and non-finite cells raise ``TableGapError``: constructions
    built from a table are only valid inside the certified region.

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
            # the lookup snaps with searchsorted, and rectification runs along the grid
            if not all(0.0 <= a < b for a, b in zip(grid, grid[1:] + (math.inf,))):
                raise DomainError(f"{field} must be finite, >= 0 and strictly increasing")
            object.__setattr__(self, field, grid)
            snap = cf.snap_up if kind == _BALL else _snap_down
            lookup.append((k, snap, np.array(grid), field.removesuffix("_grid")))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        # kept outside the dataclass fields: equality, hash and dicts skip it
        object.__setattr__(self, "_lookup_axes", tuple(lookup))

    def _lookup(self, *coords) -> float:
        """The rectified cell a query reads: one coordinate per declared axis."""
        idx = []
        for k, snap, grid, name in self._lookup_axes:
            x = coords[k]
            if x is None:
                names = ", ".join(axis[3] for axis in self._lookup_axes)
                raise DomainError(f"this table is indexed by ({names})")
            i = int(snap(grid, x))
            if not 0 <= i < len(grid):
                raise TableGapError(f"{name} query {x:g} " + (
                    f"beyond table axis end {grid[-1]:g}" if i >= len(grid)
                    else f"below table axis start {grid[0]:g}"))
            idx.append(i)
        idx = tuple(idx)
        v = float(self.values[idx])
        if not math.isfinite(v):
            raise TableGapError(f"table cell {idx} is unavailable (inconclusive fit)")
        return v

    def _lookup_block(self, *coords) -> np.ndarray:
        """``_lookup`` of arrays of queries broadcast together, with NaN
        wherever ``_lookup`` raises ``TableGapError``."""
        idx, inside = [], True
        for k, snap, grid, _ in self._lookup_axes:
            i = snap(grid, np.asarray(coords[k], dtype=float))
            inside = inside & (i >= 0) & (i < len(grid))
            idx.append(np.clip(i, 0, len(grid) - 1))
        v = self.values[tuple(idx)]
        return np.where(inside & np.isfinite(v), v, math.nan)

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


def _forms(prop: PropertyId) -> tuple:
    """The certificate forms of ``prop``, function form first (none for FC)."""
    forms = _SCHEMAS.get(prop, ())
    return forms if isinstance(forms, tuple) else (forms,)


@dataclass(frozen=True)
class Certificate:
    """Property tag plus the parameter bundle its definition demands.

    Scalar parameters are validated against the class the definition asks
    for; decay candidates run the sampled KL marginal checks on
    construction, on ``check_kl``'s default grids (one rule: r up to 100 or
    to the tree's radius cap).  The zero function is accepted wherever a
    gain is demanded: a zero gain only strengthens the claimed bound.
    """

    property: PropertyId
    params: dict

    def __post_init__(self):
        if self.property == PropertyId.FC:
            raise CertificateError("forward completeness has no bound-form certificate")
        forms = _forms(self.property)
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
                problems = cf.check_kl(value)
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
    """Signed axis directions first, then seeded random unit vectors; in one
    dimension the two signed axes are every unit vector there is."""
    dirs: list[np.ndarray] = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        dirs.append(e.copy())
        e[i] = -1.0
        dirs.append(e.copy())
    rng = np.random.default_rng(seed)
    while dim > 1 and len(dirs) < count:
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
    the levels used by convergence/visit/continuity checks; each of the
    three is finite and strictly increasing (``DomainError`` otherwise),
    since the tables estimated from the plan use them as axes.  Each input
    norm s is probed by one fixed family: the constant s, a step of height
    s switched off at half the horizon, and a 4-piece piecewise-constant
    input of sup norm s drawn from the seed, an int >= 0.  A fixed seed
    makes the expansion fully deterministic; checks reduce their samples to
    the worst margin, ties broken by probe index and then by the order the
    checker lists them in (see ``_Outcome``).
    """

    radii: tuple
    input_norms: tuple = ()
    eps_grid: tuple = (0.1, 0.5)
    horizon: float = 15.0
    sim: SimPlan = None
    directions: int = 3
    seed: int = 2024
    # a violation of at most delta_margin neither falsifies nor blocks "certified"
    delta_margin = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        norms = tuple(float(s) for s in self.input_norms)
        object.__setattr__(self, "eps_grid", tuple(float(e) for e in self.eps_grid))
        if not self.radii:
            raise DomainError("plan needs at least one radius shell")
        if not self.eps_grid:
            raise DomainError("plan needs a nonempty eps grid")
        # all finite: the delta fit halves from min(eps, largest radius) to its
        # floor, and the seeded pw input of norm s is drawn from int(s * 1e6)
        for ok, what in ((all(0.0 <= r < math.inf for r in self.radii), "radii >= 0"),
                         (all(0.0 <= s < math.inf for s in norms), "input norms >= 0"),
                         (all(0.0 < e < math.inf for e in self.eps_grid), "eps levels > 0"),
                         (0.0 < self.horizon < math.inf, "a horizon > 0")):
            if not ok:
                raise DomainError(f"plan needs finite {what}")
        # the grids become table axes (reachability, tau and delta tables)
        for grid, what in ((self.radii, "radii"), (norms, "input norms"),
                           (self.eps_grid, "eps levels")):
            if any(a >= b for a, b in zip(grid, grid[1:])):
                raise DomainError(f"plan needs strictly increasing {what}")
        if not (isinstance(self.directions, int) and self.directions >= 1):
            raise DomainError("plan needs at least one direction")
        # it seeds the NumPy generators that draw directions and pw inputs
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise DomainError(f"plan needs an integer seed >= 0, not {self.seed!r}")
        # the zero input is always probed, so an input norm of 0 adds nothing
        object.__setattr__(self, "input_norms", tuple(s for s in norms if s > 0.0))
        if self.sim is None:
            object.__setattr__(self, "sim", SimPlan(self.horizon))
        elif abs(self.sim.horizon - self.horizon) > 1e-12:
            raise DomainError(f"plan horizon {self.horizon} differs from its sim's "
                              f"{self.sim.horizon}")

    @property
    def s_max(self) -> float:
        return max(self.input_norms) if self.input_norms else 0.0

    @property
    def s_levels(self) -> tuple:
        """The input ladder the probes and tables read: zero, then the norms."""
        return (0.0,) + self.input_norms

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
    """A probe and its simulated row.  Every series a check reads is the
    row's (``Trajectory``), eager or derived once per row."""

    probe: Probe
    traj: Trajectory


_PW_PIECES = 4  # pieces of the seeded piecewise-constant probe input


def _inputs_at_norm(plan: SamplingPlan, input_dim: int, s: float):
    """Input family at exactly sup norm s: a constant, a step switched off at
    half the horizon and a seeded piecewise-constant input, in that order."""
    if input_dim == 0 or s == 0.0:
        return [("zero", InputSignal.zero(input_dim))]
    e0 = np.zeros(input_dim)
    e0[0] = 1.0
    # (seed, level, 0): the trailing 0 fixes which pw input each level draws
    rng = np.random.default_rng((plan.seed, int(s * 1e6), 0))
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


def _initial_output(sys: SystemModel, x0: np.ndarray, u: InputSignal) -> float:
    """|y(0)| from x0 under u, from the output map alone, normed as the
    kernel norms each output row."""
    return float(np.linalg.norm(np.atleast_1d(sys.output(x0, u(0.0))), axis=-1))


class ProbeSet:
    """Deterministic probe expansion plus a per-probe simulation cache.

    ``data_many`` looks probes up and simulates the misses as one kernel
    call; ``shells`` is the one request for the probes of (r, s) balls.
    The one cache holds rows per (x0, u) key: probes on one key share its
    ``simulate_batch`` row, which holds the norm series and no states and
    derives its other series once, and a request hands out (probe, row)
    pairs.

    Prefetch rule: when ``estimate_gain``, or a ``verify`` of plan probes,
    is handed a probe set with an empty cache, its first request simulates
    the plan probes with the delta fit's first-round shells (``_prefetch``),
    so a later OCEP estimate or plan-probe read on the set adds no kernel
    call.  ``all_data``, ``data_many`` and ``shells`` never prefetch, nor
    does a call that builds its own probe set, since it would drop the
    shells unread; a set with anything cached is left alone.
    """

    def __init__(self, sys: SystemModel, plan: SamplingPlan):
        self.sys = sys
        self.plan = plan
        self._cache: dict = {}  # (x0, u) -> its simulate_batch row
        self._dirs = _directions(sys.state_dim, max(plan.directions, 3), plan.seed)
        self._inputs: dict = {}  # s -> the input family at sup norm s
        self.probes = [Probe(i, tuple(x0), u, r, u.norm(), tag, tuple(d)) for i, (x0, u, r, tag, d)
                       in enumerate(self._family(plan.radii, plan.s_levels))]

    def _family(self, radii, levels, by_output: bool = False):
        """The one probe-construction rule: (x0, u, r, tag, direction) per state
        radius x direction x input of each level's family.  A set draws one
        direction list of at least 3 entries and one input family per level;
        plan probes and state shells take the list's first ``plan.directions``
        entries, output-shell candidates all of it."""
        for s in levels:
            if s not in self._inputs:
                self._inputs[s] = _inputs_at_norm(self.plan, self.sys.input_dim, s)
        inputs = [pair for s in levels for pair in self._inputs[s]]
        dirs = self._dirs if by_output else self._dirs[: self.plan.directions]
        for r in radii:
            for d in dirs:
                x0 = np.asarray(self.sys.embed(r, d), dtype=float)
                for tag, u in inputs:
                    yield x0, u, r, tag, d

    def data(self, probe: Probe) -> ProbeData:
        return self.data_many([probe])[0]

    def data_many(self, probes) -> list[ProbeData]:
        """(probe, row) for each probe.  Probes share the row of their (x0, u)
        key, and the missing rows run as one ``simulate_batch`` call (a key
        asked for twice runs once)."""
        keys = [(p.x0, p.u) for p in probes]
        missing = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if missing:
            rows = simulate_batch(self.sys, [x0 for x0, _ in missing], [u for _, u in missing],
                                  self.plan.sim)
            self._cache.update(zip(missing, rows))
        return [ProbeData(p, self._cache[key]) for p, key in zip(probes, keys)]

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
        return [Probe(-1000 - i, tuple(x0), u, r, u.norm(), f"shell:{tag}", tuple(d))
                for i, (x0, u, r, tag, d) in enumerate(self._family((r,), (s,)))]

    def _output_shell(self, r_y: float, s: float) -> list[Probe]:
        """Probes whose initial output norm lies at or below r_y: a ladder
        of state radii is screened by rejection, keeping every candidate
        inside the ball in family order.  Sampling the level set of the
        output map this way is heuristic."""
        ladder = [r_y * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        kept = [(x0, u, tag, d) for x0, u, _, tag, d in self._family(ladder, (s,), by_output=True)
                if _initial_output(self.sys, x0, u) <= r_y + 1e-12]
        return [Probe(-2000 - i, tuple(x0), u, float(self.sys.state_norm(x0)), u.norm(),
                      f"yshell:{tag}", tuple(d))
                for i, (x0, u, tag, d) in enumerate(kept)]


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
        """Re-simulate on [0, t] and return the observed norm (of ``series``)
        at t, or +inf when the run blows up at or before t (as ``_window_sup``
        reads a blow-up inside its window)."""
        traj = simulate(sys, np.asarray(self.x0), self.signal(), replace(sim, horizon=self.t))
        if traj.blow_up is not None and traj.blow_up <= self.t:
            return math.inf
        series = traj.x_norms if self.series == "state" else traj.y_norms
        return float(series[traj.at_time(self.t)])

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
    """Reduction of a check's samples by one tie rule in two stages.

    A checker lists its samples row by row in the order of its input (a row
    is a probe or a continuity row), each row's levels in order, in one or
    more ``add`` calls.  Stage one records each row's decisive sample: its
    least slack (bound - observed), the first listed on a tie.  Stage two
    decides the check from those: the least slack, then the lowest probe
    index, then the row listed first.  So the verdict does not depend on
    how the samples were split into calls, but on the listing order when
    one probe index is in two rows (shell probes, continuity rows,
    ``falsify``'s refinement candidates) or on one probe's levels.  A NaN
    or +inf slack counts as a sample and never decides.
    """

    def __init__(self):
        self.samples = 0
        self.notes: list[str] = []
        self.blown = 0
        # the listed blocks' rows; per add call (after an empty one, for a check with
        # none) per sample: (row in _probes, position, probe index, slack, t, observed, bound)
        self._probes, self._listed = [], [(np.empty(0, int),) * 3 + (np.empty(0),) * 4]

    def add(self, block: "_Block", rows, t, observed, bound):
        """Sample i: row ``rows[i]`` of ``block`` observed ``observed[i]``
        against ``bound[i]`` at time ``t[i]``."""
        self.samples += len(rows)
        self._listed.append((len(self._probes) + rows, block.pos[rows], block.index[rows],
                             bound - observed, t, observed, bound))
        self._probes += block.probes

    def _rows(self) -> list:
        """Stage one: the ``_listed`` columns at each row's decisive sample,
        rows in the order of their positions."""
        cols = [np.concatenate(c) for c in zip(*self._listed)]
        pos, slack = cols[1], cols[3]
        order = np.lexsort((slack, pos))  # stable: by row, then slack with NaN last
        first = order[np.diff(pos[order], prepend=-1) != 0]
        first = first[slack[first] < math.inf]
        return [c[first] for c in cols]

    def by_row(self) -> dict:
        """Position in the checker's input -> (probe, t, observed, bound) of
        that row's decisive sample, for the rows that have one."""
        row, pos, _, _, t, observed, bound = self._rows()
        return {int(p): (self._probes[r], float(a), float(b), float(c))
                for r, p, a, b, c in zip(row, pos, t, observed, bound)}

    def _decide(self):
        """Stage two: (slack, (probe, t, observed, bound)) of the check's
        decisive sample, or (inf, None) when no row has one."""
        row, _, index, slack, t, observed, bound = self._rows()
        if not len(row):
            return math.inf, None
        j = np.lexsort((index, slack))[0]  # stable: ties go to the row listed first
        return slack[j], (self._probes[row[j]], float(t[j]), float(observed[j]), float(bound[j]))

    min_slack = property(lambda self: self._decide()[0])
    worst = property(lambda self: self._decide()[1])

    def verdict(self, prop: PropertyId, plan: SamplingPlan, phash: str) -> Verdict:
        min_slack, worst = self._decide()
        notes = tuple(self.notes) + ((f"{self.blown} probe(s) blew up: forward-completeness "
                                      "failure at those samples",) if self.blown else ())
        if self.samples == 0:
            return Verdict("inconclusive", prop, 0, None, None,
                           "no samples satisfied the property's ball constraints",
                           phash, notes)
        if min_slack >= -plan.delta_margin:
            return Verdict("certified", prop, self.samples, float(min_slack),
                           None, None, phash, notes)
        return Verdict("falsified", prop, self.samples, float(min_slack),
                       Witness.of_probe(prop, *worst), None, phash, notes)


# ---------------------------------------------------------------------------
# per-property checkers
# ---------------------------------------------------------------------------

def _initial(prop: PropertyId, data: ProbeData) -> float:
    """The probe's initial condition as ``prop`` measures it: |y(0)| for
    the notions in ``_BY_OUTPUT``, |x0| for every other."""
    return float(data.traj.y_norms[0]) if prop in _BY_OUTPUT else data.probe.r


def _observed(prop: PropertyId, data: ProbeData) -> np.ndarray:
    """The norm series ``prop`` bounds: |x| for the notions in
    ``_OF_STATE``, |y| for every other."""
    return data.traj.x_norms if prop in _OF_STATE else data.traj.y_norms


def _in_ball(r: float, s: float, radius: float) -> bool:
    return r <= radius + 1e-12 and s <= radius + 1e-12


# padded grid points per block.  A check's temporaries then stay at 64 kB
# or less, which the allocator reuses from check to check; temporaries of a
# whole (P, W) block run to 100 kB and more, and those glibc's malloc maps
# afresh and page-faults on every check (about 10,000 minor faults per
# warm_recheck benchmark pass against 1,900 with this bound, NumPy 2.4)
_BLOCK_SAMPLES = 8192


class _Block:
    """Consecutive rows of one check as padded (P, W) arrays: row i holds
    its probe's series in its first n_i entries and repeats the last entry
    after them.  A padded entry so repeats the sample of the last grid time
    (every bound is evaluated pointwise), and a reduction that keeps the
    first of equal candidates, as ``argmin`` and ``argmax`` do, never picks
    it.  ``pos`` holds each row's position in the checker's input.  Blocks
    are built per check and dropped with it.
    """

    def __init__(self, datas, pos):
        self.datas = datas
        self.pos = np.asarray(pos)
        self.probes = [d.probe for d in datas]
        self.index = np.array([p.index for p in self.probes])
        self.s = np.array([p.s for p in self.probes])
        self.trajs = [d.traj for d in datas]
        times = [traj.times for traj in self.trajs]
        self.width = max(map(len, times))
        self.times = self._padded(times)

    def pad(self, name: str) -> np.ndarray:
        """The series ``name`` of every row (a ``Trajectory`` attribute), padded."""
        return self._padded([getattr(traj, name) for traj in self.trajs])

    def _padded(self, series) -> np.ndarray:
        parts = []
        for row in series:
            parts.append(row)
            if len(row) < self.width:
                parts.append(row[-1:].repeat(self.width - len(row)))
        return np.concatenate(parts).reshape(len(series), self.width)


def _blocks(datas, pos):
    """(first row, block) over ``datas`` (at ``pos`` in the checker's input)
    in blocks of at most ``_BLOCK_SAMPLES`` padded points (one row at least)."""
    step = max(1, _BLOCK_SAMPLES // max((len(d.traj.times) for d in datas), default=1))
    for i in range(0, len(datas), step):
        yield i, _Block(datas[i:i + step], pos[i:i + step])


def _pointwise_bound(cert: Certificate, block: _Block) -> np.ndarray:
    """Bound over the block's time grid for pointwise properties (a column
    where it is constant in t)."""
    p = cert.property
    t = block.times
    r = np.array([probe.r for probe in block.probes])[:, None]
    c = cert.get("c", 0.0)
    if "gamma2" in cert.params:  # IOSS
        g1, g2 = cert["gamma1"], cert["gamma2"]
        return cert["beta"](r, t) + g1(block.pad("u_sup")) + g2(block.pad("y_sup"))
    if "sigma1" in cert.params:  # the output-map bounds
        s1, g1 = cert["sigma1"], cert["gamma1"]
        return s1(block.pad("x_norms")) + g1(block.pad("u_norms")) + c
    if "beta" in cert.params:
        # beta(r, t) + gamma(s): IOpS adds c, OCAG shifts r by c
        shift, offset = (c, 0.0) if p == PropertyId.OCAG else (0.0, c)
        return cert["beta"](r + shift, t) + cert["gamma"](block.s[:, None]) + offset
    # sigma(initial condition) + gamma(s) + c, constant in t: the OL and OUGS families
    initial = np.array([_initial(p, data) for data in block.datas])
    return (cert["sigma"](initial) + cert["gamma"](block.s) + c)[:, None]


def _in_cert_ball(cert: Certificate, r: float, y0: float, s: float) -> bool:
    """Does a probe with |x0| = r, |y(0)| = y0 and |u| = s lie in the
    certificate's ball: r (y0 for OBORS) and s up to its ``radius``, or s
    up to its ``s_max``?"""
    radius = cert.get("radius")
    if radius is not None:
        return _in_ball(y0 if cert.property == PropertyId.OBORS else r, s, radius)
    s_max = cert.get("s_max")
    return s_max is None or s <= s_max + 1e-12


def _probe_filter(cert: Certificate, data: ProbeData) -> bool:
    """``_in_cert_ball`` of a simulated probe."""
    return _in_cert_ball(cert, data.probe.r, data.traj.y_norms[0], data.probe.s)


def _live(cert: Certificate, datas, out: _Outcome):
    """(positions in ``datas``, data) of the probes in the certificate's
    ball that did not blow up; the blown ones are counted into ``out``."""
    kept = [i for i, data in enumerate(datas) if _probe_filter(cert, data)]
    pos = [i for i in kept if datas[i].traj.blow_up is None]
    out.blown += len(kept) - len(pos)
    return pos, [datas[i] for i in pos]


def _check_pointwise(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    pos, live = _live(cert, datas, out)
    # a table-backed beta makes no claim beyond its radius grid, and only a
    # probe's radius decides whether its row reaches past it: radius -> the
    # reason its rows are skipped, or None
    reasons, skipped = {}, []
    for _, block in _blocks(live, pos):
        try:
            bound = _pointwise_bound(cert, block)
        except TableGapError:
            for data in block.datas:
                if data.probe.r not in reasons:
                    try:
                        _pointwise_bound(cert, _Block([data], [0]))
                        reasons[data.probe.r] = None
                    except TableGapError as exc:
                        reasons[data.probe.r] = str(exc)  # not exc: its traceback pins frames
            skipped += [data.probe.r for data in block.datas if reasons[data.probe.r]]
            kept = [i for i, data in enumerate(block.datas) if reasons[data.probe.r] is None]
            if not kept:
                continue
            block = _Block([block.datas[i] for i in kept], block.pos[kept])
            bound = _pointwise_bound(cert, block)
        observed = block.pad("x_norms" if cert.property in _OF_STATE else "y_norms")
        bound = np.broadcast_to(bound, observed.shape)
        k = np.argmin(bound - observed, axis=1)
        rows = np.arange(len(k))
        out.add(block, rows, block.times[rows, k], observed[rows, k], bound[rows, k])
    if skipped:
        out.notes.append(f"{len(skipped)} probe(s) beyond the certified radius skipped "
                         f"(first at r = {skipped[0]:g}: {reasons[skipped[0]]})")


def _window_sup(data: ProbeData, horizon: float) -> tuple[float, float]:
    """(t, |y(t)|) at the largest |y| up to ``horizon``.  A blow-up at or
    before the horizon is an unbounded excursion inside the window, the
    worst possible sample: (blow-up time, inf)."""
    traj = data.traj
    if traj.blow_up is not None and traj.blow_up <= horizon:
        return traj.blow_up, math.inf
    k = np.argmax(np.where(traj.times <= horizon + 1e-12, traj.y_norms, -math.inf))
    return traj.times[k], traj.y_norms[k]


def _check_window_rows(cert: Certificate, rows, plan: SamplingPlan, out: _Outcome, pos=None):
    """Window rows: for each (bound, horizon, probe) the sup of |y| up to the
    horizon must stay below the bound, row by row as ``_window_sup`` takes
    it.  The continuity rows (OCEP, table OULS) are (eps, horizon, probe) for
    each probe from a delta ball.  ``pos`` places the rows in a longer input."""
    if not rows:
        return
    bounds, horizons, datas = zip(*rows)
    bounds, horizons = np.array(bounds, dtype=float), np.array(horizons, dtype=float)
    blow_up = np.array([math.inf if d.traj.blow_up is None else d.traj.blow_up for d in datas])
    for lo, block in _blocks(datas, range(len(rows)) if pos is None else pos):
        rows = np.arange(len(block.datas))
        horizon, burst = horizons[lo + rows], blow_up[lo + rows] <= horizons[lo + rows]
        ynorm = block.pad("y_norms")
        inside = block.times <= horizon[:, None] + 1e-12
        k = np.argmax(np.where(inside, ynorm, -math.inf), axis=1)
        out.add(block, rows, np.where(burst, blow_up[lo + rows], block.times[rows, k]),
                np.where(burst, math.inf, ynorm[rows, k]), bounds[lo + rows])


def _check_sup_bound(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    """Reachability bounds: sup over t < horizon of |y| against a constant."""
    pos = [i for i, data in enumerate(datas) if _probe_filter(cert, data)]
    _check_window_rows(cert, [(cert["bound"], cert["horizon"], datas[i]) for i in pos],
                       plan, out, pos)


def _level_samples(datas, pos, levels, tau, gamma, out: _Outcome, after: bool):
    """One sample per (probe, level) whose time mask holds a grid time: the
    largest |y| at or after tau (``after``, convergence) or the smallest
    at or before tau (visit), against eps + gamma(s).  tau is (P, L), NaN
    where the cell is skipped; samples are listed probe by probe."""
    for lo, block in _blocks(datas, pos):
        ynorm = block.pad("y_norms")
        cells = tau[lo:lo + len(block.datas)]
        k = np.zeros(cells.shape, dtype=int)
        hit = np.zeros(cells.shape, dtype=bool)
        for j in range(len(levels)):
            at = cells[:, j, None]
            if after:
                mask = block.times >= at - 1e-12
                k[:, j] = np.argmax(np.where(mask, ynorm, -math.inf), axis=1)
            else:
                mask = block.times <= at + 1e-12
                k[:, j] = np.argmin(np.where(mask, ynorm, math.inf), axis=1)
            hit[:, j] = mask.any(axis=1)
        rows, j = np.nonzero(hit)
        k = k[rows, j]
        bound = np.asarray(levels, dtype=float)[j] + gamma(block.s)[rows]
        out.add(block, rows, block.times[rows, k], ynorm[rows, k], bound)


def _check_levels(cert: Certificate, datas, plan: SamplingPlan, out: _Outcome):
    """The asymptotic-gain and limit notions: eps + gamma(s) must bound |y|
    at every grid time at or after the tabulated tau (the notions in
    ``_CONVERGENCE``, whose cells with tau beyond the horizon are skipped)
    or at some grid time at or before it.  Without a table each plan level
    must be visited by the plan horizon.  A form tabulated over (eps, r)
    alone is input-global: it is exercised up to the largest input norm."""
    table: ConvergenceTimeTable | None = cert.get("tau_table")
    pos, live = _live(cert, datas, out)
    if table is None:
        levels, tau = plan.eps_grid, np.full((len(live), len(plan.eps_grid)), plan.horizon)
    else:
        initial = np.array([_initial(cert.property, data) for data in live])
        levels, s = table.eps_grid, np.array([data.probe.s for data in live])
        tau = table._lookup_block(np.asarray(levels)[None, :], initial[:, None], s[:, None])
    after = cert.property in _CONVERGENCE
    late = (tau > plan.horizon + 1e-12) & after
    if late.any():
        i, j = np.argwhere(late)[0]
        out.notes.append(f"{int(late.sum())} cell(s) skipped where tau exceeds the horizon "
                         f"(first tau({levels[j]:g}, {initial[i]:g}) = {tau[i, j]:g})")
        tau[late] = math.nan
    _level_samples(live, pos, levels, tau, cert["gamma"], out, after)
    if table is None:
        out.notes.append("visit times capped by the plan horizon: per-trajectory quantifier "
                         "is checked as a finite-horizon proxy")
    elif _forms(cert.property)[0]["tau_table"] == "tau_table_r":
        out.notes.append(f"input-global claim certified up to s_max = "
                         f"{cert.get('s_max', plan.s_max):g}")


# ---------------------------------------------------------------------------
# probe sources and the checker rule
# ---------------------------------------------------------------------------

def _plan_probes(cert: Certificate, ps: ProbeSet, plan: SamplingPlan, out: _Outcome):
    return ps.all_data()


def _initial_output_shells(cert: Certificate, ps: ProbeSet, plan: SamplingPlan,
                           out: _Outcome):
    """Probes from the initial-output balls the visit table is indexed by."""
    cells = [(r_y, s) for r_y in cert["tau_table"].r_grid for s in plan.s_levels]
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


def _checker(cert: Certificate):
    """(probe source, checker) for ``cert``, read off its parameter keys."""
    return _form_checker(cert.property, cert.params)


def _form_checker(prop: PropertyId, form: dict):
    """The one rule that picks a check from the keys of a certificate form,
    as ``estimate_gain`` picks its fit: a ``delta_table`` checks continuity
    rows on delta shells, a ``bound`` the window sup of a reachability ball,
    a ``beta``, ``sigma`` or ``sigma1`` bound every grid time, and a bare
    gain its levels, on initial-output shells for the notions in
    ``_BY_OUTPUT`` and on the plan probes for every other."""
    if "delta_table" in form:
        return _delta_row_shells, _check_window_rows
    if "bound" in form:
        return _plan_probes, _check_sup_bound
    if form.keys() & {"beta", "sigma", "sigma1"}:
        return _plan_probes, _check_pointwise
    return (_initial_output_shells if prop in _BY_OUTPUT else _plan_probes), _check_levels


# property -> (probe source, checker) of its function form
_CHECKERS = {prop: _form_checker(prop, _forms(prop)[0]) for prop in _SCHEMAS}


# ---------------------------------------------------------------------------
# public checking API
# ---------------------------------------------------------------------------

def _probe_set(sys: SystemModel, plan: SamplingPlan, probe_set: ProbeSet | None) -> ProbeSet:
    """``probe_set``, or a fresh one for (sys, plan); a set built for another
    system or plan is refused, since its samples would pass for ``plan``'s."""
    if probe_set is None:
        return ProbeSet(sys, plan)
    if probe_set.sys is not sys or (probe_set.plan is not plan and probe_set.plan != plan):
        raise DomainError("the probe set was built for another system or plan")
    return probe_set


def verify(sys: SystemModel, cert: Certificate, plan: SamplingPlan,
           probe_set: ProbeSet | None = None) -> Verdict:
    """Check the certificate's defining inequality over the probes of the
    check its form's keys pick (``_checker``): the plan's, or shells of its
    own balls.  A fresh ``probe_set`` simulates its continuity shells with
    the plan probes (``_prefetch``)."""
    source, check = _checker(cert)
    ps = _probe_set(sys, plan, probe_set)
    if probe_set is not None and source is _plan_probes:
        _prefetch(ps)
    out = _Outcome()
    check(cert, source(cert, ps, plan, out), plan, out)
    return out.verdict(cert.property, plan, plan_hash(plan))


def falsify(sys: SystemModel, cert: Certificate, budget: int,
            plan: SamplingPlan) -> Verdict:
    """Search for a maximal-margin witness within a simulation budget.

    The plan's probes in the certificate's ball are swept first (constants
    before richer inputs), as far as the budget reaches, in one simulation
    batch; afterwards the worst swept probes are refined by local grid
    search over the initial-state radius, the direction on their shell and
    the input amplitude, one batch per round, with the violation time taken
    as the worst grid time of each refined trajectory.  One checker call
    scores each batch.  The verdict's ``samples`` counts probe requests, so
    it bounds the simulations run and never exceeds ``budget``.  The search
    is deterministic for a fixed plan seed.  Continuity-table certificates
    are not supported: their checker needs the row each probe was drawn
    for.
    """
    _, check = _checker(cert)
    if check is _check_window_rows:
        raise CertificateError(f"falsification unsupported for {cert.property.value}")
    phash = plan_hash(plan)
    ps = ProbeSet(sys, plan)
    # the ball is known before any simulation: |y(0)| is the output map at x0
    swept = [p for p in ps.probes
             if _in_cert_ball(cert, p.r, _initial_output(sys, np.asarray(p.x0), p.u), p.s)]
    swept = swept[: max(budget, 0)]
    spent = len(swept)
    ranked = sorted(_scored(cert, plan, ps, swept).values(),
                    key=lambda item: (-item[0], item[1].index))
    if not ranked:
        return Verdict("inconclusive", cert.property, spent, None, None,
                       "no admissible probes for this certificate", phash)

    # multi-start local refinement from the three best swept probes of distinct
    # radii, so a degenerate near-zero basin cannot shadow a genuine violation
    starts = {}
    for item in ranked:
        starts.setdefault(round(item[1].r, 9), item)
    best = ranked[0]
    for start in list(starts.values())[:3]:
        if spent >= budget:
            break
        refined, spent = _refine_from(sys, cert, plan, ps, start, spent, budget)
        if refined[0] > best[0]:
            best = refined
    margin = best[0]
    if margin > plan.delta_margin:
        return Verdict("falsified", cert.property, spent, float(-margin),
                       Witness.of_probe(cert.property, *best[1:]), None, phash)
    return Verdict("inconclusive", cert.property, spent, float(-margin), None,
                   f"budget exhausted, max slack = {-margin:.6g}", phash)


def _scored(cert, plan, ps, probes) -> dict:
    """Position in ``probes`` -> (observed - bound, probe, t, observed, bound)
    of the probe's decisive sample, from one checker call over the batch; a
    probe without one (outside the ball, blown up, no finite slack) is absent."""
    out = _Outcome()
    _checker(cert)[1](cert, ps.data_many(probes), plan, out)
    return {pos: (observed - bound, probes[pos], t, observed, bound)
            for pos, (_, t, observed, bound) in out.by_row().items()}


def _refine_from(sys, cert, plan, ps, start, spent, budget):
    """Hill-climb from a swept probe.  Each round's candidates move the
    round-start best's radius, direction or amplitude, run as one batch cut
    to the remaining budget, and the first of the largest margin replaces a
    smaller best.  Amplitudes are absolute factors on the swept input, so
    accepted steps do not compound."""
    best = start
    base_u = start[1].u
    span_r = _initial_span(plan.radii, start[1].r)
    dir_best = np.asarray(start[1].direction) / np.linalg.norm(start[1].direction)
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
            u = base_u.scale(amp_new)
            cands.append(Probe(probe.index, tuple(x0), u, r_new, u.norm(),
                               probe.tag + "+", tuple(d_new)))
        spent += len(cands)
        scored = _scored(cert, plan, ps, cands)
        top = max(scored, key=lambda pos: scored[pos][0], default=None)
        if top is not None and scored[top][0] > best[0]:
            best, (_, dir_best, amp), stale = scored[top], moves[top], 0
        else:
            stale += 1
        span_r *= 0.5
    return best, spent


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


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def _check_tau_mode(mode: str) -> None:
    if mode not in ("uag", "lim"):
        raise DomainError("mode must be 'uag' or 'lim'")


def _shell_tau(datas, eps: float, mode: str, gamma_ref: ScalarFn):
    """Worst convergence ("uag": just after the last miss) or visit ("lim":
    the first hit) time of ``eps + gamma_ref(s)`` over a shell of probes.

    Returns (tau, None), or (None, offending ProbeData) when some probe
    blows up or never satisfies the bound within the horizon.
    """
    worst = 0.0
    for data in datas:
        traj = data.traj
        if traj.blow_up is not None:
            return None, data
        ok = traj.y_norms <= eps + gamma_ref(data.probe.s) + 1e-12
        if mode == "uag":
            if not ok[-1]:
                return None, data
            bad = np.nonzero(~ok)[0]
            tau = 0.0 if bad.size == 0 else float(traj.times[bad[-1] + 1])
        else:
            hits = np.nonzero(ok)[0]
            if hits.size == 0:
                return None, data
            tau = float(traj.times[hits[0]])
        worst = max(worst, tau)
    return worst, None


def estimate_tau(sys: SystemModel, eps: float, r: float, s: float, mode: str,
                 plan: SamplingPlan, gamma_ref: ScalarFn,
                 probe_set: ProbeSet | None = None):
    """Empirical convergence ("uag") or visit ("lim") time for one cell.

    Returns (tau, None) on success or (None, offending ProbeData) when some
    trajectory never satisfies the bound within the horizon.
    """
    _check_tau_mode(mode)
    ps = _probe_set(sys, plan, probe_set)
    return _shell_tau(ps.shells([(r, s)])[0], eps, mode, gamma_ref)


def build_tau_table(sys: SystemModel, plan: SamplingPlan, mode: str,
                    gamma_ref: ScalarFn, s_grid=None, probe_set: ProbeSet | None = None,
                    over_initial_output: bool = False) -> ConvergenceTimeTable:
    """Tabulate empirical times over plan grids; unreachable cells become inf."""
    _check_tau_mode(mode)
    ps = _probe_set(sys, plan, probe_set)
    s_levels = tuple(s_grid) if s_grid is not None else plan.s_levels
    shells = _table_shells(ps, s_levels, over_initial_output)
    taus = [_shell_tau(shell, eps, mode, gamma_ref)[0] for eps in plan.eps_grid for shell in shells]
    vals = np.array([math.inf if tau is None else tau for tau in taus]).reshape(
        len(plan.eps_grid), len(plan.radii), len(s_levels))
    if s_grid is None:
        return ConvergenceTimeTable(plan.eps_grid, plan.radii, None, vals.max(axis=2), mode=mode)
    return ConvergenceTimeTable(plan.eps_grid, plan.radii, s_levels, vals, mode=mode)


def _table_shells(ps: ProbeSet, s_levels, over_initial_output: bool) -> list[list[ProbeData]]:
    """The probes behind each (r, s) cell of a table over the plan's radii,
    r-major.  Over initial output, the checks read a probe in the row its own
    |y(0)| snaps up to, so row r_y holds every drawn probe of level s, from
    any shell, whose |y(0)| is r_y or below."""
    radii, n_s = ps.plan.radii, len(s_levels)
    shells = ps.shells([(r, s) for r in radii for s in s_levels], by_output=over_initial_output)
    if not over_initial_output:
        return shells
    drawn = [[data for shell in shells[k::n_s] for data in shell] for k in range(n_s)]
    return [[data for data in drawn[k] if data.traj.y_norms[0] - 1e-12 <= r]
            for r in radii for k in range(n_s)]


def _fit_decay_rate(series_list, horizon: float) -> float:
    """Shared exponential rate read off the late-time window of each probe.

    A probe that has already converged below numerical noise does not
    constrain the rate; a probe whose tail fails to shrink forces the rate
    to zero, which is reported as an estimation failure (no separable decay
    envelope exists on such data).
    """
    rates = []
    for times, y in series_list:
        k1 = int(np.argmin(np.abs(times - 0.7 * horizon)))
        y1, y2, span = float(y[k1]), float(y[-1]), float(times[-1] - times[k1])
        # a probe decayed to zero before or inside the window constrains nothing
        if span > 0 and y1 > 1e-12 and y2 > 1e-12:
            rates.append(0.0 if y2 >= y1 else math.log(y1 / y2) / span)
    if not rates:
        return 1.0
    a = 0.9 * min(rates)
    if a <= 5e-3:
        raise EstimationError(
            "output profiles do not decay within the horizon: no separable "
            "decay envelope exists on this data"
        )
    return a


def _fit_separable_kl(datas, series, plan: SamplingPlan) -> KLFn:
    """Radial envelope of max_t series(t) * exp(a t) times a decaying profile.

    With the rate fixed from the tails, the radial part absorbs delayed
    excursions exactly: series(t) <= sigma(r) * exp(-a t) holds at every
    sample by construction of the envelope.
    """
    a = _fit_decay_rate([(d.traj.times, series(d)) for d in datas], plan.horizon)
    sigma = _gain_envelope([d.probe.r for d in datas],
                           [np.max(series(d) * np.exp(a * d.traj.times)) for d in datas])
    return cf.kl_separable(sigma, cf.compose(cf.exp_decay(), cf.scale(a)))


def _gain_envelope(x, v) -> ScalarFn:
    """Class Kinf envelope through (0, 0) of the largest value v[i], clamped
    at 0, per abscissa x[i]; (1, 0) stands in when no abscissa is off the
    origin.  Every envelope ``estimate_gain`` fits is this one: sigma,
    sigma1, the radial part of a KL fit and the input gains."""
    x = np.append(0.0, np.asarray(x, dtype=float) + 0.0)  # + 0.0: a -0.0 joins the origin
    v = np.asarray(v, dtype=float)
    v = np.append(0.0, np.where(v > 0.0, v, 0.0))
    if not x.any():
        x, v = np.append(x, 1.0), np.append(v, 0.0)
    return cf.fit_monotone_envelope(np.column_stack((x, v)), force_zero_at_zero=True)


def _largest_per(x, v):
    """The distinct values of x, and the largest v (NaN ignored) at each."""
    distinct, at = np.unique(x, return_inverse=True)
    top = np.full(len(distinct), -math.inf)
    np.fmax.at(top, at, v)
    return distinct, top


def _residual_gain(prop, params: dict, plan: SamplingPlan, ps: ProbeSet) -> ScalarFn:
    """Envelope against s of each plan probe's margin (observed - bound at
    its decisive sample, scored as ``falsify`` scores a batch) under the
    certificate ``params`` with a zero input gain: so the gain is read off
    the samples ``verify`` reads, and a probe without one constrains nothing."""
    scored = _scored(Certificate(prop, dict(params)), plan, ps, ps.probes).values()
    return _gain_envelope([probe.s for _, probe, *_ in scored],
                          [margin for margin, *_ in scored])


def estimate_gain(sys: SystemModel, prop: PropertyId, plan: SamplingPlan,
                  probe_set: ProbeSet | None = None, radius: float | None = None,
                  table_form: bool = False) -> Certificate:
    """Fit a certificate from simulation data; over-approximates by envelopes.

    The keys of ``prop``'s certificate form (``_SCHEMAS``; its table form
    with ``table_form``) pick the fit, as they pick the checkers' bounds: a
    ``delta_table`` from continuity shells alone; ``sigma1``, ``sigma`` (on
    the ball of ``radius``, by default the largest plan radius, where the
    form has one) and ``beta`` envelopes from the zero-input probes; and
    ``gamma`` alone, an asymptotic gain with its tau table.  An input gain
    is fitted to the margins the checker reports for the certificate with
    that gain set to zero (the output-map bounds' gamma1 per input value),
    so the result verifies on the same plan.  Before any simulation, OAG
    and a form no fit follows are refused with ``EstimationError``, and a
    ``radius`` or ``table_form`` the form cannot use with ``DomainError``.
    A fresh ``probe_set`` simulates its continuity shells with the plan
    probes (``_prefetch``).
    """
    forms = _forms(prop) or ({},)
    if table_form and len(forms) == 1:
        raise DomainError(f"{prop.value} has no table form")
    form = forms[-1 if table_form else 0]
    if radius is not None and "radius" not in form:
        raise DomainError(f"{prop.value}: the certificate form has no radius")
    if prop == PropertyId.OAG:
        raise EstimationError(
            "per-trajectory visit times over unbounded inputs are not estimable "
            "from bounded-horizon data; use the uniform variants instead"
        )
    if not form.keys() & {"delta_table", "sigma1", "sigma", "beta", "gamma"}:
        raise EstimationError(f"no estimator for property {prop.value}")
    ps = _probe_set(sys, plan, probe_set)
    if probe_set is not None:
        _prefetch(ps)
    if "delta_table" in form:
        return Certificate(prop, {"delta_table": _fit_delta_table(
            plan, ps, with_tau=prop == PropertyId.OCEP)})
    live = [d for d in ps.all_data() if d.traj.blow_up is None]
    if not live:
        raise EstimationError("every probe blew up; nothing to fit")

    if not form.keys() & {"sigma1", "sigma", "beta"}:
        params = {"gamma": _fit_asymptotic_gain(live, plan)}
        if "tau_table" in form:
            mode = "uag" if prop in _CONVERGENCE else "lim"
            by_output = prop in _BY_OUTPUT
            s_grid = None if by_output or form["tau_table"] == "tau_table_r" else plan.s_levels
            table = params["tau_table"] = build_tau_table(
                sys, plan, mode, params["gamma"], s_grid=s_grid, probe_set=ps,
                over_initial_output=by_output)
            if np.all(~np.isfinite(table.values)):
                raise EstimationError(
                    f"{prop.value}: no finite convergence cell within the horizon")
        if "s_max" in form:
            params["s_max"] = max(plan.s_max, 1e-9)
        return Certificate(prop, params)

    ball = (max(plan.radii) if radius is None else radius) if "radius" in form else math.inf
    zero_in = [d for d in live if d.probe.s == 0.0 and _in_ball(d.probe.r, 0.0, ball)]
    if not zero_in:
        raise EstimationError(f"{prop.value}: no zero-input probe survived to fit on")
    if "sigma1" in form:
        sigma1 = _gain_envelope(np.concatenate([d.traj.x_norms for d in zero_in]),
                                np.concatenate([d.traj.y_norms for d in zero_in]))
        # residuals per instantaneous input value, which no row's one decisive
        # sample gives; a piecewise-constant input takes few values, so its
        # largest residual per value keeps the fit's arrays short
        tops = [_largest_per(row.u_norms, np.maximum(row.y_norms - sigma1(row.x_norms), 0.0))
                for row in (d.traj for d in live)]
        params = {"sigma1": sigma1, "gamma1": _gain_envelope(*map(np.concatenate, zip(*tops)))}
        return Certificate(prop, params | ({"c": 0.0} if "c" in form else {}))

    # IOSS's gamma1 is fitted against s, the largest |u restricted to [0, t]|
    # of a row: every plan input takes its sup norm before the horizon
    gain = "gamma1" if "gamma1" in form else "gamma"
    if "sigma" in form:
        params = {"sigma": _gain_envelope([_initial(prop, d) for d in zero_in],
                                          [np.max(d.traj.y_norms) for d in zero_in])}
    else:
        params = {"beta": _fit_separable_kl(zero_in, lambda d: _observed(prop, d), plan)}
    params[gain] = cf.zero()
    params |= {k: v for k, v in (("radius", ball), ("gamma2", cf.identity()), ("c", 0.0))
               if k in form}
    params[gain] = _residual_gain(prop, params, plan, ps)
    return Certificate(prop, params | {"c": 1e-9} if "sigma" in form and "c" in form else params)


def _fit_asymptotic_gain(datas, plan: SamplingPlan) -> ScalarFn:
    """Late-window sup of |y| for driven probes, enveloped against the norm.

    Zero-input tails are deliberately excluded: covering them is the
    convergence table's job (a non-vanishing undriven tail simply leaves the
    table cells unreachable), while the gain must vanish at zero.
    """
    cut = 0.8 * plan.horizon
    driven = [d for d in datas if d.probe.s != 0.0 and d.traj.times[-1] >= cut]
    return _gain_envelope([d.probe.s for d in driven],
                          [np.max(d.traj.y_norms[d.traj.times >= cut]) for d in driven])


def _fit_delta_table(plan: SamplingPlan, ps: ProbeSet, with_tau: bool) -> DeltaTable:
    """Largest delta per (eps, horizon) row: halve from min(eps, largest
    radius) until no probe of the delta and delta / 2 shells exceeds 0.98
    eps up to the horizon, as ``_window_sup`` reads the window (a blow-up
    inside it is +inf, one after it is not).  A row whose next halving would
    drop below 1e-9 gets delta = 0 (an empty row), so every returned
    delta was checked.

    The rows still halving are requested together, with their shells at
    delta, delta / 2 and delta / 4, so one kernel call decides two
    halvings: a failed delta's delta / 2 shell is the next candidate's
    delta shell."""
    horizons, rows, deltas = _delta_rows(plan, with_tau)

    def fails(i, datas) -> bool:
        eps, horizon = rows[i]
        return any(_window_sup(data, horizon)[1] > eps * 0.98 for data in datas)

    def halve(i) -> bool:
        deltas[i] = 0.0 if deltas[i] * 0.5 < 1e-9 else deltas[i] * 0.5
        return deltas[i] > 0

    halving = [i for i, delta in enumerate(deltas) if delta > 0]
    while halving:
        shells = ps.shells(_halving_cells(ps, [deltas[i] for i in halving]))
        # fail at delta, halve, fail at delta / 2, halve: still halving
        halving = [i for i, a, b, c in zip(halving, shells[::3], shells[1::3], shells[2::3])
                   if fails(i, a + b) and halve(i) and fails(i, b + c) and halve(i)]
    vals = np.array(deltas).reshape(len(plan.eps_grid), len(horizons))
    return DeltaTable(plan.eps_grid, horizons if with_tau else None,
                      vals if with_tau else vals[:, 0])


def _delta_rows(plan: SamplingPlan, with_tau: bool):
    """(horizons, rows, deltas) of a delta fit: its (eps, horizon) rows and
    the delta each row's halving starts from, min(eps, largest radius)."""
    horizons = plan.tau_grid() if with_tau else (plan.horizon,)
    rows = [(eps, horizon) for eps in plan.eps_grid for horizon in horizons]
    return horizons, rows, [min(eps, max(plan.radii)) for eps, _ in rows]


def _halving_cells(ps: ProbeSet, deltas) -> list[tuple]:
    """The (r, s) cells of one halving round of a delta fit: the shells at
    delta, delta / 2 and delta / 4 of each delta, three cells per delta."""
    return [cell for delta in deltas
            for cell in _delta_cells(ps, delta) + _delta_cells(ps, delta * 0.5)[1:]]


def _prefetch(ps: ProbeSet) -> None:
    """The prefetch rule of ``ProbeSet``: while the cache is empty, simulate
    the plan probes and the delta fit's first-round shells as one kernel
    call.  On every zoo plan those two halvings decide the OCEP estimate."""
    if not ps._cache:
        _, _, deltas = _delta_rows(ps.plan, False)
        deltas = [delta for delta in deltas if delta > 0]
        ps.data_many(ps.probes + [probe for r, s in _halving_cells(ps, deltas)
                                  for probe in ps._state_shell(r, s)])


# ---------------------------------------------------------------------------
# reachability and crossing times
# ---------------------------------------------------------------------------

def build_reachability_bound(sys: SystemModel, plan: SamplingPlan,
                             over_initial_output: bool = False,
                             probe_set: ProbeSet | None = None) -> ReachabilityBound:
    """Empirical sup-output table with monotone rectification."""
    ps = _probe_set(sys, plan, probe_set)
    t_grid = tuple(np.linspace(0.0, plan.horizon, 9)[1:])

    def worst(datas, t_cap):
        return max((float(_window_sup(data, t_cap)[1]) for data in datas), default=0.0)

    shells = _table_shells(ps, plan.s_levels, over_initial_output)
    values = np.array([[worst(datas, t_cap) for t_cap in t_grid] for datas in shells]).reshape(
        len(plan.radii), len(plan.s_levels), len(t_grid))
    return ReachabilityBound(plan.radii, plan.s_levels, t_grid, values, over_initial_output)


def first_crossing_time(sys: SystemModel, x0, u: InputSignal, target_radius: float,
                        plan: SimPlan) -> float:
    """First time the output norm enters the open ball of the given radius.

    Grid detection plus, in continuous time, bisection between the
    bracketing grid points; a discrete-time system enters the ball at the
    first grid time inside it.  Returns +inf when the ball is never entered
    within the horizon.
    """
    if target_radius <= 0:
        raise DomainError("target radius must be positive")
    traj = simulate(sys, np.asarray(x0, dtype=float), u, plan)
    inside = traj.y_norms < target_radius
    if inside[0]:
        return 0.0
    hits = np.nonzero(inside)[0]
    if hits.size == 0:
        if traj.blow_up is not None:
            raise BlowUpError("trajectory blew up before entering the target ball",
                              traj.blow_up)
        return math.inf
    k = int(hits[0])
    if sys.time_set == "discrete":  # no time between two steps to bisect
        return float(traj.times[k])
    lo, hi = float(traj.times[k - 1]), float(traj.times[k])
    x_lo = traj.states[k - 1]
    t0 = lo

    def norm_at(dt: float) -> float:
        sub = simulate(sys, x_lo, u.shift(t0),
                       replace(plan, horizon=dt, step=min(plan.step, dt)))
        return float(sub.y_norms[-1])

    a, b = 0.0, hi - lo
    for _ in range(30):
        mid = 0.5 * (a + b)
        if norm_at(mid) < target_radius:
            b = mid
        else:
            a = mid
    return t0 + 0.5 * (a + b)
