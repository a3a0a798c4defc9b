"""Built-in example systems with known verdicts and falsification witnesses.

Every entry couples a system factory with
  * expected property verdicts (holds / fails / unknown),
  * witness recipes for each expected failure, replayable through the
    simulator,
  * analytic certificates for the properties known to hold in closed form,
  * a default sampling plan sized so the interesting behaviour is visible.

Systems
-------
sin_output   1-d contraction with a sine read-out: the output decays like
             the state but revisits zero, so initial-output bounds say
             nothing about the future output.
rotation     planar rotation with the first coordinate as output: the
             output keeps returning to the initial radius, so it visits
             zero infinitely often without ever settling.
sat_polar    saturated spiral: the radius contracts (linearly far out,
             exponentially near the origin) while the angle turns at a
             capped rate; the output mixes one Cartesian coordinate with a
             saturated second coordinate, so trajectories that start with
             small output can swing to large output before contracting.
l2_blowup    truncation of a sequence system whose n-th coordinate is
             pumped by the 0-th: single-coordinate seeds push coordinate n
             up to level n within time 1, so reachability sets over a fixed
             ball grow without bound in the truncation width.
l2_timewarp  the same system driven through an input-dependent time
             dilation 1/(1+u^2): inputs slow convergence arbitrarily, which
             separates input-ball-uniform from input-global convergence.
lin_scalar   dx = -x + u with full-state output; the positive control whose
             certificates are all classical.

The blow-up comparison seed c (the initial value making dz = -2z + z^2
explode exactly at time 1) is computed from the Riccati closed form at
import time rather than hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import comparison as cf
from .errors import DomainError
from .properties import Certificate, PropertyId, SamplingPlan
from .signals import InputSignal
from .systems import SimPlan, SystemModel, full_state_wrap

__all__ = [
    "ZooEntry",
    "WitnessRecipe",
    "make_example",
    "known_witness",
    "zoo_ids",
    "get_entry",
    "riccati_blowup_time",
    "riccati_seed_for_blowup_at",
]


# ---------------------------------------------------------------------------
# Riccati oracle for the blow-up seed
# ---------------------------------------------------------------------------

def riccati_blowup_time(c: float) -> float:
    """Blow-up time of dz = -2z + z^2, z(0) = c > 2 (closed form)."""
    if c <= 2.0:
        raise DomainError("no finite blow-up for c <= 2")
    return 0.5 * math.log(c / (c - 2.0))


def riccati_seed_for_blowup_at(t_star: float) -> float:
    """Initial value whose comparison solution explodes exactly at t_star."""
    if t_star <= 0:
        raise DomainError("blow-up time must be positive")
    e2t = math.exp(2.0 * t_star)
    return 2.0 * e2t / (e2t - 1.0)


BLOWUP_SEED = riccati_seed_for_blowup_at(1.0)  # ~2.31304


# ---------------------------------------------------------------------------
# witness recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecipe:
    """Concrete (x0, u, t) replay with the output level it must reach."""

    x0: tuple
    t: float
    output_floor: float
    input_value: Optional[tuple] = None
    note: str = ""

    def signal(self, input_dim: int) -> InputSignal:
        if self.input_value is None:
            return InputSignal.zero(input_dim)
        return InputSignal.constant(self.input_value)


@dataclass(frozen=True)
class ZooEntry:
    id: str
    factory: Callable[..., SystemModel]
    expected: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    certificates: Callable[[], dict] = lambda: {}
    default_plan: Callable[[], SamplingPlan] = None
    estimable: tuple = ()
    notes: str = ""

    def describe(self) -> dict:
        return {
            "schema": 1,
            "id": self.id,
            "expected": {k.value: v for k, v in self.expected.items()},
            "witnesses": {
                k.value: {
                    "x0": list(w.x0),
                    "t": w.t,
                    "output_floor": w.output_floor,
                    "input_value": list(w.input_value) if w.input_value else None,
                    "note": w.note,
                }
                for k, w in self.witnesses.items()
            },
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# system factories
# ---------------------------------------------------------------------------

def _sin_output() -> SystemModel:
    return SystemModel(
        name="sin_output",
        time_set="continuous",
        state_dim=1,
        input_dim=0,
        rhs=lambda x, u: -x,
        output=lambda x, u: np.sin(x[..., :1]),
        output_dim=1,
        analytic_flow=lambda t, x0, u: x0 * math.exp(-t),
    )


def _rotation() -> SystemModel:
    def flow(t, x0, u):
        ct, st = math.cos(t), math.sin(t)
        return np.array([ct * x0[0] - st * x0[1], st * x0[0] + ct * x0[1]])

    def rhs(x, u):
        d = np.empty_like(x)
        d[..., 0] = -x[..., 1]
        d[..., 1] = x[..., 0]
        return d

    return SystemModel(
        name="rotation",
        time_set="continuous",
        state_dim=2,
        input_dim=0,
        rhs=rhs,
        output=lambda x, u: x[..., :1],
        output_dim=1,
        analytic_flow=flow,
    )


def _sat_polar() -> SystemModel:
    # state is (theta, rho); the angle rate saturates at 1, the radius
    # contracts at rate -min(rho, 1).  At rho = 0 the radius is frozen.
    def rhs(x, u):
        rho = np.maximum(x[..., 1], 0.0)
        d = np.empty_like(x)
        d[..., 0] = 1.0 / np.maximum(rho, 1.0)  # exactly 1.0 for rho <= 1
        d[..., 1] = -np.minimum(rho, 1.0)
        return d

    def output(x, u):
        c1 = x[..., 1] * np.cos(x[..., 0])
        c2 = x[..., 1] * np.sin(x[..., 0])
        return np.sqrt(c1 * c1 + np.minimum(c2 * c2, 1.0))[..., None]

    def embed(radius, direction):
        theta = math.atan2(direction[1], direction[0])
        return np.array([theta, radius])

    return SystemModel(
        name="sat_polar",
        time_set="continuous",
        state_dim=2,
        input_dim=0,
        rhs=rhs,
        output=output,
        output_dim=1,
        state_norm=lambda x: np.abs(x[..., 1]),
        embed=embed,
        meta={"polar": True},
    )


def _l2_rhs(n_coords: int):
    idx = np.arange(1, n_coords)
    inv_n2 = 1.0 / idx.astype(float) ** 2

    def rhs(x, u):
        d = np.empty_like(x)
        d[..., 0] = -x[..., 0]
        xn = x[..., 1:]
        d[..., 1:] = -xn + xn * xn * x[..., :1] - xn * np.abs(xn) - inv_n2 * xn ** 3
        return d

    return rhs


def _l2_blowup(n: int = 64) -> SystemModel:
    if n < 2:
        raise DomainError("truncation width must be at least 2")
    base = _l2_rhs(n)
    return SystemModel(
        name=f"l2_blowup_{n}",
        time_set="continuous",
        state_dim=n,
        input_dim=0,
        rhs=base,
        output=lambda x, u: np.asarray(x, dtype=float),
        output_dim=n,
        meta={"truncation": n},
    )


def _l2_timewarp(n: int = 16) -> SystemModel:
    if n < 2:
        raise DomainError("truncation width must be at least 2")
    base = _l2_rhs(n)

    def rhs(x, u):
        # float_power is libm's pow, as Python's float ** is; u ** 2 is u * u,
        # which rounds differently for a few inputs
        return base(x, u) / (1.0 + np.float_power(u[..., :1], 2))

    return SystemModel(
        name=f"l2_timewarp_{n}",
        time_set="continuous",
        state_dim=n,
        input_dim=1,
        rhs=rhs,
        output=lambda x, u: np.asarray(x, dtype=float),
        output_dim=n,
        meta={"truncation": n, "timewarp": True},
    )


def _lin_scalar() -> SystemModel:
    def flow(t, x0, u: InputSignal):
        acc = x0[0] * math.exp(-t)
        bp = u.breakpoints
        for i, a in enumerate(bp):
            if a >= t:
                break
            b = min(bp[i + 1] if i + 1 < len(bp) else math.inf, t)
            v = float(u.values[i][0])
            acc += v * (math.exp(-(t - b)) - math.exp(-(t - a)))
        return np.array([acc])

    return SystemModel(
        name="lin_scalar",
        time_set="continuous",
        state_dim=1,
        input_dim=1,
        rhs=lambda x, u: -x + u,
        output=lambda x, u: np.asarray(x, dtype=float),
        output_dim=1,
        analytic_flow=flow,
    )


# ---------------------------------------------------------------------------
# analytic certificates
# ---------------------------------------------------------------------------

def _tau_table_from_formula(eps_grid, r_grid, fn, s_grid=None):
    from .properties import ConvergenceTimeTable

    eps_grid = tuple(eps_grid)
    r_grid = tuple(r_grid)
    if s_grid is None:
        vals = np.array([[fn(e, r) for r in r_grid] for e in eps_grid])
        return ConvergenceTimeTable(eps_grid, r_grid, None, vals, mode="uag")
    s_grid = tuple(s_grid)
    vals = np.array(
        [[[fn(e, r) for _ in s_grid] for r in r_grid] for e in eps_grid]
    )
    return ConvergenceTimeTable(eps_grid, r_grid, s_grid, vals, mode="uag")


def _sin_output_certs() -> dict:
    ln_decay = lambda e, r: max(math.log(max(r, 1e-12) / e), 0.0) + 0.05
    return {
        PropertyId.IOS: Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.zero()}),
        PropertyId.ISS: Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": cf.zero()}),
        PropertyId.OUGS: Certificate(
            PropertyId.OUGS, {"sigma": cf.identity(), "gamma": cf.zero()}
        ),
        PropertyId.OULS: Certificate(
            PropertyId.OULS,
            {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 1.0},
        ),
        PropertyId.LOCAL_OL: Certificate(
            PropertyId.LOCAL_OL,
            {"sigma": cf.scale(1.16), "gamma": cf.zero(), "radius": 0.9},
        ),
        PropertyId.OUAG: Certificate(
            PropertyId.OUAG,
            {
                "gamma": cf.zero(),
                "tau_table": _tau_table_from_formula(
                    (0.05, 0.1, 0.5), (0.1, 1.0, 10.0), ln_decay, s_grid=(0.0, 1.0)
                ),
            },
        ),
        PropertyId.H_BOUNDED: Certificate(
            PropertyId.H_BOUNDED,
            {"sigma1": cf.identity(), "gamma1": cf.zero(), "c": 0.0},
        ),
        PropertyId.H_K_BOUNDED: Certificate(
            PropertyId.H_K_BOUNDED, {"sigma1": cf.identity(), "gamma1": cf.zero()}
        ),
        PropertyId.IOSS: Certificate(
            PropertyId.IOSS,
            {"beta": cf.kl_exp(), "gamma1": cf.identity(), "gamma2": cf.identity()},
        ),
    }


def _rotation_certs() -> dict:
    return {
        PropertyId.OUGS: Certificate(
            PropertyId.OUGS, {"sigma": cf.identity(), "gamma": cf.zero()}
        ),
        PropertyId.OULS: Certificate(
            PropertyId.OULS,
            {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 1.0},
        ),
        PropertyId.OUGB: Certificate(
            PropertyId.OUGB, {"sigma": cf.identity(), "gamma": cf.zero(), "c": 1.0}
        ),
        PropertyId.H_BOUNDED: Certificate(
            PropertyId.H_BOUNDED,
            {"sigma1": cf.identity(), "gamma1": cf.zero(), "c": 0.0},
        ),
        PropertyId.H_K_BOUNDED: Certificate(
            PropertyId.H_K_BOUNDED, {"sigma1": cf.identity(), "gamma1": cf.zero()}
        ),
        PropertyId.IOSS: Certificate(
            PropertyId.IOSS,
            {
                "beta": cf.kl_inner(cf.kl_time_scale(cf.kl_exp(), 1.0), cf.scale(2.0)),
                "gamma1": cf.identity(),
                "gamma2": cf.scale(2.0),
            },
        ),
    }


def _sat_polar_certs() -> dict:
    # the output never exceeds the radius: y^2 = rho^2 cos^2 + min(rho^2 sin^2, 1)
    return {
        PropertyId.OUGS: Certificate(
            PropertyId.OUGS, {"sigma": cf.identity(), "gamma": cf.zero()}
        ),
        PropertyId.OULS: Certificate(
            PropertyId.OULS,
            {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 0.9},
        ),
        PropertyId.LOCAL_OL: Certificate(
            PropertyId.LOCAL_OL,
            {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 0.9},
        ),
        PropertyId.OBORS: Certificate(
            PropertyId.OBORS, {"radius": 25.0, "horizon": 26.0, "bound": 52.0}
        ),
        PropertyId.BORS: Certificate(
            PropertyId.BORS, {"radius": 25.0, "horizon": 26.0, "bound": 25.0}
        ),
        PropertyId.H_BOUNDED: Certificate(
            PropertyId.H_BOUNDED,
            {"sigma1": cf.identity(), "gamma1": cf.zero(), "c": 0.0},
        ),
    }


def _l2_blowup_certs() -> dict:
    return {
        PropertyId.OULS: Certificate(
            PropertyId.OULS,
            {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 0.5},
        ),
        PropertyId.H_BOUNDED: Certificate(
            PropertyId.H_BOUNDED,
            {"sigma1": cf.identity(), "gamma1": cf.zero(), "c": 0.0},
        ),
    }


def _l2_timewarp_certs() -> dict:
    return {
        PropertyId.OULS: Certificate(
            PropertyId.OULS,
            {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 0.5},
        ),
        PropertyId.H_BOUNDED: Certificate(
            PropertyId.H_BOUNDED,
            {"sigma1": cf.identity(), "gamma1": cf.zero(), "c": 0.0},
        ),
    }


def _lin_scalar_certs() -> dict:
    ln_decay = lambda e, r: max(math.log(max(r, 1e-12) / e), 0.0) + 0.05
    eps = (0.05, 0.1, 0.5)
    rads = (0.1, 1.0, 10.0)
    return {
        PropertyId.IOS: Certificate(
            PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.identity()}
        ),
        PropertyId.ISS: Certificate(
            PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": cf.identity()}
        ),
        PropertyId.OCAG: Certificate(
            PropertyId.OCAG, {"beta": cf.kl_exp(), "gamma": cf.identity(), "c": 0.0}
        ),
        PropertyId.IOPS: Certificate(
            PropertyId.IOPS, {"beta": cf.kl_exp(), "gamma": cf.identity(), "c": 0.0}
        ),
        PropertyId.OL: Certificate(
            PropertyId.OL, {"sigma": cf.identity(), "gamma": cf.identity()}
        ),
        PropertyId.LOCAL_OL: Certificate(
            PropertyId.LOCAL_OL,
            {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 2.0},
        ),
        PropertyId.OUGS: Certificate(
            PropertyId.OUGS, {"sigma": cf.identity(), "gamma": cf.identity()}
        ),
        PropertyId.OULS: Certificate(
            PropertyId.OULS,
            {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 2.0},
        ),
        PropertyId.OUGB: Certificate(
            PropertyId.OUGB,
            {"sigma": cf.identity(), "gamma": cf.identity(), "c": 1e-6},
        ),
        PropertyId.OOUGB: Certificate(
            PropertyId.OOUGB,
            {"sigma": cf.identity(), "gamma": cf.identity(), "c": 1e-6},
        ),
        PropertyId.OUAG: Certificate(
            PropertyId.OUAG,
            {
                "gamma": cf.identity(),
                "tau_table": _tau_table_from_formula(eps, rads, ln_decay, s_grid=(0.0, 1.0, 2.0, 10.0)),
            },
        ),
        PropertyId.OGUAG: Certificate(
            PropertyId.OGUAG,
            {
                "gamma": cf.identity(),
                "tau_table": _tau_table_from_formula(eps, rads, ln_decay),
                "s_max": 10.0,
            },
        ),
        PropertyId.H_BOUNDED: Certificate(
            PropertyId.H_BOUNDED,
            {"sigma1": cf.identity(), "gamma1": cf.zero(), "c": 0.0},
        ),
        PropertyId.H_K_BOUNDED: Certificate(
            PropertyId.H_K_BOUNDED, {"sigma1": cf.identity(), "gamma1": cf.zero()}
        ),
        PropertyId.IOSS: Certificate(
            PropertyId.IOSS,
            {"beta": cf.kl_exp(), "gamma1": cf.identity(), "gamma2": cf.identity()},
        ),
        PropertyId.BORS: Certificate(
            PropertyId.BORS, {"radius": 10.0, "horizon": 15.0, "bound": 20.0}
        ),
        PropertyId.OBORS: Certificate(
            PropertyId.OBORS, {"radius": 10.0, "horizon": 15.0, "bound": 20.0}
        ),
    }


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

_H = {
    "holds": "holds",
    "fails": "fails",
    "unknown": "unknown",
}


def _sin_output_entry() -> ZooEntry:
    return ZooEntry(
        id="sin_output",
        factory=lambda **kw: _sin_output(),
        expected={
            PropertyId.IOS: "holds",
            PropertyId.ISS: "holds",
            PropertyId.OUGS: "holds",
            PropertyId.OULS: "holds",
            PropertyId.OCEP: "holds",
            PropertyId.OUAG: "holds",
            PropertyId.OGUAG: "holds",
            PropertyId.OCAG: "holds",
            PropertyId.IOPS: "holds",
            PropertyId.OUGB: "holds",
            PropertyId.BORS: "holds",
            PropertyId.H_BOUNDED: "holds",
            PropertyId.H_K_BOUNDED: "holds",
            PropertyId.OULIM: "holds",
            PropertyId.OGULIM: "holds",
            PropertyId.OLIM: "holds",
            PropertyId.IOSS: "holds",
            PropertyId.LOCAL_OL: "holds",
            PropertyId.OL: "fails",
        },
        witnesses={
            PropertyId.OL: WitnessRecipe(
                x0=(math.pi,),
                t=1.0,
                output_floor=0.9,
                note="zero initial output, large output one time unit later",
            ),
        },
        certificates=_sin_output_certs,
        default_plan=lambda: SamplingPlan(
            radii=(0.1, 1.0, 10.0),
            input_norms=(),
            eps_grid=(0.1, 0.5),
            horizon=20.0,
            sim=SimPlan(20.0, 2e-2),
            directions=2,
            seed=101,
        ),
        estimable=(
            PropertyId.IOS,
            PropertyId.OUGS,
            PropertyId.OULS,
            PropertyId.OCEP,
            PropertyId.OUAG,
            PropertyId.OULIM,
            PropertyId.H_BOUNDED,
        ),
        notes="output decays with the state but revisits zero, so no "
              "initial-output bound can cap later output",
    )


def _rotation_entry() -> ZooEntry:
    return ZooEntry(
        id="rotation",
        factory=lambda **kw: _rotation(),
        expected={
            PropertyId.OUGS: "holds",
            PropertyId.OULS: "holds",
            PropertyId.OCEP: "holds",
            PropertyId.OUGB: "holds",
            PropertyId.BORS: "holds",
            PropertyId.H_BOUNDED: "holds",
            PropertyId.H_K_BOUNDED: "holds",
            PropertyId.OULIM: "holds",
            PropertyId.OGULIM: "holds",
            PropertyId.OOULIM: "holds",
            PropertyId.OLIM: "holds",
            PropertyId.IOSS: "holds",
            PropertyId.IOS: "fails",
            PropertyId.OL: "fails",
            PropertyId.ISS: "fails",
        },
        witnesses={
            PropertyId.IOS: WitnessRecipe(
                x0=(0.0, 1.0),
                t=1.5 * math.pi,
                output_floor=0.999,
                note="output returns to the full radius after every turn",
            ),
            PropertyId.OL: WitnessRecipe(
                x0=(0.0, 1.0),
                t=1.5 * math.pi,
                output_floor=0.999,
                note="zero initial output, unit output three quarter turns later",
            ),
            PropertyId.ISS: WitnessRecipe(
                x0=(0.0, 1.0),
                t=4.0 * math.pi,
                output_floor=0.999,
                note="state norm is conserved, never decays",
            ),
        },
        certificates=_rotation_certs,
        default_plan=lambda: SamplingPlan(
            radii=(0.5, 1.0, 3.0),
            input_norms=(),
            eps_grid=(0.1, 0.5),
            horizon=4.0 * math.pi + 0.5,
            sim=SimPlan(4.0 * math.pi + 0.5, 1e-2),
            directions=3,
            seed=102,
        ),
        estimable=(
            PropertyId.OUGS,
            PropertyId.OULS,
            PropertyId.OCEP,
            PropertyId.OULIM,
            PropertyId.OGULIM,
            PropertyId.OOULIM,
            PropertyId.H_BOUNDED,
        ),
        notes="uniform limit times exist (every half turn crosses zero) but "
              "no decay bound holds",
    )


def _sat_polar_entry() -> ZooEntry:
    c = 4.0 * math.exp(0.5 * math.pi)
    t_star = c * (1.0 - math.exp(-0.5 * math.pi))
    return ZooEntry(
        id="sat_polar",
        factory=lambda **kw: _sat_polar(),
        expected={
            PropertyId.LOCAL_OL: "holds",
            PropertyId.OULS: "holds",
            PropertyId.OCEP: "holds",
            PropertyId.OUGS: "holds",
            PropertyId.BORS: "holds",
            PropertyId.OBORS: "holds",
            PropertyId.OGULIM: "holds",
            PropertyId.OULIM: "holds",
            PropertyId.OLIM: "holds",
            PropertyId.IOS: "holds",
            PropertyId.H_BOUNDED: "holds",
            PropertyId.OL: "fails",
            PropertyId.OOULIM: "fails",
        },
        witnesses={
            PropertyId.OL: WitnessRecipe(
                x0=(0.5 * math.pi, c),
                t=t_star,
                output_floor=c * math.exp(-0.5 * math.pi) * 0.95,
                note="polar state (theta, rho); initial output 1, output "
                     "sweeps up to rho * exp(-pi/2) after a quarter turn",
            ),
            PropertyId.OOULIM: WitnessRecipe(
                x0=(0.5 * math.pi, 60.0),
                t=20.0,
                output_floor=0.9,
                note="initial output 1 but the output stays above 0.9 for "
                     "the whole horizon: no input-free uniform visit time "
                     "over the unit initial-output ball",
            ),
        },
        certificates=_sat_polar_certs,
        default_plan=lambda: SamplingPlan(
            radii=(0.5, 0.9, 5.0, 20.0),
            input_norms=(),
            eps_grid=(0.25, 0.5),
            horizon=26.0,
            sim=SimPlan(26.0, 2e-2),
            directions=3,
            seed=103,
        ),
        estimable=(
            PropertyId.OUGS,
            PropertyId.OULS,
            PropertyId.LOCAL_OL,
            PropertyId.OCEP,
            PropertyId.OGULIM,
            PropertyId.OULIM,
            PropertyId.H_BOUNDED,
            PropertyId.IOS,
        ),
        notes="locally output-Lagrange and output-bounded, yet far-out "
              "initial states with unit output overshoot arbitrarily",
    )


def _l2_blowup_entry() -> ZooEntry:
    c = BLOWUP_SEED
    d = 2.0 * math.sqrt(c * c + 4.0 * math.e ** 2)
    return ZooEntry(
        id="l2_blowup",
        factory=lambda n=64, **kw: _l2_blowup(n),
        expected={
            PropertyId.OULS: "holds",
            PropertyId.OCEP: "holds",
            PropertyId.H_BOUNDED: "holds",
            PropertyId.BORS: "fails",
            PropertyId.IOS: "fails",
            PropertyId.ISS: "fails",
            PropertyId.FC: "unknown",
        },
        witnesses={
            PropertyId.BORS: WitnessRecipe(
                x0=(),  # built per truncation width, see seed_state
                t=1.0,
                output_floor=51.0,
                note="seed coordinate j at the comparison level c and the "
                     "0-th coordinate at 2e; coordinate j reaches level j "
                     "within time 1",
            ),
            PropertyId.IOS: WitnessRecipe(
                x0=(),
                t=1.0,
                output_floor=51.0,
                note="same seed; no decaying bound from the ball of radius "
                     "d can cap the excursion",
            ),
            PropertyId.ISS: WitnessRecipe(
                x0=(),
                t=1.0,
                output_floor=51.0,
                note="full-state output, same seed",
            ),
        },
        certificates=_l2_blowup_certs,
        default_plan=lambda: SamplingPlan(
            radii=(0.1, 0.3, 0.5),
            input_norms=(),
            eps_grid=(0.1, 0.25),
            horizon=10.0,
            sim=SimPlan(10.0, 1e-2),
            directions=3,
            seed=104,
        ),
        estimable=(PropertyId.OULS, PropertyId.OCEP, PropertyId.H_BOUNDED),
        notes=f"ball radius for the unbounded-reachability witness: d = {d:.6f}; "
              "the truncation only exhibits growth up to the truncation width, "
              "the untruncated statement is its limit; forward completeness at "
              "witness radii is 'unknown' because the stiff post-excursion "
              "transient is outside the fixed-step integrator's stability region "
              "for large coordinate indices",
    )


def _l2_timewarp_entry() -> ZooEntry:
    return ZooEntry(
        id="l2_timewarp",
        factory=lambda n=16, **kw: _l2_timewarp(n),
        expected={
            PropertyId.OULS: "holds",
            PropertyId.OCEP: "holds",
            PropertyId.H_BOUNDED: "holds",
            PropertyId.OUAG: "holds",
            PropertyId.OULIM: "holds",
            PropertyId.OGUAG: "fails",
            PropertyId.BORS: "fails",
        },
        witnesses={
            PropertyId.OGUAG: WitnessRecipe(
                x0=(),
                t=0.0,  # ladder-dependent, see timewarp_defeat_input
                output_floor=7.0,
                note="constant input sqrt(tau/tau_j - 1) dilates time so the "
                     "level-j excursion lands exactly at any requested tau",
            ),
            PropertyId.BORS: WitnessRecipe(
                x0=(),
                t=1.0,
                output_floor=8.0,
                note="zero-input seed as in the undilated system",
            ),
        },
        certificates=_l2_timewarp_certs,
        default_plan=lambda: SamplingPlan(
            radii=(0.25, 0.5),
            input_norms=(1.0, 2.0, 4.0),
            eps_grid=(0.1, 0.25),
            horizon=90.0,
            sim=SimPlan(90.0, 2e-2),
            directions=2,
            seed=105,
        ),
        estimable=(PropertyId.OULS, PropertyId.OCEP, PropertyId.H_BOUNDED, PropertyId.OUAG),
        notes="input-ball-uniform convergence times exist for every input "
              "ladder level, but the required time grows with the ladder, so "
              "no input-global time exists",
    )


def _lin_scalar_entry() -> ZooEntry:
    return ZooEntry(
        id="lin_scalar",
        factory=lambda **kw: _lin_scalar(),
        expected={
            PropertyId.IOS: "holds",
            PropertyId.ISS: "holds",
            PropertyId.OL: "holds",
            PropertyId.LOCAL_OL: "holds",
            PropertyId.OUGS: "holds",
            PropertyId.OULS: "holds",
            PropertyId.OUGB: "holds",
            PropertyId.OOUGB: "holds",
            PropertyId.OCEP: "holds",
            PropertyId.OUAG: "holds",
            PropertyId.OGUAG: "holds",
            PropertyId.OCAG: "holds",
            PropertyId.IOPS: "holds",
            PropertyId.BORS: "holds",
            PropertyId.OBORS: "holds",
            PropertyId.H_BOUNDED: "holds",
            PropertyId.H_K_BOUNDED: "holds",
            PropertyId.OULIM: "holds",
            PropertyId.OGULIM: "holds",
            PropertyId.OOULIM: "holds",
            PropertyId.OLIM: "holds",
            PropertyId.IOSS: "holds",
        },
        witnesses={},
        certificates=_lin_scalar_certs,
        default_plan=lambda: SamplingPlan(
            radii=(0.1, 1.0, 10.0),
            input_norms=(0.5, 2.0),
            eps_grid=(0.1, 0.5),
            horizon=15.0,
            sim=SimPlan(15.0, 2e-2),
            directions=2,
            seed=106,
        ),
        estimable=(
            PropertyId.IOS,
            PropertyId.ISS,
            PropertyId.OL,
            PropertyId.OUGS,
            PropertyId.OULS,
            PropertyId.OCEP,
            PropertyId.OUAG,
            PropertyId.OULIM,
            PropertyId.H_BOUNDED,
            PropertyId.IOSS,
        ),
        notes="positive control: every notion holds with classical "
              "certificates",
    )


_ENTRIES: dict[str, ZooEntry] = {}


def _register():
    for builder in (
        _sin_output_entry,
        _rotation_entry,
        _sat_polar_entry,
        _l2_blowup_entry,
        _l2_timewarp_entry,
        _lin_scalar_entry,
    ):
        entry = builder()
        _ENTRIES[entry.id] = entry


_register()


def zoo_ids() -> list[str]:
    return sorted(_ENTRIES)


def get_entry(zoo_id: str) -> ZooEntry:
    if zoo_id not in _ENTRIES:
        raise DomainError(f"unknown zoo id {zoo_id!r}; known: {', '.join(zoo_ids())}")
    return _ENTRIES[zoo_id]


def make_example(zoo_id: str, **params) -> SystemModel:
    """Instantiate a zoo system; 'full_state' wraps a base entry."""
    if zoo_id == "full_state":
        base = params.pop("base", "lin_scalar")
        return full_state_wrap(make_example(base, **params))
    return get_entry(zoo_id).factory(**params)


def known_witness(zoo_id: str, prop: PropertyId) -> WitnessRecipe:
    entry = get_entry(zoo_id)
    if prop not in entry.witnesses:
        raise DomainError(f"{zoo_id} records no witness for {prop.value}")
    return entry.witnesses[prop]


# ---------------------------------------------------------------------------
# parametric witness builders for the truncated sequence systems
# ---------------------------------------------------------------------------

def blowup_seed_state(n: int, j: int) -> np.ndarray:
    """Initial condition (x_0, .., x_{n-1}) with x_0 = 2e and x_j = c."""
    if not 1 <= j < n:
        raise DomainError(f"coordinate index j must lie in [1, {n - 1}]")
    x = np.zeros(n)
    x[0] = 2.0 * math.e
    x[j] = BLOWUP_SEED
    return x


def blowup_ball_radius() -> float:
    c = BLOWUP_SEED
    return 2.0 * math.sqrt(c * c + 4.0 * math.e ** 2)


def timewarp_defeat_input(tau_req: float, tau_j: float) -> float:
    """Constant input level that stretches the level-j crossing out to tau_req."""
    if not 0.0 < tau_j < tau_req:
        raise DomainError("need 0 < tau_j < tau_req")
    return math.sqrt(tau_req / tau_j - 1.0)
