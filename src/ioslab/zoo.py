"""Built-in example systems with known verdicts and falsification witnesses.

Every entry couples a system factory with
  * analytic certificates for the properties known to hold in closed form,
    given as {notion: parameters} rows, so each notion is named once and a
    parameter set that several notions share is written once,
  * witness recipes for the properties known to fail, replayable through
    the simulator,
  * the statuses nothing else implies ("holds" known by argument, or
    "unknown"),
  * a default sampling plan sized so the interesting behaviour is visible.
Each status is stated once: an entry's ``expected`` map (holds / fails /
unknown) is derived from the three, see ``ZooEntry``.

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
             past level n within time 1, so reachability sets over a fixed
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

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import comparison as cf
from .errors import DomainError
from .properties import Certificate, ConvergenceTimeTable, PropertyId, SamplingPlan
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


def blowup_ball_radius() -> float:
    """d = 2 sqrt(c^2 + (2e)^2): twice the norm of every blow-up seed state."""
    c = BLOWUP_SEED
    return 2.0 * math.sqrt(c * c + 4.0 * math.e ** 2)


# ---------------------------------------------------------------------------
# witness recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecipe:
    """Concrete (x0, u, t) replay with the output level it must reach."""

    x0: tuple
    t: float
    output_floor: float
    note: str = ""

    def signal(self, input_dim: int) -> InputSignal:
        """The input of the replay: every recipe replays the zero input."""
        return InputSignal.zero(input_dim)


@dataclass(frozen=True)
class ZooEntry:
    """A zoo system with its known statuses and the evidence behind them.

    ``expected`` is derived once per entry: "holds" for each notion with an
    analytic certificate, "fails" for each notion with a witness recipe, then
    ``stated``, which holds only what nothing else implies.  So a failure
    cannot be stated without its recipe.  Reading ``expected`` raises
    ``DomainError`` when ``stated`` holds a status other than "holds" or
    "unknown", or one for a notion with a certificate or a recipe, or when a
    notion has both.
    """

    id: str
    factory: Callable[..., SystemModel]
    stated: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    certificates: Callable[[], dict] = lambda: {}
    default_plan: Callable[[], SamplingPlan] = None
    estimable: tuple = ()
    notes: str = ""

    @cached_property
    def expected(self) -> dict:
        holds, fails = self.certificates().keys(), self.witnesses.keys()
        stated = self.stated.keys()
        refused = {
            "both a certificate and a witness recipe": holds & fails,
            "a stated status beside a certificate or a recipe": stated & (holds | fails),
            "a stated status other than holds or unknown (a failure is stated by its recipe)":
                {p for p in stated if self.stated[p] not in ("holds", "unknown")},
        }
        for why, notions in refused.items():
            if notions:
                names = ", ".join(sorted(p.value for p in notions))
                raise DomainError(f"{self.id}: {names}: {why}")
        return {**dict.fromkeys(holds, "holds"), **dict.fromkeys(fails, "fails"), **self.stated}

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
    inv_n2 = np.zeros(n_coords)  # its column 0 meets the zeroed x_0 below
    inv_n2[1:] = 1.0 / np.arange(1, n_coords).astype(float) ** 2
    tiles = {}  # inv_n2 repeated to each batch shape seen: a same-shape operand

    def rhs(x, u):
        # every term is computed on whole contiguous rows, about twice as fast
        # per ufunc as on the strided view x[..., 1:].  Column 0 is zeroed in
        # xn, so its terms other than -x_0 are zeros, which cannot overflow
        # where x_0 is huge and the rest small, and leave -x_0 exact (x_0 = +0.0
        # gives +0.0, not -0.0: a sign RK4 never stores, as +0.0 + -0.0 = +0.0)
        xn = x.copy()
        xn[..., 0] = 0.0
        w = tiles.get(x.shape)
        if w is None:
            w = tiles[x.shape] = np.broadcast_to(inv_n2, x.shape).copy()
        # xn ** 3 is NumPy's power (libm pow, about 80 ns per element); the
        # square is formed once and serves the x_0 x_n^2, x_n |x_n| and x_n^3
        # terms.  The sum is -x + x_0 xn2 - copysign(xn2, xn) - w xn2 xn taken
        # left to right, in place on fresh whole temporaries: x_0 xn2 - x is
        # -x + x_0 xn2 and copysign(xn2, xn) is xn |xn|, bit for bit
        xn2 = xn * xn
        d = xn2 * x[..., :1]
        d -= x
        cube = xn2 * xn
        cube *= w
        d -= np.copysign(xn2, xn, out=xn2)
        d -= cube
        return d

    return rhs


def _l2_blowup(n: int) -> SystemModel:
    if n < 2:
        raise DomainError("truncation width must be at least 2")
    return SystemModel(
        name=f"l2_blowup_{n}",
        time_set="continuous",
        state_dim=n,
        input_dim=0,
        rhs=_l2_rhs(n),
        output=lambda x, u: np.asarray(x, dtype=float),
        output_dim=n,
        meta={"truncation": n},
    )


def _l2_timewarp(n: int) -> SystemModel:
    blowup = _l2_blowup(n)
    base = blowup.rhs

    def rhs(x, u):
        # float_power is libm's pow, as Python's float ** is; u ** 2 is u * u,
        # which rounds differently for a few inputs
        return base(x, u) / (1.0 + np.float_power(u[..., :1], 2))

    return replace(blowup, name=f"l2_timewarp_{n}", input_dim=1, rhs=rhs,
                   meta={**blowup.meta, "timewarp": True})


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

def _certs(rows: dict) -> dict:
    """Certificates from {notion: parameters} rows, in the rows' order."""
    return {notion: Certificate(notion, dict(params)) for notion, params in rows.items()}


def _ln_decay(eps: float, r: float) -> float:
    """Time for r e^-t to fall to eps, plus a 0.05 margin."""
    return max(math.log(max(r, 1e-12) / eps), 0.0) + 0.05


def _ln_decay_table(s_grid=None) -> ConvergenceTimeTable:
    """Unit-rate decay times over (eps, r), the same at every input level in ``s_grid``."""
    eps_grid, r_grid = (0.05, 0.1, 0.5), (0.1, 1.0, 10.0)
    vals = np.array([[_ln_decay(e, r) for r in r_grid] for e in eps_grid])
    if s_grid is not None:
        vals = np.repeat(vals[..., None], len(s_grid), axis=-1)
    return ConvergenceTimeTable(eps_grid, r_grid, s_grid, vals, mode="uag")


# |y| <= |x|, which every read-out here meets: output-map bounds with offset c = 0
_Y_K_BOUND = {"sigma1": cf.identity(), "gamma1": cf.zero()}
_Y_BOUND = {**_Y_K_BOUND, "c": 0.0}
# sigma = id, gamma = 0: the output stays below the initial state norm, whatever the input
_NO_GAIN = {"sigma": cf.identity(), "gamma": cf.zero()}
_UNIT_IOSS = {"beta": cf.kl_exp(), "gamma1": cf.identity(), "gamma2": cf.identity()}


def _sin_output_certs() -> dict:
    decay = {"beta": cf.kl_exp(), "gamma": cf.zero()}
    return _certs({
        PropertyId.IOS: decay,
        PropertyId.ISS: decay,
        PropertyId.OUGS: _NO_GAIN,
        PropertyId.OULS: {**_NO_GAIN, "radius": 1.0},
        PropertyId.LOCAL_OL: {"sigma": cf.scale(1.16), "gamma": cf.zero(), "radius": 0.9},
        PropertyId.OUAG: {"gamma": cf.zero(), "tau_table": _ln_decay_table(s_grid=(0.0, 1.0))},
        PropertyId.H_BOUNDED: _Y_BOUND,
        PropertyId.H_K_BOUNDED: _Y_K_BOUND,
        PropertyId.IOSS: _UNIT_IOSS,
    })


def _rotation_certs() -> dict:
    return _certs({
        PropertyId.OUGS: _NO_GAIN,
        PropertyId.OULS: {**_NO_GAIN, "radius": 1.0},
        PropertyId.OUGB: {**_NO_GAIN, "c": 1.0},
        PropertyId.H_BOUNDED: _Y_BOUND,
        PropertyId.H_K_BOUNDED: _Y_K_BOUND,
        PropertyId.IOSS: {
            "beta": cf.kl_inner(cf.kl_time_scale(cf.kl_exp(), 1.0), cf.scale(2.0)),
            "gamma1": cf.identity(),
            "gamma2": cf.scale(2.0),
        },
    })


def _sat_polar_certs() -> dict:
    # the output never exceeds the radius: y^2 = rho^2 cos^2 + min(rho^2 sin^2, 1)
    local = {**_NO_GAIN, "radius": 0.9}
    return _certs({
        PropertyId.OUGS: _NO_GAIN,
        PropertyId.OULS: local,
        PropertyId.LOCAL_OL: local,
        PropertyId.OBORS: {"radius": 25.0, "horizon": 26.0, "bound": 52.0},
        PropertyId.BORS: {"radius": 25.0, "horizon": 26.0, "bound": 25.0},
        PropertyId.H_BOUNDED: _Y_BOUND,
    })


def _l2_certs() -> dict:
    return _certs({
        PropertyId.OULS: {**_NO_GAIN, "radius": 0.5},
        PropertyId.H_BOUNDED: _Y_BOUND,
    })


def _lin_scalar_certs() -> dict:
    decay = {"beta": cf.kl_exp(), "gamma": cf.identity()}
    offset_free = {**decay, "c": 0.0}
    unit = {"sigma": cf.identity(), "gamma": cf.identity()}
    local = {**unit, "radius": 2.0}
    offset = {**unit, "c": 1e-6}
    reach = {"radius": 10.0, "horizon": 15.0, "bound": 20.0}
    return _certs({
        PropertyId.IOS: decay,
        PropertyId.ISS: decay,
        PropertyId.OCAG: offset_free,
        PropertyId.IOPS: offset_free,
        PropertyId.OL: unit,
        PropertyId.LOCAL_OL: local,
        PropertyId.OUGS: unit,
        PropertyId.OULS: local,
        PropertyId.OUGB: offset,
        PropertyId.OOUGB: offset,
        PropertyId.OUAG: {"gamma": cf.identity(),
                          "tau_table": _ln_decay_table(s_grid=(0.0, 1.0, 2.0, 10.0))},
        PropertyId.OGUAG: {"gamma": cf.identity(), "tau_table": _ln_decay_table(),
                           "s_max": 10.0},
        PropertyId.H_BOUNDED: _Y_BOUND,
        PropertyId.H_K_BOUNDED: _Y_K_BOUND,
        PropertyId.IOSS: _UNIT_IOSS,
        PropertyId.BORS: reach,
        PropertyId.OBORS: reach,
    })

# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

def _sin_output_entry() -> ZooEntry:
    return ZooEntry(
        id="sin_output",
        factory=_sin_output,
        stated=dict.fromkeys((PropertyId.OCEP, PropertyId.OGUAG, PropertyId.OCAG, PropertyId.IOPS,
                              PropertyId.OUGB, PropertyId.BORS, PropertyId.OULIM,
                              PropertyId.OGULIM, PropertyId.OLIM), "holds"),
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
        factory=_rotation,
        stated=dict.fromkeys((PropertyId.OCEP, PropertyId.BORS, PropertyId.OULIM,
                              PropertyId.OGULIM, PropertyId.OOULIM, PropertyId.OLIM), "holds"),
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
        factory=_sat_polar,
        stated=dict.fromkeys((PropertyId.OCEP, PropertyId.OGULIM, PropertyId.OULIM,
                              PropertyId.OLIM, PropertyId.IOS), "holds"),
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
    return ZooEntry(
        id="l2_blowup",
        factory=lambda n=64: _l2_blowup(n),
        stated={PropertyId.OCEP: "holds", PropertyId.FC: "unknown"},
        witnesses={
            PropertyId.BORS: WitnessRecipe(
                x0=(),  # built per truncation width, see seed_state
                t=1.0,
                output_floor=51.0,
                note="seed coordinate j at the comparison level c and the "
                     "0-th coordinate at 2e; the output floor j is a lower "
                     "bound: from j = floor(0.8 n) the converged sup |y| "
                     "peaks near t = 0.11 at 136.1, 553.2, 2,414 and 10,060 "
                     "for n = 8, 16, 32 and 64, about 0.94-0.97 x 4 j^2 "
                     "(at step 2e-4 the n = 64 run reads 2,517)",
            ),
            PropertyId.IOS: WitnessRecipe(
                x0=(),
                t=1.0,
                output_floor=51.0,
                note="same seed; no decaying bound from the ball of radius "
                     "d can cap the excursion, which passes the floor j",
            ),
            PropertyId.ISS: WitnessRecipe(
                x0=(),
                t=1.0,
                output_floor=51.0,
                note="full-state output, same seed; the floor j is a lower bound",
            ),
        },
        certificates=_l2_certs,
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
        notes=f"ball radius for the unbounded-reachability witness: "
              f"d = {blowup_ball_radius():.6f}; "
              "the truncation only exhibits growth up to the truncation width, "
              "the untruncated statement is its limit; forward completeness at "
              "witness radii is 'unknown' because the stiff post-excursion "
              "transient is outside the fixed-step integrator's stability region "
              "for large coordinate indices",
    )


def _l2_timewarp_entry() -> ZooEntry:
    return ZooEntry(
        id="l2_timewarp",
        factory=lambda n=16: _l2_timewarp(n),
        stated=dict.fromkeys((PropertyId.OCEP, PropertyId.OUAG, PropertyId.OULIM,
                              PropertyId.OGULIM), "holds"),
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
        certificates=_l2_certs,
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
        factory=_lin_scalar,
        stated=dict.fromkeys((PropertyId.OCEP, PropertyId.OULIM, PropertyId.OGULIM,
                              PropertyId.OOULIM, PropertyId.OLIM), "holds"),
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
    """Instantiate a zoo system; 'full_state' wraps a base entry, passing the
    other parameters on.  A parameter the factory lacks is a ``DomainError``."""
    if zoo_id == "full_state":
        base = params.pop("base", "lin_scalar")
        return full_state_wrap(make_example(base, **params))
    factory = get_entry(zoo_id).factory
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise DomainError(f"{zoo_id} takes no parameter {', '.join(unknown)}")
    return factory(**params)


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


def timewarp_defeat_input(tau_req: float, tau_j: float) -> float:
    """Constant input level that stretches the level-j crossing out to tau_req."""
    if not 0.0 < tau_j < tau_req:
        raise DomainError("need 0 < tau_j < tau_req")
    return math.sqrt(tau_req / tau_j - 1.0)
