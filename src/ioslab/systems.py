"""Abstract control systems with outputs, simulation, and axiom probes.

A system is a time set (continuous or discrete), a state evaluator and an
output map; continuous-time systems are integrated with fixed-step RK4 (or
explicit Euler), discrete-time systems iterate their step map exactly.  Each
trajectory's integration grid is aligned with its own input signal's
breakpoints so that each step sees a constant input value, which preserves
RK4's order for piecewise-constant inputs.

One kernel integrates everything: ``simulate_batch`` advances P trajectories
in lockstep as one (P, n) state block, and ``simulate`` is its P = 1 call.
Each row keeps its own grid (grids are padded to the longest row) and its
own step sizes, so a row performs exactly the floating-point operations of a
one-trajectory run and rows with different input breakpoints share a block.
Batch contract: ``rhs``, ``output`` and ``state_norm`` take arrays with
leading batch axes (index a coordinate as ``x[..., i]``, reduce over
``axis=-1``) and act on each row alone.  The kernel re-evaluates them on
single rows once per call and raises ``DomainError`` where a batched row
differs, since a scalar-style ``np.array([-x[0] + u[0]])`` would otherwise
give every row the first row's derivative.

Blow-up handling: when the state norm crosses ``blow_up_threshold`` (or the
state stops being finite while already large) the trajectory is truncated
and stamped with the crossing time.  This is the finite-horizon stand-in for
a finite maximal existence time, and property checkers treat it as evidence
against forward completeness at that sample.  A NaN/Inf right-hand side at
moderate state norms is a genuine integration error instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, IntegrationError
from .signals import InputSignal

__all__ = ["SystemModel", "SimPlan", "Trajectory", "AxiomReport", "simulate", "simulate_batch",
           "check_axioms", "full_state_wrap"]


def _euclidean(x: np.ndarray) -> np.ndarray:
    # a dot product per row: bit-identical to np.linalg.norm of a row alone
    return np.sqrt(np.vecdot(x, x))


def _embed_default(radius: float, direction: np.ndarray) -> np.ndarray:
    return radius * direction


@dataclass(frozen=True)
class SystemModel:
    """Time set + state/input/output dimensions + evaluators.

    ``rhs(x, u_value)`` is the state derivative for continuous time and the
    step map for discrete time.  ``state_norm``/``embed`` let systems whose
    stored coordinates are not Euclidean (e.g. polar states) declare the norm
    the stability definitions quantify over and how to realise "a state of
    norm r in direction d".

    ``rhs``, ``output`` and ``state_norm`` follow the batch contract: ``x``
    and ``u_value`` may carry leading batch axes, shapes (..., n) and
    (..., m), and the result is (..., n), (..., output_dim) and (...),
    computed row by row.  ``embed`` and ``analytic_flow`` take one state.
    """

    name: str
    time_set: str  # "continuous" | "discrete"
    state_dim: int
    input_dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    output: Callable[[np.ndarray, np.ndarray], np.ndarray]
    output_dim: int = 1
    analytic_flow: Optional[Callable[[float, np.ndarray, InputSignal], np.ndarray]] = None
    state_norm: Callable[[np.ndarray], float] = _euclidean
    embed: Callable[[float, np.ndarray], np.ndarray] = _embed_default
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.time_set not in ("continuous", "discrete"):
            raise DomainError("time_set must be 'continuous' or 'discrete'")

    def output_norms(self, outputs: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.atleast_2d(outputs), axis=1)


@dataclass(frozen=True)
class SimPlan:
    """Integration controls: horizon, base step, method, blow-up threshold."""

    horizon: float
    step: float = 1e-2
    method: str = "rk4"  # "rk4" | "euler"
    blow_up_threshold: float = 1e9

    def __post_init__(self):
        if self.horizon < 0 or self.step <= 0:
            raise DomainError("horizon must be >= 0 and step > 0")
        if self.method not in ("rk4", "euler"):
            raise DomainError("method must be 'rk4' or 'euler'")


@dataclass
class Trajectory:
    """Simulation result sampled on the integration grid.

    ``outputs[k]`` is exactly ``h(states[k], input_values[k])`` by
    construction.  ``blow_up`` is the first grid time at which the state norm
    crossed the threshold, or None.
    """

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    input_values: np.ndarray
    blow_up: Optional[float]
    step: float
    method: str
    oracle_states: Optional[np.ndarray] = None

    def output_norms(self) -> np.ndarray:
        return np.linalg.norm(self.outputs, axis=1)

    def at_time(self, t: float) -> int:
        """Index of the grid point closest to t (grid contains probe times)."""
        return int(np.argmin(np.abs(self.times - t)))

    def write_csv(self, path) -> None:
        n = self.states.shape[1]
        m = self.outputs.shape[1]
        header = (
            ["t"]
            + [f"x_{i}" for i in range(n)]
            + [f"y_{j}" for j in range(m)]
            + ["blowup_flag"]
        )
        flags = np.zeros(len(self.times))
        if self.blow_up is not None:
            flags[self.times >= self.blow_up] = 1.0
        data = np.column_stack([self.times, self.states, self.outputs, flags])
        np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")


def _time_grid(horizon: float, step: float, breakpoints: np.ndarray) -> np.ndarray:
    n_steps = int(np.ceil(horizon / step - 1e-12))
    base = np.linspace(0.0, n_steps * step, n_steps + 1)
    base = base[base <= horizon + 1e-15]
    if base[-1] < horizon:
        base = np.append(base, horizon)
    cuts = breakpoints[(breakpoints > 0.0) & (breakpoints < horizon)]
    grid = np.union1d(base, cuts)
    # drop near-duplicates produced by float unions
    keep = np.concatenate(([True], np.diff(grid) > 1e-13))
    return grid[keep]


def simulate(
    sys: SystemModel,
    x0,
    u: InputSignal,
    plan: SimPlan,
    with_oracle: bool = False,
) -> Trajectory:
    """Run the system from x0 under input u on [0, min(horizon, blow-up)]."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.state_dim,):
        raise DomainError(f"state must have shape ({sys.state_dim},)")
    traj = simulate_batch(sys, x0[None, :], [u], plan)[0]
    if with_oracle and sys.analytic_flow is not None:
        traj.oracle_states = np.stack([np.asarray(sys.analytic_flow(t, x0, u))
                                       for t in traj.times])
    return traj


def simulate_batch(sys: SystemModel, x0s, us, plan: SimPlan) -> list[Trajectory]:
    """Run row i of x0s under input us[i], all rows in lockstep.

    Row i is integrated on its own grid with its own step sizes, so it
    performs exactly the floating-point operations of a one-trajectory run.
    A row leaves the block when it blows up or reaches the end of its grid.
    """
    us = list(us)
    if not us:
        return []
    x0s = np.asarray(x0s, dtype=float)
    if x0s.shape != (len(us), sys.state_dim):
        raise DomainError(f"states must have shape ({len(us)}, {sys.state_dim})")
    for u in us:
        if u.dim != sys.input_dim:
            raise DomainError(f"input dim {u.dim} does not match system ({sys.input_dim})")

    if sys.time_set == "discrete":
        grids = [np.arange(0.0, np.floor(plan.horizon) + 1.0)] * len(us)
    else:
        grids = [_time_grid(plan.horizon, plan.step, u.breakpoints) for u in us]
    lengths = np.array([len(g) for g in grids])
    width = int(lengths.max())
    times = np.empty((len(us), width))
    u_vals = np.empty((len(us), width, sys.input_dim))
    for i, (grid, u) in enumerate(zip(grids, us)):
        times[i, : len(grid)] = grid
        times[i, len(grid):] = grid[-1]  # padded steps have h = 0
        u_vals[i, : len(grid)] = u.values[np.searchsorted(u.breakpoints, grid, side="right") - 1]
    _batched(sys, "rhs", sys.rhs, (x0s, u_vals[:, 0]), x0s.shape)
    _batched(sys, "state_norm", sys.state_norm, (x0s,), (len(us),))

    # time-major copies, so that a step reads one contiguous (P, .) slice
    u_steps = np.ascontiguousarray(u_vals.transpose(1, 0, 2))
    h_steps = np.ascontiguousarray(np.diff(times, axis=1).T)[..., None]
    states = np.empty((len(us), width, sys.state_dim))
    states[:, 0] = x0s
    ends = lengths.copy()
    blow_up = [None] * len(us)
    threshold = plan.blow_up_threshold
    rhs = sys.rhs
    discrete = sys.time_set == "discrete"
    rk4 = plan.method == "rk4"
    rows = np.flatnonzero(lengths > 1)  # the active rows
    sel = slice(None) if rows.size == len(us) else rows
    next_end = lengths[rows].min(initial=width)
    x = x0s[rows]
    for k in range(width - 1):
        uv = u_steps[k, sel]
        if discrete:
            x_new = np.broadcast_to(np.asarray(rhs(x, uv), dtype=float), x.shape)
        else:
            h = h_steps[k, sel]
            k1 = rhs(x, uv)
            if rk4:
                k2 = rhs(x + (0.5 * h) * k1, uv)
                k3 = rhs(x + (0.5 * h) * k2, uv)
                k4 = rhs(x + h * k3, uv)
                x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                x_new = x + h * k1
        finite = None
        if not np.isfinite(x_new).all():
            finite = np.isfinite(x_new).all(axis=-1)
            moderate = np.flatnonzero(~finite)[sys.state_norm(x[~finite]) < 1e3]
            if moderate.size:
                raise IntegrationError(
                    f"{sys.name}: non-finite right-hand side at t = "
                    f"{times[rows[moderate[0]], k]:g} with moderate state"
                )
            x_new = np.where(finite[:, None], x_new, x)
        states[sel, k + 1] = x_new
        stop = sys.state_norm(x_new) > threshold
        if finite is not None:
            stop |= ~finite
        if k + 2 < next_end and not stop.any():
            x = x_new
            continue
        for i in rows[stop]:
            blow_up[i] = float(times[i, k + 1])
        ends[rows[stop]] = k + 2
        keep = ~stop & (lengths[rows] > k + 2)
        rows = sel = rows[keep]
        if rows.size == 0:
            break
        x = x_new[keep]
        next_end = lengths[rows].min()

    out = []
    for i in range(len(us)):
        n_pts = ends[i]
        x_i, u_i = states[i, :n_pts], u_vals[i, :n_pts]
        y_i = _batched(sys, "output", sys.output, (x_i, u_i), (n_pts, sys.output_dim),
                       check=i == 0)
        out.append(Trajectory(times[i, :n_pts], x_i, y_i, u_i, blow_up[i], plan.step,
                              plan.method))
    return out


def _batched(sys: SystemModel, name: str, fn, args, shape, check: bool = True) -> np.ndarray:
    """fn on a block of rows, as an array of the given shape.

    With ``check`` the first and last rows are re-evaluated alone: a
    difference means fn does not follow the batch contract, and integrating
    on would silently give every row the first row's values.
    """
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != shape:
        try:
            out = np.broadcast_to(out, shape)
        except ValueError:
            raise DomainError(f"{sys.name}: {name} on a batch returned shape {out.shape}, "
                              f"expected {shape}") from None
    if check:
        for i in (0, -1):
            alone = np.asarray(fn(*(a[i] for a in args)), dtype=float)
            if not np.array_equal(alone, out[i], equal_nan=True):
                raise DomainError(
                    f"{sys.name}: {name} on a batch differs from {name} on its rows alone; "
                    "evaluators must act on each row (index x[..., i], reduce over axis -1)"
                )
    return out


@dataclass
class AxiomReport:
    """Max residuals of the identity / causality / cocycle axiom probes."""

    identity_residual: float
    causality_residual: float
    cocycle_residual: float
    flagged: list
    samples: int

    def passes(self, tol: float) -> bool:
        return max(self.identity_residual, self.causality_residual, self.cocycle_residual) <= tol


def check_axioms(sys: SystemModel, samples, plan: SimPlan) -> AxiomReport:
    """Probe the semigroup axioms on a list of (x0, u, t, s) samples.

    identity:  || phi(0, x, u) - x ||
    causality: || phi(t, x, u) - phi(t, x, u|_[0,t]) ||
    cocycle:   || phi(t+s, x, u) - phi(s, phi(t, x, u), u(t + .)) ||
    Blow-ups flag the sample instead of failing the whole report.
    """
    if not samples:
        raise DomainError("need at least one axiom sample")
    id_res = 0.0
    caus_res = 0.0
    coc_res = 0.0
    flagged = []
    for i, (x0, u, t, s) in enumerate(samples):
        x0 = np.asarray(x0, dtype=float)
        try:
            traj_id = simulate(sys, x0, u, SimPlan(0.0, plan.step, plan.method, plan.blow_up_threshold))
            id_res = max(id_res, float(np.linalg.norm(traj_id.states[-1] - x0)))

            full = simulate(sys, x0, u, SimPlan(t + s, plan.step, plan.method, plan.blow_up_threshold))
            if full.blow_up is not None:
                flagged.append((i, "blow-up"))
                continue
            restricted = simulate(
                sys, x0, u.restrict(0.0, t), SimPlan(t, plan.step, plan.method, plan.blow_up_threshold)
            )
            head = simulate(sys, x0, u, SimPlan(t, plan.step, plan.method, plan.blow_up_threshold))
            caus_res = max(
                caus_res, float(np.linalg.norm(head.states[-1] - restricted.states[-1]))
            )
            tail = simulate(
                sys, head.states[-1], u.shift(t),
                SimPlan(s, plan.step, plan.method, plan.blow_up_threshold),
            )
            k_ts = full.at_time(t + s)
            coc_res = max(
                coc_res, float(np.linalg.norm(full.states[k_ts] - tail.states[-1]))
            )
        except IntegrationError:
            flagged.append((i, "integration error"))
    return AxiomReport(id_res, caus_res, coc_res, flagged, len(samples))


def full_state_wrap(sys: SystemModel) -> SystemModel:
    """Re-output the state itself: h(x, u) = x."""
    return SystemModel(
        name=f"{sys.name}_full_state",
        time_set=sys.time_set,
        state_dim=sys.state_dim,
        input_dim=sys.input_dim,
        rhs=sys.rhs,
        output=lambda x, u: np.asarray(x, dtype=float),
        output_dim=sys.state_dim,
        analytic_flow=sys.analytic_flow,
        state_norm=sys.state_norm,
        embed=sys.embed,
        meta=dict(sys.meta, full_state=True),
    )
