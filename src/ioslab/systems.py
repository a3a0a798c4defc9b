"""Abstract control systems with outputs, simulation, and axiom probes.

A system is a time set (continuous or discrete), a state evaluator and an
output map; continuous-time systems are integrated with fixed-step RK4,
discrete-time systems iterate their step map exactly.  Each trajectory's
integration grid is aligned with its own input signal's breakpoints so that
each step sees a constant input value, which preserves RK4's order for
piecewise-constant inputs.

One kernel integrates everything: it advances P trajectories in lockstep as
one (P, n) state block.  Each distinct input signal of a call gets one grid
and one input series (padded to the longest grid), shared by its rows; a
chunk of steps forms its rows' step sizes from these grids, so a row performs
exactly the floating-point operations of a one-trajectory run and rows with
different input breakpoints share a block.  A signal is read on its grid
through ``InputSignal.__call__``, the one rule for sampling a signal.  Both entry
points return one row type, ``Trajectory``: its times, input values, blow-up
time and the norm series |y(t_k)| and |x(t_k)|, which the kernel reduces each
chunk of steps to as soon as the blow-up guard has read it.  The series the
checks derive from these (the running sups of |y| and |u| and the |u| series)
are computed on a row's first read of each and kept once per row.
``simulate`` runs one row and also keeps its states and outputs.
``simulate_batch`` keeps no states, so its memory does not grow with the
truncation width n; its rows rebuild ``states``/``outputs`` on first access
by running the row alone, which by the row contract above gives the arrays
the batch computed.
Batch contract: ``rhs``, ``output`` and ``state_norm`` take arrays with
leading batch axes (index a coordinate as ``x[..., i]``, reduce over
``axis=-1``) and act on each row alone.  Both entry points evaluate
``output`` and ``state_norm`` once per chunk, on (steps, P, n) blocks of the
states after each step.  The kernel re-evaluates them on single rows once
per call and raises ``DomainError`` where a batched row differs, since a
scalar-style ``np.array([-x[0] + u[0]])`` would otherwise give every row the
first row's derivative.  ``rhs`` and ``state_norm`` may be called on
non-finite or huge rows and must not raise on them; ``output`` sees only
states a trajectory keeps (the steps of a stopped row after its last kept
state repeat that state).  Evaluators should compute on whole contiguous
rows: at the lockstep sizes (P up to about 40 rows of up to 64 coordinates)
a ufunc on a strided column view such as ``x[..., 1:]``, or with a (P, 1) or
(n,) broadcast operand, costs about twice as much as on two contiguous
(P, n) blocks.  The kernel hands ``rhs`` contiguous states, and multiplies them
by RK4 step constants formed per chunk and repeated to the state's width.

Blow-up handling: the kernel steps in chunks of ``_CHUNK`` lockstep steps,
each ending no later than the earliest active row's grid end, and reads the
guard once per chunk on the chunk's states.  For each row, the first step
in the chunk whose state is non-finite or has norm above
``blow_up_threshold`` decides: the trajectory is truncated there and stamped
with that step's grid time, and a non-finite step stores the previous state.
This is the finite-horizon stand-in for a finite maximal existence time, and
property checkers treat it as evidence against forward completeness at that
sample.  A non-finite step taken from a state of norm below 1e3 is a genuine
integration error instead: ``IntegrationError`` names the start time of the
earliest such step (the lowest row first).  A row that stops mid-chunk runs
on until the chunk ends, under ``np.errstate(all="ignore")``, and those
states are discarded; so a row's trajectory is the same whichever rows share
its block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, IntegrationError
from .signals import InputSignal

__all__ = ["SystemModel", "SimPlan", "Trajectory", "AxiomReport", "simulate", "simulate_batch",
           "check_axioms", "full_state_wrap"]

_CHUNK = 32  # lockstep steps between two reads of the blow-up guard


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

    def __post_init__(self):
        if self.time_set not in ("continuous", "discrete"):
            raise DomainError("time_set must be 'continuous' or 'discrete'")


@dataclass(frozen=True)
class SimPlan:
    """Integration controls: horizon, base RK4 step, blow-up threshold."""

    horizon: float
    step: float = 1e-2
    blow_up_threshold: float = 1e9

    def __post_init__(self):
        # NaN fails every comparison; a threshold of inf switches the guard off
        if not (0.0 <= self.horizon < np.inf and 0.0 < self.step < np.inf
                and self.blow_up_threshold > 0.0):
            raise DomainError("SimPlan needs a finite horizon >= 0, a finite step > 0 "
                              "and a blow-up threshold > 0")


class Trajectory:
    """One simulated row, sampled on its integration grid.

    Eager: ``times`` and ``input_values`` (u(t_k), as ``InputSignal.__call__``
    reads the input on the grid), read-only views shared by the rows of one
    call that read equal signals; ``blow_up`` (the first grid time at which
    the state norm crossed the threshold, or None), ``y_norms`` (|y(t_k)|,
    also ``output_norms()``) and ``x_norms`` (|x(t_k)| in ``state_norm``).
    Lazy, each computed on its first read and kept once per row: ``y_sup``,
    ``u_norms`` and ``u_sup``.  ``outputs[k]`` is exactly ``h(states[k],
    input_values[k])``.  A ``simulate`` row keeps ``states`` and ``outputs``;
    a ``simulate_batch`` row rebuilds them on first access by running the
    row alone through ``simulate``, which repeats the row's floating-point
    operations (the batch contract), so they equal what the batch computed.
    """

    __slots__ = ("times", "input_values", "blow_up", "y_norms", "x_norms", "_arrays",
                 "_y_sup", "_u_norms", "_u_sup")

    def __init__(self, times, input_values, blow_up, y_norms, x_norms, arrays):
        """``arrays`` is (states, outputs), or a call that returns the lone run."""
        self.times, self.input_values, self.blow_up = times, input_values, blow_up
        self.y_norms, self.x_norms, self._arrays = y_norms, x_norms, arrays
        self._y_sup = self._u_norms = self._u_sup = None

    @property
    def y_sup(self) -> np.ndarray:
        """Running sup of |y|."""
        if self._y_sup is None:
            self._y_sup = np.maximum.accumulate(self.y_norms)
        return self._y_sup

    @property
    def u_norms(self) -> np.ndarray:
        """|u(t_k)|: the norm of each input value."""
        if self._u_norms is None:
            self._u_norms = np.linalg.norm(self.input_values, axis=1)
        return self._u_norms

    @property
    def u_sup(self) -> np.ndarray:
        """Running sup of |u(t_k)|: the sup of the input values the row read
        up to each grid time (in discrete time, the values at step times)."""
        if self._u_sup is None:
            self._u_sup = np.maximum.accumulate(self.u_norms)
        return self._u_sup

    def _kept(self) -> tuple:
        if callable(self._arrays):
            self._arrays = self._arrays()._arrays
        return self._arrays

    @property
    def states(self) -> np.ndarray:
        return self._kept()[0]

    @property
    def outputs(self) -> np.ndarray:
        return self._kept()[1]

    def output_norms(self) -> np.ndarray:
        return self.y_norms

    def at_time(self, t: float) -> int:
        """Index of the grid point closest to t (grid contains probe times)."""
        return int(np.argmin(np.abs(self.times - t)))


def _time_grid(horizon: float, step: float, breakpoints: np.ndarray) -> np.ndarray:
    """The multiples k * step below the horizon, the breakpoints inside it
    and the horizon itself, near-duplicates dropped.  Every rule reads the
    horizon alone, so the grid up to one of its times t is the grid of
    horizon t, and a run to t repeats the states of a longer run."""
    # k * step, where linspace's k * (n * step / n) is an ulp off for some n
    base = np.arange(int(np.ceil(horizon / step - 1e-12)) + 1) * step
    cuts = breakpoints[(breakpoints > 0.0) & (breakpoints < horizon)]
    grid = np.union1d(base[base < horizon], np.append(cuts, horizon))
    # drop near-duplicates produced by float unions
    keep = np.concatenate(([True], np.diff(grid) > 1e-13))
    return grid[keep]


def simulate(sys: SystemModel, x0, u: InputSignal, plan: SimPlan) -> Trajectory:
    """Run the system from x0 under input u on [0, min(horizon, blow-up)],
    keeping its states and outputs."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.state_dim,):
        raise DomainError(f"state must have shape ({sys.state_dim},)")
    return _run(sys, x0[None, :], [u], plan, True)[0]


def simulate_batch(sys: SystemModel, x0s, us, plan: SimPlan) -> list[Trajectory]:
    """Run row i of x0s under input us[i], all rows in lockstep.

    Row i is integrated on its signal's grid with that grid's step sizes,
    so it performs exactly the floating-point operations of a
    one-trajectory run; rows that read equal signals share one grid.
    A row leaves the block when it blows up or reaches the end of its grid.
    Each row keeps its norm series, not its states (:class:`Trajectory`).
    """
    return _run(sys, x0s, us, plan, False)


def _run(sys: SystemModel, x0s, us, plan: SimPlan, keep_states: bool) -> list[Trajectory]:
    """The kernel: a ``Trajectory`` per row, keeping its states with ``keep_states``."""
    us = list(us)
    if not us:
        return []
    x0s = np.array(x0s, dtype=float)  # a copy: a row's rebuild reads its x0 later
    if x0s.shape != (len(us), sys.state_dim):
        raise DomainError(f"states must have shape ({len(us)}, {sys.state_dim})")
    for u in us:
        if u.dim != sys.input_dim:
            raise DomainError(f"input dim {u.dim} does not match system ({sys.input_dim})")

    # one grid and one input series per distinct signal, shared by its rows:
    # equal signals give equal grids and values (an InputSignal hashes once)
    slot = {}  # signal -> its row of the shared arrays, in first-seen order
    sig = np.array([slot.setdefault(u, len(slot)) for u in us])  # row -> its signal's row
    if sys.time_set == "discrete":
        grids = [np.arange(0.0, np.floor(plan.horizon) + 1.0)] * len(slot)
    else:
        grids = [_time_grid(plan.horizon, plan.step, u.breakpoints) for u in slot]
    lengths = np.array([len(g) for g in grids])[sig]
    width = int(lengths.max())
    times = np.empty((len(slot), width))
    u_vals = np.empty((len(slot), width, sys.input_dim))
    for d, (grid, u) in enumerate(zip(grids, slot)):
        times[d, : len(grid)] = grid
        times[d, len(grid):] = grid[-1]  # padded steps have h = 0
        u_vals[d, : len(grid)] = u(grid)
    del grids
    times.setflags(write=False)  # read-only, as are the row views of both
    u_vals.setflags(write=False)
    u0 = u_vals[sig, 0]
    _batched(sys, "rhs", sys.rhs, (x0s, u0), x0s.shape)
    x0_norms = _batched(sys, "state_norm", sys.state_norm, (x0s,), (len(us),))
    y0 = _batched(sys, "output", sys.output, (x0s, u0), (len(us), sys.output_dim))
    # the norm series |x(t_k)| and |y(t_k)|, one row per trajectory
    x_norms = np.empty((len(us), width))
    y_norms = np.empty((len(us), width))
    x_norms[:, 0], y_norms[:, 0] = x0_norms, np.linalg.norm(y0, axis=-1)
    if keep_states:
        states = np.empty((len(us), width, sys.state_dim))
        outputs = np.empty((len(us), width, sys.output_dim))
        states[:, 0], outputs[:, 0] = x0s, y0

    # the RK4 step constants 0.5 * h, h and h / 6 are formed per chunk and, for
    # n > 1, repeated into buffers at the state's width, so that each stage
    # multiplies two contiguous (P, n) blocks.  The buffers are made once per
    # call: new arrays per chunk fragmented the heap (a zoo_sweep benchmark
    # run peaked at 124 MB RSS against 105 MB)
    wide = [np.empty((_CHUNK, len(us), sys.state_dim)) for _ in range(3)]
    ends = lengths.copy()
    blow_up = [None] * len(us)
    rows = np.flatnonzero(lengths > 1)  # the active rows
    x = x0s[rows]
    k = 0
    # a row that stops mid-chunk runs on, on possibly non-finite states, until
    # the chunk ends; those states are discarded
    with np.errstate(all="ignore"):
        while rows.size:
            # steps k .. end - 1, the chunk ending no later than an active row's grid
            end = min(k + _CHUNK, int(lengths[rows].min()) - 1)
            sel = slice(None) if rows.size == len(us) else rows
            # the chunk's grid times and input values, time-major: (steps + 1, P, .)
            at = sig[rows]
            t_k = times[:, k:end + 1].T.take(at, axis=1)
            u_k = u_vals[:, k:end + 1].transpose(1, 0, 2).take(at, axis=1)
            h_k = (t_k[1:] - t_k[:-1])[..., None]
            consts = [0.5 * h_k, h_k, h_k / 6.0]
            if sys.state_dim > 1:
                for buf, c in zip(wide, consts):
                    buf[:end - k, :rows.size] = c
                consts = [buf[:end - k, :rows.size] for buf in wide]
            block = _steps(sys, x, u_k[:-1], *consts)
            live = lengths[rows] > end + 1
            hits, norms = _guard(sys, plan.blow_up_threshold, x, block, t_k)
            for r, j in hits:
                i = rows[r]
                blow_up[i] = float(t_k[j + 1, r])
                ends[i] = k + j + 2
                live[r] = False
                block[j + 1:, r] = block[j, r]  # so the output map sees no discarded state
            # the output map on the states after each step, with the input values at their times
            y = _batched(sys, "output", sys.output, (block, u_k[1:]),
                         block.shape[:2] + (sys.output_dim,), check=k == 0)
            x_norms[sel, k + 1:end + 1] = norms.T
            y_norms[sel, k + 1:end + 1] = np.linalg.norm(y, axis=-1).T
            if keep_states:
                states[sel, k + 1:end + 1] = block.swapaxes(0, 1)
                outputs[sel, k + 1:end + 1] = y.swapaxes(0, 1)
            rows, x, k = rows[live], block[-1, live], end

    return [Trajectory(times[d, :n], u_vals[d, :n], blow_up[i], y_norms[i, :n], x_norms[i, :n],
                       (states[i, :n], outputs[i, :n]) if keep_states
                       else partial(simulate, sys, x0s[i], us[i], plan))
            for i, (d, n) in enumerate(zip(sig, ends))]


def _steps(sys: SystemModel, x, u_chunk, half_h, h, sixth_h) -> np.ndarray:
    """The states after each step of a chunk from the states x, shape (steps, P, n)."""
    block = np.empty((len(u_chunk),) + x.shape)
    rhs = sys.rhs
    if sys.time_set == "discrete":
        for j, uv in enumerate(u_chunk):
            block[j] = rhs(x, uv)
            x = block[j]
    else:
        for j, (uv, a, b, c) in enumerate(zip(u_chunk, half_h, h, sixth_h)):
            k1 = rhs(x, uv)
            k2 = rhs(x + a * k1, uv)
            k3 = rhs(x + a * k2, uv)
            k4 = rhs(x + b * k3, uv)
            x = block[j] = x + c * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return block


def _guard(sys: SystemModel, threshold: float, x, block, t_k):
    """([(r, j)], norms): for each row r of the chunk that stops, j its first
    step of the chunk to a non-finite state or a norm above the threshold;
    and the state norms of block, shape (steps, P).

    block[j] holds the states after step j of the chunk from the states x,
    a step from the grid times t_k[j, r] to t_k[j + 1, r].  A row's first
    non-finite state is replaced in block by the state before it, and the
    norms are taken after that.
    """
    bad = ~np.isfinite(block).all(axis=-1)
    if bad.any():
        for r in np.flatnonzero(bad.any(axis=0)):
            j = int(bad[:, r].argmax())
            block[j, r] = block[j - 1, r] if j else x[r]
    norms = np.asarray(sys.state_norm(block), dtype=float)
    stop = bad | (norms > threshold)
    if not stop.any():
        return [], norms
    hits, errors = [], []
    for r in np.flatnonzero(stop.any(axis=0)):
        j = int(stop[:, r].argmax())
        if bad[j, r] and norms[j, r] < 1e3:
            errors.append((j, r))  # the earliest step raises, the lowest row first
        hits.append((r, j))
    if errors:
        j, r = min(errors)
        raise IntegrationError(f"{sys.name}: non-finite right-hand side at t = "
                               f"{t_k[j, r]:g} with moderate state")
    return hits, norms


def _batched(sys: SystemModel, name: str, fn, args, shape, check: bool = True) -> np.ndarray:
    """fn on a block of rows, as an array of the given shape.

    With ``check`` the first and last rows (of every leading axis of the
    state argument) are re-evaluated alone: a difference means fn does not
    follow the batch contract, and integrating on would silently give every
    row the first row's values.
    """
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != shape:
        try:
            out = np.broadcast_to(out, shape)
        except ValueError:
            raise DomainError(f"{sys.name}: {name} on a batch returned shape {out.shape}, "
                              f"expected {shape}") from None
    if check:
        lead = args[0].ndim - 1
        for i in ((0,) * lead, (-1,) * lead):
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
            traj_id = simulate(sys, x0, u, replace(plan, horizon=0.0))
            id_res = max(id_res, float(np.linalg.norm(traj_id.states[-1] - x0)))

            full = simulate(sys, x0, u, replace(plan, horizon=t + s))
            if full.blow_up is not None:
                flagged.append((i, "blow-up"))
                continue
            restricted = simulate(sys, x0, u.restrict(0.0, t), replace(plan, horizon=t))
            head = simulate(sys, x0, u, replace(plan, horizon=t))
            caus_res = max(
                caus_res, float(np.linalg.norm(head.states[-1] - restricted.states[-1]))
            )
            tail = simulate(sys, head.states[-1], u.shift(t), replace(plan, horizon=s))
            k_ts = full.at_time(t + s)
            coc_res = max(
                coc_res, float(np.linalg.norm(full.states[k_ts] - tail.states[-1]))
            )
        except IntegrationError:
            flagged.append((i, "integration error"))
    return AxiomReport(id_res, caus_res, coc_res, flagged, len(samples))


def full_state_wrap(sys: SystemModel) -> SystemModel:
    """Re-output the state through its norm: h(x, u) = state_norm(x), one
    output coordinate.  |y| then equals the norm the stability definitions
    quantify over, also for states stored in non-Euclidean coordinates, so
    an IOS check on the wrap is the ISS check of ``sys``."""
    return SystemModel(
        name=f"{sys.name}_full_state",
        time_set=sys.time_set,
        state_dim=sys.state_dim,
        input_dim=sys.input_dim,
        rhs=sys.rhs,
        output=lambda x, u: np.asarray(sys.state_norm(x), dtype=float)[..., None],
        output_dim=1,
        analytic_flow=sys.analytic_flow,
        state_norm=sys.state_norm,
        embed=sys.embed,
    )
