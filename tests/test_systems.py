"""Simulation, axiom probes, RK4 convergence order and the lockstep kernel."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from ioslab.errors import DomainError, IntegrationError
from ioslab.signals import InputSignal
from ioslab.systems import (_CHUNK, SimPlan, SystemModel, _time_grid, check_axioms,
                            full_state_wrap, simulate, simulate_batch)
from ioslab.zoo import blowup_seed_state, make_example, zoo_ids


def test_simulate_linear_decay_closed_form():
    sys = make_example("sin_output")
    traj = simulate(sys, [1.0], InputSignal.zero(0), SimPlan(1.0, 1e-3))
    k = traj.at_time(1.0)
    assert traj.states[k, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_simulate_sin_output_value():
    # closed-form flow e^{-t} x0 pushed through the sine read-out
    sys = make_example("sin_output")
    traj = simulate(sys, [math.pi], InputSignal.zero(0), SimPlan(1.0, 1e-3))
    expected = math.sin(math.pi * math.exp(-1.0))
    assert expected == pytest.approx(0.91510, abs=5e-5)
    assert traj.outputs[traj.at_time(1.0), 0] == pytest.approx(expected, abs=1e-6)


def test_simulate_rotation_output_zero_crossing():
    sys = make_example("rotation")
    # polar (theta0, rho0) = (0, 1) is the Cartesian point (1, 0)
    traj = simulate(sys, [1.0, 0.0], InputSignal.zero(0), SimPlan(math.pi / 2, 1e-3))
    k = traj.at_time(math.pi / 2)
    assert abs(traj.outputs[k, 0]) <= 1e-6


def test_output_column_is_exact_recompute():
    sys = make_example("lin_scalar")
    u = InputSignal.steps([0.0, 0.7], [[1.0], [-0.5]])
    traj = simulate(sys, [2.0], u, SimPlan(2.0, 1e-2))
    for k in range(len(traj.times)):
        expected = sys.output(traj.states[k], traj.input_values[k])
        assert np.array_equal(traj.outputs[k], np.atleast_1d(expected))


def test_blow_up_truncates_with_flag():
    sys = SystemModel(
        name="quadratic_growth",
        time_set="continuous",
        state_dim=1,
        input_dim=0,
        rhs=lambda x, u: x * x,
        output=lambda x, u: x,
    )
    traj = simulate(sys, [3.0], InputSignal.zero(0), SimPlan(2.0, 1e-3, blow_up_threshold=1e6))
    assert traj.blow_up is not None
    assert traj.blow_up <= 0.5
    assert np.all(np.isfinite(traj.states))
    # everything before the flag is finite and the times still increase
    assert np.all(np.diff(traj.times) > 0)


def test_dimension_mismatch_rejected():
    sys = make_example("lin_scalar")
    with pytest.raises(DomainError):
        simulate(sys, [1.0, 2.0], InputSignal.zero(1), SimPlan(1.0))
    with pytest.raises(DomainError):
        simulate(sys, [1.0], InputSignal.zero(3), SimPlan(1.0))


def test_discrete_time_step_map():
    sys = SystemModel(
        name="halving",
        time_set="discrete",
        state_dim=1,
        input_dim=1,
        rhs=lambda x, u: 0.5 * x + u,
        output=lambda x, u: x,
    )
    u = InputSignal.constant([1.0])
    traj = simulate(sys, [4.0], u, SimPlan(3.0))
    np.testing.assert_allclose(traj.states[:, 0], [4.0, 3.0, 2.5, 2.25])


def _rk4_error(sys, x0, horizon, step):
    u = InputSignal.zero(0)
    traj = simulate(sys, x0, u, SimPlan(horizon, step))
    oracle = np.stack([np.asarray(sys.analytic_flow(t, x0, u)) for t in traj.times])
    return float(np.max(np.linalg.norm(traj.states - oracle, axis=1)))


@pytest.mark.parametrize("zoo_id,x0", [("sin_output", [2.0]), ("rotation", [0.6, 0.8])])
def test_rk4_order_four_under_step_halving(zoo_id, x0):
    sys = make_example(zoo_id)
    e1 = _rk4_error(sys, np.asarray(x0), 2.0, 2e-2)
    e2 = _rk4_error(sys, np.asarray(x0), 2.0, 1e-2)
    ratio = e1 / e2
    assert 8.0 <= ratio <= 32.0


def test_axiom_residuals_smooth_systems():
    for zoo_id, x0 in [("sin_output", [1.5]), ("rotation", [1.0, 0.5]), ("lin_scalar", [1.0])]:
        sys = make_example(zoo_id)
        if sys.input_dim:
            u = InputSignal.steps([0.0, 0.5], [[0.8], [-0.3]])
        else:
            u = InputSignal.zero(0)
        report = check_axioms(sys, [(np.asarray(x0), u, 1.0, 0.5)], SimPlan(2.0, 1e-3))
        assert report.identity_residual == 0.0
        assert report.causality_residual <= 1e-6
        assert report.cocycle_residual <= 1e-6, zoo_id


def test_axiom_cocycle_exact_for_discrete_maps():
    sys = SystemModel(
        name="affine_map",
        time_set="discrete",
        state_dim=1,
        input_dim=1,
        rhs=lambda x, u: 0.5 * x + u,
        output=lambda x, u: x,
    )
    u = InputSignal.steps([0.0, 2.0], [[1.0], [0.25]])
    report = check_axioms(sys, [(np.array([1.0]), u, 2.0, 3.0)], SimPlan(6.0))
    assert report.cocycle_residual == 0.0
    assert report.causality_residual == 0.0


def test_axiom_blowup_flags_sample_not_fatal():
    sys = SystemModel(
        name="quadratic_growth",
        time_set="continuous",
        state_dim=1,
        input_dim=0,
        rhs=lambda x, u: x * x,
        output=lambda x, u: x,
    )
    report = check_axioms(
        sys,
        [(np.array([0.1]), InputSignal.zero(0), 0.5, 0.5),
         (np.array([5.0]), InputSignal.zero(0), 1.0, 1.0)],
        SimPlan(2.0, 1e-3, blow_up_threshold=1e6),
    )
    assert report.flagged and report.flagged[0][0] == 1
    assert report.cocycle_residual <= 1e-6


def test_blow_up_states_finite_before_flag():
    sys = make_example("l2_blowup", n=8)
    # a coordinate seed well above the safe region still yields finite prefix
    x0 = np.zeros(8)
    x0[0] = 2.0 * math.e
    x0[1] = 40.0
    traj = simulate(sys, x0, InputSignal.zero(0), SimPlan(1.0, 1e-3, blow_up_threshold=1e4))
    if traj.blow_up is not None:
        assert np.all(np.isfinite(traj.states[:-1]))


def test_full_state_wrap_outputs_state():
    sys = full_state_wrap(make_example("lin_scalar"))
    traj = simulate(sys, [1.5], InputSignal.constant([1.0]), SimPlan(1.0, 1e-2))
    np.testing.assert_array_equal(traj.outputs, traj.states)


def test_simulation_grid_aligns_with_input_breakpoints():
    sys = make_example("lin_scalar")
    u = InputSignal.steps([0.0, 0.333], [[1.0], [0.0]])
    traj = simulate(sys, [0.0], u, SimPlan(1.0, 1e-2))
    assert np.any(np.isclose(traj.times, 0.333))
    # variation-of-constants oracle across the breakpoint; a grid that did
    # not split the step at the breakpoint would be off by ~1e-3 here
    t = 1.0
    expected = 1.0 * (math.exp(-(t - 0.333)) - math.exp(-t))
    assert traj.states[traj.at_time(1.0), 0] == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# lockstep kernel: a batch equals its rows run one at a time, bit for bit
# ---------------------------------------------------------------------------

def _mixed_inputs(dim):
    """Zero, const, step and pw inputs: four different time grids."""
    def steps(breakpoints, levels):
        return InputSignal.steps(breakpoints, np.outer(levels, np.ones(dim)))

    return [
        InputSignal.zero(dim),
        steps([0.0], [0.7]),
        steps([0.0, 0.555], [1.5, 0.0]),
        steps([0.0, 0.1234, 0.8137, 1.3771], [-0.4, 0.9, 0.25, -1.1]),
    ]


def _halving():
    return SystemModel(
        name="halving",
        time_set="discrete",
        state_dim=1,
        input_dim=1,
        rhs=lambda x, u: 0.5 * x + u,
        output=lambda x, u: x,
    )


def _reference_simulate(sys, x0, u, plan):
    """The one-trajectory step loop the kernel replaced, kept as the
    reference: (times, states, outputs, input values, blow-up time)."""
    if sys.time_set == "discrete":
        times = np.arange(0.0, np.floor(plan.horizon) + 1.0)
    else:
        times = _time_grid(plan.horizon, plan.step, u.breakpoints)
    states = np.empty((len(times), sys.state_dim))
    u_vals = np.empty((len(times), sys.input_dim))
    states[0], u_vals[0] = x0, u(times[0])
    x, last, blow_up = np.asarray(x0, dtype=float), len(times) - 1, None
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        uv = u(t0)
        if sys.time_set == "discrete":
            x_new = np.asarray(sys.rhs(x, uv), dtype=float)
        else:
            h = t1 - t0
            k1 = sys.rhs(x, uv)
            k2 = sys.rhs(x + (0.5 * h) * k1, uv)
            k3 = sys.rhs(x + (0.5 * h) * k2, uv)
            k4 = sys.rhs(x + h * k3, uv)
            x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        finite = np.all(np.isfinite(x_new))
        assert finite or sys.state_norm(x) >= 1e3
        states[k + 1] = x_new if finite else x
        u_vals[k + 1] = u(t1)
        if not finite or sys.state_norm(states[k + 1]) > plan.blow_up_threshold:
            blow_up, last = float(t1), k + 1
            break
        x = x_new
    n = last + 1
    outputs = np.stack([np.atleast_1d(sys.output(states[k], u_vals[k])) for k in range(n)])
    return times[:n], states[:n], outputs, u_vals[:n], blow_up


def _assert_batch_equals_rows(sys, x0s, us, plan):
    batch = simulate_batch(sys, x0s, us, plan)
    assert len(batch) == len(us)
    for x0, u, got in zip(x0s, us, batch):
        one = simulate(sys, x0, u, plan)
        ref = _reference_simulate(sys, x0, u, plan)
        for traj in (got, one):
            assert np.array_equal(traj.times, ref[0])
            assert np.array_equal(traj.states, ref[1])
            assert np.array_equal(traj.outputs, ref[2])
            assert np.array_equal(traj.input_values, ref[3])
            assert traj.blow_up == ref[4]
    return batch


# the l2 systems also at the truncation widths the zoo's plans use
_BATCH_CASES = [pytest.param(zoo_id, 8, id=zoo_id) for zoo_id in zoo_ids()] + [
    pytest.param(zoo_id, n, id=f"{zoo_id}-{n}")
    for zoo_id in zoo_ids() if zoo_id.startswith("l2_") for n in (16, 64)
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing l2 row
@pytest.mark.parametrize("zoo_id, n", _BATCH_CASES)
def test_batch_equals_one_at_a_time(zoo_id, n):
    sys = make_example(zoo_id, n=n) if zoo_id.startswith("l2_") else make_example(zoo_id)
    rng = np.random.default_rng(3)
    x0s, us = [], []
    for radius in (0.3, 2.0):
        for u in _mixed_inputs(sys.input_dim):
            d = rng.normal(size=sys.state_dim)
            x0s.append(sys.embed(radius, d / np.linalg.norm(d)))
            us.append(u)
    plan = SimPlan(2.0, 1e-2, blow_up_threshold=50.0)
    if zoo_id == "l2_blowup":
        # the j = 6 seed crosses the threshold, the last row overflows on its
        # first step and is frozen; the others run to the horizon
        for x0 in (blowup_seed_state(n, 3), blowup_seed_state(n, 6), np.full(n, 1e160)):
            x0s.append(x0)
            us.append(_mixed_inputs(0)[3])
    batch = _assert_batch_equals_rows(sys, np.array(x0s), us, plan)
    assert len({len(t.times) for t in batch}) >= 3
    if zoo_id == "l2_blowup":
        assert [t.blow_up is None for t in batch[-3:]] == [True, False, False]
        assert len(batch[-1].times) == 2 and np.array_equal(*batch[-1].states)
    if zoo_id.startswith("l2_"):
        # a huge x_0 with small other coordinates has a finite derivative: the
        # column-0 terms besides -x_0 (x_0^3 = 1e330 if formed) must not overflow
        row = np.full((1, n), 0.1)
        row[0, 0] = 1e110
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = sys.rhs(row, np.full((1, sys.input_dim), 0.5))
        assert np.isfinite(d).all() and d[0, 0] < 0


def test_batch_equals_one_at_a_time_discrete():
    us = _mixed_inputs(1)
    _assert_batch_equals_rows(_halving(), np.array([[4.0], [-1.0], [0.5], [2.0]]), us,
                              SimPlan(6.0))


# ---------------------------------------------------------------------------
# rows that read equal signals share one grid and one input series
# ---------------------------------------------------------------------------

def test_rows_of_equal_signals_share_their_grid_and_input_series():
    sys = make_example("lin_scalar")
    # two equal signals built apart, and one that differs
    u, twin, other = (InputSignal.steps([0.0, 0.555], [[1.5], [level]])
                      for level in (0.0, 0.0, 2.0))
    batch = simulate_batch(sys, np.array([[1.0], [-2.0], [0.5]]), [u, twin, other],
                           SimPlan(2.0, 1e-2))
    first, second, third = batch
    assert np.shares_memory(first.times, second.times)
    assert np.shares_memory(first.input_values, second.input_values)
    assert not np.shares_memory(first.times, third.times)
    assert not np.shares_memory(first.input_values, third.input_values)
    for a, b in ((first, second), (first, third), (second, third)):
        assert not np.shares_memory(a.y_norms, b.y_norms)
        assert not np.shares_memory(a.x_norms, b.x_norms)
    assert not np.array_equal(first.y_norms, second.y_norms)
    for row in batch:
        for shared in (row.times, row.input_values):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing row
def test_rows_sharing_a_signal_stop_at_their_own_steps():
    """Four rows read one signal (three copies of it built apart); a fifth
    reads another.  One row is quiet, two cross the threshold mid-chunk at
    different steps and one overflows on its first step."""
    n = 16
    sys = make_example("l2_blowup", n=n)
    shared = [_mixed_inputs(0)[3] for _ in range(3)]
    us = [shared[0], shared[1], shared[2], shared[0], InputSignal.zero(0)]
    x0s = np.array([blowup_seed_state(n, 3), blowup_seed_state(n, 4), blowup_seed_state(n, 6),
                    np.full(n, 1e160), blowup_seed_state(n, 3)])
    batch = _assert_batch_equals_rows(sys, x0s, us, SimPlan(2.0, 1e-2, blow_up_threshold=50.0))
    ends = [len(row.times) - 1 for row in batch]
    assert [row.blow_up is None for row in batch] == [True, False, False, False, True]
    assert ends[3] == 1 and len(set(ends[:4])) == 4
    for end in ends[1:3]:
        assert end < _CHUNK and end - 1 not in (0, _CHUNK - 1)
    assert all(np.shares_memory(batch[0].times, row.times) for row in batch[1:4])
    assert not np.shares_memory(batch[0].times, batch[4].times)


def test_a_discrete_batch_sharing_a_signal_equals_its_rows():
    shared = _mixed_inputs(1)[3]
    us = [shared, _mixed_inputs(1)[3], shared, _mixed_inputs(1)[1]]
    batch = _assert_batch_equals_rows(_halving(), np.array([[4.0], [-1.0], [0.5], [2.0]]), us,
                                      SimPlan(6.0))
    assert np.shares_memory(batch[0].input_values, batch[1].input_values)
    assert np.shares_memory(batch[0].input_values, batch[2].input_values)
    assert not np.shares_memory(batch[0].input_values, batch[3].input_values)


def test_batch_rejects_scalar_style_rhs():
    sys = SystemModel(
        name="scalar_style",
        time_set="continuous",
        state_dim=1,
        input_dim=1,
        rhs=lambda x, u: np.array([-x[0] + u[0]]),
        output=lambda x, u: x,
    )
    with pytest.raises(DomainError, match="rows alone"):
        simulate_batch(sys, np.array([[1.0], [2.0]]), [InputSignal.zero(1)] * 2,
                       SimPlan(1.0, 1e-2))


# ---------------------------------------------------------------------------
# the blow-up guard, read once per chunk of lockstep steps
# ---------------------------------------------------------------------------

def _growth(time_set="continuous", rate=1.0):
    """dx = rate * x, or the step map x -> rate * x: the norm grows every step."""
    return SystemModel(name="growth", time_set=time_set, state_dim=1, input_dim=1,
                       rhs=lambda x, u: rate * x, output=lambda x, u: x)


def _crossing_threshold(sys, x0, u, plan, j):
    """A threshold that x0's trajectory first crosses at grid index j."""
    norms = np.abs(_reference_simulate(sys, x0, u, plan)[1][:, 0])
    return 0.5 * (norms[j - 1] + norms[j])


@pytest.mark.parametrize("edge", ["first step", "chunk end", "next chunk", "last step"])
def test_guard_stamps_the_crossing_at_chunk_edges(edge):
    sys, u, plan = _growth(), InputSignal.zero(1), SimPlan(3.0, 1e-2, blow_up_threshold=np.inf)
    last = len(_time_grid(plan.horizon, plan.step, u.breakpoints)) - 1
    j = {"first step": 1, "chunk end": _CHUNK, "next chunk": _CHUNK + 1, "last step": last}[edge]
    threshold = _crossing_threshold(sys, [1.0], u, plan, j)
    plan = SimPlan(3.0, 1e-2, blow_up_threshold=threshold)
    # the second row never crosses
    batch = _assert_batch_equals_rows(sys, np.array([[1.0], [1e-3]]), [u, u], plan)
    assert batch[0].blow_up == batch[0].times[j] and len(batch[0].times) == j + 1
    assert batch[1].blow_up is None and len(batch[1].times) == last + 1


def test_guard_with_a_row_ending_mid_chunk():
    sys = _growth()
    plain = InputSignal.zero(1)
    # five off-grid breakpoints: a grid five points longer than the plain one
    cut = InputSignal.steps([0.0, 0.105, 0.215, 0.335, 0.455, 0.505], np.zeros((6, 1)))
    plan = SimPlan(1.0, 1e-2, blow_up_threshold=np.inf)
    plain_end = len(_time_grid(plan.horizon, plan.step, plain.breakpoints)) - 1
    cut_end = len(_time_grid(plan.horizon, plan.step, cut.breakpoints)) - 1
    assert plain_end % _CHUNK and cut_end == plain_end + 5
    plan = SimPlan(1.0, 1e-2, blow_up_threshold=_crossing_threshold(sys, [1.0], cut, plan,
                                                                     plain_end + 2))
    # row 0 ends its grid mid-chunk; row 1 crosses before that end, row 2 after it
    batch = _assert_batch_equals_rows(sys, np.array([[1e-3], [1.1], [1.0]]),
                                      [plain, cut, cut], plan)
    assert batch[0].blow_up is None and len(batch[0].times) == plain_end + 1
    assert batch[1].blow_up is not None and len(batch[1].times) < plain_end + 1
    assert batch[2].blow_up == batch[2].times[plain_end + 2]


def test_guard_on_a_discrete_doubling_map():
    sys, u = _growth("discrete", 2.0), InputSignal.zero(1)
    plan = SimPlan(3 * _CHUNK, blow_up_threshold=1.5 * 2.0 ** (_CHUNK + 8))
    batch = _assert_batch_equals_rows(sys, np.array([[1e-40], [1.0]]), [u, u], plan)
    assert batch[0].blow_up is None
    assert batch[1].blow_up == float(_CHUNK + 9)


def _nan_from(level):
    """dx = 1 while x < level, a NaN derivative from there on (no warnings)."""
    return SystemModel(name="nan_from", time_set="continuous", state_dim=1, input_dim=1,
                       rhs=lambda x, u: np.where(x < level, 1.0, np.nan),
                       output=lambda x, u: x)


def _reference_error_time(sys, x0, u, plan):
    """Start time of the first reference RK4 step whose state is not finite."""
    times = _time_grid(plan.horizon, plan.step, u.breakpoints)
    x = np.asarray(x0, dtype=float)
    for t0, t1 in zip(times[:-1], times[1:]):
        h, uv = t1 - t0, u(t0)
        k1 = sys.rhs(x, uv)
        k2 = sys.rhs(x + (0.5 * h) * k1, uv)
        k3 = sys.rhs(x + (0.5 * h) * k2, uv)
        k4 = sys.rhs(x + h * k3, uv)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            return t0
    raise AssertionError("the reference stays finite")


def _raises_at(t):
    return pytest.raises(IntegrationError, match=re.escape(f"at t = {t:g} with moderate"))


def test_nonfinite_step_from_a_moderate_state_raises():
    sys, u, plan = _nan_from(1.0), InputSignal.zero(1), SimPlan(2.0, 1e-2)
    t_first = _reference_error_time(sys, [0.0], u, plan)
    t_later = _reference_error_time(sys, [-0.02], u, plan)
    # both rows go non-finite in one chunk, the lower row later
    assert t_first < t_later
    assert round(t_first / plan.step) // _CHUNK == round(t_later / plan.step) // _CHUNK
    with _raises_at(t_first):
        simulate(sys, [0.0], u, plan)
    with _raises_at(t_first):
        simulate_batch(sys, np.array([[-50.0], [0.0]]), [u, u], plan)
    with _raises_at(t_first):
        simulate_batch(sys, np.array([[-0.02], [0.0]]), [u, u], plan)


def test_nonfinite_step_from_a_large_state_freezes_and_stamps():
    sys, u, plan = _nan_from(2e3), InputSignal.zero(1), SimPlan(2.0, 1e-2)
    batch = _assert_batch_equals_rows(sys, np.array([[-50.0], [1999.95]]), [u, u], plan)
    assert batch[0].blow_up is None
    frozen = batch[1]
    assert frozen.blow_up == frozen.times[-1] and len(frozen.times) < len(batch[0].times)
    assert np.array_equal(frozen.states[-1], frozen.states[-2])


@pytest.mark.parametrize("step", [0, _CHUNK])
def test_nonfinite_first_step_of_a_chunk_raises(step):
    sys, u, plan = _nan_from((step + 0.5) * 1e-2), InputSignal.zero(1), SimPlan(1.0, 1e-2)
    t = _reference_error_time(sys, [0.0], u, plan)
    assert t == _time_grid(plan.horizon, plan.step, u.breakpoints)[step]
    with _raises_at(t):
        simulate(sys, [0.0], u, plan)


@pytest.mark.parametrize("controls", [
    {"horizon": math.nan}, {"horizon": math.inf}, {"horizon": -1.0},
    {"horizon": 1.0, "step": math.nan}, {"horizon": 1.0, "step": math.inf},
    {"horizon": 1.0, "step": 0.0},
    {"horizon": 1.0, "blow_up_threshold": math.nan},
    {"horizon": 1.0, "blow_up_threshold": -1.0},
    {"horizon": 1.0, "blow_up_threshold": 0.0},
])
def test_sim_plan_refuses_controls_that_are_not_finite_and_in_range(controls):
    with pytest.raises(DomainError, match="SimPlan needs"):
        SimPlan(**controls)
    # an infinite threshold switches the blow-up guard off and stays allowed
    assert SimPlan(1.0, blow_up_threshold=math.inf).blow_up_threshold == math.inf


@pytest.mark.parametrize("step", [1e-2, 2e-2, 2e-4])
def test_a_run_to_a_grid_time_repeats_the_longer_run(step):
    """The grid up to one of its times t is the grid of horizon t, so a run
    to t repeats the longer run's states bit for bit.  This includes the
    step counts where linspace's step n * h / n is an ulp off h (29, 57 and
    58 at either of the first two steps) and a breakpoint an ulp below
    the multiple of 2e-4 at 0.123."""
    sys = make_example("lin_scalar")
    u = InputSignal.steps([0.0, 0.123], np.array([[1.0], [-0.5]]))
    long = simulate(sys, [1.0], u, SimPlan(1.2, step))
    cut = int(np.flatnonzero(long.times == 0.123)[0])
    for k in [1, 13, 29, 57, 58, cut, len(long.times) - 1]:
        short = simulate(sys, [1.0], u, SimPlan(long.times[k], step))
        assert np.array_equal(short.times, long.times[:k + 1])
        assert np.array_equal(short.states, long.states[:k + 1])
