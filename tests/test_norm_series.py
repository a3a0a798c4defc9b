"""``simulate_batch`` keeps each row's norm series, not its states.

The kernel reduces every chunk of lockstep steps to |y(t_k)| and |x(t_k)|
right after the blow-up guard.  These tests pin that reduction to the lone
run and to the reference step loop of ``test_systems`` bit for bit, pin the
rows' rebuilt states and outputs to the lone run's arrays, pin the series a
probe's data derives from its row to the formulas a probe set once stored,
check the batch contract of the output map on chunk blocks, and check that a
filled probe set's memory does not grow with the truncation width n."""

import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import test_systems
from ioslab.errors import DomainError
from ioslab.properties import ProbeSet
from ioslab.signals import InputSignal
from ioslab.sysdsl import compile_system, parse_system
from ioslab.systems import (_CHUNK, SimPlan, SystemModel, _batched, full_state_wrap, simulate,
                            simulate_batch)
from ioslab.zoo import blowup_seed_state, get_entry, make_example, zoo_ids


def _lone_norms(sys, x0, u, plan):
    """(|y|, |x|, the run) of the lone run, the norms from its stored arrays."""
    lone = simulate(sys, x0, u, plan)
    return (np.linalg.norm(lone.outputs, axis=1),
            np.asarray(sys.state_norm(lone.states), dtype=float), lone)


def _assert_series_equal_lone(sys, x0s, us, plan):
    rows = simulate_batch(sys, x0s, us, plan)
    for x0, u, row in zip(x0s, us, rows):
        y, x, lone = _lone_norms(sys, x0, u, plan)
        assert lone.y_norms.tobytes() == y.tobytes()
        assert lone.x_norms.tobytes() == x.tobytes()
        assert row.y_norms.tobytes() == y.tobytes()
        assert row.output_norms().tobytes() == y.tobytes()
        assert row.x_norms.tobytes() == x.tobytes()
        assert row.times.tobytes() == lone.times.tobytes()
        assert row.input_values.tobytes() == lone.input_values.tobytes()
        assert row.blow_up == lone.blow_up
    return rows


def _plan_probes(sys, zoo_id):
    plan = get_entry(zoo_id).default_plan()
    probes = ProbeSet(sys, plan).probes
    return np.array([p.x0 for p in probes]), [p.u for p in probes], plan.sim


@pytest.mark.parametrize("zoo_id", zoo_ids())
def test_plan_probe_series_equal_the_lone_runs_norms(zoo_id):
    sys = make_example(zoo_id)
    _assert_series_equal_lone(sys, *_plan_probes(sys, zoo_id))


def test_sat_polar_series_are_its_polar_norm():
    """sat_polar stores (angle, radius): |x| is the radius coordinate, not the
    Euclidean norm of the stored pair; the full-state wrap outputs it."""
    sys = make_example("sat_polar")
    x0s, us, plan = _plan_probes(sys, "sat_polar")
    for model in (sys, full_state_wrap(sys)):
        rows = _assert_series_equal_lone(model, x0s, us, plan)
    for row, x0, u in zip(rows, x0s, us):
        states = simulate(sys, x0, u, plan).states
        assert np.array_equal(row.x_norms, np.abs(states[:, 1]))
        assert np.array_equal(row.y_norms, row.x_norms)
    assert not np.array_equal(rows[0].x_norms, np.linalg.norm(states, axis=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing row
def test_l2_blowup_rows_stopping_mid_chunk_keep_the_lone_series():
    """A seed row crosses the threshold inside a chunk, a huge row overflows on
    its first step (its state is replaced by x0), and a quiet row runs on."""
    n = 16
    sys = make_example("l2_blowup", n=n)
    zero = InputSignal.zero(0)
    x0s = np.array([blowup_seed_state(n, 6), np.full(n, 1e160), np.full(n, 0.1)])
    rows = _assert_series_equal_lone(sys, x0s, [zero] * 3, SimPlan(2.0, 1e-2, 50.0))
    crossed, frozen, quiet = rows
    assert crossed.blow_up is not None and (len(crossed.times) - 1) % _CHUNK
    assert crossed.x_norms[-1] > 50.0 >= crossed.x_norms[-2]
    assert frozen.blow_up is not None and len(frozen.times) == 2
    assert frozen.x_norms[0] == frozen.x_norms[1]
    assert quiet.blow_up is None and len(quiet.times) > len(crossed.times)


@pytest.mark.parametrize("zoo_id", ["lin_scalar", "sat_polar", "l2_timewarp"])
def test_batch_rows_rebuild_the_lone_states_and_outputs(zoo_id):
    sys = make_example(zoo_id)
    x0s, us, plan = _plan_probes(sys, zoo_id)
    rows = simulate_batch(sys, x0s[:6], us[:6], plan)
    for x0, u, row in zip(x0s, us, rows):
        lone = simulate(sys, x0, u, plan)
        assert row.states.tobytes() == lone.states.tobytes()
        assert row.outputs.tobytes() == lone.outputs.tobytes()
        assert row.states is row.states  # rebuilt once
        # and the rebuilt arrays are the ones the batch reduced
        assert np.array_equal(np.asarray(sys.state_norm(row.states)), row.x_norms)
        assert np.array_equal(np.linalg.norm(row.outputs, axis=1), row.y_norms)


def _eager_series(probe, traj):
    """(running sup of |y|, |u| on [0, t], |u(t)|) by the formulas a probe
    set once applied to every row it cached, with one read-only zero view
    for both input series of an input-free probe."""
    ynorm = traj.y_norms
    ysup = np.maximum.accumulate(ynorm)
    if probe.u.dim:
        piece = np.linalg.norm(probe.u.values, axis=1)
        run = np.maximum.accumulate(piece)
        idx = np.searchsorted(probe.u.breakpoints, traj.times, side="right") - 1
        urestr = run[idx]
        uval = np.linalg.norm(traj.input_values, axis=1)
    else:
        urestr = uval = np.broadcast_to(0.0, ynorm.shape)
    return ysup, urestr, uval


@pytest.mark.parametrize("zoo_id", zoo_ids())
def test_derived_series_equal_the_eager_formulas(zoo_id):
    """Plan probes and the state shell on the first plan radius and input
    level, whose probes are plan probes re-wrapped under shell indices."""
    sys = make_example(zoo_id)
    plan = get_entry(zoo_id).default_plan()
    ps = ProbeSet(sys, plan)
    datas = ps.all_data()
    shell = ps.shells([(plan.radii[0], plan.s_levels[0])])[0]
    by_row = {id(d.traj): d.probe.index for d in datas}
    assert any(by_row.get(id(d.traj), d.probe.index) != d.probe.index for d in shell)
    for data in datas + shell:
        want = _eager_series(data.probe, data.traj)
        for got, ref in zip((data.traj.y_sup, data.traj.u_sup, data.traj.u_norms), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_a_discrete_rows_input_sup_reads_the_inputs_at_step_times():
    """The step map reads u at integer times only, so the pulse of height 5
    on [0.3, 0.6) never acts: |x| halves from 1 and the running sup of |u|,
    kept once per row, stays 0."""
    sys = compile_system(parse_system(
        "dim_x = 1\ndim_u = 1\ntime = discrete\ndx0 = 0.5 * x0 + u0\ny0 = x0"))
    u = InputSignal.steps([0, 0.3, 0.6], [[0], [5], [0]])
    plan = SimPlan(3, 1)
    for row in (simulate(sys, [1.0], u, plan), *simulate_batch(sys, [[1.0]], [u], plan)):
        assert row.x_norms.tolist() == [1.0, 0.5, 0.25, 0.125]
        assert row.u_sup.tolist() == [0.0] * 4
        assert row.u_sup is row.u_sup


def _retained_bytes(zoo_id, **params):
    """(bytes, grid points) a filled default probe set of the zoo entry keeps alive."""
    sys = make_example(zoo_id, **params)
    ps = ProbeSet(sys, get_entry(zoo_id).default_plan())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        datas = ps.all_data()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, sum(len(d.traj.times) for d in datas)


def test_probe_set_memory_does_not_grow_with_the_truncation_width():
    _retained_bytes("l2_blowup", n=16)  # the first fill in a process also keeps one-off allocations
    (narrow, _), (wide, _) = _retained_bytes("l2_blowup", n=16), _retained_bytes("l2_blowup", n=64)
    assert abs(wide - narrow) < 0.1 * narrow, (narrow, wide)


def test_an_input_free_probe_set_keeps_no_input_series():
    """An input-free probe keeps its |y| and |x| series and an empty input
    value array, and derives its input series only when read: under 40 B
    per grid point (the default plan's 9 probes x 1,001 grid points)."""
    _retained_bytes("l2_blowup", n=16)
    kept, points = _retained_bytes("l2_blowup", n=16)
    assert points == 9 * 1001
    assert kept / points < 40.0


def test_an_input_carrying_probe_set_keeps_no_derived_series():
    """An input-carrying probe keeps its times, input values and |y| and |x|
    series, and derives the running sups and |u| series only when read:
    under 40 B per grid point, where four more eager series kept 56."""
    _retained_bytes("l2_timewarp")
    kept, points = _retained_bytes("l2_timewarp")
    assert kept / points < 40.0, kept / points


# ---------------------------------------------------------------------------
# the series against the reference step loop, on test_systems' batch cases
# ---------------------------------------------------------------------------

@pytest.fixture
def series_checked(monkeypatch):
    """test_systems' batch-versus-reference check, made to also compare each
    batch row's |y| and |x| series with the norms of the reference loop's
    outputs and states.  Counts its calls."""
    plain = test_systems._assert_batch_equals_rows

    def checked(sys, x0s, us, plan):
        batch = plain(sys, x0s, us, plan)
        for x0, u, row in zip(x0s, us, batch):
            _, states, outputs, _, _ = test_systems._reference_simulate(sys, x0, u, plan)
            y = np.linalg.norm(outputs, axis=1)
            x = np.asarray(sys.state_norm(states), dtype=float)
            assert row.y_norms.tobytes() == y.tobytes()
            assert row.x_norms.tobytes() == x.tobytes()
        checked.calls += 1
        return batch

    checked.calls = 0
    monkeypatch.setattr(test_systems, "_assert_batch_equals_rows", checked)
    return checked


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing l2 row
@pytest.mark.parametrize("zoo_id, n", test_systems._BATCH_CASES)
def test_mixed_input_batch_series_equal_the_reference(series_checked, zoo_id, n):
    test_systems.test_batch_equals_one_at_a_time(zoo_id, n)
    assert series_checked.calls == 1


_GUARD_EDGES = ["first step", "chunk end", "next chunk", "last step"]


@pytest.mark.parametrize("case", [
    pytest.param(test_systems.test_batch_equals_one_at_a_time_discrete, id="halving"),
    *(pytest.param(partial(test_systems.test_guard_stamps_the_crossing_at_chunk_edges, edge),
                   id=f"crossing at {edge}") for edge in _GUARD_EDGES),
    pytest.param(test_systems.test_guard_with_a_row_ending_mid_chunk, id="row ends mid-chunk"),
    pytest.param(test_systems.test_guard_on_a_discrete_doubling_map, id="doubling map"),
    pytest.param(test_systems.test_nonfinite_step_from_a_large_state_freezes_and_stamps,
                 id="non-finite freeze"),
])
def test_guard_batch_series_equal_the_reference(series_checked, case):
    case()
    assert series_checked.calls == 1


# ---------------------------------------------------------------------------
# the output map on (steps, P, n) chunk blocks
# ---------------------------------------------------------------------------

def test_batch_rejects_scalar_style_output():
    sys = SystemModel(name="scalar_style_output", time_set="continuous", state_dim=3,
                      input_dim=0, rhs=lambda x, u: -x, output=lambda x, u: x * x[0],
                      output_dim=3)
    x0s = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    with pytest.raises(DomainError, match="rows alone"):
        simulate_batch(sys, x0s, [InputSignal.zero(0)] * 2, SimPlan(1.0, 1e-2))


def test_the_corner_check_reads_every_leading_axis_of_a_chunk_block():
    """On a (steps, P, n) block the first and last rows are [0, 0] and
    [-1, -1]: an output that mixes steps is caught, one that acts on each row
    passes."""
    sys = make_example("l2_blowup", n=4)
    block = np.arange(24.0).reshape(2, 3, 4) + 1.0
    u = np.zeros((2, 3, 0))
    rowwise = _batched(sys, "output", sys.output, (block, u), (2, 3, sys.output_dim))
    assert np.array_equal(rowwise[1, 2], sys.output(block[1, 2], u[1, 2]))
    with pytest.raises(DomainError, match="rows alone"):
        _batched(sys, "output", lambda x, u: x - x[0], (block, u), block.shape)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing row
def test_the_output_map_sees_no_discarded_state():
    """A row that stops mid-chunk runs on to the chunk's end; the output map
    must not see those steps.  The overflowing row's later steps are NaN."""
    n = 16
    sys = make_example("l2_blowup", n=n)

    def finite_only(x, u):
        assert np.isfinite(x).all(), "the output map saw a discarded state"
        return sys.output(x, u)

    strict = replace(sys, output=finite_only)
    zero = InputSignal.zero(0)
    x0s = np.array([blowup_seed_state(n, 6), np.full(n, 1e160), np.full(n, 0.1)])
    plan = SimPlan(2.0, 1e-2, 50.0)
    rows = simulate_batch(strict, x0s, [zero] * 3, plan)
    for x0, row, plain in zip(x0s, rows, simulate_batch(sys, x0s, [zero] * 3, plan)):
        assert row.y_norms.tobytes() == plain.y_norms.tobytes()
        assert simulate(strict, x0, zero, plan).outputs.tobytes() == plain.outputs.tobytes()
    assert rows[1].blow_up is not None and len(rows[1].times) == 2
