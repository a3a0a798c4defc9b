"""The block checkers against a per-probe reference reduction.

The checkers in ``ioslab.properties`` reduce padded (probe x time) blocks of
samples.  This module keeps the reduction they replaced, one probe and one
level at a time, as a reference: ``_Reference.add`` is the sequential tie
rule (least slack, then lowest probe index, then the sample met first), and
``_sweep`` is the probe loop with its ball filter, blow-up count and table
gaps.  Every verdict the block checkers give must equal the reference's,
field by field: on every zoo entry's certificates and estimates, and on
generated probe data built to hit exact slack ties, blown rows, rows of
unequal length, table gaps, empty tau masks and one-row blocks.  So must
each row's decisive sample, which ``falsify`` ranks its batches by, against
the reference run on that row alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ioslab import comparison as cf
from ioslab import properties as props
from ioslab import zoo
from ioslab.errors import TableGapError
from ioslab.properties import (
    Certificate,
    ConvergenceTimeTable,
    ProbeData,
    ProbeSet,
    PropertyId,
    SamplingPlan,
    Verdict,
    Witness,
    estimate_gain,
    verify,
)
from ioslab.signals import InputSignal
from ioslab.systems import Trajectory

P = PropertyId


# ---------------------------------------------------------------------------
# the reference: one probe, one level at a time
# ---------------------------------------------------------------------------

class _Reference:
    """The sequential reduction: a sample replaces the worst one when its
    slack is smaller, or equal with a lower probe index."""

    def __init__(self):
        self.min_slack = math.inf
        self.worst = None
        self.samples = 0
        self.notes = []
        self.blown = []

    def add(self, probe, t, observed, bound):
        self.samples += 1
        slack = bound - observed
        if slack < self.min_slack or (
            slack == self.min_slack and self.worst is not None
            and probe.index < self.worst[0].index
        ):
            self.min_slack = slack
            self.worst = (probe, float(t), float(observed), float(bound))

    def verdict(self, prop, plan, phash):
        notes = tuple(self.notes)
        if self.blown:
            notes += (f"{len(self.blown)} probe(s) blew up: forward-completeness failure "
                      "at those samples",)
        if self.samples == 0:
            return Verdict("inconclusive", prop, 0, None, None,
                           "no samples satisfied the property's ball constraints", phash, notes)
        if self.min_slack >= -plan.delta_margin:
            return Verdict("certified", prop, self.samples, float(self.min_slack), None, None,
                           phash, notes)
        return Verdict("falsified", prop, self.samples, float(self.min_slack),
                       Witness.of_probe(prop, *self.worst), None, phash, notes)


def _sweep(cert, datas, levels, sample, out):
    gaps = []
    for data in datas:
        if not props._probe_filter(cert, data):
            continue
        if data.traj.blow_up is not None:
            out.blown.append(data.probe.index)
            continue
        for level in levels:
            try:
                hit = sample(data, level)
            except TableGapError as exc:
                gaps.append((data.probe, str(exc)))
                continue
            if hit is not None:
                out.add(data.probe, *hit)
    return gaps


def _pointwise_bound(cert, data):
    p, t, s, c = cert.property, data.traj.times, data.probe.s, cert.get("c", 0.0)
    if p == P.IOSS:
        return (cert["beta"](data.probe.r, t) + cert["gamma1"](data.traj.u_sup)
                + cert["gamma2"](data.traj.y_sup))
    if p in (P.H_BOUNDED, P.H_K_BOUNDED):
        return cert["sigma1"](data.traj.x_norms) + cert["gamma1"](data.traj.u_norms) + c
    if "beta" in cert.params:
        shift, offset = (c, 0.0) if p == P.OCAG else (0.0, c)
        return cert["beta"](data.probe.r + shift, t) + cert["gamma"](s) + offset
    const = cert["sigma"](props._initial(p, data)) + cert["gamma"](s) + c
    return np.full_like(t, const)


def _pointwise(cert, datas, plan, out):
    def sample(data, _level):
        bound = _pointwise_bound(cert, data)
        observed = props._observed(cert.property, data)
        k = int(np.argmin(bound - observed))
        return data.traj.times[k], observed[k], bound[k]

    gaps = _sweep(cert, datas, (None,), sample, out)
    if gaps:
        probe, reason = gaps[0]
        out.notes.append(f"{len(gaps)} probe(s) beyond the certified radius skipped "
                         f"(first at r = {probe.r:g}: {reason})")


def _window_rows(cert, rows, plan, out):
    for bound, horizon, data in rows:
        out.add(data.probe, *props._window_sup(data, horizon), bound)


def _sup_bound(cert, datas, plan, out):
    _window_rows(cert, [(cert["bound"], cert["horizon"], data) for data in datas
                        if props._probe_filter(cert, data)], plan, out)


def _uag(cert, datas, plan, out):
    table, gamma, late = cert["tau_table"], cert["gamma"], []

    def sample(data, eps):
        r, s = props._initial(cert.property, data), data.probe.s
        tau = table.eval(eps, r, s)
        if tau > plan.horizon + 1e-12:
            late.append((eps, r, tau))
            return None
        mask = data.traj.times >= tau - 1e-12
        if not np.any(mask):
            return None
        k = int(np.argmax(np.where(mask, data.traj.y_norms, -math.inf)))
        return data.traj.times[k], data.traj.y_norms[k], eps + gamma(s)

    _sweep(cert, datas, table.eps_grid, sample, out)
    if late:
        eps, r, tau = late[0]
        out.notes.append(f"{len(late)} cell(s) skipped where tau exceeds the horizon "
                         f"(first tau({eps:g}, {r:g}) = {tau:g})")


def _lim(cert, datas, plan, out):
    gamma, table = cert["gamma"], cert.get("tau_table")

    def sample(data, eps):
        tau = plan.horizon if table is None else table.eval(
            eps, props._initial(cert.property, data), data.probe.s)
        mask = data.traj.times <= tau + 1e-12
        if not np.any(mask):
            return None
        k = int(np.argmin(np.where(mask, data.traj.y_norms, math.inf)))
        return data.traj.times[k], data.traj.y_norms[k], eps + gamma(data.probe.s)

    _sweep(cert, datas, plan.eps_grid if table is None else table.eps_grid, sample, out)
    if table is None:
        out.notes.append("visit times capped by the plan horizon: per-trajectory quantifier "
                         "is checked as a finite-horizon proxy")


def _global(check):
    def run(cert, datas, plan, out):
        check(cert, datas, plan, out)
        out.notes.append(f"input-global claim certified up to s_max = "
                         f"{cert.get('s_max', plan.s_max):g}")
    return run


_REFERENCE = {
    **{p: _pointwise for p in (P.IOS, P.ISS, P.IOPS, P.OCAG, P.OL, P.LOCAL_OL, P.OUGS,
                               P.OULS, P.OUGB, P.OOUGB, P.IOSS, P.H_BOUNDED,
                               P.H_K_BOUNDED)},
    P.BORS: _sup_bound, P.OBORS: _sup_bound, P.OUAG: _uag, P.OGUAG: _global(_uag),
    P.OLIM: _lim, P.OAG: _lim, P.OULIM: _lim, P.OGULIM: _global(_lim), P.OOULIM: _lim,
    P.OCEP: _window_rows,
}


def _reference_check(cert):
    return _REFERENCE[P.OCEP if "delta_table" in cert.params else cert.property]


def _reference_verify(sys, cert, plan, ps) -> dict:
    out = _Reference()
    source = props._checker(cert)[0]
    _reference_check(cert)(cert, source(cert, ps, plan, out), plan, out)
    return out.verdict(cert.property, plan, props.plan_hash(plan)).to_dict()


def test_reference_table_covers_every_checked_property():
    assert set(_REFERENCE) == set(props._CHECKERS)


# ---------------------------------------------------------------------------
# every zoo entry's certificates and estimates
# ---------------------------------------------------------------------------

def _zoo_cases():
    for zid in zoo.zoo_ids():
        entry = zoo.get_entry(zid)
        sys, plan = entry.factory(), entry.default_plan()
        ps = ProbeSet(sys, plan)
        for prop, cert in entry.certificates().items():
            yield f"verify:{zid}:{prop.value}", sys, cert, plan, ps
        for prop in entry.estimable:
            try:
                cert = estimate_gain(sys, prop, plan, probe_set=ps)
            except Exception:  # a refused estimate has no verdict to compare
                continue
            yield f"estimate:{zid}:{prop.value}", sys, cert, plan, ps


@pytest.fixture(scope="module")
def zoo_cases():
    return list(_zoo_cases())


def test_zoo_verdicts_equal_the_reference(zoo_cases):
    assert len(zoo_cases) > 75
    moved = [name for name, sys, cert, plan, ps in zoo_cases
             if verify(sys, cert, plan, probe_set=ps).to_dict()
             != _reference_verify(sys, cert, plan, ps)]
    assert moved == []


def test_zoo_one_probe_checks_equal_the_reference(zoo_cases):
    # falsify checks one probe at a time: each is a one-row block
    moved = []
    for name, sys, cert, plan, ps in zoo_cases:
        if "delta_table" in cert.params:
            continue  # falsify refuses continuity tables
        for data in ps.all_data()[::5]:
            out, ref = props._Outcome(), _Reference()
            props._checker(cert)[1](cert, [data], plan, out)
            _reference_check(cert)(cert, [data], plan, ref)
            if (out.worst, out.samples, out.min_slack) != (ref.worst, ref.samples,
                                                           ref.min_slack):
                moved.append(f"{name}:{data.probe.index}")
    assert moved == []


# ---------------------------------------------------------------------------
# generated probe data
# ---------------------------------------------------------------------------

_LEVELS = (0.0, 0.25, 0.5, 1.0, 2.0)  # few values, so that slacks tie exactly
_PLAN = SamplingPlan(radii=(1.0,), input_norms=(1.0,), eps_grid=(0.25, 1.0), horizon=3.0)


@st.composite
def _probe_data(draw):
    n = draw(st.integers(1, 6))
    times = np.concatenate(([0.0], np.cumsum(draw(st.lists(
        st.sampled_from((0.5, 1.0)), min_size=n - 1, max_size=n - 1)))))
    series = [np.array(draw(st.lists(st.sampled_from(_LEVELS), min_size=n, max_size=n)))
              for _ in range(3)]
    ynorm, xnorm, unorm = series
    blow_up = float(times[-1]) if draw(st.integers(0, 4)) == 0 else None
    # the input takes the value unorm[k] from times[k] on, so the derived
    # |u| series are unorm and its running max
    probe = props.Probe(draw(st.integers(0, 2)), (0.0,), InputSignal(times, unorm),
                        draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
                        draw(st.sampled_from((0.0, 0.5, 1.0, 3.0))), "drawn")
    traj = Trajectory(times, unorm[:, None], blow_up, ynorm, xnorm,
                      (np.zeros((n, 1)), np.zeros((n, 1))))
    return ProbeData(probe, traj)


def _tau_table(values, s_grid):
    # a cell may be inf (no claim), past the horizon, past a row's grid
    # (an empty convergence mask) or negative (an empty visit mask)
    shape = (2, 2) if s_grid is None else (2, 2, 2)
    return ConvergenceTimeTable((0.25, 1.0), (0.5, 1.0), s_grid,
                                np.array(values[:math.prod(shape)]).reshape(shape))


_IDENT = cf.identity()
_GRID_BETA = cf.grid_piecewise_kl((0.5, 1.0), ((0.0, 1.0, 2.0), (0.0, 2.0, 4.0)), _IDENT)
_FIXED = [
    Certificate(P.IOS, {"beta": cf.kl_exp(), "gamma": _IDENT}),
    Certificate(P.IOS, {"beta": _GRID_BETA, "gamma": _IDENT}),  # gaps beyond r = 1
    Certificate(P.ISS, {"beta": cf.kl_exp(), "gamma": cf.scale(0.5)}),
    Certificate(P.OCAG, {"beta": _GRID_BETA, "gamma": _IDENT, "c": 0.5}),
    Certificate(P.IOPS, {"beta": cf.kl_exp(), "gamma": _IDENT, "c": 0.25}),
    Certificate(P.IOSS, {"beta": cf.kl_exp(), "gamma1": _IDENT, "gamma2": cf.scale(0.5)}),
    Certificate(P.OL, {"sigma": _IDENT, "gamma": _IDENT}),
    Certificate(P.LOCAL_OL, {"sigma": _IDENT, "gamma": _IDENT, "radius": 1.0}),
    Certificate(P.OUGB, {"sigma": cf.scale(0.5), "gamma": _IDENT, "c": 0.25}),
    Certificate(P.H_K_BOUNDED, {"sigma1": _IDENT, "gamma1": cf.scale(0.5)}),
    Certificate(P.BORS, {"radius": 1.0, "horizon": 1.5, "bound": 1.0}),
    Certificate(P.OBORS, {"radius": 1.0, "horizon": 2.0, "bound": 0.5}),
    Certificate(P.OLIM, {"gamma": _IDENT}),
]
_TAU_VALUES = st.lists(st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.5, 4.0, math.inf)),
                       min_size=8, max_size=8)


def _tabled(values):
    """The tau-table certificates on one drawn table."""
    return [
        Certificate(P.OUAG, {"gamma": _IDENT, "tau_table": _tau_table(values, (0.0, 1.0))}),
        Certificate(P.OGUAG, {"gamma": _IDENT, "tau_table": _tau_table(values, None),
                              "s_max": 1.0}),
        Certificate(P.OULIM, {"gamma": _IDENT, "tau_table": _tau_table(values, (0.0, 1.0))}),
        Certificate(P.OOULIM, {"gamma": cf.scale(0.5),
                               "tau_table": _tau_table(values, (0.0, 1.0))}),
        Certificate(P.OGULIM, {"gamma": _IDENT, "tau_table": _tau_table(values, None)}),
    ]


def _both(cert, check_args):
    """(block verdict, block outcome, reference verdict, reference outcome)."""
    out, ref = props._Outcome(), _Reference()
    props._checker(cert)[1](cert, *check_args(), _PLAN, out)
    _reference_check(cert)(cert, *check_args(), _PLAN, ref)
    return (out.verdict(cert.property, _PLAN, "h").to_dict(), out,
            ref.verdict(cert.property, _PLAN, "h").to_dict(), ref)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(datas=st.lists(_probe_data(), min_size=1, max_size=7), tau_values=_TAU_VALUES,
       block=st.sampled_from((1, 5, 8192)))
def test_generated_verdicts_equal_the_reference(datas, tau_values, block):
    saved, props._BLOCK_SAMPLES = props._BLOCK_SAMPLES, block  # blocks of 1 row and more
    try:
        for cert in _FIXED + _tabled(tau_values):
            got, out, want, ref = _both(cert, lambda: (datas,))
            assert got == want, cert.property
            assert (out.worst, out.min_slack) == (ref.worst, ref.min_slack), cert.property
            for data in datas:  # the one-row blocks falsify checks
                _, out, _, ref = _both(cert, lambda: ([data],))
                assert (out.worst, out.samples) == (ref.worst, ref.samples)
    finally:
        props._BLOCK_SAMPLES = saved


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from((0.25, 1.0)), st.sampled_from((0.5, 1.5, 3.0)),
                               _probe_data()), max_size=8),
       block=st.sampled_from((1, 5, 8192)))
def test_generated_continuity_rows_equal_the_reference(rows, block):
    cert = Certificate(P.OCEP, {"delta_table": props.DeltaTable((0.25, 1.0), None,
                                                                np.array([0.5, 1.0]))})
    saved, props._BLOCK_SAMPLES = props._BLOCK_SAMPLES, block
    try:
        got, out, want, ref = _both(cert, lambda: (rows,))
    finally:
        props._BLOCK_SAMPLES = saved
    assert got == want
    assert (out.worst, out.min_slack) == (ref.worst, ref.min_slack)


def test_listing_order_decides_a_tie_of_one_probe_index():
    # two probes with one index; the least slack, -1, is met by the first
    # probe at the looser level and by the second at the tighter one.  The
    # samples are listed probe by probe, so the first probe's sample decides
    def data(ynorm):
        ynorm = np.array(ynorm)
        return ProbeData(props.Probe(0, (0.0,), InputSignal.zero(1), 0.5, 0.0, "tie"),
                         Trajectory(np.array([0.0, 1.0, 2.0]), np.zeros((3, 1)), None, ynorm,
                                    np.zeros(3), (np.zeros((3, 1)), np.zeros((3, 1)))))

    taus = np.array([[[2.0, 2.0], [2.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]])
    cert = Certificate(P.OUAG, {"gamma": _IDENT, "tau_table": ConvergenceTimeTable(
        (0.25, 1.0), (0.5, 1.0), (0.0, 1.0), taus)})
    got, out, want, ref = _both(cert, lambda: ([data([2.0, 0.0, 0.25]),
                                                data([0.0, 0.0, 1.25])],))
    assert got == want
    assert (got["slack"], got["witness"]["t"], got["witness"]["bound"]) == (-1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# each row's decisive sample
# ---------------------------------------------------------------------------

def _moved_rows(cert, items, plan) -> list:
    """The positions in ``items`` whose decisive sample, from one checker
    call over all of them, differs from the reference's on that row alone
    (None on both sides where the row has no sample)."""
    out = props._Outcome()
    props._checker(cert)[1](cert, items, plan, out)
    got = out.by_row()
    moved = []
    for pos, item in enumerate(items):
        ref = _Reference()
        _reference_check(cert)(cert, [item], plan, ref)
        if got.get(pos) != ref.worst:
            moved.append(pos)
    return moved


def test_zoo_rows_equal_the_reference_row_by_row(zoo_cases):
    moved = []
    for name, sys, cert, plan, ps in zoo_cases:
        items = props._checker(cert)[0](cert, ps, plan, props._Outcome())
        moved += [f"{name}:{pos}" for pos in _moved_rows(cert, items, plan)]
    assert moved == []


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(datas=st.lists(_probe_data(), min_size=1, max_size=7), tau_values=_TAU_VALUES,
       block=st.sampled_from((1, 5, 8192)), again=st.integers(0, 6), at=st.integers(0, 7))
def test_generated_rows_equal_the_reference_row_by_row(datas, tau_values, block, again, at):
    # probe indices are drawn from 0..2, so rows share them; and one
    # ProbeData is listed twice
    datas = datas[:at] + [datas[again % len(datas)]] + datas[at:]
    saved, props._BLOCK_SAMPLES = props._BLOCK_SAMPLES, block
    try:
        for cert in _FIXED + _tabled(tau_values):
            assert _moved_rows(cert, datas, _PLAN) == [], cert.property
    finally:
        props._BLOCK_SAMPLES = saved


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from((0.25, 1.0)), st.sampled_from((0.5, 1.5, 3.0)),
                               _probe_data()), min_size=1, max_size=8),
       block=st.sampled_from((1, 5, 8192)))
def test_generated_continuity_rows_equal_the_reference_row_by_row(rows, block):
    eps, horizon, data = rows[0]
    rows = rows + [(1.25 - eps, horizon, data)]  # one ProbeData in two rows of unequal bounds
    cert = Certificate(P.OCEP, {"delta_table": props.DeltaTable((0.25, 1.0), None,
                                                                np.array([0.5, 1.0]))})
    saved, props._BLOCK_SAMPLES = props._BLOCK_SAMPLES, block
    try:
        assert _moved_rows(cert, rows, _PLAN) == []
    finally:
        props._BLOCK_SAMPLES = saved
