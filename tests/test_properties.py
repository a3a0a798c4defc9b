"""Certificate verification, falsification, estimation, crossing times."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ioslab import comparison as cf
from ioslab.errors import BlowUpError, CertificateError, DomainError, EstimationError
from ioslab.properties import (
    Certificate,
    ConvergenceTimeTable,
    DeltaTable,
    ProbeSet,
    PropertyId,
    ReachabilityBound,
    SamplingPlan,
    build_reachability_bound,
    build_tau_table,
    estimate_gain,
    estimate_tau,
    falsify,
    first_crossing_time,
    plan_hash,
    verify,
)
from ioslab.signals import InputSignal
from ioslab.systems import SimPlan, SystemModel, full_state_wrap, simulate
from ioslab.sysdsl import compile_system, parse_system
from ioslab.zoo import get_entry, make_example, zoo_ids


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sin_sys():
    return make_example("sin_output")


@pytest.fixture(scope="module")
def sin_plan():
    return get_entry("sin_output").default_plan()


@pytest.fixture(scope="module")
def rot_sys():
    return make_example("rotation")


@pytest.fixture(scope="module")
def rot_plan():
    return get_entry("rotation").default_plan()


@pytest.fixture(scope="module")
def lin_sys():
    return make_example("lin_scalar")


@pytest.fixture(scope="module")
def lin_plan():
    return get_entry("lin_scalar").default_plan()


def ios_exp_cert(gamma=None):
    return Certificate(
        PropertyId.IOS,
        {"beta": cf.kl_exp(), "gamma": gamma if gamma is not None else cf.zero()},
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_sin_output_ios_certified(sin_sys, sin_plan):
    verdict = verify(sin_sys, ios_exp_cert(), sin_plan)
    assert verdict.certified
    assert verdict.min_slack >= -1e-4
    assert verdict.samples > 0
    assert verdict.plan_hash == plan_hash(sin_plan)


def test_verify_sin_output_ol_falsified(sin_sys, sin_plan):
    cert = Certificate(PropertyId.OL, {"sigma": cf.identity(), "gamma": cf.zero()})
    verdict = verify(sin_sys, cert, sin_plan)
    assert verdict.falsified
    assert verdict.witness is not None
    # replay soundness: the witness reproduces its recorded observation
    replayed = verdict.witness.replay(sin_sys, sin_plan.sim)
    assert replayed == pytest.approx(verdict.witness.observed, abs=1e-6)
    assert verdict.witness.margin >= sin_plan.delta_margin


def test_falsify_sin_output_ol_beats_any_sigma(sin_sys, sin_plan):
    """Search defeats even generous initial-output inflation: the witness
    drives the initial output to zero while the later output stays large."""
    for sigma in (cf.scale(10.0), cf.power(2)):
        cert = Certificate(PropertyId.OL, {"sigma": sigma, "gamma": cf.zero()})
        verdict = falsify(sin_sys, cert, 900, sin_plan)
        assert verdict.falsified
        assert verdict.witness.margin > 0.5


def test_verify_rotation_ougs_certified(rot_sys, rot_plan):
    cert = Certificate(PropertyId.OUGS, {"sigma": cf.identity(), "gamma": cf.zero()})
    verdict = verify(rot_sys, cert, rot_plan)
    assert verdict.certified


def test_verify_rejects_fc():
    with pytest.raises(CertificateError):
        Certificate(PropertyId.FC, {})


def test_verify_class_mismatch_rejected():
    with pytest.raises(CertificateError):
        Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.sat()})
    with pytest.raises(CertificateError):
        Certificate(PropertyId.IOS, {"beta": cf.kl_exp()})
    with pytest.raises(CertificateError):
        Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.zero(), "extra": 1.0})


def test_certificate_rejects_non_kl_beta():
    growing = cf.kl_separable(cf.identity(), cf.add(cf.constant(1.0), cf.exp_decay()))
    with pytest.raises(CertificateError):
        Certificate(PropertyId.IOS, {"beta": growing, "gamma": cf.zero()})


def test_verify_ioss_runs_and_running_sup_monotone(lin_sys, lin_plan):
    cert = Certificate(
        PropertyId.IOSS,
        {"beta": cf.kl_exp(), "gamma1": cf.identity(), "gamma2": cf.identity()},
    )
    verdict = verify(lin_sys, cert, lin_plan)
    assert verdict.certified
    ps = ProbeSet(lin_sys, lin_plan)
    for data in ps.all_data():
        assert np.all(np.diff(data.traj.y_sup) >= 0.0)


def test_verify_local_ol_filters_ball(sin_sys, sin_plan):
    cert = Certificate(
        PropertyId.LOCAL_OL,
        {"sigma": cf.scale(1.16), "gamma": cf.zero(), "radius": 0.9},
    )
    verdict = verify(sin_sys, cert, sin_plan)
    assert verdict.certified
    # only the r = 0.1 shell fits inside the ball
    assert verdict.samples < len(ProbeSet(sin_sys, sin_plan).probes)


def test_verify_ols_inconclusive_when_ball_empty(sin_sys, sin_plan):
    cert = Certificate(
        PropertyId.LOCAL_OL,
        {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 0.01},
    )
    verdict = verify(sin_sys, cert, sin_plan)
    assert verdict.status == "inconclusive"


def test_verify_ocep_table(sin_sys, sin_plan):
    table = DeltaTable((0.1, 0.5), (10.0, 20.0), np.array([[0.1, 0.1], [0.5, 0.5]]))
    verdict = verify(sin_sys, Certificate(PropertyId.OCEP, {"delta_table": table}), sin_plan)
    assert verdict.certified


def test_verify_bors_bound(lin_sys, lin_plan):
    good = Certificate(PropertyId.BORS, {"radius": 10.0, "horizon": 15.0, "bound": 20.0})
    bad = Certificate(PropertyId.BORS, {"radius": 10.0, "horizon": 15.0, "bound": 5.0})
    assert verify(lin_sys, good, lin_plan).certified
    assert verify(lin_sys, bad, lin_plan).falsified


def test_verify_uag_with_table(sin_sys, sin_plan):
    table = ConvergenceTimeTable(
        (0.1, 0.5), (0.1, 1.0, 10.0), None,
        np.array([[math.log(r / 0.1 + 1e-9) + 0.1 if r > 0.1 else 0.1 for r in (0.1, 1.0, 10.0)],
                  [max(math.log(r / 0.5), 0.0) + 0.1 for r in (0.1, 1.0, 10.0)]]),
        mode="uag",
    )
    cert = Certificate(PropertyId.OGUAG, {"gamma": cf.zero(), "tau_table": table})
    verdict = verify(sin_sys, cert, sin_plan)
    assert verdict.certified


def test_verify_uag_bad_table_falsified(rot_sys, rot_plan):
    # claiming the rotation output settles below 0.1 after time 1 is false
    table = ConvergenceTimeTable((0.1,), (0.5, 1.0, 3.0), None,
                                 np.array([[1.0, 1.0, 1.0]]), mode="uag")
    cert = Certificate(PropertyId.OGUAG, {"gamma": cf.zero(), "tau_table": table})
    verdict = verify(rot_sys, cert, rot_plan)
    assert verdict.falsified


def test_verify_lim_rotation_certified(rot_sys, rot_plan):
    table = ConvergenceTimeTable((0.1, 0.5), (0.5, 1.0, 3.0), None,
                                 np.full((2, 3), math.pi + 0.05), mode="lim")
    cert = Certificate(PropertyId.OGULIM, {"gamma": cf.zero(), "tau_table": table})
    verdict = verify(rot_sys, cert, rot_plan)
    assert verdict.certified


# ---------------------------------------------------------------------------
# falsify
# ---------------------------------------------------------------------------

def test_falsify_rotation_ios(rot_sys, rot_plan):
    verdict = falsify(rot_sys, ios_exp_cert(), 400, rot_plan)
    assert verdict.falsified
    w = verdict.witness
    assert w.observed >= 0.999
    # the violation shows up once the decay bound has died out
    assert w.bound < 0.99
    assert w.t <= rot_plan.horizon
    # replay reproduces the excursion
    assert w.replay(rot_sys, rot_plan.sim) == pytest.approx(w.observed, abs=1e-6)


def test_witness_replays_the_norm_it_observed(rot_sys, rot_plan):
    """ISS bounds the state norm: the witness says so and replays |x|, which
    differs from the rotation's output |x_0| at the violation time."""
    cert = Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": cf.zero()})
    for verdict in (falsify(rot_sys, cert, 40, rot_plan), verify(rot_sys, cert, rot_plan)):
        assert verdict.falsified
        w = verdict.witness
        assert w.to_dict()["series"] == "state"
        assert w.replay(rot_sys, rot_plan.sim) == pytest.approx(w.observed, abs=1e-6)


def test_verify_rotation_ios_unit_shell(rot_sys):
    """On the unit shell the recurring output beats any sub-unit decay bound."""
    plan = SamplingPlan(radii=(1.0,), input_norms=(), eps_grid=(0.1,),
                        horizon=4.0 * math.pi, sim=SimPlan(4.0 * math.pi, 1e-2),
                        directions=3, seed=21)
    verdict = verify(rot_sys, ios_exp_cert(), plan)
    assert verdict.falsified
    w = verdict.witness
    assert w.t <= 4.0 * math.pi
    assert w.observed >= 0.999


def test_falsify_lin_scalar_ios_inconclusive(lin_sys, lin_plan):
    # variation of constants: |y| <= e^-t |x0| + (1 - e^-t) |u| <= bound, so
    # no witness exists; the oracle confirms zero headroom at t -> inf
    cert = ios_exp_cert(cf.identity())
    verdict = falsify(lin_sys, cert, 300, lin_plan)
    assert verdict.status == "inconclusive"
    assert "max slack" in verdict.reason


def test_falsify_sin_output_ol_localises_pi(sin_sys):
    plan = SamplingPlan(
        radii=(0.5, 2.0, 4.0),
        input_norms=(),
        eps_grid=(0.1,),
        horizon=3.0,
        sim=SimPlan(3.0, 1e-2),
        directions=2,
        seed=17,
    )
    cert = Certificate(PropertyId.OL, {"sigma": cf.identity(), "gamma": cf.zero()})
    verdict = falsify(sin_sys, cert, 900, plan)
    assert verdict.falsified
    x0 = abs(verdict.witness.x0[0])
    assert abs(x0 - math.pi) < 0.1


def test_falsify_l2_blowup_bors():
    sys = make_example("l2_blowup", n=16)
    from ioslab.zoo import blowup_ball_radius, blowup_seed_state

    d = blowup_ball_radius()
    plan = SamplingPlan(
        radii=(d,),
        input_norms=(),
        eps_grid=(0.5,),
        horizon=1.0,
        sim=SimPlan(1.0, 2e-4),
        directions=2,
        seed=3,
    )
    cert = Certificate(PropertyId.BORS, {"radius": d, "horizon": 1.0, "bound": 10.0})
    # random shell directions rarely trigger the pump; seed the known state
    verdict = falsify(sys, cert, 60, plan)
    if not verdict.falsified:
        x0 = blowup_seed_state(16, 11)
        traj = simulate(sys, x0, InputSignal.zero(0), plan.sim)
        assert float(np.max(traj.output_norms())) > 11.0
    else:
        assert verdict.witness.observed > 10.0


def test_falsify_budget_is_a_hard_cap(lin_sys, lin_plan, monkeypatch):
    """Budget 5 on a 42-probe plan: at most 5 simulations, 5 samples reported."""
    import ioslab.properties as props

    calls = []
    real = props.simulate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(props, "simulate", counting)
    assert len(ProbeSet(lin_sys, lin_plan).probes) == 42
    verdict = falsify(lin_sys, ios_exp_cert(cf.identity()), 5, lin_plan)
    assert len(calls) <= 5 == verdict.samples


@pytest.mark.parametrize("prop, table", [
    (PropertyId.OCEP, DeltaTable((0.1, 0.5), (6.0, 12.0), np.full((2, 2), 0.05))),
    (PropertyId.OULS, DeltaTable((0.1, 0.5), None, np.array([0.05, 0.25]))),
])
def test_falsify_rejects_continuity_tables(sin_sys, sin_plan, prop, table):
    cert = Certificate(prop, {"delta_table": table})
    with pytest.raises(CertificateError, match="falsification unsupported"):
        falsify(sin_sys, cert, 10, sin_plan)


def test_table_dict_format_and_load_defaults():
    tau = ConvergenceTimeTable((0.1,), (1.0, 2.0), None, np.array([[1.0, 2.0]]))
    delta = DeltaTable((0.1, 0.5), None, np.array([0.05, 0.25]))
    mu = ReachabilityBound((1.0,), (0.0,), (1.0, 2.0), np.array([[[1.0, 2.0]]]))
    assert json.dumps(tau.to_dict()) == (
        '{"eps_grid": [0.1], "r_grid": [1.0, 2.0], "s_grid": null, '
        '"values": [[1.0, 2.0]], "mode": "uag"}')
    assert json.dumps(delta.to_dict()) == (
        '{"eps_grid": [0.1, 0.5], "tau_grid": null, "values": [0.05, 0.25]}')
    assert json.dumps(mu.to_dict()) == (
        '{"r_grid": [1.0], "s_grid": [0.0], "t_grid": [1.0, 2.0], '
        '"values": [[[1.0, 2.0]]], "over_initial_output": false}')
    for table, defaulted in ((tau, "mode"), (delta, None), (mu, "over_initial_output")):
        d = {k: v for k, v in table.to_dict().items() if k != defaulted}
        back = type(table).from_dict(d)
        assert back == table and hash(back) == hash(table)
    assert tau != ConvergenceTimeTable((0.1,), (1.0, 2.0), None, np.array([[1.0, 2.0]]),
                                       mode="lim")
    with pytest.raises(KeyError):
        DeltaTable.from_dict({"eps_grid": [0.1], "values": [0.05]})


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

def test_estimate_gain_lin_scalar_ios(lin_sys):
    plan = SamplingPlan(
        radii=(0.1, 1.0, 5.0, 10.0),
        input_norms=(0.1, 1.0, 5.0, 10.0),
        eps_grid=(0.1, 0.5),
        horizon=15.0,
        sim=SimPlan(15.0, 1e-2),
        directions=2,
        seed=31,
    )
    cert = estimate_gain(lin_sys, PropertyId.IOS, plan)
    gamma = cert["gamma"]
    # variation-of-constants oracle: the asymptotic gain is exactly |u|
    for r in np.linspace(0.1, 10.0, 25):
        assert 0.95 * r <= float(gamma(r)) <= 1.10 * r
    assert verify(lin_sys, cert, plan).certified


def test_estimate_gain_sin_output_ougs(sin_sys, sin_plan):
    cert = estimate_gain(sin_sys, PropertyId.OUGS, sin_plan)
    sigma = cert["sigma"]
    # |sin| <= min(|x0| e^-t, 1) oracle
    for r in (0.1, 1.0, 10.0):
        assert float(sigma(r)) <= min(r, 1.0 + 1e-6) * 1.05
    assert verify(sin_sys, cert, sin_plan).certified


def test_estimate_gain_zero_system():
    sys = SystemModel(
        name="zero",
        time_set="continuous",
        state_dim=1,
        input_dim=1,
        rhs=lambda x, u: np.zeros(1),
        output=lambda x, u: np.zeros(1),
    )
    plan = SamplingPlan(radii=(1.0, 2.0), input_norms=(1.0,), eps_grid=(0.1,),
                        horizon=2.0, sim=SimPlan(2.0, 1e-2), directions=2, seed=5)
    cert = estimate_gain(sys, PropertyId.OUGS, plan)
    for r in (0.5, 1.0, 2.0):
        assert float(cert["sigma"](r)) <= 10.0 * cf.EPS_SLOPE * r + 1e-12
        assert float(cert["gamma"](r)) <= 10.0 * cf.EPS_SLOPE * r + 1e-12


def test_estimate_gain_oag_rejected(lin_sys, lin_plan):
    with pytest.raises(EstimationError):
        estimate_gain(lin_sys, PropertyId.OAG, lin_plan)


def test_estimate_gain_ios_rejected_for_nondecaying(rot_sys, rot_plan):
    with pytest.raises(EstimationError):
        estimate_gain(rot_sys, PropertyId.IOS, rot_plan)


def test_estimate_self_consistency_over_zoo():
    for zid in ("sin_output", "rotation", "lin_scalar", "sat_polar"):
        entry = get_entry(zid)
        sys = entry.factory()
        plan = entry.default_plan()
        ps = ProbeSet(sys, plan)
        for prop in entry.estimable:
            cert = estimate_gain(sys, prop, plan, probe_set=ps)
            verdict = verify(sys, cert, plan, probe_set=ps)
            assert verdict.certified, (zid, prop, verdict.reason, verdict.min_slack)


@pytest.mark.parametrize("zid", ["lin_scalar", "sin_output"])
def test_estimate_verify_round_trip_for_every_estimable_property(zid):
    """Every property estimate_gain accepts certifies on the plan it was
    fitted on; the others raise EstimationError before any fit."""
    entry = get_entry(zid)
    sys, plan = entry.factory(), entry.default_plan()
    ps = ProbeSet(sys, plan)
    rejected = {PropertyId.FC, PropertyId.BORS, PropertyId.OBORS, PropertyId.OAG}
    for prop in PropertyId:
        if prop in rejected:
            with pytest.raises(EstimationError):
                estimate_gain(sys, prop, plan, probe_set=ps)
            continue
        for kwargs in ({}, {"table_form": True}) if prop == PropertyId.OULS else ({},):
            cert = estimate_gain(sys, prop, plan, probe_set=ps, **kwargs)
            verdict = verify(sys, cert, plan, probe_set=ps)
            assert verdict.certified, (prop, kwargs, verdict.min_slack)


# ---------------------------------------------------------------------------
# tau estimation
# ---------------------------------------------------------------------------

def test_estimate_tau_sin_output_uag(sin_sys, sin_plan):
    tau, offending = estimate_tau(sin_sys, 0.1, 1.0, 0.0, "uag", sin_plan, cf.zero())
    assert offending is None
    assert tau == pytest.approx(math.log(10.0), abs=0.05)


def test_estimate_tau_rotation_lim(rot_sys, rot_plan):
    for eps in (0.1, 0.5):
        for r in (0.5, 1.0, 3.0):
            tau, offending = estimate_tau(rot_sys, eps, r, 0.0, "lim", rot_plan, cf.zero())
            assert offending is None
            assert tau <= math.pi + 2 * rot_plan.sim.step


def test_estimate_tau_rotation_uag_inconclusive(rot_sys, rot_plan):
    tau, offending = estimate_tau(rot_sys, 0.5, 1.0, 0.0, "uag", rot_plan, cf.zero())
    assert tau is None
    assert offending is not None


@pytest.mark.parametrize("build", [
    lambda sys, plan: estimate_tau(sys, 0.1, 1.0, 0.0, "bogus", plan, cf.zero()),
    lambda sys, plan: build_tau_table(sys, plan, "bogus", cf.zero()),
], ids=["estimate_tau", "build_tau_table"])
def test_bad_tau_mode_is_refused_before_any_simulation(lin_sys, lin_plan, kernel_calls,
                                                      build):
    with pytest.raises(DomainError, match="mode"):
        build(lin_sys, lin_plan)
    assert sum(kernel_calls) == 0


def test_build_tau_table_rectified(sin_sys, sin_plan):
    table = build_tau_table(sin_sys, sin_plan, "uag", cf.zero())
    v = table.values
    assert np.all(np.diff(v, axis=0) <= 1e-12)  # nonincreasing in eps
    assert np.all(np.diff(v, axis=1) >= -1e-12)  # nondecreasing in r


# ---------------------------------------------------------------------------
# first crossing
# ---------------------------------------------------------------------------

def test_first_crossing_log_two():
    sys = full_state_wrap(make_example("lin_scalar"))
    tau = first_crossing_time(sys, [2.0], InputSignal.zero(1), 1.0, SimPlan(5.0, 1e-2))
    assert abs(tau - math.log(2.0)) <= 1e-3


def test_first_crossing_already_inside():
    sys = full_state_wrap(make_example("lin_scalar"))
    tau = first_crossing_time(sys, [0.5], InputSignal.zero(1), 1.0, SimPlan(5.0, 1e-2))
    assert tau == 0.0


def test_first_crossing_rotation_matches_closed_form():
    sys = make_example("rotation")
    # Cartesian (1, 0): |y(t)| = |cos t| < 0.5 first at t = pi/3
    tau = first_crossing_time(sys, [1.0, 0.0], InputSignal.zero(0), 0.5, SimPlan(5.0, 1e-2))
    assert tau == pytest.approx(math.acos(0.5), abs=1e-3)


def test_first_crossing_never_is_inf(lin_sys):
    # x0 = 2 with u = 2 keeps the state pinned at 2, never entering the ball
    tau = first_crossing_time(lin_sys, [2.0], InputSignal.constant([2.0]), 0.5,
                              SimPlan(3.0, 1e-2))
    assert math.isinf(tau)


def test_first_crossing_of_a_discrete_system_is_a_grid_time():
    # x -> x / 2 from 2: |y| reads 2, 1, 0.5, 0.25 at t = 0..3, so the ball
    # of radius 0.3 is entered at the step to t = 3, with no time between steps
    sys = SystemModel(name="halving", time_set="discrete", state_dim=1, input_dim=0,
                      rhs=lambda x, u: 0.5 * x, output=lambda x, u: x)
    tau = first_crossing_time(sys, [2.0], InputSignal.zero(0), 0.3, SimPlan(5.0, 1e-2))
    assert tau == 3.0


def test_first_crossing_blowup_raises():
    sys = SystemModel(
        name="quadratic_growth",
        time_set="continuous",
        state_dim=1,
        input_dim=0,
        rhs=lambda x, u: x * x,
        output=lambda x, u: x,
    )
    with pytest.raises(BlowUpError):
        first_crossing_time(sys, [5.0], InputSignal.zero(0), 0.1,
                            SimPlan(3.0, 1e-3, blow_up_threshold=1e6))


# ---------------------------------------------------------------------------
# reachability bound
# ---------------------------------------------------------------------------

def test_reachability_bound_lin_scalar(lin_sys, lin_plan):
    mu = build_reachability_bound(lin_sys, lin_plan)
    for r in mu.r_grid:
        for s in mu.s_grid:
            for t in mu.t_grid:
                assert mu.eval(r, s, t) <= r + s + 1e-6


def test_reachability_bound_sat_polar():
    entry = get_entry("sat_polar")
    mu = build_reachability_bound(entry.factory(), entry.default_plan())
    for r in mu.r_grid:
        for t in mu.t_grid:
            assert mu.eval(r, 0.0, t) <= r + t + 1e-6


def test_reachability_bound_l2_diverging_column():
    sys = make_example("l2_blowup", n=16)
    from ioslab.zoo import blowup_ball_radius

    d = blowup_ball_radius()
    plan = SamplingPlan(
        radii=(0.25, d), input_norms=(), eps_grid=(0.5,), horizon=1.0,
        sim=SimPlan(1.0, 2e-4), directions=2, seed=13,
    )
    ps = ProbeSet(sys, plan)
    # the shell sampler cannot know the adversarial direction; inject it
    from ioslab.zoo import blowup_seed_state

    x0 = blowup_seed_state(16, 11)
    traj = simulate(sys, x0, InputSignal.zero(0), plan.sim)
    assert float(np.max(traj.output_norms())) >= 11.0
    mu = build_reachability_bound(sys, plan, probe_set=ps)
    diag = mu.growth_diagnostic()
    assert "suspected_unbounded" in diag


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_monotone_plan_sanity(sin_sys):
    """Shrinking the plan (fewer probes) never flips certified -> falsified."""
    big = SamplingPlan(radii=(0.1, 1.0, 10.0), input_norms=(), eps_grid=(0.1,),
                       horizon=20.0, sim=SimPlan(20.0, 1e-2), directions=3, seed=2)
    small = SamplingPlan(radii=(1.0,), input_norms=(), eps_grid=(0.1,),
                         horizon=20.0, sim=SimPlan(20.0, 1e-2), directions=2, seed=2)
    cert = ios_exp_cert()
    assert verify(sin_sys, cert, big).certified
    assert verify(sin_sys, cert, small).certified


def test_full_state_reduction_ios_equals_iss(lin_sys, lin_plan):
    wrapped = full_state_wrap(lin_sys)
    beta = cf.kl_exp()
    ios = Certificate(PropertyId.IOS, {"beta": beta, "gamma": cf.identity()})
    iss = Certificate(PropertyId.ISS, {"beta": beta, "gamma": cf.identity()})
    ps = ProbeSet(wrapped, lin_plan)
    v_ios = verify(wrapped, ios, lin_plan, probe_set=ps)
    v_iss = verify(wrapped, iss, lin_plan, probe_set=ps)
    assert v_ios.status == v_iss.status
    assert v_ios.min_slack == v_iss.min_slack
    assert v_ios.samples == v_iss.samples


@pytest.mark.parametrize("zid", zoo_ids())
def test_full_state_wrap_reads_the_state_norm_on_every_zoo_entry(zid):
    """The ISS special case of IOS: on the wrap |y| is the state norm bit for
    bit, so IOS and ISS certificates with equal parameters check alike, also
    for states stored in polar coordinates."""
    entry = get_entry(zid)
    wrapped, plan = full_state_wrap(entry.factory()), entry.default_plan()
    ps = ProbeSet(wrapped, plan)
    for data in ps.all_data():
        np.testing.assert_array_equal(data.traj.y_norms, data.traj.x_norms)
    params = {"beta": cf.kl_exp(), "gamma": cf.identity()}
    v_ios = verify(wrapped, Certificate(PropertyId.IOS, params), plan, probe_set=ps)
    v_iss = verify(wrapped, Certificate(PropertyId.ISS, params), plan, probe_set=ps)
    assert (v_ios.status, v_ios.min_slack) == (v_iss.status, v_iss.min_slack)


def test_eps_delta_ouls_equivalence():
    """Function-form and table-form local stability checkers agree.

    The canonical conversion is delta(eps) = min(sigma^-1(eps/2),
    gamma^-1(eps/2), r).
    """
    systems = [
        ("sin_output", make_example("sin_output"), get_entry("sin_output").default_plan(), True),
        ("lin_scalar", make_example("lin_scalar"), get_entry("lin_scalar").default_plan(), True),
        ("exp_growth",
         compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = x0\ny0 = x0")),
         SamplingPlan(radii=(0.5, 1.0), input_norms=(), eps_grid=(0.1, 0.5),
                      horizon=12.0, sim=SimPlan(12.0, 1e-2, blow_up_threshold=1e7),
                      directions=2, seed=9),
         False),
    ]
    sigma, gamma, radius = cf.identity(), cf.identity(), 1.0
    for name, sys, plan, should_hold in systems:
        fn_cert = Certificate(
            PropertyId.OULS, {"sigma": sigma, "gamma": gamma, "radius": radius}
        )
        deltas = [
            min(cf.invert(sigma, e / 2), cf.invert(gamma, e / 2), radius)
            for e in plan.eps_grid
        ]
        table_cert = Certificate(
            PropertyId.OULS,
            {"delta_table": DeltaTable(plan.eps_grid, None, np.array(deltas))},
        )
        ps = ProbeSet(sys, plan)
        v_fn = verify(sys, fn_cert, plan, probe_set=ps)
        v_tab = verify(sys, table_cert, plan, probe_set=ps)
        assert v_fn.certified == v_tab.certified == should_hold, (
            name, v_fn.status, v_tab.status
        )


def test_verdict_json_roundtrip(sin_sys, sin_plan):
    import json

    verdict = verify(sin_sys, ios_exp_cert(), sin_plan)
    d = verdict.to_dict()
    assert d["schema"] == 1
    assert json.loads(json.dumps(d, sort_keys=True)) == d


def test_certificate_json_roundtrip():
    cert = Certificate(
        PropertyId.OUAG,
        {
            "gamma": cf.identity(),
            "tau_table": ConvergenceTimeTable(
                (0.1, 0.5), (1.0, 2.0), (0.0, 1.0),
                np.zeros((2, 2, 2)), mode="uag",
            ),
        },
    )
    back = Certificate.from_dict(cert.to_dict())
    assert back.property == cert.property
    assert back.params["gamma"] == cert.params["gamma"]
    assert back.params["tau_table"] == cert.params["tau_table"]


def test_falsify_budget_caps_batched_simulations(lin_sys, lin_plan, monkeypatch):
    """Every row handed to the kernel counts against the budget."""
    import ioslab.properties as props

    rows = []
    real = props.simulate_batch

    def counting(sys, x0s, us, plan):
        rows.append(len(us))
        return real(sys, x0s, us, plan)

    monkeypatch.setattr(props, "simulate_batch", counting)
    verdict = falsify(lin_sys, ios_exp_cert(cf.scale(0.5)), 50, lin_plan)
    assert sum(rows) <= 50 == verdict.samples
    assert rows[0] == 42  # the sweep runs as one block


def test_falsify_refinement_scales_the_swept_input(lin_sys, lin_plan, monkeypatch):
    """Refinement candidates scale the current best's input by 1, 0.8 or
    1.25; accepted amplitude steps must not compound."""
    batches = []
    real = ProbeSet.data_many

    def recording(self, probes):
        batches.append([p.u.norm() for p in probes])
        return real(self, probes)

    monkeypatch.setattr(ProbeSet, "data_many", recording)
    verdict = falsify(lin_sys, ios_exp_cert(cf.scale(0.5)), 120, lin_plan)
    assert verdict.falsified
    sweep, rounds = batches[0], batches[1:]
    assert rounds
    seen = set(sweep)
    for norms in rounds:
        best = norms[0]  # radius and direction moves keep the best's amplitude
        assert any(math.isclose(best, s, rel_tol=1e-12) for s in seen)
        for n in norms:
            assert any(math.isclose(n, best * f, rel_tol=1e-12) for f in (1.0, 0.8, 1.25))
        seen.update(norms)
    # 18 rounds of at most x1.25 each from the largest swept norm
    assert verdict.witness and InputSignal.from_dict(verdict.witness.u).norm() <= \
        max(lin_plan.input_norms) * 1.25 ** 18


def test_iss_estimate_fits_the_state_norm(lin_plan):
    """ISS bounds |x|; with y = x / 10 a gain fitted on |y| is too small."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 1\ndx0 = -x0 + u0\ny0 = 0.1 * x0"))
    ps = ProbeSet(sys, lin_plan)
    cert = estimate_gain(sys, PropertyId.ISS, lin_plan, probe_set=ps)
    assert verify(sys, cert, lin_plan, probe_set=ps).certified


@pytest.mark.parametrize("by_output", [False, True])
def test_reachability_bound_is_one_kernel_call(lin_sys, lin_plan, kernel_calls, by_output):
    build_reachability_bound(lin_sys, lin_plan, over_initial_output=by_output,
                             probe_set=ProbeSet(lin_sys, lin_plan))
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("prop", [PropertyId.OCEP, PropertyId.OOULIM])
def test_shell_sourced_verify_is_one_kernel_call(lin_sys, lin_plan, kernel_calls, prop):
    """OCEP reads every row's delta and delta / 2 shells, OOULIM every
    initial-output shell; each verify asks for them in one request."""
    cert = estimate_gain(lin_sys, prop, lin_plan)
    kernel_calls.clear()
    verify(lin_sys, cert, lin_plan, probe_set=ProbeSet(lin_sys, lin_plan))
    assert len(kernel_calls) == 1


def test_shells_align_with_cells_and_keep_duplicates(lin_sys, lin_plan):
    ps = ProbeSet(lin_sys, lin_plan)
    cells = [(1.0, 0.5), (0.25, 0.0), (1.0, 0.5)]
    shells = ps.shells(cells)
    assert [len(s) for s in shells] == [6, 2, 6]
    for (r, s), shell in zip(cells, shells):
        assert all(d.probe.r == r and d.probe.s == pytest.approx(s) for d in shell)
    assert [d.traj for d in shells[0]] == [d.traj for d in shells[2]]
    for shell in ps.shells([(0.5, 2.0)], by_output=True):
        assert shell and all(d.traj.y_norms[0] <= 0.5 + 1e-12 for d in shell)


# ---------------------------------------------------------------------------
# the delta fit
# ---------------------------------------------------------------------------

def _one_halving_per_call(plan, ps, with_tau):
    """Reference delta fit: every still-failing row checks its delta and
    delta / 2 shells, one kernel call per halving, down to the 1e-9 floor."""
    import ioslab.properties as props

    horizons = plan.tau_grid() if with_tau else (plan.horizon,)
    rows = [(eps, horizon) for eps in plan.eps_grid for horizon in horizons]
    deltas = [min(eps, max(plan.radii)) for eps, _ in rows]
    halving = [i for i, delta in enumerate(deltas) if delta > 0]
    while halving:
        shells = ps.shells([cell for i in halving for cell in props._delta_cells(ps, deltas[i])])
        failed = [i for i, a, b in zip(halving, shells[::2], shells[1::2]) if any(
            props._window_sup(data, rows[i][1])[1] > rows[i][0] * 0.98 for data in a + b)]
        for i in failed:
            deltas[i] = 0.0 if deltas[i] * 0.5 < 1e-9 else deltas[i] * 0.5
        halving = [i for i in failed if deltas[i] > 0]
    vals = np.array(deltas).reshape(len(plan.eps_grid), len(horizons))
    return DeltaTable(plan.eps_grid, horizons if with_tau else None,
                      vals if with_tau else vals[:, 0])


@pytest.mark.parametrize("zid", ["l2_blowup", "l2_timewarp", "lin_scalar", "rotation",
                                 "sat_polar", "sin_output", "unstable"])
def test_delta_fit_matches_one_halving_per_call(zid):
    """Two halvings per kernel call keep every delta of the one-level loop;
    on the unstable system the rows halve about twenty times before passing."""
    from ioslab.properties import _fit_delta_table

    if zid == "unstable":
        sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = x0\ny0 = x0"))
        plan = get_entry("lin_scalar").default_plan()
    else:
        sys, plan = make_example(zid), get_entry(zid).default_plan()
    ps = ProbeSet(sys, plan)
    for with_tau in (False, True):
        assert _fit_delta_table(plan, ps, with_tau) == _one_halving_per_call(plan, ps, with_tau)


def test_ocep_estimate_is_one_kernel_call_on_cached_plan(lin_sys, lin_plan, kernel_calls):
    ps = ProbeSet(lin_sys, lin_plan)
    ps.all_data()
    kernel_calls.clear()
    estimate_gain(lin_sys, PropertyId.OCEP, lin_plan, probe_set=ps)
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("prop, table_form", [(PropertyId.OCEP, False), (PropertyId.OULS, True)])
def test_delta_estimates_are_checked_down_to_the_floor(prop, table_form):
    """Under a constant drift every delta ball leaves eps = 2 within the
    horizon, so the fit halves from delta = 2 to the 1e-9 floor: the row
    comes back empty instead of holding a delta no shell was checked at."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = 1\ny0 = x0"))
    plan = SamplingPlan(radii=(1.0, 4.0), input_norms=(), eps_grid=(2.0,), horizon=3.0)
    cert = estimate_gain(sys, prop, plan, table_form=table_form)
    verdict = verify(sys, cert, plan)
    assert not verdict.falsified, verdict.min_slack


def test_delta_fit_reads_a_blow_up_past_the_rows_horizon_as_the_check_does():
    """x' = x^2 from delta blows up at t = 1 / delta.  The row with horizon
    5 keeps delta = 0.125, whose shell stays below 0.98 eps up to t = 5 and
    blows up only at t = 8; the row with horizon 10 halves on to 0.0625."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = x0 * x0\ny0 = x0"))
    plan = SamplingPlan(radii=(0.5,), eps_grid=(0.5,), horizon=10.0)
    cert = estimate_gain(sys, PropertyId.OCEP, plan)
    assert cert["delta_table"].tau_grid == (5.0, 10.0)
    assert cert["delta_table"].values.tolist() == [[0.125, 0.0625]]
    assert verify(sys, cert, plan).certified


@pytest.mark.parametrize("field", ["radii", "eps_grid"])
def test_plan_rejects_non_finite_levels(field):
    with pytest.raises(DomainError):
        SamplingPlan(**{"radii": (1.0,), field: (math.inf,)})


def test_ooulim_estimate_is_not_falsified_on_sat_polar():
    """Each row of the OOULIM table is fitted on the probes whose own |y(0)|
    the check looks up in that row, whichever shell drew them."""
    sys, plan = make_example("sat_polar"), get_entry("sat_polar").default_plan()
    ps = ProbeSet(sys, plan)
    cert = estimate_gain(sys, PropertyId.OOULIM, plan, probe_set=ps)
    assert not verify(sys, cert, plan, probe_set=ps).falsified


def test_tau_beyond_the_horizon_is_one_counted_note(lin_sys, lin_plan):
    """Every probe at the largest radius reads a tau past the horizon at
    every level: one note counts the skipped cells and names the first."""
    taus = [0.0] * (len(lin_plan.radii) - 1) + [2.0 * lin_plan.horizon]
    table = ConvergenceTimeTable(lin_plan.eps_grid, lin_plan.radii, None,
                                 np.array([taus] * len(lin_plan.eps_grid)))
    cert = Certificate(PropertyId.OUAG, {"gamma": cf.identity(), "tau_table": table})
    verdict = verify(lin_sys, cert, lin_plan)
    top = max(lin_plan.radii)
    skipped = len(lin_plan.eps_grid) * sum(
        p.r == top for p in ProbeSet(lin_sys, lin_plan).probes)
    assert skipped > 1
    assert [note for note in verdict.notes if "horizon" in note] == [
        f"{skipped} cell(s) skipped where tau exceeds the horizon "
        f"(first tau({lin_plan.eps_grid[0]:g}, {top:g}) = {2.0 * lin_plan.horizon:g})"]


@pytest.mark.parametrize("prop, c, slack", [(PropertyId.H_K_BOUNDED, None, -10.0),
                                            (PropertyId.H_BOUNDED, 1.0, -9.0)])
def test_zero_gain_output_map_bound_is_checked(lin_sys, lin_plan, prop, c, slack):
    """Zero sigma1 and gamma1 bound |y| by c alone: y = x on lin_scalar leaves
    it at the largest radius, 10, and the bound is a curve, not a scalar."""
    params = {"sigma1": cf.zero(), "gamma1": cf.zero()}
    if c is not None:
        params["c"] = c
    cert = Certificate(prop, params)
    verdict = verify(lin_sys, cert, lin_plan)
    assert verdict.status == "falsified" and verdict.min_slack == slack
    found = falsify(lin_sys, cert, 10, lin_plan)
    assert found.status == "falsified" and found.min_slack < 0.0
    assert found.witness.observed > found.witness.bound


@pytest.mark.parametrize("prop", [PropertyId.OCEP, PropertyId.OULS])
def test_blow_up_inside_a_continuity_window_is_a_violation(prop):
    """Of the four probes in the delta = 0.5 and 0.25 shells of dx = x^2 (x -
    0.4), three blow up well inside the horizon: the continuity row is
    violated with an unbounded sample, as a reachability window would be."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = x0 * x0 * (x0 - 0.4)\n"
                                      "y0 = x0"))
    plan = SamplingPlan(radii=(0.1,), input_norms=(), eps_grid=(0.6,), horizon=200.0,
                        sim=SimPlan(200.0, 1e-2, blow_up_threshold=1e6), directions=2)
    cert = Certificate(prop, {"delta_table": DeltaTable((0.6,), None, [0.5])})
    verdict = verify(sys, cert, plan)
    assert verdict.status == "falsified" and verdict.min_slack == -math.inf
    assert verdict.samples == 4
    assert verdict.witness.observed == math.inf and verdict.witness.t <= plan.horizon


@pytest.mark.parametrize("fields", [
    {"radii": (-1.0, 1.0)},
    {"input_norms": (-2.0, math.nan)},
    {"input_norms": (math.inf,)},
    {"horizon": math.nan},
    {"horizon": math.inf},
    {"horizon": 0.0},
    {"eps_grid": (-0.1,)},
    {"eps_grid": (0.0, 0.5)},
    {"directions": 0},
    {"directions": 1.5},
], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
def test_malformed_plans_are_refused_at_construction(fields):
    """Each of these once simulated and then failed inside a checker, or
    dropped its input norms silently, or certified on no samples."""
    with pytest.raises(DomainError, match="plan needs"):
        SamplingPlan(**{"radii": (1.0,), **fields})
    # the zero input is always probed: an input norm of 0 is dropped, not refused
    assert SamplingPlan(radii=(1.0,), input_norms=(0.0, 1.0)).input_norms == (1.0,)


# the falsify_search benchmark cases, built from the zoo: (status, samples,
# min_slack, witness probe index, witness t) and the checker calls per search
_SEARCH_CASES = {
    "sin_output:OL": (("falsified", 40, -0.964872747181463, 4, 2.08), 7),
    "rotation:IOS": (("falsified", 40, -4.874950952985021, 6, 12.57), 5),
    "sat_polar:OL": (("falsified", 40, -10.027079529211008, 11, 18.54), 5),
    "l2_blowup16:BORS": (("falsified", 40, -30.940170398109757, 9, 0.06), 4),
    "rotation:IOS:budget6": (("falsified", 6, -0.9999899390738498, 3, 12.57), 1),
}


def _search_case(name):
    from ioslab.zoo import blowup_ball_radius

    ol_id = Certificate(PropertyId.OL, {"sigma": cf.identity(), "gamma": cf.zero()})
    if name == "l2_blowup16:BORS":
        radius = blowup_ball_radius()
        plan = SamplingPlan(radii=(1.0, 3.0, 6.0, radius), input_norms=(), eps_grid=(0.1,),
                            horizon=1.0, sim=SimPlan(1.0, 2e-3), directions=3, seed=104)
        cert = Certificate(PropertyId.BORS, {"radius": radius, "horizon": 1.0, "bound": 10.0})
        return make_example("l2_blowup", n=16), cert, 40, plan
    zid, prop = name.split(":")[:2]
    cert = ol_id if prop == "OL" else ios_exp_cert()
    return (make_example(zid), cert, 6 if name.endswith("budget6") else 40,
            get_entry(zid).default_plan())


@pytest.mark.parametrize("name", list(_SEARCH_CASES))
def test_falsify_search_verdicts_and_one_checker_call_per_batch(name, monkeypatch):
    """The sweep and each refinement round are scored by one checker call;
    the verdicts are the ones the search gave checking probe by probe."""
    import ioslab.properties as props

    calls = []
    real = props._checker

    def counting(cert):
        source, check = real(cert)
        return source, lambda *args: calls.append(1) or check(*args)

    monkeypatch.setattr(props, "_checker", counting)
    expected, checker_calls = _SEARCH_CASES[name]
    v = falsify(*_search_case(name))
    assert (v.status, v.samples, v.min_slack, v.witness.probe_index,
            round(v.witness.t, 2)) == expected
    assert len(calls) == checker_calls


def test_falsify_without_a_probe_in_the_ball_is_inconclusive(lin_sys, lin_plan):
    # the plan's smallest radius is 0.1, so no probe lies in a ball of radius 0.01
    cert = Certificate(PropertyId.LOCAL_OL,
                       {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 0.01})
    v = falsify(lin_sys, cert, 20, lin_plan)
    assert (v.status, v.reason) == ("inconclusive", "no admissible probes for this certificate")
    assert v.samples <= 20
    assert falsify(lin_sys, cert, 0, lin_plan).samples == 0


@pytest.mark.parametrize("name", list(_SEARCH_CASES))
def test_witnesses_replay_their_observation_exactly(name):
    """A replay integrates [0, t] only, on the probe's own grid up to t, so it
    returns the observed norm bit for bit, from falsify and from verify."""
    sys, cert, budget, plan = _search_case(name)
    for v in (falsify(sys, cert, budget, plan), verify(sys, cert, plan)):
        assert v.falsified
        assert v.witness.replay(sys, plan.sim) == v.witness.observed


def test_falsify_spends_nothing_outside_the_certificate_ball(lin_sys, lin_plan, kernel_calls):
    # the plan's smallest radius is 0.1, so no probe lies in a ball of radius 0.01
    cert = Certificate(PropertyId.LOCAL_OL,
                       {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 0.01})
    v = falsify(lin_sys, cert, 20, lin_plan)
    assert (v.samples, v.reason) == (0, "no admissible probes for this certificate")
    assert kernel_calls == []


def test_falsify_sweeps_the_obors_ball_by_initial_output(lin_plan, kernel_calls):
    """With y = x / 10, the OBORS ball of radius 0.5 holds the probes of
    radius 0.1 and 1 (|y(0)| from the output map, before any simulation)
    with input norm up to 0.5: the sweep runs exactly those."""
    import ioslab.properties as props

    sys = compile_system(parse_system("dim_x = 1\ndim_u = 1\ndx0 = -x0 + u0\ny0 = 0.1 * x0"))
    cert = Certificate(PropertyId.OBORS, {"radius": 0.5, "horizon": 5.0, "bound": 100.0})
    falsify(sys, cert, 40, lin_plan)
    inside = [d for d in ProbeSet(sys, lin_plan).all_data() if props._probe_filter(cert, d)]
    assert {(d.probe.r, d.probe.s) for d in inside} == {(r, s) for r in (0.1, 1.0)
                                                         for s in (0.0, 0.5)}
    assert kernel_calls[0] == len(inside)


def test_initial_output_is_normed_as_the_kernel_norms_an_output_row():
    """The output-shell screen and falsify's ball read |y(0)| bit for bit as
    the checks read y_norms[0]; the 1-D norm of this output reads one ulp
    lower (0.6560121950085989)."""
    import ioslab.properties as props

    sys = make_example("l2_blowup", n=2)
    x0, zero = np.array([-0.004, 0.656]), InputSignal.zero(0)
    y0 = props._initial_output(sys, x0, zero)
    assert y0 == simulate(sys, x0, zero, SimPlan(1.0)).y_norms[0] == 0.656012195008599


@pytest.mark.parametrize("fields", [
    {"radii": (1.0, 0.1)},
    {"radii": (0.5, 0.5)},
    {"input_norms": (2.0, 1.0)},
    {"input_norms": (1.0, 1.0)},
    {"eps_grid": (0.5, 0.1)},
    {"eps_grid": (0.1, 0.1)},
], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
def test_plans_with_grids_out_of_order_are_refused(fields):
    """The grids become table axes: a descending or repeated one used to be
    simulated and then refused by the table, or tabulated wrongly."""
    with pytest.raises(DomainError, match="plan needs strictly increasing"):
        SamplingPlan(**{"radii": (1.0,), **fields})


# ---------------------------------------------------------------------------
# one kernel call per shared probe set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zid", zoo_ids())
def test_verify_then_ocep_estimate_on_a_fresh_probe_set_is_one_kernel_call(zid, kernel_calls):
    """The first plan-probe request on a probe set the caller passed in also
    simulates the delta fit's first-round shells, which decide every zoo
    entry's OCEP estimate.  (The golden matrix, which estimates on such
    probe sets, holds the estimates to the standalone fits'.)"""
    import ioslab.properties as props

    entry = get_entry(zid)
    sys, plan = entry.factory(), entry.default_plan()
    ps = ProbeSet(sys, plan)
    cert = next(c for c in entry.certificates().values()
                if props._checker(c)[0] is props._plan_probes)
    verify(sys, cert, plan, probe_set=ps)
    estimate_gain(sys, PropertyId.OCEP, plan, probe_set=ps)
    assert len(kernel_calls) == 1


def test_standalone_verify_simulates_only_the_plan_probes(lin_sys, lin_plan, kernel_calls):
    verify(lin_sys, ios_exp_cert(), lin_plan)
    assert kernel_calls == [len(ProbeSet(lin_sys, lin_plan).probes)]


def test_warm_probe_set_makes_no_kernel_call_and_builds_no_shell(lin_sys, lin_plan,
                                                                   kernel_calls, monkeypatch):
    ps = ProbeSet(lin_sys, lin_plan)
    verify(lin_sys, ios_exp_cert(), lin_plan, probe_set=ps)
    kernel_calls.clear()
    shells = []
    real = ProbeSet._state_shell
    monkeypatch.setattr(ProbeSet, "_state_shell",
                        lambda self, r, s: shells.append((r, s)) or real(self, r, s))
    verify(lin_sys, ios_exp_cert(), lin_plan, probe_set=ps)
    assert shells == []
    # the first verify's request simulated the shells this fit reads
    estimate_gain(lin_sys, PropertyId.OCEP, lin_plan, probe_set=ps)
    assert kernel_calls == []


# ---------------------------------------------------------------------------
# one probe-construction rule
# ---------------------------------------------------------------------------

def _reference_probes(sys, plan, radii, levels, count, tag_prefix, first):
    """Radius x direction x input family per level, written out from the two
    draw functions at the plan's seed: the plan probes (levels from zero), a
    state shell (one radius, one level) and the output-shell candidates
    (every one of at least 3 directions)."""
    import ioslab.properties as props

    dirs = props._directions(sys.state_dim, count, plan.seed)
    inputs = [pair for s in levels for pair in props._inputs_at_norm(plan, sys.input_dim, s)]
    out = []
    for r in radii:
        for d in dirs:
            x0 = np.asarray(sys.embed(r, d), dtype=float)
            for tag, u in inputs:
                index = len(out) if first == 0 else first - len(out)
                out.append(props.Probe(index, tuple(x0), u, r, u.norm(), tag_prefix + tag,
                                       tuple(d)))
    return out


def _reference_output_shell(sys, plan, r_y, s):
    """Every candidate with |y(0)| <= r_y, in family order: no rank, no cap."""
    import ioslab.properties as props

    ladder = [r_y * f for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    kept = [p for p in _reference_probes(sys, plan, ladder, (s,), max(plan.directions, 3), "", 0)
            if props._initial_output(sys, np.asarray(p.x0), p.u) <= r_y + 1e-12]
    return [props.Probe(-2000 - i, p.x0, p.u, float(sys.state_norm(np.asarray(p.x0))), p.s,
                        f"yshell:{p.tag}", p.direction)
            for i, p in enumerate(kept)]


def _probe_bytes(p):
    return (p.index, np.asarray(p.x0).tobytes(), p.u.breakpoints.tobytes(), p.u.values.tobytes(),
            p.r, p.s, p.tag, np.asarray(p.direction).tobytes())


@pytest.mark.parametrize("zid", zoo_ids())
@pytest.mark.parametrize("seed_offset", [0, 1])
@pytest.mark.parametrize("seeded_dirs", [False, True])
def test_plan_probes_and_shells_follow_one_construction_rule(zid, seed_offset, seeded_dirs):
    """Plan probes, state shells and output-shell candidates are byte for
    byte the radius x direction x input-family grid of the draw functions,
    also at another seed and with seeded directions past the 2 dim axes."""
    entry = get_entry(zid)
    sys, plan = entry.factory(), entry.default_plan()
    directions = 2 * sys.state_dim + 2 if seeded_dirs else plan.directions
    plan = replace(plan, seed=plan.seed + seed_offset, directions=directions)
    ps = ProbeSet(sys, plan)
    levels = (0.0,) + plan.input_norms  # the zero input first
    expected = _reference_probes(sys, plan, plan.radii, levels, plan.directions, "", 0)
    assert list(map(_probe_bytes, ps.probes)) == list(map(_probe_bytes, expected))
    cells = [(plan.radii[0], 0.0), (plan.radii[-1], plan.s_max),
             (0.5 * plan.radii[-1], 0.5 * plan.s_max), (plan.radii[0], plan.s_max)]
    for r, s in cells:
        state = _reference_probes(sys, plan, (r,), (s,), plan.directions, "shell:", -1000)
        assert list(map(_probe_bytes, ps._state_shell(r, s))) == list(map(_probe_bytes, state))
        output = _reference_output_shell(sys, plan, r, s)
        assert list(map(_probe_bytes, ps._output_shell(r, s))) == list(map(_probe_bytes, output))


def test_a_probe_set_draws_each_direction_list_and_input_family_once(lin_sys, lin_plan,
                                                                     monkeypatch):
    import ioslab.properties as props

    draws = []
    for name in ("_directions", "_inputs_at_norm"):
        real = getattr(props, name)
        monkeypatch.setattr(props, name,
                            lambda *a, real=real, name=name: draws.append((name,) + a) or real(*a))
    ps = ProbeSet(lin_sys, lin_plan)
    cells = [(r, s) for r in (0.1, lin_plan.radii[-1]) for s in lin_plan.s_levels + (0.3,)]
    for _ in range(2):
        ps.shells(cells)
        ps.shells(cells, by_output=True)
    # one direction list, and one family per level: the plan's and s = 0.3
    assert len(draws) == len(set(draws))
    assert sum(d[0] == "_directions" for d in draws) == 1
    assert sum(d[0] == "_inputs_at_norm" for d in draws) == len(lin_plan.s_levels) + 1


def test_plan_refuses_a_sim_with_another_horizon():
    """The plan's horizon is the one the probes integrate to: a sim plan
    with another horizon is refused, not overwritten."""
    with pytest.raises(DomainError, match="horizon"):
        SamplingPlan(radii=(1.0,), sim=SimPlan(20.0))
    assert SamplingPlan(radii=(1.0,), horizon=20.0, sim=SimPlan(20.0)).sim.horizon == 20.0


@pytest.mark.parametrize("zid", ["rotation", "sat_polar"])
def test_output_reachability_bound_covers_every_drawn_output_shell_probe(zid):
    """Every probe drawn for the output-axis table stays, at each tabulated
    t, below the cell its own |y(0)| and input norm snap up to, as the
    OBORS check reads it."""
    entry = get_entry(zid)
    sys, plan = entry.factory(), entry.default_plan()
    ps = ProbeSet(sys, plan)
    mu = build_reachability_bound(sys, plan, over_initial_output=True, probe_set=ps)
    shells = ps.shells([(r, s) for r in plan.radii for s in plan.s_levels], by_output=True)
    drawn = [data for shell in shells for data in shell]
    assert drawn
    for data in drawn:
        for t in mu.t_grid:
            y = data.traj.y_norms
            sup = float(np.max(y[data.traj.times <= t + 1e-12]))
            assert sup <= mu.eval(y[0], data.probe.s, t) + 1e-12, (data.probe.tag, t)


def test_rotation_output_shell_keeps_the_large_states_of_a_small_output():
    """On rotation y(0) = 0 along e_1 while |y| later reaches |x0|: the
    r_y = 0.5 output shell keeps every screened candidate, state norms up to
    8 included, so the output-axis table sees the unbounded reachability."""
    entry = get_entry("rotation")
    sys, plan = entry.factory(), entry.default_plan()
    ps = ProbeSet(sys, plan)
    shell = ps._output_shell(0.5, 0.0)
    assert len(shell) == 13
    assert max(p.r for p in shell) == 8.0
    mu = build_reachability_bound(sys, plan, over_initial_output=True, probe_set=ps)
    row = mu.values[plan.radii.index(0.5), 0]
    assert row == pytest.approx(np.full(len(mu.t_grid), 48.0), rel=1e-6)


@pytest.mark.parametrize("seed", [-1, 2.5, "7", None])
def test_plan_refuses_a_seed_that_is_not_an_int_from_zero(seed, lin_sys):
    """The seed drives NumPy generators, which take only ints >= 0: a plan
    refuses any other seed when it is made, not at its first probe set."""
    with pytest.raises(DomainError, match="seed"):
        SamplingPlan(radii=(1.0,), input_norms=(1.0,), seed=seed)
    assert ProbeSet(lin_sys, SamplingPlan(radii=(1.0,), input_norms=(1.0,), seed=0)).probes


@pytest.mark.parametrize("zid", ["lin_scalar", "sin_output"])
def test_one_dimensional_output_shells_hold_distinct_probes(zid):
    """In one dimension the two signed axes are all the directions there
    are: no (x0, u) of an output shell repeats, so none counts twice."""
    entry = get_entry(zid)
    sys, plan = entry.factory(), entry.default_plan()
    ps = ProbeSet(sys, plan)
    for r in plan.radii:
        for s in plan.s_levels:
            shell = ps._output_shell(r, s)
            assert shell
            assert len({(p.x0, p.u) for p in shell}) == len(shell), (r, s)
