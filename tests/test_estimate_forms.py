"""Estimates follow the certificate form, blow-up witnesses replay to +inf,
and probe sets are checked against the system and plan they are read for."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from ioslab import comparison as cf
from ioslab.errors import DomainError, EstimationError
from ioslab.properties import (
    Certificate,
    ProbeSet,
    PropertyId,
    SamplingPlan,
    build_reachability_bound,
    build_tau_table,
    estimate_gain,
    estimate_tau,
    falsify,
    verify,
)
from ioslab.systems import SimPlan
from ioslab.sysdsl import compile_system, parse_system
from ioslab.zoo import get_entry, make_example


@pytest.fixture(scope="module")
def lin_sys():
    return make_example("lin_scalar")


@pytest.fixture(scope="module")
def lin_plan():
    return get_entry("lin_scalar").default_plan()


# ---------------------------------------------------------------------------
# refusals come before any simulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("prop", [PropertyId.OAG, PropertyId.FC, PropertyId.BORS,
                                  PropertyId.OBORS])
def test_refused_notions_make_no_kernel_call(lin_sys, lin_plan, kernel_calls, prop):
    """OAG is refused by name; FC has no form, and the reachability bounds'
    form (radius, horizon, bound) has no fit."""
    ps = ProbeSet(lin_sys, lin_plan)
    with pytest.raises(EstimationError):
        estimate_gain(lin_sys, prop, lin_plan, probe_set=ps)
    assert kernel_calls == []
    assert not ps._cache


@pytest.mark.parametrize("prop, kwargs, match", [
    (PropertyId.OUGS, {"radius": 0.01}, "has no radius"),
    (PropertyId.IOS, {"radius": 1.0}, "has no radius"),
    (PropertyId.OULS, {"radius": 0.5, "table_form": True}, "has no radius"),
    (PropertyId.OUGS, {"table_form": True}, "has no table form"),
    (PropertyId.OUGS, {"radius": 0.01, "table_form": True}, "has no table form"),
    (PropertyId.OCEP, {"table_form": True}, "has no table form"),
])
def test_arguments_the_form_cannot_use_are_refused_before_any_simulation(
        lin_sys, lin_plan, kernel_calls, prop, kwargs, match):
    """A radius for a form without one, or the table form of a notion with
    one form, used to be dropped: the fit came back as if never asked."""
    ps = ProbeSet(lin_sys, lin_plan)
    with pytest.raises(DomainError, match=match):
        estimate_gain(lin_sys, prop, lin_plan, probe_set=ps, **kwargs)
    assert kernel_calls == []
    assert not ps._cache


def test_a_radius_the_form_has_is_fitted_on(lin_sys, lin_plan):
    cert = estimate_gain(lin_sys, PropertyId.OULS, lin_plan, radius=1.0)
    assert cert["radius"] == 1.0


@pytest.mark.parametrize("prop, table_form", [(PropertyId.OCEP, False), (PropertyId.OULS, True)])
def test_standalone_delta_forms_request_only_their_shells(lin_sys, lin_plan, monkeypatch, prop,
                                                          table_form):
    """A delta table is read off continuity shells alone: without a probe set
    passed in, no plan probe (index >= 0) is requested, so none is simulated."""
    requested = []
    real = ProbeSet.data_many
    monkeypatch.setattr(ProbeSet, "data_many", lambda self, probes: requested.extend(
        p.index for p in probes) or real(self, probes))
    cert = estimate_gain(lin_sys, prop, lin_plan, table_form=table_form)
    assert list(cert.params) == ["delta_table"]
    assert (cert["delta_table"].tau_grid is not None) == (prop == PropertyId.OCEP)
    assert requested and all(index < 0 for index in requested)


def test_delta_estimate_then_verify_on_a_fresh_probe_set_is_one_kernel_call(
        lin_sys, lin_plan, kernel_calls):
    """A delta estimate handed a fresh probe set still prefetches the plan
    probes, so the verify that follows on the set adds no kernel call."""
    ps = ProbeSet(lin_sys, lin_plan)
    estimate_gain(lin_sys, PropertyId.OCEP, lin_plan, probe_set=ps)
    verify(lin_sys, Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.identity()}),
           lin_plan, probe_set=ps)
    assert len(kernel_calls) == 1


@pytest.mark.parametrize("prop, table_form", [(PropertyId.OCEP, False), (PropertyId.OULS, True)])
def test_delta_forms_fit_when_every_plan_probe_blows_up(prop, table_form):
    """x' = x^2 blows up from x0 = 1 and 2 (one direction, +1) within the
    horizon, but not from the small continuity shells, which are all a
    delta table reads."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = x0 * x0\ny0 = x0"))
    plan = SamplingPlan(radii=(1.0, 2.0), eps_grid=(0.1,), horizon=3.0, directions=1)
    ps = ProbeSet(sys, plan)
    assert all(d.blown for d in ps.all_data())
    cert = estimate_gain(sys, prop, plan, probe_set=ps, table_form=table_form)
    assert cert["delta_table"].values.min() > 0.0
    assert verify(sys, cert, plan, probe_set=ps).certified


# ---------------------------------------------------------------------------
# a fit with no surviving zero-input probe
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def blowup_at_rest():
    """dx = x^2 - u: every zero-input probe (x0 = 1 or 2) blows up, and only
    the constant and the step input of norm 2 hold x0 = 1 down."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 1\ndx0 = x0 * x0 - u0\ny0 = x0"))
    plan = SamplingPlan(radii=(1.0, 2.0), input_norms=(2.0,), horizon=3.0,
                        sim=SimPlan(3.0, blow_up_threshold=1e6), directions=1)
    return sys, plan


@pytest.mark.parametrize("prop", [PropertyId.IOS, PropertyId.OUGS, PropertyId.H_BOUNDED])
def test_zero_input_fits_refuse_without_a_surviving_zero_input_probe(blowup_at_rest, prop):
    """The beta, sigma and sigma1 envelopes are fitted on zero-input probes;
    with none left the fit is refused, not returned on no sample."""
    sys, plan = blowup_at_rest
    with pytest.raises(EstimationError, match="zero-input"):
        estimate_gain(sys, prop, plan, probe_set=ProbeSet(sys, plan))


def test_delta_fit_needs_no_zero_input_probe(blowup_at_rest):
    sys, plan = blowup_at_rest
    live = [d.probe for d in ProbeSet(sys, plan).all_data() if not d.blown]
    assert {(p.r, p.tag) for p in live} == {(1.0, "const[2]"), (1.0, "step[2]")}
    cert = estimate_gain(sys, PropertyId.OCEP, plan, probe_set=ProbeSet(sys, plan))
    assert cert.property == PropertyId.OCEP and "delta_table" in cert.params


# ---------------------------------------------------------------------------
# blow-up witnesses
# ---------------------------------------------------------------------------

def test_blow_up_witness_replays_to_inf():
    """x' = x^2 from x0 = 1/2 blows up at t = 2, inside the BORS window of
    horizon 3: the witness observes +inf, and so does its replay, as
    ``_window_sup`` reads a blow-up inside a window."""
    sys = compile_system(parse_system("dim_x = 1\ndim_u = 0\ndx0 = x0 * x0\ny0 = x0"))
    plan = SamplingPlan(radii=(0.5, 1.0), horizon=3.0, sim=SimPlan(3.0, 1e-3))
    cert = Certificate(PropertyId.BORS, {"radius": 2.0, "horizon": 3.0, "bound": 5.0})
    for verdict in (verify(sys, cert, plan), falsify(sys, cert, 20, plan)):
        witness = verdict.witness
        assert verdict.falsified and witness.observed == math.inf
        assert witness.t == pytest.approx(2.001)
        assert witness.replay(sys, plan.sim) == math.inf


# ---------------------------------------------------------------------------
# a probe set read for another system or plan
# ---------------------------------------------------------------------------

_READERS = {
    "verify": lambda sys, plan, ps: verify(
        sys, Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.identity()}),
        plan, probe_set=ps),
    "estimate_gain": lambda sys, plan, ps: estimate_gain(sys, PropertyId.IOS, plan,
                                                         probe_set=ps),
    "estimate_tau": lambda sys, plan, ps: estimate_tau(sys, 0.1, 1.0, 0.0, "uag", plan,
                                                       cf.identity(), probe_set=ps),
    "build_tau_table": lambda sys, plan, ps: build_tau_table(sys, plan, "lim", cf.identity(),
                                                             probe_set=ps),
    "build_reachability_bound": lambda sys, plan, ps: build_reachability_bound(
        sys, plan, probe_set=ps),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("other", ["system", "plan"])
def test_probe_set_for_another_system_or_plan_is_refused(lin_sys, lin_plan, kernel_calls,
                                                         reader, other):
    ps = (ProbeSet(make_example("lin_scalar"), lin_plan) if other == "system"
          else ProbeSet(lin_sys, replace(lin_plan, seed=lin_plan.seed + 1)))
    with pytest.raises(DomainError, match="another system or plan"):
        _READERS[reader](lin_sys, lin_plan, ps)
    assert kernel_calls == []


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_probe_set_for_an_equal_plan_is_read(lin_sys, lin_plan, reader):
    """The plan is compared by value: an equal copy reads the same probes."""
    _READERS[reader](lin_sys, lin_plan, ProbeSet(lin_sys, replace(lin_plan)))
