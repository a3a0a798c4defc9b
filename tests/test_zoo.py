"""Zoo systems: closed-form agreement, witnesses, oracles, safe regions."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from ioslab.constructs import IMPLICATIONS
from ioslab.errors import DomainError
from ioslab.signals import InputSignal
from ioslab.systems import SimPlan, simulate
from ioslab import zoo
from ioslab.properties import PropertyId


def test_riccati_oracle_roundtrip():
    c = zoo.riccati_seed_for_blowup_at(1.0)
    assert c == pytest.approx(2.0 * math.e**2 / (math.e**2 - 1.0), rel=1e-12)
    assert c == pytest.approx(2.31304, abs=1e-3)
    assert zoo.riccati_blowup_time(c) == pytest.approx(1.0, rel=1e-12)


def test_riccati_oracle_against_integration():
    # integrate dz = -2z + z^2 from the seed and watch it cross a huge level
    c = zoo.BLOWUP_SEED
    z, t, h = c, 0.0, 1e-6
    while z < 1e6 and t < 2.0:
        z += h * (-2.0 * z + z * z)
        t += h
    assert t == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("zoo_id,x0", [
    ("sin_output", [1.3]),
    ("rotation", [0.8, -0.6]),
    ("lin_scalar", [2.0]),
])
def test_analytic_flow_matches_rk4_on_grid(zoo_id, x0):
    sys = zoo.make_example(zoo_id)
    u = InputSignal.constant([0.7]) if sys.input_dim else InputSignal.zero(0)
    traj = simulate(sys, np.asarray(x0), u, SimPlan(5.0, 1e-2))
    oracle = np.stack([np.asarray(sys.analytic_flow(t, np.asarray(x0), u)) for t in traj.times])
    idx = np.linspace(0, len(traj.times) - 1, 50).astype(int)
    err = np.max(np.linalg.norm(traj.states[idx] - oracle[idx], axis=1))
    assert err <= 1e-5


def test_sin_output_witness_values():
    sys = zoo.make_example("sin_output")
    w = zoo.known_witness("sin_output", PropertyId.OL)
    traj = simulate(sys, np.asarray(w.x0), w.signal(sys.input_dim), SimPlan(2.0, 1e-3))
    y = traj.output_norms()
    assert y[0] <= 1e-9
    assert y[traj.at_time(1.0)] >= 0.9
    assert y[traj.at_time(1.0)] == pytest.approx(math.sin(math.pi / math.e), abs=1e-6)


def test_rotation_witness_and_recurrence():
    sys = zoo.make_example("rotation")
    w = zoo.known_witness("rotation", PropertyId.OL)
    traj = simulate(sys, np.asarray(w.x0), InputSignal.zero(0), SimPlan(7.0, 1e-3))
    y = traj.output_norms()
    assert y[0] <= 1e-9
    assert y[traj.at_time(1.5 * math.pi)] >= w.output_floor
    # output returns to the initial radius at full turns minus the phase
    k = traj.at_time(2.0 * math.pi - 0.5 * math.pi)
    assert traj.outputs[k, 0] == pytest.approx(1.0, abs=1e-6)


def test_sat_polar_witness_sweep():
    sys = zoo.make_example("sat_polar")
    w = zoo.known_witness("sat_polar", PropertyId.OL)
    c = 4.0 * math.exp(0.5 * math.pi)
    t_star = c * (1.0 - math.exp(-0.5 * math.pi))
    assert w.t == pytest.approx(t_star, rel=1e-12)
    traj = simulate(sys, np.asarray(w.x0), InputSignal.zero(0), SimPlan(t_star + 1.0, 1e-3))
    y = traj.output_norms()
    assert y[0] == pytest.approx(1.0, abs=1e-9)
    assert float(np.max(y)) >= w.output_floor
    assert y[traj.at_time(t_star)] == pytest.approx(c * math.exp(-0.5 * math.pi), abs=1e-2)


def test_sat_polar_obors_bound_y_le_y0_plus_t():
    sys = zoo.make_example("sat_polar")
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        rho = rng.uniform(0.1, 30.0)
        traj = simulate(sys, np.array([theta, rho]), InputSignal.zero(0), SimPlan(10.0, 1e-2))
        y = traj.output_norms()
        assert np.all(y <= y[0] + traj.times + 1e-6)


def test_l2_blowup_witness_reaches_level():
    n, j = 64, 51
    sys = zoo.make_example("l2_blowup", n=n)
    x0 = zoo.blowup_seed_state(n, j)
    assert np.linalg.norm(x0) <= zoo.blowup_ball_radius()
    traj = simulate(sys, x0, InputSignal.zero(0), SimPlan(1.0, 2e-4))
    yj = np.abs(traj.states[:, j])
    crossed = traj.times[yj >= j]
    assert crossed.size > 0
    assert crossed[0] < 1.0


def test_l2_blowup_seed_validation():
    with pytest.raises(DomainError):
        zoo.blowup_seed_state(8, 0)
    with pytest.raises(DomainError):
        zoo.blowup_seed_state(8, 8)


def test_l2_blowup_safe_region_norm_nonincreasing():
    n = 64
    sys = zoo.make_example("l2_blowup", n=n)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-0.5, 0.5, size=n)
    x0[0] = abs(x0[0])
    traj = simulate(sys, x0, InputSignal.zero(0), SimPlan(10.0, 1e-2))
    norms = np.linalg.norm(traj.states, axis=1)
    assert traj.blow_up is None
    assert np.all(np.diff(norms) <= 1e-10)


def test_timewarp_is_exact_time_dilation_for_constant_input():
    n = 8
    warped = zoo.make_example("l2_timewarp", n=n)
    plain = zoo.make_example("l2_blowup", n=n)
    x0 = np.zeros(n)
    x0[0] = 1.0
    x0[3] = 0.8
    level = 3.0
    u = InputSignal.constant([level])
    factor = 1.0 + level**2
    t_w = simulate(warped, x0, u, SimPlan(2.0 * factor, 1e-2))
    t_p = simulate(plain, x0, InputSignal.zero(0), SimPlan(2.0, 1e-2 / factor))
    k_w = t_w.at_time(2.0 * factor)
    k_p = t_p.at_time(2.0)
    np.testing.assert_allclose(t_w.states[k_w], t_p.states[k_p], atol=1e-6)


def test_timewarp_defeat_input_formula():
    assert zoo.timewarp_defeat_input(4.0, 1.0) == pytest.approx(math.sqrt(3.0))
    with pytest.raises(DomainError):
        zoo.timewarp_defeat_input(1.0, 2.0)


def test_every_failure_has_witness_recipe():
    for zid in zoo.zoo_ids():
        entry = zoo.get_entry(zid)
        for prop, verdict in entry.expected.items():
            if verdict == "fails":
                assert prop in entry.witnesses, (zid, prop)


@pytest.mark.parametrize("zoo_id", zoo.zoo_ids())
def test_certificates_and_estimable_notions_are_marked_holds(zoo_id):
    """The conformance matrix only checks a certificate or an estimate
    whose notion the entry marks "holds"; any other would go unchecked."""
    entry = zoo.get_entry(zoo_id)
    for prop, cert in entry.certificates().items():
        assert cert.property == prop, (prop, cert.property)
        assert entry.expected.get(prop) == "holds", prop
    for prop in entry.estimable:
        assert entry.expected.get(prop) == "holds", prop


def test_describe_is_json_serialisable():
    import json

    for zid in zoo.zoo_ids():
        text = json.dumps(zoo.get_entry(zid).describe(), sort_keys=True)
        assert json.loads(text)["id"] == zid


def test_make_example_rejects_unknown():
    with pytest.raises(DomainError):
        zoo.make_example("spiral_of_doom")
    with pytest.raises(DomainError):
        zoo.make_example("l2_blowup", n=1)


def test_full_state_alias():
    sys = zoo.make_example("full_state", base="lin_scalar")
    assert sys.name == "lin_scalar_full_state"


@pytest.mark.parametrize("zoo_id, params, unknown", [
    ("lin_scalar", {"n": 64}, "n"),
    ("l2_blowup", {"m": 3}, "m"),
    ("l2_timewarp", {"n": 8, "width": 8}, "width"),
    ("full_state", {"base": "rotation", "n": 4}, "n"),
])
def test_make_example_refuses_a_parameter_the_factory_does_not_take(zoo_id, params,
                                                                    unknown):
    """These used to return the default system without a word."""
    with pytest.raises(DomainError, match=f"takes no parameter {unknown}$"):
        zoo.make_example(zoo_id, **params)


def test_make_example_passes_the_truncation_width_on():
    assert zoo.make_example("l2_blowup").state_dim == 64
    assert zoo.make_example("l2_timewarp").state_dim == 16
    assert zoo.make_example("full_state", base="l2_blowup", n=8).state_dim == 8


# ---------------------------------------------------------------------------
# audit: every expected map, closed under the recipes' implications
# ---------------------------------------------------------------------------

P = PropertyId
# the recipes' rows plus the definitional weakening H_K_BOUNDED => H_BOUNDED
RULES = list(IMPLICATIONS.values()) + [((P.H_K_BOUNDED,), P.H_BOUNDED)]


def _closure(expected: dict) -> tuple[dict, set]:
    """(statuses forced beyond ``expected``, clauses "one of these fails").

    Forwards, a rule whose hypotheses all hold makes its conclusion hold; by
    contrapositive, a failing conclusion makes its one hypothesis not known
    to hold fail, and leaves a clause when several are open.  A status forced
    against a stated or already forced one is a contradiction.
    """
    status = {p: s for p, s in expected.items() if s in ("holds", "fails")}

    def force(prop, value):
        assert status.get(prop, value) == value, f"{prop.value} forced to {value}"
        changed = prop not in status
        status[prop] = value
        return changed

    changed = True
    while changed:
        changed = False
        for hyps, concl in RULES:
            open_ = [h for h in hyps if status.get(h) != "holds"]
            if not open_:
                changed |= force(concl, "holds")
            elif status.get(concl) == "fails" and len(open_) == 1:
                changed |= force(open_[0], "fails")
    clauses = set()
    for hyps, concl in RULES:
        open_ = frozenset(h for h in hyps if status.get(h) != "holds")
        if status.get(concl) == "fails" and len(open_) > 1 \
                and all(h not in status for h in open_):
            clauses.add(open_)
    forced = {p: s for p, s in status.items() if p not in expected}
    return forced, clauses


# what the closure forces and the zoo does not state (marking these is the
# counterexample gate's work, not the audit's)
FORCED = {
    "lin_scalar": ({}, set()),
    "sin_output": ({}, {frozenset({P.OBORS, P.OOULIM})}),
    "rotation": ({P.OCAG: "fails", P.OGUAG: "fails"},
                 {frozenset({P.LOCAL_OL, P.OBORS})}),
    "sat_polar": ({}, set()),
    "l2_blowup": ({}, {frozenset({P.OCAG, P.OUGS}),
                       frozenset({P.OULIM, P.OL, P.H_K_BOUNDED})}),
    "l2_timewarp": ({}, set()),
}


@pytest.mark.parametrize("zoo_id", zoo.zoo_ids())
def test_expected_map_is_closed_under_the_implications(zoo_id):
    assert _closure(zoo.get_entry(zoo_id).expected) == FORCED[zoo_id]


def test_closure_finds_a_contradiction():
    with pytest.raises(AssertionError, match="IOS forced to holds"):
        _closure({P.ISS: "holds", P.H_K_BOUNDED: "holds", P.IOS: "fails"})


def _l2_rhs_reference(n: int):
    """The sequence right-hand side as one expression: -x_n + x_0 x_n^2 -
    x_n |x_n| - x_n^3 / n^2 for n >= 1, and -x_0 for the first coordinate."""
    inv_n2 = np.zeros(n)
    inv_n2[1:] = 1.0 / np.arange(1, n).astype(float) ** 2

    def rhs(x, u):
        xn = x.copy()
        xn[..., 0] = 0.0
        xn2 = xn * xn
        return -x + xn2 * x[..., :1] - xn * np.abs(xn) - inv_n2 * (xn2 * xn)

    return rhs


@pytest.mark.parametrize("n", [2, 16, 64])
def test_l2_rhs_equals_the_one_expression_bit_for_bit(n):
    """On random rows salted with signed zeros, subnormals, huge and
    non-finite entries: the same bits where finite, and the same finite,
    infinite and NaN pattern."""
    rng = np.random.default_rng(n)
    salt = np.array([0.0, -0.0, 5e-324, -5e-324, 1e154, -1e154, 1e300, -1e300,
                     np.inf, -np.inf, np.nan, 1.0, -2.5])
    rhs, ref = zoo._l2_rhs(n), _l2_rhs_reference(n)
    with np.errstate(all="ignore"):
        for shape in [(n,), (1, n), (7, n), (40, n), (3, 5, n)] * 20:
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6)
            salted = rng.random(shape) < 0.25
            x[salted] = rng.choice(salt, size=int(salted.sum()))
            got, want = rhs(x, None), ref(x, None)
            assert got.shape == want.shape
            finite, nan = np.isfinite(want), np.isnan(want)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~finite & ~nan], want[~finite & ~nan])  # signed infs
            assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


# ---------------------------------------------------------------------------
# derived statuses: certificates say what holds, witness recipes what fails
# ---------------------------------------------------------------------------

def _restated(zoo_id: str, **fields) -> zoo.ZooEntry:
    return replace(zoo.get_entry(zoo_id), **fields)


def test_a_stated_failure_is_refused():
    # l2_blowup's FC is "unknown"; stating it as a failure needs a recipe
    entry = _restated("l2_blowup", stated={P.OCEP: "holds", P.FC: "fails"})
    with pytest.raises(DomainError, match="FC.*stated by its recipe"):
        entry.expected


@pytest.mark.parametrize("prop, status", [(P.OULS, "holds"), (P.BORS, "unknown")])
def test_a_stated_status_beside_a_certificate_or_recipe_is_refused(prop, status):
    # l2_blowup has a certificate for OULS and a witness recipe for BORS
    entry = _restated("l2_blowup", stated={P.OCEP: "holds", prop: status})
    with pytest.raises(DomainError, match=f"{prop.value}: a stated status beside"):
        entry.expected


def test_a_notion_with_a_certificate_and_a_recipe_is_refused():
    # sat_polar certifies OULS; a recipe for it would say it fails too
    base = zoo.get_entry("sat_polar")
    entry = _restated("sat_polar", witnesses={**base.witnesses,
                                              P.OULS: base.witnesses[P.OL]})
    with pytest.raises(DomainError, match="OULS: both a certificate and a witness recipe"):
        entry.expected
