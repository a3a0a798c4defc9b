"""Comparison-function algebra: evaluation, inversion, builders, envelopes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioslab import comparison as cf
from ioslab.errors import ClassError, DomainError, FitError, TableGapError


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_identity():
    assert cf.identity()(2.0) == 2.0


def test_eval_power_closed_form():
    assert cf.power(2)(3.0) == 9.0


def test_eval_saturation():
    assert cf.sat()(1.7) == 1.0
    assert cf.sat()(0.3) == 0.3


def test_eval_rejects_negative_argument():
    with pytest.raises(DomainError):
        cf.identity()(-0.5)


def test_eval_vectorised():
    f = cf.add(cf.identity(), cf.power(2))
    r = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(f(r), [0.0, 2.0, 6.0])


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_power_closed_form():
    assert cf.invert(cf.power(2), 9.0) == 3.0


def test_invert_identity():
    assert cf.invert(cf.identity(), 5.0) == 5.0


def _bisect_oracle(f, v, lo=0.0, hi=1.0):
    """Independent expanding-bracket bisection on a plain callable."""
    while f(hi) < v:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_invert_pwl_matches_bisection_oracle():
    table = cf.pwl([0.0, 1.0, 2.0], [0.0, 2.0, 6.0])
    expected = _bisect_oracle(lambda r: float(np.interp(r, [0, 1, 2], [0, 2, 6])), 4.0)
    assert expected == pytest.approx(1.5, abs=1e-9)
    assert cf.invert(table, 4.0) == pytest.approx(1.5, abs=1e-8)


def test_invert_requires_kinf():
    with pytest.raises(ClassError):
        cf.invert(cf.sat(), 0.5)


@pytest.mark.parametrize(
    "fn",
    [
        cf.identity(),
        cf.scale(3.5),
        cf.power(1.7),
        cf.compose(cf.power(2), cf.scale(0.5)),
        cf.add(cf.identity(), cf.power(3)),
    ],
)
def test_invert_roundtrip_relative_tolerance(fn):
    grid = np.logspace(-6, 6, 50)
    for r in grid:
        v = float(fn(r))
        back = cf.invert(fn, v)
        assert back == pytest.approx(r, rel=1e-8)


# ---------------------------------------------------------------------------
# combination and class closure
# ---------------------------------------------------------------------------

def test_compose_with_identity_simplifies():
    assert cf.combine("compose", cf.power(2), cf.identity()) == cf.power(2)


def test_add_closed_form_value():
    f = cf.combine("add", cf.identity(), cf.power(2))
    assert f(2.0) == 6.0


def test_combine_class_closure():
    assert cf.add(cf.identity(), cf.identity()).fn_class == "Kinf"
    assert cf.fmax(cf.identity(), cf.power(2)).fn_class == "Kinf"
    assert cf.compose(cf.power(2), cf.identity()).fn_class == "Kinf"
    k_bounded = cf.pwl([0.0, 1.0], [0.0, 1.0], fn_class="K")
    assert cf.add(k_bounded, k_bounded).fn_class == "K"


def test_combine_rejects_incompatible_classes():
    with pytest.raises(ClassError):
        cf.add(cf.identity(), cf.exp_decay())


def test_class_closure_of_uncovered_pairs():
    """Two constants add to a nonincreasing function, an L and an increasing
    function do not combine, and a min against a bounded K loses Kinf."""
    assert cf.add(cf.constant(1.0), cf.constant(2.0)).fn_class == "decreasing"
    with pytest.raises(ClassError, match="cannot add classes L and increasing"):
        cf.add(cf.exp_decay(), cf.sat())
    k_bounded = cf.pwl([0.0, 1.0], [0.0, 1.0], fn_class="K")
    assert cf.fmin(cf.identity(), k_bounded).fn_class == "K"


def test_max_monotone_on_grid():
    """Grid-sweep oracle: max of two increasing functions stays increasing."""
    f = cf.fmax(cf.identity(), cf.pwl([0.0, 1.0, 3.0], [0.0, 2.0, 2.5], fn_class="increasing"))
    grid = np.linspace(0.0, 5.0, 300)
    vals = f(grid)
    assert np.all(np.diff(vals) >= 0.0)


def test_scale_ops():
    f = cf.combine("scale-arg", cf.power(2), 3.0)
    assert f(2.0) == 36.0
    g = cf.combine("scale-val", cf.power(2), 3.0)
    assert g(2.0) == 12.0


# ---------------------------------------------------------------------------
# declared-class enforcement
# ---------------------------------------------------------------------------

def test_class_check_rejects_nonincreasing_table_as_k():
    with pytest.raises((ClassError, DomainError)):
        cf.pwl([0.0, 1.0, 2.0], [0.0, 2.0, 1.0], fn_class="K")


def test_class_check_rejects_offset_as_k():
    with pytest.raises(ClassError):
        cf.check_class(cf.ScalarFn("constant", "K", param=1.0))


def test_k_declarations_strictly_increase_on_fine_grid():
    grid = np.concatenate(([0.0], np.logspace(-6, 6, 1000)))
    for fn in [
        cf.identity(),
        cf.power(2),
        cf.scale(0.25),
        cf.add(cf.sat(), cf.scale(cf.EPS_SLOPE)),
        cf.compose(cf.power(2), cf.scale(2)),
    ]:
        vals = fn(grid)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0.0), fn.kind


def test_l_class_decreasing_limit_zero():
    f = cf.exp_decay()
    grid = np.linspace(0, 60, 500)
    vals = f(grid)
    assert np.all(np.diff(vals) <= 0)
    assert f(1e3) <= 1e-12


def test_l_declarations_are_checked():
    with pytest.raises(ClassError, match="increasing somewhere"):
        cf.declare(cf.identity(), "L")
    with pytest.raises(ClassError, match="tail value 1 does not vanish"):
        cf.declare(cf.constant(1.0), "L")
    assert cf.declare(cf.compose(cf.exp_decay(), cf.scale(2.0)), "L").fn_class == "L"


def test_compose_with_an_inner_l_or_constant_function():
    """K after L is L; an increasing function that is not K after L, and
    anything after a constant, has no class the closure rules know."""
    f = cf.compose(cf.scale(2.0), cf.exp_decay())
    assert f.fn_class == "L"
    assert f(0.0) == 2.0
    with pytest.raises(ClassError, match="cannot compose increasing with inner L"):
        cf.compose(cf.sat(), cf.exp_decay())
    with pytest.raises(ClassError, match="inner class constant"):
        cf.compose(cf.scale(2.0), cf.constant(1.0))


# ---------------------------------------------------------------------------
# piecewise-exponential KL builder
# ---------------------------------------------------------------------------

def _pw_exp_oracle(taus, eps0_val, n, frac):
    """Direct formula evaluation for a point inside segment n."""
    t = taus[n] + frac * (taus[n + 1] - taus[n])
    return math.exp(-(n - 1) - frac) * eps0_val, t


def test_piecewise_kl_knot_values():
    taus = (0.0, 1.0, 3.0, 6.0)
    beta = cf.build_piecewise_kl(cf.KnotSequence(taus, cf.identity()))
    r = 2.0
    for n, tau in enumerate(taus[:-1]):
        assert beta(r, tau) == pytest.approx(math.exp(-(n - 1)) * r, rel=1e-12)


def test_piecewise_kl_at_origin():
    beta = cf.build_piecewise_kl(cf.KnotSequence((0.0, 2.0), cf.identity()))
    assert beta(1.5, 0.0) == pytest.approx(math.e * 1.5, rel=1e-12)


def test_piecewise_kl_continuity_at_knots():
    taus = (0.0, 0.7, 1.9, 4.0)
    beta = cf.build_piecewise_kl(cf.KnotSequence(taus, cf.power(2)))
    for tau in taus[1:]:
        left = beta(3.0, np.nextafter(tau, -np.inf))
        right = beta(3.0, tau)
        assert abs(left - right) <= 1e-12 * max(1.0, right)


def test_piecewise_kl_dominates_level_sequence():
    taus = (0.0, 1.0, 2.5, 5.0)
    beta = cf.build_piecewise_kl(cf.KnotSequence(taus, cf.identity()))
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = rng.integers(0, len(taus) - 1)
        frac = rng.uniform(0, 1)
        t = taus[n] + frac * (taus[n + 1] - taus[n])
        assert beta(1.0, t) >= math.exp(-(n + 1) + 1) * 1.0 - 1e-12


def test_piecewise_kl_tail_keeps_last_rate():
    taus = (0.0, 1.0, 2.0)
    beta = cf.build_piecewise_kl(cf.KnotSequence(taus, cf.identity()))
    # beyond the last knot the same unit-width rate continues
    assert beta(1.0, 3.0) == pytest.approx(beta(1.0, 2.0) / math.e, rel=1e-12)
    assert beta(1.0, 10.0) < 1e-3


def test_piecewise_kl_marginal_checks_dense_grid():
    taus = (0.0, 0.5, 1.5, 3.0, 7.0)
    beta = cf.build_piecewise_kl(cf.KnotSequence(taus, cf.identity()))
    r_grid = np.concatenate(([0.0], np.logspace(-3, 2, 100)))
    t_grid = np.linspace(0.0, 30.0, 100)
    assert cf.check_kl(beta, r_grid, t_grid) == []


_TAIL = "t-marginal tail does not vanish"
_R_UP = "r-marginal not strictly increasing at some t"


@pytest.mark.parametrize("beta, problems", [
    (cf.kl_separable(cf.identity(), cf.constant(1)), [_TAIL]),
    (cf.kl_separable(cf.sat(), cf.exp_decay()), [_R_UP]),
    (cf.kl_separable(cf.add(cf.identity(), cf.constant(1)), cf.exp_decay()),
     ["r-marginal does not vanish at r = 0"]),
    (cf.kl_separable(cf.identity(), cf.identity()),
     [_R_UP, "t-marginal increasing at some r", _TAIL]),
], ids=["no-decay", "saturated", "offset", "growing"])
def test_check_kl_names_each_failed_marginal(beta, problems):
    """Each marginal check that fails is named once, in check order, and a
    certificate built on that beta is refused with the same names."""
    from ioslab.errors import CertificateError
    from ioslab.properties import Certificate, PropertyId

    assert cf.check_kl(beta) == problems
    with pytest.raises(CertificateError) as info:
        Certificate(PropertyId.IOS, {"beta": beta, "gamma": cf.identity()})
    assert str(info.value).endswith("fails KL checks: " + "; ".join(problems))


def test_knot_sequence_rejects_nonincreasing():
    with pytest.raises(DomainError):
        cf.KnotSequence((0.0, 1.0, 1.0), cf.identity())
    with pytest.raises(DomainError):
        cf.KnotSequence((0.5, 1.0), cf.identity())


# ---------------------------------------------------------------------------
# kl_eval forms
# ---------------------------------------------------------------------------

def test_kl_eval_closed_form():
    beta = cf.kl_exp()
    assert beta(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)


def test_kl_eval_min_form():
    # min{(1+e^-t) sigma(r), beta(r+c, t)} with sigma = id, beta = r e^-t, c = 1
    sigma = cf.identity()
    candidate = cf.kl_min(
        cf.kl_separable(sigma, cf.add(cf.constant(1.0), cf.exp_decay())),
        cf.kl_inner(cf.kl_exp(), cf.add(cf.identity(), cf.constant(1.0))),
    )
    # direct formula oracle at r=2, t=0: min{2*2, 3*1} = 3
    assert candidate(2.0, 0.0) == pytest.approx(3.0, rel=1e-12)


def test_kl_separable_zero_at_origin():
    beta = cf.kl_separable(cf.power(2), cf.exp_decay())
    for t in [0.0, 1.0, 17.3]:
        assert beta(0.0, t) == 0.0


def test_kl_algebra_nodes():
    beta = cf.kl_exp()
    assert cf.kl_time_scale(beta, 0.5)(1.0, 2.0) == pytest.approx(math.exp(-1.0))
    assert cf.kl_outer(cf.scale(2), beta)(1.0, 0.0) == pytest.approx(2.0)
    assert cf.kl_inner(beta, cf.scale(2))(1.0, 0.0) == pytest.approx(2.0)
    assert cf.kl_sum(beta, beta)(1.0, 0.0) == pytest.approx(2.0)
    assert cf.kl_max(beta, cf.kl_separable(cf.scale(3), cf.exp_decay()))(1.0, 0.0) == 3.0


def test_grid_piecewise_kl_snaps_radius_up():
    rows = ((0.0, 1.0), (0.0, 2.0))
    beta = cf.grid_piecewise_kl((1.0, 2.0), rows, cf.identity())
    # r = 1.5 uses the second row (knots 0, 2): slower decay than row one
    assert beta(1.5, 1.0) > cf.build_piecewise_kl(cf.KnotSequence((0.0, 1.0), cf.identity()))(1.5, 1.0) - 1e-12
    with pytest.raises(TableGapError):
        beta(5.0, 0.0)


# ---------------------------------------------------------------------------
# monotone envelope fitting
# ---------------------------------------------------------------------------

def _pool_oracle(samples):
    """Running-max upper envelope at the sample abscissae."""
    srt = sorted(samples)
    out, run = [], -math.inf
    for r, v in srt:
        run = max(run, v)
        out.append((r, run))
    return out


def test_envelope_already_monotone_is_identityish():
    env = cf.fit_monotone_envelope([(1, 1), (2, 2), (3, 3)], force_zero_at_zero=True)
    for r in [1.0, 2.0, 3.0]:
        assert env(r) == pytest.approx(r, abs=1e-6)


def test_envelope_pools_violator():
    samples = [(1, 2), (2, 1), (3, 3)]
    oracle = _pool_oracle(samples)
    assert oracle == [(1, 2), (2, 2), (3, 3)]
    env = cf.fit_monotone_envelope(samples)
    for r, v in oracle:
        assert env(r) == pytest.approx(v, abs=1e-6)


def test_envelope_dominates_every_sample():
    rng = np.random.default_rng(7)
    samples = [(float(r), float(v)) for r, v in zip(rng.uniform(0, 10, 40), rng.uniform(0, 5, 40))]
    env = cf.fit_monotone_envelope(samples)
    for r, v in samples:
        assert env(r) >= v - 1e-12


def test_envelope_minimal_at_active_samples():
    samples = [(0.5, 1.0), (1.0, 0.2), (2.0, 3.0)]
    env = cf.fit_monotone_envelope(samples)
    # active samples are those achieving the running max
    assert env(0.5) == pytest.approx(1.0, abs=1e-6)
    assert env(2.0) == pytest.approx(3.0, abs=1e-6)


def test_envelope_force_zero_rejects_bad_data():
    with pytest.raises(FitError):
        cf.fit_monotone_envelope([(0.0, 1.0), (1.0, 2.0)], force_zero_at_zero=True)
    with pytest.raises(FitError):
        cf.fit_monotone_envelope([(0.5, -1.0), (1.0, 2.0)], force_zero_at_zero=True)


def test_envelope_forced_zero_is_kinf():
    env = cf.fit_monotone_envelope([(1, 1), (2, 2)], force_zero_at_zero=True)
    assert env.fn_class == "Kinf"
    assert env(0.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 50), st.floats(0, 100)),
        min_size=2,
        max_size=30,
    )
)
def test_envelope_domination_property(samples):
    env = cf.fit_monotone_envelope(samples)
    for r, v in samples:
        assert env(r) >= v - 1e-9
    grid = np.linspace(0, 60, 50)
    vals = env(grid)
    assert np.all(np.diff(vals) > 0.0)


def test_envelope_stays_finite_past_a_subnormal_last_gap():
    """The last knots 5e-324 apart give an overflowing last-segment slope;
    the envelope must stay finite and strictly increasing beyond them."""
    samples = [(0.0, 0.0), (5e-324, 1.0)]
    env = cf.fit_monotone_envelope(samples)
    for r, v in samples:
        assert env(r) >= v
    vals = env(np.linspace(0, 60, 50))
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) > 0.0)


def _pwl_from_tuples(fn, arr):
    """A pwl node read straight from its knot and value tuples."""
    kn, vals = np.asarray(fn.knots), np.asarray(fn.values)
    out = np.interp(arr, kn, vals)
    if kn.size >= 2:
        last_slope = (vals[-1] - vals[-2]) / (kn[-1] - kn[-2])
        above = arr > kn[-1]
        if np.any(above):
            out = np.where(above, vals[-1] + last_slope * (arr - kn[-1]), out)
    return out


def _invert_pwl_from_tuples(fn, v):
    kn, vals = np.asarray(fn.knots), np.asarray(fn.values)
    if v <= vals[-1]:
        return float(np.interp(v, vals, kn))
    last_slope = (vals[-1] - vals[-2]) / (kn[-1] - kn[-2])
    return float(kn[-1] + (v - vals[-1]) / last_slope)


@pytest.mark.parametrize("seed, n", [(seed, n) for seed in range(6) for n in (2, 40, 9000)])
def test_pwl_arrays_read_as_the_knot_tuples(seed, n):
    """Evaluation and inversion of a pwl node, whose arrays are built once,
    are bit-identical to reading its tuples on every call."""
    rng = np.random.default_rng(seed)
    samples = np.column_stack([rng.uniform(0, 50, n), rng.uniform(0, 100, n)])
    table = cf.fit_monotone_envelope(samples).children[0]
    kinf = cf.pwl(np.append(0.0, np.cumsum(rng.exponential(size=n))),
                  np.append(0.0, np.cumsum(rng.exponential(size=n))))
    for fn in (table, kinf):
        top = fn.knots[-1]
        grid = np.concatenate([rng.uniform(0, 1.5 * top, 500), fn.knots, [0.0, 2.0 * top]])
        assert fn(grid).tobytes() == _pwl_from_tuples(fn, grid).tobytes()
        assert fn(float(grid[0])) == float(_pwl_from_tuples(fn, grid[0]))
    levels = np.concatenate([rng.uniform(0, 1.5 * kinf.values[-1], 200),
                             kinf.values[1::max(1, n // 50)]])
    for v in levels:
        assert cf.invert(kinf, float(v)) == _invert_pwl_from_tuples(kinf, float(v))


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "fn",
    [
        cf.identity(),
        cf.power(2.5),
        cf.scale(1.0 / 3.0),
        cf.sat(),
        cf.exp_decay(),
        cf.add(cf.identity(), cf.compose(cf.power(2), cf.scale(0.1))),
        cf.pwl([0.0, 0.1, 7.3], [0.0, 0.2, 11.0]),
    ],
)
def test_scalar_roundtrip_bit_exact(fn):
    text = json.dumps(cf.fn_to_dict(fn), sort_keys=True)
    back = cf.fn_from_dict(json.loads(text))
    assert back == fn
    grid = np.linspace(0, 9, 31)
    assert np.array_equal(fn(grid), back(grid))


def test_kl_roundtrip_bit_exact():
    beta = cf.kl_min(
        cf.kl_exp(),
        cf.build_piecewise_kl(cf.KnotSequence((0.0, 1.3, 2.9), cf.power(2))),
    )
    text = json.dumps(cf.fn_to_dict(beta), sort_keys=True)
    back = cf.fn_from_dict(json.loads(text))
    assert back == beta
    assert back(2.0, 1.7) == beta(2.0, 1.7)


@pytest.mark.parametrize(
    "d,error",
    [
        ({"node": "scalar", "kind": "scale", "class": "Kinf", "param": -1.0}, DomainError),
        ({"node": "scalar", "kind": "constant", "class": "Kinf", "param": 1.0}, ClassError),
        ({"node": "scalar", "kind": "pwl", "class": "K", "knots": [0.0, 1.0],
          "values": [0.0, -1.0]}, DomainError),
        ({"node": "scalar", "kind": "cube", "class": "Kinf"}, DomainError),
        ({"node": "scalar", "kind": "identity", "class": "strong"}, DomainError),
        ({"node": "matrix", "kind": "identity", "class": "Kinf"}, DomainError),
        ({"node": "kl", "kind": "kl_pw_exp", "knots": [0.0, 0.0], "param": math.e,
          "fns": [{"node": "scalar", "kind": "identity", "class": "Kinf"}]}, DomainError),
    ],
)
def test_from_dict_rejects_invalid_nodes(d, error):
    with pytest.raises(error):
        cf.fn_from_dict(d)


def test_from_dict_keeps_a_weaker_stored_class():
    d = cf.fn_to_dict(cf.scale(2.0)) | {"class": "K"}
    back = cf.fn_from_dict(d)
    assert back.fn_class == "K" and back(3.0) == 6.0


# ---------------------------------------------------------------------------
# the one piecewise-exponential node
# ---------------------------------------------------------------------------

def test_grid_profile_reads_its_radius_cell_as_the_table_does():
    """r = 0.1 + 0.2 lies 5.6e-17 above the grid point 0.3: the table's
    ball-axis rule reads the 0.3 cell, and so does a profile over that grid."""
    from ioslab.properties import ConvergenceTimeTable

    r = 0.1 + 0.2
    assert r > 0.3
    table = ConvergenceTimeTable((0.5,), (0.3,), None, np.array([[2.0]]))
    assert table.eval(0.5, r) == 2.0
    beta = cf.grid_piecewise_kl((0.3,), ((0.0, 2.0),), cf.identity())
    one_row = cf.build_piecewise_kl(cf.KnotSequence((0.0, 2.0), cf.identity()))
    for t in (0.0, 1.0, 2.0, 7.5):
        assert beta(r, t) == one_row(r, t)
    with pytest.raises(TableGapError):
        table.eval(0.5, 0.3 + 1e-9)
    with pytest.raises(TableGapError):
        beta(0.3 + 1e-9, 1.0)


def test_one_knot_row_is_the_grid_profile_over_every_radius():
    seq = cf.KnotSequence((0.0, 0.7, 1.9, 4.0), cf.power(2))
    beta = cf.build_piecewise_kl(seq)
    assert beta == cf.grid_piecewise_kl((math.inf,), (seq.taus,), seq.eps0)
    assert beta.kind == "kl_grid_pw_exp" and beta.param == math.e
    r = np.concatenate(([0.0], np.logspace(-3, 6, 40)))[:, None]
    t = np.linspace(0.0, 12.0, 61)[None, :]
    vals = beta(r, t)
    # the closed form on [tau_n, tau_n+1), the last segment's rate beyond
    taus = np.asarray(seq.taus)
    n = np.clip(np.searchsorted(taus, t, side="right") - 1, 0, len(taus) - 2)
    expo = -(n - 1.0) - (t - taus[n]) / (taus[n + 1] - taus[n])
    assert vals.shape == (41, 61) and np.array_equal(vals, math.e ** expo * r ** 2.0)
    back = cf.fn_from_dict(json.loads(json.dumps(cf.fn_to_dict(beta))))
    assert back == beta
    assert np.array_equal(back(r, t), vals)


@pytest.mark.parametrize("param", [2.0, None, "e"])
def test_from_dict_refuses_a_profile_of_another_decay_base(param):
    d = cf.fn_to_dict(cf.grid_piecewise_kl((1.0, 2.0), ((0.0, 1.0), (0.0, 2.0)), cf.identity()))
    assert d["param"] == math.e and cf.fn_from_dict(d) is not None
    d["param"] = param
    with pytest.raises(DomainError, match="base e"):
        cf.fn_from_dict(d)


@pytest.mark.parametrize("r_grid", [(2.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                    (math.inf, 5.0)])
def test_a_profile_refuses_a_grid_that_is_not_nonnegative_and_increasing(r_grid):
    """An unsorted grid misreads its radius cells: over (2, 1) the radius 1.5
    raised "beyond certified grid end 1" although the grid holds 2."""
    rows = ((0.0, 1.0), (0.0, 5.0))
    with pytest.raises(DomainError, match="strictly increasing"):
        cf.grid_piecewise_kl(r_grid, rows, cf.identity())
    d = cf.fn_to_dict(cf.grid_piecewise_kl((1.0, 2.0), rows, cf.identity()))
    d["r_grid"] = list(r_grid)
    with pytest.raises(DomainError, match="strictly increasing"):
        cf.fn_from_dict(d)


def test_a_profile_grid_may_end_at_inf():
    beta = cf.grid_piecewise_kl((0.0, 1.0, math.inf), ((0.0, 1.0),) * 3, cf.identity())
    assert beta(1e9, 0.0) == math.e * 1e9


# ---------------------------------------------------------------------------
# the class-check grid
# ---------------------------------------------------------------------------

def _checked_grids(monkeypatch, beta):
    """The (r, t) grids ``check_kl(beta)`` evaluates beta on."""
    seen, call = [], cf.KLFn.__call__

    def spy(self, r, t):
        seen.append((r, t))
        return call(self, r, t)

    monkeypatch.setattr(cf.KLFn, "__call__", spy)
    cf.check_kl(beta)
    r, t = seen[0]
    return np.asarray(r, dtype=float)[:, 0], np.asarray(t, dtype=float)[0]


def test_an_analytic_tree_is_checked_on_the_fixed_grids(monkeypatch):
    beta = cf.kl_min(cf.kl_exp(), cf.kl_inner(cf.kl_exp(), cf.power(2)))
    r, t = _checked_grids(monkeypatch, beta)
    assert r.tobytes() == np.concatenate(([0.0], np.logspace(-3, 2, 24))).tobytes()
    assert t.tobytes() == np.linspace(0.0, 50.0, 24).tobytes()


def test_a_profile_tree_is_checked_below_its_radius_cap(monkeypatch):
    """The cap of a profile over radii up to 4, read through r -> 2r, is 2."""
    profile = cf.grid_piecewise_kl((1.0, 4.0), ((0.0, 1.0), (0.0, 2.0)), cf.identity())
    beta = cf.kl_min(cf.kl_exp(), cf.kl_inner(profile, cf.scale(2.0)))
    assert cf._kl_radius_cap(beta) == pytest.approx(2.0, rel=1e-12)
    r, _ = _checked_grids(monkeypatch, beta)
    assert r[0] == 0.0 and len(r) == 25
    assert r[-1] == pytest.approx(0.999 * 2.0, rel=1e-12)
    assert r[1] == pytest.approx(0.999 * 2.0 * 1e-5, rel=1e-12)
    assert cf.check_kl(beta) == []


def test_a_profile_capped_below_1e_6_is_checked_below_its_cap(monkeypatch):
    """A cap of 1e-9 gives the grid 0 plus 24 points up to 0.999e-9, and the
    certificate is built instead of raising TableGapError at r = 1e-6."""
    from ioslab.properties import Certificate, PropertyId

    beta = cf.grid_piecewise_kl((1e-9,), ((0.0, 1.0),), cf.identity())
    r, _ = _checked_grids(monkeypatch, beta)
    assert r[0] == 0.0 and len(r) == 25
    assert r[-1] == pytest.approx(0.999e-9, rel=1e-12)
    assert r[1] == pytest.approx(0.999e-14, rel=1e-12)
    monkeypatch.undo()
    assert cf.check_kl(beta) == []
    Certificate(PropertyId.IOS, {"beta": beta, "gamma": cf.identity()})


def test_a_profile_capped_at_zero_is_refused_by_name():
    from ioslab.errors import CertificateError
    from ioslab.properties import Certificate, PropertyId

    beta = cf.grid_piecewise_kl((0.0,), ((0.0, 1.0),), cf.identity())
    with pytest.raises(CertificateError, match="radius cap 0"):
        cf.check_kl(beta)
    with pytest.raises(CertificateError, match="radius cap 0"):
        Certificate(PropertyId.IOS, {"beta": beta, "gamma": cf.identity()})
