"""Certificate transformers: formula examples and verify round-trips."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from ioslab import comparison as cf
from ioslab import constructs as cx
from ioslab.errors import CertificateError, DomainError
from ioslab.properties import (
    Certificate,
    ConvergenceTimeTable,
    DeltaTable,
    ProbeSet,
    PropertyId,
    ReachabilityBound,
    SamplingPlan,
    build_reachability_bound,
    falsify,
    verify,
)
from ioslab.sysdsl import compile_system, parse_system
from ioslab.systems import SimPlan
from ioslab.zoo import get_entry, make_example


# ---------------------------------------------------------------------------
# synthetic tables
# ---------------------------------------------------------------------------

def _mu_table(fn, r_grid=(0.5, 1.0, 2.0), s_grid=(0.0, 0.5, 1.0, 2.0),
              t_grid=(0.5, 1.0, 5.0, 12.0), over_initial_output=False):
    vals = np.array([[[fn(r, s, t) for t in t_grid] for s in s_grid] for r in r_grid])
    return ReachabilityBound(r_grid, s_grid, t_grid, vals, over_initial_output)


def _tau_table(fn, eps_grid, r_grid, s_grid=None, mode="uag"):
    if s_grid is None:
        vals = np.array([[fn(e, r) for r in r_grid] for e in eps_grid])
    else:
        vals = np.array([[[fn(e, r, s) for s in s_grid] for r in r_grid] for e in eps_grid])
    return ConvergenceTimeTable(eps_grid, r_grid, s_grid, vals, mode=mode)


LIN_EPS = (0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
LIN_R = (0.5, 1.0, 2.0, 4.0, 8.0)


def _lin_tau(eps, r, s=None):
    # variation-of-constants oracle: |y| <= e^-t r + |u|, so the eps-ball
    # around gamma(|u|) is entered (and kept) once e^-t r <= eps
    return max(math.log(max(r, 1e-9) / eps), 0.0) + 0.05


# ---------------------------------------------------------------------------
# decompose_bound
# ---------------------------------------------------------------------------

def test_decompose_additive_bound():
    mu = _mu_table(lambda r, s, t: r + s)
    cert, record = cx.decompose_bound(mu)
    sigma1 = cert["sigma1"]
    assert cert["c"] == pytest.approx(1.0, abs=1e-9)  # mu(0,0) reads the first cell
    for r in (1.0, 2.0):
        assert float(sigma1(r)) == pytest.approx(2.0 * r - 1.0, abs=1e-6)
    assert "mu(r, r) - mu(0, 0)" in record.trace


def test_decompose_offset_bound():
    mu = _mu_table(lambda r, s, t: r + s + 1.0, r_grid=(1e-9, 1.0, 2.0))
    cert, _ = cx.decompose_bound(mu)
    assert cert["c"] == pytest.approx(1.0, abs=1e-6)
    assert float(cert["sigma1"](2.0)) == pytest.approx(4.0, abs=1e-5)


def test_decompose_reconstruction_dominates_samples():
    lin = make_example("lin_scalar")
    plan = SamplingPlan(radii=(0.5, 1.0, 2.0), input_norms=(0.5, 1.0),
                        eps_grid=(0.1,), horizon=12.0, sim=SimPlan(12.0, 2e-2),
                        directions=2, seed=41)
    mu = build_reachability_bound(lin, plan)
    cert, _ = cx.decompose_bound(mu)
    verdict = verify(lin, cert, plan)
    assert verdict.certified


# ---------------------------------------------------------------------------
# uniformize_gain
# ---------------------------------------------------------------------------

def test_uniformize_level_and_gain():
    shells = {1: 0.7, 2: 0.75, 3: 0.2}
    cert, record = cx.uniformize_gain(cf.identity(), shells, eps=1.0, r=1.0, s=1.0)
    # smallest k with e^(-k+1) <= 1/2 is k* = 2
    assert "k* = 2" in record.trace
    assert cert["tau_table"].eval(1.0, 1.0, 1.0) == pytest.approx(0.75)
    assert float(cert["gamma"](1.0)) == pytest.approx(math.e)


def test_uniformize_constant_table():
    shells = {k: 0.4 for k in range(1, 10)}
    cert, _ = cx.uniformize_gain(cf.identity(), shells, eps=1.0, r=1.0, s=1.0)
    assert cert["tau_table"].eval(1.0, 1.0, 1.0) == pytest.approx(0.4)


def test_uniformize_missing_levels_rejected():
    with pytest.raises(DomainError):
        cx.uniformize_gain(cf.identity(), {1: 0.7}, eps=0.1, r=1.0, s=1.0)
    with pytest.raises(DomainError):
        cx.uniformize_gain(cf.identity(), {}, eps=1.0, r=1.0, s=1.0)


# ---------------------------------------------------------------------------
# ogulim_from_oulim
# ---------------------------------------------------------------------------

def test_ogulim_substitution_values():
    table = _tau_table(lambda e, r, s: _lin_tau(e, r), (0.1, 0.5), (0.5, 1.0),
                       (0.5, 1.0, 2.0), mode="lim")
    oulim = Certificate(PropertyId.OULIM, {"gamma": cf.identity(), "tau_table": table})
    hbound = Certificate(PropertyId.H_K_BOUNDED,
                         {"sigma1": cf.identity(), "gamma1": cf.identity()})
    cert, _ = cx.ogulim_from_oulim(oulim, hbound)
    # gamma~ = gamma + gamma1 = 2 v
    assert float(cert["gamma"](1.0)) == pytest.approx(2.0)
    # R(1) = gamma^-1(sigma1(1) + 0) = 1, so the cell collapses to s = 1
    assert cert["tau_table"].eval(0.1, 1.0) == pytest.approx(table.eval(0.1, 1.0, 1.0))


# ---------------------------------------------------------------------------
# ougb_from_ouag_bors
# ---------------------------------------------------------------------------

def test_ougb_substitution_constant_tau():
    table = _tau_table(lambda e, r, s: 0.0, (0.5, 1.0), (0.5, 1.0, 2.0), (0.5, 1.0, 2.0))
    ouag = Certificate(PropertyId.OUAG, {"gamma": cf.identity(), "tau_table": table})
    mu = _mu_table(lambda r, s, t: r + s)
    cert, _ = cx.ougb_from_ouag_bors(ouag, mu)
    base = 2.0 * 0.5  # first diagonal cell stands in for mu(0, 0)
    assert cert["c"] == pytest.approx(max(base, 1.0))
    # sigma(2) = mu(2, 2, tau) - base = 4 - 1
    assert float(cert["sigma"](2.0)) == pytest.approx(3.0, abs=1e-5)
    # gamma' = max(gamma, sigma)
    assert float(cert["gamma"](2.0)) >= 3.0 - 1e-6


def test_tau_bar_dominates_nondecreasing_tau():
    table = _tau_table(lambda e, r: math.sqrt(r), (1.0,), (0.25, 0.5, 1.0, 2.0, 4.0))
    for r in (0.25, 0.5, 1.0, 2.0):
        assert cx.tau_bar(table, 1.0, r) >= table.eval(1.0, r) - 1e-12


def test_ougb_missing_cell_rejected():
    table = _tau_table(lambda e, r, s: 100.0, (1.0,), (1.0,), (1.0,))
    ouag = Certificate(PropertyId.OUAG, {"gamma": cf.identity(), "tau_table": table})
    mu = _mu_table(lambda r, s, t: r + s)
    with pytest.raises(DomainError) as err:
        cx.ougb_from_ouag_bors(ouag, mu)
    assert "missing cell" in str(err.value)


# ---------------------------------------------------------------------------
# ocag_from_oguag
# ---------------------------------------------------------------------------

def _lin_oguag():
    table = _tau_table(_lin_tau, LIN_EPS, LIN_R)
    return Certificate(PropertyId.OGUAG,
                       {"gamma": cf.identity(), "tau_table": table, "s_max": 2.0})


def _lin_ougb(c=1.0):
    return Certificate(PropertyId.OUGB,
                       {"sigma": cf.identity(), "gamma": cf.identity(), "c": c})


def test_ocag_knot_values():
    cert, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    beta = cert["beta"]
    # at every knot the profile equals e^-(n-1) eps0(r), eps0(r) = sigma(r) + r
    r = 2.0
    row = beta.knot_rows[beta.r_grid.index(2.0)]
    for n, tau in enumerate(row):
        assert beta(r, tau) == pytest.approx(math.exp(-(n - 1)) * 2.0 * r, rel=1e-9)
    assert row[0] == 0.0  # the t = 0 level is free via the global bound


def test_ocag_constant_zero_table_single_rate():
    table = _tau_table(lambda e, r: 0.0, (0.01, 1.0), (1.0, 2.0))
    oguag = Certificate(PropertyId.OGUAG, {"gamma": cf.identity(), "tau_table": table})
    cert, _ = cx.ocag_from_oguag(oguag, _lin_ougb())
    beta = cert["beta"]
    # all knots collapse onto the rectification gap: a single-rate exponential
    for t in (1.0, 2.5, 4.0):
        assert beta(1.0, t + 1.0) / beta(1.0, t) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_ocag_extrapolation_rejected():
    # eps grid too shallow: the first level already falls below it
    table = _tau_table(_lin_tau, (2.9, 3.0), (1.0,))
    oguag = Certificate(PropertyId.OGUAG, {"gamma": cf.identity(), "tau_table": table})
    cert, _ = cx.ocag_from_oguag(oguag, _lin_ougb(c=0.0))
    # degenerate single-level rows still carry two knots
    assert len(cert["beta"].knot_rows[0]) >= 2


# ---------------------------------------------------------------------------
# iops_from_ocag
# ---------------------------------------------------------------------------

def test_iops_substitution():
    ocag = Certificate(PropertyId.OCAG,
                       {"beta": cf.kl_exp(), "gamma": cf.identity(), "c": 1.0})
    cert, _ = cx.iops_from_ocag(ocag)
    assert cert["c"] == pytest.approx(2.0)  # beta(2c, 0) = 2
    assert cert["beta"](1.0, 0.0) == pytest.approx(2.0)  # beta'(r, t) = beta(2r, t)


def test_iops_zero_offset_degenerates():
    ocag = Certificate(PropertyId.OCAG,
                       {"beta": cf.kl_exp(), "gamma": cf.identity(), "c": 0.0})
    cert, _ = cx.iops_from_ocag(ocag)
    assert cert["c"] == 0.0


# ---------------------------------------------------------------------------
# ougs_from_ougb_ouls
# ---------------------------------------------------------------------------

def test_ougs_merge_continuous_at_split():
    ougb = _lin_ougb(c=1.0)
    ouls = Certificate(PropertyId.OULS,
                       {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 1.0})
    cert, _ = cx.ougs_from_ougb_ouls(ougb, ouls)
    sigma = cert["sigma"]
    assert float(sigma(1.0)) == pytest.approx(2.0, abs=1e-9)
    # dominates both branches
    for s in (0.2, 0.7, 1.0, 3.0, 10.0):
        assert float(sigma(s)) >= s - 1e-12
        if s >= 1.0:
            assert float(sigma(s)) >= s + 1.0 - 1e-12


def test_ougs_merge_zero_offset_degenerates_to_max():
    ougb = _lin_ougb(c=0.0)
    ouls = Certificate(PropertyId.OULS,
                       {"sigma": cf.power(2), "gamma": cf.identity(), "radius": 1.0})
    cert, _ = cx.ougs_from_ougb_ouls(ougb, ouls)
    for s in (0.5, 1.0, 2.0):
        assert float(cert["sigma"](s)) == pytest.approx(max(s, s * s), rel=1e-9)


def test_ougs_merge_of_zero_gains_keeps_the_offset():
    """An input above the local radius meets only the global bound, whose
    offset c must then show in the merged gain even when both gains are zero:
    here x0 = 0.1 under u = 4 climbs to the output cap 1 > sigma(0.1)."""
    sys = compile_system(parse_system(
        "dim_x = 1\ndim_u = 1\ndx0 = -x0 + max(u0 - 1, 0)\ny0 = min(x0, 1)"))
    plan = SamplingPlan(radii=(0.1, 1.0, 5.0), input_norms=(0.5, 1.0, 4.0), eps_grid=(0.1,),
                        horizon=10.0, sim=SimPlan(10.0, 2e-2), directions=2, seed=7)
    ps = ProbeSet(sys, plan)
    ougb = Certificate(PropertyId.OUGB, {"sigma": cf.identity(), "gamma": cf.zero(), "c": 1.0})
    ouls = Certificate(PropertyId.OULS,
                       {"sigma": cf.identity(), "gamma": cf.zero(), "radius": 1.0})
    for cert in (ougb, ouls, cx.ougs_from_ougb_ouls(ougb, ouls)[0]):
        _assert_roundtrip(sys, cert, plan, ps)


# ---------------------------------------------------------------------------
# ios_from_ocag_ougs
# ---------------------------------------------------------------------------

def test_ios_min_form_values():
    ocag = Certificate(PropertyId.OCAG,
                       {"beta": cf.kl_exp(), "gamma": cf.identity(), "c": 1.0})
    ougs = Certificate(PropertyId.OUGS,
                       {"sigma": cf.identity(), "gamma": cf.identity()})
    cert, _ = cx.ios_from_ocag_ougs(ocag, ougs)
    beta = cert["beta"]
    # beta~(r, 0) = min{2 sigma(r), beta(r + c, 0)}
    assert beta(2.0, 0.0) == pytest.approx(min(4.0, 3.0))
    # the decaying arm wins in the long run
    assert beta(1.0, 50.0) <= 2.0 * math.exp(-50.0) + 1e-12
    assert cf.check_kl(beta) == []


# ---------------------------------------------------------------------------
# ios_from_oulim_ol
# ---------------------------------------------------------------------------

def test_ios_from_oulim_ol_symbolic_substitution():
    table = _tau_table(lambda e, r, s: _lin_tau(e, r), LIN_EPS, LIN_R,
                       (0.5, 1.0, 2.0, 4.0, 8.0), mode="lim")
    oulim = Certificate(PropertyId.OULIM, {"gamma": cf.identity(), "tau_table": table})
    ol = Certificate(PropertyId.OL, {"sigma": cf.identity(), "gamma": cf.identity()})
    hbound = Certificate(PropertyId.H_K_BOUNDED,
                         {"sigma1": cf.identity(), "gamma1": cf.identity()})
    cert, record = cx.ios_from_oulim_ol(oulim, ol, hbound)
    gamma = cert["gamma"]
    # eps0(v) = 2v + 2v + v = 5v and gamma~(v) = 2(v + 5v) + v = 13v
    assert float(gamma(1.0)) == pytest.approx(13.0, rel=1e-9)
    assert "sigma(2 .)" in record.trace
    # tau_0 = 0 on every radius row
    inner = cert["beta"].children[0]
    assert all(row[0] == 0.0 for row in inner.knot_rows)


# ---------------------------------------------------------------------------
# ouls_from_ouag_ocep
# ---------------------------------------------------------------------------

def test_ouls_table_substitution():
    tau = _tau_table(lambda e, r, s: 2.0, (0.25, 0.5, 1.0), (1.0, 2.0), (1.0, 2.0))
    ouag = Certificate(PropertyId.OUAG, {"gamma": cf.identity(), "tau_table": tau})
    ocep_small = Certificate(PropertyId.OCEP, {"delta_table": DeltaTable(
        (1.0,), (2.0, 4.0), np.array([[0.3, 0.3]]))})
    cert, _ = cx.ouls_from_ouag_ocep(ouag, ocep_small)
    assert cert["delta_table"].eval(1.0) == pytest.approx(0.3)  # delta branch wins

    ocep_large = Certificate(PropertyId.OCEP, {"delta_table": DeltaTable(
        (1.0,), (2.0, 4.0), np.array([[5.0, 5.0]]))})
    cert2, _ = cx.ouls_from_ouag_ocep(ouag, ocep_large)
    assert cert2["delta_table"].eval(1.0) == pytest.approx(0.5)  # gamma^-1(eps/2)


# ---------------------------------------------------------------------------
# ol_from_ooulim_localol_obors
# ---------------------------------------------------------------------------

def test_ol_construction_r_formula():
    mu = _mu_table(lambda r, s, t: r + s + t, over_initial_output=True)
    # R(r) = mu(r, r, 1) = 2r + 1 on the diagonal
    assert mu.eval(1.0, 1.0, 1.0) == pytest.approx(3.0)
    assert mu.eval(2.0, 2.0, 1.0) == pytest.approx(5.0)


def test_ol_gamma_tilde_formula():
    # gamma~(r) = max{r, 2 gamma(r)} = 2r for gamma = id
    gamma_tilde = cf.fmax(cf.identity(), cf.scale_val(cf.identity(), 2.0))
    assert float(gamma_tilde(1.0)) == 2.0


# ---------------------------------------------------------------------------
# ios_from_iss_kbounded
# ---------------------------------------------------------------------------

def test_ios_from_iss_substitution():
    iss = Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": cf.identity()})
    hb = Certificate(PropertyId.H_K_BOUNDED,
                     {"sigma1": cf.identity(), "gamma1": cf.identity()})
    cert, _ = cx.ios_from_iss_kbounded(iss, hb)
    # beta~ = 2 beta and gamma~ = 2 gamma + gamma1 = 3v
    assert cert["beta"](1.5, 0.0) == pytest.approx(3.0)
    assert float(cert["gamma"](1.0)) == pytest.approx(3.0)


def test_ios_from_iss_zero_gains():
    iss = Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": cf.zero()})
    hb = Certificate(PropertyId.H_K_BOUNDED,
                     {"sigma1": cf.identity(), "gamma1": cf.zero()})
    cert, _ = cx.ios_from_iss_kbounded(iss, hb)
    assert cert["gamma"].is_zero


# ---------------------------------------------------------------------------
# iss_from_ios_ioss
# ---------------------------------------------------------------------------

def test_iss_half_time_split_closed_form():
    ios = Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.identity()})
    ioss = Certificate(PropertyId.IOSS, {"beta": cf.kl_exp(), "gamma1": cf.identity(),
                                         "gamma2": cf.identity()})
    cert, _ = cx.iss_from_ios_ioss(ios, ioss)
    beta = cert["beta"]
    # sigma(s) = s + 2s = 3s, so beta~(s, t) = 6 s e^{-t/2} + 2 s e^{-t/2}
    for s, t in [(1.0, 0.0), (2.0, 1.0), (0.5, 3.0)]:
        assert beta(s, t) == pytest.approx(8.0 * s * math.exp(-t / 2.0), rel=1e-9)
    # gamma~ = beta(2 gamma^, 0) + gamma1 + gamma2(2 gamma) = 6v + v + 2v
    assert float(cert["gamma"](1.0)) == pytest.approx(9.0, rel=1e-9)


def test_iss_zero_gamma_hat_degenerates():
    ios = Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.zero()})
    ioss = Certificate(PropertyId.IOSS, {"beta": cf.kl_exp(), "gamma1": cf.zero(),
                                         "gamma2": cf.identity()})
    cert, _ = cx.iss_from_ios_ioss(ios, ioss)
    assert cert["gamma"].is_zero


def test_kl_at_zero_slices():
    beta = cf.kl_min(cf.kl_exp(), cf.kl_separable(cf.scale(2.0), cf.exp_decay()))
    slice0 = cx.kl_at_zero(beta)
    for r in (0.5, 1.0, 4.0):
        assert float(slice0(r)) == pytest.approx(beta(r, 0.0), rel=1e-12)


# ---------------------------------------------------------------------------
# full round-trip battery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lin():
    return make_example("lin_scalar")


@pytest.fixture(scope="module")
def lin_plan():
    return SamplingPlan(radii=(0.5, 1.0, 2.0), input_norms=(0.5, 1.0),
                        eps_grid=(0.1, 0.5), horizon=12.0,
                        sim=SimPlan(12.0, 2e-2), directions=2, seed=77)


@pytest.fixture(scope="module")
def lin_probes(lin, lin_plan):
    return ProbeSet(lin, lin_plan)


def _assert_roundtrip(sys, cert, plan, ps):
    verdict = verify(sys, cert, plan, probe_set=ps)
    assert verdict.certified, (cert.property, verdict.status, verdict.reason,
                               verdict.min_slack)


def test_roundtrip_decompose_bound(lin, lin_plan, lin_probes):
    mu = build_reachability_bound(lin, lin_plan, probe_set=lin_probes)
    cert, _ = cx.decompose_bound(mu)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_uniformize_gain(lin, lin_plan, lin_probes):
    shells = {k: _lin_tau(0.5, 1.0) for k in range(1, 6)}
    cert, _ = cx.uniformize_gain(cf.identity(), shells, eps=1.0, r=2.0, s=1.0)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ogulim_from_oulim(lin, lin_plan, lin_probes):
    table = _tau_table(lambda e, r, s: _lin_tau(e, r), LIN_EPS, LIN_R,
                       (0.5, 1.0, 2.0, 4.0, 8.0), mode="lim")
    oulim = Certificate(PropertyId.OULIM, {"gamma": cf.identity(), "tau_table": table})
    hbound = Certificate(PropertyId.H_K_BOUNDED,
                         {"sigma1": cf.identity(), "gamma1": cf.zero()})
    _assert_roundtrip(lin, oulim, lin_plan, lin_probes)
    cert, _ = cx.ogulim_from_oulim(oulim, hbound)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ougb_from_ouag_bors(lin, lin_plan, lin_probes):
    table = _tau_table(_lin_tau, LIN_EPS + (1.5,), LIN_R, (0.5, 1.0, 2.0, 4.0, 8.0))
    ouag = Certificate(PropertyId.OUAG, {"gamma": cf.identity(), "tau_table": table})
    _assert_roundtrip(lin, ouag, lin_plan, lin_probes)
    mu = build_reachability_bound(lin, lin_plan, probe_set=lin_probes)
    cert, _ = cx.ougb_from_ouag_bors(ouag, mu)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ocag_from_oguag(lin, lin_plan, lin_probes):
    cert, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_iops_from_ocag(lin, lin_plan, lin_probes):
    ocag, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    cert, _ = cx.iops_from_ocag(ocag)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_iops_from_ocag_skips_probes_past_table_radius(lin):
    # beta'(r, t) = beta(2r, t) is tabulated for 2r <= 8, the default plan reaches r = 10
    plan = get_entry("lin_scalar").default_plan()
    ocag, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    cert, _ = cx.iops_from_ocag(ocag)
    verdict = verify(lin, cert, plan)
    assert verdict.certified, (verdict.status, verdict.reason, verdict.min_slack)
    skipped = [n for n in verdict.notes if "beyond the certified radius" in n]
    assert len(skipped) == 1 and "grid end 8" in skipped[0]
    assert not falsify(lin, cert, 10, plan).falsified


def test_roundtrip_ougs_from_ougb_ouls(lin, lin_plan, lin_probes):
    ouls = Certificate(PropertyId.OULS,
                       {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 1.0})
    cert, _ = cx.ougs_from_ougb_ouls(_lin_ougb(), ouls)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ios_from_ocag_ougs(lin, lin_plan, lin_probes):
    ocag, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    ougs = Certificate(PropertyId.OUGS,
                       {"sigma": cf.identity(), "gamma": cf.identity()})
    cert, _ = cx.ios_from_ocag_ougs(ocag, ougs)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ios_from_oulim_ol(lin, lin_plan, lin_probes):
    table = _tau_table(lambda e, r, s: _lin_tau(e, r), LIN_EPS, LIN_R,
                       (0.5, 1.0, 2.0, 4.0, 8.0), mode="lim")
    oulim = Certificate(PropertyId.OULIM, {"gamma": cf.identity(), "tau_table": table})
    ol = Certificate(PropertyId.OL, {"sigma": cf.identity(), "gamma": cf.identity()})
    hbound = Certificate(PropertyId.H_K_BOUNDED,
                         {"sigma1": cf.identity(), "gamma1": cf.zero()})
    _assert_roundtrip(lin, ol, lin_plan, lin_probes)
    cert, _ = cx.ios_from_oulim_ol(oulim, ol, hbound)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ouls_from_ouag_ocep(lin, lin_plan, lin_probes):
    table = _tau_table(_lin_tau, LIN_EPS, LIN_R, (0.5, 1.0, 2.0))
    ouag = Certificate(PropertyId.OUAG, {"gamma": cf.identity(), "tau_table": table})
    ocep = Certificate(PropertyId.OCEP, {"delta_table": DeltaTable(
        (0.1, 0.5), (6.0, 12.0),
        np.array([[0.05, 0.05], [0.25, 0.25]]))})
    _assert_roundtrip(lin, ocep, lin_plan, lin_probes)
    cert, _ = cx.ouls_from_ouag_ocep(ouag, ocep)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ol_from_ooulim_localol_obors(lin, lin_plan, lin_probes):
    wide_plan = SamplingPlan(radii=(0.5, 1.0, 2.0, 4.0, 8.0), input_norms=(0.5, 1.0),
                             eps_grid=(0.1, 0.5), horizon=12.0,
                             sim=SimPlan(12.0, 2e-2), directions=2, seed=78)
    mu = build_reachability_bound(lin, wide_plan, over_initial_output=True)
    table = _tau_table(lambda e, r: _lin_tau(e, r), LIN_EPS, LIN_R, mode="lim")
    ooulim = Certificate(PropertyId.OOULIM, {"gamma": cf.identity(), "tau_table": table})
    local_ol = Certificate(
        PropertyId.LOCAL_OL,
        {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 1.0},
    )
    _assert_roundtrip(lin, local_ol, lin_plan, lin_probes)
    cert, _ = cx.ol_from_ooulim_localol_obors(ooulim, local_ol, mu)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_roundtrip_ios_from_iss_kbounded_on_sin():
    sin_sys = make_example("sin_output")
    plan = SamplingPlan(radii=(0.5, 1.0, 5.0), input_norms=(), eps_grid=(0.1,),
                        horizon=12.0, sim=SimPlan(12.0, 2e-2), directions=2, seed=79)
    ps = ProbeSet(sin_sys, plan)
    iss = Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": cf.zero()})
    hb = Certificate(PropertyId.H_K_BOUNDED,
                     {"sigma1": cf.identity(), "gamma1": cf.zero()})
    _assert_roundtrip(sin_sys, iss, plan, ps)
    cert, _ = cx.ios_from_iss_kbounded(iss, hb)
    # the pushed-through profile 2 r e^-t still dominates |sin|
    _assert_roundtrip(sin_sys, cert, plan, ps)


def test_roundtrip_iss_from_ios_ioss(lin, lin_plan, lin_probes):
    ios = Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": cf.identity()})
    ioss = Certificate(PropertyId.IOSS, {"beta": cf.kl_exp(), "gamma1": cf.identity(),
                                         "gamma2": cf.identity()})
    _assert_roundtrip(lin, ios, lin_plan, lin_probes)
    _assert_roundtrip(lin, ioss, lin_plan, lin_probes)
    cert, _ = cx.iss_from_ios_ioss(ios, ioss)
    _assert_roundtrip(lin, cert, lin_plan, lin_probes)


def test_constructions_deterministic(lin, lin_plan, lin_probes):
    a1, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    a2, _ = cx.ocag_from_oguag(_lin_oguag(), _lin_ougb())
    assert a1.params["beta"] == a2.params["beta"]
    assert a1.params["gamma"] == a2.params["gamma"]


def test_registry_covers_all_thirteen():
    assert len(cx.CONSTRUCTIONS) == 13
    assert set(cx.CONSTRUCTIONS) == set(cx.IMPLICATIONS) | {"uniformize_gain"}
    assert all(fn.__name__ == name for name, fn in cx.CONSTRUCTIONS.items())


# ---------------------------------------------------------------------------
# input refusals: every argument is checked against its IMPLICATIONS row
# ---------------------------------------------------------------------------

P = PropertyId


def _samples():
    """(argument, the notions it witnesses) for every kind of recipe input."""
    ident = cf.identity()
    lim = _tau_table(lambda e, r, s: 1.0, (0.5,), (1.0,), (1.0,), mode="lim")
    ball = {"radius": 1.0, "horizon": 1.0, "bound": 2.0}
    return [
        (_mu_table(lambda r, s, t: r + s), {P.BORS}),
        (_mu_table(lambda r, s, t: r + s, over_initial_output=True), {P.OBORS}),
        (Certificate(P.BORS, ball), set()),
        (Certificate(P.OBORS, ball), set()),
        (Certificate(P.H_K_BOUNDED, {"sigma1": ident, "gamma1": ident}),
         {P.H_BOUNDED, P.H_K_BOUNDED}),
        (Certificate(P.H_BOUNDED, {"sigma1": ident, "gamma1": ident, "c": 0.0}),
         {P.H_BOUNDED, P.H_K_BOUNDED}),
        (Certificate(P.H_BOUNDED, {"sigma1": ident, "gamma1": ident, "c": 0.5}),
         {P.H_BOUNDED}),
        (Certificate(P.OULIM, {"gamma": ident, "tau_table": lim}), {P.OULIM}),
        (Certificate(P.OOULIM, {"gamma": ident, "tau_table": _tau_table(
            lambda e, r: 1.0, (0.5,), (1.0,), mode="lim")}), {P.OOULIM}),
        (Certificate(P.OUAG, {"gamma": ident, "tau_table": _tau_table(
            lambda e, r, s: 1.0, (0.5,), (1.0,), (1.0,))}), {P.OUAG}),
        (_lin_oguag(), {P.OGUAG}),
        (_lin_ougb(), {P.OUGB}),
        (Certificate(P.OCAG, {"beta": cf.kl_exp(), "gamma": ident, "c": 0.0}), {P.OCAG}),
        (Certificate(P.OULS, {"sigma": ident, "gamma": ident, "radius": 1.0}), {P.OULS}),
        (Certificate(P.OUGS, {"sigma": ident, "gamma": ident}), {P.OUGS}),
        (Certificate(P.OCEP, {"delta_table": DeltaTable((1.0,), (1.0,), np.array([[0.5]]))}),
         {P.OCEP}),
        (Certificate(P.OL, {"sigma": ident, "gamma": ident}), {P.OL}),
        (Certificate(P.LOCAL_OL, {"sigma": ident, "gamma": ident, "radius": 1.0}),
         {P.LOCAL_OL}),
        (Certificate(P.ISS, {"beta": cf.kl_exp(), "gamma": ident}), {P.ISS}),
        (Certificate(P.IOS, {"beta": cf.kl_exp(), "gamma": ident}), {P.IOS}),
        (Certificate(P.IOSS, {"beta": cf.kl_exp(), "gamma1": ident, "gamma2": ident}),
         {P.IOSS}),
        ("mu over 3 radii", set()),
    ]


@pytest.mark.parametrize("name", sorted(cx.IMPLICATIONS))
def test_recipe_refuses_every_argument_outside_its_row(name):
    needs, _ = cx.IMPLICATIONS[name]
    recipe = cx.CONSTRUCTIONS[name]
    roles = list(inspect.signature(recipe).parameters)
    samples = _samples()
    valid = [next(arg for arg, notions in samples if need in notions) for need in needs]
    for i, need in enumerate(needs):
        wrong = [arg for arg, notions in samples if need not in notions]
        assert len(wrong) >= 10
        for arg in wrong:
            args = valid[:i] + [arg] + valid[i + 1:]
            with pytest.raises(CertificateError, match=f"{roles[i]} must witness"):
                recipe(*args)
            with pytest.raises(CertificateError, match=f"{roles[i]} must witness"):
                recipe(**dict(zip(roles, args)))


def _sample(notion):
    return next(arg for arg, notions in _samples() if notions == {notion})


def test_a_bors_certificate_is_not_a_reachability_table():
    ball = {"radius": 10.0, "horizon": 15.0, "bound": 20.0}
    with pytest.raises(CertificateError):
        cx.decompose_bound(Certificate(P.BORS, ball))
    with pytest.raises(CertificateError):
        cx.ougb_from_ouag_bors(_sample(P.OUAG), mu=Certificate(P.BORS, ball))
    with pytest.raises(CertificateError):
        cx.ol_from_ooulim_localol_obors(_sample(P.OOULIM), _sample(P.LOCAL_OL),
                                        Certificate(P.OBORS, ball))


def test_a_non_certificate_is_refused():
    with pytest.raises(CertificateError):
        cx.ocag_from_oguag({"gamma": cf.identity()}, _lin_ougb())
    with pytest.raises(CertificateError):
        cx.iops_from_ocag(ocag="OCAG")


def test_offset_output_map_bound_refused_where_offset_free_is_read():
    ident = cf.identity()
    hb = Certificate(P.H_BOUNDED, {"sigma1": ident, "gamma1": cf.zero(), "c": 0.5})
    table = _tau_table(lambda e, r, s: _lin_tau(e, r) + s, LIN_EPS, LIN_R,
                       (0.5, 1.0, 2.0, 4.0, 8.0, 16.0), mode="lim")
    oulim = Certificate(P.OULIM, {"gamma": ident, "tau_table": table})
    with pytest.raises(CertificateError, match="hbound must witness H_K_BOUNDED"):
        cx.ios_from_oulim_ol(oulim, _sample(P.OL), hb)
    with pytest.raises(CertificateError, match="hbound must witness H_K_BOUNDED"):
        cx.ios_from_iss_kbounded(_sample(P.ISS), hbound=hb)
    cert, _ = cx.ogulim_from_oulim(oulim, hb)
    assert cert.property == P.OGULIM
    # R(1) = gamma^-1(sigma1(1) + c) = 1.5, read on the ball cell s = 2
    assert cert["tau_table"].eval(0.1, 1.0) == pytest.approx(table.eval(0.1, 1.0, 1.5))
    assert table.eval(0.1, 1.0, 1.5) == pytest.approx(_lin_tau(0.1, 1.0) + 2.0)


def test_recipes_indexed_by_state_refuse_a_table_over_initial_output(lin, lin_plan,
                                                                      lin_probes):
    # decompose_bound and ougb_from_ouag_bors read mu at |x0| = r
    mu_y = build_reachability_bound(lin, lin_plan, over_initial_output=True,
                                    probe_set=lin_probes)
    table = _tau_table(_lin_tau, LIN_EPS + (1.5,), LIN_R, (0.5, 1.0, 2.0, 4.0, 8.0))
    ouag = Certificate(P.OUAG, {"gamma": cf.identity(), "tau_table": table})
    with pytest.raises(CertificateError, match="mu must witness BORS"):
        cx.decompose_bound(mu_y)
    with pytest.raises(CertificateError, match="mu must witness BORS"):
        cx.ougb_from_ouag_bors(ouag, mu_y)
    # the same table is what the initial-output recipe reads
    mu_x = build_reachability_bound(lin, lin_plan, probe_set=lin_probes)
    cx.decompose_bound(mu_x)
    cx.ougb_from_ouag_bors(ouag, mu_x)


def test_record_serialisable():
    import json

    cert, record = cx.iops_from_ocag(
        Certificate(PropertyId.OCAG,
                    {"beta": cf.kl_exp(), "gamma": cf.identity(), "c": 0.5})
    )
    d = record.to_dict()
    assert json.loads(json.dumps(d, sort_keys=True))["name"] == "iops_from_ocag"


# every KL node kind, and a separable profile whose time factor is 0 at t = 0
_KL_KINDS = {
    "separable_zero_at_0": cf.kl_separable(cf.identity(), cf.zero()),
    "separable": cf.kl_exp(),
    "pw_exp": cf.build_piecewise_kl(cf.KnotSequence((0.0, 1.0, 3.0), cf.power(2))),
    "grid_pw_exp": cf.grid_piecewise_kl((1.0, 4.0), ((0.0, 1.0), (0.0, 2.0, 3.0)),
                                        cf.identity()),
    "min": cf.kl_min(cf.kl_exp(), cf.kl_separable(cf.power(2), cf.exp_decay())),
    "max": cf.kl_max(cf.kl_exp(), cf.kl_separable(cf.power(2), cf.exp_decay())),
    "sum": cf.kl_sum(cf.kl_exp(), cf.kl_separable(cf.power(2), cf.exp_decay())),
    "outer": cf.kl_outer(cf.scale(3.0), cf.kl_exp()),
    "inner": cf.kl_inner(cf.kl_exp(), cf.power(2)),
    "time_scale": cf.kl_time_scale(cf.kl_exp(), 0.5),
}


@pytest.mark.parametrize("name", list(_KL_KINDS))
def test_kl_at_zero_is_the_profile_at_t_0(name):
    beta = _KL_KINDS[name]
    r = np.linspace(0.0, 4.0, 17)
    assert np.array_equal(cx.kl_at_zero(beta)(r), beta(r, 0.0))


def test_merge_gains_returns_the_other_gain_when_one_is_zero():
    g = cf.scale(2.0)
    assert cx._merge_gains(cf.zero(), g) is g
    assert cx._merge_gains(g, cf.zero()) is g
    assert cx._merge_gains(cf.zero(), cf.zero()).is_zero
