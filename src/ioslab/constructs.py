"""Certificate transformers: the constructive side of the superposition facts.

Each operation takes certificates (or empirical bound tables) that witness
the weaker notions and assembles, by explicit closed-form recipes, a
certificate for the stronger notion.  The recipes mirror the constructive
steps used to prove the corresponding implications:

  decompose_bound        split a two-argument bound mu into sigma1 + gamma1 + c
                         via sigma1(r) = gamma1(r) = mu(r, r) - mu(0, 0)
  uniformize_gain        collapse per-shell convergence times over a geometric
                         input ladder into one time, inflating the gain to
                         gamma(e .)
  ogulim_from_oulim      make the visit time input-independent using an
                         output-map bound: R(r) = gamma^-1(sigma1(r) + c)
  ougb_from_ouag_bors    global output bound from convergence + reachability:
                         sigma~(r) = mu(r, r, tau(r))
  ocag_from_oguag        geometric level sequence eps_n = e^-n (sigma(r) + r)
                         anchored at tabulated times builds the decay profile
  iops_from_ocag         absorb the state offset: beta'(r,t) = beta(2r,t),
                         c~ = beta(2c, 0)
  ougs_from_ougb_ouls    case-split merge of a global bound and a local bound
  ios_from_ocag_ougs     beta~(r,t) = min{(1 + e^-t) sigma(r), beta(r + c, t)}
  ios_from_oulim_ol      visit times pushed forward through the initial-output
                         bound; the decay profile is the level sequence seen
                         through sigma(2 .)
  ouls_from_ouag_ocep    delta~(eps) = min{delta(eps, T), 1, gamma^-1(eps/2)}
                         with T the tabulated time at (eps/2, 1, 1)
  ol_from_ooulim_localol_obors
                         two steps: initial-output-uniform global boundedness
                         from the visit table and the reachability bound, then
                         the case-split merge against the local bound
  ios_from_iss_kbounded  beta~ = sigma1 o (2 beta), gamma~ = sigma1 o (2 gamma)
                         + gamma1
  iss_from_ios_ioss      detectability closes the loop: the half-time split
                         beta~(s,t) = beta(2 sigma(s), t/2) + gamma2(2 beta(s, t/2))

Inputs are never mutated; every output certificate re-runs its class checks
at construction and is meant to be re-verified empirically.  Table-backed
inputs refuse to extrapolate: a query outside the certified region raises
``TableGapError`` naming the offending cell.

A reachability table has no r = 0 row, so mu(0, 0) stands for the cell of
the first positive radius r0 with the input norm snapped down to the largest
tabulated s <= min(r0, s_max) (``_origin_cell``).  The level-sequence
recipes build one knot row per radius and then make the rows monotone
across radii (``_monotone_knot_rows``), so the decay profile increases in r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import comparison as cf
from .comparison import KLFn, ScalarFn
from .errors import CertificateError, DomainError
from .properties import (
    Certificate,
    ConvergenceTimeTable,
    DeltaTable,
    PropertyId,
    ReachabilityBound,
)

__all__ = [
    "ConstructionRecord",
    "decompose_bound",
    "uniformize_gain",
    "ogulim_from_oulim",
    "ougb_from_ouag_bors",
    "ocag_from_oguag",
    "iops_from_ocag",
    "ougs_from_ougb_ouls",
    "ios_from_ocag_ougs",
    "ios_from_oulim_ol",
    "ouls_from_ouag_ocep",
    "ol_from_ooulim_localol_obors",
    "ios_from_iss_kbounded",
    "iss_from_ios_ioss",
    "kl_at_zero",
    "tau_bar",
    "CONSTRUCTIONS",
]


@dataclass(frozen=True)
class ConstructionRecord:
    """Name, inputs, output and a human-readable derivation trace."""

    name: str
    inputs: tuple
    output: Certificate
    trace: str

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "name": self.name,
            "inputs": [c.to_dict() if isinstance(c, Certificate) else str(c)
                       for c in self.inputs],
            "output": self.output.to_dict(),
            "trace": self.trace,
        }


def _expect(cert: Certificate, prop: PropertyId, role: str):
    if cert.property != prop:
        raise CertificateError(f"{role} must be a {prop.value} certificate, "
                               f"got {cert.property.value}")


def _merge_gains(a: ScalarFn, b: ScalarFn) -> ScalarFn:
    """Pointwise max pre-merge for the 'w.l.o.g. the same gain' steps."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a == b:
        return a
    return cf.declare(cf.fmax(a, b), "Kinf")


def kl_at_zero(beta: KLFn) -> ScalarFn:
    """The radial slice beta(., 0) as a scalar function, built structurally."""
    k = beta.kind
    if k == "kl_separable":
        lam0 = float(beta.fns[1](0.0))
        if lam0 == 0.0:
            return cf.zero()
        return cf.scale_val(beta.fns[0], lam0)
    if k in ("kl_pw_exp", "kl_grid_pw_exp"):
        return cf.scale_val(beta.fns[0], beta.param)  # base**(0-(-1)) at t = 0
    if k == "kl_min":
        return cf.fmin(kl_at_zero(beta.children[0]), kl_at_zero(beta.children[1]))
    if k == "kl_max":
        return cf.fmax(kl_at_zero(beta.children[0]), kl_at_zero(beta.children[1]))
    if k == "kl_sum":
        return cf.add(kl_at_zero(beta.children[0]), kl_at_zero(beta.children[1]))
    if k == "kl_outer":
        return cf.compose(beta.fns[0], kl_at_zero(beta.children[0]))
    if k == "kl_inner":
        return cf.compose(kl_at_zero(beta.children[0]), beta.fns[0])
    if k == "kl_time_scale":
        return kl_at_zero(beta.children[0])
    raise DomainError(f"no zero-slice rule for KL node {k!r}")


def tau_bar(table: ConvergenceTimeTable, eps: float, r: float, s: float | None = None) -> float:
    """Integral mean (1/r) int_r^2r tau(q) dq: a continuous majorant of tau.

    For any nondecreasing tau the mean over [r, 2r] dominates tau(r).
    Requires the table to cover radii up to 2r.
    """
    if r <= 0:
        raise DomainError("radius must be positive")
    qs = np.linspace(r, 2.0 * r, 33)
    vals = [table.eval(eps, q, s) for q in qs]
    return float(np.trapezoid(vals, qs) / r)


def _ramp(radius: float) -> ScalarFn:
    """min(s / radius, 1): continuous 0-to-1 switch used by the merges."""
    return cf.compose(cf.sat(), cf.scale(1.0 / radius))


def _case_split_merge(f1: ScalarFn, f2: ScalarFn, c: float, radius: float) -> ScalarFn:
    """Dominating envelope of {max(f1, f2) below radius, f1 + c above}.

    Realised as max(f1, f2) + c * min(s/radius, 1): continuous, matches the
    branch values where they rule (at the split its value is f1(radius) + c,
    so e.g. identity branches with c = 1, radius = 1 meet at 2), and stays
    strictly increasing.  When both operands are zero gains the ramp alone
    would be flat, so a strictness repair slope is added.
    """
    core = cf.fmax(f1, f2)
    if c > 0.0:
        bump = cf.scale_val(_ramp(radius), c)
        core = cf.add(core, bump) if not core.is_zero \
            else cf.add(bump, cf.scale(cf.EPS_SLOPE))
    if core.is_zero:
        return core
    return cf.declare(core, "Kinf")


def _origin_cell(mu: ReachabilityBound) -> tuple[float, float]:
    """The (r, s) cell of ``mu`` that stands for mu(0, 0).

    The table has no r = 0 row, so the first positive radius r0 stands in,
    with the input norm snapped down to the largest tabulated s <=
    min(r0, s_max): the point of the first ball's diagonal the s-grid holds.
    """
    r0 = next((r for r in mu.r_grid if r > 0.0), None)
    if r0 is None:
        raise DomainError("reachability table has no positive radius")
    cap = min(r0, mu.s_grid[-1])
    below = [s for s in mu.s_grid if s <= cap + 1e-12]
    return r0, below[-1] if below else mu.s_grid[0]


def _monotone_knot_rows(rows) -> list[tuple]:
    """Delay knots so that, in radius order, no row decays faster than the last.

    Each row is padded to the previous row's length along its own last
    segment (its profile does not change), raised knot by knot to at least
    the previous row extended past its end at its last segment's width, and
    its last segment is widened to no narrower than the previous row's.
    Knots only move later, so any bound built from the rows stays valid;
    tau_0 = 0 and strict increase are kept.
    """
    out = []
    for row in rows:
        row = list(row)
        if out:
            prev = out[-1]
            width = prev[-1] - prev[-2]
            while len(row) < len(prev):
                row.append(row[-1] + (row[-1] - row[-2]))
            for n in range(1, len(row)):
                floor = prev[n] if n < len(prev) else prev[-1] + (n - len(prev) + 1) * width
                row[n] = max(row[n], floor)
            row[-1] = max(row[-1], row[-2] + width)
        out.append(tuple(row))
    return out


def _level_knot_rows(table: ConvergenceTimeTable, eps0: ScalarFn) -> tuple[list, list]:
    """Radius grid and knot rows of the level sequence eps_n = e^-n eps0(r).

    One row per positive table radius: tau_0 = 0 and tau_n the tabulated
    time at (eps_n, r), read on the diagonal s = r when the table is indexed
    by input norm too, for every level still on the table's eps grid;
    rectified to strictly increasing with gap 1, then made
    monotone across radii by ``_monotone_knot_rows``.
    """
    eps_min = table.eps_grid[0]
    rows, r_grid = [], []
    for r in table.r_grid:
        if r <= 0:
            continue
        knots = [0.0]
        for n in range(1, 61):
            eps_n = math.exp(-n) * float(eps0(r))
            if eps_n < eps_min:
                break
            knots.append(max(table.eval(eps_n, r, r), knots[-1] + 1.0))
        if len(knots) < 2:
            knots.append(1.0)
        rows.append(knots)
        r_grid.append(float(r))
    return r_grid, _monotone_knot_rows(rows)


def _staircase(radii, level) -> ScalarFn:
    """Class Kinf envelope through (0, 0) and (r, level(r)) for each positive
    radius: the values are raised to strictly increasing (steps of at least
    1e-12), interpolated linearly and given a tiny extra slope."""
    knots, values = [0.0], [0.0]
    for r in radii:
        if r <= 0:
            continue
        knots.append(float(r))
        values.append(max(level(r), values[-1] + 1e-12))
    return cf.declare(
        cf.add(cf.pwl(knots, values, fn_class="increasing"), cf.scale(cf.EPS_SLOPE)),
        "Kinf",
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def decompose_bound(mu):
    """Two-argument bound -> (sigma1, gamma1, c) with sigma1 = gamma1.

    ``mu`` is a reachability table; the decomposition reads its diagonal at
    the last tabulated time:
    sigma1(r) = mu(r, r) - mu(0, 0) and c = mu(0, 0), where mu(0, 0) is the
    cell of the first positive radius r0 at the largest tabulated input norm
    s <= min(r0, s_max).
    """
    if not isinstance(mu, ReachabilityBound):
        raise CertificateError("decompose_bound needs a reachability table")
    t = float(mu.t_grid[-1])
    c = mu.eval(*_origin_cell(mu), t)
    sigma1 = _staircase(mu.r_grid, lambda r: mu.eval(r, min(r, mu.s_grid[-1]), t) - c)
    cert = Certificate(PropertyId.H_BOUNDED, {"sigma1": sigma1, "gamma1": sigma1, "c": c})
    record = ConstructionRecord(
        "decompose_bound", (f"mu over {len(mu.r_grid)} radii",), cert,
        f"sigma1(r) = gamma1(r) = mu(r, r) - mu(0, 0); c = mu(0, 0) = {c:.6g} "
        f"(diagonal read at t = {t:g})",
    )
    return cert, record


def uniformize_gain(gamma: ScalarFn, shell_taus: dict, eps: float, r: float, s: float):
    """Collapse per-shell times tau_k (input norms in (e^-k s, e^-k+1 s])
    into a single time valid for the whole ball of radius s.

    k* is the first level whose inflated-gain term already covers eps/2;
    the merged time is the max over levels 1..k*, and the gain becomes
    gamma(e .).  Returns an OUAG certificate with the single merged cell.
    """
    if gamma.fn_class != "Kinf":
        raise CertificateError("uniformization needs an invertible gain")
    if not shell_taus:
        raise DomainError("empty shell table")
    k_star = None
    for k in range(1, 200):
        if float(gamma(math.exp(-k + 1) * s)) <= eps / 2.0:
            k_star = k
            break
    if k_star is None:
        raise DomainError("no level satisfies the half-eps condition")
    missing = [k for k in range(1, k_star + 1) if k not in shell_taus]
    if missing:
        raise DomainError(f"shell table missing levels {missing} up to k* = {k_star}")
    tau = max(shell_taus[k] for k in range(1, k_star + 1))
    gamma_tilde = cf.declare(cf.scale_arg(gamma, math.e), "Kinf")
    table = ConvergenceTimeTable((eps,), (r,), (s,), np.array([[[tau]]]), mode="uag")
    cert = Certificate(PropertyId.OUAG, {"gamma": gamma_tilde, "tau_table": table})
    record = ConstructionRecord(
        "uniformize_gain", (f"{len(shell_taus)} shells",), cert,
        f"k* = {k_star} (first level with gamma(e^(-k+1) s) <= eps/2); "
        f"tau = max over levels 1..k* = {tau:.6g}; gain inflated to gamma(e .)",
    )
    return cert, record


def ogulim_from_oulim(oulim: Certificate, hbound: Certificate):
    """Input-ball-uniform visit times -> input-independent visit times.

    R(r) = gamma^-1(sigma1(r) + c): inputs above R(r) are covered at t = 0 by
    the output-map bound, inputs below by the tabulated cell at s = R(r).
    gamma~ = gamma + gamma1, tau~(eps, r) = tau(eps, r, R(r)).
    """
    _expect(oulim, PropertyId.OULIM, "first input")
    if hbound.property not in (PropertyId.H_BOUNDED, PropertyId.H_K_BOUNDED):
        raise CertificateError("second input must bound the output map")
    gamma = oulim["gamma"]
    if gamma.fn_class != "Kinf":
        raise CertificateError("visit gain must be invertible (class Kinf)")
    table: ConvergenceTimeTable = oulim["tau_table"]
    if table.s_grid is None:
        raise CertificateError("visit table must be indexed by (eps, r, s)")
    sigma1 = hbound["sigma1"]
    gamma1 = hbound["gamma1"]
    c = hbound.get("c", 0.0)
    vals = np.empty((len(table.eps_grid), len(table.r_grid)))
    for i, eps in enumerate(table.eps_grid):
        for j, r in enumerate(table.r_grid):
            big_r = cf.invert(gamma, float(sigma1(r)) + c)
            vals[i, j] = table.eval(eps, r, big_r)
    gamma_tilde = cf.declare(cf.add(gamma, gamma1), "Kinf")
    out_table = ConvergenceTimeTable(table.eps_grid, table.r_grid, None, vals, mode="lim")
    cert = Certificate(PropertyId.OGULIM, {"gamma": gamma_tilde, "tau_table": out_table})
    record = ConstructionRecord(
        "ogulim_from_oulim", (oulim, hbound), cert,
        "R(r) = gamma^-1(sigma1(r) + c); tau~(eps, r) = tau(eps, r, R(r)); "
        "gamma~ = gamma + gamma1",
    )
    return cert, record


def ougb_from_ouag_bors(ouag: Certificate, mu: ReachabilityBound):
    """Convergence times + reachability table -> global output bound.

    With tau(r) the tabulated time at (1, r, r): sigma~(r) = mu(r, r, tau(r)),
    sigma(s) = sigma~(s) - sigma~(0), c = max(sigma~(0), 1) and
    gamma' = max(gamma, sigma).  sigma~(0) is read from the cell that stands
    for mu(0, 0): the first positive radius r0 at the largest tabulated input
    norm s <= min(r0, s_max), at time tau(r0).
    """
    _expect(ouag, PropertyId.OUAG, "first input")
    table: ConvergenceTimeTable = ouag["tau_table"]
    gamma = ouag["gamma"]

    def tau_of(r: float) -> float:
        s = min(r, table.s_grid[-1]) if table.s_grid is not None else None
        return table.eval(1.0, r, s)

    r0, s0 = _origin_cell(mu)
    sigma0 = mu.eval(r0, s0, min(tau_of(r0), mu.t_grid[-1]))

    def level(r: float) -> float:
        tau_r = tau_of(r)
        if tau_r > mu.t_grid[-1] + 1e-12:
            raise DomainError(
                f"reachability table missing cell (r={r:g}, r, tau={tau_r:g}): "
                f"time grid ends at {mu.t_grid[-1]:g}"
            )
        return mu.eval(r, min(r, mu.s_grid[-1]), tau_r) - sigma0

    sigma = _staircase(mu.r_grid, level)
    c = max(sigma0, 1.0)
    gamma_prime = _merge_gains(gamma, sigma)
    cert = Certificate(PropertyId.OUGB, {"sigma": sigma, "gamma": gamma_prime, "c": c})
    record = ConstructionRecord(
        "ougb_from_ouag_bors", (ouag, f"mu over {len(mu.r_grid)} radii"), cert,
        "sigma~(r) = mu(r, r, tau(1, r, r)); sigma = sigma~ - sigma~(0); "
        f"c = max(sigma~(0), 1) = {c:.6g}; gamma' = max(gamma, sigma)",
    )
    return cert, record


def ocag_from_oguag(oguag: Certificate, ougb: Certificate):
    """Input-global convergence + global bound -> complete decay certificate.

    Level sequence eps_0(r) = sigma(r) + r, eps_n = e^-n eps_0; the knots are
    the tabulated times at (eps_n(r), r) with tau_0 = 0 (the t = 0 level is
    covered by the global bound), rectified to strictly increasing with gap
    1.  The knot rows are then made monotone across radii: knots
    are only delayed until no row decays faster than the row of a smaller
    radius, so beta increases in r.  The offset folds into the radius
    argument: the claim is |y| <= beta(|x| + c, t) + gamma(|u|).
    """
    _expect(oguag, PropertyId.OGUAG, "first input")
    _expect(ougb, PropertyId.OUGB, "second input")
    table: ConvergenceTimeTable = oguag["tau_table"]
    sigma = ougb["sigma"]
    c = ougb["c"]
    gamma = _merge_gains(oguag["gamma"], ougb["gamma"])
    eps0 = cf.declare(cf.add(sigma, cf.identity()), "Kinf")
    r_grid, rows = _level_knot_rows(table, eps0)
    if not rows:
        raise DomainError("convergence table has no usable radius rows")
    beta = cf.grid_piecewise_kl(r_grid, rows, eps0)
    cert = Certificate(PropertyId.OCAG, {"beta": beta, "gamma": gamma, "c": c})
    record = ConstructionRecord(
        "ocag_from_oguag", (oguag, ougb), cert,
        "eps_0(r) = sigma(r) + r; eps_n = e^-n eps_0; tau_0 = 0, "
        "tau_n = tau(eps_n(r), r); beta piecewise-exponential on the knots, "
        f"evaluated at |x| + c with c = {c:.6g}",
    )
    return cert, record


def iops_from_ocag(ocag: Certificate):
    """Split the offset out of the decay argument: beta(r + c, t) <=
    beta(2r, t) + beta(2c, 0)."""
    _expect(ocag, PropertyId.OCAG, "input")
    beta = ocag["beta"]
    c = ocag["c"]
    beta_prime = cf.kl_inner(beta, cf.scale(2.0))
    c_tilde = float(beta(2.0 * c, 0.0)) if c > 0 else 0.0
    cert = Certificate(
        PropertyId.IOPS, {"beta": beta_prime, "gamma": ocag["gamma"], "c": c_tilde}
    )
    record = ConstructionRecord(
        "iops_from_ocag", (ocag,), cert,
        f"beta'(r, t) = beta(2r, t); c~ = beta(2c, 0) = {c_tilde:.6g}",
    )
    return cert, record


def ougs_from_ougb_ouls(ougb: Certificate, ouls: Certificate):
    """Case-split merge: the local bound rules inside its ball, the global
    bound plus its offset rules outside; the envelope stays continuous."""
    _expect(ougb, PropertyId.OUGB, "first input")
    _expect(ouls, PropertyId.OULS, "second input")
    if "delta_table" in ouls.params:
        raise CertificateError("merge needs the function form of the local bound")
    radius = ouls["radius"]
    c = ougb["c"]
    sigma = _case_split_merge(ougb["sigma"], ouls["sigma"], c, radius)
    gamma = _case_split_merge(ougb["gamma"], ouls["gamma"], c, radius) \
        if not (ougb["gamma"].is_zero and ouls["gamma"].is_zero) else cf.zero()
    cert = Certificate(PropertyId.OUGS, {"sigma": sigma, "gamma": gamma})
    record = ConstructionRecord(
        "ougs_from_ougb_ouls", (ougb, ouls), cert,
        f"sigma(s) = max(sigma1(s) + c min(s/{radius:g}, 1), sigma2(s)), "
        "same shape for gamma",
    )
    return cert, record


def ios_from_ocag_ougs(ocag: Certificate, ougs: Certificate):
    """beta~(r, t) = min{(1 + e^-t) sigma(r), beta(r + c, t)}."""
    _expect(ocag, PropertyId.OCAG, "first input")
    _expect(ougs, PropertyId.OUGS, "second input")
    gamma = _merge_gains(ocag["gamma"], ougs["gamma"])
    c = ocag["c"]
    shifted = ocag["beta"] if c == 0.0 else cf.kl_inner(
        ocag["beta"], cf.add(cf.identity(), cf.constant(c))
    )
    beta = cf.kl_min(
        cf.kl_separable(ougs["sigma"], cf.add(cf.constant(1.0), cf.exp_decay())),
        shifted,
    )
    cert = Certificate(PropertyId.IOS, {"beta": beta, "gamma": gamma})
    record = ConstructionRecord(
        "ios_from_ocag_ougs", (ocag, ougs), cert,
        "beta~(r, t) = min{(1 + e^-t) sigma(r), beta(r + c, t)} with shared gain",
    )
    return cert, record


def ios_from_oulim_ol(oulim: Certificate, ol: Certificate, hbound: Certificate):
    """Visit times + initial-output bound + output-map bound -> decay.

    The level sequence starts at eps_0 = sigma o 2 sigma1 + sigma o 2 gamma1
    + gamma; each level's visit is pushed forward in time by the
    initial-output bound, so the decay envelope is the level staircase seen
    through sigma(2 .), with gain gamma~ = sigma o (2 (gamma + eps_0)) + gamma.
    The knots are the visit times at (eps_n(r), r, r) with tau_0 = 0, and the
    knot rows are made monotone across radii as in ``ocag_from_oguag``.
    """
    _expect(oulim, PropertyId.OULIM, "first input")
    _expect(ol, PropertyId.OL, "second input")
    if hbound.property not in (PropertyId.H_BOUNDED, PropertyId.H_K_BOUNDED):
        raise CertificateError("third input must bound the output map")
    if hbound.get("c", 0.0) != 0.0:
        raise CertificateError("the output-map bound must be offset-free here")
    table: ConvergenceTimeTable = oulim["tau_table"]
    if table.s_grid is None:
        raise CertificateError("visit table must be indexed by (eps, r, s)")
    sigma = ol["sigma"]
    gamma = _merge_gains(oulim["gamma"], ol["gamma"])
    sigma1 = hbound["sigma1"]
    gamma1 = hbound["gamma1"]
    two = cf.scale(2.0)
    parts = cf.compose(sigma, cf.compose(two, sigma1))
    if not gamma1.is_zero:
        parts = cf.add(parts, cf.compose(sigma, cf.compose(two, gamma1)))
    eps0 = cf.declare(cf.add(parts, gamma), "Kinf")
    sigma_tilde = cf.scale_arg(sigma, 2.0)
    gamma_inner = cf.add(gamma, eps0)
    gamma_tilde = cf.declare(cf.add(cf.compose(sigma, cf.compose(two, gamma_inner)), gamma),
                             "Kinf")
    r_grid, rows = _level_knot_rows(table, eps0)
    if not rows:
        raise DomainError("visit table has no usable radius rows")
    beta = cf.kl_outer(sigma_tilde, cf.grid_piecewise_kl(r_grid, rows, eps0))
    cert = Certificate(PropertyId.IOS, {"beta": beta, "gamma": gamma_tilde})
    record = ConstructionRecord(
        "ios_from_oulim_ol", (oulim, ol, hbound), cert,
        "eps_0 = sigma o 2 sigma1 + sigma o 2 gamma1 + gamma; "
        "sigma~ = sigma(2 .); gamma~ = sigma o (2 (gamma + eps_0)) + gamma; "
        "beta = sigma~ o piecewise-exponential(eps_0, tau_n = tau(eps_n(r), r, r))",
    )
    return cert, record


def ouls_from_ouag_ocep(ouag: Certificate, ocep: Certificate):
    """delta~(eps) = min{delta(eps, T), 1, gamma^-1(eps/2)} with
    T = tau(eps/2, 1, 1)."""
    _expect(ouag, PropertyId.OUAG, "first input")
    _expect(ocep, PropertyId.OCEP, "second input")
    gamma = ouag["gamma"]
    if gamma.fn_class != "Kinf":
        raise CertificateError("convergence gain must be invertible")
    table: ConvergenceTimeTable = ouag["tau_table"]
    delta_table: DeltaTable = ocep["delta_table"]
    eps_grid, deltas = [], []
    for eps in delta_table.eps_grid:
        big_t = table.eval(eps / 2.0, 1.0, 1.0)
        delta = delta_table.eval(eps, big_t)
        eps_grid.append(eps)
        deltas.append(min(delta, 1.0, cf.invert(gamma, eps / 2.0)))
    out = DeltaTable(tuple(eps_grid), None, np.array(deltas))
    cert = Certificate(PropertyId.OULS, {"delta_table": out})
    record = ConstructionRecord(
        "ouls_from_ouag_ocep", (ouag, ocep), cert,
        "delta~(eps) = min{delta(eps, T), 1, gamma^-1(eps/2)}, T = tau(eps/2, 1, 1)",
    )
    return cert, record


def ol_from_ooulim_localol_obors(ooulim: Certificate, local_ol: Certificate,
                                 mu: ReachabilityBound):
    """Initial-output visit times + local bound + output reachability -> OL.

    Step 1 builds the initial-output-uniform global bound: R(r) = mu(r, r, 1),
    gamma~(r) = max{r, 2 gamma(r)}, sigma~(r) = mu(R(r), gamma~^-1(r), tau(r))
    with tau(r) the tabulated visit time at level r/2 over the R(r) shell;
    then sigma = sigma~ - sigma~(0) and the bound reads
    |y| <= sigma(|y(0)|) + (sigma o gamma~)(|u|) + sigma~(0).
    Step 2 merges it with the local bound by the initial-output case split.
    """
    _expect(ooulim, PropertyId.OOULIM, "first input")
    _expect(local_ol, PropertyId.LOCAL_OL, "second input")
    if not mu.over_initial_output:
        raise CertificateError("reachability table must be over initial-output shells")
    table: ConvergenceTimeTable = ooulim["tau_table"]
    gamma = ooulim["gamma"]
    gamma_tilde = cf.declare(cf.fmax(cf.identity(), cf.scale_val(gamma, 2.0)), "Kinf") \
        if not gamma.is_zero else cf.identity()

    def sigma_tilde_at(r: float) -> float:
        big_r = mu.eval(r, min(r, mu.s_grid[-1]), 1.0)
        tau_r = table.eval(r / 2.0, big_r)
        u_ball = cf.invert(gamma_tilde, r)
        if tau_r > mu.t_grid[-1] + 1e-12:
            raise DomainError(
                f"reachability table missing cell (R({r:g}), ., tau={tau_r:g})"
            )
        return mu.eval(big_r, min(u_ball, mu.s_grid[-1]), tau_r)

    base = sigma_tilde_at(mu.r_grid[0] if mu.r_grid[0] > 0 else mu.r_grid[1])
    sigma = _staircase(mu.r_grid, lambda r: sigma_tilde_at(r) - base)
    gamma_oougb = cf.declare(cf.compose(sigma, gamma_tilde), "Kinf")
    oougb = Certificate(PropertyId.OOUGB,
                        {"sigma": sigma, "gamma": gamma_oougb, "c": base})
    radius = local_ol["radius"]
    sigma_final = _case_split_merge(sigma, local_ol["sigma"], base, radius)
    g2 = local_ol["gamma"]
    gamma_final = _case_split_merge(gamma_oougb, g2, base, radius) \
        if not (gamma_oougb.is_zero and g2.is_zero) else gamma_oougb
    cert = Certificate(PropertyId.OL, {"sigma": sigma_final, "gamma": gamma_final})
    record = ConstructionRecord(
        "ol_from_ooulim_localol_obors", (ooulim, local_ol, "mu over initial output"),
        cert,
        "R(r) = mu(r, r, 1); gamma~(r) = max{r, 2 gamma(r)}; "
        "sigma~(r) = mu(R(r), gamma~^-1(r), tau(r/2, R(r))); "
        f"offset sigma~(0) = {base:.6g}; merged with the local bound by the "
        "initial-output case split; intermediate bound: "
        f"{oougb.property.value}",
    )
    return cert, record


def ios_from_iss_kbounded(iss: Certificate, hbound: Certificate):
    """beta~ = sigma1 o (2 beta); gamma~ = sigma1 o (2 gamma) + gamma1."""
    _expect(iss, PropertyId.ISS, "first input")
    if hbound.property not in (PropertyId.H_BOUNDED, PropertyId.H_K_BOUNDED):
        raise CertificateError("second input must bound the output map")
    if hbound.get("c", 0.0) != 0.0:
        raise CertificateError("the output-map bound must be offset-free here")
    sigma1 = hbound["sigma1"]
    gamma1 = hbound["gamma1"]
    two = cf.scale(2.0)
    beta = cf.kl_outer(cf.compose(sigma1, two), iss["beta"])
    gamma = iss["gamma"]
    g = cf.compose(sigma1, cf.compose(two, gamma)) if not gamma.is_zero else cf.zero()
    g = cf.add(g, gamma1)
    g = g if g.is_zero else cf.declare(g, "Kinf")
    cert = Certificate(PropertyId.IOS, {"beta": beta, "gamma": g})
    record = ConstructionRecord(
        "ios_from_iss_kbounded", (iss, hbound), cert,
        "beta~ = sigma1 o (2 beta); gamma~ = sigma1 o (2 gamma) + gamma1",
    )
    return cert, record


def iss_from_ios_ioss(ios: Certificate, ioss: Certificate):
    """Close the loop through detectability with the half-time split.

    sigma = beta(., 0) + gamma2(2 beta(., 0)); gamma^ = gamma1 + gamma2 o
    (2 gamma); beta~(s, t) = beta(2 sigma(s), t/2) + gamma2(2 beta(s, t/2));
    gamma~ = beta(2 gamma^, 0) + gamma1 + gamma2 o (2 gamma).
    """
    _expect(ios, PropertyId.IOS, "first input")
    _expect(ioss, PropertyId.IOSS, "second input")
    beta = cf.kl_max(ios["beta"], ioss["beta"])  # w.l.o.g. a shared profile
    gamma = ios["gamma"]
    gamma1 = ioss["gamma1"]
    gamma2 = ioss["gamma2"]
    two = cf.scale(2.0)
    beta0 = kl_at_zero(beta)
    sigma = cf.add(beta0, cf.compose(gamma2, cf.scale_val(beta0, 2.0)))
    g2_2g = cf.compose(gamma2, cf.compose(two, gamma)) if not gamma.is_zero else cf.zero()
    gamma_hat = cf.add(gamma1, g2_2g)
    half = cf.kl_time_scale(beta, 0.5)
    beta_tilde = cf.kl_sum(
        cf.kl_inner(half, cf.scale_val(sigma, 2.0)),
        cf.kl_outer(cf.compose(gamma2, two), half),
    )
    head = cf.compose(beta0, cf.scale_val(gamma_hat, 2.0)) if not gamma_hat.is_zero \
        else cf.zero()
    gamma_tilde = cf.add(cf.add(head, gamma1), g2_2g)
    if not gamma_tilde.is_zero:
        gamma_tilde = cf.declare(gamma_tilde, "Kinf")
    cert = Certificate(PropertyId.ISS, {"beta": beta_tilde, "gamma": gamma_tilde})
    record = ConstructionRecord(
        "iss_from_ios_ioss", (ios, ioss), cert,
        "sigma = beta(., 0) + gamma2(2 beta(., 0)); gamma^ = gamma1 + "
        "gamma2 o (2 gamma); beta~(s, t) = beta(2 sigma(s), t/2) + "
        "gamma2(2 beta(s, t/2)); gamma~ = beta(2 gamma^, 0) + gamma1 + "
        "gamma2 o (2 gamma)",
    )
    return cert, record


CONSTRUCTIONS = {
    "decompose_bound": decompose_bound,
    "uniformize_gain": uniformize_gain,
    "ogulim_from_oulim": ogulim_from_oulim,
    "ougb_from_ouag_bors": ougb_from_ouag_bors,
    "ocag_from_oguag": ocag_from_oguag,
    "iops_from_ocag": iops_from_ocag,
    "ougs_from_ougb_ouls": ougs_from_ougb_ouls,
    "ios_from_ocag_ougs": ios_from_ocag_ougs,
    "ios_from_oulim_ol": ios_from_oulim_ol,
    "ouls_from_ouag_ocep": ouls_from_ouag_ocep,
    "ol_from_ooulim_localol_obors": ol_from_ooulim_localol_obors,
    "ios_from_iss_kbounded": ios_from_iss_kbounded,
    "iss_from_ios_ioss": iss_from_ios_ioss,
}
