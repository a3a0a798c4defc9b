"""Golden zoo matrix: the end-to-end outcomes of the lab, pinned.

One record per outcome, on each zoo entry's default plan and one shared
``ProbeSet`` per entry:

  verify:<zoo>:<P>     every "holds" analytic certificate's verdict
  estimate:<zoo>:<P>   every estimable property's estimate_gain -> verify
  bound:<zoo>:<axis>   build_reachability_bound over |x0| ("state") and
                       over |y(0)| ("output") shells
  replay:<zoo>:<P>     the witness recipes that carry a concrete x0,
                       replayed: sup of the observed norm up to t
  recipe:<name>        every construction recipe on hand-written lin_scalar
                       inputs, verified on lin_scalar's plan

A record holds the status, the sample count and the slack rounded to 1e-9,
plus a 16-hex sha256 of the rounded certificate, table or record dict.

Regenerate with ``python tests/test_golden_zoo.py``: it rewrites
``golden_zoo.json`` and prints every record that moved.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package of this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from ioslab import comparison as cf
from ioslab import zoo
from ioslab.constructs import CONSTRUCTIONS, IMPLICATIONS
from ioslab.properties import (
    Certificate,
    ConvergenceTimeTable,
    DeltaTable,
    ProbeSet,
    PropertyId,
    build_reachability_bound,
    estimate_gain,
    verify,
)
from ioslab.systems import SimPlan, simulate

GOLDEN = Path(__file__).with_name("golden_zoo.json")


def _rounded(value):
    """Floats rounded to 1e-9 (non-finite ones as strings), recursively."""
    if isinstance(value, float):
        return round(float(value), 9) if math.isfinite(value) else str(float(value))
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def _digest(payload) -> str:
    text = json.dumps(_rounded(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record(status, samples, slack, payload) -> dict:
    return {"status": status, "samples": samples, "slack": _rounded(slack),
            "digest": _digest(payload)}


def _verified(sys, cert, plan, ps) -> dict:
    v = verify(sys, cert, plan, probe_set=ps)
    return _record(v.status, v.samples, v.min_slack,
                   {"certificate": cert.to_dict(), "verdict": v.to_dict()})


def _failed(exc) -> dict:
    return _record(type(exc).__name__, None, None, {"error": str(exc)})


# ---------------------------------------------------------------------------
# hand-written lin_scalar inputs for the construction recipes
# ---------------------------------------------------------------------------

EPS = (0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
RADII = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
INPUTS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def _lin_tau(eps, r):
    """Closed-form convergence time of dx = -x + u: e^-t r <= eps."""
    return max(math.log(max(r, 1e-9) / eps), 0.0) + 0.05


def _tau_table(eps_grid, r_grid, s_grid=None, mode="uag"):
    if s_grid is None:
        vals = np.array([[_lin_tau(e, r) for r in r_grid] for e in eps_grid])
    else:
        vals = np.array([[[_lin_tau(e, r) for _ in s_grid] for r in r_grid]
                         for e in eps_grid])
    return ConvergenceTimeTable(eps_grid, r_grid, s_grid, vals, mode=mode)


def _recipe_chains(mu, mu_y) -> dict:
    """recipe name -> [(recipe, args, kwargs), ...]; a chain feeds each
    output certificate forward as the next recipe's first argument."""
    ident = cf.identity()
    ougb = Certificate(PropertyId.OUGB, {"sigma": ident, "gamma": ident, "c": 1.0})
    ouls = Certificate(PropertyId.OULS, {"sigma": ident, "gamma": ident, "radius": 1.0})
    ougs = Certificate(PropertyId.OUGS, {"sigma": ident, "gamma": ident})
    oguag = Certificate(PropertyId.OGUAG, {"gamma": ident, "tau_table": _tau_table(
        EPS, RADII), "s_max": 2.0})
    ouag = Certificate(PropertyId.OUAG, {"gamma": ident, "tau_table": _tau_table(
        EPS + (1.5,), RADII, INPUTS)})
    oulim = Certificate(PropertyId.OULIM, {"gamma": ident, "tau_table": _tau_table(
        EPS, RADII, INPUTS, mode="lim")})
    ooulim = Certificate(PropertyId.OOULIM, {"gamma": ident, "tau_table": _tau_table(
        EPS, RADII, mode="lim")})
    ocep = Certificate(PropertyId.OCEP, {"delta_table": DeltaTable(
        (0.1, 0.5), (6.0, 12.0), np.array([[0.05, 0.05], [0.25, 0.25]]))})
    hbound = Certificate(PropertyId.H_K_BOUNDED, {"sigma1": ident, "gamma1": cf.zero()})
    local_ol = Certificate(PropertyId.LOCAL_OL, {"sigma": ident, "gamma": ident,
                                                 "radius": 1.0})
    ol = Certificate(PropertyId.OL, {"sigma": ident, "gamma": ident})
    iss = Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": ident})
    ios = Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": ident})
    ioss = Certificate(PropertyId.IOSS, {"beta": cf.kl_exp(), "gamma1": ident,
                                         "gamma2": ident})
    shells = {k: _lin_tau(0.5, 1.0) for k in range(1, 6)}
    ocag = ("ocag_from_oguag", (oguag, ougb), {})
    return {
        "decompose_bound": [("decompose_bound", (mu,), {})],
        "uniformize_gain": [("uniformize_gain", (ident, shells),
                             {"eps": 1.0, "r": 2.0, "s": 1.0})],
        "ogulim_from_oulim": [("ogulim_from_oulim", (oulim, hbound), {})],
        "ougb_from_ouag_bors": [("ougb_from_ouag_bors", (ouag, mu), {})],
        "ocag_from_oguag": [ocag],
        "iops_from_ocag": [ocag, ("iops_from_ocag", (), {})],
        "ougs_from_ougb_ouls": [("ougs_from_ougb_ouls", (ougb, ouls), {})],
        "ios_from_ocag_ougs": [ocag, ("ios_from_ocag_ougs", (ougs,), {})],
        "ios_from_oulim_ol": [("ios_from_oulim_ol", (oulim, ol, hbound), {})],
        "ouls_from_ouag_ocep": [("ouls_from_ouag_ocep", (ouag, ocep), {})],
        "ol_from_ooulim_localol_obors": [("ol_from_ooulim_localol_obors",
                                          (ooulim, local_ol, mu_y), {})],
        "ios_from_iss_kbounded": [("ios_from_iss_kbounded", (iss, hbound), {})],
        "iss_from_ios_ioss": [("iss_from_ios_ioss", (ios, ioss), {})],
    }


def _chain_steps(chain):
    """(recipe, certificate, record) per step of a recipe chain."""
    cert = None
    for recipe, args, kwargs in chain:
        if cert is not None:
            args = (cert,) + args
        cert, record = CONSTRUCTIONS[recipe](*args, **kwargs)
        yield recipe, cert, record


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------

def _replay(sys, w, step: float, state: bool) -> dict:
    """Sup of |y| (|x| when ``state``) over [0, t] from the recipe's x0."""
    traj = simulate(sys, np.asarray(w.x0, dtype=float), w.signal(sys.input_dim),
                    SimPlan(w.t, step))
    norms = (np.asarray(sys.state_norm(traj.states), dtype=float) if state
             else traj.output_norms())
    observed = float(np.max(norms))
    status = "replayed" if observed >= w.output_floor else "short"
    return _record(status, len(norms), observed - w.output_floor,
                   {"observed": observed, "floor": w.output_floor})


def build_matrix() -> tuple[dict, list]:
    """(records by key, every certificate the matrix verified)."""
    records: dict = {}
    certs: list = []
    for zid in zoo.zoo_ids():
        entry = zoo.get_entry(zid)
        sys = entry.factory()
        plan = entry.default_plan()
        ps = ProbeSet(sys, plan)
        for prop, cert in entry.certificates().items():
            if entry.expected.get(prop) == "holds":
                records[f"verify:{zid}:{prop.value}"] = _verified(sys, cert, plan, ps)
                certs.append(cert)
        for prop in entry.estimable:
            key = f"estimate:{zid}:{prop.value}"
            try:
                cert = estimate_gain(sys, prop, plan, probe_set=ps)
            except Exception as exc:  # a refusal is an outcome to pin too
                records[key] = _failed(exc)
                continue
            records[key] = _verified(sys, cert, plan, ps)
            certs.append(cert)
        for axis, by_output in (("state", False), ("output", True)):
            mu = build_reachability_bound(sys, plan, over_initial_output=by_output,
                                          probe_set=ps)
            records[f"bound:{zid}:{axis}"] = _record("built", int(mu.values.size), None,
                                                     mu.to_dict())
        for prop, w in entry.witnesses.items():
            if w.x0:
                state = prop in (PropertyId.ISS, PropertyId.IOSS)
                records[f"replay:{zid}:{prop.value}"] = _replay(sys, w, plan.sim.step,
                                                                state)

    sys = zoo.make_example("lin_scalar")
    plan = zoo.get_entry("lin_scalar").default_plan()
    ps = ProbeSet(sys, plan)
    mu = build_reachability_bound(sys, plan, probe_set=ps)
    mu_y = build_reachability_bound(sys, plan, over_initial_output=True, probe_set=ps)
    for name, chain in _recipe_chains(mu, mu_y).items():
        key = f"recipe:{name}"
        try:
            *_, (_, cert, record) = _chain_steps(chain)
        except Exception as exc:
            records[key] = _failed(exc)
            continue
        v = verify(sys, cert, plan, probe_set=ps)
        records[key] = _record(v.status, v.samples, v.min_slack,
                               {"record": record.to_dict(), "verdict": v.to_dict()})
        certs.append(cert)
    return records, certs


def _moved(old: dict, new: dict) -> list[str]:
    """One line per key whose record differs: old -> new status, slack, digest."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a != b:
            show = (lambda r: "absent" if r is None else
                    f"{r['status']} slack={r['slack']} digest={r['digest']}")
            lines.append(f"{key}: {show(a)} -> {show(b)}")
    return lines


def _dump(records: dict) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def matrix():
    return build_matrix()


def test_golden_zoo_matrix_is_unchanged(matrix):
    records, _ = matrix
    golden = json.loads(GOLDEN.read_text())
    moved = _moved(golden, records)
    assert not moved, "golden records moved:\n" + "\n".join(moved)


def test_recipe_chains_conclude_their_rows():
    sys = zoo.make_example("lin_scalar")
    plan = zoo.get_entry("lin_scalar").default_plan()
    ps = ProbeSet(sys, plan)
    mu = build_reachability_bound(sys, plan, probe_set=ps)
    mu_y = build_reachability_bound(sys, plan, over_initial_output=True, probe_set=ps)
    concluded = set()
    for chain in _recipe_chains(mu, mu_y).values():
        for recipe, cert, _ in _chain_steps(chain):
            if recipe in IMPLICATIONS:
                assert cert.property == IMPLICATIONS[recipe][1], recipe
                concluded.add(recipe)
    assert concluded == set(IMPLICATIONS)


def test_golden_certificates_round_trip(matrix):
    _, certs = matrix
    assert len(certs) > 50
    for cert in certs:
        assert Certificate.from_dict(json.loads(json.dumps(cert.to_dict()))) == cert


def _cap_grids(beta):
    """The class-check grid rule written out: r up to 100, or up to 0.999
    times a table-backed tree's radius cap, and t up to 50."""
    cap = cf._kl_radius_cap(beta)
    top = 100.0 if math.isinf(cap) else max(cap * 0.999, 1e-6)
    r_grid = np.concatenate(([0.0], np.geomspace(max(top * 1e-5, 1e-6), top, 24)))
    return r_grid, np.linspace(0.0, 50.0, 24)


def test_golden_certificates_are_checked_on_their_cap_grids(matrix, monkeypatch):
    _, certs = matrix
    betas = [v for cert in certs for v in cert.params.values() if isinstance(v, cf.KLFn)]
    assert any(math.isfinite(cf._kl_radius_cap(beta)) for beta in betas)
    seen, call = [], cf.KLFn.__call__

    def spy(self, r, t):
        seen.append((np.asarray(r, dtype=float), np.asarray(t, dtype=float)))
        return call(self, r, t)

    monkeypatch.setattr(cf.KLFn, "__call__", spy)
    for beta in betas:
        r_grid, t_grid = _cap_grids(beta)
        seen.clear()
        problems = cf.check_kl(beta)
        r, t = seen[0]  # the first call samples the whole (r, t) grid
        assert r[:, 0].tobytes() == r_grid.tobytes() and t[0].tobytes() == t_grid.tobytes()
        assert problems == cf.check_kl(beta, r_grid, t_grid)


if __name__ == "__main__":
    records, _ = build_matrix()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    GOLDEN.write_text(_dump(records))
    moved = _moved(old, records)
    print("\n".join(moved) if moved else "no record moved")
    print(f"{len(records)} records written to {GOLDEN}")
