"""The benchmark's three workloads: inputs, op lists and expected outcomes.

Each workload builds everything it needs in ``__init__`` (the set-up that
``setup_s`` times) and then runs complete passes through ``run_pass``.  An
op is one public ``ioslab`` call (or a short chain of them) with an expected
outcome; ``Pass.op`` times it and records whether the outcome was met.

Why these three (see README.md for the layer table):
  zoo_sweep       the zoo conformance matrix, cold: every pass builds fresh
                  probe sets, so it is dominated by ``systems.simulate`` and
                  by probe reuse inside one probe set.
  falsify_search  witness search: simulations run one at a time or in small
                  refinement rounds and mostly miss the probe cache.
  warm_recheck    checkers, comparison functions and construction recipes on
                  a probe cache filled during set-up: no simulation at all.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from ioslab import comparison as cf
from ioslab import properties, zoo
from ioslab.constructs import CONSTRUCTIONS
from ioslab.properties import (
    Certificate,
    ConvergenceTimeTable,
    DeltaTable,
    ProbeSet,
    PropertyId,
    SamplingPlan,
    build_reachability_bound,
    estimate_gain,
    falsify,
    verify,
)
from ioslab.signals import InputSignal
from ioslab.sysdsl import compile_system, parse_system
from ioslab.systems import SimPlan

# Misses the code is known to produce when this benchmark was written, with
# the error each one raises.  They still count against pass_ratio; only a
# miss that is not listed here (or fails differently) makes a run incorrect.
KNOWN_DEFECTS = {
    "recipe:ocag_from_oguag": "CertificateError",
    "recipe:iops_from_ocag": "CertificateError",
    "recipe:ios_from_ocag_ougs": "CertificateError",
}


def _seeded(plan: SamplingPlan, seed: int) -> SamplingPlan:
    """Offset the plan's seed (directions and pw inputs); seed 0 keeps the zoo's."""
    return replace(plan, seed=plan.seed + seed)


def _verdict(v, expected: str):
    return v.status, v.min_slack, v.status == expected, None


class Pass:
    """One pass over a workload's ops: latencies, outcomes and the digest."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.records: list = []  # [op, status, slack] in op order
        self.latencies: list = []
        self.misses: list = []
        self.unexpected: list = []
        self.margins: list = []
        self.wall = 0.0

    def call(self, span: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(span, fn, *args, **kwargs)

    def count(self, key: str, n: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(key, n)

    def counted(self, key: str) -> float:
        return self.tracer.counts.get(key, 0) if self.tracer is not None else 0

    def peak(self, key: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] = max(self.tracer.counts.get(key, value), value)

    def op(self, name: str, body, *args) -> None:
        """Run body(*args) -> (status, slack, ok, witness margin) as one op."""
        t0 = time.perf_counter()
        try:
            status, slack, ok, margin = body(*args)
        except Exception as exc:  # op boundary: record the failure, keep going
            status, slack, ok, margin = type(exc).__name__, None, False, None
        self.latencies.append(time.perf_counter() - t0)
        self.records.append([name, status, _rounded(slack)])
        if margin is not None:
            self.margins.append(margin)
        if not ok:
            self.misses.append(name)
            if KNOWN_DEFECTS.get(name) != status:
                self.unexpected.append(f"{name}: {status}")


def _rounded(x):
    if x is None:
        return None
    x = float(x)
    return round(x, 9) if math.isfinite(x) else str(x)


# ---------------------------------------------------------------------------
# zoo_sweep
# ---------------------------------------------------------------------------

ROTATION_DSL = """
dim_x = 2
dim_u = 0
dx0 = -x1
dx1 = x0
y0 = x0
"""

LIN_SCALAR_DSL = """
dim_x = 1
dim_u = 1
dx0 = -x0 + u0
y0 = x0
"""


def _sup_observed(sys, x0, u: InputSignal, t: float, step: float, state: bool) -> float:
    """Largest output (or state) norm on [0, t], replayed from (x0, u)."""
    traj = properties.simulate(sys, np.asarray(x0, dtype=float), u, SimPlan(t, step))
    if state:
        return max(float(sys.state_norm(x)) for x in traj.states)
    return float(np.max(traj.output_norms()))


def _witness_replays(entry, sys, plan):
    """Concrete (system, x0, u, t, step, floor) for each of the entry's recipes.

    Recipes of the sequence systems leave x0 blank; they are built here from
    the zoo's seed helpers at a step fine enough for the stiff transient.
    """
    out = []
    for prop, w in entry.witnesses.items():
        state = prop in (PropertyId.ISS, PropertyId.IOSS)
        if w.x0:
            out.append((prop, sys, w.x0, w.signal(sys.input_dim), w.t, plan.sim.step,
                        w.output_floor, state))
        elif entry.id == "l2_blowup":
            wide = zoo.make_example("l2_blowup", n=64)
            out.append((prop, wide, zoo.blowup_seed_state(64, 51), InputSignal.zero(0),
                        w.t, 2e-4, w.output_floor, state))
        elif prop == PropertyId.BORS:  # l2_timewarp, undilated seed
            out.append((prop, sys, zoo.blowup_seed_state(16, 8), InputSignal.zero(1),
                        w.t, 1e-3, w.output_floor, state))
        else:  # l2_timewarp OGUAG: dilate the level-7 excursion out to tau = 20
            x0 = zoo.blowup_seed_state(16, 7)
            plain = zoo.make_example("l2_blowup", n=16)
            traj = properties.simulate(plain, x0, InputSignal.zero(0), SimPlan(1.0, 1e-3))
            tau_j = float(traj.times[int(np.argmax(traj.output_norms()))])
            level = zoo.timewarp_defeat_input(20.0, tau_j)
            out.append((prop, sys, x0, InputSignal.constant([level]), 20.0, 2e-2,
                        w.output_floor, state))
    return out


def traced_step_sources(tracer):
    """(system, [(input, trajectory)], steps simulated) per traced system."""
    return [(sys, pairs, tracer.counts.get(f"steps_of.{key}", 0))
            for key, (sys, pairs) in tracer.trajectories.items()]


class ZooSweep:
    """Cold conformance pass over every zoo entry plus two descriptor twins."""

    name = "zoo_sweep"
    step_sources = staticmethod(traced_step_sources)

    def __init__(self, seed: int):
        self.entries = []
        for zid in zoo.zoo_ids():
            entry = zoo.get_entry(zid)
            sys = entry.factory()
            plan = _seeded(entry.default_plan(), seed)
            holds = [(p, c) for p, c in entry.certificates().items()
                     if entry.expected.get(p) == "holds"]
            self.entries.append((zid, sys, plan, holds, entry.estimable,
                                 _witness_replays(entry, sys, plan)))
        by_id = {e[0]: e for e in self.entries}
        self.compile_s = []
        self.twins = []  # (zid, native system, descriptor system)
        for zid, text in (("rotation", ROTATION_DSL), ("lin_scalar", LIN_SCALAR_DSL)):
            doc = parse_system(text, name=f"{zid}_dsl")
            t0 = time.perf_counter()
            twin = compile_system(doc)
            self.compile_s.append(time.perf_counter() - t0)
            self.twins.append((zid, by_id[zid][1], twin))

    def run_pass(self, p: Pass) -> None:
        native = {}
        for zid, sys, plan, holds, estimable, replays in self.entries:
            ps = ProbeSet(sys, plan)
            for prop, cert in holds:
                p.op(f"verify:{zid}:{prop.value}", self._verify, p, sys, cert, plan, ps,
                     native, zid)
            for prop in estimable:
                p.op(f"estimate:{zid}:{prop.value}", self._estimate, p, sys, prop, plan, ps)
            for prop, rsys, x0, u, t, step, floor, state in replays:
                p.op(f"replay:{zid}:{prop.value}", self._replay, p, rsys, x0, u, t, step,
                     floor, state)
        by_id = {e[0]: e for e in self.entries}
        for zid, _, twin in self.twins:
            _, _, plan, holds, _, _ = by_id[zid]
            ps = ProbeSet(twin, plan)
            for prop, cert in holds:
                p.op(f"twin:{zid}:{prop.value}", self._twin, p, twin, cert, plan, ps,
                     native.get((zid, prop)))

    @staticmethod
    def _verify(p, sys, cert, plan, ps, native, zid):
        v = p.call("properties.verify", verify, sys, cert, plan, probe_set=ps)
        p.count("verify.samples", v.samples)
        native[(zid, cert.property)] = v.status
        return _verdict(v, "certified")

    @staticmethod
    def _estimate(p, sys, prop, plan, ps):
        cert = p.call("properties.estimate", estimate_gain, sys, prop, plan, probe_set=ps)
        v = p.call("properties.verify", verify, sys, cert, plan, probe_set=ps)
        p.count("verify.samples", v.samples)
        return _verdict(v, "certified")

    @staticmethod
    def _replay(p, sys, x0, u, t, step, floor, state):
        observed = p.call("properties.witness.replay", _sup_observed, sys, x0, u, t, step,
                          state)
        return "replayed", observed - floor, observed >= floor, (observed - floor) / floor

    @staticmethod
    def _twin(p, twin, cert, plan, ps, native_status):
        v = p.call("properties.verify", verify, twin, cert, plan, probe_set=ps)
        p.count("verify.samples", v.samples)
        return v.status, v.min_slack, v.status == native_status, None


# ---------------------------------------------------------------------------
# falsify_search
# ---------------------------------------------------------------------------

def _falsify_cases(seed: int):
    """(name, system, certificate, budget, plan) for each falsification case."""

    def default(zid):
        entry = zoo.get_entry(zid)
        return entry.factory(), _seeded(entry.default_plan(), seed)

    sin, sin_plan = default("sin_output")
    rot, rot_plan = default("rotation")
    sat, sat_plan = default("sat_polar")
    ol_id = {"sigma": cf.identity(), "gamma": cf.zero()}
    ios_exp = {"beta": cf.kl_exp(), "gamma": cf.zero()}
    radius = zoo.blowup_ball_radius()
    blowup_plan = SamplingPlan(radii=(1.0, 3.0, 6.0, radius), input_norms=(),
                               eps_grid=(0.1,), horizon=1.0, sim=SimPlan(1.0, 2e-3),
                               directions=3, seed=104 + seed)
    return [
        ("sin_output:OL", sin, Certificate(PropertyId.OL, ol_id), 40, sin_plan),
        ("rotation:IOS", rot, Certificate(PropertyId.IOS, ios_exp), 40, rot_plan),
        ("sat_polar:OL", sat, Certificate(PropertyId.OL, ol_id), 40, sat_plan),
        ("l2_blowup16:BORS", zoo.make_example("l2_blowup", n=16),
         Certificate(PropertyId.BORS, {"radius": radius, "horizon": 1.0, "bound": 10.0}),
         40, blowup_plan),
        # budget below the plan's 9 probes: keeps the budget overrun visible
        ("rotation:IOS:budget6", rot, Certificate(PropertyId.IOS, ios_exp), 6, rot_plan),
    ]


class FalsifySearch:
    """Witness search against certificates the zoo's witnesses refute."""

    name = "falsify_search"
    step_sources = staticmethod(traced_step_sources)

    def __init__(self, seed: int):
        self.cases = _falsify_cases(seed)

    def run_pass(self, p: Pass) -> None:
        for name, sys, cert, budget, plan in self.cases:
            p.op(f"falsify:{name}", self._falsify, p, sys, cert, budget, plan)

    @staticmethod
    def _falsify(p, sys, cert, budget, plan):
        before = p.counted("falsify.sims")
        v = p.call("properties.falsify", falsify, sys, cert, budget, plan)
        p.peak("falsify.sims_per_budget", (p.counted("falsify.sims") - before) / budget)
        p.count("falsify.samples", v.samples)
        if not v.falsified:
            return v.status, v.min_slack, False, None
        w = v.witness
        observed = p.call("properties.witness.replay", w.replay, sys, plan.sim)
        return v.status, v.min_slack, observed > w.bound, (observed - w.bound) / w.bound


# ---------------------------------------------------------------------------
# warm_recheck
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


class _CountedRhs:
    """Pass-through right-hand side that counts evaluations (simulations)."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.calls = 0

    def __call__(self, x, u):
        self.calls += 1
        return self.rhs(x, u)


class WarmRecheck:
    """Checkers, comparison functions and recipes on a warm lin_scalar cache."""

    name = "warm_recheck"

    def __init__(self, seed: int):
        native = zoo.make_example("lin_scalar")
        self.native = native
        self.rhs = _CountedRhs(native.rhs)
        self.sys = sys = replace(native, rhs=self.rhs)
        self.plan = plan = _seeded(zoo.get_entry("lin_scalar").default_plan(), seed)
        self.ps = ProbeSet(sys, plan)
        self.certs = list(zoo.get_entry("lin_scalar").certificates().items())

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
        local_ol = Certificate(PropertyId.LOCAL_OL,
                               {"sigma": ident, "gamma": ident, "radius": 1.0})
        ol = Certificate(PropertyId.OL, {"sigma": ident, "gamma": ident})
        iss = Certificate(PropertyId.ISS, {"beta": cf.kl_exp(), "gamma": ident})
        ios = Certificate(PropertyId.IOS, {"beta": cf.kl_exp(), "gamma": ident})
        ioss = Certificate(PropertyId.IOSS, {"beta": cf.kl_exp(), "gamma1": ident,
                                             "gamma2": ident})
        mu = build_reachability_bound(sys, plan, probe_set=self.ps)
        mu_y = build_reachability_bound(sys, plan, over_initial_output=True, probe_set=self.ps)
        shells = {k: _lin_tau(0.5, 1.0) for k in range(1, 6)}
        # (op, [(recipe, args, kwargs), ...]); a chain feeds each output forward
        self.recipes = [
            ("decompose_bound", [("decompose_bound", (mu,), {})]),
            ("uniformize_gain", [("uniformize_gain", (ident, shells),
                                  {"eps": 1.0, "r": 2.0, "s": 1.0})]),
            ("ogulim_from_oulim", [("ogulim_from_oulim", (oulim, hbound), {})]),
            ("ougb_from_ouag_bors", [("ougb_from_ouag_bors", (ouag, mu), {})]),
            ("ocag_from_oguag", [("ocag_from_oguag", (oguag, ougb), {})]),
            ("iops_from_ocag", [("ocag_from_oguag", (oguag, ougb), {}),
                                ("iops_from_ocag", (), {})]),
            ("ougs_from_ougb_ouls", [("ougs_from_ougb_ouls", (ougb, ouls), {})]),
            ("ios_from_ocag_ougs", [("ocag_from_oguag", (oguag, ougb), {}),
                                    ("ios_from_ocag_ougs", (ougs,), {})]),
            ("ios_from_oulim_ol", [("ios_from_oulim_ol", (oulim, ol, hbound), {})]),
            ("ouls_from_ouag_ocep", [("ouls_from_ouag_ocep", (ouag, ocep), {})]),
            ("ol_from_ooulim_localol_obors", [("ol_from_ooulim_localol_obors",
                                               (ooulim, local_ol, mu_y), {})]),
            ("ios_from_iss_kbounded", [("ios_from_iss_kbounded", (iss, hbound), {})]),
            ("iss_from_ios_ioss", [("iss_from_ios_ioss", (ios, ioss), {})]),
        ]
        # certificates lin_scalar violates: the refutations give this
        # workload its witness margins without simulating
        self.refutations = [
            ("IOS:gamma=0", Certificate(PropertyId.IOS, {"beta": cf.kl_exp(),
                                                         "gamma": cf.zero()})),
            ("OUGS:sigma=r/2", Certificate(PropertyId.OUGS, {"sigma": cf.scale(0.5),
                                                             "gamma": ident})),
            ("BORS:bound=5", Certificate(PropertyId.BORS, {"radius": 10.0, "horizon": 15.0,
                                                           "bound": 5.0})),
        ]
        self.run_pass(Pass())  # fills the probe cache; timed passes only read it

    def run_pass(self, p: Pass) -> None:
        for prop, cert in self.certs:
            p.op(f"verify:lin_scalar:{prop.value}", self._checked, p, self._verify, cert,
                 "certified")
        for name, chain in self.recipes:
            p.op(f"recipe:{name}", self._checked, p, self._recipe, chain, "certified")
        for name, cert in self.refutations:
            p.op(f"refute:lin_scalar:{name}", self._checked, p, self._verify, cert,
                 "falsified")

    def _checked(self, p, body, arg, expected):
        """Run one op; any simulation it triggers is a miss (the cache is warm)."""
        before = self.rhs.calls
        status, slack, margin = body(p, arg)
        ok = status == expected
        if self.rhs.calls != before:
            status, ok = status + "+simulated", False
        return status, slack, ok, margin

    def _verify(self, p, cert):
        v = p.call("properties.verify", verify, self.sys, cert, self.plan, probe_set=self.ps)
        p.count("verify.samples", v.samples)
        margin = None
        if v.falsified:
            margin = (v.witness.observed - v.witness.bound) / v.witness.bound
        return v.status, v.min_slack, margin

    def _recipe(self, p, chain):
        cert = None
        for recipe, args, kwargs in chain:
            if cert is not None:
                args = (cert,) + args
            cert, _ = p.call(f"constructs.{recipe}", CONSTRUCTIONS[recipe], *args, **kwargs)
        return self._verify(p, cert)

    def step_sources(self, tracer):
        """(system, [(input, trajectory)], weight) from the warm cache: the
        timed passes simulate nothing, so the traced ones collect no samples."""
        pairs = [(d.probe.u, d.traj) for d in self.ps.all_data()]
        return [(self.native, pairs, sum(len(t.times) - 1 for _, t in pairs))]


WORKLOADS = {w.name: w for w in (ZooSweep, FalsifySearch, WarmRecheck)}
