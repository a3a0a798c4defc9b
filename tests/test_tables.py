"""The grid-table lookup rule against a brute-force reference, and the
certificate schema's refusals of tables and forms it does not accept."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ioslab import comparison as cf
from ioslab.errors import CertificateError, DomainError, TableGapError
from ioslab.properties import (
    Certificate,
    ConvergenceTimeTable,
    DeltaTable,
    PropertyId,
    ReachabilityBound,
)

BALL, LEVEL = "ball", "level"

# table -> (axis kinds in value order, worse-value reduction, grids and raw
# values -> lookup taking one coordinate per axis)
CASES = {
    "tau": ((LEVEL, BALL), np.max,
            lambda g, v: ConvergenceTimeTable(g[0], g[1], None, v).eval),
    "tau_s": ((LEVEL, BALL, BALL), np.max,
              lambda g, v: ConvergenceTimeTable(g[0], g[1], g[2], v, mode="lim").eval),
    "delta": ((LEVEL,), np.min, lambda g, v: DeltaTable(g[0], None, v).eval),
    "delta_tau": ((LEVEL, BALL), np.min, lambda g, v: DeltaTable(g[0], g[1], v).eval),
    "mu": ((BALL, BALL, BALL), np.max,
           lambda g, v: ReachabilityBound(g[0], g[1], g[2], v).eval),
}


def _queries(grid) -> list[float]:
    """Every grid point, the midpoint of each gap, and a point beyond each end."""
    return (list(grid) + [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
            + [grid[0] - 0.1, grid[-1] + 0.1])


def _snapped(kind: str, grid, x: float):
    """The index a query reads, found by scanning: the smallest grid point
    at or above x on a ball axis, the largest at or below x on a level
    axis; None when there is none."""
    hits = [i for i, g in enumerate(grid) if (g >= x if kind == BALL else g <= x)]
    if not hits:
        return None
    return hits[0] if kind == BALL else hits[-1]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(CASES))
def test_lookup_is_the_worst_raw_value_over_the_covered_cells(case, seed):
    kinds, worse, build = CASES[case]
    rng = np.random.default_rng(seed)
    grids = [tuple(float(x) for x in np.sort(rng.choice(np.arange(1, 40), size=n,
                                                        replace=False)) * 0.25)
             for n in rng.integers(1, 5, size=len(kinds))]
    raw = rng.uniform(0.0, 10.0, size=[len(g) for g in grids])
    raw[rng.random(raw.shape) < 0.2] = np.inf
    lookup = build(grids, raw.copy())
    for query in itertools.product(*(_queries(g) for g in grids)):
        idx = [_snapped(kind, g, x) for kind, g, x in zip(kinds, grids, query)]
        if None in idx:
            with pytest.raises(TableGapError):
                lookup(*query)
            continue
        # a level axis covers its tighter levels, a ball axis its smaller balls
        ref = worse(raw[tuple(slice(i, None) if kind == LEVEL else slice(0, i + 1)
                              for kind, i in zip(kinds, idx))])
        if np.isfinite(ref):
            assert lookup(*query) == ref, query
        else:
            with pytest.raises(TableGapError):
                lookup(*query)


def test_a_coordinate_for_an_absent_axis_changes_nothing():
    tau = ConvergenceTimeTable((0.1, 0.5), (1.0, 2.0), None, np.array([[3.0, 4.0], [1.0, 2.0]]))
    delta = DeltaTable((0.1, 0.5), None, np.array([0.05, 0.25]))
    for other in (None, 0.0, 1.5, 1e9):
        assert tau.eval(0.5, 1.5, other) == tau.eval(0.5, 1.5) == 2.0
        assert delta.eval(0.3, other) == delta.eval(0.3) == 0.05


def test_a_missing_coordinate_raises_domain_error():
    tau = ConvergenceTimeTable((0.1,), (1.0,), (0.0, 1.0), np.ones((1, 1, 2)))
    delta = DeltaTable((0.1,), (5.0,), np.ones((1, 1)))
    with pytest.raises(DomainError, match=r"indexed by \(eps, r, s\)"):
        tau.eval(0.1, 1.0)
    with pytest.raises(DomainError, match=r"indexed by \(eps, tau\)"):
        delta.eval(0.1)


@pytest.mark.parametrize("prop", [PropertyId.OGUAG, PropertyId.OGULIM])
def test_input_global_certificates_refuse_an_s_indexed_table(prop):
    table = ConvergenceTimeTable((0.1,), (1.0,), (0.0, 1.0), np.ones((1, 1, 2)))
    with pytest.raises(CertificateError, match=r"over \(eps, r\)"):
        Certificate(prop, {"gamma": cf.identity(), "tau_table": table})


@pytest.mark.parametrize("extra", [
    {"sigma": cf.identity(), "gamma": cf.identity(), "radius": 1.0},
    {"sigma": cf.identity()},
])
def test_table_form_ouls_refuses_function_form_parameters(extra):
    table = DeltaTable((0.1, 0.5), None, np.array([0.05, 0.25]))
    with pytest.raises(CertificateError, match="unexpected parameters"):
        Certificate(PropertyId.OULS, {"delta_table": table, **extra})


@pytest.mark.parametrize("kind", ["mu", "sigma"])
def test_certificate_dict_refuses_an_unknown_table_kind(kind):
    cert = Certificate(PropertyId.OCEP, {"delta_table": DeltaTable(
        (0.1, 0.5), (6.0, 12.0), np.full((2, 2), 0.05))})
    d = cert.to_dict()
    assert Certificate.from_dict(d) == cert
    d["params"]["delta_table"]["table"] = kind
    with pytest.raises(DomainError, match="unknown table kind"):
        Certificate.from_dict(d)


@pytest.mark.parametrize("grid", [(0.5, 0.1), (0.1, 0.1), (-0.1, 0.5), (0.1, float("nan")),
                                  (0.1, float("inf"))])
def test_tables_refuse_a_grid_that_is_not_finite_nonnegative_and_increasing(grid):
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DomainError, match="eps_grid must be"):
        ConvergenceTimeTable(grid, (1.0, 10.0), None, vals)
    with pytest.raises(DomainError, match="r_grid must be"):
        ConvergenceTimeTable((0.1, 0.5), grid, None, vals)
    with pytest.raises(DomainError, match="tau_grid must be"):
        DeltaTable.from_dict({"eps_grid": [0.1, 0.5], "tau_grid": list(grid),
                              "values": vals.tolist()})
    with pytest.raises(DomainError, match="t_grid must be"):
        ReachabilityBound((1.0,), (0.0,), grid, np.ones((1, 1, 2)))
