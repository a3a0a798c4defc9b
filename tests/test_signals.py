"""Input-signal space: shift/restriction operators and exact sup norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioslab.errors import DomainError
from ioslab.signals import InputSignal


def _norm_oracle(sig: InputSignal, t_grid) -> float:
    """Recompute the sup norm by brute-force evaluation on a dense grid."""
    vals = sig(np.asarray(t_grid))
    if vals.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(vals, axis=1)))


def test_constant_signal_shift_invariant():
    u = InputSignal.constant([3.0])
    for tau in [0.0, 0.5, 10.0]:
        v = u.shift(tau)
        assert np.array_equal(v(np.array([0.0, 1.0])), u(np.array([0.0, 1.0])))
        assert v.norm() == u.norm() == 3.0


def test_two_piece_signal_shift_extracts_tail():
    u = InputSignal.steps([0.0, 1.0], [[1.0], [0.0]])
    v = u.shift(1.0)
    assert v.norm() == 0.0
    assert v(0.0)[0] == 0.0
    assert u.norm() == 1.0


def test_restrict_constant_keeps_sup_norm():
    u = InputSignal.constant([1.0])
    r = u.restrict(0.0, 1.0)
    assert r.norm() == 1.0
    assert r(0.5)[0] == 1.0
    assert r(1.0)[0] == 1.0  # closed right endpoint
    assert r(1.0 + 1e-9)[0] == 0.0


def test_restrict_full_window_identity_on_window():
    u = InputSignal.steps([0.0, 0.4, 0.8], [[1.0], [-2.0], [0.5]])
    r = u.restrict(0.0, 2.0)
    grid = np.linspace(0.0, 2.0, 101)
    assert np.array_equal(r(grid), u(grid))


def test_restrict_zero_outside_window():
    u = InputSignal.constant([2.0])
    r = u.restrict(0.5, 1.0)
    assert r(0.25)[0] == 0.0
    assert r(0.75)[0] == 2.0
    assert r(1.5)[0] == 0.0


def test_restrict_rejects_reversed_window():
    with pytest.raises(DomainError):
        InputSignal.constant([1.0]).restrict(2.0, 1.0)


def test_zero_dim_signal_norm_is_zero():
    u = InputSignal.zero(0)
    assert u.dim == 0
    assert u.norm() == 0.0
    assert u(0.7).shape == (0,)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
    st.lists(st.floats(-10, 10), min_size=7, max_size=7),
    st.floats(0.0, 8.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
)
def test_shift_restrict_never_increase_norm(gaps, raw_vals, tau, t1, dt):
    bp = np.concatenate(([0.0], np.cumsum(gaps)))
    vals = np.asarray(raw_vals[: len(bp)])[:, None]
    u = InputSignal(bp, vals)
    assert u.shift(tau).norm() <= u.norm() + 1e-15
    assert u.restrict(t1, t1 + dt).norm() <= u.norm() + 1e-15


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_shift_matches_pointwise_oracle(seed):
    rng = np.random.default_rng(seed)
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 5.0, 4))))
    vals = rng.normal(size=(5, 2))
    u = InputSignal(bp, vals)
    tau = float(rng.uniform(0, 6))
    v = u.shift(tau)
    ts = rng.uniform(0, 10, 40)
    np.testing.assert_array_equal(v(ts), u(ts + tau))


def test_roundtrip_dict():
    u = InputSignal.steps([0.0, 1.0, 2.5], [[1.0, 2.0], [0.0, -1.0], [3.0, 0.0]])
    v = InputSignal.from_dict(u.to_dict())
    assert u == v
    assert _norm_oracle(v, np.linspace(0, 4, 100)) == v.norm()


def test_equal_signals_hash_equal_and_share_a_cache_key():
    # -0.0 == 0.0, so the signals are equal and must hash equal: a probe
    # cache keyed by signal would otherwise simulate one input twice
    pairs = [
        (InputSignal.constant([0.0]), InputSignal.constant([-0.0])),
        (InputSignal.steps([0.0, 1.0], [[1.0, 0.0], [0.0, 2.0]]),
         InputSignal.steps([-0.0, 1.0], [[1.0, -0.0], [-0.0, 2.0]])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert {a: 1}.get(b) == 1
    # same bytes in another shape is another signal
    assert InputSignal.steps([0.0], [[1.0, 2.0]]) != InputSignal.steps([0.0, 1.0], [1.0, 2.0])
    assert InputSignal.constant([1.0]) != InputSignal.constant([-1.0])


def test_signal_copies_the_arrays_it_is_given():
    bp, vals = np.array([0.0, 1.0]), np.array([[1.0], [2.0]])
    u = InputSignal(bp, vals)
    vals[0, 0] = 5.0  # the caller's arrays stay writable and the signal keeps its values
    bp[1] = 3.0
    assert u.values[0, 0] == 1.0 and u.breakpoints[1] == 1.0
