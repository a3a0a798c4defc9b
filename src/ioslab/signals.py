"""Piecewise-constant input signals with exact sup norms.

Signals are right-continuous step functions on [0, inf): breakpoint k owns
the value on [breakpoints[k], breakpoints[k+1]).  This space is closed under
time shifts and window restrictions, and both operations can only shrink the
sup norm, which is computed exactly as the max of per-piece value norms.

Restriction to [t1, t2] keeps the signal's value AT t2 (the zeroed tail
starts at the next representable float), so re-simulating a trajectory with
a restricted input reproduces every integrator stage value on [0, t2]
exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["InputSignal"]


class InputSignal:
    """Immutable piecewise-constant signal; values are row vectors."""

    __slots__ = ("breakpoints", "values", "_norm", "_hash")

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if bp.ndim != 1 or bp.size == 0 or bp[0] != 0.0:
            raise DomainError("breakpoints must start at 0")
        if np.any(np.diff(bp) <= 0.0):
            raise DomainError("breakpoints must be strictly increasing")
        if vals.shape[0] != bp.size:
            raise DomainError("need one value row per breakpoint")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if vals.shape[1] == 0:
            norm = 0.0
        else:
            norm = float(np.max(np.linalg.norm(vals, axis=1)))
        object.__setattr__(self, "_norm", norm)
        # immutable, so hash once: probe caches look signals up by key
        object.__setattr__(self, "_hash", hash((bp.tobytes(), vals.tobytes())))

    def __setattr__(self, *a):
        raise AttributeError("InputSignal is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(dim: int = 1) -> "InputSignal":
        return InputSignal([0.0], np.zeros((1, dim)))

    @staticmethod
    def constant(value) -> "InputSignal":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return InputSignal([0.0], v[None, :])

    @staticmethod
    def steps(breakpoints, values) -> "InputSignal":
        return InputSignal(breakpoints, values)

    # -- protocol ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norm(self) -> float:
        return self._norm

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise DomainError("signals are defined on t >= 0")
        idx = np.searchsorted(self.breakpoints, t_arr, side="right") - 1
        return self.values[idx]

    def __eq__(self, other):
        return (
            isinstance(other, InputSignal)
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"InputSignal(pieces={len(self.breakpoints)}, dim={self.dim}, norm={self._norm:g})"

    # -- operators ---------------------------------------------------------

    def shift(self, tau: float) -> "InputSignal":
        """s -> u(s + tau); discards the first tau time units."""
        if tau < 0:
            raise DomainError("shift must be nonnegative")
        if tau == 0.0:
            return self
        idx = int(np.searchsorted(self.breakpoints, tau, side="right") - 1)
        bp = np.concatenate(([0.0], self.breakpoints[idx + 1 :] - tau))
        vals = self.values[idx:]
        return InputSignal(bp, vals)

    def restrict(self, t1: float, t2: float) -> "InputSignal":
        """Zero-extension restriction: equals u on [t1, t2], zero elsewhere."""
        if not 0.0 <= t1 <= t2:
            raise DomainError("need 0 <= t1 <= t2")
        zero_row = np.zeros((1, self.dim))
        cut = np.nextafter(t2, np.inf)
        inside = (self.breakpoints > t1) & (self.breakpoints <= t2)
        bp = [0.0]
        vals = [self(t1)[None, :] if t1 == 0.0 else zero_row]
        if t1 > 0.0:
            bp.append(t1)
            vals.append(self(t1)[None, :])
        for b in self.breakpoints[inside]:
            if b > bp[-1]:
                bp.append(float(b))
                vals.append(self(b)[None, :])
        if cut > bp[-1]:
            bp.append(cut)
            vals.append(zero_row)
        return InputSignal(np.asarray(bp), np.concatenate(vals, axis=0))

    def to_dict(self) -> dict:
        return {
            "breakpoints": self.breakpoints.tolist(),
            "values": self.values.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "InputSignal":
        return InputSignal(d["breakpoints"], d["values"])
