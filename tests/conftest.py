"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def kernel_calls(monkeypatch):
    """Row counts of the kernel calls the probe sets make."""
    import ioslab.properties as props

    calls = []
    real = props.simulate_batch

    def counting(sys, x0s, us, plan):
        calls.append(len(us))
        return real(sys, x0s, us, plan)

    monkeypatch.setattr(props, "simulate_batch", counting)
    return calls
