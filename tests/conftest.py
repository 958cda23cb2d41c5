import numpy as np
import pytest


@pytest.fixture
def break_expm(monkeypatch):
    """plant(value, first, last=None) makes the flows' exponential return
    value * I from its first-th call to its last-th (to the end when last
    is None), and returns the list of calls, one None per call.

    The flow step has no stability bound that a large dt could break, so
    the failure paths are reached by planting a broken exponential: NaN for
    a non-finite step, 0 for a finite metric (0 W)^dag (0 W) = 0 that is
    not positive. Each step makes two exponentials, its predictor's and its
    result's.
    """
    import higgsflow.flows
    real = higgsflow.flows.expm_batched

    def plant(value, first, last=None):
        calls = []

        def broken(m):
            calls.append(None)
            if len(calls) >= first and (last is None or len(calls) <= last):
                eye = value * np.eye(m.shape[-1], dtype=np.complex128)
                return np.broadcast_to(eye, m.shape).copy()
            return real(m)

        monkeypatch.setattr(higgsflow.flows, "expm_batched", broken)
        return calls

    return plant
