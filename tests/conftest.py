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


@pytest.fixture
def curvature_builds(monkeypatch):
    """count(name) counts the builds of the cached part Curvature.<name>
    from then on, in a one-item list that it returns."""
    from functools import cached_property

    from higgsflow.geometry import Curvature

    def count(name):
        counter = [0]
        build = getattr(Curvature, name).func

        def counted(self):
            counter[0] += 1
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(Curvature, name)
        monkeypatch.setattr(Curvature, name, prop)
        return counter

    return count


@pytest.fixture
def part11_builds(curvature_builds):
    """Count the builds of Curvature.part11, F_H + [phi, phi*], which every
    full Hitchin-Simpson evaluation reads. Returns a one-item list."""
    return curvature_builds("part11")
