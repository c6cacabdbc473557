import math

import numpy as np

from oracles import integrate_adaptive


def test_adaptive_integrator_exponential():
    got = integrate_adaptive(lambda t, y: -y, np.array([1.0, 2.0, -1.0]), 3.0)
    want = math.exp(-3.0) * np.array([1.0, 2.0, -1.0])
    assert np.max(np.abs(got - want)) <= 1e-10


def test_adaptive_integrator_rotation():
    M = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = integrate_adaptive(lambda t, y: M @ y, np.array([1.0, 0.0]),
                             math.pi)
    assert np.max(np.abs(got - [-1.0, 0.0])) <= 1e-10
