"""Test oracles: a high-accuracy reference integrator (Dormand-Prince
5(4) with adaptive steps) for the closed-form flows.  It is not part of
the package.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from filippov.errors import NonFiniteStateError

_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = (1 / 5,)
_DP_A[2, :2] = (3 / 40, 9 / 40)
_DP_A[3, :3] = (44 / 45, -56 / 15, 32 / 9)
_DP_A[4, :4] = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_DP_A[5, :5] = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656)
_DP_A[6, :6] = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def integrate_adaptive(f: Callable[[float, np.ndarray], np.ndarray], y0,
                       t_end: float, rtol: float = 1e-12,
                       atol: float = 1e-14) -> np.ndarray:
    """Integrate dy/dt = f(t, y) from t = 0 to t_end with adaptive
    5th/4th-order embedded steps; returns the final state."""
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    if t_end == 0.0:
        return y
    if t_end < 0.0:
        raise ValueError("t_end must be non-negative")
    h = min(1e-2, t_end)
    stages = np.zeros((7, y.size))
    while t < t_end:
        h = min(h, t_end - t)
        stages[0] = f(t, y)
        for i in range(1, 7):
            yi = y + h * (_DP_A[i, :i] @ stages[:i])
            stages[i] = f(t + _DP_C[i] * h, yi)
        y5 = y + h * (_DP_B5 @ stages)
        err = h * ((_DP_B5 - _DP_B4) @ stages)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0 or h <= 1e-14:
            t += h
            y = y5
            if not np.all(np.isfinite(y)):
                raise NonFiniteStateError("adaptive integration blew up")
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y
