"""Fourth-order finite differences of sampled data, a check for the tests.

The resolvent tests differentiate a sampled curve with these stencils to
see that it solves its ODE.
"""

import numpy as np

from charspec.errors import DimensionError

_D1_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D1_EDGE = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_NEXT = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def grid_derivative(values, h):
    """First derivative of uniformly sampled data, 4th-order stencils."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    if n < 5:
        raise DimensionError("need at least 5 samples")
    out = np.empty(n, dtype=complex)
    out[2:-2] = (
        _D1_INTERIOR[0] * values[:-4]
        + _D1_INTERIOR[1] * values[1:-3]
        + _D1_INTERIOR[3] * values[3:-1]
        + _D1_INTERIOR[4] * values[4:]
    )
    out[0] = _D1_EDGE @ values[:5]
    out[1] = _D1_NEXT @ values[:5]
    out[-1] = -(_D1_EDGE @ values[-1::-1][:5])
    out[-2] = -(_D1_NEXT @ values[-1::-1][:5])
    return out / h
