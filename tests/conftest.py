import math

import numpy as np
import pytest

from morseflow import catalog
from morseflow.catalog import CatalogEntry, ExpectedCritical
from morseflow.fields import MorseField, validate_field
from morseflow.geometry import Chart, MetricField
from morseflow.verify import VerificationContext


@pytest.fixture(scope="session")
def ctx():
    """Shared verification context so expensive builds happen once."""
    return VerificationContext(seed=0)


@pytest.fixture(scope="session")
def packages(ctx):
    return {name: ctx.package(name) for name in catalog.names()}


@pytest.fixture(scope="session")
def cylinder():
    """v + cos(u) / 2 on the band glued without a flip (deck map (u, v) -> (u + P, v)).

    A test entry, not a catalog one: the only chart whose deck map has
    flip = +1.  Both walls are circles, the lower one of type N, the upper one
    of type D; each carries a minimum and a maximum of the restriction.
    """
    chart = Chart.strip(period=2.0 * math.pi, v_min=-1.0, v_max=1.0, flip=1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-0.5 * np.sin(x[..., 0]), np.ones(np.shape(x)[:-1])], axis=-1)

    def hessian(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 0] = -0.5 * np.cos(x[..., 0])
        return out

    field = MorseField(value=lambda x: x[..., 1] + 0.5 * np.cos(x[..., 0]),
                       gradient=gradient, hessian=hessian)
    validate_field(field, chart)
    return CatalogEntry(
        name="cylinder", chart=chart, metric=MetricField.euclidean(2), field=field,
        expected=(
            ExpectedCritical("boundary_n", 0, (math.pi, -1.0)),
            ExpectedCritical("boundary_n", 1, (0.0, -1.0)),
            ExpectedCritical("boundary_d", 1, (math.pi, 1.0)),
            ExpectedCritical("boundary_d", 2, (0.0, 1.0)),
        ),
        chi=0,
    )
