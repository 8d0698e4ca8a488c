import dataclasses
import math
import warnings

import numpy as np
import pytest

from morseflow import catalog
from morseflow.catalog import CatalogEntry
from morseflow.critical import boundary_sample
from morseflow.fields import MorseField, validate_field
from morseflow.geometry import Chart, MetricField
from morseflow.params import DEFAULT
from morseflow.pseudogradient import certification_sample, row_geometry
from morseflow.verify import VerificationContext

# hypothesis imports this module to print a falsifying example, and its import
# raises mypy_extensions' DeprecationWarning; under `filterwarnings = error`
# that ends a failing run in an INTERNALERROR with no example, so it is
# imported here once with that one warning ignored
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", category=DeprecationWarning,
                            message="mypy_extensions.TypedDict is deprecated")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis: its tests do not collect anyway
        pass


@dataclasses.dataclass(frozen=True)
class ExpectedCritical:
    kind: str                 # "interior" | "boundary_n" | "boundary_d"
    grading: int
    location: tuple[float, ...]


# the critical search's oracle: every critical point of each entry, by name
EXPECTED: dict[str, tuple[ExpectedCritical, ...]] = {
    "interval": (
        ExpectedCritical("boundary_n", 0, (0.0,)),
        ExpectedCritical("boundary_d", 1, (1.0,)),
    ),
    "disk": (
        ExpectedCritical("boundary_n", 0, (0.0, -1.0)),
        ExpectedCritical("boundary_d", 2, (0.0, 1.0)),
    ),
    "annulus": (
        ExpectedCritical("boundary_n", 0, (0.0, -2.0)),
        ExpectedCritical("boundary_n", 1, (0.0, 1.0)),
        ExpectedCritical("boundary_d", 1, (0.0, -1.0)),
        ExpectedCritical("boundary_d", 2, (0.0, 2.0)),
    ),
    "moebius": (
        ExpectedCritical("interior", 1, (0.0, 0.0)),
        ExpectedCritical("boundary_n", 0, (math.pi, -1.0)),
        ExpectedCritical("boundary_d", 2, (math.pi, 1.0)),
    ),
    "tilted_dome": (
        ExpectedCritical("interior", 2, (0.0, 0.25)),
        ExpectedCritical("boundary_n", 1, (0.0, 1.0)),
        ExpectedCritical("boundary_n", 0, (0.0, -1.0)),
    ),
    "cylinder": (
        ExpectedCritical("boundary_n", 0, (math.pi, -1.0)),
        ExpectedCritical("boundary_n", 1, (0.0, -1.0)),
        ExpectedCritical("boundary_d", 1, (math.pi, 1.0)),
        ExpectedCritical("boundary_d", 2, (0.0, 1.0)),
    ),
}


def cyclic_cover(entry: CatalogEntry, m: int) -> CatalogEntry:
    """The m-fold cyclic cover of a strip entry: the strip of period m * P
    glued by T^m, (u, v) -> (u + m * P, flip^m * v), carrying the same
    function, with χ times m.  Its expected points, each base point lifted to
    the m sheets, go into `EXPECTED` under the cover's name."""
    deck = entry.chart.deck
    _, (v_min, v_max) = entry.chart.box
    chart = Chart.strip(period=m * deck.period, v_min=v_min, v_max=v_max,
                        flip=deck.flip ** m)
    validate_field(entry.field, chart)
    name = f"{entry.name}_x{m}"
    EXPECTED[name] = tuple(
        ExpectedCritical(e.kind, e.grading, (e.location[0] + j * deck.period,
                                             deck.flip ** j * e.location[1]))
        for j in range(m) for e in EXPECTED[entry.name])
    return dataclasses.replace(entry, name=name, chart=chart, chi=m * entry.chi)


def canonical_many(chart: Chart, points) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row of points moved into the deck period as
    `PseudoGradientField.evaluate` moves one point, and the rows whose v the
    move negated (None without a deck map)."""
    x = np.array(points, dtype=float).reshape(-1, chart.dim)
    deck = chart.deck
    if deck is None:
        return x, None
    k = np.floor(x[:, 0] / deck.period)
    flip = (k % 2 != 0) & (deck.flip == -1)
    x[:, 0] += -k * deck.period
    x[flip, 1] *= -1.0
    return x, flip


def evaluate_many(field, points) -> np.ndarray:
    """`field.evaluate` at each row of raw points, in one batch: the oracle
    the tests hold the point kernel against.  The rows are reduced here, the
    objective's gradient and the rows' geometry are evaluated at them, and
    the field's batch evaluator does the rest."""
    x, flip = canonical_many(field.chart, points)
    vec = field._eval_canonical_many(x, np.asarray(field.objective.gradient(x), dtype=float),
                                     row_geometry(field.chart, field.metric, x))
    if flip is not None:
        vec[flip, 1] = -vec[flip, 1]
    return vec


def drawn_sample(objective, chart, metric, crit, tol=DEFAULT):
    """The certification sample an analysis of objective with critical set
    crit under tol draws: its boundary trace and interior points, with the
    objective's gradient at each.  A field built or certified by hand takes
    it, f's or -f's, as an analysis hands its fields the one it draws."""
    wall = boundary_sample(objective, chart, metric, tol)
    return certification_sample(objective, chart, metric, crit, tol, wall)


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
    return CatalogEntry(name="cylinder", chart=chart, metric=MetricField.euclidean(2),
                        field=field, chi=0)


@pytest.fixture(scope="session")
def moebius_x2():
    """The Möbius band's double cover: a cylinder of period 4π."""
    return cyclic_cover(catalog.get("moebius"), 2)


@pytest.fixture(scope="session")
def moebius_x3():
    """The Möbius band's triple cover: a Möbius band of period 6π."""
    return cyclic_cover(catalog.get("moebius"), 3)


@pytest.fixture(scope="session")
def cylinder_x2(cylinder):
    """The cylinder's double cover: v + cos(u) / 2 on a cylinder of period 4π."""
    return cyclic_cover(cylinder, 2)
