"""Built-in manifolds with height-like functions and reference homology.

Reference groups are derived from each entry's dimension, χ and chart; the
pipeline's job is to reproduce them from flow counting alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import HomologyResult
from .errors import UnknownEntry
from .fields import MorseField, validate_field
from .geometry import BoundaryConstraint, Chart, MetricField

Array = np.ndarray


@dataclass(frozen=True)
class ExpectedCritical:
    kind: str                 # "interior" | "boundary_n" | "boundary_d"
    grading: int
    location: tuple[float, ...]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    chart: Chart
    metric: MetricField
    field: MorseField
    expected: tuple[ExpectedCritical, ...]
    chi: int

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def orientable(self) -> bool:
        """Read from the chart: no deck map, or one that keeps orientation."""
        return self.chart.deck is None or self.chart.deck.flip == 1

    def references(self) -> dict[str, HomologyResult]:
        """The reference group of every coefficient flavour.

        Every entry is compact and connected with non-empty boundary, so it
        retracts onto a graph: H_*(M;Z) = (Z, Z^{1-χ}, 0), and H_*(M;Z^or) is
        the same when M is orientable and (Z/2, Z^{-χ}, 0) otherwise.
        Poincaré–Lefschetz duality gives the relative groups:
        H^k(M,∂M;Z^or) = H_{n-k}(M;Z), H^k(M,∂M;Z) = H_{n-k}(M;Z^or) and
        H_k(M,∂M;Z^or) = H^{n-k}(M;Z), which is free because H_*(M;Z) is.
        """
        n = self.dim
        no_torsion = ((),) * (n + 1)
        plain = HomologyResult((1, 1 - self.chi) + (0,) * (n - 1), no_torsion)
        twisted = plain if self.orientable else HomologyResult(
            (0, -self.chi) + (0,) * (n - 1), ((2,),) + no_torsion[1:])

        def dual(group: HomologyResult) -> HomologyResult:
            return HomologyResult(group.betti[::-1], group.torsion[::-1])

        return {
            "H_*(M;Z)": plain,
            "H_*(M;Z^or)": twisted,
            "H^*(M,dM;Z^or)": dual(plain),
            "H^*(M,dM;Z)": dual(twisted),
            "H_*(M,dM;Z^or)": dual(plain),
        }


def _interval() -> CatalogEntry:
    chart = Chart(dim=1, box=((0.0, 1.0),),
                  constraints=(BoundaryConstraint.linear("left", (-1.0,), 0.0),
                               BoundaryConstraint.linear("right", (1.0,), -1.0)))

    def gradient(x):
        return np.array([1.0]) if np.ndim(x) == 1 else np.ones(np.shape(x))

    f = MorseField(
        value=lambda x: x[..., 0],
        gradient=gradient,
        hessian=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)),
    )
    return CatalogEntry(
        name="interval", chart=chart, metric=MetricField.euclidean(1), field=f,
        expected=(
            ExpectedCritical("boundary_n", 0, (0.0,)),
            ExpectedCritical("boundary_d", 1, (1.0,)),
        ),
        chi=1,
    )


def _height_field() -> MorseField:
    def gradient(x):
        if np.ndim(x) == 1:
            return np.array([0.0, 1.0])
        out = np.zeros(np.shape(x))
        out[..., 1] = 1.0
        return out

    return MorseField(
        value=lambda x: x[..., 1],
        gradient=gradient,
        hessian=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2)),
    )


def _disk() -> CatalogEntry:
    chart = Chart(dim=2, box=((-1.1, 1.1), (-1.1, 1.1)),
                  constraints=(BoundaryConstraint.circle("rim", 1.0),))
    return CatalogEntry(
        name="disk", chart=chart, metric=MetricField.euclidean(2), field=_height_field(),
        expected=(
            ExpectedCritical("boundary_n", 0, (0.0, -1.0)),
            ExpectedCritical("boundary_d", 2, (0.0, 1.0)),
        ),
        chi=1,
    )


def _annulus() -> CatalogEntry:
    # y is symmetric about the y-axis: at seed 0 the relative curve of the D point
    # (0, -1) runs down the axis into the N minimum (0, -2), which is not general
    # position, so the pairing retries with a perturbation (meta.pairing_seed 7920)
    chart = Chart(
        dim=2, box=((-2.2, 2.2), (-2.2, 2.2)),
        constraints=(BoundaryConstraint.circle("outer", 2.0),
                     BoundaryConstraint.circle("inner", 1.0, inner=True)),
    )
    return CatalogEntry(
        name="annulus", chart=chart, metric=MetricField.euclidean(2), field=_height_field(),
        expected=(
            ExpectedCritical("boundary_n", 0, (0.0, -2.0)),
            ExpectedCritical("boundary_n", 1, (0.0, 1.0)),
            ExpectedCritical("boundary_d", 1, (0.0, -1.0)),
            ExpectedCritical("boundary_d", 2, (0.0, 2.0)),
        ),
        chi=0,
    )


def _moebius() -> CatalogEntry:
    chart = Chart.strip(period=2.0 * math.pi, v_min=-1.0, v_max=1.0, flip=-1)

    def value(x):
        return x[..., 1] * np.sin(x[..., 0] / 2.0)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            u, v = float(x[0]), float(x[1])
            return np.array([v * math.cos(u / 2.0) / 2.0, math.sin(u / 2.0)])
        u, v = x[..., 0], x[..., 1]
        return np.stack([v * np.cos(u / 2.0) / 2.0, np.sin(u / 2.0)], axis=-1)

    def hessian(x):
        u, v = x[..., 0], x[..., 1]
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 0] = -v * np.sin(u / 2.0) / 4.0
        out[..., 0, 1] = np.cos(u / 2.0) / 2.0
        out[..., 1, 0] = out[..., 0, 1]
        return out

    f = MorseField(value=value, gradient=gradient, hessian=hessian)
    return CatalogEntry(
        name="moebius", chart=chart, metric=MetricField.euclidean(2), field=f,
        expected=(
            ExpectedCritical("interior", 1, (0.0, 0.0)),
            ExpectedCritical("boundary_n", 0, (math.pi, -1.0)),
            ExpectedCritical("boundary_d", 2, (math.pi, 1.0)),
        ),
        chi=0,
    )


def _tilted_dome() -> CatalogEntry:
    chart = Chart(dim=2, box=((-1.1, 1.1), (-1.1, 1.1)),
                  constraints=(BoundaryConstraint.circle("rim", 1.0),))

    def value(x):
        return 1.0 - x[..., 0] ** 2 - x[..., 1] ** 2 + x[..., 1] / 2.0

    def gradient(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            u, v = x.tolist()
            return np.array([-2.0 * u, -2.0 * v + 0.5])
        out = -2.0 * x
        out[..., 1] += 0.5
        return out

    def hessian(x):
        eye = -2.0 * np.eye(2)
        return np.broadcast_to(eye, np.shape(x)[:-1] + (2, 2)).copy()

    f = MorseField(value=value, gradient=gradient, hessian=hessian)
    return CatalogEntry(
        name="tilted_dome", chart=chart, metric=MetricField.euclidean(2), field=f,
        expected=(
            ExpectedCritical("interior", 2, (0.0, 0.25)),
            ExpectedCritical("boundary_n", 1, (0.0, 1.0)),
            ExpectedCritical("boundary_n", 0, (0.0, -1.0)),
        ),
        chi=1,
    )


_BUILDERS = {
    "interval": _interval,
    "disk": _disk,
    "annulus": _annulus,
    "moebius": _moebius,
    "tilted_dome": _tilted_dome,
}

_CACHE: dict[str, CatalogEntry] = {}


def names() -> list[str]:
    return list(_BUILDERS)


def get(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownEntry(name)
    if name not in _CACHE:
        entry = _BUILDERS[name]()
        validate_field(entry.field, entry.chart)
        _CACHE[name] = entry
    return _CACHE[name]
