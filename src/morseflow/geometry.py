"""Coordinate charts for compact 1- and 2-manifolds with boundary.

Two chart shapes cover the built-in catalog: a box region cut out by smooth
inequality constraints, and a periodic strip glued by a deck transformation
(u, v) ~ (u + period, flip * v).  All evaluators are pure; chart values are
immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import AmbiguousBoundary, NotOnBoundary, PointOutsideManifold
from .params import DEFAULT, Tolerances

Array = np.ndarray


@dataclass(frozen=True)
class BoundaryConstraint:
    """Smooth scalar map b; the manifold side is {b <= 0}, the wall is {b = 0}."""

    name: str
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]


@dataclass(frozen=True)
class RegionChart:
    dim: int
    box: tuple[tuple[float, float], ...]
    constraints: tuple[BoundaryConstraint, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if len(self.box) != self.dim:
            raise ValueError("box must have one (lo, hi) pair per axis")


@dataclass(frozen=True)
class QuotientChart:
    """Strip R x [v_min, v_max] with deck map (u, v) -> (u + period, flip * v)."""

    period: float
    v_min: float
    v_max: float
    flip: int

    def __post_init__(self):
        if self.flip not in (-1, 1):
            raise ValueError("flip must be +1 or -1")
        if self.flip == -1 and abs(self.v_min + self.v_max) > 1e-15:
            raise ValueError("flip = -1 requires v_min = -v_max")

    @property
    def dim(self) -> int:
        return 2

    @property
    def box(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, self.period), (self.v_min, self.v_max))


ChartModel = Union[RegionChart, QuotientChart]


@dataclass(frozen=True)
class Point:
    """Chart coordinates in canonical form (quotient: first coordinate in [0, P))."""

    coords: tuple[float, ...]

    @property
    def array(self) -> Array:
        return np.asarray(self.coords, dtype=float)

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class MetricField:
    """Symmetric positive-definite bilinear form on chart coordinates."""

    matrix: Callable[[Array], Array]
    identity: bool = False

    @classmethod
    def euclidean(cls, dim: int) -> "MetricField":
        eye = np.eye(dim)
        return cls(matrix=lambda x: eye, identity=True)

    @classmethod
    def scaled(cls, dim: int, factor: float) -> "MetricField":
        mat = factor * np.eye(dim)
        return cls(matrix=lambda x: mat)


def deck_sign(chart: QuotientChart, k: int) -> int:
    return 1 if k % 2 == 0 else chart.flip


def deck_apply(chart: QuotientChart, k: int, xy: Array) -> Array:
    """k-fold deck transformation applied to raw strip coordinates."""
    out = np.array(xy, dtype=float)
    out[0] += k * chart.period
    out[1] *= deck_sign(chart, k)
    return out


def _region_violation(chart: RegionChart, x: Array, tol: float) -> str | None:
    for axis, (lo, hi) in enumerate(chart.box):
        if x[axis] < lo - tol or x[axis] > hi + tol:
            return f"axis {axis} outside box"
    for con in chart.constraints:
        if float(con.value(x)) > tol:
            return f"constraint {con.name} positive"
    return None


def normalize_point(chart: ChartModel, raw: Sequence[float],
                    tol: Tolerances = DEFAULT) -> tuple[Point, int]:
    """Reduce raw coordinates to canonical form.

    Returns the canonical point and the net orientation sign accumulated by
    the deck applications (always +1 on a region chart).  Raises
    PointOutsideManifold when the input does not lie on the manifold.
    """
    x = np.asarray(raw, dtype=float)
    if isinstance(chart, RegionChart):
        if x.shape != (chart.dim,):
            raise ValueError("wrong coordinate length")
        reason = _region_violation(chart, x, tol.tol_geom)
        if reason is not None:
            raise PointOutsideManifold(reason)
        return Point(tuple(float(c) for c in x)), 1
    if x.shape != (2,):
        raise ValueError("wrong coordinate length")
    k = int(math.floor(x[0] / chart.period))
    canon = deck_apply(chart, -k, x)
    # floor can land exactly on the period due to rounding
    if canon[0] >= chart.period:
        canon = deck_apply(chart, -1, canon)
        k += 1
    if canon[0] < 0.0:
        canon = deck_apply(chart, 1, canon)
        k -= 1
    sign = deck_sign(chart, k)
    if canon[1] < chart.v_min - tol.tol_geom or canon[1] > chart.v_max + tol.tol_geom:
        raise PointOutsideManifold("strip bounds violated")
    return Point((float(canon[0]), float(canon[1]))), sign


def chart_distance(chart: ChartModel, a: Sequence[float], b: Sequence[float]) -> float:
    """Distance between two raw coordinate tuples, minimized over deck images."""
    return coords_distance(chart, np.asarray(a, dtype=float).tolist(),
                           np.asarray(b, dtype=float).tolist())


def coords_distance(chart: ChartModel, a: list[float], b: list[float]) -> float:
    """`chart_distance` of two coordinate lists, in float arithmetic with the
    operations of `chart_distance_many`."""
    if isinstance(chart, RegionChart):
        d0, d1 = a[0] - b[0], (a[1] - b[1] if len(a) == 2 else 0.0)
        return math.sqrt(d0 * d0 + d1 * d1)   # d0 * d0 + 0.0 rounds as d0 * d0
    best = math.inf
    shift = round((b[0] - a[0]) / chart.period)
    for k in (shift - 1, shift, shift + 1):
        d0 = a[0] + k * chart.period - b[0]
        d1 = a[1] * (1.0 if k % 2 == 0 else chart.flip) - b[1]
        best = min(best, math.sqrt(d0 * d0 + d1 * d1))
    return best


def plain_dot(a, b):
    """Sum of the products of the components of a and b, left to right.

    Components are floats, or arrays that each hold one component of many
    vectors (the columns of a batch).  Products and sums round alike in float
    and in elementwise array arithmetic, so the two give the same bits, and
    the bits do not depend on the BLAS build.
    """
    return a[0] * b[0] + a[1] * b[1] if len(a) == 2 else a[0] * b[0]


def row_dot(a: Array, b: Array) -> Array:
    """Dot product of each row of a with the matching row of b (broadcast).

    Each row goes through the same BLAS dot as a single `a @ b`, so the bits
    agree with the per-point form; `np.sum(a * b, axis=1)` and `einsum` round
    differently.  The BLAS dot may fuse a multiply and an add, which float
    arithmetic cannot reproduce: arithmetic that a float path must match bit
    for bit uses `plain_dot` instead.
    """
    a, b = np.broadcast_arrays(a, b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def chart_distance_many(chart: ChartModel, points: Array, b: Sequence[float]) -> Array:
    """`chart_distance` from each row of points to b, with the same bits."""
    xa = np.asarray(points, dtype=float).T
    xb = np.asarray(b, dtype=float).tolist()
    if isinstance(chart, RegionChart):
        d = [p - q for p, q in zip(xa, xb)]
        return np.sqrt(plain_dot(d, d))
    best = np.full(xa.shape[1], math.inf)
    shift = np.rint((xb[0] - xa[0]) / chart.period)
    for k in (shift - 1, shift, shift + 1):
        d = [xa[0] + k * chart.period - xb[0],
             xa[1] * np.where(k % 2 == 0, 1.0, float(chart.flip)) - xb[1]]
        best = np.minimum(best, np.sqrt(plain_dot(d, d)))
    return best


def metric_normal(metric: MetricField, x: Array, covector: Array) -> Array:
    """Unit vector metric-dual to a covector (direction of steepest increase)."""
    if metric.identity:
        length = math.sqrt(float(covector @ covector))
        if length == 0.0:
            raise ValueError("vanishing covector has no normal direction")
        return covector / length
    g = np.asarray(metric.matrix(x), dtype=float)
    vec = np.linalg.solve(g, covector)
    length = math.sqrt(float(vec @ g @ vec))
    if length == 0.0:
        raise ValueError("vanishing covector has no normal direction")
    return vec / length


def quadratic_forms(v: Array, g_mats: Array) -> Array:
    """`v @ g_mat @ v` for each row, with the same bits."""
    return row_dot(np.matmul(v[:, None, :], g_mats)[:, 0, :], v)


def metric_matrices(metric: MetricField, x: Array) -> Array:
    """`metric.matrix` at each row of x, stacked."""
    rows, dim = x.shape
    if metric.identity:
        return np.broadcast_to(np.eye(dim), (rows, dim, dim))
    return np.array([metric.matrix(row) for row in x], dtype=float).reshape(rows, dim, dim)


def metric_normals(metric: MetricField, covectors: Array, g_mats: Array | None) -> Array:
    """`metric_normal` of each row of covectors (a zero row gives nan)."""
    if metric.identity:
        vec = covectors
        length = np.sqrt(row_dot(vec, vec))
    else:
        vec = np.linalg.solve(g_mats, covectors[:, :, None])[:, :, 0]
        length = np.sqrt(quadratic_forms(vec, g_mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        return vec / length[:, None]


def boundary_data(chart: ChartModel, p: Point, metric: MetricField | None = None,
                  tol: Tolerances = DEFAULT) -> tuple[str, Array] | None:
    """Active boundary piece and outward unit normal at p, or None in the interior.

    Raises AmbiguousBoundary when two constraints are active at once (corner).
    """
    x = p.array
    metric = metric or MetricField.euclidean(len(x))
    if isinstance(chart, QuotientChart):
        at_min = abs(x[1] - chart.v_min) <= tol.tol_geom
        at_max = abs(x[1] - chart.v_max) <= tol.tol_geom
        if at_min and at_max:
            raise AmbiguousBoundary("degenerate strip")
        if at_min:
            return "v_min", metric_normal(metric, x, np.array([0.0, -1.0]))
        if at_max:
            return "v_max", metric_normal(metric, x, np.array([0.0, 1.0]))
        return None
    active = [con for con in chart.constraints if abs(float(con.value(x))) <= tol.tol_geom]
    if len(active) > 1:
        raise AmbiguousBoundary(f"constraints {[c.name for c in active]} all active")
    if not active:
        return None
    con = active[0]
    grad = np.asarray(con.gradient(x), dtype=float)
    return con.name, metric_normal(metric, x, grad)


def tangent_of_normal(normal: Array) -> Array:
    """Boundary tangent convention in dimension 2: rotate the normal clockwise."""
    return np.array([normal[1], -normal[0]])


def boundary_frame(chart: ChartModel, p: Point, metric: MetricField | None = None,
                   tol: Tolerances = DEFAULT) -> tuple[str, Array, Array]:
    """(piece name, outward normal, tangent) at a boundary point; raises otherwise."""
    data = boundary_data(chart, p, metric, tol)
    if data is None:
        raise NotOnBoundary(f"{p.coords} is interior")
    name, normal = data
    if len(p) == 1:
        return name, normal, np.zeros(1)
    return name, normal, tangent_of_normal(normal)


def boundary_frames(chart: ChartModel, raw: Array, metric: MetricField | None = None,
                    tol: Tolerances = DEFAULT) -> tuple[Array, Array, Array]:
    """Canonical points, outward metric-unit normals and metric matrices of
    boundary points, one row per row of raw.

    The bits are those of `normalize_point`, `boundary_frame` and
    `metric.matrix` point by point.  A row off the manifold, at a corner or in
    the interior raises what those raise at the first such row.
    """
    x = np.array(raw, dtype=float).reshape(-1, chart.dim)
    metric = metric or MetricField.euclidean(chart.dim)
    geom = tol.tol_geom
    if isinstance(chart, QuotientChart):
        # the deck reduction of `normalize_point`, with its two rounding fixes
        k = np.floor(x[:, 0] / chart.period)
        canon = np.stack([x[:, 0] + -k * chart.period,
                          x[:, 1] * np.where(k % 2 == 0, 1.0, float(chart.flip))], axis=1)
        for shift in (-chart.period, chart.period):
            wrapped = canon[:, 0] >= chart.period if shift < 0.0 else canon[:, 0] < 0.0
            canon[wrapped, 0] += shift
            canon[wrapped, 1] *= chart.flip
        v = canon[:, 1]
        at_min = np.abs(v - chart.v_min) <= geom
        at_max = np.abs(v - chart.v_max) <= geom
        bad = (v < chart.v_min - geom) | (v > chart.v_max + geom) | (at_min == at_max)
        covectors = np.where(at_min[:, None], [0.0, -1.0], [0.0, 1.0])
    else:
        canon = x
        values = np.empty((len(x), len(chart.constraints)))
        for j, con in enumerate(chart.constraints):
            values[:, j] = con.value(x)
        active = np.abs(values) <= geom
        bad = (values > geom).any(axis=1) | (active.sum(axis=1) != 1)
        for axis, (lo, hi) in enumerate(chart.box):
            bad |= (x[:, axis] < lo - geom) | (x[:, axis] > hi + geom)
        covectors = np.zeros_like(x)
        for j, con in enumerate(chart.constraints):
            rows = np.flatnonzero(active[:, j] & ~bad)
            covectors[rows] = con.gradient(x[rows])
    g_mats = metric_matrices(metric, canon)
    normals = metric_normals(metric, covectors, g_mats)
    # `metric_normal` raises on a zero normal, where the batch divides by zero
    bad |= ~np.isfinite(normals).all(axis=1) & np.isfinite(covectors).all(axis=1)
    # rows the batch cannot vouch for take the per-point path, which raises
    for i in np.flatnonzero(bad):
        pt, _ = normalize_point(chart, x[i], tol)
        _, normals[i], _ = boundary_frame(chart, pt, metric, tol)
    return canon, normals, g_mats


def path_orientation_sign(chart: ChartModel, polyline: Sequence[Sequence[float]]) -> int:
    """Product of deck-flip signs over signed seam crossings of a raw polyline."""
    if isinstance(chart, RegionChart):
        return 1
    pts = [np.asarray(q, dtype=float) for q in polyline]
    total = 0
    for a, b in zip(pts[:-1], pts[1:]):
        total += int(math.floor(b[0] / chart.period)) - int(math.floor(a[0] / chart.period))
    return deck_sign(chart, total)


def boundary_distance(chart: ChartModel, raw: Array) -> float:
    """First-order distance from raw coordinates to the nearest boundary piece."""
    x = np.asarray(raw, dtype=float)
    if isinstance(chart, QuotientChart):
        return float(min(abs(x[1] - chart.v_min), abs(chart.v_max - x[1])))
    best = math.inf
    for con in chart.constraints:
        g = np.asarray(con.gradient(x), dtype=float)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            continue
        best = min(best, abs(float(con.value(x))) / norm)
    return best
