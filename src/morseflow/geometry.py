"""Coordinate charts for compact 1- and 2-manifolds with boundary.

One chart model covers the built-in catalog: a box cut out by smooth
inequality constraints, each of which bounds the manifold by one wall, and
optionally glued by a deck map (u, v) -> (u + period, flip * v).  The strip
(`Chart.strip`) is a box one period wide whose two walls are linear
constraints.  Every wall operation treats all constraints alike; only code
about the deck images asks whether a chart has a deck map.  The metric is
the chart's too (`Chart.metric`, None for the Euclidean one), and every
frame reads it there (`wall_frames`): a wall's normal is its covector's
metric dual, and its tangent the covector turned clockwise, scaled to metric
length one, which lies along the wall under any metric.  All evaluators are
pure; chart values are immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AmbiguousBoundary, NotOnBoundary, PointOutsideManifold
from .params import DEFAULT, Tolerances

Array = np.ndarray


WallReader = Callable[[list], tuple[float, Sequence[float], float]]


@dataclass(frozen=True)
class BoundaryConstraint:
    """Smooth scalar map b; the manifold side is {b <= 0}, the wall is {b = 0}.

    `value`, `gradient` and `hessian` take one point or a batch of rows.
    `read` takes the coordinates of one point as a list of floats and returns
    b, its gradient covector and the covector's norm `sqrt(plain_dot(cov,
    cov))` as floats, with the bits of `value` and `gradient`; the caller
    must not modify the covector.  The field evaluator and the integrator
    read every wall through it.  Linear walls and circles (`linear`,
    `circle`) compute it in float arithmetic from their coefficients; a
    constraint given by its callables alone reads through them.
    """

    name: str
    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    read: WallReader = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.read is None:
            object.__setattr__(self, "read", _callable_reader(self.value, self.gradient))

    @classmethod
    def linear(cls, name: str, covector: Sequence[float],
               offset: float) -> "BoundaryConstraint":
        """b(x) = covector . x + offset, evaluated as `plain_dot(covector, x)
        + offset` for one point (in float arithmetic) and for each row."""
        cov, offset, dim = tuple(float(c) for c in covector), float(offset), len(covector)
        norm = math.sqrt(plain_dot(cov, cov))

        def value(x):
            x = np.asarray(x, dtype=float)
            columns = x.tolist() if x.ndim == 1 else np.moveaxis(x, -1, 0)
            return plain_dot(cov, columns) + offset

        def gradient(x):
            # a batch shares one read-only row
            return np.array(cov) if np.ndim(x) == 1 else np.broadcast_to(cov, np.shape(x))

        if dim == 2:
            c0, c1 = cov

            def read(x):
                return c0 * x[0] + c1 * x[1] + offset, cov, norm   # as plain_dot(cov, x) rounds
        else:
            (c0,) = cov

            def read(x):
                return c0 * x[0] + offset, cov, norm

        return cls(name, value, gradient,
                   lambda x: np.zeros(np.shape(x)[:-1] + (dim, dim)), read)

    @classmethod
    def circle(cls, name: str, radius: float, inner: bool = False) -> "BoundaryConstraint":
        """b(x) = s (|x|^2 - radius^2) in the plane, where s = 1 keeps the disk
        about the origin and s = -1 (`inner`) the outside of the circle.

        One point is read in float arithmetic, a batch elementwise with the
        same operations, so the two give the same bits.
        """
        r2 = float(radius) * float(radius)
        s = -1.0 if inner else 1.0
        s2 = s * 2.0
        sqrt = math.sqrt

        def read(x):
            u, v = x
            g0, g1 = s2 * u, s2 * v
            return s * (u * u + v * v - r2), [g0, g1], sqrt(g0 * g0 + g1 * g1)

        def value(x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return read(x.tolist())[0]
            u, v = x[..., 0], x[..., 1]
            return s * (u * u + v * v - r2)

        def gradient(x):
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return np.array(read(x.tolist())[1])
            return s2 * x

        def hessian(x):
            return np.broadcast_to(s2 * np.eye(2), np.shape(x)[:-1] + (2, 2)).copy()

        return cls(name, value, gradient, hessian, read)


def _callable_reader(value: Callable[[Array], Array],
                     gradient: Callable[[Array], Array]) -> WallReader:
    """`BoundaryConstraint.read` through a constraint's callables."""
    def read(x):
        point = np.array(x, dtype=float)
        b = float(value(point))
        cov = np.asarray(gradient(point), dtype=float).tolist()
        return b, cov, math.sqrt(plain_dot(cov, cov))
    return read


@dataclass(frozen=True)
class Deck:
    """The deck map (u, v) -> (u + period, flip * v)."""

    period: float
    flip: int

    def __post_init__(self):
        if self.flip not in (-1, 1):
            raise ValueError("flip must be +1 or -1")
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"deck period {self.period} is not finite and positive")


@dataclass(frozen=True)
class Chart:
    """A box cut out by boundary constraints, optionally glued by a deck map,
    with a Riemannian metric.

    With a deck map the box's first axis is one period, [0, period), and the
    canonical form of a point is its deck image there.  `metric` gives the
    metric's matrix at a point; None is the Euclidean metric.
    """

    dim: int
    box: tuple[tuple[float, float], ...]
    constraints: tuple[BoundaryConstraint, ...]
    deck: Deck | None = None
    metric: Callable[[Array], Array] | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if len(self.box) != self.dim:
            raise ValueError("box must have one (lo, hi) pair per axis")
        for axis, (lo, hi) in enumerate(self.box):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"box axis {axis} ({lo}, {hi}) is not a finite "
                                 "interval with lo < hi")
        if self.deck is not None:
            if self.dim != 2:
                raise ValueError("a deck map needs dimension 2")
            if tuple(self.box[0]) != (0.0, self.deck.period):
                raise ValueError(f"a deck map of period {self.deck.period} needs "
                                 f"the first box axis (0.0, {self.deck.period})")

    @classmethod
    def strip(cls, period: float, v_min: float, v_max: float, flip: int) -> "Chart":
        """The strip R x [v_min, v_max] glued by (u, v) -> (u + period, flip * v)."""
        if flip == -1 and abs(v_min + v_max) > 1e-15:
            raise ValueError("flip = -1 requires v_min = -v_max")
        walls = (BoundaryConstraint.linear("v_min", (0.0, -1.0), v_min),
                 BoundaryConstraint.linear("v_max", (0.0, 1.0), -v_max))
        return cls(2, ((0.0, period), (v_min, v_max)), walls, Deck(period, flip))


def deck_sign(chart: Chart, k: int) -> int:
    return 1 if k % 2 == 0 else chart.deck.flip


def deck_apply(chart: Chart, k: int, xy: Array) -> Array:
    """k-fold deck transformation applied to raw strip coordinates: a point,
    or each row of an array of points."""
    out = np.array(xy, dtype=float)
    if k:
        out[..., 0] += k * chart.deck.period
        out[..., 1] *= deck_sign(chart, k)
    return out


def deck_reduce(chart: Chart, x: Array) -> Array:
    """Each row of x moved into [0, period) by a deck power: floor(u / period),
    plus one where the move rounds onto the period, less one where it rounds
    below 0.  Without a deck map the rows are x itself."""
    if chart.deck is None:
        return x
    period, flip = chart.deck.period, float(chart.deck.flip)
    k = np.floor(x[:, 0] / period)
    # an infinite u gives a NaN row, which the box check then puts outside
    with np.errstate(invalid="ignore"):
        canon = np.stack([x[:, 0] + -k * period,
                          x[:, 1] * np.where(k % 2 == 0, 1.0, flip)], axis=1)
    for step in (1.0, -1.0):
        wrapped = canon[:, 0] >= period if step > 0.0 else canon[:, 0] < 0.0
        canon[wrapped, 0] -= step * period
        canon[wrapped, 1] *= flip
    return canon


def active_constraint(chart: Chart, x: Array,
                      tol: Tolerances = DEFAULT) -> BoundaryConstraint | None:
    """The constraint whose wall passes through x (|b| <= tol_geom), or None.

    Raises AmbiguousBoundary when two constraints are active at once (corner).
    """
    active = [con for con in chart.constraints if abs(float(con.value(x))) <= tol.tol_geom]
    if len(active) > 1:
        raise AmbiguousBoundary(f"constraints {[c.name for c in active]} all active")
    return active[0] if active else None


def normalize_point(chart: Chart, raw: Sequence[float],
                    tol: Tolerances = DEFAULT) -> Array:
    """Canonical coordinates of raw coordinates (with a deck map, u in
    [0, period)), as a new float array.

    Raises PointOutsideManifold when the input does not lie on the manifold.
    """
    x = np.array(raw, dtype=float)
    if x.shape != (chart.dim,):
        raise ValueError("wrong coordinate length")
    x = deck_reduce(chart, x[None])[0]
    for axis, (lo, hi) in enumerate(chart.box):
        if not lo - tol.tol_geom <= x[axis] <= hi + tol.tol_geom:  # NaN is outside
            raise PointOutsideManifold(f"axis {axis} outside box")
    for con in chart.constraints:
        if float(con.value(x)) > tol.tol_geom:
            raise PointOutsideManifold(f"constraint {con.name} positive")
    return x


def chart_distance(chart: Chart, a: Sequence[float], b: Sequence[float]) -> float:
    """Distance between two raw coordinate tuples, minimized over deck images."""
    return coords_distance(chart, np.asarray(a, dtype=float).tolist(),
                           np.asarray(b, dtype=float).tolist())


def coords_distance(chart: Chart, a: list[float], b: list[float]) -> float:
    """`chart_distance` of two coordinate lists, in float arithmetic with the
    operations of `chart_distance_many`."""
    if chart.deck is None:
        d0, d1 = a[0] - b[0], (a[1] - b[1] if len(a) == 2 else 0.0)
        return math.sqrt(d0 * d0 + d1 * d1)   # d0 * d0 + 0.0 rounds as d0 * d0
    period, flip = chart.deck.period, chart.deck.flip
    (a0, a1), (b0, b1) = a, b
    best = math.inf
    shift = round((b0 - a0) / period)
    for k in (shift - 1, shift, shift + 1):
        d0 = a0 + k * period - b0
        d1 = (a1 if k % 2 == 0 else a1 * flip) - b1   # a1 * 1.0 is a1
        square = d0 * d0 + d1 * d1
        if square < best:
            best = square
    return math.sqrt(best)   # sqrt is monotone: the root of the least square


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


def chart_distance_many(chart: Chart, points: Array, b: Sequence[float]) -> Array:
    """`chart_distance` from each row of points to b, with the same bits."""
    xa = np.asarray(points, dtype=float).T
    xb = np.asarray(b, dtype=float).tolist()
    if chart.deck is None:
        d = [p - q for p, q in zip(xa, xb)]
        return np.sqrt(plain_dot(d, d))
    period, flip = chart.deck.period, float(chart.deck.flip)
    best = np.full(xa.shape[1], math.inf)
    shift = np.rint((xb[0] - xa[0]) / period)
    for k in (shift - 1, shift, shift + 1):
        d = [xa[0] + k * period - xb[0],
             xa[1] * np.where(k % 2 == 0, 1.0, flip) - xb[1]]
        best = np.minimum(best, plain_dot(d, d))
    return np.sqrt(best)   # one root of the least square, as `coords_distance`


def gap_bound(chart: Chart, radius: float, scale: float = 0.0) -> float:
    """A coordinate gap beyond which two points lie at least radius apart: the
    gap in u around the period, and in v (|v| against |v| under a flip), each
    bound the distance to every deck image from below.  The slack, 1e-9 of
    radius, the period and the larger of the box's extent and `scale` (the
    points' largest |u|, read under a deck map), is far above rounding."""
    extent = max(abs(b) for pair in chart.box for b in pair)
    period = 0.0 if chart.deck is None else chart.deck.period
    return radius + 1e-9 * (radius + period + max(extent, scale))


def near_rows(chart: Chart, points: Array, b: Sequence[float], radius: float) -> Array:
    """Indices of the rows of points whose coordinate gaps to b do not rule
    out a distance below radius (`gap_bound`).  Every other row has a
    `chart_distance_many` to b of at least radius; a row with NaN is kept."""
    x = np.asarray(points, dtype=float)
    b = np.asarray(b, dtype=float).tolist()
    gap = np.abs(x[:, 0] - b[0])
    if chart.deck is not None:
        gap %= chart.deck.period
        gap = np.minimum(gap, chart.deck.period - gap)
    if chart.dim == 2:
        folds = chart.deck is not None and chart.deck.flip == -1
        gap = np.maximum(gap, np.abs(np.abs(x[:, 1]) - abs(b[1])) if folds
                         else np.abs(x[:, 1] - b[1]))
    bound = gap_bound(chart, radius, float(np.abs(x[:, 0]).max(initial=0.0)))
    return np.flatnonzero(~(gap > bound))


def metric_matrices(chart: Chart, x: Array) -> Array | None:
    """The chart's metric matrix at each row of x, stacked; None for the
    Euclidean metric."""
    if chart.metric is None:
        return None
    rows, dim = x.shape
    return np.array([chart.metric(row) for row in x], dtype=float).reshape(rows, dim, dim)


def quadratic_forms(v: Array, g_mats: Array) -> Array:
    """`v @ g_mat @ v` for each row, with the same bits."""
    return row_dot(np.matmul(v[:, None, :], g_mats)[:, 0, :], v)


def turn_clockwise(vec: Array) -> Array:
    """A plane vector, or each row of vectors, turned a quarter clockwise:
    (v_y, -v_x)."""
    return np.stack([vec[..., 1], -vec[..., 0]], axis=-1)


def wall_frames(covectors: Array, g_mats: Array | None) -> tuple[Array, Array]:
    """The outward metric-unit normal and the metric-unit tangent of a wall
    whose covector is each row of covectors, under the metric matrices g_mats
    (None for the Euclidean metric); a zero row gives nan.

    The normal is the covector's metric dual.  The tangent is the covector
    turned clockwise, which lies in its kernel under any metric, scaled to
    metric length one; under the Euclidean metric it is the normal turned
    clockwise.  On a line the tangent is zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if g_mats is None:
            normals = covectors / np.sqrt(row_dot(covectors, covectors))[:, None]
        else:
            vec = np.linalg.solve(g_mats, covectors[:, :, None])[:, :, 0]
            normals = vec / np.sqrt(quadratic_forms(vec, g_mats))[:, None]
        if covectors.shape[1] == 1:
            return normals, np.zeros_like(normals)
        if g_mats is None:
            return normals, turn_clockwise(normals)
        turned = turn_clockwise(covectors)
        return normals, turned / np.sqrt(quadratic_forms(turned, g_mats))[:, None]


def wall_frame(chart: Chart, x: Array, covector: Array) -> tuple[Array, Array]:
    """`wall_frames` of one covector at the point x, under the chart's metric.

    Raises ValueError for a vanishing covector.
    """
    if not covector.any():
        raise ValueError("vanishing covector has no normal direction")
    normals, tangents = wall_frames(covector[None], metric_matrices(chart, x[None]))
    return normals[0], tangents[0]


def boundary_frame(chart: Chart, x: Array,
                   tol: Tolerances = DEFAULT) -> tuple[Array, Array]:
    """Outward metric-unit normal and tangent (`wall_frame`) at a boundary
    point x.

    Raises NotOnBoundary in the interior and AmbiguousBoundary at a corner.
    """
    con = active_constraint(chart, x, tol)
    if con is None:
        raise NotOnBoundary(f"{tuple(x.tolist())} is interior")
    return wall_frame(chart, x, np.asarray(con.gradient(x), dtype=float))


def boundary_frames(chart: Chart, raw: Array,
                    tol: Tolerances = DEFAULT) -> tuple[Array, Array, Array]:
    """Canonical points, outward metric-unit normals and metric-unit tangents
    of boundary points, one row per row of raw.

    The bits are those of `normalize_point` and `boundary_frame` point by
    point.  A row off the manifold, at a corner or in the interior raises what
    those raise at the first such row.
    """
    x = np.array(raw, dtype=float).reshape(-1, chart.dim)
    geom = tol.tol_geom
    canon = deck_reduce(chart, x)
    values = np.empty((len(x), len(chart.constraints)))
    for j, con in enumerate(chart.constraints):
        values[:, j] = con.value(canon)
    active = np.abs(values) <= geom
    bad = (values > geom).any(axis=1) | (active.sum(axis=1) != 1)
    for axis, (lo, hi) in enumerate(chart.box):
        bad |= (canon[:, axis] < lo - geom) | (canon[:, axis] > hi + geom)
    covectors = np.zeros_like(canon)
    for j, con in enumerate(chart.constraints):
        rows = np.flatnonzero(active[:, j] & ~bad)
        covectors[rows] = con.gradient(canon[rows])
    normals, tangents = wall_frames(covectors, metric_matrices(chart, canon))
    # `wall_frame` raises on a zero covector, where the batch divides by zero
    bad |= ~np.isfinite(normals).all(axis=1) & np.isfinite(covectors).all(axis=1)
    # rows the batch cannot vouch for take the per-point path, which raises
    for i in np.flatnonzero(bad):
        pt = normalize_point(chart, x[i], tol)
        normals[i], tangents[i] = boundary_frame(chart, pt, tol)
    return canon, normals, tangents


def nearest_wall(chart: Chart, raw: Array) -> tuple[float, Array | None]:
    """First-order distance |b| / |grad b| from raw coordinates to the
    nearest wall, and that wall's unit covector (None without a wall)."""
    x = np.asarray(raw, dtype=float)
    best, unit = math.inf, None
    for con in chart.constraints:
        g = np.asarray(con.gradient(x), dtype=float)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            continue
        d = abs(float(con.value(x))) / norm
        if d < best:
            best, unit = d, g / norm
    return best, unit


def boundary_distance(chart: Chart, raw: Array) -> float:
    """First-order distance from raw coordinates to the nearest boundary piece."""
    return nearest_wall(chart, raw)[0]
