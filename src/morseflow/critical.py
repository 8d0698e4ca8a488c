"""Locating and classifying critical points of f and of its boundary restriction.

Interior points come from a batched damped Newton iteration on grad f = 0 over
a seed grid; boundary points from a walk along each boundary component with
sign-change bracketing on the tangential derivative followed by an on-curve
Newton refinement.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateCritical, PointOutsideManifold, TypeUndetermined
from .fields import MorseField, boundary_restriction_derivatives
from .geometry import (Chart, MetricField, Point, active_constraint, boundary_distance,
                       boundary_frame, boundary_frames, chart_distance,
                       chart_distance_many, normalize_point, row_dot)
from .params import DEFAULT, Tolerances

Array = np.ndarray

INTERIOR = "interior"
BOUNDARY_N = "boundary_n"
BOUNDARY_D = "boundary_d"


def sign_fix(vec: Array) -> Array:
    """Normalize and flip so the first non-negligible coordinate is positive."""
    v = np.asarray(vec, dtype=float)
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    id: int
    point: Point
    value: float
    kind: str                 # interior / boundary_n / boundary_d
    grading: int              # Morse index, or index of f|dM (plus one on type D)
    orientation_ref: tuple[tuple[float, ...], ...]
    tangential_hessian: float = 0.0
    normal: tuple[float, ...] = ()
    tangent: tuple[float, ...] = ()

    @property
    def coords(self) -> Array:
        return self.point.array

    def frame_arrays(self) -> list[Array]:
        return [np.asarray(v, dtype=float) for v in self.orientation_ref]


@dataclass(frozen=True, eq=False)
class CriticalSet:
    dim: int
    points: tuple[CriticalPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {p.id: p for p in self.points})

    def by_id(self, ident: int) -> CriticalPoint:
        return self._by_id[ident]  # type: ignore[attr-defined]

    def generators(self, side: str) -> list[list[CriticalPoint]]:
        """Per-degree generator lists: side N keeps interior+type-N, D keeps interior+type-D."""
        keep = {INTERIOR, BOUNDARY_N if side == "N" else BOUNDARY_D}
        out: list[list[CriticalPoint]] = [[] for _ in range(self.dim + 1)]
        for p in self.points:
            if p.kind in keep:
                out[p.grading].append(p)
        return out

    def counts(self) -> list[tuple[int, int, int]]:
        """Per degree (|C_k|, |N_k|, |D_k|)."""
        out = [[0, 0, 0] for _ in range(self.dim + 1)]
        for p in self.points:
            col = {INTERIOR: 0, BOUNDARY_N: 1, BOUNDARY_D: 2}[p.kind]
            out[p.grading][col] += 1
        return [tuple(row) for row in out]


# ---------------------------------------------------------------------------
# interior search


def _seed_grid(chart: Chart, density: int) -> Array:
    axes = [np.linspace(lo, hi, density) for lo, hi in chart.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, chart.dim)


def find_interior_critical(field: MorseField, chart: Chart,
                           tol: Tolerances = DEFAULT) -> list[CriticalPoint]:
    """Newton search for zeros of grad f; classified by hessian signature.

    Returned points carry provisional ids (-1); assembly assigns final ones.
    """
    dim = chart.dim
    x = _seed_grid(chart, tol.seed_grid_density)
    alive = np.ones(len(x), dtype=bool)
    grad = np.asarray(field.gradient(x), dtype=float).reshape(len(x), dim)
    gnorm = np.linalg.norm(grad, axis=1)

    spans = np.array([hi - lo for lo, hi in chart.box])
    los = np.array([lo for lo, _ in chart.box])
    his = np.array([hi for _, hi in chart.box])

    for _ in range(tol.newton_max_iter):
        work = alive & (gnorm > tol.tol_crit)
        if not work.any():
            break
        hess = np.asarray(field.hessian(x[work]), dtype=float)
        det = np.linalg.det(hess)
        singular = ~np.isfinite(det) | (np.abs(det) < 1e-14)
        hess[singular] = np.eye(dim)
        step = -np.linalg.solve(hess, grad[work][..., None])[..., 0]
        idx = np.flatnonzero(work)
        # a row with a singular hessian dies where it stands; only the others step
        alive[idx[singular]] = False
        idx, step = idx[~singular], step[~singular]
        if not len(idx):
            break  # no row moves any more

        trial = x[idx] + step
        gt = np.asarray(field.gradient(trial), dtype=float).reshape(len(trial), dim)
        worse = np.linalg.norm(gt, axis=1) > gnorm[idx]
        if worse.any():
            trial[worse] = x[idx][worse] + 0.5 * step[worse]
            gt[worse] = np.asarray(field.gradient(trial[worse]), dtype=float).reshape(-1, dim)
        x[idx] = trial
        grad[idx] = gt
        gnorm[idx] = np.linalg.norm(gt, axis=1)
        escaped = np.any((x < los - spans) | (x > his + spans), axis=1)
        alive &= ~escaped

    found: list[CriticalPoint] = []
    seeds = x[alive & (gnorm <= tol.tol_crit)]
    # most seeds converge to a point already found (the distance is taken over
    # deck images): each point found closes every seed within dedup_dist of
    # it, and the wall tests run on the open seeds only
    open_ = np.ones(len(seeds), dtype=bool)
    for i, seed in enumerate(seeds):
        if not open_[i]:
            continue
        try:
            pt = normalize_point(chart, seed, tol)
        except PointOutsideManifold:
            continue
        if boundary_distance(chart, pt.array) <= tol.tol_geom:
            continue
        hess = np.asarray(field.hessian(pt.array), dtype=float)
        if abs(float(np.linalg.det(hess))) < tol.tol_nondeg:
            raise DegenerateCritical(f"interior critical point near {pt.coords}")
        index = int(np.sum(np.linalg.eigvalsh(hess) < 0))
        found.append(CriticalPoint(
            id=-1, point=pt, value=float(field.value(pt.array)), kind=INTERIOR,
            grading=index, orientation_ref=(),
        ))
        open_[chart_distance_many(chart, seeds, pt.coords) < tol.dedup_dist] = False
    return found


# ---------------------------------------------------------------------------
# boundary walk


def _project_to_zero(con, x: Array, max_iter: int = 60) -> Array | None:
    """Newton projection onto the zero set of con, of one point or of each row
    of an array of points; None when a projection fails.

    Every row runs the one-point iteration on its own: it stops once
    |value| < 1e-13, within max_iter steps, and fails at a vanishing gradient.
    The walks project one point at a time, which a one-row batch would make
    about four times as slow.
    """
    x = np.array(x, dtype=float)
    if x.ndim == 2:
        return _project_rows(con, x, max_iter)
    for _ in range(max_iter):
        val = float(con.value(x))
        if abs(val) < 1e-13:
            return x
        grad = np.asarray(con.gradient(x), dtype=float)
        gg = float(grad @ grad)
        if gg < 1e-30:
            return None
        x = x - val * grad / gg
    return None


def _project_rows(con, x: Array, max_iter: int) -> Array | None:
    todo = np.arange(len(x))
    for _ in range(max_iter):
        val = np.asarray(con.value(x[todo]), dtype=float)
        moving = np.abs(val) >= 1e-13
        todo, val = todo[moving], val[moving]
        if not len(todo):
            return x
        grad = np.asarray(con.gradient(x[todo]), dtype=float)
        gg = row_dot(grad, grad)
        if (gg < 1e-30).any():
            return None
        x[todo] = x[todo] - val[:, None] * grad / gg[:, None]
    return None


def _uniform_arclength(polygon: Array, samples: int) -> Array:
    """`samples` points at equal arclength along a closed polygon, the first
    at its first vertex."""
    edges = np.roll(polygon, -1, axis=0) - polygon
    lengths = np.sqrt(row_dot(edges, edges))
    ends = np.cumsum(lengths)
    s = ends[-1] * np.arange(samples) / samples
    edge = np.searchsorted(ends, s, side="right")
    along = s - np.concatenate([[0.0], ends[:-1]])[edge]
    return polygon[edge] + (along / lengths[edge])[:, None] * edges[edge]


def _coarse_walk(chart: Chart, con, tol: Tolerances) -> Array | None:
    """The closed polygon of a coarse walk once round one constraint's zero
    set (steps of 2% of the chart's span, each projected onto the curve), or
    None when no start is found or the walk fails."""
    grid = _seed_grid(chart, 40)
    vals = np.abs(np.asarray(con.value(grid), dtype=float))
    order = np.argsort(vals)
    start = None
    for i in order[:200]:
        cand = _project_to_zero(con, grid[i])
        if cand is None:
            continue
        inside_box = all(lo - 1e-9 <= cand[a] <= hi + 1e-9
                         for a, (lo, hi) in enumerate(chart.box))
        others_ok = all(float(c.value(cand)) <= tol.tol_geom
                        for c in chart.constraints if c is not con)
        if inside_box and others_ok:
            start = cand
            break
    if start is None:
        return None

    step = 0.02 * max(hi - lo for lo, hi in chart.box)
    walk = [start]
    x = start
    for _ in range(20000):
        grad = np.asarray(con.gradient(x), dtype=float)
        normal = grad / np.linalg.norm(grad)
        tangent = np.array([normal[1], -normal[0]])
        nxt = _project_to_zero(con, x + step * tangent)
        if nxt is None:
            return None
        if len(walk) > 5 and float(np.linalg.norm(nxt - start)) < 0.6 * step:
            break
        walk.append(nxt)
        x = nxt
    else:
        return None
    return np.array(walk)


def _trace_region_loop(con, polygon: Array, samples: int) -> Array:
    """Ordered closed loop of `samples` points on one constraint's zero set,
    spaced evenly in arclength along its coarse walk's polygon and projected
    onto the curve in one batch.  Should the batch fail to converge, the
    walk's own points are the loop.
    """
    loop = _project_to_zero(con, _uniform_arclength(polygon, samples))
    return polygon if loop is None else loop


def boundary_walks(chart: Chart, tol: Tolerances = DEFAULT) -> tuple[Array | None, ...]:
    """The coarse walk of each constraint of a surface chart without a deck
    map, in the constraints' order (None where the walk fails); other charts
    take their loops without a walk and have none.

    A walk depends only on the chart, the constraint and the tolerances, so
    one analysis walks each wall once and spaces every loop it needs, at any
    sample count, along the same walk.
    """
    if chart.dim == 1 or chart.deck is not None:
        return ()
    return tuple(_coarse_walk(chart, con, tol) for con in chart.constraints)


def boundary_loop_count(chart: Chart) -> int:
    """The number of loops `boundary_components` returns: one per wall, but
    the deck map with flip = -1 joins the strip's two walls into one."""
    joined = chart.deck is not None and chart.deck.flip == -1
    return max(1, len(chart.constraints) - joined)


def boundary_components(chart: Chart, samples: int | None = None,
                        tol: Tolerances = DEFAULT,
                        walks: tuple[Array | None, ...] | None = None) -> list[Array]:
    """Ordered sample loops covering every boundary component, `samples`
    points each.  `walks` is `boundary_walks(chart, tol)`, taken here when
    not given."""
    samples = samples or tol.boundary_samples
    if chart.deck is not None:
        # the strip's walls are the lines v = lo and v = hi over one period
        joined = chart.deck.flip == -1
        per_wall = samples // 2 if joined else samples
        us = np.linspace(0.0, chart.deck.period, max(per_wall, 8), endpoint=False)
        (lo, hi) = chart.box[1]
        top = np.stack([us, np.full_like(us, hi)], axis=-1)
        bottom = np.stack([us, np.full_like(us, lo)], axis=-1)
        if joined:
            return [np.concatenate([top, bottom], axis=0)]
        return [top, bottom]
    if chart.dim == 1:
        out = []
        for con in chart.constraints:
            grid = _seed_grid(chart, 64)
            vals = np.abs(np.asarray(con.value(grid), dtype=float))
            cand = _project_to_zero(con, grid[int(np.argmin(vals))])
            if cand is not None:
                out.append(cand.reshape(1, 1))
        return out
    if walks is None:
        walks = boundary_walks(chart, tol)
    return [_trace_region_loop(con, polygon, samples)
            for con, polygon in zip(chart.constraints, walks) if polygon is not None]


def _refine_on_boundary(field: MorseField, chart: Chart, x0: Array,
                        metric: MetricField | None, tol: Tolerances,
                        max_move: float) -> Array | None:
    """Newton on the tangential derivative, staying on the boundary curve."""
    x = np.array(x0, dtype=float)
    pt = normalize_point(chart, x, tol)
    # the walk moves in chart arclength, so convert the metric-frame Newton
    # step by the euclidean length of the metric-unit tangent
    _, _, tangent = boundary_frame(chart, pt, metric, tol)
    t_len = float(np.linalg.norm(tangent))
    g_t, h_t = boundary_restriction_derivatives(field, chart, pt, metric, tol)
    for _ in range(tol.newton_max_iter):
        if abs(g_t) < tol.tol_crit:
            return pt.array
        if abs(h_t) < 1e-14:
            return None
        delta = float(np.clip(-g_t / h_t * t_len, -max_move, max_move))
        while True:
            cand = _boundary_step(chart, pt.array, delta, tol)
            if cand is None:
                return None
            try:
                cand_pt = normalize_point(chart, cand, tol)
            except PointOutsideManifold:
                cand_pt = None
            if cand_pt is not None:
                g_new, h_new = boundary_restriction_derivatives(
                    field, chart, cand_pt, metric, tol)
                if abs(g_new) < 0.7 * abs(g_t):
                    pt, g_t, h_t = cand_pt, g_new, h_new
                    break
            delta *= 0.5
            if abs(delta) < 1e-16:
                return None  # the line search failed
    return pt.array if abs(g_t) < tol.tol_crit else None


def _boundary_step(chart: Chart, x: Array, delta: float,
                   tol: Tolerances = DEFAULT) -> Array | None:
    """Move arclength delta along the wall through x (t = (n_y, -n_x))."""
    con = active_constraint(chart, x, tol)
    if con is None:
        return None
    grad = np.asarray(con.gradient(x), dtype=float)
    normal = grad / np.linalg.norm(grad)
    tangent = np.array([normal[1], -normal[0]])
    return _project_to_zero(con, x + delta * tangent)


def _walk_slopes(field: MorseField, chart: Chart, loop: Array,
                 metric: MetricField | None, tol: Tolerances) -> Array:
    """g_t of `boundary_restriction_derivatives` at every point of a boundary
    loop in one batch, signed along the direction the loop is walked.

    The strip's walls are walked towards +u, against the frame tangent of
    the lower wall; on the flip = -1 circle that reversal falls at the seams,
    where the frame's g_t would change sign without a critical point.
    """
    points, normals, _ = boundary_frames(chart, loop, metric, tol)
    tangents = np.stack([normals[:, 1], -normals[:, 0]], axis=1)
    g_t = row_dot(np.asarray(field.gradient(points), dtype=float), tangents)
    if chart.deck is not None:
        return np.where(tangents[:, 0] < 0.0, -g_t, g_t)
    return g_t


def find_boundary_critical(field: MorseField, chart: Chart,
                           metric: MetricField | None = None,
                           tol: Tolerances = DEFAULT,
                           walks: tuple[Array | None, ...] | None = None,
                           ) -> list[CriticalPoint]:
    """Critical points of the boundary restriction, classified by type and
    index.  `walks` is `boundary_walks(chart, tol)`, taken here when not
    given."""
    if chart.dim == 1:
        return _boundary_critical_1d(field, chart, metric, tol)
    found: list[Array] = []
    for loop in boundary_components(chart, tol.boundary_samples, tol, walks):
        n_pts = len(loop)
        g_vals = _walk_slopes(field, chart, loop, metric, tol)
        typical_step = float(np.linalg.norm(loop[1] - loop[0])) if n_pts > 1 else 0.1
        candidates = []
        for i in range(n_pts):
            j = (i + 1) % n_pts
            if g_vals[i] == 0.0 or g_vals[i] * g_vals[j] < 0.0:
                candidates.append(loop[i])
            elif abs(g_vals[i]) < 1e-12:
                candidates.append(loop[i])
        for cand in candidates:
            refined = _refine_on_boundary(field, chart, cand, metric, tol,
                                          max_move=4 * typical_step)
            if refined is None:
                continue
            if any(chart_distance(chart, refined, q) < tol.dedup_dist for q in found):
                continue
            found.append(refined)
    return [_classify_boundary(field, chart, x, metric, tol) for x in found]


def _boundary_critical_1d(field, chart, metric, tol) -> list[CriticalPoint]:
    out = []
    for pts in boundary_components(chart, None, tol):
        x = pts[0]
        out.append(_classify_boundary(field, chart, x, metric, tol))
    return out


def _classify_boundary(field: MorseField, chart: Chart, x: Array,
                       metric: MetricField | None, tol: Tolerances) -> CriticalPoint:
    pt = normalize_point(chart, x, tol)
    _, normal, tangent = boundary_frame(chart, pt, metric, tol)
    grad = np.asarray(field.gradient(pt.array), dtype=float)
    nu = float(grad @ normal)
    if abs(nu) <= tol.tol_type:
        raise TypeUndetermined(f"<df, n> = {nu:.2e} at {pt.coords}")
    if chart.dim == 2:
        _, h_t = boundary_restriction_derivatives(field, chart, pt, metric, tol)
        if abs(h_t) < tol.tol_nondeg:
            raise DegenerateCritical(f"boundary restriction degenerate at {pt.coords}")
        b_index = 0 if h_t > 0 else 1
    else:
        h_t = 0.0
        b_index = 0
    if nu < 0:
        kind, grading = BOUNDARY_N, b_index
    else:
        kind, grading = BOUNDARY_D, b_index + 1
    return CriticalPoint(
        id=-1, point=pt, value=float(field.value(pt.array)), kind=kind,
        grading=grading, orientation_ref=(), tangential_hessian=h_t,
        normal=tuple(float(c) for c in normal),
        tangent=tuple(float(c) for c in tangent),
    )


# ---------------------------------------------------------------------------
# assembly


def _orientation_frame(field: MorseField, cp: CriticalPoint, dim: int) -> tuple:
    """The chosen orientation of cp's unstable manifold: the descent
    eigenvectors of an interior point, the tangent of a grading-one type-N
    point.  A type-D point is no zero of the descent field and has none."""
    if cp.kind == INTERIOR:
        hess = np.asarray(field.hessian(cp.coords), dtype=float)
        eigvals, eigvecs = np.linalg.eigh(hess)
        frame = [sign_fix(eigvecs[:, i]) for i in range(dim) if eigvals[i] < 0]
    elif cp.kind == BOUNDARY_N and cp.grading == 1:
        frame = [sign_fix(np.asarray(cp.tangent))]
    else:
        frame = []
    return tuple(tuple(float(c) for c in v) for v in frame)


def find_critical_set(field: MorseField, chart: Chart,
                      metric: MetricField | None = None,
                      tol: Tolerances = DEFAULT,
                      walks: tuple[Array | None, ...] | None = None) -> CriticalSet:
    """Every critical point of f and of its boundary restriction, with ids in
    order of value.  The sort is stable, so points of equal value (the lifts
    of one point to a cyclic cover) keep the searches' order, interior points
    first.  `walks` is `boundary_walks(chart, tol)`, taken here when not given."""
    interior = find_interior_critical(field, chart, tol=tol)
    boundary = find_boundary_critical(field, chart, metric=metric, tol=tol, walks=walks)
    out = []
    for ident, cp in enumerate(sorted(interior + boundary, key=lambda p: p.value)):
        cp = replace(cp, id=ident)
        cp = replace(cp, orientation_ref=_orientation_frame(field, cp, chart.dim))
        out.append(cp)
    return CriticalSet(chart.dim, tuple(out))


_NEGATED_KIND = {INTERIOR: INTERIOR, BOUNDARY_N: BOUNDARY_D, BOUNDARY_D: BOUNDARY_N}


def reclassify_negated(crit: CriticalSet, field: MorseField,
                       chart: Chart) -> CriticalSet:
    """Critical data of -f: same points and ids, value -value, grading
    n - grading, N and D swapped, tangential hessian negated.

    On the boundary the index i of f|dM becomes n - 1 - i, and the type-D
    side adds one, so the grading is n minus the old one there too.
    """
    dim = crit.dim
    neg = field.negated()
    out = []
    for cp in crit.points:
        new = replace(cp, value=-cp.value, kind=_NEGATED_KIND[cp.kind],
                      grading=dim - cp.grading,
                      tangential_hessian=-cp.tangential_hessian)
        out.append(replace(new, orientation_ref=_orientation_frame(neg, new, dim)))
    out.sort(key=lambda p: p.value)
    return CriticalSet(dim, tuple(out))
