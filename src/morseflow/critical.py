"""Locating and classifying critical points of f and of its boundary restriction.

Interior points come from a batched damped Newton iteration on grad f = 0 over
a seed grid; boundary points from one trace of every boundary component
(`boundary_sample`, which the certification sample reuses) with sign-change
bracketing on the tangential derivative, read along the trace's metric-unit
tangents, followed by an on-curve Newton refinement.  The metric is the
chart's, so no search takes one beside it.  A trace walks each wall
coarsely, an Euler predictor and one Newton corrector per step, and projects
a loop spaced evenly along the walk's polygon onto the wall in one batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import (DegenerateCritical, NotOnBoundary, PointOutsideManifold,
                     SampleMismatch, TypeUndetermined)
from .fields import MorseField, boundary_restriction_derivatives
from .geometry import (Chart, active_constraint, boundary_distance, boundary_frame,
                       boundary_frames, chart_distance, chart_distance_many,
                       normalize_point, plain_dot, row_dot)
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


def _frozen(vec) -> Array:
    out = np.array(vec, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    """A critical point of f or of f|dM: canonical `coords`, the `frame`
    orienting the unstable manifold (one vector per unstable direction) and
    the boundary frame (`normal`, `tangent`; None in the interior), each kept
    as a read-only copy, since `replace` copies and tangency patches share it.
    """

    id: int
    coords: Array
    value: float
    kind: str                 # interior / boundary_n / boundary_d
    grading: int              # Morse index, or index of f|dM (plus one on type D)
    frame: tuple[Array, ...] = ()
    tangential_hessian: float = 0.0
    normal: Array | None = None
    tangent: Array | None = None

    def __post_init__(self):
        for name in ("coords", "normal", "tangent"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "frame", tuple(map(_frozen, self.frame)))


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
        if boundary_distance(chart, pt) <= tol.tol_geom:
            continue
        hess = np.asarray(field.hessian(pt), dtype=float)
        if abs(float(np.linalg.det(hess))) < tol.tol_nondeg:
            raise DegenerateCritical(f"interior critical point near {tuple(pt.tolist())}")
        index = int(np.sum(np.linalg.eigvalsh(hess) < 0))
        found.append(CriticalPoint(id=-1, coords=pt, value=float(field.value(pt)),
                                   kind=INTERIOR, grading=index))
        open_[chart_distance_many(chart, seeds, pt) < tol.dedup_dist] = False
    return found


# ---------------------------------------------------------------------------
# boundary walk


def _project_to_zero(con, x, max_iter: int = 60) -> Array | None:
    """Newton projection onto the zero set of con, of one point (a sequence
    of coordinates) or of each row of an array of points; None when a
    projection fails.

    Every row runs the one-point iteration on its own: it stops once
    |value| < 1e-13, within max_iter steps, and fails at a vanishing gradient.
    A walk's start, a wall step and a launch project one point at a time, in
    float arithmetic through `BoundaryConstraint.read`; |grad|^2 is the BLAS
    dot of the covector, as the batch takes it, so both give the same bits.
    """
    if np.ndim(x) == 2:
        return _project_rows(con, np.array(x, dtype=float), max_iter)
    xs = np.asarray(x, dtype=float).tolist()
    for _ in range(max_iter):
        val, cov, _ = con.read(xs)
        if abs(val) < 1e-13:
            return np.array(xs)
        grad = np.array(cov)
        gg = float(grad.dot(grad))
        if gg < 1e-30:
            return None
        xs = [c - val * g / gg for c, g in zip(xs, cov)]
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
    set, or None when no start is found or the walk fails.

    A predictor-corrector continuation (Allgower & Georg, Numerical
    Continuation Methods, 1990) in float arithmetic, one wall read per
    vertex: the next point is predicted a step of 2% of the chart's span on
    along the clockwise unit tangent of the last read (Euler), and the read
    there gives one Newton correction onto the curve, the next vertex, and
    the next tangent.  So the vertices after the projected start lie near
    the curve, not on it.  The walk closes when a prediction after the sixth
    vertex falls within 0.6 steps of the start.
    """
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
            start = cand.tolist()
            break
    if start is None:
        return None

    step = 0.02 * max(hi - lo for lo, hi in chart.box)
    walk = [start]
    u, v = start
    _, (c0, c1), norm = con.read(start)
    for _ in range(20000):
        u, v = u + step * (c1 / norm), v + step * -(c0 / norm)
        gap = [u - start[0], v - start[1]]
        if len(walk) > 5 and math.sqrt(plain_dot(gap, gap)) < 0.6 * step:
            return np.array(walk)
        val, (c0, c1), norm = con.read([u, v])
        gg = c0 * c0 + c1 * c1
        if gg < 1e-30:
            return None
        u, v = u - val * c0 / gg, v - val * c1 / gg
        walk.append([u, v])
    return None


def _trace_region_loop(con, polygon: Array, samples: int) -> Array:
    """Ordered closed loop of `samples` points on one constraint's zero set,
    spaced evenly in arclength along its coarse walk's polygon and projected
    onto the curve in one batch; `NotOnBoundary` when the batch fails to
    converge, since the walk's own vertices are only near the curve."""
    loop = _project_to_zero(con, _uniform_arclength(polygon, samples))
    if loop is None:
        raise NotOnBoundary(f"the loop traced on {con.name} does not project "
                            "onto the wall")
    return loop


def boundary_loop_count(chart: Chart) -> int:
    """The number of loops `boundary_components` returns: one per wall, but
    the deck map with flip = -1 joins the strip's two walls into one."""
    joined = chart.deck is not None and chart.deck.flip == -1
    return max(1, len(chart.constraints) - joined)


def boundary_components(chart: Chart, samples: int,
                        tol: Tolerances = DEFAULT) -> list[Array]:
    """Ordered sample loops covering every boundary component, `samples`
    points each."""
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
    walks = [(con, _coarse_walk(chart, con, tol)) for con in chart.constraints]
    return [_trace_region_loop(con, polygon, samples)
            for con, polygon in walks if polygon is not None]


@dataclass(frozen=True, eq=False)
class BoundarySample:
    """One trace of every boundary loop, which the critical search scans and
    the certificate tests; the points depend only on the chart (its metric
    included) and the tolerances."""

    field: MorseField    # the function whose gradients the sample holds
    wall: Array          # the traced loops, one after another, canonical
    wall_grad: Array     # its gradient at each wall point
    normals: Array       # outward metric-unit normals
    tangents: Array      # metric-unit tangents, the covector turned clockwise
    ends: tuple[int, ...]  # the row where each loop ends

    def signed(self, objective: MorseField, *grads: Array) -> tuple[Array, ...]:
        """The sample's gradients as the objective's: as they are for the
        sample's function, negated (bit for bit) for its negation; any other
        function raises `SampleMismatch`."""
        if objective is self.field:
            return grads
        if objective.negation_of is self.field:
            return tuple(-g for g in grads)
        raise SampleMismatch("the sample holds the gradients of another function "
                             "than the one asked for")


def boundary_sample(field: MorseField, chart: Chart,
                    tol: Tolerances = DEFAULT) -> BoundarySample:
    """Trace every boundary loop once, `cert_boundary_samples` points in
    all, and evaluate f's (`field`'s) gradient at each point."""
    per_loop = max(1, tol.cert_boundary_samples // boundary_loop_count(chart))
    loops = boundary_components(chart, per_loop, tol)
    wall, normals, tangents = boundary_frames(
        chart, np.concatenate(loops) if loops else np.empty((0, chart.dim)), tol)
    return BoundarySample(
        field=field, wall=wall, wall_grad=np.asarray(field.gradient(wall), dtype=float),
        normals=normals, tangents=tangents,
        ends=tuple(accumulate(len(loop) for loop in loops)))


def _refine_on_boundary(field: MorseField, chart: Chart, x0: Array,
                        tol: Tolerances, max_move: float) -> Array | None:
    """Newton on the tangential derivative, staying on the boundary curve."""
    x = np.array(x0, dtype=float)
    pt = normalize_point(chart, x, tol)
    # the walk moves in chart arclength, along the metric-unit tangent's
    # direction, so convert the metric-frame Newton step by its euclidean length
    _, tangent = boundary_frame(chart, pt, tol)
    t_len = float(np.linalg.norm(tangent))
    g_t, h_t = boundary_restriction_derivatives(field, chart, pt, tol)
    for _ in range(tol.newton_max_iter):
        if abs(g_t) < tol.tol_crit:
            return pt
        if abs(h_t) < 1e-14:
            return None
        delta = float(np.clip(-g_t / h_t * t_len, -max_move, max_move))
        while True:
            cand = _boundary_step(chart, pt, delta, tol)
            if cand is None:
                return None
            try:
                cand_pt = normalize_point(chart, cand, tol)
            except PointOutsideManifold:
                cand_pt = None
            if cand_pt is not None:
                g_new, h_new = boundary_restriction_derivatives(field, chart, cand_pt, tol)
                if abs(g_new) < 0.7 * abs(g_t):
                    pt, g_t, h_t = cand_pt, g_new, h_new
                    break
            delta *= 0.5
            if abs(delta) < 1e-16:
                return None  # the line search failed
    return pt if abs(g_t) < tol.tol_crit else None


def _wall_step(con, x, delta: float) -> Array | None:
    """x on con's zero set, moved by delta along the clockwise turn of con's
    euclidean unit normal and projected back; None when that fails.  The
    norm is the square root of the covector's BLAS dot, as `np.linalg.norm`
    takes it."""
    u, v = np.asarray(x, dtype=float).tolist()
    _, (c0, c1), _ = con.read([u, v])
    grad = np.array([c0, c1])
    norm = math.sqrt(float(grad.dot(grad)))
    return _project_to_zero(con, [u + delta * (c1 / norm), v + delta * -(c0 / norm)])


def _boundary_step(chart: Chart, x: Array, delta: float,
                   tol: Tolerances = DEFAULT) -> Array | None:
    """`_wall_step` on the wall through x; None in the interior."""
    con = active_constraint(chart, x, tol)
    return None if con is None else _wall_step(con, x, delta)


def _walk_slopes(chart: Chart, grad: Array, tangents: Array) -> Array:
    """g_t of `boundary_restriction_derivatives` at every row of a boundary
    sample in one batch, from f's gradient and the tangents there, signed
    along the direction the loop is walked.

    The strip's walls are walked towards +u, against the frame tangent of
    the lower wall; on the flip = -1 circle that reversal falls at the seams,
    where the frame's g_t would change sign without a critical point.
    """
    g_t = row_dot(grad, tangents)
    if chart.deck is not None:
        return np.where(tangents[:, 0] < 0.0, -g_t, g_t)
    return g_t


def find_boundary_critical(field: MorseField, chart: Chart,
                           tol: Tolerances = DEFAULT, *,
                           wall: BoundarySample) -> list[CriticalPoint]:
    """Critical points of the boundary restriction, classified by type and
    index.  `wall` is `boundary_sample(field, chart, tol)`.  A loop's
    point is a candidate where g_t changes sign to the next point or nearly
    vanishes; on a line every one is."""
    (grad,) = wall.signed(field, wall.wall_grad)  # another function raises
    if chart.dim == 1:
        return [_classify_boundary(field, chart, x, tol) for x in wall.wall]
    slopes = _walk_slopes(chart, grad, wall.tangents)
    found: list[Array] = []
    for start, end in zip((0, *wall.ends), wall.ends):
        loop, g_vals = wall.wall[start:end], slopes[start:end]
        typical_step = float(np.linalg.norm(loop[1] - loop[0])) if len(loop) > 1 else 0.1
        hits = (g_vals * np.roll(g_vals, -1) < 0.0) | (np.abs(g_vals) < 1e-12)
        for cand in loop[hits]:
            refined = _refine_on_boundary(field, chart, cand, tol,
                                          max_move=4 * typical_step)
            if refined is None:
                continue
            if any(chart_distance(chart, refined, q) < tol.dedup_dist for q in found):
                continue
            found.append(refined)
    return [_classify_boundary(field, chart, x, tol) for x in found]


def _classify_boundary(field: MorseField, chart: Chart, x: Array,
                       tol: Tolerances) -> CriticalPoint:
    pt = normalize_point(chart, x, tol)
    normal, tangent = boundary_frame(chart, pt, tol)
    grad = np.asarray(field.gradient(pt), dtype=float)
    nu = float(grad @ normal)
    if abs(nu) <= tol.tol_type:
        raise TypeUndetermined(f"<df, n> = {nu:.2e} at {tuple(pt.tolist())}")
    if chart.dim == 2:
        _, h_t = boundary_restriction_derivatives(field, chart, pt, tol)
        if abs(h_t) < tol.tol_nondeg:
            raise DegenerateCritical(
                f"boundary restriction degenerate at {tuple(pt.tolist())}")
        b_index = 0 if h_t > 0 else 1
    else:
        h_t = 0.0
        b_index = 0
    if nu < 0:
        kind, grading = BOUNDARY_N, b_index
    else:
        kind, grading = BOUNDARY_D, b_index + 1
    return CriticalPoint(
        id=-1, coords=pt, value=float(field.value(pt)), kind=kind, grading=grading,
        tangential_hessian=h_t, normal=normal, tangent=tangent)


# ---------------------------------------------------------------------------
# assembly


def _orientation_frame(field: MorseField, cp: CriticalPoint, dim: int) -> list[Array]:
    """The chosen orientation of cp's unstable manifold: the descent
    eigenvectors of an interior point, the tangent of a grading-one type-N
    point.  A type-D point is no zero of the descent field and has none."""
    if cp.kind == INTERIOR:
        hess = np.asarray(field.hessian(cp.coords), dtype=float)
        eigvals, eigvecs = np.linalg.eigh(hess)
        return [sign_fix(eigvecs[:, i]) for i in range(dim) if eigvals[i] < 0]
    if cp.kind == BOUNDARY_N and cp.grading == 1:
        return [sign_fix(cp.tangent)]
    return []


def find_critical_set(field: MorseField, chart: Chart,
                      tol: Tolerances = DEFAULT,
                      wall: BoundarySample | None = None) -> CriticalSet:
    """Every critical point of f and of its boundary restriction, with ids in
    order of value.  The sort is stable, so points of equal value (the lifts
    of one point to a cyclic cover) keep the searches' order, interior points
    first.  `wall` is `boundary_sample(field, chart, tol)`, drawn here when
    not given."""
    if wall is None:
        wall = boundary_sample(field, chart, tol)
    interior = find_interior_critical(field, chart, tol=tol)
    boundary = find_boundary_critical(field, chart, tol=tol, wall=wall)
    out = [replace(cp, id=ident, frame=_orientation_frame(field, cp, chart.dim))
           for ident, cp in enumerate(sorted(interior + boundary, key=lambda p: p.value))]
    return CriticalSet(chart.dim, tuple(out))


_NEGATED_KIND = {INTERIOR: INTERIOR, BOUNDARY_N: BOUNDARY_D, BOUNDARY_D: BOUNDARY_N}


def reclassify_negated(crit: CriticalSet, field: MorseField) -> CriticalSet:
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
        out.append(replace(new, frame=_orientation_frame(neg, new, dim)))
    out.sort(key=lambda p: p.value)
    return CriticalSet(dim, tuple(out))
