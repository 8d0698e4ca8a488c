"""Construction of descent fields adapted to the boundary, with certification.

The assembled field blends three pieces: the metric gradient descent in the
bulk, a collar correction that replaces the outward normal component with a
capped inward push, and exact model fields in patches around the boundary
tangency points.  Every build is certified by sampling; failed builds retry
with halved radii before giving up.

The field has two evaluators that return the same bits: certification
evaluates its samples in batches (`PseudoGradientField.evaluate_many`), and
the flow integrator evaluates point by point (`PseudoGradientField.evaluate`),
where a one-row batch would cost several times as much.  The wall samples
depend only on the chart, the metric and the tolerances, so one analysis
traces the boundary loops once (`trace_wall`) and certifies every field it
builds from that trace.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .critical import (BOUNDARY_N, CriticalPoint, CriticalSet, _project_to_zero,
                       boundary_components, reclassify_negated)
from .errors import BlendGapFailure
from .fields import MorseField
from .geometry import (ChartModel, MetricField, QuotientChart, RegionChart,
                       boundary_data, boundary_distance, boundary_distance_many,
                       chart_distance, chart_distance_many, deck_apply, deck_sign,
                       metric_normal, normalize_point, row_dot)
from .params import DEFAULT, Tolerances

Array = np.ndarray


def smoothstep(s: float) -> float:
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return s * s * (3.0 - 2.0 * s)


def _smoothstep_many(s: Array) -> Array:
    return np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, s * s * (3.0 - 2.0 * s)))


def halton_sequence(count: int, dim: int, skip: int = 20) -> Array:
    """Low-discrepancy points in the unit cube (radical inverse, bases 2/3/5)."""
    bases = (2, 3, 5)[:dim]
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.zeros((count, dim))
    for d, b in enumerate(bases):
        i = idx.copy()
        f = 1.0
        r = np.zeros(count)
        while i.max() > 0:
            f /= b
            r += f * (i % b)
            i //= b
        out[:, d] = r
    return out


# ---------------------------------------------------------------------------
# patches


@dataclass(frozen=True, eq=False)
class TangencyPatch:
    """Exact model field data around one boundary tangency point."""

    center: Array                   # canonical coordinates of the type-N point
    tangent: Array                  # unit boundary tangent at the center
    h: float                        # arclength second derivative of the restriction
    kind: str                       # "constraint" | "v_min" | "v_max"
    constraint_name: str
    grad_norm_at_center: float

    def local_coords(self, chart: ChartModel, x: Array) -> tuple[float, float]:
        delta = x - self.center
        if isinstance(chart, QuotientChart):
            delta[0] -= chart.period * round(delta[0] / chart.period)
        y = float(delta @ self.tangent) if len(x) > 1 else 0.0
        z = self._depth(chart, x)
        return y, z

    def _depth(self, chart: ChartModel, x: Array) -> float:
        if self.kind == "v_min":
            return float(x[1] - chart.v_min)
        if self.kind == "v_max":
            return float(chart.v_max - x[1])
        con = _constraint_by_name(chart, self.constraint_name)
        return -float(con.value(x)) / self.grad_norm_at_center

    def jacobian(self, chart: ChartModel, x: Array) -> Array:
        dim = len(x)
        if dim == 1:
            con = _constraint_by_name(chart, self.constraint_name)
            dz = -np.asarray(con.gradient(x), dtype=float) / self.grad_norm_at_center
            return dz.reshape(1, 1)
        if self.kind == "v_min":
            dz = np.array([0.0, 1.0])
        elif self.kind == "v_max":
            dz = np.array([0.0, -1.0])
        else:
            con = _constraint_by_name(chart, self.constraint_name)
            dz = -np.asarray(con.gradient(x), dtype=float) / self.grad_norm_at_center
        return np.stack([self.tangent, dz])

    def model_vector(self, chart: ChartModel, x: Array) -> Array:
        """Pullback of (y, z) -> (-h*y, -z) through the local coordinates."""
        y, z = self.local_coords(chart, x)
        jac = self.jacobian(chart, x)
        if len(x) == 1:
            return np.array([-z / jac[0, 0]])
        a, b = jac[0]
        c, d = jac[1]
        det = a * d - b * c
        my, mz = -self.h * y, -z
        return np.array([(d * my - b * mz) / det, (a * mz - c * my) / det])

    def model_vectors(self, chart: ChartModel, x: Array) -> Array:
        """`model_vector` at each row of x, with the same bits."""
        if self.kind == "v_min":
            z, dz = x[:, 1] - chart.v_min, np.array([0.0, 1.0])
        elif self.kind == "v_max":
            z, dz = chart.v_max - x[:, 1], np.array([0.0, -1.0])
        else:
            con = _constraint_by_name(chart, self.constraint_name)
            z = -np.asarray(con.value(x), dtype=float) / self.grad_norm_at_center
            dz = -np.asarray(con.gradient(x), dtype=float) / self.grad_norm_at_center
        if x.shape[1] == 1:
            return (-z / dz[:, 0])[:, None]
        delta = x - self.center
        if isinstance(chart, QuotientChart):
            delta[:, 0] -= chart.period * np.rint(delta[:, 0] / chart.period)
        y = row_dot(delta, self.tangent)
        a, b = self.tangent
        c, d = dz[..., 0], dz[..., 1]
        det = a * d - b * c
        my, mz = -self.h * y, -z
        return np.stack([(d * my - b * mz) / det, (a * mz - c * my) / det], axis=1)


def _constraint_by_name(chart: RegionChart, name: str):
    for con in chart.constraints:
        if con.name == name:
            return con
    raise KeyError(name)


def _project_to_boundary(chart: ChartModel, cp, x: Array) -> Array:
    """Project a near-boundary launch point onto cp's boundary piece."""
    if isinstance(chart, QuotientChart):
        out = np.array(x, dtype=float)
        out[1] = cp.coords[1]
        return out
    con = _constraint_by_name(chart, cp.constraint)
    proj = _project_to_zero(con, x)
    return x if proj is None else proj


def _make_patch(chart: ChartModel, cp: CriticalPoint) -> TangencyPatch:
    x = cp.coords
    if isinstance(chart, QuotientChart):
        kind = "v_min" if abs(x[1] - chart.v_min) < abs(x[1] - chart.v_max) else "v_max"
        return TangencyPatch(center=x, tangent=np.asarray(cp.tangent, dtype=float),
                             h=cp.tangential_hessian, kind=kind,
                             constraint_name="", grad_norm_at_center=1.0)
    con = _constraint_by_name(chart, cp.constraint)
    gnorm = float(np.linalg.norm(np.asarray(con.gradient(x), dtype=float)))
    tangent = (np.asarray(cp.tangent, dtype=float) if chart.dim == 2
               else np.zeros(1))
    return TangencyPatch(center=x, tangent=tangent, h=cp.tangential_hessian,
                         kind="constraint", constraint_name=cp.constraint,
                         grad_norm_at_center=gnorm)


# ---------------------------------------------------------------------------
# collar


def _collar_pieces(chart: ChartModel):
    if isinstance(chart, QuotientChart):
        return ("v_min", "v_max")
    return chart.constraints


_E_DOWN = np.array([0.0, -1.0])
_E_UP = np.array([0.0, 1.0])


def _piece_depth_normal(chart: ChartModel, metric: MetricField, piece, x: Array):
    """Signed depth (positive inside) and outward metric-unit normal for a piece."""
    if piece == "v_min":
        return float(x[1] - chart.v_min), metric_normal(metric, x, _E_DOWN)
    if piece == "v_max":
        return float(chart.v_max - x[1]), metric_normal(metric, x, _E_UP)
    grad = np.asarray(piece.gradient(x), dtype=float)
    gnorm = math.sqrt(float(grad @ grad))
    if gnorm < 1e-30:
        return math.inf, None
    if metric.identity:
        return -float(piece.value(x)) / gnorm, grad / gnorm
    return -float(piece.value(x)) / gnorm, metric_normal(metric, x, grad)


def _collar_cap(nu: float, g_t: float, tol: Tolerances) -> float:
    """Inward push magnitude keeping the descent inequality safe."""
    if nu >= 0.0:
        return tol.eps_n
    if g_t < tol.g_min:
        return 0.0
    return min(tol.eps_n, g_t * g_t / (2.0 * abs(nu)))


def _quadratic_forms(v: Array, g_mats: Array) -> Array:
    """`v @ g_mat @ v` for each row, with the same bits."""
    return row_dot(np.matmul(v[:, None, :], g_mats)[:, 0, :], v)


def _metric_normals(metric: MetricField, covectors: Array, g_mats: Array | None) -> Array:
    """`metric_normal` of each row of covectors (a zero row gives nan)."""
    if metric.identity:
        vec = covectors
        length = np.sqrt(row_dot(vec, vec))
    else:
        vec = np.linalg.solve(g_mats, covectors[:, :, None])[:, :, 0]
        length = np.sqrt(_quadratic_forms(vec, g_mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        return vec / length[:, None]


def _piece_depths_normals(chart: ChartModel, metric: MetricField, piece, x: Array,
                          g_mats: Array | None) -> tuple[Array, Array]:
    """`_piece_depth_normal` at each row of x; a row without a normal gets depth inf."""
    if piece in ("v_min", "v_max"):
        depth = x[:, 1] - chart.v_min if piece == "v_min" else chart.v_max - x[:, 1]
        wall = _E_DOWN if piece == "v_min" else _E_UP
        return depth, _metric_normals(metric, np.broadcast_to(wall, x.shape), g_mats)
    grad = np.asarray(piece.gradient(x), dtype=float)
    gnorm = np.sqrt(row_dot(grad, grad))
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = -np.asarray(piece.value(x), dtype=float) / gnorm
    depth = np.where(gnorm < 1e-30, math.inf, depth)
    return depth, _metric_normals(metric, grad, g_mats)


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class AdaptednessCertificate:
    descent_margin: float        # max of df(X) away from critical balls; want < 0
    inward_margin: float         # min inward component on the boundary; want > 0
    interior_definiteness: float  # max eigenvalue of the descent quadratic form
    tangency_definiteness: float  # max eigenvalue of the model quadratic form
    interior_samples: int
    boundary_samples: int
    r_n: float
    delta_c: float
    attempts: int

    @property
    def descent_ok(self) -> bool:
        return self.descent_margin < 0.0

    @property
    def inward_ok(self) -> bool:
        return self.inward_margin > 0.0

    @property
    def interior_ok(self) -> bool:
        return self.interior_definiteness < 0.0

    @property
    def tangency_ok(self) -> bool:
        return self.tangency_definiteness < 0.0

    @property
    def passed(self) -> bool:
        return (self.descent_ok and self.inward_ok
                and self.interior_ok and self.tangency_ok)

    def as_dict(self) -> dict:
        return {
            "descent_margin": self.descent_margin,
            "inward_margin": self.inward_margin,
            "interior_definiteness": self.interior_definiteness,
            "tangency_definiteness": self.tangency_definiteness,
            "interior_samples": self.interior_samples,
            "boundary_samples": self.boundary_samples,
            "r_n": self.r_n,
            "delta_c": self.delta_c,
            "attempts": self.attempts,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# the assembled field


@dataclass(eq=False)
class PseudoGradientField:
    chart: ChartModel
    metric: MetricField
    objective: MorseField            # the function this field descends
    crit: CriticalSet                # classified for the objective
    patches: tuple[TangencyPatch, ...]
    r_n: float
    delta_c: float
    for_negative: bool = False
    perturb_seed: int | None = None
    certificate: AdaptednessCertificate | None = None
    _perturb: _Perturbation | None = None
    tol: Tolerances = DEFAULT
    # invariant-manifold branches integrated by `flow._branches`, keyed by
    # (anchor id, reverse, tolerances); a copy made with `dataclasses.replace`
    # starts empty, since its critical points may differ
    _branch_memo: dict = dataclass_field(default_factory=dict, init=False,
                                         repr=False)

    def evaluate(self, raw) -> Array:
        """Field vector at raw coordinates (deck-equivariant on quotient charts)."""
        x = np.asarray(raw, dtype=float)
        if isinstance(self.chart, QuotientChart):
            k = int(math.floor(x[0] / self.chart.period))
            canon = deck_apply(self.chart, -k, x)
            vec = self._eval_canonical(canon)
            if deck_sign(self.chart, k) == -1:
                vec = vec.copy()
                vec[1] = -vec[1]
            return vec
        return self._eval_canonical(x)

    def __call__(self, raw) -> Array:
        return self.evaluate(raw)

    def evaluate_many(self, points) -> Array:
        """`evaluate` at each row of points in one vectorised pass, with the same bits."""
        x = np.array(points, dtype=float).reshape(-1, self.chart.dim)
        if not isinstance(self.chart, QuotientChart):
            return self._eval_canonical_many(x)
        k = np.floor(x[:, 0] / self.chart.period)
        flip = (k % 2 != 0) & (self.chart.flip == -1)
        x[:, 0] += -k * self.chart.period
        x[flip, 1] *= -1.0
        vec = self._eval_canonical_many(x)
        vec[flip, 1] = -vec[flip, 1]
        return vec

    def _eval_canonical(self, x: Array) -> Array:
        grad = np.asarray(self.objective.gradient(x), dtype=float)
        identity = self.metric.identity
        if identity:
            g_mat = None
            vec = -grad
        else:
            g_mat = np.asarray(self.metric.matrix(x), dtype=float)
            vec = -np.linalg.solve(g_mat, grad)

        # collar: replace the outward normal component near the nearest wall
        best = (math.inf, None)
        for piece in _collar_pieces(self.chart):
            depth, normal = _piece_depth_normal(self.chart, self.metric, piece, x)
            if normal is not None and depth < best[0]:
                best = (depth, normal)
        depth, normal = best
        if normal is not None and self.delta_c > 0.0 and depth < self.delta_c:
            nu = float(grad @ normal)
            tangential = vec + nu * normal
            if identity:
                g_t = math.sqrt(float(tangential @ tangential))
            else:
                g_t = math.sqrt(max(float(tangential @ g_mat @ tangential), 0.0))
            cap = _collar_cap(nu, g_t, self.tol)
            w = min(1.0, max(0.0, 1.0 - depth / self.delta_c))
            vec = vec + w * (nu - cap) * normal

        # tangency patches override everything nearby
        for patch in self.patches:
            d = chart_distance(self.chart, x, patch.center)
            if d >= self.r_n:
                continue
            chi = 1.0 - smoothstep((d - 0.5 * self.r_n) / (0.5 * self.r_n))
            if chi > 0.0:
                vec = (1.0 - chi) * vec + chi * patch.model_vector(self.chart, x)
            break

        if self._perturb is not None:
            vec = vec + self._perturb(x)
        return vec

    def _eval_canonical_many(self, x: Array) -> Array:
        """`_eval_canonical` at each row of x, piece by piece."""
        grad = np.asarray(self.objective.gradient(x), dtype=float)
        identity = self.metric.identity
        if identity:
            g_mats = None
            vec = -grad
        else:
            g_mats = np.array([self.metric.matrix(row) for row in x],
                              dtype=float).reshape(len(x), x.shape[1], x.shape[1])
            vec = -np.linalg.solve(g_mats, grad[:, :, None])[:, :, 0]

        # collar at the nearest wall; on a tie the first piece wins, as in
        # `_eval_canonical`
        depth = np.full(len(x), math.inf)
        normal = np.zeros_like(x)
        for piece in _collar_pieces(self.chart):
            piece_depth, piece_normal = _piece_depths_normals(
                self.chart, self.metric, piece, x, g_mats)
            closer = piece_depth < depth
            depth = np.where(closer, piece_depth, depth)
            normal[closer] = piece_normal[closer]
        if self.delta_c > 0.0:
            i = np.flatnonzero(depth < self.delta_c)
            nrm = normal[i]
            nu = row_dot(grad[i], nrm)
            tangential = vec[i] + nu[:, None] * nrm
            if identity:
                g_t = np.sqrt(row_dot(tangential, tangential))
            else:
                g_t = np.sqrt(np.maximum(_quadratic_forms(tangential, g_mats[i]), 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                soft = np.minimum(self.tol.eps_n, g_t * g_t / (2.0 * np.abs(nu)))
            cap = np.where(nu >= 0.0, self.tol.eps_n,
                           np.where(g_t < self.tol.g_min, 0.0, soft))
            w = np.minimum(1.0, np.maximum(0.0, 1.0 - depth[i] / self.delta_c))
            vec[i] = vec[i] + (w * (nu - cap))[:, None] * nrm

        # the first patch within r_n claims a point, even where its blend is zero
        free = np.ones(len(x), dtype=bool)
        for patch in self.patches:
            d = chart_distance_many(self.chart, x, patch.center)
            i = np.flatnonzero(free & (d < self.r_n))
            free[i] = False
            chi = 1.0 - _smoothstep_many((d[i] - 0.5 * self.r_n) / (0.5 * self.r_n))
            i, chi = i[chi > 0.0], chi[chi > 0.0]
            vec[i] = ((1.0 - chi)[:, None] * vec[i]
                      + chi[:, None] * patch.model_vectors(self.chart, x[i]))

        if self._perturb is not None:
            vec = vec + self._perturb.many(x)
        return vec

    def linearization(self, at: Array, step: float = 1e-6) -> Array:
        """Central-difference jacobian of the field at a point."""
        x = np.asarray(at, dtype=float)
        dim = len(x)
        out = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = step
            out[:, j] = (self.evaluate(x + e) - self.evaluate(x - e)) / (2 * step)
        return out

    def patch_for(self, cp: CriticalPoint) -> TangencyPatch | None:
        for patch in self.patches:
            if chart_distance(self.chart, patch.center, cp.coords) < 1e-9:
                return patch
        return None


class _Perturbation:
    """Seeded smooth bump field vanishing near the boundary, the critical points,
    and (on quotient charts) the gluing seam, so adaptedness margins survive.

    The waves, phases and signs are drawn once; the per-point call and `many`
    both use them.
    """

    def __init__(self, chart: ChartModel, crit: CriticalSet, seed: int,
                 tol: Tolerances):
        rng = np.random.default_rng(seed)
        dim = chart.dim
        self.chart = chart
        self.tol = tol
        self.waves = rng.uniform(0.5, 2.5, size=(dim, dim))
        self.phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        self.signs = rng.choice([-1.0, 1.0], size=dim)
        self.centers = [cp.coords for cp in crit.points]

    def __call__(self, x: Array) -> Array:
        chart, tol, dim = self.chart, self.tol, self.chart.dim
        env = smoothstep(boundary_distance(chart, x) / tol.delta_c)
        if env == 0.0:
            return np.zeros(dim)
        for c in self.centers:
            env *= smoothstep(chart_distance(chart, x, c) / (2.0 * tol.r_excl))
            if env == 0.0:
                return np.zeros(dim)
        if isinstance(chart, QuotientChart):
            u = x[0] % chart.period
            seam = min(u, chart.period - u)
            env *= smoothstep(seam / (0.1 * chart.period))
            if env == 0.0:
                return np.zeros(dim)
        vec = np.array([self.signs[i] * math.sin(float(self.waves[i] @ x) + self.phases[i])
                        for i in range(dim)])
        return tol.perturb_amp * env * vec

    def many(self, x: Array) -> Array:
        """The perturbation at each row of x, with the bits of the per-point call."""
        chart, tol = self.chart, self.tol
        env = _smoothstep_many(boundary_distance_many(chart, x) / tol.delta_c)
        for c in self.centers:
            env = env * _smoothstep_many(chart_distance_many(chart, x, c)
                                         / (2.0 * tol.r_excl))
        if isinstance(chart, QuotientChart):
            u = x[:, 0] % chart.period
            seam = np.minimum(u, chart.period - u)
            env = env * _smoothstep_many(seam / (0.1 * chart.period))
        phase = np.stack([row_dot(x, wave) for wave in self.waves], axis=1) + self.phases
        vec = (tol.perturb_amp * env)[:, None] * (self.signs * np.sin(phase))
        # the per-point call returns +0.0 where the envelope vanishes
        return np.where(env[:, None] == 0.0, 0.0, vec)


# ---------------------------------------------------------------------------
# certification


def _manifold_sample(chart: ChartModel, crit: CriticalSet, count: int,
                     r_excl: float, tol: Tolerances) -> Array:
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    want = count
    gathered = []
    skip = 20
    while sum(len(g) for g in gathered) < want and skip < 60 * count:
        pts = lo + (hi - lo) * halton_sequence(4 * count, chart.dim, skip=skip)
        skip += 4 * count
        mask = np.ones(len(pts), dtype=bool)
        if isinstance(chart, RegionChart):
            for con in chart.constraints:
                mask &= np.asarray(con.value(pts), dtype=float) <= 0.0
        for cp in crit.points:
            mask &= chart_distance_many(chart, pts, cp.coords) > r_excl
        gathered.append(pts[mask])
    allpts = np.concatenate(gathered, axis=0)
    return allpts[:want]


@dataclass(frozen=True, eq=False)
class WallTrace:
    """Boundary-loop samples for certification, one row per point on the wall."""

    loop_points: Array   # raw points of the traced loops
    points: Array        # their canonical coordinates
    normals: Array       # outward metric-unit normals
    g_mats: Array        # metric matrices


def trace_wall(chart: ChartModel, metric: MetricField | None,
               tol: Tolerances = DEFAULT) -> WallTrace:
    """Trace the boundary loops once for every field certified on chart and metric."""
    metric = metric or MetricField.euclidean(chart.dim)
    if isinstance(chart, QuotientChart):
        pieces = 1 if chart.flip == -1 else 2
    else:
        pieces = max(1, len(chart.constraints))
    per_loop = max(1, tol.cert_boundary_samples // pieces)
    loop_points, points, normals, g_mats = [], [], [], []
    for loop in boundary_components(chart, per_loop, tol):
        for x in loop:
            pt, _ = normalize_point(chart, x, tol)
            data = boundary_data(chart, pt, metric, tol)
            if data is None:
                continue
            loop_points.append(x)
            points.append(pt.array)
            normals.append(data[1])
            g_mats.append(np.asarray(metric.matrix(pt.array), dtype=float))
    dim = chart.dim
    return WallTrace(np.reshape(loop_points, (-1, dim)), np.reshape(points, (-1, dim)),
                     np.reshape(normals, (-1, dim)), np.reshape(g_mats, (-1, dim, dim)))


def _wall_sample(field: PseudoGradientField, tol: Tolerances,
                 wall: WallTrace | None = None) -> tuple[Array, Array, Array]:
    """Wall points outside the field's tangency patches, each with its outward
    normal and metric matrix.

    The points come from `wall`, traced here when not given; only the patch
    filter, which depends on the field's type-N points and r_n, is per build.
    """
    if wall is None:
        wall = trace_wall(field.chart, field.metric, tol)
    keep = np.ones(len(wall.loop_points), dtype=bool)
    for cp in field.crit.points:
        if cp.kind == BOUNDARY_N:
            keep &= chart_distance_many(field.chart, wall.loop_points,
                                        cp.coords) >= field.r_n
    return wall.points[keep], wall.normals[keep], wall.g_mats[keep]


def certify_adapted(field: PseudoGradientField, tol: Tolerances = DEFAULT,
                    attempts: int = 0,
                    wall: WallTrace | None = None) -> AdaptednessCertificate:
    """Sample-based check of the four adaptedness conditions.

    `wall` is `trace_wall(field.chart, field.metric, tol)`, traced here when
    not given.
    """
    chart, crit = field.chart, field.crit
    obj = field.objective
    interior = _manifold_sample(chart, crit, tol.cert_interior_samples,
                                tol.r_excl, tol)
    vecs = field.evaluate_many(interior)
    grads = np.asarray(obj.gradient(interior), dtype=float)
    descent = -math.inf
    for g, vec in zip(grads, vecs):
        descent = max(descent, float(g @ vec))

    on_wall, normals, g_mats = _wall_sample(field, tol, wall)
    inward = math.inf
    for vec, g_mat, normal in zip(field.evaluate_many(on_wall), g_mats, normals):
        inward = min(inward, -float(vec @ g_mat @ normal))

    interior_def = -math.inf
    tangency_def = -math.inf
    has_interior = False
    has_tangency = False
    for cp in crit.points:
        if cp.kind == "interior":
            has_interior = True
            lin = field.linearization(cp.coords)
            hess = np.asarray(obj.hessian(cp.coords), dtype=float)
            form = 0.5 * (hess @ lin + lin.T @ hess)
            interior_def = max(interior_def, float(np.max(np.linalg.eigvalsh(form))))
        elif cp.kind == BOUNDARY_N:
            has_tangency = True
            patch = field.patch_for(cp)
            if patch is None:
                # no model patch at a tangency point: the condition fails outright
                tangency_def = max(tangency_def, 1.0)
                continue
            lin = field.linearization(cp.coords)
            jac = patch.jacobian(chart, cp.coords)
            model_lin = jac @ lin @ np.linalg.inv(jac)
            if chart.dim == 1:
                quad = np.array([[2.0]])
            else:
                quad = np.array([[patch.h, 0.0], [0.0, 2.0]])
            form = 0.5 * (quad @ model_lin + model_lin.T @ quad)
            tangency_def = max(tangency_def, float(np.max(np.linalg.eigvalsh(form))))
    if not has_interior:
        interior_def = -1.0
    if not has_tangency:
        tangency_def = -1.0
    if inward is math.inf:
        inward = 1.0  # no boundary points outside patches to test

    return AdaptednessCertificate(
        descent_margin=descent,
        inward_margin=inward,
        interior_definiteness=interior_def,
        tangency_definiteness=tangency_def,
        interior_samples=len(interior),
        boundary_samples=len(on_wall),
        r_n=field.r_n,
        delta_c=field.delta_c,
        attempts=attempts,
    )


def build_adapted(field: MorseField, chart: ChartModel, crit: CriticalSet,
                  metric: MetricField | None = None,
                  for_negative: bool = False,
                  perturb_seed: int | None = None,
                  tol: Tolerances = DEFAULT,
                  wall: WallTrace | None = None) -> PseudoGradientField:
    """Assemble and certify a descent field for f (or for -f when requested).

    Retries with halved patch and collar radii when certification fails;
    raises BlendGapFailure when no retry passes.  `wall` is
    `trace_wall(chart, metric, tol)`, which an analysis traces once for all
    its builds; without it the build traces the wall itself.
    """
    metric = metric or MetricField.euclidean(chart.dim)
    if wall is None:
        wall = trace_wall(chart, metric, tol)
    if for_negative:
        objective = field.negated()
        crit_obj = reclassify_negated(crit, field, chart)
    else:
        objective = field
        crit_obj = crit
    patches = tuple(_make_patch(chart, cp) for cp in crit_obj.points
                    if cp.kind == BOUNDARY_N)
    perturb = (None if perturb_seed is None or perturb_seed == 0
               else _Perturbation(chart, crit_obj, perturb_seed, tol))

    last = None
    for attempt in range(tol.build_retries + 1):
        shrink = 0.5 ** attempt
        pg = PseudoGradientField(
            chart=chart, metric=metric, objective=objective, crit=crit_obj,
            patches=patches, r_n=tol.r_n * shrink, delta_c=tol.delta_c * shrink,
            for_negative=for_negative, perturb_seed=perturb_seed,
            _perturb=perturb, tol=tol,
        )
        cert = certify_adapted(pg, tol, attempts=attempt + 1, wall=wall)
        pg.certificate = cert
        if cert.passed:
            return pg
        last = cert
    raise BlendGapFailure(f"certification failed after retries: {last.as_dict()}")
