"""Construction of descent fields adapted to the boundary, with certification.

The assembled field blends three pieces: the metric gradient descent in the
bulk, a collar correction that replaces the outward normal component with a
capped inward push, and exact model fields in patches around the boundary
tangency points.  Every build is certified by sampling; failed builds retry
with halved radii before giving up.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .critical import (BOUNDARY_N, CriticalPoint, CriticalSet, _project_to_zero,
                       boundary_components, reclassify_negated)
from .errors import BlendGapFailure
from .fields import MorseField
from .geometry import (ChartModel, MetricField, QuotientChart, RegionChart,
                       boundary_data, boundary_distance, chart_distance, deck_apply,
                       deck_sign, metric_normal, normalize_point)
from .params import DEFAULT, Tolerances

Array = np.ndarray


def smoothstep(s: float) -> float:
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return s * s * (3.0 - 2.0 * s)


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
    _perturb: Callable[[Array], Array] | None = None
    tol: Tolerances = DEFAULT

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


def _perturbation_closure(chart: ChartModel, crit: CriticalSet, seed: int,
                          tol: Tolerances) -> Callable[[Array], Array]:
    """Seeded smooth bump field vanishing near the boundary, the critical points,
    and (on quotient charts) the gluing seam, so adaptedness margins survive."""
    rng = np.random.default_rng(seed)
    dim = chart.dim
    waves = rng.uniform(0.5, 2.5, size=(dim, dim))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    centers = [cp.coords for cp in crit.points]

    def perturb(x: Array) -> Array:
        env = smoothstep(boundary_distance(chart, x) / tol.delta_c)
        if env == 0.0:
            return np.zeros(dim)
        for c in centers:
            env *= smoothstep(chart_distance(chart, x, c) / (2.0 * tol.r_excl))
            if env == 0.0:
                return np.zeros(dim)
        if isinstance(chart, QuotientChart):
            u = x[0] % chart.period
            seam = min(u, chart.period - u)
            env *= smoothstep(seam / (0.1 * chart.period))
            if env == 0.0:
                return np.zeros(dim)
        vec = np.array([signs[i] * math.sin(float(waves[i] @ x) + phases[i])
                        for i in range(dim)])
        return tol.perturb_amp * env * vec

    return perturb


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
            mask &= _vector_chart_dist(chart, pts, cp.coords) > r_excl
        gathered.append(pts[mask])
    allpts = np.concatenate(gathered, axis=0)
    return allpts[:want]


def _vector_chart_dist(chart: ChartModel, pts: Array, center: Array) -> Array:
    c = np.asarray(center, dtype=float)
    if isinstance(chart, RegionChart):
        return np.linalg.norm(pts - c, axis=1)
    best = None
    for k in (-1, 0, 1):
        img = pts.copy()
        img[:, 0] += k * chart.period
        img[:, 1] *= deck_sign(chart, k)
        d = np.linalg.norm(img - c, axis=1)
        best = d if best is None else np.minimum(best, d)
    return best


def certify_adapted(field: PseudoGradientField, tol: Tolerances = DEFAULT,
                    attempts: int = 0) -> AdaptednessCertificate:
    """Sample-based check of the four adaptedness conditions."""
    chart, crit = field.chart, field.crit
    obj = field.objective
    interior = _manifold_sample(chart, crit, tol.cert_interior_samples,
                                tol.r_excl, tol)
    descent = -math.inf
    for x in interior:
        vec = field.evaluate(x)
        descent = max(descent, float(np.asarray(obj.gradient(x)) @ vec))

    n_pts = [cp for cp in crit.points if cp.kind == BOUNDARY_N]
    inward = math.inf
    n_boundary = 0
    if isinstance(chart, QuotientChart):
        pieces = 1 if chart.flip == -1 else 2
    else:
        pieces = max(1, len(chart.constraints))
    per_loop = max(1, tol.cert_boundary_samples // pieces)
    loops = boundary_components(chart, per_loop, tol)
    for loop in loops:
        for x in loop:
            if any(chart_distance(chart, x, cp.coords) < field.r_n for cp in n_pts):
                continue
            pt, _ = normalize_point(chart, x, tol)
            data = boundary_data(chart, pt, field.metric, tol)
            if data is None:
                continue
            _, normal = data
            g_mat = np.asarray(field.metric.matrix(pt.array), dtype=float)
            vec = field.evaluate(pt.array)
            inward = min(inward, -float(vec @ g_mat @ normal))
            n_boundary += 1

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
        boundary_samples=n_boundary,
        r_n=field.r_n,
        delta_c=field.delta_c,
        attempts=attempts,
    )


def build_adapted(field: MorseField, chart: ChartModel, crit: CriticalSet,
                  metric: MetricField | None = None,
                  for_negative: bool = False,
                  perturb_seed: int | None = None,
                  tol: Tolerances = DEFAULT) -> PseudoGradientField:
    """Assemble and certify a descent field for f (or for -f when requested).

    Retries with halved patch and collar radii when certification fails;
    raises BlendGapFailure when no retry passes.
    """
    metric = metric or MetricField.euclidean(chart.dim)
    if for_negative:
        objective = field.negated()
        crit_obj = reclassify_negated(crit, field, chart)
    else:
        objective = field
        crit_obj = crit
    patches = tuple(_make_patch(chart, cp) for cp in crit_obj.points
                    if cp.kind == BOUNDARY_N)
    perturb = (None if perturb_seed is None or perturb_seed == 0
               else _perturbation_closure(chart, crit_obj, perturb_seed, tol))

    last = None
    for attempt in range(tol.build_retries + 1):
        shrink = 0.5 ** attempt
        pg = PseudoGradientField(
            chart=chart, metric=metric, objective=objective, crit=crit_obj,
            patches=patches, r_n=tol.r_n * shrink, delta_c=tol.delta_c * shrink,
            for_negative=for_negative, perturb_seed=perturb_seed,
            _perturb=perturb, tol=tol,
        )
        cert = certify_adapted(pg, tol, attempts=attempt + 1)
        pg.certificate = cert
        if cert.passed:
            return pg
        last = cert
    raise BlendGapFailure(f"certification failed after retries: {last.as_dict()}")
