"""Construction of descent fields adapted to the boundary, with certification.

The assembled field blends three pieces: the metric gradient descent in the
bulk, a collar correction that replaces the outward normal component with a
capped inward push, and exact model fields in patches around the boundary
tangency points.  Every build is certified by sampling; failed builds retry
with halved radii before giving up.

The collar is where the nearest wall lies less than `delta_c` deep.  There
the normal component -nu of the descent, nu = <df, n> for the outward unit
normal n, becomes -nu + s (nu - cap): cap is `eps_n` where the descent points
inward (nu >= 0) and min(eps_n, g_t^2 / (2 |nu|)) where it points outward,
g_t the length of the tangential descent.  The push factor is
s = 1 - (depth / delta_c)^2, 1 on the wall and beyond it, 0 below the collar.
Any s with s = 1 on the wall and 0 <= s <= 1 keeps the field adapted, since
the cap alone gives df(X) <= -g_t^2 / 2 - (1 - s) nu^2.  The square is flat
at the wall because a branch that rides the collar, where the push balances
the descent, relaxes in the normal direction at the ramp's slope times
|nu| + cap: a slope of 1 / delta_c at the wall makes that rate 15 to 25 on
the catalog, and the integrator's stability, not its accuracy, then sets
its step.

A field derives its patches and perturbation from its eight init fields, and
only `build_adapted` certifies it.  It has two evaluators that return the
same bits: the flow integrator evaluates point by point
(`PseudoGradientField.evaluate`), where a one-row batch would cost several
times as much, and certification and the capture check evaluate in batches
(`_eval_canonical_many`) on canonical points and the gradients stored with
them.  The point evaluator is one straight-line float kernel per field
(`_point_evaluator`) around one call of the objective's gradient and of the
metric and one `BoundaryConstraint.read` per wall; the batch is handed a
`RowGeometry` of its rows, each wall read once per row through its callables
(`_pieces_many`): the certificate's from its measured sample, the capture
check's measured for its rings.

Both measure a chart distance to a patch's or a critical point's center only
where the coordinate gaps, lower bounds of the distance to every deck image,
allow it inside the radius in play (`geometry.gap_bound`).  The batch picks
those rows (`geometry.near_rows`) for the patch claim and the wall filter
(r_n), the perturbation's envelope (2 r_excl) and the interior sample's
exclusion (r_excl); the point kernel tests the gaps inline and skips a center
beyond the bound and, on a strip, a patch, without measuring its deck images.
What the bound skips lies at least that far away, so no bit changes.

Nothing here draws what it is not handed.  An analysis (`pipeline`) draws its
certification sample once (`certification_sample`): the boundary sample the
critical search scanned (`critical.boundary_sample`) and interior points,
which depend only on the chart, the metric, the critical coordinates and the
tolerances, and the analysed function's gradient at each of them.  Every
field the analysis builds (`build_adapted`, handed the side's objective and
critical set) is certified on it; the field's value and the descent test both
read the sample's gradient, negated for an ascent field, so no certification
point's gradient is evaluated twice.  The analysis also measures the sample's
rows once (`CertificationSample.measured`): their `RowGeometry` serves every
certificate it makes, and dies with the analysis, since the package keeps the
sample without it.  The perturbation is not shared: each side's critical
points, the envelope's factors, come in that side's order of value, and the
product rounds by that order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable

import numpy as np

from .critical import (BOUNDARY_D, BOUNDARY_N, INTERIOR, BoundarySample, CriticalPoint,
                       CriticalSet)
from .errors import BlendGapFailure
from .fields import MorseField, halton_sequence
from .geometry import (Chart, MetricField, active_constraint, chart_distance,
                       chart_distance_many, coords_distance, deck_reduce, gap_bound,
                       metric_matrices, near_rows, plain_dot, row_dot)
from .params import DEFAULT, Tolerances

Array = np.ndarray
_FLOAT = np.dtype(float)


def _smoothstep_many(s: Array) -> Array:
    return np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, s * s * (3.0 - 2.0 * s)))


# ---------------------------------------------------------------------------
# patches


@dataclass(frozen=True, eq=False)
class TangencyPatch:
    """Exact model field data around one boundary tangency point."""

    center: Array                   # canonical coordinates of the type-N point
    tangent: Array                  # unit boundary tangent at the center
    h: float                        # arclength second derivative of the restriction
    piece: int                      # index in `chart.constraints` of the center's wall
    grad_norm_at_center: float      # that wall's covector norm at the center

    def jacobian(self, chart: Chart, x: Array) -> Array:
        """Rows: the gradients of the local coordinates (y, z) at the point x."""
        cov = np.asarray(chart.constraints[self.piece].gradient(x[None]), dtype=float)[0]
        dz = -cov / self.grad_norm_at_center
        return dz.reshape(1, 1) if len(x) == 1 else np.stack([self.tangent, dz])


def _make_patch(chart: Chart, cp: CriticalPoint, tol: Tolerances) -> TangencyPatch:
    con = active_constraint(chart, cp.coords, tol)
    gnorm = float(np.linalg.norm(np.asarray(con.gradient(cp.coords), dtype=float)))
    return TangencyPatch(center=cp.coords, tangent=cp.tangent,
                         h=cp.tangential_hessian, piece=chart.constraints.index(con),
                         grad_norm_at_center=gnorm)


# ---------------------------------------------------------------------------
# collar


def _pieces_many(chart: Chart, x: Array):
    """(value, covector, covector norm) of each wall at each row of x, the
    batch form of `BoundaryConstraint.read`."""
    for con in chart.constraints:
        cov = np.asarray(con.gradient(x), dtype=float)
        yield np.asarray(con.value(x), dtype=float), cov, np.sqrt(plain_dot(cov.T, cov.T))


@dataclass(frozen=True, eq=False)
class RowGeometry:
    """What the batch evaluator reads of the chart and the metric at rows of
    canonical points, the same for every field on them (`row_geometry`)."""

    pieces: tuple[tuple[Array, Array], ...]  # each wall's (value, covector)
    depth: Array      # least -value / norm over the walls (inf at a zero covector)
    cov: Array        # the covector of the wall giving it; on a tie the first wall's
    wall: Array       # least |-value / norm|, the distance to the nearest wall
    g: Array | None   # metric matrices stacked on the last axis; None for the identity

    def take(self, rows: Array) -> RowGeometry:
        """The geometry of the rows a mask or an index array picks."""
        return RowGeometry(tuple(tuple(a[rows] for a in piece) for piece in self.pieces),
                           self.depth[rows], self.cov[rows], self.wall[rows],
                           None if self.g is None else self.g[..., rows])


def row_geometry(chart: Chart, metric: MetricField, x: Array) -> RowGeometry:
    """The `RowGeometry` of rows of canonical points x."""
    g = None if metric.identity else metric_matrices(metric, x).transpose(1, 2, 0)
    depth = np.full(len(x), math.inf)
    wall = np.full(len(x), math.inf)
    cov = np.zeros_like(x)
    pieces = tuple(_pieces_many(chart, x))
    for b, piece_cov, gnorm in pieces:
        with np.errstate(divide="ignore", invalid="ignore"):
            piece_depth = np.where(gnorm < 1e-30, math.inf, -b / gnorm)
        closer = piece_depth < depth
        np.copyto(depth, piece_depth, where=closer)
        np.copyto(cov, piece_cov, where=closer[:, None])
        np.minimum(wall, np.abs(piece_depth, out=piece_depth), out=wall)
    return RowGeometry(tuple(piece[:2] for piece in pieces), depth, cov, wall, g)


def _solve(g, c) -> list:
    """g^-1 c by Cramer's rule for a 1x1 or 2x2 matrix g, given by rows;
    components as `plain_dot` takes them."""
    if len(c) == 1:
        return [c[0] / g[0][0]]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return [(g[1][1] * c[0] - g[0][1] * c[1]) / det,
            (g[0][0] * c[1] - g[1][0] * c[0]) / det]


def _quadratic(v, g):
    """v . g v"""
    return plain_dot(v, [plain_dot(row, v) for row in g])


def _axpy(a, s, n) -> list:
    """a + s n, componentwise."""
    return [a[0] + s * n[0], a[1] + s * n[1]] if len(a) == 2 else [a[0] + s * n[0]]


def _unit_dual(cov, g, sqrt) -> list:
    """The metric-unit vector dual to a covector (g None for the identity
    metric); sqrt is `math.sqrt` for floats, `np.sqrt` for arrays."""
    vec = cov if g is None else _solve(g, cov)
    length = sqrt(plain_dot(vec, vec) if g is None else _quadratic(vec, g))
    return [vec[0] / length, vec[1] / length] if len(vec) == 2 else [vec[0] / length]


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
    def passed(self) -> bool:
        return (self.descent_margin < 0.0 and self.inward_margin > 0.0
                and self.interior_definiteness < 0.0
                and self.tangency_definiteness < 0.0)

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
    """A value of its eight init fields.  The patches and the perturbation
    (none for a seed of None or 0) are derived from them, so a copy made with
    `dataclasses.replace` derives its own; only `build_adapted` certifies."""

    chart: Chart
    metric: MetricField
    objective: MorseField            # the function this field descends
    crit: CriticalSet                # classified for the objective
    r_n: float
    delta_c: float
    perturb_seed: int | None = None
    tol: Tolerances = DEFAULT        # the one set its flow and certificate read
    patches: tuple[TangencyPatch, ...] = dataclass_field(init=False)
    _perturb: _Perturbation | None = dataclass_field(init=False, repr=False)
    certificate: AdaptednessCertificate | None = dataclass_field(default=None, init=False)
    # invariant-manifold branches integrated by `flow._branches`, keyed by
    # (anchor id, reverse), and the capture regions of each time direction,
    # keyed by reverse; a copy starts empty
    _branch_memo: dict = dataclass_field(default_factory=dict, init=False,
                                         repr=False)
    _capture_memo: dict = dataclass_field(default_factory=dict, init=False,
                                          repr=False)

    def __post_init__(self):
        self.patches = tuple(_make_patch(self.chart, cp, self.tol)
                             for cp in self.crit.points if cp.kind == BOUNDARY_N)
        self._perturb = (_Perturbation(self.chart, self.crit, self.perturb_seed)
                         if self.perturb_seed else None)
        self._point = _point_evaluator(self)

    def evaluate(self, raw: list) -> list:
        """Field vector, a list of floats, at raw coordinates, a list of
        floats (deck-equivariant under a deck map)."""
        return self._point(raw)

    def _eval_canonical_many(self, x: Array, grad: Array, geometry: RowGeometry) -> Array:
        """The arithmetic of `_point_evaluator` at each row of x, canonical
        coordinates, where the objective's gradient is the row of grad and
        `geometry` is `row_geometry(self.chart, self.metric, x)`."""
        g, depth = geometry.g, geometry.depth
        vec = -grad if g is None else -np.stack(_solve(g, grad.T), axis=1)

        # collar at the nearest wall, kept in place
        if self.delta_c > 0.0:
            i = np.flatnonzero(depth < self.delta_c)
            g_i = None if g is None else g[..., i]
            normal = _unit_dual(geometry.cov[i].T, g_i, np.sqrt)
            nu = plain_dot(grad[i].T, normal)
            tangential = _axpy(vec[i].T, nu, normal)
            g_t = np.sqrt(plain_dot(tangential, tangential) if g_i is None
                          else np.maximum(_quadratic(tangential, g_i), 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                soft = np.minimum(self.tol.eps_n, g_t * g_t / (2.0 * np.abs(nu)))
            cap = np.where(nu >= 0.0, self.tol.eps_n,
                           np.where(g_t < self.tol.g_min, 0.0, soft))
            t = np.maximum(depth[i], 0.0) / self.delta_c
            push = np.maximum(0.0, 1.0 - t * t) * (nu - cap)
            vec[i] = np.stack(_axpy(vec[i].T, push, normal), axis=1)

        # the first patch within r_n claims a point, even where its blend is
        # zero; the model field (y, z) -> (-h*y, -z), pulled back through the
        # local coordinates, takes its depth z from the wall's value
        free = np.ones(len(x), dtype=bool)
        for patch in self.patches:
            i = near_rows(self.chart, x, patch.center, self.r_n)
            i = i[free[i]]
            d = chart_distance_many(self.chart, x[i], patch.center)
            i, d = i[d < self.r_n], d[d < self.r_n]
            free[i] = False
            chi = 1.0 - _smoothstep_many((d - 0.5 * self.r_n) / (0.5 * self.r_n))
            i, chi = i[chi > 0.0], chi[chi > 0.0]
            b, piece_cov = geometry.pieces[patch.piece]
            z = -b[i] / patch.grad_norm_at_center
            dz = list(-piece_cov[i].T / patch.grad_norm_at_center)
            if len(dz) == 1:
                model = [-z / dz[0]]
            else:
                delta = (x[i] - patch.center).T
                if self.chart.deck is not None:
                    period = self.chart.deck.period
                    delta[0] -= period * np.rint(delta[0] / period)
                (t0, t1), (e0, e1) = patch.tangent.tolist(), dz
                det = t0 * e1 - t1 * e0
                my, mz = -patch.h * plain_dot(delta, (t0, t1)), -z
                model = [(e1 * my - t1 * mz) / det, (t0 * mz - e0 * my) / det]
            vec[i] = (1.0 - chi)[:, None] * vec[i] + chi[:, None] * np.stack(model, axis=1)

        if self._perturb is not None:
            vec = vec + self._perturb.many(x, geometry.wall, self.tol)
        return vec

    def linearization(self, at: Array) -> Array:
        """Central-difference jacobian of the field at a point."""
        x = np.asarray(at, dtype=float)
        dim, step = len(x), 1e-6
        out = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = step
            out[:, j] = (np.array(self.evaluate((x + e).tolist()))
                         - self.evaluate((x - e).tolist())) / (2 * step)
        return out

    def capture_regions(self, reverse: bool = False) -> tuple[CaptureRegion, ...]:
        """Certified capture regions of the sinks of the flow, or of its time
        reversal: the grading-0 zeros forward, the top-grading zeros in reverse.

        A sink whose check fails has no region.  Each direction is checked
        once per field, on first use.
        """
        found = self._capture_memo.get(reverse)
        if found is None:
            grading = self.chart.dim if reverse else 0
            regions = (_capture_region(self, cp, reverse) for cp in self.crit.points
                       if cp.grading == grading and cp.kind != BOUNDARY_D)
            found = self._capture_memo[reverse] = tuple(
                r for r in regions if r is not None)
        return found


def _point_evaluator(field: PseudoGradientField) -> Callable[[list], list]:
    """`evaluate` for one field: straight-line float arithmetic in a closure
    made when the field is built.  What does not depend on the point is
    resolved here: the tolerances, the number of walls and each wall's
    reader, each patch's center and tangent and each perturbation center as
    Python floats, the perturbation's waves, and the library functions.  Per
    point, the objective's gradient (for a negated function, the gradient of
    the function it negates) and the metric are called once and each wall is
    read once through `BoundaryConstraint.read`; the rest is the arithmetic
    of `_eval_canonical_many`, component by component with the same
    operations in the same order, so both give the same bits.  On a line, v
    and each center's second coordinate are 0.0, which moves no bit, and the
    second components of vectors are dropped; a metric other than the
    identity takes the list helpers the batch takes.  It reads a list of
    Python floats and returns one; non-finite coordinates give NaN.
    """
    chart, tol, deck = field.chart, field.tol, field.chart.deck
    dim = chart.dim
    two_d = dim == 2
    # an ascent field descends f.negated(): the kernel calls f's gradient and
    # negates its floats, as certification negates f's stored gradients
    # (`BoundarySample.signed`), with the bits of the negation's float64 array
    source = field.objective.negation_of
    negated = source is not None
    gradient = (source if negated else field.objective).gradient
    matrix = None if field.metric.identity else field.metric.matrix
    array, asarray, ndarray, float64 = np.array, np.asarray, np.ndarray, _FLOAT
    sqrt, isfinite, floor, sin = math.sqrt, math.isfinite, math.floor, math.sin
    inf, nan = math.inf, math.nan
    readers = tuple(con.read for con in chart.constraints)
    walls = len(readers)
    read0, read1 = (*readers, None, None)[:2]
    period = None if deck is None else deck.period
    folds = deck is not None and deck.flip == -1

    def padded(c) -> list:
        return [*c, 0.0] if len(c) == 1 else list(c)

    def keyed(c) -> tuple:
        """A center as (c0, c1, what the gap in v compares with)."""
        c0, c1 = padded(c)
        return c0, c1, abs(c1) if folds else c1

    # a patch takes its depth z from its wall's value, read for the collar
    patches = tuple((*keyed(p.center.tolist()), (*padded(p.tangent.tolist()), p.h,
                                                  p.grad_norm_at_center, p.piece))
                    for p in field.patches)
    r_n, half = field.r_n, 0.5 * field.r_n
    r_n_apart = gap_bound(chart, r_n)
    # no wall lies in the collar of a field built without one
    delta_c = field.delta_c if field.delta_c > 0.0 else -inf
    eps_n, g_min = tol.eps_n, tol.g_min
    perturb = field._perturb
    if perturb is not None:
        centers = tuple(keyed(c) for c in perturb.centers)
        if two_d:
            (sg0, (w00, w01), ph0), (sg1, (w10, w11), ph1) = perturb._terms
        else:
            (sg0, (w00,), ph0), = perturb._terms
        # a center's factor in the envelope is exactly 1.0 beyond 2 r_excl,
        # where smoothstep saturates
        bump, amp_max, env_width = 2.0 * tol.r_excl, tol.perturb_amp, tol.delta_c
        apart = gap_bound(chart, bump)
        seam = None if deck is None else 0.1 * period

    def evaluate(xs: list) -> list:
        u, v = xs if two_d else (xs[0], 0.0)
        if not (isfinite(u) and isfinite(v)):
            return [nan] * dim
        flip = False
        if deck is not None:
            k = floor(u / period)
            flip = k % 2 != 0 and folds
            u, v = u + -k * period, -v if flip else v
            xs = [u, v]
            vk = abs(v) if folds else v
        x = array(xs)
        grad = gradient(x)  # a float64 array is read as it is
        grad = (grad if type(grad) is ndarray and grad.dtype is float64
                else asarray(grad, dtype=float)).tolist()
        g = None if matrix is None else asarray(matrix(x), dtype=float).tolist()
        g0, g1 = grad if two_d else (grad[0], 0.0)
        if negated:
            g0, g1 = -g0, -g1
        a0, a1 = ((-g0, -g1) if g is None
                  else padded([-c for c in _solve(g, [g0, g1][:dim])]))

        # collar at the nearest wall; on a tie the first wall wins
        depth = wall = inf
        values = ((read0(xs),) if walls == 1 else (read0(xs), read1(xs)) if walls == 2
                  else [read(xs) for read in readers])
        for b, piece_cov, gnorm in values:
            piece_depth = -b / gnorm if gnorm >= 1e-30 else inf
            gap = abs(piece_depth)
            if gap < wall:
                wall = gap
            if piece_depth < depth:
                depth, cov = piece_depth, piece_cov
        if depth < delta_c:
            if g is None:
                c0, c1 = cov if two_d else (cov[0], 0.0)
                length = sqrt(c0 * c0 + c1 * c1)   # c0 * c0 + 0.0 rounds as c0 * c0
                n0, n1 = c0 / length, c1 / length
            else:
                n0, n1 = padded(_unit_dual(cov, g, sqrt))
            nu = g0 * n0 + g1 * n1   # a line's + 0.0 may clear a zero's sign: no bit moves
            if nu >= 0.0:
                cap = eps_n
            else:
                t0, t1 = a0 + nu * n0, a1 + nu * n1
                g_t = sqrt(t0 * t0 + t1 * t1 if g is None
                           else max(_quadratic([t0, t1][:dim], g), 0.0))
                cap = 0.0 if g_t < g_min else min(eps_n, g_t * g_t / (2.0 * abs(nu)))
            t = depth / delta_c if depth > 0.0 else 0.0
            s = 1.0 - t * t
            push = (s if s > 0.0 else 0.0) * (nu - cap)
            a0, a1 = a0 + push * n0, a1 + push * n1

        # the first patch within r_n claims the point, even where its blend is zero
        for c0, c1, k1, model in patches:
            d0, d1 = u - c0, v - c1
            if deck is None:
                d = sqrt(d0 * d0 + d1 * d1)
            else:
                du = abs(d0) % period
                if period - du < du:
                    du = period - du
                if du > r_n_apart or abs(vk - k1) > r_n_apart:
                    continue  # at least r_n away: no deck image is measured
                d = coords_distance(chart, xs, (c0, c1))
            if d >= r_n:
                continue
            s = (d - half) / half
            chi = 1.0 - (0.0 if s <= 0.0 else 1.0 if s >= 1.0 else s * s * (3.0 - 2.0 * s))
            if chi > 0.0:
                t0, t1, h, grad_norm, piece = model
                b, piece_cov, _ = values[piece]
                z = -b / grad_norm
                if two_d:
                    if deck is not None:
                        d0 -= period * round(d0 / period)
                    e0, e1 = -piece_cov[0] / grad_norm, -piece_cov[1] / grad_norm
                    det = t0 * e1 - t1 * e0
                    my, mz = -h * (d0 * t0 + d1 * t1), -z
                    m0, m1 = (e1 * my - t1 * mz) / det, (t0 * mz - e0 * my) / det
                else:
                    m0, m1 = -z / (-piece_cov[0] / grad_norm), 0.0
                a0, a1 = (1.0 - chi) * a0 + chi * m0, (1.0 - chi) * a1 + chi * m1
            break

        # the seeded bump field of `_Perturbation`, vanishing near the walls,
        # the critical points and the seam
        if perturb is not None:
            s = wall / env_width
            env = 0.0 if s <= 0.0 else 1.0 if s >= 1.0 else s * s * (3.0 - 2.0 * s)
            for c0, c1, k1 in centers:
                if env == 0.0:
                    break
                d0 = u - c0
                if deck is None:
                    d1 = v - c1
                    if abs(d0) > apart or abs(d1) > apart:
                        continue  # the factor is exactly 1.0
                    s = sqrt(d0 * d0 + d1 * d1) / bump
                else:
                    du = abs(d0) % period
                    if period - du < du:
                        du = period - du
                    if du > apart or abs(vk - k1) > apart:
                        continue
                    s = coords_distance(chart, xs, (c0, c1)) / bump
                env *= 0.0 if s <= 0.0 else 1.0 if s >= 1.0 else s * s * (3.0 - 2.0 * s)
            if env != 0.0 and deck is not None:
                s = u % period
                s = min(s, period - s) / seam
                env *= 0.0 if s <= 0.0 else 1.0 if s >= 1.0 else s * s * (3.0 - 2.0 * s)
            if env == 0.0:
                a0, a1 = a0 + 0.0, a1 + 0.0
            elif two_d:
                amp = amp_max * env
                a0 = a0 + amp * (sg0 * sin(u * w00 + v * w01 + ph0))
                a1 = a1 + amp * (sg1 * sin(u * w10 + v * w11 + ph1))
            else:
                a0 = a0 + amp_max * env * (sg0 * sin(u * w00 + ph0))
        return [a0, -a1 if flip else a1] if two_d else [a0]

    return evaluate


class _Perturbation:
    """Seeded smooth bump field vanishing near the boundary, the critical points,
    and (under a deck map) the gluing seam, so adaptedness margins survive.

    The waves, phases and signs are drawn once; the field's tolerances set
    the amplitude and the radii.  The point evaluator computes the bump in
    float arithmetic with the bits of `many`.  Both skip a center that a
    bound from the coordinates alone puts beyond 2 r_excl, where its factor
    in the envelope is exactly 1.0.
    """

    def __init__(self, chart: Chart, crit: CriticalSet, seed: int):
        rng = np.random.default_rng(seed)
        dim = chart.dim
        self.chart = chart
        self.waves = rng.uniform(0.5, 2.5, size=(dim, dim))
        self.phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        self.signs = rng.choice([-1.0, 1.0], size=dim)
        self.centers = [cp.coords.tolist() for cp in crit.points]
        self._terms = tuple(zip(self.signs.tolist(), self.waves.tolist(),
                                self.phases.tolist()))

    def many(self, x: Array, wall: Array, tol: Tolerances) -> Array:
        """The perturbation at each row of x, canonical coordinates `wall`
        from the nearest wall, under the tolerances tol."""
        chart = self.chart
        env = _smoothstep_many(wall / tol.delta_c)
        bump = 2.0 * tol.r_excl
        for c in self.centers:
            # beyond 2 r_excl a center's factor is exactly 1.0
            i = near_rows(chart, x, c, bump)
            env[i] *= _smoothstep_many(chart_distance_many(chart, x[i], c) / bump)
        if chart.deck is not None:
            period = chart.deck.period
            u = x[:, 0] % period
            seam = np.minimum(u, period - u)
            env = env * _smoothstep_many(seam / (0.1 * period))
        phase = np.stack([plain_dot(x.T, wave) for wave in self.waves], axis=1) + self.phases
        vec = (tol.perturb_amp * env)[:, None] * (self.signs * np.sin(phase))
        # the point evaluator adds +0.0 where the envelope vanishes
        return np.where(env[:, None] == 0.0, 0.0, vec)


# ---------------------------------------------------------------------------
# certification


def _manifold_sample(chart: Chart, crit: CriticalSet, count: int,
                     r_excl: float) -> Array:
    """The first `count` of the first 60 * count Halton points of the chart's
    box that lie on the manifold farther than r_excl from every critical point.

    Candidates are drawn in chunks sized to what is still missing at the
    acceptance rate seen so far.  A radical inverse does not depend on the
    chunk it is drawn in, so neither does the sample.
    """
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    gathered = []
    have = drawn = 0
    size = count
    while have < count and drawn < 60 * count:
        size = min(size, 60 * count - drawn)
        pts = lo + (hi - lo) * halton_sequence(size, chart.dim, skip=20 + drawn)
        drawn += size
        mask = np.ones(len(pts), dtype=bool)
        for con in chart.constraints:
            mask &= np.asarray(con.value(pts), dtype=float) <= 0.0
        for cp in crit.points:
            i = near_rows(chart, pts, cp.coords, r_excl)
            mask[i] &= chart_distance_many(chart, pts[i], cp.coords) > r_excl
        gathered.append(pts[mask])
        have += len(gathered[-1])
        # a tenth more than the rate so far needs, so one chunk usually ends it
        size = math.ceil(1.1 * (count - have) * drawn / max(have, 1))
    return np.concatenate(gathered)[:count]


@dataclass(frozen=True, eq=False)
class CertificationSample(BoundarySample):
    """The points every field of one analysis is certified on: the boundary
    sample the critical search scanned and interior Halton points away from
    the critical points, with the analysed function's gradient at each.  They
    do not depend on the perturbation seed or the radii, so both sides, every
    shrink retry and every retry seed share the sample, and the
    `RowGeometry` of its interior and wall rows (`measured`)."""

    interior: Array
    interior_grad: Array  # its gradient at each interior point
    # (interior, wall) `RowGeometry`, on a copy that one analysis certifies on
    geometry: tuple[RowGeometry, RowGeometry] | None = None

    def measured(self, chart: Chart, metric: MetricField) -> CertificationSample:
        """A copy carrying the geometry of its rows on the chart under the
        metric, which must be the certified fields' (itself when it carries
        one).  An analysis measures its sample once, and keeps the copy only
        while it builds fields: a package holds the sample without it."""
        if self.geometry is not None:
            return self
        return replace(self, geometry=(row_geometry(chart, metric, self.interior),
                                       row_geometry(chart, metric, self.wall)))


def certification_sample(field: MorseField, chart: Chart, crit: CriticalSet,
                         tol: Tolerances, wall: BoundarySample) -> CertificationSample:
    """Draw the interior points and evaluate the gradient of f (`field`)
    there, once.  `wall` is `critical.boundary_sample(field, chart, metric,
    tol)`, whose normals and metric matrices the sample keeps; a sample of
    another function raises `SampleMismatch`."""
    (wall_grad,) = wall.signed(field, wall.wall_grad)
    interior = _manifold_sample(chart, crit, tol.cert_interior_samples, tol.r_excl)
    return CertificationSample(
        field=field, wall=wall.wall, wall_grad=wall_grad, normals=wall.normals,
        g_mats=wall.g_mats, ends=wall.ends, interior=interior,
        interior_grad=np.asarray(field.gradient(interior), dtype=float))


def _wall_sample(field: PseudoGradientField, sample: CertificationSample) -> Array:
    """The rows of the sample's wall outside the field's tangency patches.

    Only this patch filter, which depends on the field's type-N points and
    r_n, is per build.
    """
    points = sample.wall
    keep = np.ones(len(points), dtype=bool)
    for cp in field.crit.points:
        if cp.kind == BOUNDARY_N:
            i = near_rows(field.chart, points, cp.coords, field.r_n)
            keep[i] &= chart_distance_many(field.chart, points[i], cp.coords) >= field.r_n
    return keep


def certify_adapted(field: PseudoGradientField, *, sample: CertificationSample,
                    attempts: int = 0) -> AdaptednessCertificate:
    """Sample-based check of the four adaptedness conditions.

    `sample` is `certification_sample(f, field.chart, ..., field.tol, ...)`,
    its wall sample drawn under `field.metric`, for the function f the field
    descends, or for -f when it ascends; it is measured here when it carries
    no geometry (see `measured`).  A sample of any other function raises `SampleMismatch`.  A
    NaN at any sample fails the certificate.
    """
    chart, crit = field.chart, field.crit
    obj = field.objective
    interior = sample.interior
    interior_grad, wall_grad = sample.signed(obj, sample.interior_grad, sample.wall_grad)
    sample = sample.measured(chart, field.metric)
    interior_geometry, wall_geometry = sample.geometry
    # the sample's points are canonical, so the field reads their gradients;
    # an empty sample, interior or wall, tests nothing, and its NaN margin
    # fails the certificate
    descent = (float(np.max(row_dot(interior_grad, field._eval_canonical_many(
        interior, interior_grad, interior_geometry))))
        if len(interior) else math.nan)

    keep = _wall_sample(field, sample)
    on_wall = sample.wall[keep]
    pushed = np.matmul(field._eval_canonical_many(
        on_wall, wall_grad[keep], wall_geometry.take(keep))[:, None, :],
        sample.g_mats[keep])[:, 0, :]
    inward = (float(np.min(-row_dot(pushed, sample.normals[keep])))
              if len(on_wall) else math.nan)

    interior_def = tangency_def = -math.inf
    has_interior = False
    for cp in crit.points:
        if cp.kind == INTERIOR:
            has_interior = True
            lin = field.linearization(cp.coords)
            hess = np.asarray(obj.hessian(cp.coords), dtype=float)
            form = 0.5 * (hess @ lin + lin.T @ hess)
            interior_def = max(interior_def, float(np.max(np.linalg.eigvalsh(form))))
    for patch in field.patches:  # one at each type-N point
        lin = field.linearization(patch.center)
        jac = patch.jacobian(chart, patch.center)
        model_lin = jac @ lin @ np.linalg.inv(jac)
        if chart.dim == 1:
            quad = np.array([[2.0]])
        else:
            quad = np.array([[patch.h, 0.0], [0.0, 2.0]])
        form = 0.5 * (quad @ model_lin + model_lin.T @ quad)
        tangency_def = max(tangency_def, float(np.max(np.linalg.eigvalsh(form))))
    # a condition with no point to test holds, at -1.0
    if not has_interior:
        interior_def = -1.0
    if not field.patches:
        tangency_def = -1.0
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


@dataclass(frozen=True, eq=False)
class CaptureRegion:
    """Certified basin of a sink: the points within `radius` of it at which
    the Lyapunov function sign * (f - level) is below `depth`.

    f strictly decreases along the field on the whole ball, sign * f is at
    least 2 * depth above the sink's level on the ball's rim, and the sink is
    the ball's only zero, so a trajectory that enters the region never leaves
    the ball and ends at the sink.  `flow.integrate` tests membership, the
    distance before the level, so it reads f only inside the ball.
    """

    sink: CriticalPoint
    radius: float
    level: float       # the objective at the sink
    depth: float
    sign: float        # 1.0 for the flow, -1.0 for its time reversal


_CAPTURE_RINGS = 8    # concentric sample rings of a capture check
_CAPTURE_RAYS = 32    # samples per ring on a surface


def _capture_region(field: PseudoGradientField, cp: CriticalPoint,
                    reverse: bool) -> CaptureRegion | None:
    """Capture region of the sink cp, or None when its check fails.

    The ball is the exact-model disk of a type-N sink (radius r_n / 2, where
    the patch blend is one) or the exclusion ball of an interior one.  One
    batched evaluation on rings around the sink checks that f decreases along
    the field there; the outermost ring sets the depth, at half its lowest
    Lyapunov value.
    """
    chart, obj = field.chart, field.objective
    radius = 0.5 * field.r_n if cp.kind == BOUNDARY_N else field.tol.r_excl
    if any(other.id != cp.id
           and chart_distance(chart, other.coords, cp.coords) <= radius
           for other in field.crit.points):
        return None
    if chart.dim == 1:
        directions = np.array([[1.0], [-1.0]])
    else:
        theta = 2.0 * math.pi * np.arange(_CAPTURE_RAYS) / _CAPTURE_RAYS
        directions = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    radii = radius * np.arange(1, _CAPTURE_RINGS + 1) / _CAPTURE_RINGS
    pts = cp.coords + (radii[:, None, None] * directions).reshape(-1, chart.dim)
    rim = np.arange(len(pts)) >= len(pts) - len(directions)
    inside = np.ones(len(pts), dtype=bool)
    for con in chart.constraints:
        inside &= np.asarray(con.value(pts), dtype=float) <= 0.0
    pts, rim = pts[inside], rim[inside]
    if not rim.any():
        return None
    # df(X) is the same at a point and at its deck image, so it is read at the
    # canonical point, where one gradient serves the slope and the field
    x = deck_reduce(chart, pts)
    grad = np.asarray(obj.gradient(x), dtype=float)
    slope = row_dot(grad, field._eval_canonical_many(
        x, grad, row_geometry(chart, field.metric, x)))
    if not np.all(slope < 0.0):
        return None
    sign = -1.0 if reverse else 1.0
    level = float(obj.value(cp.coords))
    lyapunov = sign * (np.asarray(obj.value(pts[rim]), dtype=float) - level)
    depth = 0.5 * float(lyapunov.min())
    if not depth > 0.0:
        return None
    return CaptureRegion(cp, radius, level, depth, sign)


def build_adapted(objective: MorseField, chart: Chart, crit: CriticalSet,
                  metric: MetricField, *, sample: CertificationSample,
                  perturb_seed: int | None = None,
                  tol: Tolerances = DEFAULT) -> PseudoGradientField:
    """Assemble and certify a descent field for the objective, whose critical
    set is crit: f with its critical set, or `f.negated()` with
    `critical.reclassify_negated(crit, f)` for an ascent field of f.

    Retries with halved patch and collar radii when certification fails;
    raises BlendGapFailure when no retry passes.  `sample` is the
    `certification_sample` of f under tol, which an analysis draws and
    measures once for all its builds, both sides included; every retry reads
    one measured copy.
    """
    sample = sample.measured(chart, metric)
    last = None
    for attempt in range(tol.build_retries + 1):
        shrink = 0.5 ** attempt
        pg = PseudoGradientField(
            chart=chart, metric=metric, objective=objective, crit=crit,
            r_n=tol.r_n * shrink, delta_c=tol.delta_c * shrink,
            perturb_seed=perturb_seed, tol=tol,
        )
        cert = certify_adapted(pg, attempts=attempt + 1, sample=sample)
        pg.certificate = cert
        if cert.passed:
            return pg
        last = cert
    raise BlendGapFailure(f"certification failed after retries: {last.as_dict()}")
