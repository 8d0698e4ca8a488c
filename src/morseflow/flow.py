"""Trajectory integration, connecting-orbit counting and the intersection pairing.

Integration uses an embedded Dormand-Prince 5(4) pair with a boundary guard:
steps that would leave the manifold are shortened by bisection to land on the
wall, where only tangent or inward field directions are tolerated.  Every
connecting orbit between generators of adjacent grading on a surface is a
branch of a one-dimensional invariant manifold, so each count follows one: the
unstable manifold of a grading-one source forward, or the stable manifold of a
grading-one target backward.  The pairing's curves are branches of the same
manifolds.  `_branches` is the one place that launches them: it integrates each
branch once per field and tolerances and keeps the result on the field, so the
counts and the pairing read the same trajectories.  `integrate` itself keeps
nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import BOUNDARY_N, INTERIOR, CriticalPoint, sign_fix
from .errors import (CertificateViolation, DimensionMismatch, FlowTimeout,
                     NonTransverse)
from .geometry import (QuotientChart, RegionChart, chart_distance, deck_apply,
                       deck_sign, path_orientation_sign)
from .params import DEFAULT, Tolerances
from .pseudogradient import PseudoGradientField, _project_to_boundary

Array = np.ndarray

# Dormand-Prince 5(4) tableau (FSAL)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)

CONVERGED = "converged"
LEFT_DOMAIN = "left_domain"
TIMEOUT = "timeout"


@dataclass(eq=False)
class Trajectory:
    times: Array
    points: Array                  # raw (cover) coordinates, one row per sample
    values: Array                  # objective values along the samples
    termination: str
    target: int | None = None      # critical id for CONVERGED
    end_point: Array | None = None

    @property
    def start(self) -> Array:
        return self.points[0]

    @property
    def end(self) -> Array:
        return self.end_point if self.end_point is not None else self.points[-1]


def _rk_step(deriv, x: Array, h: float, k1: Array | None = None):
    """One Dormand-Prince step; returns (x5, err_vec, k_last)."""
    k = [k1 if k1 is not None else deriv(x)]
    for stage in range(1, 7):
        acc = x.copy()
        coeffs = _A[stage]
        for j, c in enumerate(coeffs):
            if c != 0.0:
                acc = acc + (h * c) * k[j]
        k.append(deriv(acc))
    x5 = x.copy()
    err = np.zeros_like(x)
    for j in range(7):
        if _B5[j] != 0.0:
            x5 = x5 + (h * _B5[j]) * k[j]
        diff = _B5[j] - _B4[j]
        if diff != 0.0:
            err = err + (h * diff) * k[j]
    return x5, err, k[6]


def _violation(chart, x: Array) -> float:
    """Positive when x lies outside the manifold (worst constraint excess)."""
    if isinstance(chart, QuotientChart):
        return max(chart.v_min - x[1], x[1] - chart.v_max)
    worst = -math.inf
    for con in chart.constraints:
        worst = max(worst, float(con.value(x)))
    return worst


def _outward_direction(chart, x: Array) -> Array | None:
    if isinstance(chart, QuotientChart):
        if abs(x[1] - chart.v_min) < abs(x[1] - chart.v_max):
            return np.array([0.0, -1.0])
        return np.array([0.0, 1.0])
    best, grad = math.inf, None
    for con in chart.constraints:
        g = np.asarray(con.gradient(x), dtype=float)
        gl = float(np.linalg.norm(g))
        if gl == 0.0:
            continue
        d = abs(float(con.value(x))) / gl
        if d < best:
            best, grad = d, g / gl
    return grad


def _pull_inside(chart, x: Array) -> Array:
    """Nudge a point with a tiny constraint excess back onto the manifold."""
    out = np.array(x, dtype=float)
    if isinstance(chart, QuotientChart):
        out[1] = min(max(out[1], chart.v_min), chart.v_max)
        return out
    for _ in range(4):
        worst, con = 0.0, None
        for c in chart.constraints:
            v = float(c.value(out))
            if v > worst:
                worst, con = v, c
        if con is None:
            return out
        g = np.asarray(con.gradient(out), dtype=float)
        out = out - (worst / float(g @ g)) * g
    return out


def integrate(field: PseudoGradientField, start, tol: Tolerances = DEFAULT,
              reverse: bool = False, allow_exit: bool = False) -> Trajectory:
    """Flow a trajectory of the field (or of its time reversal).

    Terminates on convergence to a critical point of the build, on leaving the
    manifold (LEFT_DOMAIN when allow_exit, CertificateViolation otherwise), or
    on timeout.
    """
    chart = field.chart
    sgn = -1.0 if reverse else 1.0
    deriv = lambda x: sgn * field.evaluate(x)
    value = lambda x: float(field.objective.value(x))

    x = np.asarray(start, dtype=float).copy()
    t = 0.0
    times, points, values = [t], [x.copy()], [value(x)]

    crit = field.crit.points

    def near_critical(y: Array, speed: float) -> int | None:
        if speed >= tol.field_stop:
            return None
        for cp in crit:
            if chart_distance(chart, y, cp.coords) <= tol.r_conv:
                return cp.id
        return None

    k1 = deriv(x)
    hit = near_critical(x, float(np.linalg.norm(k1)))
    if hit is not None:
        return Trajectory(np.array(times), np.array(points), np.array(values),
                          CONVERGED, target=hit)

    h = 1e-4
    h_max = 0.5
    steps = 0
    while True:
        if t >= tol.t_max or steps >= tol.max_steps:
            return Trajectory(np.array(times), np.array(points), np.array(values),
                              TIMEOUT)
        steps += 1
        h = min(h, h_max, tol.t_max - t + 1e-9)
        x_new, err_vec, k_last = _rk_step(deriv, x, h, k1)
        scale = tol.atol + tol.rtol * np.maximum(np.abs(x), np.abs(x_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err > 1.0 and h > 1e-13:
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        # boundary guard
        if _violation(chart, x_new) > 1e-12:
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                x_mid, _, _ = _rk_step(deriv, x, h * mid)
                if _violation(chart, x_mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            x_land, _, _ = _rk_step(deriv, x, h * hi)
            x_land = _pull_inside(chart, x_land)
            t_land = t + h * hi
            outward = _outward_direction(chart, x_land)
            speed_vec = deriv(x_land)
            push = float(speed_vec @ outward) if outward is not None else 0.0
            if push > 1e-8 * (1.0 + float(np.linalg.norm(speed_vec))):
                times.append(t_land)
                points.append(x_land.copy())
                values.append(value(x_land))
                if allow_exit:
                    return Trajectory(np.array(times), np.array(points),
                                      np.array(values), LEFT_DOMAIN,
                                      end_point=x_land)
                raise CertificateViolation(
                    f"trajectory pushed out of the manifold at {x_land}")
            x, t, k1 = x_land, t_land, speed_vec
            times.append(t)
            points.append(x.copy())
            values.append(value(x))
            h = max(h * 0.5, 1e-10)
            continue

        t += h
        x = x_new
        k1 = k_last
        times.append(t)
        points.append(x.copy())
        values.append(value(x))

        hit = near_critical(x, float(np.linalg.norm(k_last)))
        if hit is not None:
            return Trajectory(np.array(times), np.array(points), np.array(values),
                              CONVERGED, target=hit)
        if err == 0.0:
            h = h * 5.0
        else:
            h = h * min(5.0, max(0.2, 0.9 * err ** -0.2))


# ---------------------------------------------------------------------------
# launches


def unstable_launches(field: PseudoGradientField, cp: CriticalPoint,
                      tol: Tolerances = DEFAULT) -> list[tuple[int, Array]]:
    """Launch points for the two branches of a one-dimensional unstable manifold."""
    frame = cp.frame_arrays()
    if len(frame) != 1:
        raise DimensionMismatch(f"generator {cp.id} has unstable dimension "
                                f"{len(frame)}, expected 1")
    e_u = frame[0]
    out = []
    for label in (1, -1):
        x0 = cp.coords + tol.r_launch * label * e_u
        if cp.kind == BOUNDARY_N:
            x0 = _project_to_boundary(field.chart, cp, x0)
        out.append((label, x0))
    return out


def stable_launches(field: PseudoGradientField, cp: CriticalPoint,
                    tol: Tolerances = DEFAULT) -> list[tuple[int, Array]]:
    """Launch points spanning a one-dimensional local stable manifold."""
    if cp.kind == INTERIOR:
        hess = np.asarray(field.objective.hessian(cp.coords), dtype=float)
        eigvals, eigvecs = np.linalg.eigh(hess)
        stable = [eigvecs[:, i] for i in range(len(eigvals)) if eigvals[i] > 0]
        if len(stable) != 1:
            raise DimensionMismatch(f"generator {cp.id} has stable dimension "
                                    f"{len(stable)}, expected 1")
        e_s = sign_fix(stable[0])
        return [(1, cp.coords + tol.r_launch * e_s),
                (-1, cp.coords - tol.r_launch * e_s)]
    # boundary tangency point: the stable direction is the inward normal ray
    inward = -np.asarray(cp.normal, dtype=float)
    return [(1, cp.coords + tol.r_launch * inward)]


def _branches(field: PseudoGradientField, anchor: CriticalPoint, reverse: bool,
              tol: Tolerances) -> tuple[tuple[int, Array, Trajectory], ...]:
    """(label, launch point, trajectory) for each branch of a one-dimensional
    invariant manifold of anchor, one of the field's critical points.

    Forward follows the unstable manifold, which may not leave the domain;
    reverse follows the stable manifold backward, ending LEFT_DOMAIN where it
    exits.  Each branch is integrated once per field and tolerances: the result
    is kept on the field and shared by every caller, which must not modify it.
    A timed-out branch raises FlowTimeout and is not kept.
    """
    key = (anchor.id, reverse, tol)
    found = field._branch_memo.get(key)
    if found is None:
        launches = stable_launches if reverse else unstable_launches
        out = []
        for label, x0 in launches(field, anchor, tol):
            traj = integrate(field, x0, tol, reverse=reverse, allow_exit=reverse)
            if traj.termination == TIMEOUT:
                raise FlowTimeout(f"branch from generator {anchor.id} timed out")
            out.append((label, x0, traj))
        found = field._branch_memo[key] = tuple(out)
    return found


# ---------------------------------------------------------------------------
# orbit counting


@dataclass(frozen=True, eq=False)
class ConnectingOrbit:
    source: int
    sink: int
    sign: int
    twist: int
    trajectory: Trajectory

    @property
    def twisted_sign(self) -> int:
        return self.sign * self.twist


@dataclass(frozen=True, eq=False)
class IncidenceCount:
    source: int
    sink: int
    count: int            # plain signed orbit count
    count_twisted: int    # signs multiplied by the orientation twist
    orbits: tuple[ConnectingOrbit, ...]

    def flavor(self, coefficients: str) -> int:
        return self.count if coefficients == "untwisted" else self.count_twisted


def _deck_index(chart, raw: Array, cp: CriticalPoint) -> int:
    """Deck power j with raw coordinates near T^j of cp (0 on a region chart)."""
    if isinstance(chart, RegionChart):
        return 0
    return round((raw[0] - cp.coords[0]) / chart.period)


def _orbit_twist(field: PseudoGradientField, traj: Trajectory,
                 source: CriticalPoint, sink: CriticalPoint) -> int:
    """Orientation twist of the orbit loop closed through canonical positions."""
    j = _deck_index(field.chart, traj.end, sink)
    return deck_sign(field.chart, j) * source.reference_sign * sink.reference_sign


def _reversed_orbit(field: PseudoGradientField, p: CriticalPoint,
                    q: CriticalPoint, launch: Array,
                    traj: Trajectory) -> tuple[int, Trajectory]:
    """Sign and source-to-sink trajectory of a backward branch from q to p.

    The branch starts at q's canonical position and reaches a deck image T^k
    of p; it is stored reversed and moved by T^-k so that it runs from p's
    canonical position to q with increasing times.
    """
    chart = field.chart
    k = _deck_index(chart, traj.end, p)
    points = traj.points[::-1]
    if k:
        points = np.array([deck_apply(chart, -k, x) for x in points])
    forward = Trajectory(traj.times[-1] - traj.times[::-1], points,
                         traj.values[::-1], CONVERGED, target=q.id)
    # orientation of (flow direction, q's unstable frame vector, which
    # co-orients q's stable manifold) against p's unstable frame carried to T^k p
    vel = field.evaluate(launch)
    det = float(np.linalg.det(np.stack([vel, q.frame_arrays()[0]], axis=1)))
    or_source = 1 if np.linalg.det(np.stack(p.frame_arrays(), axis=1)) > 0 else -1
    sign = or_source * deck_sign(chart, k) * (1 if det > 0 else -1)
    return sign, forward


def _follow_branches(field: PseudoGradientField, p: CriticalPoint,
                     q: CriticalPoint, tol: Tolerances) -> list[ConnectingOrbit]:
    """Orbits from p to q along the one-dimensional manifold that carries them.

    A grading-one source's unstable manifold is followed forward; otherwise,
    on a surface, the grading-one target's stable manifold is followed
    backward, dropping branches that leave the domain.
    """
    reverse = p.grading > 1
    anchor, far = (q, p) if reverse else (p, q)
    orbits = []
    for label, x0, traj in _branches(field, anchor, reverse, tol):
        if traj.termination == LEFT_DOMAIN:
            continue
        hit = field.crit.by_id(traj.target)
        if hit.grading == anchor.grading:
            raise NonTransverse(
                f"orbit between equal gradings {anchor.id} -> {hit.id}")
        if hit.id != far.id:
            continue
        sign = label
        if reverse:
            sign, traj = _reversed_orbit(field, p, q, x0, traj)
        orbits.append(ConnectingOrbit(p.id, q.id, sign,
                                      _orbit_twist(field, traj, p, q), traj))
    return orbits


def count_connecting_orbits(field: PseudoGradientField, p: CriticalPoint,
                            q: CriticalPoint,
                            tol: Tolerances = DEFAULT) -> IncidenceCount:
    """Signed connecting orbits from p (grading k) down to q (grading k-1)."""
    if p.grading != q.grading + 1:
        raise DimensionMismatch("orbit counting needs a grading gap of one")
    if p.value <= q.value:
        return IncidenceCount(p.id, q.id, 0, 0, ())
    orbits = _follow_branches(field, p, q, tol)
    total = sum(o.sign for o in orbits)
    twisted = sum(o.twisted_sign for o in orbits)
    return IncidenceCount(p.id, q.id, total, twisted, tuple(orbits))


# ---------------------------------------------------------------------------
# intersection pairing


def _resample(points: Array, max_len: float) -> Array:
    """Subdivide long polyline segments so crossings are localized."""
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        seg = float(np.linalg.norm(b - a))
        k = max(1, int(math.ceil(seg / max_len)))
        for i in range(1, k + 1):
            out.append(a + (b - a) * (i / k))
    return np.array(out)


def _polyline_crossings(pa: Array, pb: Array) -> list[tuple[Array, Array, Array, float]]:
    """Transversal crossings between two polylines.

    Returns (point, direction_a, direction_b, sin_angle) per crossing.
    """
    if len(pa) < 2 or len(pb) < 2:
        return []
    a0, a1 = pa[:-1], pa[1:]
    b0, b1 = pb[:-1], pb[1:]
    da = a1 - a0
    db = b1 - b0
    hits = []
    chunk = 256
    for start in range(0, len(a0), chunk):
        sl = slice(start, min(start + chunk, len(a0)))
        ca0 = a0[sl][:, None, :]
        cda = da[sl][:, None, :]
        rb0 = b0[None, :, :]
        rdb = db[None, :, :]
        denom = cda[..., 0] * rdb[..., 1] - cda[..., 1] * rdb[..., 0]
        diff = rb0 - ca0
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (diff[..., 0] * rdb[..., 1] - diff[..., 1] * rdb[..., 0]) / denom
            t = (diff[..., 0] * cda[..., 1] - diff[..., 1] * cda[..., 0]) / denom
        ok = np.isfinite(s) & np.isfinite(t)
        ok &= (s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)
        for i, j in zip(*np.nonzero(ok)):
            ia = start + i
            point = a0[ia] + s[i, j] * da[ia]
            na = float(np.linalg.norm(da[ia]))
            nb = float(np.linalg.norm(db[j]))
            if na == 0.0 or nb == 0.0:
                continue
            sin_angle = abs(denom[i, j]) / (na * nb)
            hits.append((point, da[ia] / na, db[j] / nb, sin_angle))
    # merge duplicates produced by shared segment endpoints
    merged: list[tuple[Array, Array, Array, float]] = []
    for hit in hits:
        if any(np.linalg.norm(hit[0] - m[0]) < 1e-9 for m in merged):
            continue
        merged.append(hit)
    return merged


def relative_cycle_curves(field_neg: PseudoGradientField, p: CriticalPoint,
                          tol: Tolerances = DEFAULT) -> list[tuple[int, Trajectory]]:
    """Polyline representative of the relative cycle attached to a generator.

    Interior generators use the one-dimensional unstable manifold of the
    reversed-function field; boundary generators use its local stable manifold,
    flowed backwards until it exits through the boundary.  A curve that times
    out raises FlowTimeout.
    """
    cp = field_neg.crit.by_id(p.id)
    out = []
    for label, _, traj in _branches(field_neg, cp, cp.kind != INTERIOR, tol):
        if traj.termination == LEFT_DOMAIN:
            for other in field_neg.crit.points:
                if chart_distance(field_neg.chart, traj.end,
                                  other.coords) < tol.degeneracy_tol:
                    raise NonTransverse(
                        "relative curve exits at a critical point; "
                        "general position fails")
        out.append((label, traj))
    return out


def intersection_pairing(field_neg: PseudoGradientField,
                         field_pos: PseudoGradientField,
                         p: CriticalPoint, p_abs: CriticalPoint,
                         tol: Tolerances = DEFAULT) -> int:
    """Signed intersection count pairing a relative generator with an absolute one.

    p lives on the reversed-function side with unstable dimension n-k; p_abs on
    the plain side with unstable dimension n-k.  The count realizes the duality
    pairing between the two homology classes.
    """
    chart = field_pos.chart
    n = chart.dim
    dim_rel = n - p.grading
    dim_abs = p_abs.grading
    if dim_rel + dim_abs != n:
        raise DimensionMismatch(
            f"unstable dimensions {dim_rel} + {dim_abs} != {n}")
    total = 0

    cp_neg = field_neg.crit.by_id(p.id)
    cp_pos = field_pos.crit.by_id(p_abs.id)

    if p.id == p_abs.id:
        # both invariant manifolds pass through the shared point; the local
        # contribution is the orientation of the combined eigenframe
        frame_rel = cp_neg.frame_arrays()
        frame_abs = cp_pos.frame_arrays()
        mat = np.stack(frame_rel + frame_abs, axis=1)
        det = float(np.linalg.det(mat))
        if abs(det) < 1e-8:
            raise NonTransverse("invariant manifolds tangent at the shared point")
        total += (1 if det > 0 else -1) * p.reference_sign

    rel_curves = relative_cycle_curves(field_neg, p, tol)
    abs_curves = [(label, traj)
                  for label, _, traj in _branches(field_pos, cp_pos, False, tol)]

    for label_r, traj_r in rel_curves:
        pr = _resample(traj_r.points, 0.02)
        for label_a, traj_a in abs_curves:
            pa = _resample(traj_a.points, 0.02)
            for point, dir_r, dir_a, sin_angle in _polyline_crossings(pr, pa):
                if chart_distance(chart, point, cp_pos.coords) < 10 * tol.r_launch \
                        and p.id == p_abs.id:
                    continue  # germ artifacts next to the shared point
                if sin_angle < 1e-4:
                    raise NonTransverse("near-tangential crossing "
                                        f"between {p.id} and {p_abs.id}")
                o_rel = dir_r if label_r > 0 else -dir_r
                o_abs = dir_a if label_a > 0 else -dir_a
                det = float(np.linalg.det(np.stack([o_rel, o_abs], axis=1)))
                # deck-flip signs along each curve up to its sample nearest the crossing
                seam = 1
                for traj in (traj_r, traj_a):
                    idx = int(np.argmin(np.linalg.norm(traj.points - point, axis=1)))
                    seam *= path_orientation_sign(chart, traj.points[:idx + 1])
                total += (1 if det > 0 else -1) * seam * p.reference_sign
    return total

