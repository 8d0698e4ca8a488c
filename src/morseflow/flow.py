"""Trajectory integration, connecting-orbit counting and the intersection pairing.

Integration uses an embedded Dormand-Prince 5(4) pair with a boundary guard:
a step that would leave the manifold is shortened to land on the wall, where
only tangent or inward field directions are tolerated.  The landing finds the
step fraction at which the wall's value crosses zero by regula falsi with the
Illinois halving, bisecting only where a secant step would repeat one taken,
and stops at the first step whose wall value lies within 1e-12 of zero
(`_pull_inside` snaps a point just outside onto the wall): a handful of
steps where bisecting the fraction to its last float took about 55.

Step control takes the defaults of the DOPRI5 code of Hairer, Norsett &
Wanner (Solving ODEs I, II.4), on the pair of Dormand & Prince (1980): the
starting step of its HINIT, from one probe evaluation at an Euler step
(`_initial_step`); a PI controller (beta = 0.04), which scales an accepted
step by 0.9 err^-0.17 err_prev^0.04 within [0.2, 10] and a rejected one by
0.9 err^-0.17, at least 0.2; and no growth on the step right after a
rejection.  An I-controller alone (err^-1/5) keeps growing the step into the
collar, where the field relaxes faster, and rejecting it there: from
h = 1e-4 it rejected 608 of 3,213 trial steps of the catalog's branches at
seeds 0-3, where these defaults reject 338 of 2,736.  The step stays
capped at 1.0: without the cap, the annulus's start on the stable curve of
a saddle, (0, 1.5), overshoots the saddle and ends at the sink.

A trajectory ends as soon as it enters the certified capture region of a sink
of its time direction (a grading-0 zero forward, a top-grading zero backward),
with the sink appended as its last sample.  Otherwise it ends at a zero only
once its speed falls below `field_stop` within `r_launch / 10` of it: a sink
whose region failed its check, or a saddle, where a branch ending shows a
non-transverse connection.  Orbit counts only need the basin a branch reaches,
so the steps are loose: `rtol` 1e-5 and `atol` 1e-7 by default.  Every
integer output of the five catalog entries at seeds 0-15 is the same at rtol
1e-5, 1e-4 and 1e-3 (atol a hundredth of it); at 1e-2 the annulus's pairing
at seed 9 retries another perturbation seed.  That of the flip = +1
cylinder the tests build is not: at seed 5 its relative curve leaves the
wall 1.8e-4 from a critical point, farther than `r_launch`, but at rtol 1e-4
the step error moves the exit to 2.5e-5, and the pairing retries at another
perturbation seed.  So the default keeps a factor of ten.
A trajectory keeps only its points, no clock: a count reads the basin a
branch reaches and the pairing where a curve runs.  The integrator reads the
field's objective at a sample only when the sample lies within a capture
region's radius, once, for the regions' level tests.

The integrator steps in float arithmetic: stages, error norm, wall test and
stop tests work on lists of floats and round as the numpy 2-vector arithmetic
they replaced.  One step is straight-line code for the plane (`_rk_step`):
each stage point adds its terms one at a time, left to right, as the array
arithmetic did, and a line runs it with second components of 0.0.  The
loop writes the error norm and the stop tests' speed and distances out on the
two components, a line's second ones 0.0; on a strip a distance takes the
deck images through `coords_distance`.  Each stage passes its list to `PseudoGradientField.evaluate`, the
field's float kernel, which returns a list; the flow evaluates the field
through nothing else.  The time reversal takes the field's values as they
are and steps by -h: (-h * c) * k rounds as (h * c) * -k, so every point
and error has the bits of stepping the negated field, and only the outward
push of a landing changes sign.  The wall test reads every wall through
`BoundaryConstraint.read`.  Numpy is left to the output arrays, the
objective's callables (the catalog's compute one point in float arithmetic),
a wall given by callables alone, the landing on a wall and the entry into a
capture region.  `np.linalg.norm`, whose BLAS dot may
round differently from `sqrt(a*a + b*b)`, gives the speed where its last bit
decides: within a relative 1e-9 of `field_stop`.

Every connecting orbit between generators of adjacent grading on a surface is
a branch of a one-dimensional invariant manifold, so each count follows one:
the unstable manifold of a grading-one source forward, or the stable manifold
of a grading-one target backward.  The pairing's curves are branches of the same
manifolds.  `_branches` is the one place that launches them: it integrates each
branch once per field and keeps the result on the field, so the counts and
the pairing read the same trajectories.  `integrate` itself keeps no
trajectory.

Every function here reads its tolerances from the field (`field.tol`), the
set the field was built and certified with; the pairing reads each field's
own.

Each connecting orbit keeps one fact beyond its sign, its deck index k: it
runs from its source's canonical position to T^k of its sink's (k = 0 without
a deck map).  An incidence is sum(sign * t^k) over its orbits: the integer
count at t = 1, the count with orientation coefficients at t = flip; on the
m-fold cyclic cover the orbit runs from sheet i to sheet i + k.

The pairing counts crossings on the cover: trajectories run in raw strip
coordinates, lifts of their curves, so each relative curve is intersected with
the deck images of each absolute branch, whose directions carry the deck map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import BOUNDARY_N, INTERIOR, CriticalPoint, _project_to_zero, sign_fix
from .errors import (CertificateViolation, DimensionMismatch, FlowTimeout,
                     NonTransverse, StalledBranch)
from .geometry import (active_constraint, chart_distance, coords_distance,
                       deck_apply, deck_sign, nearest_wall, plain_dot)
from .pseudogradient import PseudoGradientField

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
    points: Array                  # raw (cover) coordinates, one row per sample
    termination: str
    target: int | None = None      # critical id for CONVERGED

    @property
    def end(self) -> Array:
        return self.points[-1]


# the tableau and the error weights b5 - b4 by name, but for their zeros
(_, (_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54),
 (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76)) = _A
_E1, _, _E3, _E4, _E5, _E6, _E7 = (b5 - b4 for b5, b4 in zip(_B5, _B4))


def _rk_step(deriv, x: list, h: float, k1: list):
    """One Dormand-Prince step from x, where k1 = deriv(x), which must not
    modify its argument; returns (x5, err_vec, k_last) as lists of floats.

    Each stage point adds its terms `(h * c) * k[j]` to x left to right, as
    `acc = acc + (h * c) * k[j]` rounds; x5 is the last stage's point (first
    same as last), and the error sums its terms onto 0.0.  A line runs the
    plane's arithmetic with second components of 0.0, which move no bit.  A
    negative h steps the time reversal of deriv with the bits of stepping by
    |h| along -deriv; k_last is deriv's own value.
    """
    line = len(x) == 1
    if line:
        deriv_line = deriv
        deriv = lambda y: [*deriv_line(y[:1]), 0.0]
        x, k1 = [x[0], 0.0], [k1[0], 0.0]
    x0, x1 = x
    k10, k11 = k1
    c1 = h * _A21
    k20, k21 = deriv([x0 + c1 * k10, x1 + c1 * k11])
    c1, c2 = h * _A31, h * _A32
    k30, k31 = deriv([x0 + c1 * k10 + c2 * k20, x1 + c1 * k11 + c2 * k21])
    c1, c2, c3 = h * _A41, h * _A42, h * _A43
    k40, k41 = deriv([x0 + c1 * k10 + c2 * k20 + c3 * k30,
                      x1 + c1 * k11 + c2 * k21 + c3 * k31])
    c1, c2, c3, c4 = h * _A51, h * _A52, h * _A53, h * _A54
    k50, k51 = deriv([x0 + c1 * k10 + c2 * k20 + c3 * k30 + c4 * k40,
                      x1 + c1 * k11 + c2 * k21 + c3 * k31 + c4 * k41])
    c1, c2, c3, c4, c5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    k60, k61 = deriv([x0 + c1 * k10 + c2 * k20 + c3 * k30 + c4 * k40 + c5 * k50,
                      x1 + c1 * k11 + c2 * k21 + c3 * k31 + c4 * k41 + c5 * k51])
    c1, c3, c4, c5, c6 = h * _A71, h * _A73, h * _A74, h * _A75, h * _A76
    x5 = [x0 + c1 * k10 + c3 * k30 + c4 * k40 + c5 * k50 + c6 * k60,
          x1 + c1 * k11 + c3 * k31 + c4 * k41 + c5 * k51 + c6 * k61]
    k7 = deriv(x5)
    k70, k71 = k7
    c1, c3, c4, c5, c6, c7 = (h * _E1, h * _E3, h * _E4, h * _E5, h * _E6,
                              h * _E7)
    err = [0.0 + c1 * k10 + c3 * k30 + c4 * k40 + c5 * k50 + c6 * k60 + c7 * k70,
           0.0 + c1 * k11 + c3 * k31 + c4 * k41 + c5 * k51 + c6 * k61 + c7 * k71]
    if line:
        return x5[:1], err[:1], k7[:1]
    return x5, err, k7


def _violation(readers: tuple, x: list) -> float:
    """Positive when x lies outside the manifold: the largest wall value, the
    first on a tie or after a NaN, as `max` picks it (-inf without a wall);
    readers are the walls' `BoundaryConstraint.read`."""
    excess = None
    for read in readers:
        b = read(x)[0]
        if excess is None or b > excess:
            excess = b
    return -math.inf if excess is None else excess


def _pull_inside(chart, x) -> Array:
    """Nudge a point with a tiny constraint excess back onto the manifold."""
    out = np.array(x, dtype=float)
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


def _norm(v: list) -> float:
    """`np.linalg.norm`, whose BLAS dot may round differently from the float
    `math.sqrt(plain_dot(v, v))`."""
    return float(np.linalg.norm(np.array(v)))


def _initial_step(deriv, x: list, k1: list, atol: float, rtol: float,
                  h_max: float, direction: float) -> float:
    """The starting step of Hairer's DOPRI5 (its HINIT, order 5), from
    x, where k1 = deriv(x), and one more evaluation at an Euler step in the
    time direction (1.0, or -1.0 for the reversal): a step whose fifth
    power times the larger of the scaled |k1| and second derivative is
    0.01, at most 100 times the probe's step and h_max."""
    sk = [atol + rtol * abs(c) for c in x]
    f0 = [f / s for f, s in zip(k1, sk)]
    y0 = [c / s for c, s in zip(x, sk)]
    dnf, dny = plain_dot(f0, f0), plain_dot(y0, y0)
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else math.sqrt(dny / dnf) * 0.01
    h = min(h, h_max)
    step = direction * h
    k_probe = deriv([c + step * f for c, f in zip(x, k1)])
    d2 = [(b - a) / s for a, b, s in zip(k1, k_probe, sk)]
    der12 = max(math.sqrt(plain_dot(d2, d2)) / h, math.sqrt(dnf))
    h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.2
    return min(100.0 * h, h1, h_max)


def integrate(field: PseudoGradientField, start, *,
              reverse: bool = False) -> Trajectory:
    """Flow a trajectory of the field (or of its time reversal).

    Terminates
    - CONVERGED at a critical point of the build once the speed is below
      `field_stop` within `r_launch / 10` of it;
    - CONVERGED on entering a capture region of a sink of this time direction
      (`PseudoGradientField.capture_regions`): the sink's deck image nearest
      the trajectory is appended as the last sample;
    - LEFT_DOMAIN on leaving the manifold backward: a stable manifold may
      leave it, but a forward trajectory of a certified field may not, so
      leaving it forward raises CertificateViolation;
    - TIMEOUT after `t_max` or `max_steps`.

    A field value that is not finite raises CertificateViolation at the step
    that meets it, or at the next one after a landing on the wall.
    """
    chart = field.chart
    # every point handed to the field is a list of floats, so it returns one;
    # the reversal steps the field's own values with negated steps
    deriv = field.evaluate
    direction = -1.0 if reverse else 1.0
    value = lambda x: float(field.objective.value(np.array(x)))
    walls = tuple(con.read for con in chart.constraints)
    tol = field.tol
    stop, atol, rtol = tol.field_stop, tol.atol, tol.rtol
    r_stop = tol.r_launch / 10
    t_max, max_steps, dim = tol.t_max, tol.max_steps, chart.dim
    sqrt = math.sqrt
    deck = chart.deck

    def target(coords: Array) -> tuple:
        """A target's coordinates as a list and as (c0, c1), a line's c1 0.0."""
        c = coords.tolist()
        return (c, *c) if dim == 2 else (c, c[0], 0.0)

    crit = [(cp.id, *target(cp.coords)) for cp in field.crit.points]
    captures = [(region, *target(region.sink.coords))
                for region in field.capture_regions(reverse)]

    x = np.asarray(start, dtype=float).tolist()
    t = 0.0
    points = [x]

    def result(termination: str, target: int | None = None) -> Trajectory:
        return Trajectory(np.array(points), termination, target)

    def settled(k: list) -> int | None:
        """Target id once the last sample, where the field is k, has
        converged or been captured."""
        y = points[-1]
        # plain_dot and, off a strip, coords_distance written out; a line's
        # second components are 0.0, which move no bit
        if dim == 2:
            (y0, y1), (v0, v1) = y, k
        else:
            y0, y1, v0, v1 = y[0], 0.0, k[0], 0.0
        speed = sqrt(v0 * v0 + v1 * v1)
        if abs(speed - stop) <= 1e-9 * stop:
            speed = _norm(k)  # the two norms may fall on either side of the stop
        if speed < stop:
            for cp_id, coords, c0, c1 in crit:
                if deck is None:
                    d0, d1 = y0 - c0, y1 - c1
                    d = sqrt(d0 * d0 + d1 * d1)
                else:
                    d = coords_distance(chart, y, coords)
                if d <= r_stop:
                    return cp_id
        f_y = None  # the objective at y, read once y lies within a region's radius
        for region, coords, c0, c1 in captures:
            if deck is None:
                d0, d1 = y0 - c0, y1 - c1
                d = sqrt(d0 * d0 + d1 * d1)
            else:
                d = coords_distance(chart, y, coords)
            if d >= region.radius:
                continue
            if f_y is None:
                f_y = value(y)
            if region.sign * (f_y - region.level) < region.depth:
                sink = deck_apply(chart, _deck_index(chart, y, region.sink),
                                  region.sink.coords)
                points.append(sink.tolist())
                return region.sink.id
        return None

    k1 = deriv(x)
    hit = settled(k1)
    if hit is not None:
        return result(CONVERGED, target=hit)

    h_max = 1.0
    h = _initial_step(deriv, x, k1, atol, rtol, h_max, direction)
    err_prev, rejected = 1e-4, False
    steps = 0
    while True:
        if t >= t_max or steps >= max_steps:
            return result(TIMEOUT)
        steps += 1
        h = min(h, h_max, t_max - t + 1e-9)
        x_new, err_vec, k_last = _rk_step(deriv, x, direction * h, k1)
        # the root mean square of the scaled error, rounded as `np.mean`
        # rounds: each component over atol + rtol * max(|x|, |x_new|), max
        # taking the first on a tie; a line's second term is 0.0, which adds
        # nothing
        if dim == 2:
            (e0, e1), (a0, a1), (b0, b1) = err_vec, x, x_new
            a1, b1 = abs(a1), abs(b1)
            q1 = e1 / (atol + rtol * (b1 if b1 > a1 else a1))
        else:
            (e0,), (a0,), (b0,) = err_vec, x, x_new
            q1 = 0.0
        a0, b0 = abs(a0), abs(b0)
        q0 = e0 / (atol + rtol * (b0 if b0 > a0 else a0))
        err = sqrt((q0 * q0 + q1 * q1) / dim)
        if not math.isfinite(err):  # a stage met a field value that is not finite
            raise CertificateViolation(
                f"field is not finite near {x} at step {steps}")
        if err > 1.0 and h > 1e-13:
            h /= min(5.0, err ** 0.17 / 0.9)
            rejected = True
            continue

        # boundary guard: regula falsi on the wall excess along the step
        # fraction, halving the value at the end that stays while the other
        # moves twice in a row (Illinois); the landing keeps the step at the
        # outside end hi, or the first step within 1e-12 of the wall
        excess = _violation(walls, x_new)
        if excess > 1e-12:
            lo, hi, x_hi = 0.0, 1.0, x_new
            f_lo, f_hi, moved = min(_violation(walls, x), 0.0), excess, 0
            for _ in range(60):
                s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
                if not h * lo < h * s < h * hi:  # no new step: bisect
                    s = 0.5 * (lo + hi)
                    if not h * lo < h * s < h * hi:
                        break  # every further step would repeat one taken
                x_s, _, _ = _rk_step(deriv, x, direction * (h * s), k1)
                f_s = _violation(walls, x_s)
                if abs(f_s) <= 1e-12:
                    hi, x_hi = s, x_s
                    break
                if f_s > 0.0:
                    hi, x_hi, f_hi = s, x_s, f_s
                    if moved == 1:
                        f_lo *= 0.5
                    moved = 1
                else:
                    lo, f_lo = s, f_s
                    if moved == -1:
                        f_hi *= 0.5
                    moved = -1
            x_land = _pull_inside(chart, x_hi)
            _, outward = nearest_wall(chart, x_land)
            land = x_land.tolist()
            speed_vec = deriv(land)
            push = (direction * float(np.array(speed_vec) @ outward)
                    if outward is not None else 0.0)
            if push > 1e-8 * (1.0 + _norm(speed_vec)):
                if not reverse:
                    raise CertificateViolation(
                        f"trajectory pushed out of the manifold at {x_land}")
                points.append(land)
                return result(LEFT_DOMAIN)
            x, t, k1 = land, t + h * hi, speed_vec
            points.append(x)
            h = max(h * 0.5, 1e-10)
            continue

        t += h
        x = x_new
        k1 = k_last
        points.append(x)

        hit = settled(k_last)
        if hit is not None:
            return result(CONVERGED, target=hit)
        # PI control: the factor 0.9 err^-0.17 err_prev^0.04 within [0.2, 10],
        # and none above 1 right after a rejection
        h_new = h / max(0.1, min(5.0, err ** 0.17 / err_prev ** 0.04 / 0.9))
        h = min(h_new, h) if rejected else h_new
        err_prev, rejected = max(err, 1e-4), False


# ---------------------------------------------------------------------------
# launches


def unstable_launches(field: PseudoGradientField,
                      cp: CriticalPoint) -> list[tuple[int, Array]]:
    """Launch points for the two branches of a one-dimensional unstable manifold."""
    if len(cp.frame) != 1:
        raise DimensionMismatch(f"generator {cp.id} has unstable dimension "
                                f"{len(cp.frame)}, expected 1")
    e_u, tol = cp.frame[0], field.tol
    out = []
    for label in (1, -1):
        x0 = cp.coords + tol.r_launch * label * e_u
        if cp.kind == BOUNDARY_N:
            proj = _project_to_zero(active_constraint(field.chart, cp.coords, tol), x0)
            x0 = x0 if proj is None else proj
        out.append((label, x0))
    return out


def stable_launches(field: PseudoGradientField,
                    cp: CriticalPoint) -> list[tuple[int, Array]]:
    """Launch points spanning a one-dimensional local stable manifold."""
    r_launch = field.tol.r_launch
    if cp.kind == INTERIOR:
        hess = np.asarray(field.objective.hessian(cp.coords), dtype=float)
        eigvals, eigvecs = np.linalg.eigh(hess)
        stable = [eigvecs[:, i] for i in range(len(eigvals)) if eigvals[i] > 0]
        if len(stable) != 1:
            raise DimensionMismatch(f"generator {cp.id} has stable dimension "
                                    f"{len(stable)}, expected 1")
        e_s = sign_fix(stable[0])
        return [(1, cp.coords + r_launch * e_s), (-1, cp.coords - r_launch * e_s)]
    # boundary tangency point: the stable direction is the inward normal ray
    return [(1, cp.coords + r_launch * -cp.normal)]


def _branches(field: PseudoGradientField, anchor: CriticalPoint,
              reverse: bool) -> tuple[tuple[int, Array, Trajectory], ...]:
    """(label, launch point, trajectory) for each branch of a one-dimensional
    invariant manifold of anchor, one of the field's critical points.

    Forward follows the unstable manifold, which may not leave the domain;
    reverse follows the stable manifold backward, ending LEFT_DOMAIN where it
    exits.  Each branch is integrated once per field: the result is kept on
    the field and shared by every caller, which must not modify it.
    A timed-out branch raises FlowTimeout, and one that ends at anchor
    itself StalledBranch; neither is kept.
    """
    key = (anchor.id, reverse)
    found = field._branch_memo.get(key)
    if found is None:
        launches = stable_launches if reverse else unstable_launches
        out = []
        for label, x0 in launches(field, anchor):
            traj = integrate(field, x0, reverse=reverse)
            if traj.termination == TIMEOUT:
                raise FlowTimeout(f"branch {label} from generator {anchor.id} "
                                  f"timed out (perturb_seed {field.perturb_seed})")
            if traj.target == anchor.id:
                raise StalledBranch(
                    f"branch {label} from generator {anchor.id} ends where it "
                    f"started: r_launch = {field.tol.r_launch:g} does not leave it "
                    f"(perturb_seed {field.perturb_seed})")
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
    deck: int             # the orbit ends at T^deck of its sink
    trajectory: Trajectory


@dataclass(frozen=True, eq=False)
class IncidenceCount:
    """The orbits from source to sink; both coefficient flavours evaluate
    sum(sign * t^deck), at t = 1 and at t = flip."""
    source: int
    sink: int
    orbits: tuple[ConnectingOrbit, ...]
    flip: int             # the chart's deck flip (1 without a deck map)

    @property
    def count(self) -> int:
        return sum(o.sign for o in self.orbits)

    @property
    def count_twisted(self) -> int:
        return sum(o.sign * (self.flip if o.deck % 2 else 1) for o in self.orbits)

    def flavor(self, coefficients: str) -> int:
        return self.count if coefficients == "untwisted" else self.count_twisted


def _deck_index(chart, raw: Array, cp: CriticalPoint) -> int:
    """Deck power j with raw coordinates near T^j of cp (0 without a deck map)."""
    if chart.deck is None:
        return 0
    return round((raw[0] - cp.coords[0]) / chart.deck.period)


def _reversed_orbit(field: PseudoGradientField, p: CriticalPoint,
                    q: CriticalPoint, launch: Array,
                    traj: Trajectory) -> tuple[int, int, Trajectory]:
    """Sign, deck index and source-to-sink trajectory of a backward branch
    from q to p.

    The branch starts at q's canonical position and reaches a deck image T^k
    of p; it is stored reversed and moved by T^-k so that it runs from p's
    canonical position to T^-k q.
    """
    chart = field.chart
    k = _deck_index(chart, traj.end, p)
    forward = Trajectory(deck_apply(chart, -k, traj.points[::-1]),
                         CONVERGED, target=q.id)
    # orientation of (flow direction, q's unstable frame vector, which
    # co-orients q's stable manifold) against p's unstable frame carried to T^k p
    vel = field.evaluate(launch.tolist())
    det = float(np.linalg.det(np.stack([vel, q.frame[0]], axis=1)))
    or_source = 1 if np.linalg.det(np.stack(p.frame, axis=1)) > 0 else -1
    sign = or_source * deck_sign(chart, k) * (1 if det > 0 else -1)
    return sign, -k, forward


def _follow_branches(field: PseudoGradientField, p: CriticalPoint,
                     q: CriticalPoint) -> list[ConnectingOrbit]:
    """Orbits from p to q along the one-dimensional manifold that carries them.

    A grading-one source's unstable manifold is followed forward; otherwise,
    on a surface, the grading-one target's stable manifold is followed
    backward, dropping branches that leave the domain.
    """
    reverse = p.grading > 1
    anchor, far = (q, p) if reverse else (p, q)
    orbits = []
    for label, x0, traj in _branches(field, anchor, reverse):
        if traj.termination == LEFT_DOMAIN:
            continue
        hit = field.crit.by_id(traj.target)
        if hit.grading == anchor.grading:
            raise NonTransverse(
                f"branch {label} from generator {anchor.id} ends at generator "
                f"{hit.id} of equal grading (perturb_seed {field.perturb_seed})")
        if hit.id != far.id:
            continue
        if reverse:
            sign, deck, traj = _reversed_orbit(field, p, q, x0, traj)
        else:
            sign, deck = label, _deck_index(field.chart, traj.end, q)
        orbits.append(ConnectingOrbit(p.id, q.id, sign, deck, traj))
    return orbits


def count_connecting_orbits(field: PseudoGradientField, p: CriticalPoint,
                            q: CriticalPoint) -> IncidenceCount:
    """Signed connecting orbits from p (grading k) down to q (grading k-1)."""
    if p.grading != q.grading + 1:
        raise DimensionMismatch("orbit counting needs a grading gap of one")
    flip = 1 if field.chart.deck is None else field.chart.deck.flip
    orbits = tuple(_follow_branches(field, p, q)) if p.value > q.value else ()
    return IncidenceCount(p.id, q.id, orbits, flip)


# ---------------------------------------------------------------------------
# intersection pairing


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


def _cover_crossings(chart, pr: Array, pa: Array) -> list[tuple[Array, Array, Array, float]]:
    """`_polyline_crossings` of the raw polyline pr with each deck image T^m
    of pa whose u-range meets pr's (pa itself without a deck map); an image's
    samples carry T^m, so its directions carry dT^m."""
    images = [pa]
    if chart.deck is not None:
        period = chart.deck.period
        first = math.ceil((pr[:, 0].min() - pa[:, 0].max()) / period)
        last = math.floor((pr[:, 0].max() - pa[:, 0].min()) / period)
        images = [deck_apply(chart, m, pa) for m in range(first, last + 1)]
    return [hit for image in images for hit in _polyline_crossings(pr, image)]


def relative_cycle_curves(field_neg: PseudoGradientField,
                          p: CriticalPoint) -> list[tuple[int, Trajectory]]:
    """Polyline representative of the relative cycle attached to a generator.

    Interior generators use the one-dimensional unstable manifold of the
    reversed-function field; boundary generators use its local stable manifold,
    flowed backwards until it exits through the boundary.  An exit within
    `r_launch` of a critical point raises NonTransverse, and a curve that
    times out FlowTimeout.
    """
    cp = field_neg.crit.by_id(p.id)
    out = []
    for label, _, traj in _branches(field_neg, cp, cp.kind != INTERIOR):
        if traj.termination == LEFT_DOMAIN:
            for other in field_neg.crit.points:
                if chart_distance(field_neg.chart, traj.end,
                                  other.coords) < field_neg.tol.r_launch:
                    raise NonTransverse(
                        f"branch {label} of the relative curve of generator "
                        f"{p.id} exits at a critical point ({other.id}); general "
                        f"position fails (perturb_seed {field_neg.perturb_seed})")
        out.append((label, traj))
    return out


def intersection_pairing(field_neg: PseudoGradientField,
                         field_pos: PseudoGradientField,
                         p: CriticalPoint, p_abs: CriticalPoint) -> int:
    """Signed intersection count pairing a relative generator with an absolute one.

    p lives on the reversed-function side with unstable dimension n-k; p_abs on
    the plain side with unstable dimension n-k.  The count realizes the duality
    pairing between the two homology classes: crossings on the cover
    (`_cover_crossings`), each signed by the curves' orientation there.
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
    germ = 10 * field_pos.tol.r_launch
    seeds = (f"(perturb_seed {field_neg.perturb_seed} ascent, "
             f"{field_pos.perturb_seed} descent)")

    if p.id == p_abs.id:
        # both invariant manifolds pass through the shared point; the local
        # contribution is the orientation of the combined eigenframe
        mat = np.stack(cp_neg.frame + cp_pos.frame, axis=1)
        det = float(np.linalg.det(mat))
        if abs(det) < 1e-8:
            raise NonTransverse(f"invariant manifolds of generator {p.id} "
                                f"tangent at the shared point {seeds}")
        total += 1 if det > 0 else -1

    for label_r, traj_r in relative_cycle_curves(field_neg, p):
        for label_a, _, traj_a in _branches(field_pos, cp_pos, False):
            for point, dir_r, dir_a, sin_angle in _cover_crossings(
                    chart, traj_r.points, traj_a.points):
                if p.id == p_abs.id and chart_distance(chart, point, cp_pos.coords) < germ:
                    continue  # germ artifacts next to the shared point
                if sin_angle < 1e-4:
                    raise NonTransverse(
                        f"near-tangential crossing between generators {p.id} "
                        f"and {p_abs.id} {seeds}")
                o_rel = dir_r if label_r > 0 else -dir_r
                o_abs = dir_a if label_a > 0 else -dir_a
                det = float(np.linalg.det(np.stack([o_rel, o_abs], axis=1)))
                total += 1 if det > 0 else -1
    return total
