"""The float integrator against the numpy integrator it replaced.

`reference_integrate` is `flow.integrate` as it was written with numpy
2-vectors: Dormand-Prince stages as array arithmetic, the error norm through
`np.mean`, the wall test through the constraint callables and the speed
through `np.linalg.norm`, and f at every sample, with a capture region's
level tested before its distance.  Its step control (the starting step of
Hairer's DOPRI5 and its PI controller), step cap and wall landing (regula
falsi on the wall's value along the step fraction) are the float
integrator's.  The float integrator must give the same bits:
every branch integrated for a catalog entry at seeds 0 and 1 and for the
interior-saddle fixtures is integrated again here and compared byte for byte.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from morseflow import catalog
from morseflow.critical import INTERIOR
from morseflow.errors import CertificateViolation
from morseflow.flow import (CONVERGED, LEFT_DOMAIN, TIMEOUT, Trajectory, _A, _B4, _B5,
                            _deck_index, _pull_inside, _rk_step, integrate)
from morseflow.geometry import chart_distance, deck_apply, nearest_wall
from morseflow.params import DEFAULT
from morseflow.pipeline import _build_side, _setup, build_package

from test_interior_saddles import FIXTURES


def reference_rk_step(deriv, x, h, k1):
    k = [k1]
    for stage in range(1, 7):
        acc = x.copy()
        for j, c in enumerate(_A[stage]):
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


def reference_initial_step(deriv, x, k1, atol, rtol, h_max):
    """HINIT of Hairer's DOPRI5 (order 5) with numpy 2-vectors."""
    sk = atol + rtol * np.abs(x)
    dnf = float(np.sum((k1 / sk) ** 2))
    dny = float(np.sum((x / sk) ** 2))
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else math.sqrt(dny / dnf) * 0.01
    h = min(h, h_max)
    k_probe = deriv(x + h * k1)
    der2 = math.sqrt(float(np.sum(((k_probe - k1) / sk) ** 2))) / h
    der12 = max(der2, math.sqrt(dnf))
    h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.2
    return min(100.0 * h, h1, h_max)


def _violation(chart, x):
    return max((float(con.value(x)) for con in chart.constraints), default=-math.inf)


def reference_integrate(field, start, *, reverse=False, allow_exit=False):
    chart, tol = field.chart, field.tol
    sgn = -1.0 if reverse else 1.0
    deriv = lambda x: sgn * field.evaluate(x)
    value = lambda x: float(field.objective.value(x))
    crit = field.crit.points
    captures = field.capture_regions(reverse)

    x = np.asarray(start, dtype=float).copy()
    t = 0.0
    times, points, values = [t], [x.copy()], [value(x)]

    def result(termination, target=None):
        return Trajectory(np.array(times), np.array(points), termination, target)

    def settled(speed):
        y = points[-1]
        if speed < tol.field_stop:
            for cp in crit:
                if chart_distance(chart, y, cp.coords) <= tol.r_conv:
                    return cp.id
        for region in captures:
            if (region.sign * (values[-1] - region.level) < region.depth
                    and chart_distance(chart, y, region.sink.coords) < region.radius):
                sink = deck_apply(chart, _deck_index(chart, y, region.sink),
                                  region.sink.coords)
                gap = float(np.linalg.norm(sink - y))
                times.append(times[-1] + gap / max(speed, tol.field_stop))
                points.append(sink)
                values.append(region.level)
                return region.sink.id
        return None

    k1 = deriv(x)
    hit = settled(float(np.linalg.norm(k1)))
    if hit is not None:
        return result(CONVERGED, target=hit)

    h_max = 1.0
    h = reference_initial_step(deriv, x, k1, tol.atol, tol.rtol, h_max)
    err_prev, rejected = 1e-4, False
    steps = 0
    while True:
        if t >= tol.t_max or steps >= tol.max_steps:
            return result(TIMEOUT)
        steps += 1
        h = min(h, h_max, tol.t_max - t + 1e-9)
        x_new, err_vec, k_last = reference_rk_step(deriv, x, h, k1)
        scale = tol.atol + tol.rtol * np.maximum(np.abs(x), np.abs(x_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if not math.isfinite(err):
            raise CertificateViolation(
                f"field is not finite near {x.tolist()} at step {steps}")
        if err > 1.0 and h > 1e-13:
            h /= min(5.0, err ** 0.17 / 0.9)
            rejected = True
            continue

        excess = _violation(chart, x_new)
        if excess > 1e-12:
            lo, hi, x_hi = 0.0, 1.0, x_new
            f_lo, f_hi, moved = min(_violation(chart, x), 0.0), excess, 0
            for _ in range(60):
                s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
                if not h * lo < h * s < h * hi:
                    s = 0.5 * (lo + hi)
                    if not h * lo < h * s < h * hi:
                        break
                x_s, _, _ = reference_rk_step(deriv, x, h * s, k1)
                f_s = _violation(chart, x_s)
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
            t_land = t + h * hi
            _, outward = nearest_wall(chart, x_land)
            speed_vec = deriv(x_land)
            push = float(speed_vec @ outward) if outward is not None else 0.0
            if push > 1e-8 * (1.0 + float(np.linalg.norm(speed_vec))):
                times.append(t_land)
                points.append(x_land.copy())
                values.append(value(x_land))
                if allow_exit:
                    return result(LEFT_DOMAIN)
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

        hit = settled(float(np.linalg.norm(k_last)))
        if hit is not None:
            return result(CONVERGED, target=hit)
        h_new = h / max(0.1, min(5.0, err ** 0.17 / err_prev ** 0.04 / 0.9))
        h = min(h_new, h) if rejected else h_new
        err_prev, rejected = max(err, 1e-4), False


def _bits(traj):
    return tuple((a.shape, a.dtype.str, a.tobytes())
                 for a in (traj.times, traj.points)) + (
        traj.termination, traj.target)


def assert_same_trajectory(got, want):
    assert _bits(got) == _bits(want)


def check_branches(field):
    """Integrate every branch kept on the field again, with both integrators."""
    checked = 0
    for (_, reverse), branches in field._branch_memo.items():
        for _, x0, traj in branches:
            want = reference_integrate(field, x0, reverse=reverse, allow_exit=reverse)
            assert_same_trajectory(traj, want)
            assert_same_trajectory(integrate(field, x0, reverse=reverse,
                                             allow_exit=reverse), want)
            checked += 1
    return checked


def check_starts(field, starts):
    """Both time directions from each start, with the wall exit allowed."""
    for x0 in starts:
        for reverse in (False, True):
            assert_same_trajectory(
                integrate(field, x0, reverse=reverse, allow_exit=True),
                reference_integrate(field, x0, reverse=reverse, allow_exit=True))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", catalog.names())
def test_catalog_branches_match_the_numpy_integrator(packages, name, seed):
    pkg = packages[name] if seed == 0 else build_package(catalog.get(name), seed=seed)
    checked = check_branches(pkg.field_pos) + check_branches(pkg.field_neg)
    # the interval and the disk have no branch to follow; every entry's flow
    # is also checked from certification points
    assert checked > 0 or name in ("interval", "disk")
    for field in (pkg.field_pos, pkg.field_neg):
        check_starts(field, pkg.sample.interior[:4])


@pytest.mark.parametrize("name", list(FIXTURES))
def test_fixture_branches_match_the_numpy_integrator(name):
    entry = FIXTURES[name]()
    field, _ = _build_side(_setup(entry, DEFAULT), "N", 0)
    assert check_branches(field) > 0


def test_speed_straddling_field_stop_takes_the_exact_norm(packages):
    # next to the dome's maximum the field is small; the float norm
    # sqrt(a*a + b*b) and np.linalg.norm, which goes through a BLAS dot, can
    # differ in the last bit, and a field_stop between them decides whether
    # the trajectory has converged at its start
    field = packages["tilted_dome"].field_pos
    top = next(cp for cp in field.crit.points
               if cp.kind == INTERIOR and cp.grading == 2)
    for i in range(256):
        theta = 2.0 * math.pi * i / 256
        start = top.coords + 5e-6 * np.array([math.cos(theta), math.sin(theta)])
        k = field.evaluate(start)
        plain = math.sqrt(float(k[0]) * float(k[0]) + float(k[1]) * float(k[1]))
        exact = float(np.linalg.norm(k))
        if plain != exact:
            break
    else:
        pytest.fail("no start where the two norms differ")
    field = dataclasses.replace(field, tol=DEFAULT.override(field_stop=max(plain, exact)))
    want = reference_integrate(field, start)
    # converged at the start exactly when the BLAS norm is the smaller
    assert (len(want.times) == 1) == (exact < plain)
    assert_same_trajectory(integrate(field, start), want)


def test_capture_landing_time_takes_the_exact_norm(packages):
    # a start inside a sink's capture region ends at once, the sink appended
    # at the time the gap takes at the speed there, which the BLAS norm gives
    field = packages["tilted_dome"].field_pos
    region = field.capture_regions()[0]
    objective, chart = field.objective, field.chart
    for i in range(256):
        theta = 2.0 * math.pi * i / 256
        start = region.sink.coords + 0.2 * region.radius * np.array(
            [math.cos(theta), math.sin(theta)])
        if (any(float(con.value(start)) > 0.0 for con in chart.constraints)
                or region.sign * (float(objective.value(start)) - region.level)
                >= region.depth):
            continue
        k = field.evaluate(start)
        plain = math.sqrt(float(k[0]) * float(k[0]) + float(k[1]) * float(k[1]))
        gap = float(np.linalg.norm(region.sink.coords - start))
        if gap / plain != gap / float(np.linalg.norm(k)):
            break
    else:
        pytest.fail("no start in the region where the two landing times differ")
    want = reference_integrate(field, start)
    assert len(want.times) == 2 and want.target == region.sink.id
    assert_same_trajectory(integrate(field, start), want)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


# stage vectors whose error terms are all -0.0: the sum onto 0.0 is +0.0
@example(dim=2, x=[1.0, -2.0], h=0.25,
         ks=[-0.0, -0.0, 1.0, 1.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0])
@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2]), x=st.lists(_finite, min_size=2, max_size=2),
       h=st.floats(1e-12, 0.5), ks=st.lists(_finite, min_size=14, max_size=14))
def test_straight_line_step_is_the_stage_composition(dim, x, h, ks):
    # each stage returns the next of seven drawn vectors whatever its point,
    # so every stage point, x5 and the error estimate are compared bit for bit
    def stages(wrap):
        seen, out = [], iter(ks[2 * i:2 * i + dim] for i in range(7))
        k1 = next(out)

        def deriv(y):
            seen.append(np.array(y, dtype=float).tobytes())
            return wrap(next(out))
        return seen, deriv, wrap(k1)

    got_seen, deriv, k1 = stages(list)
    got = _rk_step(deriv, x[:dim], h, k1)
    want_seen, deriv, k1 = stages(lambda k: np.array(k, dtype=float))
    want = reference_rk_step(deriv, np.array(x[:dim]), h, k1)
    assert got_seen == want_seen
    for a, b in zip(got, want):
        assert type(a) is list and np.array(a).tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_interval_trajectories_match_the_numpy_integrator(packages, seed):
    # no catalog branch runs on a line; these starts, across the interval
    # and next to both ends, run its steps forward into the minimum's capture
    # region and backward out through the type-D end
    pkg = packages["interval"] if seed == 0 else build_package(catalog.get("interval"),
                                                               seed=seed)
    starts = [[s] for s in (1e-3, 0.05, 0.3, 0.5, 0.77, 0.95, 1.0 - 1e-3)]
    for field in (pkg.field_pos, pkg.field_neg):
        ends = set()
        for x0 in starts:
            for reverse in (False, True):
                want = reference_integrate(field, x0, reverse=reverse, allow_exit=True)
                assert_same_trajectory(
                    integrate(field, x0, reverse=reverse, allow_exit=True), want)
                ends.add((reverse, want.termination, len(want.times) > 5))
        assert {(False, CONVERGED, True), (True, LEFT_DOMAIN, True)} <= ends
