"""Every wall of a flow point is read through `BoundaryConstraint.read`.

The field evaluator and the integrator's wall test read each wall at one
point as floats: a linear wall and a circle from their coefficients, a wall
given only by callables through them.  The catalog's circles are
`BoundaryConstraint.circle`, which must give the bits of the closure it
replaced, kept here as `catalog_circle`.  The last tests count the points the
objective's gradient is asked for where the critical search and the capture
check used to ask twice.
"""
import dataclasses
import math

import numpy as np
import pytest

from morseflow import catalog, flow
from morseflow.critical import find_interior_critical
from morseflow.fields import MorseField
from morseflow.geometry import BoundaryConstraint, Chart, plain_dot
from morseflow.params import DEFAULT
from morseflow.pseudogradient import (_CAPTURE_RAYS, _CAPTURE_RINGS, _capture_region,
                                      build_adapted)

from conftest import drawn_sample


def catalog_circle(name: str, radius: float, inner: bool = False) -> BoundaryConstraint:
    """The catalog's circle constraint before `BoundaryConstraint.circle`."""
    r2 = radius * radius
    sgn = -1.0 if inner else 1.0

    def value(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            u, v = x.tolist()
            return sgn * (u * u + v * v - r2)
        return sgn * (x[..., 0] ** 2 + x[..., 1] ** 2 - r2)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            u, v = x.tolist()
            return np.array([sgn * 2.0 * u, sgn * 2.0 * v])
        return sgn * 2.0 * x

    def hessian(x):
        eye = sgn * 2.0 * np.eye(2)
        return np.broadcast_to(eye, np.shape(x)[:-1] + (2, 2)).copy()

    return BoundaryConstraint(name=name, value=value, gradient=gradient, hessian=hessian)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def circle_points(radius, rng, count=300):
    """Random points inside, outside and on a circle about the origin, and
    the four points where it crosses the axes."""
    theta = rng.uniform(0.0, 2.0 * math.pi, 3 * count)
    r = np.concatenate([rng.uniform(0.0, radius, count),
                        rng.uniform(radius, 2.0 * radius, count),
                        np.full(count, radius)])
    axes = [[radius, 0.0], [0.0, radius], [-radius, 0.0], [0.0, -radius]]
    return np.concatenate([np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1), axes])


@pytest.mark.parametrize("radius, inner", [(1.0, False), (2.0, False), (1.0, True)])
def test_circle_gives_the_catalog_closure_bits(radius, inner):
    old = catalog_circle("wall", radius, inner)
    new = BoundaryConstraint.circle("wall", radius, inner=inner)
    points = circle_points(radius, np.random.default_rng(7))
    assert same_bits(new.value(points), old.value(points))
    assert same_bits(new.gradient(points), old.gradient(points))
    assert same_bits(new.hessian(points), old.hessian(points))
    for x in points:
        value, grad = old.value(x), old.gradient(x)
        assert same_bits(new.value(x), value)
        assert same_bits(new.gradient(x), grad)
        b, cov, norm = new.read(x.tolist())
        assert same_bits(b, value)
        assert same_bits(cov, grad)
        assert same_bits(norm, math.sqrt(plain_dot(grad.tolist(), grad.tolist())))


class CountedCallables:
    """A wall given by callables alone, which records each call."""

    def __init__(self, wall: BoundaryConstraint):
        self.calls = []

        def value(x):
            self.calls.append("value")
            return wall.value(x)

        def gradient(x):
            self.calls.append("gradient")
            return wall.gradient(x)

        self.constraint = BoundaryConstraint(wall.name, value, gradient, wall.hessian)


def test_a_wall_given_by_callables_reads_through_them():
    wall = CountedCallables(catalog_circle("rim", 1.0))
    b, cov, norm = wall.constraint.read([0.6, 0.0])
    assert wall.calls == ["value", "gradient"]
    assert (b, cov, norm) == (0.6 * 0.6 - 1.0, [1.2, 0.0], 1.2)


def test_field_and_flow_read_a_callables_wall_with_the_circle_bits(packages):
    pkg = packages["disk"]
    entry = pkg.entry
    wall = CountedCallables(catalog_circle("rim", 1.0))
    chart = Chart(entry.chart.dim, entry.chart.box, (wall.constraint,))
    field = build_adapted(entry.field, chart, pkg.crit,
                          sample=drawn_sample(entry.field, chart, pkg.crit))
    assert field.certificate.as_dict() == pkg.field_pos.certificate.as_dict()
    wall.calls.clear()
    points = np.concatenate([pkg.sample.interior[:300], pkg.sample.wall[:300]])
    for x in points.tolist():
        assert same_bits(field.evaluate(x), pkg.field_pos.evaluate(x))
    assert wall.calls.count("value") == wall.calls.count("gradient") == len(points)
    # down the disk onto the rim, which the wall guard tests through the callables
    wall.calls.clear()
    ours = flow.integrate(field, [0.9, 0.3])
    theirs = flow.integrate(pkg.field_pos, [0.9, 0.3])
    assert ours.termination == theirs.termination == flow.CONVERGED
    assert same_bits(ours.points, theirs.points)
    assert wall.calls


class GradientRows:
    """The number of points in each call of the wrapped gradient."""

    def __init__(self):
        self.calls = []

    def wrap(self, f: MorseField) -> MorseField:
        def gradient(x):
            self.calls.append(np.atleast_2d(np.asarray(x, dtype=float)).copy())
            return f.gradient(x)
        return MorseField(f.value, gradient, f.hessian)


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_interior_search_steps_no_singular_row(name):
    # the height function's hessian vanishes: every seed is singular at the
    # first Newton step and dies there without a trial gradient
    entry = catalog.get(name)
    rows = GradientRows()
    assert find_interior_critical(rows.wrap(entry.field), entry.chart) == []
    assert [len(c) for c in rows.calls] == [DEFAULT.seed_grid_density ** 2]


@pytest.mark.parametrize("name", ["disk", "annulus", "moebius", "tilted_dome"])
def test_capture_check_evaluates_each_ring_point_once(packages, name):
    pkg = packages[name]
    rows = GradientRows()
    checked = 0
    for base in (pkg.field_pos, pkg.field_neg):
        field = dataclasses.replace(base, objective=rows.wrap(base.objective))
        for reverse, grading in ((False, 0), (True, field.chart.dim)):
            kept = {r.sink.id: r for r in base.capture_regions(reverse)}
            for cp in field.crit.points:
                if cp.grading != grading or cp.id not in kept:
                    continue
                rows.calls.clear()
                region = _capture_region(field, cp, reverse)
                (ring,) = rows.calls
                assert 0 < len(ring) <= _CAPTURE_RINGS * _CAPTURE_RAYS
                assert len({row.tobytes() for row in ring}) == len(ring)
                want = kept[cp.id]
                assert region.sink is want.sink
                assert (region.radius, region.level, region.depth, region.sign) \
                    == (want.radius, want.level, want.depth, want.sign)
                checked += 1
    assert checked
