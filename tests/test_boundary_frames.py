"""The batched boundary layer against the per-point one.

`geometry.boundary_frames` gives the one wall trace, which the critical search
scans and the certificate tests, its boundary points, normals and tangents in
one batch, and `critical._walk_slopes` the tangential derivatives scanned for
sign changes.
Both must return the bits, and raise the errors, of `normalize_point`,
`boundary_frame` and `boundary_restriction_derivatives` point by point, so
every comparison here is exact.  Each analysis draws its
certification sample once.
"""
import dataclasses

import numpy as np
import pytest

from morseflow import catalog, critical, fields, geometry, pipeline, pseudogradient
from morseflow.critical import (CriticalSet, _walk_slopes, boundary_components,
                                boundary_loop_count, boundary_sample)
from morseflow.errors import AmbiguousBoundary, NotOnBoundary, PointOutsideManifold
from morseflow.fields import MorseField, boundary_restriction_derivatives, halton_sequence
from morseflow.geometry import (BoundaryConstraint, Chart, boundary_frame,
                                boundary_frames, chart_distance_many, normalize_point)
from morseflow.params import DEFAULT
from morseflow.pseudogradient import certification_sample, certify_adapted

from conftest import drawn_sample, with_metric


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def per_point_frames(chart, loop):
    points, normals, tangents = [], [], []
    for x in loop:
        pt = normalize_point(chart, x)
        points.append(pt)
        normal, tangent = boundary_frame(chart, pt)
        normals.append(normal)
        tangents.append(tangent)
    return np.array(points), np.array(normals), np.array(tangents)


def scaled(name):
    entry = catalog.get(name)
    return with_metric(entry, lambda x: 2.0 * np.eye(entry.chart.dim))


def skewed(name):
    return with_metric(catalog.get(name), lambda x: np.array([[2.0, 0.3], [0.3, 1.0]]))


ENTRIES = [(name, lambda name=name: catalog.get(name)) for name in catalog.names()] + [
    (f"{name}-scaled", lambda name=name: scaled(name)) for name in ("disk", "annulus")] + [
    (f"{name}-skewed", lambda name=name: skewed(name))
    for name in ("annulus", "tilted_dome")]


def search_and_wall_loops(chart):
    """Loops of 400 points and the wall trace's loops."""
    return (boundary_components(chart, 400)
            + boundary_components(chart, DEFAULT.cert_boundary_samples // 2))


@pytest.mark.parametrize("label, make", ENTRIES, ids=[label for label, _ in ENTRIES])
def test_frames_match_per_point(label, make):
    entry = make()
    for loop in search_and_wall_loops(entry.chart):
        got = boundary_frames(entry.chart, loop)
        want = per_point_frames(entry.chart, loop)
        assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("label, make", ENTRIES, ids=[label for label, _ in ENTRIES])
def test_walk_slopes_match_per_point(label, make):
    entry = make()
    if entry.chart.dim != 2:
        return
    sample = boundary_sample(entry.field, entry.chart)
    got = _walk_slopes(entry.chart, sample.wall_grad, sample.tangents)
    want = [boundary_restriction_derivatives(
        entry.field, entry.chart, normalize_point(entry.chart, x))[0]
        for x in sample.wall]
    # oriented along the walk: only a sign may differ
    assert same_bits(np.abs(got), np.abs(want))


def test_restriction_derivatives_look_the_wall_up_once(monkeypatch):
    lookups = []
    lookup = geometry.active_constraint

    def counted(*args, **kwargs):
        lookups.append(args[1])
        return lookup(*args, **kwargs)

    for mod in (geometry, fields):
        if getattr(mod, "active_constraint", None) is lookup:
            monkeypatch.setattr(mod, "active_constraint", counted)
    entry = catalog.get("annulus")
    points = [normalize_point(entry.chart, x) for x in ([0.0, 2.0], [1.0, 0.0])]
    for pt in points:
        boundary_restriction_derivatives(entry.field, entry.chart, pt)
    assert len(lookups) == len(points)


@pytest.mark.parametrize("name", [*catalog.names(), "cylinder"])
def test_the_sample_wall_is_the_traced_loops(cylinder, name):
    # strip loops are drawn inside [0, period) and region charts have no deck
    # map, so the canonical wall keeps the bits of the loops as traced
    entry = cylinder if name == "cylinder" else catalog.get(name)
    chart = entry.chart
    sample = drawn_sample(entry.field, chart, CriticalSet(chart.dim, ()))
    per_loop = max(1, DEFAULT.cert_boundary_samples // boundary_loop_count(chart))
    loops = boundary_components(chart, per_loop)
    assert same_bits(sample.wall, np.concatenate(loops))
    assert sample.ends == tuple(np.cumsum([len(loop) for loop in loops]))


def test_walk_slopes_follow_the_moebius_boundary_circle():
    # the one boundary circle of the band, walked along the top edge and then
    # the bottom edge: f = v sin(u/2) falls and rises once along it, so its
    # slope changes sign at the two critical points and nowhere else, not at
    # the seams where the frame tangent reverses
    entry = catalog.get("moebius")
    sample = boundary_sample(entry.field, entry.chart)
    assert sample.ends == (len(sample.wall),)
    g = _walk_slopes(entry.chart, sample.wall_grad, sample.tangents)
    changes = np.flatnonzero(np.sign(g) != np.sign(np.roll(g, -1)))
    u = sample.wall[changes, 0]
    assert len(changes) == 2
    assert np.all(np.abs(u - np.pi) < 0.05)


def corner_chart():
    def wall(name, axis):
        def gradient(x):
            out = np.zeros(np.shape(x))
            out[..., axis] = 1.0
            return out
        return BoundaryConstraint(name, lambda x: x[..., axis] - 1.0, gradient,
                                  lambda x: np.zeros(np.shape(x)[:-1] + (2, 2)))
    return Chart(2, ((-2.0, 1.0), (-2.0, 1.0)), (wall("right", 0), wall("top", 1)))


def error_of(call):
    try:
        call()
    except (PointOutsideManifold, AmbiguousBoundary, NotOnBoundary) as exc:
        return type(exc), str(exc)
    return None


def per_point_error(chart, rows):
    def run():
        for x in rows:
            pt = normalize_point(chart, x)
            boundary_frame(chart, pt)
    return error_of(run)


EDGE = [1.0, 0.0]          # on the corner chart's right wall
OUTSIDE = [1.5, 0.0]       # beyond the right wall
CORNER = [1.0, 1.0]        # on both walls
INSIDE = [0.0, 0.0]


@pytest.mark.parametrize("chart, rows", [
    (corner_chart(), [EDGE, OUTSIDE, CORNER]),
    (corner_chart(), [EDGE, CORNER, OUTSIDE]),
    (corner_chart(), [EDGE, INSIDE, CORNER]),
    (corner_chart(), [[-3.0, 0.0]]),
    (catalog.get("disk").chart, [[0.0, -1.0], [0.0, 0.5]]),
    (catalog.get("moebius").chart, [[1.0, 1.0], [9.0, 1.5]]),
    (catalog.get("moebius").chart, [[1.0, -1.0], [1.0, 0.25]]),
    (Chart.strip(1.0, -1e-12, 1e-12, -1), [[0.5, 0.0]]),
    (catalog.get("moebius").chart, [[1.0, 1.0], [np.inf, 1.0]]),
], ids=["outside", "corner", "interior", "box", "disk-interior", "strip-outside",
        "strip-interior", "strip-degenerate", "strip-infinite"])
def test_frames_raise_the_per_point_error(chart, rows):
    want = per_point_error(chart, rows)
    assert want is not None
    assert error_of(lambda: boundary_frames(chart, np.array(rows))) == want


def test_package_draws_one_certification_sample(monkeypatch):
    draws, builds = [], []
    draw = pseudogradient._manifold_sample
    build = pipeline.build_adapted

    def counted_draw(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    def counted_build(*args, **kwargs):
        builds.append(kwargs["perturbation"])
        return build(*args, **kwargs)

    monkeypatch.setattr(pseudogradient, "_manifold_sample", counted_draw)
    monkeypatch.setattr(pipeline, "build_adapted", counted_build)
    pkg = pipeline.build_package(catalog.get("annulus"))
    assert len(builds) == 3
    assert len(draws) == 1
    # each field's certificate counts the shared interior sample
    for fld in (pkg.field_pos, pkg.field_neg):
        assert fld.certificate.interior_samples == len(pkg.sample.interior)


def test_invariance_reuses_the_package_sample(packages, monkeypatch):
    draws = []
    draw = pseudogradient.certification_sample

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(pipeline, "certification_sample", counted)
    monkeypatch.setattr(pipeline, "boundary_sample", counted)
    pkg = packages["interval"]
    pipeline.homologies_for_seed(pkg.entry, 1, DEFAULT, pkg.crit, pkg.sample)
    assert draws == []


@pytest.mark.parametrize("name", catalog.names())
def test_wall_and_scan_make_no_per_point_calls(packages, name, monkeypatch):
    calls = []
    for fn in (geometry.normalize_point, geometry.boundary_frame,
               fields.boundary_restriction_derivatives):
        def counted(*args, fn=fn, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        for mod in (geometry, critical, fields, pseudogradient):
            if getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    entry = catalog.get(name)
    crit = packages[name].crit
    wall = boundary_sample(entry.field, entry.chart)
    sample = certification_sample(entry.field, entry.chart, crit, DEFAULT, wall)
    assert len(sample.wall) > 0
    if entry.chart.dim == 2:
        _walk_slopes(entry.chart, wall.wall_grad, wall.tangents)
    assert calls == []


def test_nan_gradient_at_one_sample_fails_the_certificate(packages):
    field = packages["disk"].field_pos
    sample = drawn_sample(field.objective, field.chart, field.crit)
    bad = sample.interior[17]
    gradient = field.objective.gradient

    def spoiled(x):
        out = np.array(gradient(x), dtype=float)
        out[np.all(np.asarray(x) == bad, axis=-1)] = np.nan
        return out

    # the sample holds the gradients of the function it was drawn for
    objective = MorseField(field.objective.value, spoiled, field.objective.hessian)
    spoiled_sample = drawn_sample(objective, field.chart, field.crit)
    assert np.isnan(spoiled_sample.interior_grad[17]).all()
    cert = certify_adapted(dataclasses.replace(field, objective=objective),
                           sample=spoiled_sample)
    assert np.isnan(cert.descent_margin)
    assert not cert.passed
    # the same field without the NaN passes on the same points
    assert certify_adapted(field, sample=sample).passed


def chunked_sample(chart, crit, count, r_excl):
    """The interior sample drawn 4 * count Halton candidates at a time."""
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    gathered = []
    skip = 20
    while sum(len(g) for g in gathered) < count and skip < 60 * count:
        pts = lo + (hi - lo) * halton_sequence(4 * count, chart.dim, skip=skip)
        skip += 4 * count
        mask = np.ones(len(pts), dtype=bool)
        if chart.deck is None:
            for con in chart.constraints:
                mask &= np.asarray(con.value(pts), dtype=float) <= 0.0
        for cp in crit.points:
            mask &= chart_distance_many(chart, pts, cp.coords) > r_excl
        gathered.append(pts[mask])
    return np.concatenate(gathered, axis=0)[:count]


@pytest.mark.parametrize("name", catalog.names())
def test_interior_sample_does_not_depend_on_the_chunks(packages, name):
    # chunks sized to what is missing draw the same candidate stream
    entry, crit = catalog.get(name), packages[name].crit
    for count in (DEFAULT.cert_interior_samples, 1000, 7):
        got = pseudogradient._manifold_sample(entry.chart, crit, count, DEFAULT.r_excl)
        assert len(got) == count
        assert same_bits(got, chunked_sample(entry.chart, crit, count, DEFAULT.r_excl))
