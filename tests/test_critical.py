import math

import numpy as np
import pytest

from morseflow import catalog, critical
from morseflow.critical import (BOUNDARY_D, BOUNDARY_N, INTERIOR, _boundary_step,
                                boundary_components, find_boundary_critical,
                                find_critical_set, find_interior_critical)
from morseflow.fields import boundary_restriction_derivatives
from morseflow.geometry import MetricField, chart_distance, normalize_point
from morseflow.params import DEFAULT
from morseflow.pipeline import build_package


def test_expected_partition_reproduced(packages):
    for name, pkg in packages.items():
        entry = catalog.get(name)
        found = list(pkg.crit.points)
        assert len(found) == len(entry.expected)
        for exp in entry.expected:
            matches = [cp for cp in found
                       if cp.kind == exp.kind and cp.grading == exp.grading
                       and chart_distance(entry.chart, cp.point.coords,
                                          exp.location) < 1e-6]
            assert len(matches) == 1, f"{name}: {exp} not matched exactly once"


def test_moebius_interior_saddle():
    e = catalog.get("moebius")
    pts = find_interior_critical(e.field, e.chart)
    assert len(pts) == 1
    cp = pts[0]
    assert cp.kind == INTERIOR and cp.index == 1
    assert cp.value == pytest.approx(0.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(e.field.hessian(cp.coords))
    assert eigs == pytest.approx([-0.5, 0.5])


def test_annulus_has_no_interior_criticals():
    e = catalog.get("annulus")
    assert find_interior_critical(e.field, e.chart) == []


def test_dome_interior_maximum():
    e = catalog.get("tilted_dome")
    pts = find_interior_critical(e.field, e.chart)
    assert len(pts) == 1
    assert pts[0].grading == 2
    assert pts[0].point.coords == pytest.approx((0.0, 0.25), abs=1e-9)
    assert pts[0].value == pytest.approx(17.0 / 16.0)


def test_interval_boundary_classification():
    e = catalog.get("interval")
    pts = find_boundary_critical(e.field, e.chart)
    kinds = {round(cp.point.coords[0]): (cp.kind, cp.grading) for cp in pts}
    assert kinds[0] == (BOUNDARY_N, 0)
    assert kinds[1] == (BOUNDARY_D, 1)


def test_disk_boundary_classification():
    e = catalog.get("disk")
    pts = sorted(find_boundary_critical(e.field, e.chart), key=lambda p: p.value)
    assert [(p.kind, p.grading) for p in pts] == [(BOUNDARY_N, 0), (BOUNDARY_D, 2)]


def test_moebius_boundary_types_and_values():
    e = catalog.get("moebius")
    pts = sorted(find_boundary_critical(e.field, e.chart), key=lambda p: p.value)
    assert [(p.kind, p.grading) for p in pts] == [(BOUNDARY_N, 0), (BOUNDARY_D, 2)]
    assert [p.value for p in pts] == pytest.approx([-1.0, 1.0])
    for p in pts:
        assert p.point.coords[0] == pytest.approx(math.pi)


def _interior_oracle(entry, density=400):
    """Grid scan for local minima of |grad f|, polished by a few Newton steps."""
    chart, field = entry.chart, entry.field
    axes = [np.linspace(lo, hi, density) for lo, hi in chart.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    grad = np.asarray(field.gradient(pts))
    mag = np.sqrt(np.sum(grad * grad, axis=-1))
    hits = []
    if chart.dim == 1:
        return hits
    inside = np.ones(mag.shape, dtype=bool)
    if chart.deck is not None:
        (v_lo, v_hi) = chart.box[1]
        inside &= (pts[..., 1] > v_lo + 1e-3) & (pts[..., 1] < v_hi - 1e-3)
    else:
        for con in chart.constraints:
            inside &= np.asarray(con.value(pts)) < -1e-3
    for i in range(1, density - 1):
        for j in range(1, density - 1):
            if not inside[i, j] or mag[i, j] >= 1e-3:
                continue
            window = mag[i - 1:i + 2, j - 1:j + 2]
            if mag[i, j] <= window.min():
                x = pts[i, j].copy()
                for _ in range(8):
                    hess = np.asarray(field.hessian(x))
                    x = x - np.linalg.solve(hess, np.asarray(field.gradient(x)))
                hits.append(x)
    return hits


def test_interior_search_complete_against_grid(packages):
    for name, pkg in packages.items():
        entry = catalog.get(name)
        reported = [cp for cp in pkg.crit.points if cp.kind == INTERIOR]
        for hit in _interior_oracle(entry):
            dists = [chart_distance(entry.chart, hit, cp.point.coords)
                     for cp in reported]
            assert dists and min(dists) < 1e-4, f"{name}: missed critical near {hit}"


def test_boundary_search_complete_against_walk(packages):
    from morseflow.critical import boundary_components
    from morseflow.fields import boundary_restriction_derivatives
    from morseflow.geometry import normalize_point
    for name, pkg in packages.items():
        entry = catalog.get(name)
        if entry.chart.dim != 2:
            continue
        reported = [cp for cp in pkg.crit.points if cp.kind != INTERIOR]
        for loop in boundary_components(entry.chart, 4000):
            g = []
            for x in loop:
                pt, _ = normalize_point(entry.chart, x)
                g_t, _ = boundary_restriction_derivatives(entry.field, entry.chart, pt)
                g.append(abs(g_t))
            g = np.array(g)
            for i in range(len(g)):
                lo, hi = (i - 1) % len(g), (i + 1) % len(g)
                if g[i] < 1e-3 and g[i] <= min(g[lo], g[hi]):
                    dists = [chart_distance(entry.chart, loop[i], cp.point.coords)
                             for cp in reported]
                    assert min(dists) < 1e-2, f"{name}: walk minimum missed"


def test_euler_characteristic(packages):
    for name, pkg in packages.items():
        assert pkg.crit.euler_characteristic() == catalog.get(name).chi


def test_classification_stable_under_metric_scaling(packages):
    for name in catalog.names():
        entry = catalog.get(name)
        scaled = MetricField.scaled(entry.chart.dim, 4.0)
        crit = find_critical_set(entry.field, entry.chart, scaled)
        base = packages[name].crit
        assert [(p.kind, p.grading) for p in crit.points] \
            == [(p.kind, p.grading) for p in base.points]


def test_partitions_disjoint_and_sorted(packages):
    for pkg in packages.values():
        values = [cp.value for cp in pkg.crit.points]
        assert values == sorted(values)
        assert all(b - a > 1e-6 for a, b in zip(values, values[1:]))
        counted = sum(sum(row) for row in pkg.crit.counts())
        assert counted == len(pkg.crit.points)


def test_orientation_frames_span_unstable_directions(packages):
    for pkg in packages.values():
        for cp in pkg.crit.points:
            if cp.kind in (INTERIOR, BOUNDARY_N):
                assert len(cp.orientation_ref) == cp.grading
                for vec in cp.frame_arrays():
                    assert np.linalg.norm(vec) == pytest.approx(1.0)


@pytest.mark.parametrize("samples", [300, 398, 402, 1000])
def test_moebius_found_at_any_walk_density(packages, samples):
    # u = pi, where both boundary critical points sit, is a walk point only
    # at some densities; elsewhere the refinement must walk onto it
    base = packages["moebius"]
    tol = DEFAULT.override(boundary_samples=samples)
    pkg = build_package(base.entry, 0, tol)
    assert [(p.kind, p.grading) for p in pkg.crit.points] \
        == [(p.kind, p.grading) for p in base.crit.points]
    for got, want in zip(pkg.crit.points, base.crit.points):
        assert chart_distance(base.entry.chart, got.coords, want.coords) < 1e-9
    assert {k: h.as_dict() for k, h in pkg.homology.items()} \
        == {k: h.as_dict() for k, h in base.homology.items()}


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if catalog.get(n).chart.dim == 2])
def test_boundary_step_follows_the_frame_tangent(name):
    # first order: stepping +-h along the boundary changes f by +-h g_t, so
    # a step against the tangent of `boundary_frame` shows as a sign error
    entry = catalog.get(name)
    h = 1e-5
    for loop in boundary_components(entry.chart, 48):
        for x in loop:
            pt, _ = normalize_point(entry.chart, x)
            g_t, _ = boundary_restriction_derivatives(entry.field, entry.chart, pt)
            plus = _boundary_step(entry.chart, pt.array, h)
            minus = _boundary_step(entry.chart, pt.array, -h)
            fd = (float(entry.field.value(plus)) - float(entry.field.value(minus))) / (2 * h)
            assert fd == pytest.approx(g_t, abs=1e-6), f"{name} at {x}"


def test_refinement_ends_when_its_line_search_fails(monkeypatch):
    # below the rounding floor of g_t no step can shrink |g_t|: the refinement
    # gives up at once instead of accepting ever smaller steps
    entry = catalog.get("moebius")
    calls = []
    derivatives = critical.boundary_restriction_derivatives

    def counted(*args, **kwargs):
        calls.append(args)
        return derivatives(*args, **kwargs)

    monkeypatch.setattr(critical, "boundary_restriction_derivatives", counted)
    tol = DEFAULT.override(tol_crit=1e-300)
    assert critical._refine_on_boundary(entry.field, entry.chart, np.array([3.0, 1.0]),
                                        entry.metric, tol, max_move=0.1) is None
    assert len(calls) <= 10


REGION_ENTRIES = [n for n in catalog.names()
                  if catalog.get(n).chart.deck is None
                  and catalog.get(n).chart.dim == 2]


def trace_counted(monkeypatch, chart, con, samples):
    """One loop, the coarse walk's polygon and the projections made."""
    calls, polygons = [], []
    project, spaced = critical._project_to_zero, critical._uniform_arclength

    def counted(con, x, *args):
        calls.append(np.ndim(x))
        return project(con, x, *args)

    def recorded(polygon, samples):
        polygons.append(polygon)
        return spaced(polygon, samples)

    monkeypatch.setattr(critical, "_project_to_zero", counted)
    monkeypatch.setattr(critical, "_uniform_arclength", recorded)
    loop = critical._trace_region_loop(
        con, critical._coarse_walk(chart, con, DEFAULT), samples)
    monkeypatch.undo()
    (polygon,) = polygons
    return loop, polygon, calls


@pytest.mark.parametrize("name", REGION_ENTRIES)
def test_loops_are_evenly_spaced_on_the_wall(name, monkeypatch):
    chart = catalog.get(name).chart
    pieces = len(chart.constraints)
    for samples in (DEFAULT.boundary_samples, DEFAULT.cert_boundary_samples // pieces):
        loops = boundary_components(chart, samples)
        assert len(loops) == pieces
        for loop, con in zip(loops, chart.constraints):
            assert loop.shape == (samples, 2)
            assert np.all(np.abs(con.value(loop)) < 1e-13)
            for axis, (lo, hi) in enumerate(chart.box):
                assert np.all((lo <= loop[:, axis]) & (loop[:, axis] <= hi))
            gaps = np.linalg.norm(np.roll(loop, -1, axis=0) - loop, axis=1)
            mean = gaps.sum() / samples
            assert np.all((0.5 * mean <= gaps) & (gaps <= 1.5 * mean))
            traced, polygon, calls = trace_counted(monkeypatch, chart, con, samples)
            assert np.array_equal(traced, loop)
            assert np.array_equal(loop[0], polygon[0])
            # one projection per step of the coarse walk, one for its start
            # (when the first candidate is good), and one batch for the loop
            assert len(polygon) < samples / 2
            assert calls.count(1) <= len(polygon) + 1
            assert calls.count(2) == 1


def test_loop_falls_back_to_the_walk(monkeypatch):
    # a batch that fails to converge leaves the coarse walk's points
    chart = catalog.get("disk").chart
    (con,) = chart.constraints
    polygons = []
    spaced = critical._uniform_arclength
    monkeypatch.setattr(critical, "_project_rows", lambda con, x, max_iter: None)
    monkeypatch.setattr(critical, "_uniform_arclength",
                        lambda polygon, samples: polygons.append(polygon)
                        or spaced(polygon, samples))
    loop = critical._trace_region_loop(
        con, critical._coarse_walk(chart, con, DEFAULT), 400)
    assert np.array_equal(loop, polygons[0])
    assert len(loop) < 400


def test_batched_projection_matches_one_point_at_a_time():
    con = catalog.get("annulus").chart.constraints[1]
    rng = np.random.default_rng(3)
    rows = rng.uniform(-2.0, 2.0, size=(50, 2))
    rows = rows[np.linalg.norm(rows, axis=1) > 0.1]
    got = critical._project_to_zero(con, rows)
    want = np.array([critical._project_to_zero(con, x) for x in rows])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert critical._project_to_zero(con, rows, max_iter=1) is None
