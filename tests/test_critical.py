import dataclasses
import math

import numpy as np
import pytest

from morseflow import catalog, critical
from morseflow.critical import (BOUNDARY_D, BOUNDARY_N, INTERIOR, _boundary_step,
                                boundary_components, boundary_sample,
                                find_boundary_critical,
                                find_critical_set, find_interior_critical,
                                reclassify_negated)
from morseflow.errors import NotOnBoundary
from morseflow.fields import boundary_restriction_derivatives
from morseflow.geometry import (BoundaryConstraint, Chart, chart_distance,
                                normalize_point, turn_clockwise)
from morseflow.params import DEFAULT
from morseflow.pipeline import build_package

from conftest import EXPECTED
from test_interior_saddles import FIXTURES


def test_expected_partition_reproduced(packages):
    for name, pkg in packages.items():
        entry = catalog.get(name)
        found = list(pkg.crit.points)
        assert len(found) == len(EXPECTED[name])
        for exp in EXPECTED[name]:
            matches = [cp for cp in found
                       if cp.kind == exp.kind and cp.grading == exp.grading
                       and chart_distance(entry.chart, cp.coords,
                                          exp.location) < 1e-6]
            assert len(matches) == 1, f"{name}: {exp} not matched exactly once"


def test_moebius_interior_saddle():
    e = catalog.get("moebius")
    pts = find_interior_critical(e.field, e.chart)
    assert len(pts) == 1
    cp = pts[0]
    assert cp.kind == INTERIOR and cp.grading == 1
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
    assert pts[0].coords == pytest.approx((0.0, 0.25), abs=1e-9)
    assert pts[0].value == pytest.approx(17.0 / 16.0)


def boundary_points(e):
    """The entry's boundary critical points, in order of value."""
    wall = boundary_sample(e.field, e.chart)
    return sorted(find_boundary_critical(e.field, e.chart, wall=wall), key=lambda p: p.value)


def test_interval_boundary_classification():
    e = catalog.get("interval")
    pts = boundary_points(e)
    kinds = {round(cp.coords[0]): (cp.kind, cp.grading) for cp in pts}
    assert kinds[0] == (BOUNDARY_N, 0)
    assert kinds[1] == (BOUNDARY_D, 1)


def test_disk_boundary_classification():
    e = catalog.get("disk")
    pts = boundary_points(e)
    assert [(p.kind, p.grading) for p in pts] == [(BOUNDARY_N, 0), (BOUNDARY_D, 2)]


def test_moebius_boundary_types_and_values():
    e = catalog.get("moebius")
    pts = boundary_points(e)
    assert [(p.kind, p.grading) for p in pts] == [(BOUNDARY_N, 0), (BOUNDARY_D, 2)]
    assert [p.value for p in pts] == pytest.approx([-1.0, 1.0])
    for p in pts:
        assert p.coords[0] == pytest.approx(math.pi)


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
            dists = [chart_distance(entry.chart, hit, cp.coords)
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
                pt = normalize_point(entry.chart, x)
                g_t, _ = boundary_restriction_derivatives(entry.field, entry.chart, pt)
                g.append(abs(g_t))
            g = np.array(g)
            for i in range(len(g)):
                lo, hi = (i - 1) % len(g), (i + 1) % len(g)
                if g[i] < 1e-3 and g[i] <= min(g[lo], g[hi]):
                    dists = [chart_distance(entry.chart, loop[i], cp.coords)
                             for cp in reported]
                    assert min(dists) < 1e-2, f"{name}: walk minimum missed"


def test_euler_characteristic(packages):
    for name, pkg in packages.items():
        chi = sum((-1) ** k * (c + n) for k, (c, n, _) in enumerate(pkg.crit.counts()))
        assert chi == catalog.get(name).chi


def test_classification_stable_under_metric_scaling(packages):
    for name in catalog.names():
        entry = catalog.get(name)
        chart = dataclasses.replace(entry.chart, metric=lambda x: 4.0 * np.eye(entry.dim))
        crit = find_critical_set(entry.field, chart)
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
                assert len(cp.frame) == cp.grading
                for vec in cp.frame:
                    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_critical_data_is_read_only(packages):
    # copies made by `replace` and the tangency patches share these arrays
    pkg = packages["moebius"]
    saddle = next(cp for cp in pkg.crit.points if cp.kind == INTERIOR)
    wall = next(cp for cp in pkg.crit.points if cp.kind == BOUNDARY_N)
    (patch,) = pkg.field_pos.patches
    for arr in (saddle.coords, saddle.frame[0], wall.normal, wall.tangent, patch.center):
        with pytest.raises(ValueError):
            arr[0] = 0.0


SWAP = {INTERIOR: INTERIOR, BOUNDARY_N: BOUNDARY_D, BOUNDARY_D: BOUNDARY_N}


def _kinds(crit):
    return [(cp.id, cp.kind, cp.grading, cp.value) for cp in crit.points]


@pytest.mark.parametrize("name", [*catalog.names(), "cylinder"])
def test_negation_complements_gradings_and_swaps_types(packages, cylinder, name):
    # grading g becomes n - g on every kind of point, and N and D swap; the
    # critical search run on -f itself, by location, is the judge
    entry = cylinder if name == "cylinder" else catalog.get(name)
    crit = (find_critical_set(entry.field, entry.chart)
            if name == "cylinder" else packages[name].crit)
    n = crit.dim
    neg = reclassify_negated(crit, entry.field)
    assert sorted(cp.id for cp in neg.points) == [cp.id for cp in crit.points]
    fresh = find_critical_set(entry.field.negated(), entry.chart).points
    for cp in neg.points:
        old = crit.by_id(cp.id)
        assert (cp.kind, cp.grading, cp.value) == (SWAP[old.kind], n - old.grading, -old.value)
        assert cp.tangential_hessian == -old.tangential_hessian
        (match,) = [q for q in fresh if chart_distance(entry.chart, q.coords, cp.coords) < 1e-6]
        assert (match.kind, match.grading) == (cp.kind, cp.grading)
    # negating twice gives back every point
    twice = reclassify_negated(neg, entry.field.negated())
    assert _kinds(twice) == _kinds(crit)


@pytest.mark.parametrize("samples", [300, 398, 402, 1000])
def test_moebius_found_at_any_walk_density(packages, samples):
    # u = pi, where both boundary critical points sit, is a walk point only
    # at some densities; elsewhere the refinement must walk onto it
    base = packages["moebius"]
    tol = DEFAULT.override(cert_boundary_samples=samples)
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
            pt = normalize_point(entry.chart, x)
            g_t, _ = boundary_restriction_derivatives(entry.field, entry.chart, pt)
            plus = _boundary_step(entry.chart, pt, h)
            minus = _boundary_step(entry.chart, pt, -h)
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
                                        tol, max_move=0.1) is None
    assert len(calls) <= 10


REGION_ENTRIES = [n for n in catalog.names()
                  if catalog.get(n).chart.deck is None
                  and catalog.get(n).chart.dim == 2]


def trace_counted(monkeypatch, chart, con, samples):
    """One loop, the coarse walk's polygon, the projections made and the
    wall reads made outside them."""
    calls, polygons, reads = [], [], [0]
    project, spaced = critical._project_to_zero, critical._uniform_arclength

    def read(x, read=con.read):
        reads[0] += 1
        return read(x)

    def counted(con, x, *args):
        calls.append(np.ndim(x))
        before = reads[0]
        out = project(con, x, *args)
        reads[0] = before
        return out

    def recorded(polygon, samples):
        polygons.append(polygon)
        return spaced(polygon, samples)

    monkeypatch.setattr(critical, "_project_to_zero", counted)
    monkeypatch.setattr(critical, "_uniform_arclength", recorded)
    con = dataclasses.replace(con, read=read)
    loop = critical._trace_region_loop(
        con, critical._coarse_walk(chart, con, DEFAULT), samples)
    monkeypatch.undo()
    (polygon,) = polygons
    return loop, polygon, calls, reads[0]


@pytest.mark.parametrize("name", REGION_ENTRIES)
def test_loops_are_evenly_spaced_on_the_wall(name, monkeypatch):
    chart = catalog.get(name).chart
    pieces = len(chart.constraints)
    for samples in (400, DEFAULT.cert_boundary_samples // pieces):
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
            traced, polygon, calls, reads = trace_counted(monkeypatch, chart, con, samples)
            assert np.array_equal(traced, loop)
            assert np.array_equal(loop[0], polygon[0])
            # one wall read per vertex of the coarse walk, one projection for
            # its start, and one batch for the loop
            assert len(polygon) < samples / 2
            assert reads == len(polygon)
            assert calls.count(1) == 1
            assert calls.count(2) == 1


def test_a_loop_that_does_not_project_raises(monkeypatch):
    # the walk's vertices lie only near the wall, so a batch that fails to
    # converge leaves no loop to fall back to
    chart = catalog.get("disk").chart
    (con,) = chart.constraints
    monkeypatch.setattr(critical, "_project_rows", lambda con, x, max_iter: None)
    polygon = critical._coarse_walk(chart, con, DEFAULT)
    assert np.abs(con.value(polygon)).max() > DEFAULT.tol_geom
    with pytest.raises(NotOnBoundary):
        critical._trace_region_loop(con, polygon, 400)


def test_batched_projection_matches_one_point_at_a_time():
    con = catalog.get("annulus").chart.constraints[1]
    rng = np.random.default_rng(3)
    rows = rng.uniform(-2.0, 2.0, size=(50, 2))
    rows = rows[np.linalg.norm(rows, axis=1) > 0.1]
    got = critical._project_to_zero(con, rows)
    want = np.array([critical._project_to_zero(con, x) for x in rows])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert critical._project_to_zero(con, rows, max_iter=1) is None


# --- the float walk against a numpy walk ------------------------------------
#
# `reference_project` and `reference_wall_step` are the one-point
# `critical._project_to_zero` and `critical._wall_step` as written with numpy
# 2-vectors, through the constraint callables and `np.linalg.norm`, and
# `reference_coarse_walk` is the coarse walk so written: an Euler predictor
# along the clockwise unit tangent and one Newton corrector, |grad|^2 summed
# as the float walk sums it.  The float walk must give the same bits.


def reference_project(con, x, max_iter=60):
    x = np.array(x, dtype=float)
    for _ in range(max_iter):
        val = float(con.value(x))
        if abs(val) < 1e-13:
            return x
        grad = np.asarray(con.gradient(x), dtype=float)
        gg = float(grad @ grad)
        if gg < 1e-30:
            return None
        x = x - val * grad / gg
    return None


def reference_wall_step(con, x, delta):
    grad = np.asarray(con.gradient(x), dtype=float)
    return reference_project(con, x + delta * turn_clockwise(grad / np.linalg.norm(grad)))


def reference_coarse_walk(chart, con, tol):
    grid = critical._seed_grid(chart, 40)
    vals = np.abs(np.asarray(con.value(grid), dtype=float))
    start = None
    for i in np.argsort(vals)[:200]:
        cand = reference_project(con, grid[i])
        if cand is None:
            continue
        inside_box = all(lo - 1e-9 <= cand[a] <= hi + 1e-9
                         for a, (lo, hi) in enumerate(chart.box))
        if inside_box and all(float(c.value(cand)) <= tol.tol_geom
                              for c in chart.constraints if c is not con):
            start = cand
            break
    step = 0.02 * max(hi - lo for lo, hi in chart.box)
    walk, x = [start], start
    grad = np.asarray(con.gradient(x), dtype=float)
    while True:
        x = x + step * turn_clockwise(grad / np.sqrt(np.sum(grad * grad)))
        if len(walk) > 5 and float(np.sqrt(np.sum((x - start) ** 2))) < 0.6 * step:
            return np.array(walk)
        val = float(con.value(x))
        grad = np.asarray(con.gradient(x), dtype=float)
        x = x - val * grad / np.sum(grad * grad)
        walk.append(x)


def _ellipse_by_callables():
    """b = (u / 1.3)^2 + (v / 0.8)^2 - 1, given by its callables alone, so
    the walk reads it through `geometry._callable_reader`."""
    scale = np.array([1.0 / 1.69, 1.0 / 0.64])

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x * scale, axis=-1) - 1.0

    return BoundaryConstraint("ellipse", value,
                              lambda x: 2.0 * np.asarray(x, dtype=float) * scale,
                              lambda x: np.broadcast_to(2.0 * np.diag(scale),
                                                        np.shape(x)[:-1] + (2, 2)))


WALLS = {f"{name}-{con.name}": (catalog.get(name).chart, con)
         for name in REGION_ENTRIES for con in catalog.get(name).chart.constraints}
WALLS["callables-ellipse"] = (Chart(2, ((-1.5, 1.5), (-1.0, 1.0)),
                                    (_ellipse_by_callables(),)), None)


@pytest.mark.parametrize("wall", list(WALLS))
def test_walk_vertices_lie_near_the_wall(wall):
    # one Newton correction per step leaves each vertex within 1e-5 of the
    # wall (|b| / |grad b| to first order); the start is projected
    chart, con = WALLS[wall]
    con = con or chart.constraints[0]
    polygon = critical._coarse_walk(chart, con, DEFAULT)
    gap = np.abs(con.value(polygon)) / np.linalg.norm(con.gradient(polygon), axis=1)
    assert gap.max() < 1e-5
    assert abs(float(con.value(polygon[0]))) < 1e-13


@pytest.mark.parametrize("wall", list(WALLS))
def test_float_walk_matches_the_numpy_walk(wall):
    chart, con = WALLS[wall]
    con = con or chart.constraints[0]
    polygon = critical._coarse_walk(chart, con, DEFAULT)
    assert polygon.tobytes() == reference_coarse_walk(chart, con, DEFAULT).tobytes()
    # every step either way, and projections from off the wall
    step = 0.02 * max(hi - lo for lo, hi in chart.box)
    for x in polygon:
        for delta in (step, -step, 1e-4):
            assert (critical._wall_step(con, x, delta).tobytes()
                    == reference_wall_step(con, x, delta).tobytes())
        off = 1.05 * x
        assert (critical._project_to_zero(con, off).tobytes()
                == reference_project(con, off).tobytes())
        assert (critical._project_to_zero(con, off.tolist()).tobytes()
                == reference_project(con, off).tobytes())


def test_a_failed_projection_fails_either_way():
    (con,) = catalog.get("disk").chart.constraints
    for x in ([0.0, 0.0], [3.0, 4.0]):
        for max_iter in (1, 60):
            got = critical._project_to_zero(con, x, max_iter)
            want = reference_project(con, x, max_iter)
            assert (got is None) == (want is None)


@pytest.mark.parametrize("name", [*catalog.names(), *FIXTURES])
def test_critical_search_matches_the_numpy_walk(name, monkeypatch):
    # the walks' starts and the refinement's wall steps project one point at
    # a time
    entry = FIXTURES[name]() if name in FIXTURES else catalog.get(name)
    found = find_critical_set(entry.field, entry.chart)
    batch = critical._project_to_zero
    monkeypatch.setattr(critical, "_project_to_zero", lambda con, x, max_iter=60: (
        batch(con, x, max_iter) if np.ndim(x) == 2 else reference_project(con, x, max_iter)))
    monkeypatch.setattr(critical, "_wall_step", reference_wall_step)
    want = find_critical_set(entry.field, entry.chart)
    def bits(cp):
        arrays = (cp.coords, cp.normal, cp.tangent, *cp.frame)
        return ([None if a is None else a.tobytes() for a in arrays],
                repr((cp.value, cp.kind, cp.grading, cp.tangential_hessian)))

    assert [bits(cp) for cp in found.points] == [bits(cp) for cp in want.points]
