import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morseflow import catalog
from morseflow.errors import AmbiguousBoundary, NotOnBoundary, PointOutsideManifold
from morseflow.geometry import (BoundaryConstraint, Chart, Deck, MetricField, boundary_frame,
                                chart_distance, chart_distance_many, deck_apply,
                                deck_reduce, deck_sign, near_rows, normalize_point)


def path_orientation_sign(chart, polyline) -> int:
    """Product of deck-flip signs over signed seam crossings of a raw
    polyline: the oracle for an orbit's orientation twist."""
    if chart.deck is None:
        return 1
    period = chart.deck.period
    pts = [np.asarray(q, dtype=float) for q in polyline]
    total = 0
    for a, b in zip(pts[:-1], pts[1:]):
        total += int(math.floor(b[0] / period)) - int(math.floor(a[0] / period))
    return deck_sign(chart, total)


@pytest.fixture
def moebius_chart():
    return catalog.get("moebius").chart


@pytest.fixture
def disk_chart():
    return catalog.get("disk").chart


@pytest.fixture
def annulus_chart():
    return catalog.get("annulus").chart


def test_normalize_moebius_one_deck_application(moebius_chart):
    pt = normalize_point(moebius_chart, [3 * math.pi, 0.5])
    assert pt[0] == pytest.approx(math.pi)
    assert pt[1] == pytest.approx(-0.5)


def test_normalize_disk_identity(disk_chart):
    pt = normalize_point(disk_chart, [0.3, 0.4])
    assert pt.tolist() == [0.3, 0.4]


def test_normalize_outside_disk(disk_chart):
    with pytest.raises(PointOutsideManifold):
        normalize_point(disk_chart, [2.0, 0.0])


def test_normalize_outside_strip(moebius_chart):
    with pytest.raises(PointOutsideManifold):
        normalize_point(moebius_chart, [1.0, 1.5])


@pytest.mark.parametrize("u", [np.nextafter(17 * 2 * math.pi, 0.0), -1e-17])
def test_normalize_wraps_into_the_period_as_deck_reduce(moebius_chart, u):
    # u / period rounds up to 17 for the first u, so the floor move leaves u
    # below 0; for the second the move rounds onto the period.  Either way
    # one more deck map brings u into [0, 2 pi).
    pt = normalize_point(moebius_chart, [u, 0.5])
    assert 0.0 <= pt[0] < 2 * math.pi
    assert pt.tobytes() == deck_reduce(moebius_chart, np.array([[u, 0.5]]))[0].tobytes()


@pytest.mark.parametrize("raw", [[math.nan, 0.5], [0.5, math.nan],
                                 [math.inf, 0.5], [-math.inf, 0.5]])
def test_normalize_puts_nan_outside_the_manifold(moebius_chart, disk_chart, raw):
    for chart in (moebius_chart, disk_chart):
        with pytest.raises(PointOutsideManifold):
            normalize_point(chart, raw)


def test_normalize_idempotent(moebius_chart):
    pt = normalize_point(moebius_chart, [5.0, -0.3])
    again = normalize_point(moebius_chart, pt)
    assert np.array_equal(again, pt)


def test_boundary_data_disk_bottom(disk_chart):
    pt = normalize_point(disk_chart, [0.0, -1.0])
    normal, _ = boundary_frame(disk_chart, pt)
    assert normal == pytest.approx([0.0, -1.0])


def test_boundary_data_annulus_inner_points_into_hole(annulus_chart):
    pt = normalize_point(annulus_chart, [0.0, 1.0])
    normal, _ = boundary_frame(annulus_chart, pt)
    assert normal == pytest.approx([0.0, -1.0])


def test_boundary_data_interior_empty(annulus_chart):
    pt = normalize_point(annulus_chart, [0.5, 1.5])
    with pytest.raises(NotOnBoundary):
        boundary_frame(annulus_chart, pt)


def test_boundary_data_corner_rejected():
    right = BoundaryConstraint(
        "right", lambda x: x[..., 0] - 1.0,
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.zeros((2, 2)))
    top = BoundaryConstraint(
        "top", lambda x: x[..., 1] - 1.0,
        lambda x: np.array([0.0, 1.0]),
        lambda x: np.zeros((2, 2)))
    chart = Chart(2, ((-2.0, 1.0), (-2.0, 1.0)), (right, top))
    with pytest.raises(AmbiguousBoundary):
        boundary_frame(chart, np.array([1.0, 1.0]))


def test_normal_has_unit_metric_length(annulus_chart):
    metric = MetricField.scaled(2, 4.0)
    pt = normalize_point(annulus_chart, [2.0 / math.sqrt(2)] * 2)
    normal, _ = boundary_frame(annulus_chart, pt, metric)
    g = metric.matrix(pt)
    assert float(normal @ g @ normal) == pytest.approx(1.0, abs=1e-9)


def test_path_sign_single_winding(moebius_chart):
    assert path_orientation_sign(moebius_chart, [[0.0, 0.5], [3.0, 0.5],
                                                 [2 * math.pi, 0.5]]) == -1


def test_path_sign_there_and_back(moebius_chart):
    poly = [[3.0, 0.5], [2 * math.pi + 0.1, 0.5], [3.0, 0.5]]
    assert path_orientation_sign(moebius_chart, poly) == 1


def test_path_sign_region_chart_trivial(annulus_chart):
    assert path_orientation_sign(annulus_chart, [[0.0, 1.5], [1.0, 1.5]]) == 1


def test_path_sign_multiplicative(moebius_chart):
    rng = np.random.default_rng(3)
    for _ in range(20):
        knots = np.cumsum(rng.uniform(-2.0, 2.0, size=7))
        poly = [[u, 0.1] for u in knots]
        k = 3
        first, second = poly[: k + 1], poly[k:]
        whole = path_orientation_sign(moebius_chart, poly)
        assert whole == (path_orientation_sign(moebius_chart, first)
                         * path_orientation_sign(moebius_chart, second))


def test_flat_metric_deck_invariant(moebius_chart):
    metric = catalog.get("moebius").metric
    rng = np.random.default_rng(11)
    flip = np.diag([1.0, -1.0])
    for _ in range(100):
        x = np.array([rng.uniform(0, 2 * math.pi), rng.uniform(-1, 1)])
        g_here = np.asarray(metric.matrix(x))
        g_there = np.asarray(metric.matrix(deck_apply(moebius_chart, 1, x)))
        assert np.max(np.abs(flip @ g_there @ flip - g_here)) < 1e-9


def test_chart_distance_respects_deck(moebius_chart):
    a = [0.05, 0.3]
    b = [2 * math.pi - 0.05, -0.3]
    assert chart_distance(moebius_chart, a, b) == pytest.approx(0.1, abs=1e-12)


def test_flipped_strip_must_be_symmetric():
    with pytest.raises(ValueError):
        Chart.strip(period=1.0, v_min=0.0, v_max=1.0, flip=-1)
    with pytest.raises(ValueError):
        Chart.strip(period=1.0, v_min=-1.0, v_max=1.0, flip=2)


@pytest.mark.parametrize("period", [0.0, -1.0, math.inf, math.nan])
def test_deck_period_must_be_finite_and_positive(period):
    # a zero period divided by zero in the reduction, and a negative one
    # gave a chart whose box runs backwards
    with pytest.raises(ValueError, match="not finite and positive"):
        Deck(period, 1)


def test_strip_of_zero_period_is_rejected():
    with pytest.raises(ValueError, match="not finite and positive"):
        Chart.strip(0.0, -1.0, 1.0, -1)


def test_deck_map_needs_a_surface():
    # on a line the reduction reads a second coordinate there is not
    with pytest.raises(ValueError, match="dimension 2"):
        Chart(1, ((0.0, 1.0),), (), Deck(1.0, 1))


@pytest.mark.parametrize("first_axis", [(0.0, 1.0), (-1.0, 1.0), (1.0, 3.0)])
def test_deck_map_needs_one_period_as_the_first_axis(first_axis):
    # the canonical form of a point is its image in [0, period)
    with pytest.raises(ValueError, match="first box axis"):
        Chart(2, (first_axis, (-1.0, 1.0)), (), Deck(2.0, 1))
    assert Chart(2, ((0.0, 2.0), (-1.0, 1.0)), (), Deck(2.0, 1)).deck.period == 2.0


_PRE_CHARTS = {
    "plain": catalog.get("disk").chart,
    "flip-1": catalog.get("moebius").chart,
    "flip+1": Chart.strip(period=2.0 * math.pi, v_min=-1.0, v_max=1.0, flip=1),
    "line": catalog.get("interval").chart,
}


@st.composite
def _prefilter_case(draw):
    chart = _PRE_CHARTS[draw(st.sampled_from(sorted(_PRE_CHARTS)))]
    (u_lo, u_hi), *v_box = chart.box
    period = chart.deck.period if chart.deck is not None else u_hi - u_lo
    coord = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    center = [draw(st.sampled_from([u_lo, u_hi, 0.5 * (u_lo + u_hi)]) | coord(u_lo, u_hi))]
    if v_box:
        center.append(draw(st.sampled_from(list(v_box[0])) | coord(*v_box[0])))
    radius = draw(coord(1e-9, 2.0 * period))
    tiny = draw(st.sampled_from([0.0, 1e-300, 1e-15, 1e-9]))
    # u near the seam and a radius away from the center; v at +-|v of the center|
    u_near = [u_lo, u_hi, u_hi - tiny, u_lo + tiny, center[0] + radius,
              center[0] - radius, center[0] + period - radius]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = [draw(st.sampled_from(u_near) | coord(u_lo - period, u_hi + period))]
        if v_box:
            row.append(draw(st.sampled_from([center[1], -center[1]]) | coord(*v_box[0])))
        rows.append(row)
    pts = np.array(rows)
    # a radius within a few units in the last place of some row's distance
    if draw(st.booleans()):
        d = chart_distance_many(chart, pts, center)[draw(st.integers(0, len(pts) - 1))]
        radius = float(d) + draw(st.integers(-4, 4)) * math.ulp(float(d))
    return chart, pts, center, radius


@settings(max_examples=500, deadline=None)
@given(_prefilter_case())
def test_row_prefilter_keeps_every_row_within_the_radius(case):
    chart, pts, center, radius = case
    near = set(near_rows(chart, pts, center, radius).tolist())
    dist = chart_distance_many(chart, pts, center)
    for i, d in enumerate(dist):
        if i not in near:
            assert d >= radius, (pts[i], d)
