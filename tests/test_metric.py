"""Analyses under a metric other than the Euclidean one.

The metric is the chart's (`Chart.metric`).  The homology, the critical set
and the types of its points do not depend on it, so the catalog's reference
groups and the Euclidean critical points judge every package here.  The
wall's tangent must lie along the wall under any metric: the metric normal
turned clockwise does so only under a multiple of the identity, and under
diag(2, 1) it found type-N minima at (±0.968, -0.25) on the dome's rim.
"""
import dataclasses
import math

import numpy as np
import pytest

from morseflow import catalog
from morseflow.critical import BOUNDARY_D, BOUNDARY_N, INTERIOR, boundary_sample
from morseflow.errors import NotMorse
from morseflow.fields import MorseField, validate_field
from morseflow.geometry import boundary_frame, normalize_point, row_dot
from morseflow.pipeline import build_package

from conftest import EXPECTED, with_metric

METRICS = {
    "2I": lambda x: 2.0 * np.eye(2),
    "diag21": lambda x: np.diag([2.0, 1.0]),
    "skewed": lambda x: np.array([[2.0, 0.3], [0.3, 1.0]]),
    "varying": lambda x: (1.0 + 0.1 * x[0] ** 2) * np.eye(2),
}


def on_chart(name, metric):
    entry = with_metric(catalog.get(name), METRICS[metric])
    validate_field(entry.field, entry.chart)
    return entry


def located(crit):
    return sorted((cp.kind, cp.grading, tuple(np.round(cp.coords, 9) + 0.0))
                  for cp in crit.points)


@pytest.mark.parametrize("metric", list(METRICS))
@pytest.mark.parametrize("name", ["disk", "annulus", "tilted_dome"])
def test_package_passes_under_a_metric(name, metric):
    # under diag(2, 1) the dome raised BoundarySquareNonzero, under the skewed
    # metric the dome BlendGapFailure and the annulus FlowTimeout
    pkg = build_package(on_chart(name, metric), 0)
    assert pkg.passed
    want = sorted((e.kind, e.grading, e.location) for e in EXPECTED[name])
    assert [(k, g) for k, g, _ in located(pkg.crit)] == [(k, g) for k, g, _ in want]
    for (_, _, got), (_, _, loc) in zip(located(pkg.crit), want):
        assert got == pytest.approx(loc, abs=1e-6)


def test_dome_critical_set_under_diag_2_1():
    pkg = build_package(on_chart("tilted_dome", "diag21"), 0)
    assert located(pkg.crit) == [(BOUNDARY_N, 0, (0.0, -1.0)), (BOUNDARY_N, 1, (0.0, 1.0)),
                                 (INTERIOR, 2, (0.0, 0.25))]


@pytest.mark.parametrize("name, metric", [
    (name, metric) for name in ("disk", "annulus", "moebius", "tilted_dome")
    for metric in METRICS
    # the band takes only a metric its deck map keeps
    if name != "moebius" or metric in ("2I", "diag21")])
def test_tangent_annihilates_the_wall_covector(name, metric):
    entry = on_chart(name, metric)
    chart = entry.chart
    sample = boundary_sample(entry.field, chart)
    covectors = np.zeros_like(sample.wall)
    for con in chart.constraints:
        on = np.abs(con.value(sample.wall)) <= 1e-9
        covectors[on] = con.gradient(sample.wall[on])
    g = np.array([chart.metric(x) for x in sample.wall])
    t, n = sample.tangents, sample.normals
    scale = np.sqrt(row_dot(covectors, covectors))
    assert np.max(np.abs(row_dot(covectors, t)) / scale) < 1e-12
    assert np.einsum("ri,rij,rj->r", t, g, t) == pytest.approx(1.0, abs=1e-12)
    assert np.einsum("ri,rij,rj->r", n, g, n) == pytest.approx(1.0, abs=1e-12)
    # orthogonal under the metric, and the normal points out of the manifold
    assert np.max(np.abs(np.einsum("ri,rij,rj->r", t, g, n))) < 1e-12
    assert np.all(row_dot(covectors, n) > 0.0)
    for x in sample.wall[::97]:
        normal, tangent = boundary_frame(chart, normalize_point(chart, x))
        cov = next(np.asarray(con.gradient(x)) for con in chart.constraints
                   if abs(con.value(x)) <= 1e-9)
        assert abs(float(cov @ tangent)) / np.linalg.norm(cov) < 1e-12


def test_a_metric_that_the_deck_map_moves_is_rejected():
    # g(Tx) = D g(x) D fails for a constant off-diagonal entry under the flip;
    # the band built and then timed out under it
    entry = catalog.get("moebius")
    chart = dataclasses.replace(entry.chart, metric=METRICS["skewed"])
    with pytest.raises(NotMorse, match="metric is not deck invariant"):
        validate_field(entry.field, chart)
    # an off-diagonal entry odd in v is invariant
    chart = dataclasses.replace(entry.chart, metric=lambda x: np.array(
        [[2.0, 0.1 * x[1] * math.cos(x[0])], [0.1 * x[1] * math.cos(x[0]), 1.0]]))
    validate_field(entry.field, chart)


@pytest.mark.parametrize("matrix", [
    lambda x: np.array([[1.0, 0.5], [0.0, 1.0]]),
    lambda x: np.diag([1.0, -1.0]),
    lambda x: np.zeros((2, 2)),
    lambda x: np.full((2, 2), np.nan),
], ids=["asymmetric", "indefinite", "zero", "nan"])
def test_a_metric_that_is_not_positive_definite_is_rejected(matrix):
    entry = catalog.get("disk")
    with pytest.raises(NotMorse, match="metric is not symmetric positive-definite"):
        validate_field(entry.field, dataclasses.replace(entry.chart, metric=matrix))


WAVE = 4.0 * math.pi
WAVY = MorseField(
    value=lambda x: x[..., 0] + 0.2 * np.sin(WAVE * x[..., 0]),
    gradient=lambda x: 1.0 + 0.2 * WAVE * np.cos(WAVE * np.asarray(x, dtype=float)),
    hessian=lambda x: -0.2 * WAVE * WAVE * np.sin(WAVE * np.asarray(x, dtype=float))[..., None])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("metric", [None, lambda x: np.array([[1.0 + 3.0 * x[0] ** 2]])],
                         ids=["euclidean", "varying"])
def test_a_line_package_follows_orbits(metric, seed):
    # x + 0.2 sin(4 pi x) on the interval: two interior minima and two
    # interior maxima between a type-N end and a type-D end, so the N side
    # counts orbits, where the catalog's interval integrates none
    base = catalog.get("interval")
    chart = dataclasses.replace(base.chart, metric=metric)
    validate_field(WAVY, chart)
    pkg = build_package(dataclasses.replace(base, name="wavy", chart=chart, field=WAVY), seed)
    assert pkg.passed
    assert [(cp.kind, cp.grading) for cp in sorted(pkg.crit.points,
                                                   key=lambda cp: cp.coords[0])] == [
        (BOUNDARY_N, 0), (INTERIOR, 1), (INTERIOR, 0), (INTERIOR, 1), (INTERIOR, 0),
        (BOUNDARY_D, 1)]
    counts = {pair: inc.count for pair, inc in pkg.incidences["N"].items() if inc.count}
    assert len(counts) == 4 and set(counts.values()) == {-1, 1}
