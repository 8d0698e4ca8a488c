import dataclasses

import numpy as np
import pytest

from morseflow import catalog, verify
from morseflow.critical import find_boundary_critical
from morseflow.errors import NotMorse
from morseflow.fields import (MorseField, boundary_restriction_derivatives,
                              check_deck_invariance,
                              check_derivative_consistency)
from morseflow.geometry import MetricField, normalize_point
from morseflow.verify import _boundary_fd_error, _gradient_fd_error


def _pt(chart, xy):
    return normalize_point(chart, xy)


def test_disk_restriction_bottom_is_a_minimum():
    e = catalog.get("disk")
    g_t, h_t = boundary_restriction_derivatives(e.field, e.chart,
                                                _pt(e.chart, [0.0, -1.0]))
    assert g_t == pytest.approx(0.0, abs=1e-12)
    assert h_t == pytest.approx(1.0)


def test_disk_restriction_top_is_a_maximum():
    e = catalog.get("disk")
    g_t, h_t = boundary_restriction_derivatives(e.field, e.chart,
                                                _pt(e.chart, [0.0, 1.0]))
    assert g_t == pytest.approx(0.0, abs=1e-12)
    assert h_t == pytest.approx(-1.0)


def test_disk_restriction_side_not_critical():
    e = catalog.get("disk")
    g_t, _ = boundary_restriction_derivatives(e.field, e.chart,
                                              _pt(e.chart, [1.0, 0.0]))
    assert g_t == pytest.approx(-1.0)


def test_restriction_matches_arclength_differences(packages):
    for name, pkg in packages.items():
        assert _boundary_fd_error(catalog.get(name), pkg) < 1e-4


@pytest.mark.parametrize("name", ["disk", "annulus", "moebius", "tilted_dome"])
def test_arclength_differences_see_a_reversed_step(packages, name, monkeypatch):
    # the second difference is symmetric in the step; the first is not
    step = verify._boundary_step
    monkeypatch.setattr(verify, "_boundary_step",
                        lambda chart, x, delta: step(chart, x, -delta))
    assert _boundary_fd_error(catalog.get(name), packages[name]) > 1e-4


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_arclength_differences_under_a_scaled_metric(packages, name, monkeypatch):
    # g_t and h_t are per metric-unit arclength, the steps per chart
    # arclength; under 4 * identity the unconverted first difference is off
    # by a factor of two, and the row read 0.75
    entry = dataclasses.replace(catalog.get(name), metric=MetricField.scaled(2, 4.0))
    assert _boundary_fd_error(entry, packages[name]) < 1e-4
    step = verify._boundary_step
    monkeypatch.setattr(verify, "_boundary_step",
                        lambda chart, x, delta: step(chart, x, -delta))
    assert _boundary_fd_error(entry, packages[name]) > 1e-4


def test_gradient_matches_value_differences():
    rng = np.random.default_rng(5)
    for name in catalog.names():
        assert _gradient_fd_error(catalog.get(name), rng, samples=200) < 1e-5


def test_hessian_matches_gradient_differences():
    for name in catalog.names():
        e = catalog.get(name)
        assert check_derivative_consistency(e.field, e.chart) < 1e-4


def test_deck_invariance_of_moebius_height():
    e = catalog.get("moebius")
    assert check_deck_invariance(e.field, e.chart) < 1e-9


def test_deck_invariance_rejects_broken_field():
    chart = catalog.get("moebius").chart
    bad = MorseField(
        value=lambda x: x[..., 1] * np.sin(x[..., 0] / 4.0),
        gradient=lambda x: np.stack([x[..., 1] * np.cos(x[..., 0] / 4.0) / 4.0,
                                     np.sin(x[..., 0] / 4.0)], axis=-1),
        hessian=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2)),
    )
    with pytest.raises(NotMorse):
        check_deck_invariance(bad, chart)


def test_round_bump_on_disk_not_admissible():
    e = catalog.get("disk")
    radial = MorseField(
        value=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2,
        gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
        hessian=lambda x: np.broadcast_to(2.0 * np.eye(2),
                                          np.shape(x)[:-1] + (2, 2)).copy(),
    )
    # the restriction to the rim is constant, hence degenerate
    with pytest.raises(NotMorse):
        find_boundary_critical(radial, e.chart)


def test_annulus_validates_with_expected_values(packages):
    pkg = packages["annulus"]
    assert sorted(cp.value for cp in pkg.crit.points) == pytest.approx(
        [-2.0, -1.0, 1.0, 2.0])

