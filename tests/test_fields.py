import dataclasses

import numpy as np
import pytest

from morseflow import catalog
from morseflow.critical import (INTERIOR, _boundary_step, boundary_sample,
                                find_boundary_critical)
from morseflow.errors import NotMorse
from morseflow.fields import (MorseField, boundary_restriction_derivatives,
                              check_deck_invariance,
                              check_derivative_consistency, validate_field)
from morseflow.geometry import MetricField, boundary_frame, normalize_point


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


def arclength_fd_error(entry, pkg, step=_boundary_step) -> float:
    """Worst relative error of `boundary_restriction_derivatives` against
    arclength finite differences of the restriction, taken with `step`, at
    the package's boundary criticals and a fixed arclength either side of
    each, where the first difference also checks the sign of the step along
    the boundary.

    The steps are taken in chart arclength and g_t, h_t are per metric-unit
    arclength, so the differences are converted with the euclidean length of
    the metric-unit tangent, as the critical search's refinement does."""
    chart, field = entry.chart, entry.field
    if chart.dim != 2:
        return 0.0
    errors = [0.0]
    h = 1e-4
    for cp in pkg.crit.points:
        if cp.kind == INTERIOR:
            continue
        for x0 in (cp.coords, step(chart, cp.coords, 0.1), step(chart, cp.coords, -0.1)):
            plus = step(chart, x0, h) if x0 is not None else None
            minus = step(chart, x0, -h) if x0 is not None else None
            if plus is None or minus is None:
                continue
            f0, fp, fm = (float(field.value(x)) for x in (x0, plus, minus))
            pt = normalize_point(chart, x0)
            t_len = float(np.linalg.norm(boundary_frame(chart, pt, entry.metric)[1]))
            g_t, h_t = boundary_restriction_derivatives(field, chart, pt, entry.metric)
            first = (fp - fm) / (2 * h) * t_len
            second = (fp - 2 * f0 + fm) / h ** 2 * t_len ** 2
            errors += [abs(first - g_t) / max(1.0, abs(g_t)),
                       abs(second - h_t) / max(1.0, abs(h_t))]
    return float(np.max(errors))  # NaN-propagating, unlike the builtin max


def reversed_step(chart, x, delta):
    return _boundary_step(chart, x, -delta)


def test_restriction_matches_arclength_differences(packages):
    for name, pkg in packages.items():
        assert arclength_fd_error(catalog.get(name), pkg) < 1e-4


@pytest.mark.parametrize("name", ["disk", "annulus", "moebius", "tilted_dome"])
def test_arclength_differences_see_a_reversed_step(packages, name):
    # the second difference is symmetric in the step; the first is not
    assert arclength_fd_error(catalog.get(name), packages[name], reversed_step) > 1e-4


@pytest.mark.parametrize("name", ["disk", "annulus"])
def test_arclength_differences_under_a_scaled_metric(packages, name):
    # g_t and h_t are per metric-unit arclength, the steps per chart
    # arclength; under 4 * identity the unconverted first difference is off
    # by a factor of two, and the row read 0.75
    entry = dataclasses.replace(catalog.get(name), metric=MetricField.scaled(2, 4.0))
    assert arclength_fd_error(entry, packages[name]) < 1e-4
    assert arclength_fd_error(entry, packages[name], reversed_step) > 1e-4


def test_arclength_differences_see_a_nan_restriction(packages):
    # an all-NaN disk function: the reference reads NaN, not 0.0
    disk = dataclasses.replace(catalog.get("disk"), field=nan_field())
    assert np.isnan(arclength_fd_error(disk, packages["disk"]))


def test_gradient_matches_value_differences():
    for name in catalog.names():
        e = catalog.get(name)
        assert check_derivative_consistency(e.field, e.chart)[0] < 1e-5


def test_hessian_matches_gradient_differences():
    for name in catalog.names():
        e = catalog.get(name)
        assert check_derivative_consistency(e.field, e.chart)[1] < 1e-4


@pytest.mark.parametrize("name, wrong", [
    # a constant offset, to which the hessian's differences are blind; along
    # the first axis on the moebius band, which its deck leaves in place
    ("disk", lambda g: g + np.array([0.0, 0.01])),
    ("interval", lambda g: g + 0.01),
    ("annulus", lambda g: g + np.array([0.0, 0.01])),
    ("moebius", lambda g: g + np.array([0.01, 0.0])),
    ("tilted_dome", lambda g: g + np.array([0.01, 0.0])),
    ("interval", lambda g: np.full_like(g, np.nan)),
])
def test_validation_rejects_a_wrong_gradient(name, wrong):
    e = catalog.get(name)
    bad = dataclasses.replace(e.field, gradient=lambda x: wrong(e.field.gradient(x)))
    with pytest.raises(NotMorse, match="gradient disagrees"):
        validate_field(bad, e.chart)


def _bent(fn, bend):
    return lambda x: bend(fn(x))


def with_wrong_wall(name, wall, **wrong):
    """The catalog builder of entry `name` with each callable of its wall
    `wall` that `wrong` names passed through the function given for it."""
    make = catalog._BUILDERS[name]

    def build():
        entry = make()
        walls = tuple(
            dataclasses.replace(con, **{attr: _bent(getattr(con, attr), bend)
                                        for attr, bend in wrong.items()})
            if con.name == wall else con
            for con in entry.chart.constraints)
        return dataclasses.replace(entry, chart=dataclasses.replace(entry.chart,
                                                                    constraints=walls))
    return build


@pytest.mark.parametrize("name, wall, wrong, message", [
    # twice the rim's curvature: its second fundamental form enters the
    # boundary restriction's second derivative, and nothing else reads it
    ("disk", "rim", {"hessian": lambda h: 2.0 * h}, "hessian disagrees"),
    ("annulus", "inner", {"gradient": lambda g: np.full_like(g, np.nan)},
     "gradient disagrees"),
])
def test_construction_rejects_a_wrong_wall(monkeypatch, name, wall, wrong, message):
    monkeypatch.setitem(catalog._BUILDERS, name, with_wrong_wall(name, wall, **wrong))
    monkeypatch.setattr(catalog, "_CACHE", {})
    with pytest.raises(NotMorse, match=f"^wall '{wall}': {message} with finite differences"):
        catalog.get(name)


def test_deck_invariance_of_moebius_height():
    e = catalog.get("moebius")
    assert check_deck_invariance(e.field, e.chart) < 1e-9


def broken_moebius_field() -> MorseField:
    """v sin(u/4) on the Möbius chart, with a zero hessian: not deck invariant,
    and its hessian is not the derivative of its gradient."""
    return MorseField(
        value=lambda x: x[..., 1] * np.sin(x[..., 0] / 4.0),
        gradient=lambda x: np.stack([x[..., 1] * np.cos(x[..., 0] / 4.0) / 4.0,
                                     np.sin(x[..., 0] / 4.0)], axis=-1),
        hessian=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2)),
    )


def test_deck_invariance_rejects_broken_field():
    chart = catalog.get("moebius").chart
    with pytest.raises(NotMorse):
        check_deck_invariance(broken_moebius_field(), chart)


def nan_field() -> MorseField:
    """A field whose value, gradient and hessian are NaN everywhere."""
    return MorseField(
        value=lambda x: np.full(np.shape(x)[:-1], np.nan),
        gradient=lambda x: np.full(np.shape(x), np.nan),
        hessian=lambda x: np.full(np.shape(x) + (np.shape(x)[-1],), np.nan),
    )


@pytest.mark.parametrize("name", ["disk", "moebius"])
def test_validation_rejects_a_nan_field(name):
    # NaN compares False with every tolerance; a check passes only on a
    # worst error at or below it
    with pytest.raises(NotMorse):
        validate_field(nan_field(), catalog.get(name).chart)


def test_round_bump_on_disk_not_admissible():
    e = catalog.get("disk")
    radial = MorseField(
        value=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2,
        gradient=lambda x: 2.0 * np.asarray(x, dtype=float),
        hessian=lambda x: np.broadcast_to(2.0 * np.eye(2),
                                          np.shape(x)[:-1] + (2, 2)).copy(),
    )
    wall = boundary_sample(radial, e.chart)
    # the restriction to the rim is constant, hence degenerate
    with pytest.raises(NotMorse):
        find_boundary_critical(radial, e.chart, wall=wall)


def test_annulus_validates_with_expected_values(packages):
    pkg = packages["annulus"]
    assert sorted(cp.value for cp in pkg.crit.points) == pytest.approx(
        [-2.0, -1.0, 1.0, 2.0])

