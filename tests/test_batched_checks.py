"""The consistency oracles' batches against the per-point loops they replace.

The construction-time checks of `fields` evaluate all their points at once.
The loops below are the per-point forms they were written as; each batch must
read the same Halton sample and return the same worst errors to the bit.
"""
import dataclasses

import numpy as np
import pytest

from morseflow import catalog, fields
from morseflow.errors import NotMorse
from morseflow.fields import (check_deck_invariance, check_derivative_consistency,
                              validate_field)
from morseflow.geometry import deck_apply
from test_fields import broken_moebius_field
from test_interior_saddles import FIXTURES


def deck_invariance_loop(field, chart):
    """`check_deck_invariance`'s worst deviation, point by point."""
    if chart.deck is None:
        return 0.0
    pts = fields._sample_points(chart)
    flip = np.diag([1.0, float(chart.deck.flip)])
    worst = 0.0
    for x in pts:
        tx = deck_apply(chart, 1, x)
        worst = max(worst, abs(float(field.value(tx)) - float(field.value(x))))
        gx = np.asarray(field.gradient(x), dtype=float)
        gt = np.asarray(field.gradient(tx), dtype=float)
        worst = max(worst, float(np.max(np.abs(gt - flip @ gx))))
        hx = np.asarray(field.hessian(x), dtype=float)
        ht = np.asarray(field.hessian(tx), dtype=float)
        worst = max(worst, float(np.max(np.abs(ht - flip @ hx @ flip))))
    return worst


def derivative_consistency_loop(field, chart):
    """`check_derivative_consistency`'s worst errors, point by point: the
    gradient's against differences of the value, the hessian's against
    differences of the gradient."""
    pts = fields._sample_points(chart)
    dim, g_worst, h_worst = pts.shape[1], 0.0, 0.0
    for x in pts:
        grad = np.asarray(field.gradient(x), dtype=float)
        h_exact = np.asarray(field.hessian(x), dtype=float)
        h_fd = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1e-6
            fd = (float(field.value(x + e)) - float(field.value(x - e))) / 2e-6
            g_worst = max(g_worst, abs(fd - grad[j]) / max(1.0, abs(grad[j])))
            e[j] = 1e-5
            h_fd[:, j] = (np.asarray(field.gradient(x + e), dtype=float)
                          - np.asarray(field.gradient(x - e), dtype=float)) / 2e-5
        scale = max(1.0, float(np.max(np.abs(h_exact))))
        h_worst = max(h_worst, float(np.max(np.abs(h_fd - h_exact))) / scale)
    return g_worst, h_worst


@pytest.fixture(scope="module")
def entries(request):
    """The catalog, the flip = +1 cylinder, the cyclic covers and the
    interior-saddle fixtures, by name."""
    found = {name: catalog.get(name) for name in catalog.names()}
    for name in ("cylinder", "moebius_x2", "moebius_x3", "cylinder_x2"):
        found[name] = request.getfixturevalue(name)
    found.update((name, make()) for name, make in FIXTURES.items())
    return found


ENTRY_NAMES = [*catalog.names(), "cylinder", "moebius_x2", "moebius_x3", "cylinder_x2",
               *FIXTURES]


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_validation_checks_return_the_loops_worst(entries, name):
    field, chart = entries[name].field, entries[name].chart
    assert check_deck_invariance(field, chart) == deck_invariance_loop(field, chart)
    assert (check_derivative_consistency(field, chart)
            == derivative_consistency_loop(field, chart))


def test_validation_checks_still_raise_on_a_broken_field():
    chart = catalog.get("moebius").chart
    bad = broken_moebius_field()
    assert deck_invariance_loop(bad, chart) > 1e-9
    with pytest.raises(NotMorse, match="deck invariant"):
        check_deck_invariance(bad, chart)
    assert derivative_consistency_loop(bad, chart)[1] > 1e-4
    with pytest.raises(NotMorse, match="finite differences"):
        check_derivative_consistency(bad, chart)


def test_gradient_check_sees_a_wrong_gradient():
    entry = catalog.get("tilted_dome")
    off = dataclasses.replace(entry.field, gradient=lambda x: 1.01 * entry.field.gradient(x))
    assert derivative_consistency_loop(off, entry.chart)[0] > 1e-5
    with pytest.raises(NotMorse, match="gradient disagrees"):
        validate_field(off, entry.chart)
