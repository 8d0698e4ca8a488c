"""The consistency oracles' batches against the per-point loops they replace.

The gradient check of criterion 10 (`verify._gradient_fd_error`) and the
construction-time checks of `fields` evaluate all their points at once.  The
loops below are the per-point forms they were written as; each batch must
take the same points, in the same order, return the same worst error to the
bit, and leave a shared generator where the loop leaves it.
"""
import dataclasses

import numpy as np
import pytest

from morseflow import catalog, fields
from morseflow.errors import MorseflowError, NotMorse
from morseflow.fields import check_deck_invariance, check_derivative_consistency
from morseflow.geometry import boundary_distance, deck_apply, normalize_point
from morseflow.verify import _fd_points, _gradient_fd_error
from test_fields import broken_moebius_field
from test_interior_saddles import FIXTURES

FD_STEP = 1e-6


def fd_points_loop(chart, rng, samples, clearance):
    """`_fd_points` one draw at a time."""
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    points, attempts = [], 0
    while len(points) < samples and attempts < 100 * samples:
        attempts += 1
        x = lo + (hi - lo) * rng.random(chart.dim)
        try:
            pt = normalize_point(chart, x)
        except MorseflowError:
            continue
        if boundary_distance(chart, pt) < clearance:
            continue
        points.append(pt)
    return np.array(points).reshape(-1, chart.dim)


def gradient_fd_error_loop(entry, rng, samples=200):
    """`_gradient_fd_error` point by point."""
    chart, field = entry.chart, entry.field
    worst = 0.0
    for pt in fd_points_loop(chart, rng, samples, 10 * FD_STEP):
        grad = np.asarray(field.gradient(pt), dtype=float)
        for j in range(chart.dim):
            e = np.zeros(chart.dim)
            e[j] = FD_STEP
            fd = (float(field.value(pt + e)) - float(field.value(pt - e))) / (2 * FD_STEP)
            worst = max(worst, abs(fd - grad[j]) / max(1.0, abs(grad[j])))
    return worst


def deck_invariance_loop(field, chart, samples=100, seed=7):
    """`check_deck_invariance`'s worst deviation, point by point."""
    if chart.deck is None:
        return 0.0
    pts = fields._sample_points(chart, samples, np.random.default_rng(seed))
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


def derivative_consistency_loop(field, chart, samples=100, seed=11):
    """`check_derivative_consistency`'s worst error, point by point."""
    pts = fields._sample_points(chart, samples, np.random.default_rng(seed))
    dim, step, worst = pts.shape[1], 1e-5, 0.0
    for x in pts:
        h_exact = np.asarray(field.hessian(x), dtype=float)
        h_fd = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = step
            h_fd[:, j] = (np.asarray(field.gradient(x + e), dtype=float)
                          - np.asarray(field.gradient(x - e), dtype=float)) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(h_exact))))
        worst = max(worst, float(np.max(np.abs(h_fd - h_exact))) / scale)
    return worst


@pytest.fixture(scope="module")
def entries(request):
    """The catalog, the flip = +1 cylinder, the cyclic covers and the
    interior-saddle fixtures, by name."""
    found = {name: catalog.get(name) for name in catalog.names()}
    for name in ("cylinder", "moebius_x2", "moebius_x3", "cylinder_x2"):
        found[name] = request.getfixturevalue(name)
    found.update((name, make()) for name, make in FIXTURES.items())
    return found


def _same_state(a, b) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def _copy(rng):
    out = np.random.default_rng()
    out.bit_generator.state = rng.bit_generator.state
    return out


def test_gradient_check_takes_the_loops_points_and_errors(entries):
    # one generator runs through every entry, as in criterion 10, so each
    # entry's draws start where the previous entry's ended
    loop_rng, batch_rng = np.random.default_rng(4242), np.random.default_rng(4242)
    for name, entry in entries.items():
        points_rng = _copy(batch_rng)
        want_points = fd_points_loop(entry.chart, _copy(batch_rng), 200, 10 * FD_STEP)
        got_points = _fd_points(entry.chart, points_rng, 200, 10 * FD_STEP)
        assert got_points.tobytes() == want_points.tobytes(), name
        assert len(got_points) == 200, name
        want = gradient_fd_error_loop(entry, loop_rng)
        got = _gradient_fd_error(entry, batch_rng)
        assert got == want, name
        assert _same_state(batch_rng, loop_rng), name
        assert _same_state(points_rng, loop_rng), name


@pytest.mark.parametrize("samples, clearance", [(0, 1e-5), (1, 1e-5), (7, 1e-5),
                                                (3, 0.1), (3, 50.0)])
@pytest.mark.parametrize("name", ["interval", "annulus", "moebius"])
def test_points_at_any_count_and_clearance(name, samples, clearance):
    # clearance 50 keeps almost no draw, so the 100 * samples limit ends the
    # draws, with fewer points than asked for
    chart = catalog.get(name).chart
    loop_rng, batch_rng = np.random.default_rng(9), np.random.default_rng(9)
    want = fd_points_loop(chart, loop_rng, samples, clearance)
    got = _fd_points(chart, batch_rng, samples, clearance)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert _same_state(batch_rng, loop_rng)


def test_the_limit_ends_the_draws():
    chart = catalog.get("annulus").chart
    rng = np.random.default_rng(9)
    assert len(_fd_points(chart, rng, 3, 50.0)) < 3
    after = np.random.default_rng(9)
    after.random((300, 2))
    assert _same_state(rng, after)


def test_validation_checks_return_the_loops_worst(entries):
    for name, entry in entries.items():
        field, chart = entry.field, entry.chart
        assert (check_deck_invariance(field, chart)
                == deck_invariance_loop(field, chart)), name
        assert (check_derivative_consistency(field, chart)
                == derivative_consistency_loop(field, chart)), name


def test_validation_checks_still_raise_on_a_broken_field():
    chart = catalog.get("moebius").chart
    bad = broken_moebius_field()
    assert deck_invariance_loop(bad, chart) > 1e-9
    with pytest.raises(NotMorse, match="deck invariant"):
        check_deck_invariance(bad, chart)
    assert derivative_consistency_loop(bad, chart) > 1e-4
    with pytest.raises(NotMorse, match="finite differences"):
        check_derivative_consistency(bad, chart)


def test_gradient_check_sees_a_wrong_gradient():
    entry = catalog.get("tilted_dome")
    off = dataclasses.replace(entry.field, gradient=lambda x: 1.01 * entry.field.gradient(x))
    broken = dataclasses.replace(entry, field=off)
    want = gradient_fd_error_loop(broken, np.random.default_rng(4242))
    assert want > 1e-5
    assert _gradient_fd_error(broken, np.random.default_rng(4242)) == want
