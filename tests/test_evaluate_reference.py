"""The float evaluator against the numpy evaluator it replaced.

`reference_evaluate` is the per-point field evaluation as it was written with
numpy 2-vectors: the deck reduction, the metric solve, the collar, the first
tangency patch and the perturbation.  Its dot products go through BLAS, which
may fuse a multiply and an add, so it agrees with the float evaluator to
rounding, not bit for bit.  On a chart with a deck map it takes the strip's
walls from the box's v-bounds, not from the chart's constraints.
"""
import dataclasses
import math

import numpy as np
import pytest

from morseflow import catalog
from morseflow.critical import find_critical_set
from morseflow.geometry import (MetricField, boundary_distance, deck_apply, deck_sign,
                                metric_normal)
from morseflow.params import DEFAULT
from morseflow.pipeline import _build_side, _setup
from morseflow.pseudogradient import _wall_sample

from conftest import drawn_sample

_E_DOWN = np.array([0.0, -1.0])
_E_UP = np.array([0.0, 1.0])


def smoothstep(s):
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    return s * s * (3.0 - 2.0 * s)


def _chart_distance(chart, a, b):
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if chart.deck is None:
        d = xa - xb
        return math.sqrt(float(d @ d))
    best = math.inf
    shift = round((xb[0] - xa[0]) / chart.deck.period)
    for k in (shift - 1, shift, shift + 1):
        d = deck_apply(chart, k, xa) - xb
        best = min(best, math.sqrt(float(d @ d)))
    return best


def _strip_pieces(chart):
    """The strip's lower and upper walls, from the box's v-bounds."""
    (v_lo, v_hi) = chart.box[1]
    return (("lower", v_lo), ("upper", v_hi))


def _piece_depth_normal(chart, metric, piece, x):
    if chart.deck is not None:
        side, v_wall = piece
        if side == "lower":
            return float(x[1] - v_wall), metric_normal(metric, x, _E_DOWN)
        return float(v_wall - x[1]), metric_normal(metric, x, _E_UP)
    grad = np.asarray(piece.gradient(x), dtype=float)
    gnorm = math.sqrt(float(grad @ grad))
    if gnorm < 1e-30:
        return math.inf, None
    if metric.identity:
        return -float(piece.value(x)) / gnorm, grad / gnorm
    return -float(piece.value(x)) / gnorm, metric_normal(metric, x, grad)


def _collar_cap(nu, g_t, tol):
    if nu >= 0.0:
        return tol.eps_n
    if g_t < tol.g_min:
        return 0.0
    return min(tol.eps_n, g_t * g_t / (2.0 * abs(nu)))


def _model_vector(patch, chart, x):
    delta = x - patch.center
    if chart.deck is not None:
        delta[0] -= chart.deck.period * round(delta[0] / chart.deck.period)
    y = float(delta @ patch.tangent) if len(x) > 1 else 0.0
    if chart.deck is not None:
        # the patch sits on the strip's wall nearest its center
        (v_lo, v_hi) = chart.box[1]
        if abs(patch.center[1] - v_lo) < abs(patch.center[1] - v_hi):
            z, dz = float(x[1] - v_lo), np.array([0.0, 1.0])
        else:
            z, dz = float(v_hi - x[1]), np.array([0.0, -1.0])
    else:
        con = chart.constraints[patch.piece]
        z = -float(con.value(x)) / patch.grad_norm_at_center
        dz = -np.asarray(con.gradient(x), dtype=float) / patch.grad_norm_at_center
    if len(x) == 1:
        return np.array([-z / dz[0]])
    a, b = patch.tangent
    c, d = dz
    det = a * d - b * c
    my, mz = -patch.h * y, -z
    return np.array([(d * my - b * mz) / det, (a * mz - c * my) / det])


def _perturbation(pert, tol, x):
    chart, dim = pert.chart, pert.chart.dim
    if chart.deck is not None:
        (v_lo, v_hi) = chart.box[1]
        wall = min(abs(x[1] - v_lo), abs(v_hi - x[1]))
    else:
        wall = boundary_distance(chart, x)
    env = smoothstep(wall / tol.delta_c)
    if env == 0.0:
        return np.zeros(dim)
    for c in pert.centers:
        env *= smoothstep(_chart_distance(chart, x, c) / (2.0 * tol.r_excl))
        if env == 0.0:
            return np.zeros(dim)
    if chart.deck is not None:
        period = chart.deck.period
        u = x[0] % period
        env *= smoothstep(min(u, period - u) / (0.1 * period))
        if env == 0.0:
            return np.zeros(dim)
    vec = np.array([pert.signs[i] * math.sin(float(pert.waves[i] @ x) + pert.phases[i])
                    for i in range(dim)])
    return tol.perturb_amp * env * vec


def _eval_canonical(field, x):
    grad = np.asarray(field.objective.gradient(x), dtype=float)
    identity = field.metric.identity
    if identity:
        g_mat = None
        vec = -grad
    else:
        g_mat = np.asarray(field.metric.matrix(x), dtype=float)
        vec = -np.linalg.solve(g_mat, grad)

    best = (math.inf, None)
    pieces = (_strip_pieces(field.chart) if field.chart.deck is not None
              else field.chart.constraints)
    for piece in pieces:
        depth, normal = _piece_depth_normal(field.chart, field.metric, piece, x)
        if normal is not None and depth < best[0]:
            best = (depth, normal)
    depth, normal = best
    if normal is not None and field.delta_c > 0.0 and depth < field.delta_c:
        nu = float(grad @ normal)
        tangential = vec + nu * normal
        if identity:
            g_t = math.sqrt(float(tangential @ tangential))
        else:
            g_t = math.sqrt(max(float(tangential @ g_mat @ tangential), 0.0))
        cap = _collar_cap(nu, g_t, field.tol)
        w = 1.0 - min(1.0, max(0.0, depth / field.delta_c)) ** 2
        vec = vec + w * (nu - cap) * normal

    for patch in field.patches:
        d = _chart_distance(field.chart, x, patch.center)
        if d >= field.r_n:
            continue
        chi = 1.0 - smoothstep((d - 0.5 * field.r_n) / (0.5 * field.r_n))
        if chi > 0.0:
            vec = (1.0 - chi) * vec + chi * _model_vector(patch, field.chart, x)
        break

    if field._perturb is not None:
        vec = vec + _perturbation(field._perturb, field.tol, x)
    return vec


def reference_evaluate(field, raw):
    x = np.asarray(raw, dtype=float)
    if field.chart.deck is not None:
        k = int(math.floor(x[0] / field.chart.deck.period))
        vec = _eval_canonical(field, deck_apply(field.chart, -k, x))
        if deck_sign(field.chart, k) == -1:
            vec[1] = -vec[1]
        return vec
    return _eval_canonical(field, x)


def assert_matches_reference(field, points):
    new = np.array([field.evaluate(x) for x in points.tolist()])
    ref = np.array([reference_evaluate(field, x) for x in points])
    assert np.allclose(new, ref, rtol=1e-12, atol=1e-14)


def check_field(field, sample):
    # every fifth interior point: the interior is mostly plain descent, which
    # the wall sample and the trajectories cover next to the walls and patches
    wall = sample.wall[_wall_sample(field, sample)]
    assert_matches_reference(field, np.concatenate([sample.interior[::5], wall]))
    trajectories = [traj.points for branches in field._branch_memo.values()
                    for _, _, traj in branches]
    if trajectories:
        assert_matches_reference(field, np.concatenate(trajectories))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("name", catalog.names())
def test_matches_the_numpy_evaluator(packages, name, seed):
    pkg = packages[name]
    setup = _setup(pkg.entry, DEFAULT, pkg.crit, pkg.sample)
    for negative in (False, True):
        if seed is None:
            field = pkg.field_neg if negative else pkg.field_pos
        else:
            field, _ = _build_side(setup, "D" if negative else "N", seed)
        check_field(field, pkg.sample)


def test_matches_the_numpy_evaluator_under_a_scaled_metric():
    entry = dataclasses.replace(catalog.get("disk"), metric=MetricField.scaled(2, 2.0))
    crit = find_critical_set(entry.field, entry.chart, entry.metric, DEFAULT)
    sample = drawn_sample(entry.field, entry.chart, entry.metric, crit)
    setup = _setup(entry, DEFAULT, crit, sample)
    for negative in (False, True):
        field, _ = _build_side(setup, "D" if negative else "N", 0)
        assert not field.metric.identity
        check_field(field, sample)
