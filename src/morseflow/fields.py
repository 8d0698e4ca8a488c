"""Smooth scalar functions on a chart, with exact first and second derivatives.

Derivative closures are supplied analytically per catalog entry; finite
differences appear only as consistency oracles.  Every evaluator accepts a
single coordinate vector or a batch with the coordinates on the last axis.
The Morse clauses are judged where each critical point is classified; two
points may share a critical value, as the lifts to a cyclic cover do, since
no orbit runs between equal values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import NotMorse, NotOnBoundary
from .geometry import (Chart, MetricField, active_constraint, deck_apply, metric_normal,
                       turn_clockwise)
from .params import DEFAULT, Tolerances

Array = np.ndarray


@dataclass(frozen=True)
class MorseField:
    """Scalar function with gradient covector and coordinate hessian.

    A field made by `negated` records the field it negates, whose gradient,
    negated, gives its own bits.
    """

    value: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array]
    negation_of: MorseField | None = dataclass_field(default=None, repr=False,
                                                     compare=False)

    def negated(self) -> "MorseField":
        return MorseField(
            value=lambda x: -self.value(x),
            gradient=lambda x: -self.gradient(x),
            hessian=lambda x: -self.hessian(x),
            negation_of=self,
        )


def _sample_points(chart: Chart, count: int, rng: np.random.Generator) -> Array:
    lo, hi = np.array(chart.box, dtype=float).T
    return lo + (hi - lo) * rng.random((count, len(lo)))


def check_deck_invariance(field: MorseField, chart: Chart,
                          samples: int = 100, tol: float = 1e-9,
                          seed: int = 7) -> float:
    """Worst deviation of value/gradient/hessian from deck equivariance."""
    if chart.deck is None:
        return 0.0
    rng = np.random.default_rng(seed)
    pts = _sample_points(chart, samples, rng)
    worst = 0.0
    flip = np.diag([1.0, float(chart.deck.flip)])
    for x in pts:
        tx = deck_apply(chart, 1, x)
        worst = max(worst, abs(float(field.value(tx)) - float(field.value(x))))
        gx = np.asarray(field.gradient(x), dtype=float)
        gt = np.asarray(field.gradient(tx), dtype=float)
        worst = max(worst, float(np.max(np.abs(gt - flip @ gx))))
        hx = np.asarray(field.hessian(x), dtype=float)
        ht = np.asarray(field.hessian(tx), dtype=float)
        worst = max(worst, float(np.max(np.abs(ht - flip @ hx @ flip))))
    if worst > tol:
        raise NotMorse(f"field is not deck invariant (deviation {worst:.2e})")
    return worst


def check_derivative_consistency(field: MorseField, chart: Chart,
                                 samples: int = 100, seed: int = 11) -> float:
    """Hessian versus central differences of the gradient; returns worst rel error."""
    rng = np.random.default_rng(seed)
    pts = _sample_points(chart, samples, rng)
    dim = pts.shape[1]
    step = 1e-5
    worst = 0.0
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
    if worst > 1e-4:
        raise NotMorse(f"hessian disagrees with finite differences ({worst:.2e})")
    return worst


def validate_field(field: MorseField, chart: Chart) -> None:
    """Construction-time checks: deck equivariance and derivative consistency."""
    check_deck_invariance(field, chart)
    check_derivative_consistency(field, chart)


def boundary_restriction_derivatives(field: MorseField, chart: Chart,
                                     x: Array, metric: MetricField | None = None,
                                     tol: Tolerances = DEFAULT) -> tuple[float, float]:
    """Arclength first and second derivatives of the boundary restriction at x.

    The second derivative carries the curvature correction
    t.(d2f).t - <df, n> II(t, t) coming from the bending of the wall, where
    II(t, t) = t.(d2b).t / |db| is its second fundamental form, |db| taken in
    the dual metric norm so the result is frame consistent.  Only meaningful
    in dimension 2 (the boundary is a curve).
    """
    if chart.dim != 2:
        raise NotOnBoundary("boundary of a 1-manifold is zero-dimensional")
    con = active_constraint(chart, x, tol)
    if con is None:
        raise NotOnBoundary(f"{tuple(x.tolist())} is interior")
    grad_b = np.asarray(con.gradient(x), dtype=float)
    hess_b = np.asarray(con.hessian(x), dtype=float)
    normal = metric_normal(metric or MetricField.euclidean(2), x, grad_b)
    tangent = turn_clockwise(normal)
    if metric is None or metric.identity:
        gl = math.sqrt(float(grad_b @ grad_b))
    else:
        gl = math.sqrt(float(grad_b @ np.linalg.solve(np.asarray(metric.matrix(x)), grad_b)))
    grad = np.asarray(field.gradient(x), dtype=float)
    hess = np.asarray(field.hessian(x), dtype=float)
    g_t = float(grad @ tangent)
    nu = float(grad @ normal)
    second = float(tangent @ hess @ tangent) - nu * (float(tangent @ hess_b @ tangent) / gl)
    return g_t, second
