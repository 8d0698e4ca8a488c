"""Smooth scalar functions on a chart, with exact first and second derivatives.

Derivative closures are supplied analytically per catalog entry; finite
differences appear only as consistency oracles, which evaluate all their
sample points in one batch per call.  Every evaluator accepts a single
coordinate vector or a batch with the coordinates on the last axis.
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
    """Worst deviation of value/gradient/hessian from deck equivariance,
    over `samples` points of the box and their images, each evaluated in
    one batch."""
    if chart.deck is None:
        return 0.0
    rng = np.random.default_rng(seed)
    pts = _sample_points(chart, samples, rng)
    tx = deck_apply(chart, 1, pts)

    def deviation(fn, differential) -> float:
        image = np.asarray(fn(tx), dtype=float)
        moved = differential * np.asarray(fn(pts), dtype=float)
        return float(np.max(np.abs(image - moved), initial=0.0))

    # the deck map's differential diag(1, flip), entry by entry
    flip = np.array([1.0, float(chart.deck.flip)])
    worst = max(deviation(field.value, 1.0), deviation(field.gradient, flip),
                deviation(field.hessian, np.outer(flip, flip)))
    if not worst <= tol:  # NaN fails too
        raise NotMorse(f"field is not deck invariant (deviation {worst:.2e})")
    return worst


def check_derivative_consistency(field: MorseField, chart: Chart,
                                 samples: int = 100, seed: int = 11) -> float:
    """Hessian versus central differences of the gradient; returns worst rel
    error, relative to each point's largest hessian entry (at least 1).  The
    hessian is evaluated in one batch, the gradient in one per side of each
    axis."""
    rng = np.random.default_rng(seed)
    pts = _sample_points(chart, samples, rng)
    dim = pts.shape[1]
    step = 1e-5
    h_exact = np.asarray(field.hessian(pts), dtype=float)
    h_fd = np.zeros_like(h_exact)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = step
        h_fd[:, :, j] = (np.asarray(field.gradient(pts + e), dtype=float)
                         - np.asarray(field.gradient(pts - e), dtype=float)) / (2 * step)
    scale = np.maximum(1.0, np.max(np.abs(h_exact), axis=(1, 2)))
    worst = float(np.max(np.max(np.abs(h_fd - h_exact), axis=(1, 2)) / scale,
                         initial=0.0))
    if not worst <= 1e-4:  # NaN fails too
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
