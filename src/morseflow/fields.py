"""Smooth scalar functions on a chart, with exact first and second derivatives.

Derivative closures are supplied analytically per catalog entry, for the
function and for each wall, and checked once, when the entry is constructed
(`validate_field`): the gradient against central differences of the value,
the hessian against central differences of the gradient, the function's
deck equivariance, and the chart's metric (symmetric, positive-definite and
deck invariant), all on one deterministic sample of the chart's box
(`halton_sequence`), evaluated in one batch per call.  A wall's hessian is an
input too: it carries the wall's second fundamental form into the boundary
restriction's second derivative.  Every evaluator accepts a single coordinate
vector or a batch with the coordinates on the last axis.  The Morse clauses
are judged where each critical point is classified; two points may share a
critical value, as the lifts to a cyclic cover do, since no orbit runs between
equal values.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import NotMorse, NotOnBoundary
from .geometry import (BoundaryConstraint, Chart, active_constraint, deck_apply,
                       metric_matrices, wall_frame)
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


# the low digits each base's table covers: tables of 4,096, 2,187 and 3,125 sums
_TABLE_DIGITS = {2: 12, 3: 7, 5: 5}


@functools.cache
def _radical_table(base: int) -> tuple[Array, float]:
    """The radical inverse's running sum over the low `_TABLE_DIGITS[base]`
    digits of every index below base**digits, and the last digit's weight."""
    i = np.arange(base ** _TABLE_DIGITS[base], dtype=np.int64)
    f = 1.0
    r = np.zeros(len(i))
    for _ in range(_TABLE_DIGITS[base]):
        f /= base
        r += f * (i % base)
        i //= base
    r.flags.writeable = False
    return r, f


def halton_sequence(count: int, dim: int, skip: int = 20) -> Array:
    """Low-discrepancy points in the unit cube (radical inverse, bases 2/3/5).

    Digit k of an index adds its value times base**-(k+1) to the running
    sum, lowest digit first; the sum over the low digits is read from a
    table, and the higher digits are added in the same order, so the bits
    are those of the digit-by-digit sum.
    """
    idx = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.zeros((count, dim))
    for d, b in enumerate((2, 3, 5)[:dim]):
        table, f = _radical_table(b)
        r = table[idx % len(table)]
        i = idx // len(table)
        while i.max() > 0:
            f /= b
            r += f * (i % b)
            i //= b
        out[:, d] = r
    return out


def _sample_points(chart: Chart) -> Array:
    """The construction checks' sample: the first 200 Halton points of the
    chart's box."""
    lo, hi = np.array(chart.box, dtype=float).T
    return lo + (hi - lo) * halton_sequence(200, len(lo))


def _central_differences(fn: Callable[[Array], Array], pts: Array, step: float) -> Array:
    """Central differences of fn along each axis, stacked on a new last axis:
    one call per side of each axis."""
    cols = []
    for e in step * np.eye(pts.shape[1]):
        cols.append((np.asarray(fn(pts + e), dtype=float)
                     - np.asarray(fn(pts - e), dtype=float)) / (2 * step))
    return np.stack(cols, axis=-1)


def _deck_deviation(chart: Chart, pts: Array, fn: Callable[[Array], Array],
                    differential) -> float:
    """Worst deviation of fn at the deck images of pts from fn at pts times
    the differential, entry by entry, each side evaluated in one batch."""
    image = np.asarray(fn(deck_apply(chart, 1, pts)), dtype=float)
    moved = differential * np.asarray(fn(pts), dtype=float)
    return float(np.max(np.abs(image - moved), initial=0.0))


def check_deck_invariance(field: MorseField, chart: Chart) -> float:
    """Worst deviation of value/gradient/hessian from deck equivariance,
    over the sample points and their images."""
    if chart.deck is None:
        return 0.0
    pts = _sample_points(chart)
    # the deck map's differential diag(1, flip), entry by entry
    flip = np.array([1.0, float(chart.deck.flip)])
    worst = max(_deck_deviation(chart, pts, field.value, 1.0),
                _deck_deviation(chart, pts, field.gradient, flip),
                _deck_deviation(chart, pts, field.hessian, np.outer(flip, flip)))
    if not worst <= 1e-9:  # NaN fails too
        raise NotMorse(f"field is not deck invariant (deviation {worst:.2e})")
    return worst


def check_metric(chart: Chart) -> None:
    """The chart's metric, when it has one, at the sample points: symmetric,
    positive-definite, and invariant under a deck map T with differential
    D = diag(1, flip), g(Tx) = D g(x) D."""
    if chart.metric is None:
        return
    pts = _sample_points(chart)
    g = metric_matrices(chart, pts)
    asymmetry = float(np.max(np.abs(g - g.transpose(0, 2, 1)), initial=0.0))
    least = float(np.min(np.linalg.eigvalsh(g)))
    if not (asymmetry <= 1e-9 and least > 0.0):  # NaN fails too
        raise NotMorse(f"metric is not symmetric positive-definite (asymmetry "
                       f"{asymmetry:.2e}, least eigenvalue {least:.2e})")
    if chart.deck is not None:
        flip = np.array([1.0, float(chart.deck.flip)])
        worst = _deck_deviation(chart, pts, lambda x: metric_matrices(chart, x),
                                np.outer(flip, flip))
        if not worst <= 1e-9:
            raise NotMorse(f"metric is not deck invariant (deviation {worst:.2e})")


def check_derivative_consistency(field: MorseField | BoundaryConstraint,
                                 chart: Chart) -> tuple[float, float]:
    """Worst relative errors of the gradient against central differences of
    the value, relative to max(1, |component|), and of the hessian against
    central differences of the gradient, relative to each point's largest
    hessian entry (at least 1), over the sample points.  It reads only
    `value`, `gradient` and `hessian`, so it takes a wall as it is."""
    pts = _sample_points(chart)
    grad = np.asarray(field.gradient(pts), dtype=float)
    g_fd = _central_differences(field.value, pts, 1e-6)
    g_worst = float(np.max(np.abs(g_fd - grad) / np.maximum(1.0, np.abs(grad)),
                           initial=0.0))
    if not g_worst <= 1e-5:  # NaN fails too
        raise NotMorse(f"gradient disagrees with finite differences ({g_worst:.2e})")
    h_exact = np.asarray(field.hessian(pts), dtype=float)
    h_fd = _central_differences(field.gradient, pts, 1e-5)
    scale = np.maximum(1.0, np.max(np.abs(h_exact), axis=(1, 2)))
    h_worst = float(np.max(np.max(np.abs(h_fd - h_exact), axis=(1, 2)) / scale,
                           initial=0.0))
    if not h_worst <= 1e-4:  # NaN fails too
        raise NotMorse(f"hessian disagrees with finite differences ({h_worst:.2e})")
    return g_worst, h_worst


def validate_field(field: MorseField, chart: Chart) -> None:
    """Construction-time checks: the field's deck equivariance, the
    derivative consistency of the field and of every wall of the chart, a
    wall's failure naming the wall, and the chart's metric (`check_metric`)."""
    check_deck_invariance(field, chart)
    check_derivative_consistency(field, chart)
    for wall in chart.constraints:
        try:
            check_derivative_consistency(wall, chart)
        except NotMorse as exc:
            raise NotMorse(f"wall {wall.name!r}: {exc}") from None
    check_metric(chart)


def boundary_restriction_derivatives(field: MorseField, chart: Chart, x: Array,
                                     tol: Tolerances = DEFAULT) -> tuple[float, float]:
    """Arclength first and second derivatives of the boundary restriction at
    x, along the metric-unit tangent of `geometry.wall_frame`.

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
    normal, tangent = wall_frame(chart, x, grad_b)
    if chart.metric is None:
        gl = math.sqrt(float(grad_b @ grad_b))
    else:
        gl = float(grad_b @ normal)   # <db, n> is |db| in the dual metric norm
    grad = np.asarray(field.gradient(x), dtype=float)
    hess = np.asarray(field.hessian(x), dtype=float)
    g_t = float(grad @ tangent)
    nu = float(grad @ normal)
    second = float(tangent @ hess @ tangent) - nu * (float(tangent @ hess_b @ tangent) / gl)
    return g_t, second
