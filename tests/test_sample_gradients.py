"""The certification sample carries the gradient of the analysed function.

An analysis evaluates f's gradient once at each certification point, when it
draws the sample, and certifies every field it builds there on those values:
as they are for a descent field, negated for an ascent one.  Here the entry's
`MorseField` is wrapped with a counter of the points its gradient is asked
for, and the field built on the sample's gradients is compared, bit for bit,
with `conftest.evaluate_many`, which evaluates the gradient itself.
"""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from morseflow import catalog, critical, pipeline
from morseflow.critical import find_critical_set, reclassify_negated
from morseflow.errors import MorseflowError, SampleMismatch
from morseflow.fields import MorseField
from morseflow.params import DEFAULT
from morseflow.pseudogradient import (build_adapted, certification_sample,
                                      certify_adapted, row_geometry)

from conftest import drawn_sample, evaluate_many


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class GradientPoints:
    """Counts, by their bits, the points the wrapped gradient is asked for."""

    def __init__(self):
        self.seen = Counter()
        self.recording = True

    def wrap(self, field: MorseField) -> MorseField:
        def gradient(x):
            if self.recording:
                rows = np.atleast_2d(np.asarray(x, dtype=float))
                self.seen.update(row.tobytes() for row in rows)
            return field.gradient(x)
        return MorseField(field.value, gradient, field.hessian)


def rows(points):
    return Counter(row.tobytes() for row in points)


@pytest.fixture(scope="module")
def counted_packages():
    """`build_package` of each catalog entry with a counted gradient, and
    the points the gradient was asked for outside the critical search."""
    built = {}

    def build(name):
        if name not in built:
            points = GradientPoints()
            entry = catalog.get(name)
            entry = dataclasses.replace(entry, field=points.wrap(entry.field))
            find = pipeline.find_critical_set

            def unrecorded_search(*args, **kwargs):
                points.recording = False
                try:
                    return find(*args, **kwargs)
                finally:
                    points.recording = True

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "find_critical_set", unrecorded_search)
                built[name] = pipeline.build_package(entry), points
        return built[name]

    return build


@pytest.mark.parametrize("name", catalog.names())
def test_package_evaluates_each_sample_gradient_once(counted_packages, name):
    pkg, points = counted_packages(name)
    sample = pkg.sample
    assert sample.field is pkg.entry.field
    # both sides were built; annulus also certified the ascent field of the
    # pairing's retry seed on the same sample
    assert pkg.field_pos.certificate.passed and pkg.field_neg.certificate.passed
    for block in (sample.interior, sample.wall):
        for row, count in rows(block).items():
            assert points.seen[row] == count


@pytest.mark.parametrize("name", catalog.names())
def test_seed_invariance_evaluates_no_sample_gradient(counted_packages, name):
    pkg, points = counted_packages(name)
    before = points.seen.copy()
    pipeline.homologies_for_seed(pkg.entry, 1, DEFAULT, pkg.crit, pkg.sample)
    asked = points.seen - before
    assert asked  # the flow asked for gradients, the certificates did not
    for block in (pkg.sample.interior, pkg.sample.wall):
        assert not rows(block).keys() & asked.keys()


@pytest.mark.parametrize("seed", [None, 1])
@pytest.mark.parametrize("name", catalog.names())
def test_sample_gradients_give_the_bits_of_evaluate_many(packages, name, seed):
    pkg = packages[name]
    entry, sample = pkg.entry, pkg.sample
    setup = pipeline._setup(entry, DEFAULT, pkg.crit, sample)
    for side in ("N", "D"):
        field = setup.build(side, seed)
        grads = sample.signed(field.objective, sample.interior_grad, sample.wall_grad)
        for x, grad in zip((sample.interior, sample.wall), grads):
            # negating the stored gradient gives the bits of -f's gradient
            assert same_bits(grad, field.objective.gradient(x))
            assert same_bits(field._eval_canonical_many(
                x, grad, row_geometry(field.chart, field.metric, x)), evaluate_many(field, x))


def test_a_sample_certifies_only_its_own_function(packages):
    pkg = packages["disk"]
    entry, f = pkg.entry, pkg.entry.field
    doubled = MorseField(lambda x: 2.0 * f.value(x), lambda x: 2.0 * f.gradient(x),
                         lambda x: 2.0 * f.hessian(x))
    own = drawn_sample(doubled, entry.chart, entry.metric, pkg.crit)
    sides = ((doubled, pkg.crit),
             (doubled.negated(), reclassify_negated(pkg.crit, doubled)))
    # the doubled function's fields certify on a sample of their own ...
    for objective, crit in sides:
        field = build_adapted(objective, entry.chart, crit, entry.metric, sample=own)
        assert field.certificate.passed
        # ... and raise, not certify, on the sample drawn for f
        with pytest.raises(SampleMismatch):
            certify_adapted(field, sample=pkg.sample)
        with pytest.raises(MorseflowError):
            build_adapted(objective, entry.chart, crit, entry.metric, sample=pkg.sample)
    # the critical search and a certification sample read the wall of f only
    with pytest.raises(SampleMismatch):
        find_critical_set(doubled, entry.chart, entry.metric, wall=pkg.sample)
    with pytest.raises(SampleMismatch):
        certification_sample(doubled, entry.chart, pkg.crit, DEFAULT, pkg.sample)
    # a function equal to -f, but not made by negating f, is another function
    with pytest.raises(SampleMismatch):
        certify_adapted(dataclasses.replace(pkg.field_neg, objective=MorseField(
            lambda x: -f.value(x), lambda x: -f.gradient(x),
            lambda x: -f.hessian(x))), sample=pkg.sample)


@pytest.mark.parametrize("name", [n for n in catalog.names()
                                  if catalog.get(n).chart.dim == 2
                                  and catalog.get(n).chart.deck is None])
def test_package_walks_each_wall_once(name, monkeypatch):
    walked = []
    walk = critical._coarse_walk

    def counted(chart, con, tol):
        walked.append(con)
        return walk(chart, con, tol)

    monkeypatch.setattr(critical, "_coarse_walk", counted)
    entry = catalog.get(name)
    pipeline.build_package(entry)
    # the critical search and the certification sample share one walk
    assert walked == list(entry.chart.constraints)
