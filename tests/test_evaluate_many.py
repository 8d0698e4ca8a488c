"""The batch evaluator against the per-point `PseudoGradientField.evaluate`.

Certification evaluates in batches and the flow integrator point by point, so
the two must return the same bits: every comparison here is exact.  The
per-point evaluator is one straight-line float kernel compiled per field; the
batch (`_eval_canonical_many`, reached through `conftest.evaluate_many`,
which reduces raw points itself) repeats its operations elementwise, in the
same order and with no BLAS dot, which may fuse a multiply and an add.  The
points are the certification samples, which reach the collars and the patches
only sparsely, and every sample of every branch an analysis integrated, which
run into both.
"""
import dataclasses

import numpy as np
import pytest

from morseflow import catalog
from morseflow.critical import CriticalSet, find_critical_set
from morseflow.geometry import chart_distance_many
from morseflow.params import DEFAULT
from morseflow.pipeline import _setup, build_package
from morseflow.pseudogradient import (PseudoGradientField, _Perturbation, _pieces_many,
                                      _wall_sample, certify_adapted)

from conftest import canonical_many, drawn_sample, evaluate_many, with_metric


def assert_same_bits(field, points):
    points = np.asarray(points, dtype=float)
    batch = evaluate_many(field, points)
    # the kernel reads each point as a list of floats
    one_by_one = np.array([field.evaluate(x) for x in points.tolist()])
    assert batch.shape == one_by_one.shape
    assert np.array_equal(batch.view(np.int64), one_by_one.view(np.int64))


def field_sample(field):
    return drawn_sample(field.objective, field.chart, field.crit, field.tol)


def certification_samples(field):
    sample = field_sample(field)
    return sample.interior, sample.wall[_wall_sample(field, sample)]


def side_fields(entry, crit, seed):
    """Both sides' fields at a seed, on the sample an analysis draws."""
    setup = _setup(entry, DEFAULT, crit, drawn_sample(entry.field, entry.chart, crit))
    return [setup.build(side, seed) for side in ("N", "D")]


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("name", catalog.names())
def test_certification_samples_match(packages, name, seed):
    pkg = packages[name]
    fields = ([pkg.field_pos, pkg.field_neg] if seed is None
              else side_fields(pkg.entry, pkg.crit, seed))
    for field in fields:
        interior, wall = certification_samples(field)
        assert len(interior) == DEFAULT.cert_interior_samples
        assert len(wall) > 0
        assert_same_bits(field, interior)
        assert_same_bits(field, wall)


def branch_samples(field):
    """The samples of every branch integrated on the field, one row each."""
    return [x for branches in field._branch_memo.values()
            for _, _, traj in branches for x in traj.points]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", [*catalog.names(), "cylinder"])
def test_flow_samples_match(cylinder, name, seed):
    entry = cylinder if name == "cylinder" else catalog.get(name)
    pkg = build_package(entry, seed=seed)
    in_collar = in_patch = 0
    for field in (pkg.field_pos, pkg.field_neg):
        points = np.array(branch_samples(field))
        if not len(points):
            continue
        assert_same_bits(field, points)
        if field.chart.deck is not None:
            period = field.chart.deck.period
            for shift in (-period, period):
                assert_same_bits(field, points + [shift, 0.0])
        x, _ = canonical_many(field.chart, points)
        with np.errstate(divide="ignore"):
            depth = np.min([-b / norm for b, _, norm in _pieces_many(field.chart, x)],
                           axis=0, initial=np.inf)
        in_collar += np.count_nonzero(depth < field.delta_c)
        in_patch += sum(np.count_nonzero(chart_distance_many(field.chart, x, p.center)
                                         < field.r_n) for p in field.patches)
    # only the interval and the disk, whose complexes need no orbit, have none
    if name not in ("interval", "disk"):
        assert in_collar > 0 and in_patch > 0


@pytest.mark.parametrize("seed", [None, 1])
def test_moebius_deck_images_match(packages, seed):
    pkg = packages["moebius"]
    period = pkg.entry.chart.deck.period
    rng = np.random.default_rng(3)
    u = rng.uniform(-2 * period, 3 * period, 4000)
    u[:5] = [-2 * period, -period, 0.0, period, 2 * period]
    points = np.stack([u, rng.uniform(-1.0, 1.0, len(u))], axis=1)
    points[:5, 1] = -1.0
    points[5:10, 1] = 1.0
    for field in side_fields(pkg.entry, pkg.crit, seed):
        assert_same_bits(field, points)


def metric_fields_match(entry):
    crit = find_critical_set(entry.field, entry.chart, DEFAULT)
    for field in side_fields(entry, crit, None):
        assert field.certificate.passed
        for points in certification_samples(field):
            assert_same_bits(field, points)


def test_non_identity_metric_matches():
    metric_fields_match(with_metric(catalog.get("disk"), lambda x: 2.0 * np.eye(2)))


@pytest.mark.parametrize("name, matrix", [
    ("tilted_dome", lambda x: np.array([[2.0 + 0.1 * x[0] ** 2, 0.3], [0.3, 1.0]])),
    # deck invariant: the off-diagonal entry changes sign with v
    ("moebius", lambda x: np.array([[2.0, 0.1 * x[1] * np.cos(x[0])],
                                    [0.1 * x[1] * np.cos(x[0]), 1.0]])),
], ids=["tilted_dome", "moebius"])
def test_skewed_varying_metric_matches(name, matrix):
    metric_fields_match(with_metric(catalog.get(name), matrix))


def test_empty_batch(packages):
    field = packages["moebius"].field_pos
    assert evaluate_many(field, []).shape == (0, 2)


def test_certification_makes_no_per_point_calls(packages, monkeypatch):
    field = packages["disk"].field_pos
    calls = []
    original = PseudoGradientField.evaluate

    def counted(self, raw):
        calls.append(raw)
        return original(self, raw)

    monkeypatch.setattr(PseudoGradientField, "evaluate", counted)
    cert = certify_adapted(field, sample=field_sample(field))
    # only the central-difference linearisations at the critical points remain
    assert len(calls) <= 2 * field.chart.dim * len(field.crit.points)
    assert cert.interior_samples == DEFAULT.cert_interior_samples
    assert cert.as_dict() == field.certificate.as_dict() | {"attempts": 0}


@pytest.mark.parametrize("seed", [None, 1])
def test_cylinder_deck_images_match(cylinder, seed):
    entry = cylinder
    crit = find_critical_set(entry.field, entry.chart, DEFAULT)
    period = entry.chart.deck.period
    # a tangency patch sits on the seam, at (0, -1)
    assert any(cp.coords[0] == 0.0 for cp in crit.points)
    rng = np.random.default_rng(5)
    u = rng.uniform(-2 * period, 3 * period, 4000)
    u[:5] = [-2 * period, -period, 0.0, period, 2 * period]
    points = np.stack([u, rng.uniform(-1.0, 1.0, len(u))], axis=1)
    points[:5, 1] = -1.0
    points[5:10, 1] = 1.0
    shifted = points + [period, 0.0]
    for field in side_fields(entry, crit, seed):
        assert field.certificate.passed
        assert_same_bits(field, points)
        # with no flip the deck map's differential is the identity; the
        # reduction to [0, P) rounds u differently for x and T x
        moved = np.array([field.evaluate(x) for x in shifted.tolist()])
        still = np.array([field.evaluate(x) for x in points.tolist()])
        assert np.allclose(moved, still, rtol=0.0, atol=1e-12)


def test_a_copy_perturbs_with_its_own_tolerances(packages):
    pkg = packages["disk"]
    field = side_fields(pkg.entry, pkg.crit, 1)[0]
    louder = dataclasses.replace(field, tol=dataclasses.replace(
        field.tol, perturb_amp=10.0 * field.tol.perturb_amp))
    point = [0.1, 0.2]
    assert not np.array_equal(louder.evaluate(point), field.evaluate(point))
    assert_same_bits(louder, [point])


@pytest.mark.parametrize("seed", [None, 1])
def test_centers_next_to_the_seam_match(packages, seed):
    # moebius's critical points moved next to the seam, off v = 0: a patch or
    # a perturbation center is then near points across the seam only through
    # the flip, which both evaluators' coordinate gaps must allow
    base = packages["moebius"].field_pos
    period = base.chart.deck.period
    moved = {0.0: (0.01, 0.4), -1.0: (0.02, -1.0), 1.0: (period - 0.03, 1.0)}
    crit = CriticalSet(2, tuple(
        dataclasses.replace(cp, coords=moved[float(cp.coords[1])])
        for cp in base.crit.points))
    field = PseudoGradientField(chart=base.chart,
                                objective=base.objective, crit=crit, r_n=base.r_n,
                                delta_c=base.delta_c,
                                perturbation=None if seed is None
                                else _Perturbation(base.chart, crit, seed))
    rng = np.random.default_rng(9)
    u = np.concatenate([rng.uniform(-0.2, 0.2, 3000), rng.uniform(period - 0.2,
                                                                   period + 0.2, 3000)])
    v = rng.uniform(-1.0, 1.0, len(u))
    v[::3] = np.clip(-np.sign(v[::3]) * rng.normal(0.4, 0.05, len(v[::3])), -1.0, 1.0)
    assert_same_bits(field, np.stack([u, v], axis=1))
