"""One perturbation per seed, one evaluation of it per sample, one
neighbourhood per critical point.

An analysis draws one `_Perturbation` per seed and hands it to both sides,
every shrink retry and the pairing's rebuild.  The rows of the analysis's
measured sample (`RowGeometry`) keep its values and each critical point's
neighbourhood, so both sides read one evaluation.  Here the draws, the
evaluations on the sample and the neighbourhood measurements are counted, and
the `close_pair` entry, whose saddle and maximum lie within 4 r_excl of each
other, pins the certificates and complexes that the envelope's order of
centers, now id order on both sides, could move.
"""
import collections

import numpy as np
import pytest

from morseflow import catalog, pipeline, pseudogradient
from morseflow.params import DEFAULT
from morseflow.pipeline import _setup, build_package, homologies_for_seed
from morseflow.pseudogradient import _Perturbation

from conftest import evaluate_many


@pytest.fixture
def counted(monkeypatch):
    """Perturbations drawn, `many` calls as (perturbation, rows) and
    `near_rows` calls as (rows, center), in order."""
    log = {"drawn": [], "many": [], "near": []}
    many, near_rows = _Perturbation.many, pseudogradient.near_rows

    def drawn(*args):
        log["drawn"].append(_Perturbation(*args))
        return log["drawn"][-1]

    def counted_many(self, geometry, *args):
        log["many"].append((self, geometry.x))
        return many(self, geometry, *args)

    def counted_near(chart, points, center, radius):
        log["near"].append((points, tuple(center)))
        return near_rows(chart, points, center, radius)

    monkeypatch.setattr(pipeline, "_Perturbation", drawn)
    monkeypatch.setattr(_Perturbation, "many", counted_many)
    monkeypatch.setattr(pseudogradient, "near_rows", counted_near)
    return log


def assert_shared(log, sample, crit, seeds):
    """One draw per seed, one evaluation of each on each part of the sample,
    and one measurement per critical point in each part."""
    assert sorted(p.seed for p in log["drawn"]) == sorted(seeds)
    for part in (sample.interior, sample.wall):
        on_part = [p for p, rows in log["many"] if rows is part]
        assert sorted(p.seed for p in on_part) == sorted(seeds)
        centers = collections.Counter(c for rows, c in log["near"] if rows is part)
        assert set(centers.values()) == {1}
        assert set(centers) == {tuple(cp.coords.tolist()) for cp in crit.points}


@pytest.mark.parametrize("name", catalog.names())
def test_both_sides_share_one_draw_and_one_evaluation(name, counted):
    pkg = build_package(catalog.get(name), 1)
    assert pkg.field_pos.perturbation is pkg.field_neg.perturbation
    # the pairing reuses the ascent field of its seed, or rebuilds it at a
    # retry seed with that seed's one perturbation; None where none is taken
    seeds = {1, pkg.pairing_seed} - {None}
    assert_shared(counted, pkg.sample, pkg.crit, seeds)
    # criterion 9's analysis of the package's sample at another seed
    for log in counted.values():
        log.clear()
    homologies_for_seed(pkg.entry, 2, DEFAULT, pkg.crit, pkg.sample)
    assert_shared(counted, pkg.sample, pkg.crit, {2})


def test_shrink_retries_share_the_perturbation(packages, counted):
    # at r_n = 2 the dome's descent field certifies at its third radius; the
    # retries read the first attempt's rows and neighbourhoods
    pkg = packages["tilted_dome"]
    setup = _setup(pkg.entry, DEFAULT.override(r_n=2.0), pkg.crit, pkg.sample)
    field = setup.build("N", 1)
    assert field.certificate.attempts == 3
    assert_shared(counted, pkg.sample, pkg.crit, {1})


def test_an_unperturbed_analysis_draws_nothing(counted):
    pkg = build_package(catalog.get("disk"))
    assert counted["drawn"] == counted["many"] == []
    assert pkg.field_pos.perturbation is pkg.field_neg.perturbation is None


# descent and ascent certificate margins of the close pair at seeds 1-3:
# (descent, inward, interior definiteness, tangency definiteness)
CLOSE_PAIR_MARGINS = {
    1: ((-0.0005951964190263271, 0.00348920991046355, -1.930797835033617, -0.09),
        (-0.0009496656083499433, 0.003489095133892609, -1.9307978350328014, -0.09)),
    2: ((-0.0005951751930171493, 0.00348920991046355, -1.9307978350285433, -0.09),
        (-0.0009497882313913327, 0.003489095133892609, -1.9307978350378756, -0.09)),
    3: ((-0.0005952555977962429, 0.00348920991046355, -1.9307978350333277, -0.09),
        (-0.0009498123378328629, 0.003489095133892609, -1.930797835033091, -0.09)),
}
CLOSE_PAIR_COMPLEXES = {
    "N": {"step": -1, "generators": [[0], [1], [2]], "matrices": {"1": [[0]], "2": [[-1]]}},
    "D": {"step": 1, "generators": [[], [1], [2, 3]], "matrices": {"0": [], "1": [[-1, 1]]}},
}


@pytest.fixture(scope="module")
def close_pair_packages(close_pair):
    return {seed: build_package(close_pair, seed) for seed in (1, 2, 3)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_close_pair_keeps_its_certificates_and_complexes(close_pair_packages, seed):
    pkg = close_pair_packages[seed]
    saddle, top = (cp for cp in pkg.crit.points if cp.kind == "interior")
    assert float(np.linalg.norm(saddle.coords - top.coords)) < 4.0 * DEFAULT.r_excl
    assert pkg.passed and pkg.pairing_seed == seed
    margins = tuple((c.descent_margin, c.inward_margin, c.interior_definiteness,
                     c.tangency_definiteness)
                    for c in (pkg.field_pos.certificate, pkg.field_neg.certificate))
    assert repr(margins) == repr(CLOSE_PAIR_MARGINS[seed])
    for key, cx in pkg.complexes.items():
        if key != "D_dual":
            assert cx.as_dict() == CLOSE_PAIR_COMPLEXES[key[0]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_close_pair_kernel_matches_the_batch(close_pair_packages, seed):
    # points within 2 r_excl of both interior points take two envelope
    # factors below 1, in the same order in the point kernel and the batch
    pkg = close_pair_packages[seed]
    saddle, top = (cp.coords for cp in pkg.crit.points if cp.kind == "interior")
    mid = 0.5 * (saddle + top)
    theta = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    points = np.concatenate([mid + r * ring for r in (0.02, 0.04, 0.06, 0.08)])
    both = [x for x in points.tolist()
            if max(np.linalg.norm(x - saddle), np.linalg.norm(x - top))
            < 2.0 * DEFAULT.r_excl]
    assert len(both) >= 24
    for field in (pkg.field_pos, pkg.field_neg):
        batch = evaluate_many(field, both)
        one_by_one = np.array([field.evaluate(x) for x in both])
        assert np.array_equal(batch.view(np.int64), one_by_one.view(np.int64))
