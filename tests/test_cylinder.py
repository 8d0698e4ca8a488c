"""The flip = +1 strip end to end: v + cos(u) / 2 on the cylinder.

No catalog entry glues a strip without a flip, so this test entry (the
`cylinder` fixture) runs that chart through the whole construction: the
critical search on both walls, both fields, the orbit counts, every complex
and the duality pairing.
"""
import pytest

from morseflow.geometry import chart_distance
from morseflow.pipeline import build_package

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def built(cylinder):
    return {seed: build_package(cylinder, seed=seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_four_boundary_critical_points(cylinder, built, seed):
    points = built[seed].crit.points
    assert len(points) == len(cylinder.expected) == 4
    for cp, want in zip(points, cylinder.expected):
        assert (cp.kind, cp.grading) == (want.kind, want.grading)
        assert chart_distance(cylinder.chart, cp.coords, want.location) < 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_textbook_groups_in_every_flavour(built, seed):
    pkg = built[seed]
    betti = {key: h.betti for key, h in pkg.homology.items()}
    assert betti == {"N_untwisted": (1, 1, 0), "N_orientation": (1, 1, 0),
                     "D_untwisted": (0, 1, 1), "D_orientation": (0, 1, 1),
                     "D_dual": (0, 1, 1)}
    assert all(not any(h.torsion) for h in pkg.homology.values())
    rows = [c for c in pkg.checks if c.name.startswith("homology:")]
    assert len(rows) == 4 and all(c.passed for c in rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_degree_one_pairing_is_unimodular(built, seed):
    pkg = built[seed]
    assert pkg.pairing[1].matrix == ((1,),)
    assert all(c.passed for c in pkg.checks)
