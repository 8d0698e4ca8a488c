"""The flip = +1 strip end to end: v + cos(u) / 2 on the cylinder.

No catalog entry glues a strip without a flip, so this test entry (the
`cylinder` fixture) runs that chart through the whole construction: the
critical search on both walls, both fields, the orbit counts, every complex
and the duality pairing.
"""
import pytest

from morseflow.geometry import chart_distance
from morseflow.params import DEFAULT
from morseflow.pipeline import build_package

from conftest import EXPECTED

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def built(cylinder):
    return {seed: build_package(cylinder, seed=seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
def test_four_boundary_critical_points(cylinder, built, seed):
    points = built[seed].crit.points
    assert len(points) == len(EXPECTED[cylinder.name]) == 4
    for cp, want in zip(points, EXPECTED[cylinder.name]):
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


@pytest.mark.xfail(strict=True, reason=(
    "the general-position test reads an integrated exit point whose step error "
    "is of its threshold's size: at seed 5 the relative curve leaves the wall "
    "1.82e-4 from critical point 0 at rtol 1e-5 but 2.76e-5 at rtol 1e-4, on either "
    "side of degeneracy_tol (1e-4), so only the second retries another seed"))
def test_pairing_seed_does_not_depend_on_the_step_tolerance(cylinder):
    seeds = [build_package(cylinder, 5, DEFAULT.override(rtol=r, atol=r / 100)).pairing_seed
             for r in (1e-5, 1e-4)]
    assert seeds[0] == seeds[1]
