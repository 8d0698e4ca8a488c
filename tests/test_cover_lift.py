"""Deck-graded orbit counts lifted to cyclic covers, against the covers' groups.

Each connecting orbit ends at T^k of its sink, k its deck index.  On the
m-fold cyclic cover (sheets i in Z/m, glued by T^m) it runs from (p, i) to
(q, (i + k) mod m).  Its coefficient there is its sign with integer
coefficients, and its sign times (flip^m)^floor((i + k) / m) with orientation
coefficients: the cover's own deck map twists once per crossing of its seam.
The cover is the strip of period m * P and flip flip^m, with χ times m, so
`CatalogEntry.references()` gives its groups.  The lift integrates nothing:
it reads each orbit's sign and deck index and nothing else, so it is the one
check that sees a deck index beyond its parity, and on the flip = +1 cylinder
the only one that sees it at all.

The covers m = 2, 3 of the Möbius band and m = 2 of the cylinder also run
through the whole construction: their critical values come in ties, one per
sheet, and their homology must equal the lift of the base.
"""
import dataclasses

import pytest

from morseflow import catalog
from morseflow.chains import IntegerChainComplex
from morseflow.critical import find_critical_set
from morseflow.geometry import chart_distance
from morseflow.pipeline import COMPLEX_TARGETS, build_package, complex_key

from conftest import EXPECTED, cyclic_cover

SEEDS = (0, 1, 2, 3)
FOLDS = (1, 2, 3, 4)
BASES = ("moebius", "cylinder")
COVERS = {"moebius_x2": ("moebius", 2), "moebius_x3": ("moebius", 3),
          "cylinder_x2": ("cylinder", 2)}


def lifted_complex(pkg, side: str, flavor: str, m: int) -> IntegerChainComplex:
    """The complex of one side and flavour on the m-fold cyclic cover, from
    the package's orbits; generator (p, i) has id m * p.id + i."""
    crit, table = pkg.crit, pkg.incidences[side]
    flip_m = pkg.entry.chart.deck.flip ** m
    gens = crit.generators(side)
    ids = tuple(tuple(m * p.id + i for p in lst for i in range(m)) for lst in gens)
    step = -1 if side == "N" else 1
    matrices = {}
    for k in range(crit.dim + 1):
        if not 0 <= k + step <= crit.dim:
            continue
        col = {gid: j for j, gid in enumerate(ids[k + step])}
        mat = [[0] * len(col) for _ in ids[k]]
        for r, p in enumerate(gens[k]):
            for q in gens[k + step]:
                inc = table.get((p.id, q.id))
                for orbit in inc.orbits if inc is not None else ():
                    for i in range(m):
                        wraps, j = divmod(i + orbit.deck, m)
                        twist = flip_m if flavor != "untwisted" and wraps % 2 else 1
                        mat[r * m + i][col[m * q.id + j]] += orbit.sign * twist
        matrices[k] = mat
    return IntegerChainComplex(crit.dim, step, ids, matrices)


def lift_mismatches(pkg, m: int) -> list[str]:
    """The judged complexes whose lift to the m-fold cover misses its group."""
    refs = cyclic_cover(pkg.entry, m).references()
    bad = []
    for (side, flavor), target in COMPLEX_TARGETS.items():
        ref = refs[target]
        if lifted_complex(pkg, side, flavor, m).homology() != ref:
            bad.append(complex_key(side, flavor))
    return bad


@pytest.fixture(scope="module")
def bases(cylinder):
    entries = {"moebius": catalog.get("moebius"), "cylinder": cylinder}
    return {(name, seed): build_package(entries[name], seed)
            for name in BASES for seed in SEEDS}


@pytest.mark.parametrize("m", FOLDS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BASES)
def test_lift_matches_the_cover_references(bases, name, seed, m):
    assert lift_mismatches(bases[name, seed], m) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BASES)
def test_one_fold_lift_is_the_package_complex(bases, name, seed):
    pkg = bases[name, seed]
    for side, flavor in COMPLEX_TARGETS:
        key = complex_key(side, flavor)
        assert lifted_complex(pkg, side, flavor, 1).as_dict() == \
            pkg.complexes[key].as_dict(), key


def _shifted(pkg, side: str, index: int):
    """pkg with the deck index of the index-th orbit of a side's table moved by one."""
    orbits = [(key, i) for key, inc in pkg.incidences[side].items()
              for i in range(len(inc.orbits))]
    key, i = orbits[index]
    inc = pkg.incidences[side][key]
    moved = list(inc.orbits)
    moved[i] = dataclasses.replace(moved[i], deck=moved[i].deck + 1)
    table = {**pkg.incidences[side], key: dataclasses.replace(inc, orbits=tuple(moved))}
    return dataclasses.replace(pkg, incidences={**pkg.incidences, side: table})


@pytest.mark.parametrize("index", (0, 1))
@pytest.mark.parametrize("side", ("N", "D"))
def test_a_shifted_deck_index_fails_the_lift(bases, side, index):
    """Each base table holds two orbits; moving either one's deck index by one
    is caught.  The integer flavour never sees it on the base itself, and on
    the cylinder neither flavour does."""
    plain, twisted = complex_key(side, "untwisted"), complex_key(side, "orientation")
    cylinder = _shifted(bases["cylinder", 0], side, index)
    assert lift_mismatches(cylinder, 1) == []
    assert lift_mismatches(cylinder, 2) == [plain, twisted]
    moebius = _shifted(bases["moebius", 0], side, index)
    assert lift_mismatches(moebius, 1) == [twisted]
    assert plain in lift_mismatches(moebius, 2)


# --- the covers themselves, end to end ---------------------------------------


@pytest.fixture(scope="module")
def covers(request):
    return {name: request.getfixturevalue(name) for name in COVERS}


@pytest.fixture(scope="module")
def cover_packages(covers):
    return {(name, seed): build_package(entry, seed)
            for name, entry in covers.items() for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", COVERS)
def test_cover_passes_and_matches_the_lift(bases, cover_packages, name, seed):
    pkg = cover_packages[name, seed]
    assert pkg.checks and all(c.passed for c in pkg.checks), \
        [c.line() for c in pkg.checks if not c.passed]
    base, m = COVERS[name]
    for side, flavor in COMPLEX_TARGETS:
        key = complex_key(side, flavor)
        want = lifted_complex(bases[base, seed], side, flavor, m).homology()
        assert pkg.homology[key] == want, key


@pytest.mark.parametrize("name", COVERS)
def test_cover_critical_points_are_the_lifts(covers, cover_packages, name):
    """Every sheet's copy of each base point is found once, and the ids, which
    order equal values by the searches' order, are the same at every seed and
    in a fresh search, on both sides."""
    entry = covers[name]
    crit = cover_packages[name, 0].crit
    assert len(crit.points) == len(EXPECTED[name])
    for want in EXPECTED[name]:
        (cp,) = [cp for cp in crit.points
                 if chart_distance(entry.chart, cp.coords, want.location) < 1e-9]
        assert (cp.kind, cp.grading) == (want.kind, want.grading)
    values = [cp.value for cp in crit.points]
    assert values == sorted(values)
    assert min(b - a for a, b in zip(values, values[1:])) < 1e-9  # lifts tie

    def ids(points):
        return [(cp.id, cp.kind, cp.coords.tolist()) for cp in points]
    fresh = find_critical_set(entry.field, entry.chart)
    assert ids(fresh.points) == ids(crit.points)
    negated = ids(cover_packages[name, 0].field_neg.crit.points)
    for seed in SEEDS[1:]:
        assert ids(cover_packages[name, seed].crit.points) == ids(crit.points)
        assert ids(cover_packages[name, seed].field_neg.crit.points) == negated
