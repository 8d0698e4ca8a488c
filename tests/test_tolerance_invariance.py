"""Orbit counts do not depend on the integrator's step tolerances.

Every catalog entry and both interior-saddle fixtures give the same incidence
tables (each orbit's sign and deck index, from which both counts follow) and
the same pairing matrices at the default `rtol`/`atol` and at two
tighter pairs, down to the defaults used before trajectories ended at capture
regions.
"""
import pytest

from morseflow import catalog
from morseflow.critical import find_critical_set
from morseflow.params import DEFAULT
from morseflow.pipeline import _build_side, build_package

from test_interior_saddles import FIXTURES

PAIRS = ((1e-6, 1e-8), (1e-8, 1e-10), (1e-10, 1e-12))


def incidence_table(table):
    """Per-orbit (sign, deck index) per pair."""
    return {key: tuple((o.sign, o.deck) for o in inc.orbits)
            for key, inc in table.items()}


def package_results(entry, tol):
    pkg = build_package(entry, tol=tol)
    return (incidence_table(pkg.incidences["N"]),
            incidence_table(pkg.incidences["D"]),
            {k: rep.matrix for k, rep in pkg.pairing.items()})


def fixture_results(entry, tol):
    crit = find_critical_set(entry.field, entry.chart, entry.metric, tol)
    return incidence_table(_build_side(entry, crit, False, 0, tol)[1])


@pytest.mark.parametrize("name", catalog.names() + list(FIXTURES))
def test_results_do_not_depend_on_step_tolerances(name):
    if name in FIXTURES:
        entry, results = FIXTURES[name](), fixture_results
    else:
        entry, results = catalog.get(name), package_results
    got = [results(entry, DEFAULT.override(rtol=rtol, atol=atol))
           for rtol, atol in PAIRS]
    assert got == [got[0]] * len(PAIRS)
