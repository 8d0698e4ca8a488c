"""Orbit counts do not depend on the integrator's step tolerances.

Every catalog entry and both interior-saddle fixtures give the same incidence
tables (each orbit's sign and deck index, from which both counts follow) and
the same pairing matrices at the default `rtol`/`atol` (1e-5/1e-7) and at
three tighter pairs: the defaults before this one (1e-6/1e-8), a pair between,
and the defaults used before trajectories ended at capture regions.  A looser
default, 1e-4/1e-6, leaves the five entries' integer output at seeds 0-15 as
it is, but moves the flip = +1 cylinder's relative curve at seed 5 within
`degeneracy_tol` of a critical point, so the pairing takes a retry that
`tests/seed_sweep_snapshot.json` does not record.

Nor does any integer the five entries report at seed 0 depend on any one
tolerance within a factor of two: each `Tolerances` field at half and at
twice its default (an integer one rounded down) leaves them as they are.
"""
import pytest

from morseflow import catalog
from morseflow.params import DEFAULT, Tolerances
from morseflow.pipeline import _build_side, _setup, build_package

from test_interior_saddles import FIXTURES
from test_seed_sweep import integer_output

PAIRS = ((1e-5, 1e-7), (1e-6, 1e-8), (1e-8, 1e-10), (1e-10, 1e-12))


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
    return incidence_table(_build_side(_setup(entry, tol), "N", 0)[1])


@pytest.mark.parametrize("name", catalog.names() + list(FIXTURES))
def test_results_do_not_depend_on_step_tolerances(name):
    if name in FIXTURES:
        entry, results = FIXTURES[name](), fixture_results
    else:
        entry, results = catalog.get(name), package_results
    got = [results(entry, DEFAULT.override(rtol=rtol, atol=atol))
           for rtol, atol in PAIRS]
    assert got == [got[0]] * len(PAIRS)


def _scaled(name, factor):
    value = getattr(DEFAULT, name) * factor
    return DEFAULT.override(**{name: int(value) if isinstance(getattr(DEFAULT, name), int)
                               else value})


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("tol_name", Tolerances.names())
@pytest.mark.parametrize("name", catalog.names())
def test_integers_do_not_depend_on_any_tolerance(packages, name, tol_name, factor):
    pkg = build_package(catalog.get(name), tol=_scaled(tol_name, factor))
    assert integer_output(pkg) == integer_output(packages[name])
