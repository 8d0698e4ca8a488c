"""Orbit counts do not depend on the integrator's step tolerances.

Every catalog entry and both interior-saddle fixtures give the same incidence
tables (each orbit's sign and deck index, from which both counts follow) and
the same pairing matrices at the default `rtol`/`atol` (1e-5/1e-7) and at
three tighter pairs: the defaults before this one (1e-6/1e-8), a pair between,
and the defaults used before trajectories ended at capture regions.  A looser
default, 1e-4/1e-6, leaves the five entries' integer output at seeds 0-15 as
it is, but moves the flip = +1 cylinder's relative curve at seed 5 within
`r_launch` of a critical point, so the pairing takes a retry that
`tests/seed_sweep_snapshot.json` does not record.

Nor does any integer the five entries report at seed 0 depend on any one
tolerance within a factor of two: each `Tolerances` field at half and at
twice its default (an integer one rounded down) leaves them as they are.
Scaling `r_launch` scales the two stop radii derived from it with it, and
either radius alone at half and at twice its value, the launches and the
other radius as they are, leaves them too.
"""
import copy

import pytest

from morseflow import catalog, flow
from morseflow.params import DEFAULT, Tolerances
from morseflow.pipeline import _build_side, _setup, build_package
from morseflow.pseudogradient import PseudoGradientField

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


def _radius_scaled(field, factor):
    """A shallow copy of field whose r_launch, which sets both stop radii, is
    scaled; it shares field's evaluator and derived state."""
    out = copy.copy(field)
    out.tol = field.tol.override(r_launch=field.tol.r_launch * factor)
    out.unscaled = field
    return out


def _scale_convergence_radius(monkeypatch, factor, calls):
    """The tolerances under which only the radius `integrate` converges
    within is scaled.  `integrate` reads r_launch for nothing else, and the
    branches still launch at the default one.  While capture regions end the
    branches, the speed rule that reads the radius never runs, so they are
    removed, and the branches then need the tighter step tolerances."""
    integrate = flow.integrate

    def scaled(field, start, **kw):
        calls.append(field)
        return integrate(_radius_scaled(field, factor), start, **kw)

    monkeypatch.setattr(PseudoGradientField, "capture_regions",
                        lambda self, reverse=False: ())
    monkeypatch.setattr(flow, "integrate", scaled)
    return DEFAULT.override(rtol=1e-10, atol=1e-12)


def _scale_exit_radius(monkeypatch, factor, calls):
    """The tolerances under which only the radius of the relative curves'
    transversality test is scaled: the curves are launched and integrated on
    the unscaled field."""
    curves, branches = flow.relative_cycle_curves, flow._branches

    def scaled(field_neg, p):
        calls.append(field_neg)
        return curves(_radius_scaled(field_neg, factor), p)

    monkeypatch.setattr(flow, "relative_cycle_curves", scaled)
    monkeypatch.setattr(flow, "_branches", lambda field, anchor, reverse: branches(
        getattr(field, "unscaled", field), anchor, reverse))
    return DEFAULT


# the entries whose build reads each radius: the interval and the disk
# integrate no branch, and only the annulus and the moebius band pair a
# relative curve
READERS = {"convergence": ("annulus", "moebius", "tilted_dome"),
           "exit": ("annulus", "moebius")}


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("name, radius", [(name, radius) for radius, names in READERS.items()
                                          for name in names])
def test_integers_do_not_depend_on_either_stop_radius(packages, monkeypatch,
                                                      name, radius, factor):
    calls = []
    scale = _scale_convergence_radius if radius == "convergence" else _scale_exit_radius
    tol = scale(monkeypatch, factor, calls)
    pkg = build_package(catalog.get(name), tol=tol)
    assert calls
    assert integer_output(pkg) == integer_output(packages[name])
