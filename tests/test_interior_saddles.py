"""Grading-2 sources whose orbits end at interior saddles.

No catalog entry has such a target, so these fixtures are built here on the
disk and moebius charts.  Each bump on a sloped function makes a maximum and,
just uphill of it, a saddle whose stable manifold carries one orbit from it.
"""
import dataclasses
import numpy as np
import pytest

from morseflow import catalog, flow
from morseflow.critical import INTERIOR
from morseflow.fields import MorseField, validate_field
from morseflow.params import DEFAULT
from morseflow.pipeline import _build_side, _setup, assemble_complex

BUMPS = (np.array([-0.4, -0.1]), np.array([0.35, 0.05]))


def _two_bump_field() -> MorseField:
    """f = y + 0.6 sum_i exp(-|x - c_i|^2 / 0.08)."""

    def bumps(x):
        return [(0.6 * np.exp(-np.sum((x - c) ** 2, axis=-1) / 0.08), x - c)
                for c in BUMPS]

    def value(x):
        return x[..., 1] + sum(b for b, _ in bumps(x))

    def gradient(x):
        out = np.zeros(np.shape(x))
        out[..., 1] = 1.0
        for b, d in bumps(x):
            out = out - 25.0 * b[..., None] * d
        return out

    def hessian(x):
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        for b, d in bumps(x):
            outer = d[..., :, None] * d[..., None, :]
            out = out + b[..., None, None] * (625.0 * outer - 25.0 * np.eye(2))
        return out

    return MorseField(value=value, gradient=gradient, hessian=hessian)


def _bumped_moebius_field() -> MorseField:
    """f = v sin(u/2) + 0.5 exp((cos(u - pi) - 1)/0.05) exp(-v^2/0.05)."""

    def bump(x):
        u, v = x[..., 0], x[..., 1]
        return 0.5 * np.exp(-20.0 * (1.0 + np.cos(u) + v ** 2))

    def value(x):
        return x[..., 1] * np.sin(x[..., 0] / 2.0) + bump(x)

    def gradient(x):
        u, v = x[..., 0], x[..., 1]
        b = bump(x)
        return np.stack([v * np.cos(u / 2.0) / 2.0 + 20.0 * np.sin(u) * b,
                         np.sin(u / 2.0) - 40.0 * v * b], axis=-1)

    def hessian(x):
        u, v = x[..., 0], x[..., 1]
        b = bump(x)
        out = np.zeros(np.shape(x)[:-1] + (2, 2))
        out[..., 0, 0] = (-v * np.sin(u / 2.0) / 4.0
                          + (400.0 * np.sin(u) ** 2 + 20.0 * np.cos(u)) * b)
        out[..., 0, 1] = np.cos(u / 2.0) / 2.0 - 800.0 * v * np.sin(u) * b
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = (1600.0 * v ** 2 - 40.0) * b
        return out

    return MorseField(value=value, gradient=gradient, hessian=hessian)


def _fixture(base: str, name: str, field: MorseField):
    entry = dataclasses.replace(catalog.get(base), name=name, field=field)
    validate_field(entry.field, entry.chart)
    return entry


# the fixture entries by name, each made when called
FIXTURES = {
    "two_bump_disk": lambda: _fixture("disk", "two_bump_disk", _two_bump_field()),
    "bumped_moebius": lambda: _fixture("moebius", "bumped_moebius",
                                       _bumped_moebius_field()),
}


@pytest.fixture(scope="module", params=list(FIXTURES))
def n_side(request):
    entry = FIXTURES[request.param]()
    setup = _setup(entry, DEFAULT)
    launches = []
    integrate = flow.integrate

    def counted(field, start, *, reverse=False, allow_exit=False):
        launches.append((tuple(np.asarray(start, dtype=float)), reverse))
        return integrate(field, start, reverse=reverse, allow_exit=allow_exit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "integrate", counted)
        _, table = _build_side(setup, "N", 0)
    return entry, setup.crit, table, launches


def test_interior_saddles_present(n_side):
    entry, crit, _, _ = n_side
    interior = [cp.grading for cp in crit.points if cp.kind == INTERIOR]
    if entry.name == "two_bump_disk":
        assert sorted(interior) == [1, 1, 2, 2]
    else:
        assert sorted(interior) == [1, 1, 2]


def test_n_side_homology_matches_reference(n_side):
    entry, crit, table, _ = n_side
    refs = entry.references()
    for flavor, ref in (("untwisted", refs["H_*(M;Z)"]),
                        ("orientation", refs["H_*(M;Z^or)"])):
        got = assemble_complex(crit, "N", flavor, table).homology()
        assert got == ref, \
            f"{entry.name}/{flavor}: {got.as_dict()} != {ref.as_dict()}"


def test_each_maximum_reaches_its_saddle_once(n_side):
    entry, crit, table, _ = n_side
    interior = [cp for cp in crit.points if cp.kind == INTERIOR]
    saddles = [q for q in interior if q.grading == 1]
    for p in interior:
        if p.grading != 2:
            continue
        q = min(saddles, key=lambda s: float(np.linalg.norm(s.coords - p.coords)))
        assert abs(table[(p.id, q.id)].count) == 1, \
            f"{entry.name}: maximum {p.id} to saddle {q.id}"


def test_each_branch_is_integrated_once(n_side):
    # a saddle's stable manifold carries the orbits from every maximum, and is
    # followed once, not once per maximum
    entry, _, _, launches = n_side
    assert len(set(launches)) == len(launches)
    if entry.name == "two_bump_disk":
        assert len(launches) == 8
