import pytest

from morseflow import catalog
from morseflow.chains import IntPolynomial, duality_symmetry_check
from morseflow.errors import UnknownEntry
from morseflow.fields import validate_field


def test_names_and_lookup():
    assert catalog.names() == ["interval", "disk", "annulus", "moebius",
                               "tilted_dome"]
    assert catalog.get("disk").name == "disk"


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog.get("torus")


def test_moebius_entry_shape():
    entry = catalog.get("moebius")
    assert entry.chart.deck is not None
    assert entry.chart.deck.flip == -1
    assert len(entry.expected) == 3
    assert not entry.orientable


def test_disk_expected_partition():
    entry = catalog.get("disk")
    kinds = sorted(e.kind for e in entry.expected)
    assert kinds == ["boundary_d", "boundary_n"]


def test_reference_rank_duality():
    for name in catalog.names():
        entry = catalog.get(name)
        assert duality_symmetry_check(IntPolynomial(entry.h_abs.betti),
                                      IntPolynomial(entry.h_rel_co_or.betti),
                                      entry.dim), name


def test_reference_euler_characteristic():
    for name in catalog.names():
        entry = catalog.get(name)
        chi = sum((-1) ** k * b for k, b in enumerate(entry.h_abs.betti))
        assert chi == entry.chi, name


def test_torsion_lists_divisibility_ordered():
    for name in catalog.names():
        entry = catalog.get(name)
        for group in entry.references().values():
            for per_degree in group.torsion:
                for a, b in zip(per_degree, per_degree[1:]):
                    assert b % a == 0


def test_fields_validate():
    for name in catalog.names():
        entry = catalog.get(name)
        validate_field(entry.field, entry.chart)


def test_entries_cached():
    assert catalog.get("annulus") is catalog.get("annulus")


def test_constraint_gradients_nonvanishing_on_walls():
    import numpy as np
    from morseflow.critical import boundary_components
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.dim != 2:
            continue
        for loop in boundary_components(entry.chart, 100):
            if entry.chart.deck is not None:
                continue
            for x in loop:
                active = [c for c in entry.chart.constraints
                          if abs(float(c.value(x))) < 1e-7]
                assert len(active) == 1  # walls are disjoint, no corners
                grad = np.asarray(active[0].gradient(x))
                assert np.linalg.norm(grad) > 1e-6
