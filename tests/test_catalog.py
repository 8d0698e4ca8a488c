import subprocess
import sys

import numpy as np
import pytest

from morseflow import catalog
from morseflow.chains import HomologyResult
from morseflow.errors import UnknownEntry
from morseflow.fields import validate_field

from conftest import EXPECTED
from test_cli import _source_env
from test_interior_saddles import FIXTURES

def _group(betti, torsion=None):
    return HomologyResult(betti, torsion or tuple(() for _ in betti))


# The groups as the catalog once listed them by hand, with their orientability:
# the reference the derivation from dim, χ and the chart is checked against.
TEXTBOOK = {
    "interval": (True, {
        "H_*(M;Z)": _group((1, 0)),
        "H_*(M;Z^or)": _group((1, 0)),
        "H^*(M,dM;Z^or)": _group((0, 1)),
        "H^*(M,dM;Z)": _group((0, 1)),
    }),
    "disk": (True, {
        "H_*(M;Z)": _group((1, 0, 0)),
        "H_*(M;Z^or)": _group((1, 0, 0)),
        "H^*(M,dM;Z^or)": _group((0, 0, 1)),
        "H^*(M,dM;Z)": _group((0, 0, 1)),
    }),
    "annulus": (True, {
        "H_*(M;Z)": _group((1, 1, 0)),
        "H_*(M;Z^or)": _group((1, 1, 0)),
        "H^*(M,dM;Z^or)": _group((0, 1, 1)),
        "H^*(M,dM;Z)": _group((0, 1, 1)),
    }),
    "moebius": (False, {
        "H_*(M;Z)": _group((1, 1, 0)),
        "H_*(M;Z^or)": _group((0, 0, 0), ((2,), (), ())),
        "H^*(M,dM;Z^or)": _group((0, 1, 1)),
        "H^*(M,dM;Z)": _group((0, 0, 0), ((), (), (2,))),
    }),
    "tilted_dome": (True, {
        "H_*(M;Z)": _group((1, 0, 0)),
        "H_*(M;Z^or)": _group((1, 0, 0)),
        "H^*(M,dM;Z^or)": _group((0, 0, 1)),
        "H^*(M,dM;Z)": _group((0, 0, 1)),
    }),
}


def test_references_match_textbook_table():
    assert list(TEXTBOOK) == catalog.names()
    for name, (_, groups) in TEXTBOOK.items():
        assert catalog.get(name).references() == groups, name


def test_cylinder_references(cylinder):
    refs = cylinder.references()
    assert cylinder.orientable
    assert refs["H_*(M;Z)"] == refs["H_*(M;Z^or)"] == _group((1, 1, 0))
    for key in ("H^*(M,dM;Z^or)", "H^*(M,dM;Z)"):
        assert refs[key] == _group((0, 1, 1)), key


def test_orientability_read_from_chart():
    for name, (orientable, _) in TEXTBOOK.items():
        assert catalog.get(name).orientable is orientable, name


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
    assert len(EXPECTED[entry.name]) == 3
    assert not entry.orientable


def test_disk_expected_partition():
    entry = catalog.get("disk")
    kinds = sorted(e.kind for e in EXPECTED[entry.name])
    assert kinds == ["boundary_d", "boundary_n"]


def test_reference_rank_duality():
    for name in catalog.names():
        entry = catalog.get(name)
        refs = entry.references()
        assert refs["H^*(M,dM;Z^or)"].betti == refs["H_*(M;Z)"].betti[::-1], name


def test_reference_euler_characteristic():
    for name in catalog.names():
        entry = catalog.get(name)
        betti = entry.references()["H_*(M;Z)"].betti
        chi = sum((-1) ** k * b for k, b in enumerate(betti))
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


def test_one_point_value_is_the_batch_row(cylinder):
    # the flow reads the value at one point, certification and capture checks
    # in batches: both must give the same bits
    rng = np.random.default_rng(5)
    entries = [catalog.get(name) for name in catalog.names()]
    for entry in entries + [make() for make in FIXTURES.values()] + [cylinder]:
        lo, hi = np.array(entry.chart.box, dtype=float).T
        pts = lo + (hi - lo) * rng.random((2000, entry.dim))
        pts[:500] *= 3.0  # beyond the box and across the seam
        batch = np.asarray(entry.field.value(pts), dtype=float)
        one = np.array([float(entry.field.value(p)) for p in pts])
        assert one.tobytes() == batch.tobytes(), entry.name


def test_construction_leaves_numpy_random_unimported(tmp_path):
    # numpy imports numpy.random on first use only, and that import is most
    # of a fresh process's first catalog.get
    code = ("import sys\n"
            "from morseflow import catalog\n"
            "for name in catalog.names():\n"
            "    catalog.get(name)\n"
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_source_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
