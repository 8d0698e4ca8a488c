"""One certification geometry per analysis.

What the batch evaluator reads of the chart and the metric at the rows of the
certification sample (each wall's value, covector and norm, the nearest wall,
the metric matrices: `pseudogradient.RowGeometry`) is the same for every
field.  An analysis measures its sample once (`CertificationSample.measured`)
and every certificate it makes reads that geometry, while the package keeps
the sample without it.  Here the geometry function is counted, and each
certificate is compared, bit for bit, with the one made on a sample measured
for that certificate alone.
"""
import types

import numpy as np
import pytest

from morseflow import catalog, pipeline, pseudogradient
from morseflow.params import DEFAULT
from morseflow.pseudogradient import RowGeometry, build_adapted, certify_adapted


def counted_geometry(monkeypatch) -> list:
    """The row arrays `row_geometry` is called on, in order."""
    rows = []
    measure = pseudogradient.row_geometry

    def counted(chart, x):
        rows.append(x)
        return measure(chart, x)

    monkeypatch.setattr(pseudogradient, "row_geometry", counted)
    return rows


def recorded_certificates(monkeypatch) -> list:
    """(field, certificate) for every certificate made, in order."""
    made = []

    def recorded(field, **kwargs):
        cert = certify_adapted(field, **kwargs)
        made.append((field, cert))
        return cert

    monkeypatch.setattr(pseudogradient, "certify_adapted", recorded)
    return made


def sample_rows(rows, sample) -> tuple[int, int]:
    """How often the sample's interior and its wall were measured; the other
    rows are capture rings."""
    return (sum(x is sample.interior for x in rows), sum(x is sample.wall for x in rows))


def assert_same_certificates(made, sample):
    """Each certificate against one made on the unmeasured sample, which
    measures it again."""
    assert made
    for field, cert in made:
        own = certify_adapted(field, attempts=cert.attempts, sample=sample)
        assert repr(own.as_dict()) == repr(cert.as_dict())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", catalog.names())
def test_an_analysis_measures_its_sample_once(name, seed, monkeypatch):
    rows = counted_geometry(monkeypatch)
    builds = []
    build = pipeline.build_adapted

    def counted_build(*args, **kwargs):
        builds.append(kwargs["perturbation"])
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_adapted", counted_build)
    pkg = pipeline.build_package(catalog.get(name), seed)
    assert len(builds) >= 2
    assert sample_rows(rows, pkg.sample) == (1, 1)
    # criterion 9's analysis at another seed measures the package's sample again, once
    rows.clear()
    pipeline.homologies_for_seed(pkg.entry, seed + 1, DEFAULT, pkg.crit, pkg.sample)
    assert sample_rows(rows, pkg.sample) == (1, 1)


@pytest.mark.parametrize("name, seed", [("annulus", 0), ("moebius", 1), ("tilted_dome", 2)])
def test_certificates_match_a_geometry_per_certificate(name, seed, monkeypatch):
    made = recorded_certificates(monkeypatch)
    pkg = pipeline.build_package(catalog.get(name), seed)
    monkeypatch.undo()
    # both sides, at a perturbation seed
    assert {field.objective is pkg.entry.field for field, _ in made} == {True, False}
    assert any(field.perturb_seed for field, _ in made)
    assert_same_certificates(made, pkg.sample)


def test_shrink_retries_share_one_geometry(packages, monkeypatch):
    # at r_n = 2 the dome's descent field certifies at its third radius
    pkg = packages["tilted_dome"]
    entry = pkg.entry
    rows = counted_geometry(monkeypatch)
    made = recorded_certificates(monkeypatch)
    field = build_adapted(entry.field, entry.chart, pkg.crit,
                          tol=DEFAULT.override(r_n=2.0), sample=pkg.sample)
    monkeypatch.undo()
    assert [cert.attempts for _, cert in made] == [1, 2, 3]
    assert [cert.passed for _, cert in made] == [False, False, True]
    assert made[-1][1] is field.certificate
    assert sample_rows(rows, pkg.sample) == (1, 1)
    assert_same_certificates(made, pkg.sample)


def held(root):
    """Every object reachable from root through attributes and containers,
    functions, modules, classes and arrays aside."""
    seen, todo = set(), [root]
    leaves = (np.ndarray, str, bytes, int, float, type(None), type,
              types.FunctionType, types.MethodType, types.ModuleType)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, leaves):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += list(obj)
        elif hasattr(obj, "__dict__"):
            todo += list(vars(obj).values())


@pytest.mark.parametrize("name", catalog.names())
def test_a_package_holds_no_geometry(packages, name):
    pkg = packages[name]
    assert pkg.sample.geometry is None
    found = list(held(pkg))
    assert any(obj is pkg.field_neg.certificate for obj in found)  # the walk goes deep
    assert not any(isinstance(obj, RowGeometry) for obj in found)
