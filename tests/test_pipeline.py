import sys

import numpy as np
import pytest

from morseflow import catalog, critical, flow, pipeline, pseudogradient
from morseflow.chains import HomologyResult, IntegerChainComplex
from morseflow.critical import BOUNDARY_D, BOUNDARY_N, INTERIOR
from morseflow.cli import _report
from morseflow.errors import InvarianceFailure, NonTransverse
from morseflow.params import DEFAULT
from morseflow.pipeline import (PairingReport, assert_identical_homology,
                                complex_key, homologies_for_seed)
from morseflow.pseudogradient import build_adapted

from conftest import drawn_sample


def test_generator_partitions(packages):
    for name, pkg in packages.items():
        crit = pkg.crit
        for side, keep in (("N", BOUNDARY_N), ("D", BOUNDARY_D)):
            gens = crit.generators(side)
            expected = [p.id for p in crit.points if p.kind in (INTERIOR, keep)]
            flattened = [gid for lst in pkg.complexes[
                complex_key(side, "untwisted")].generators for gid in lst]
            assert sorted(flattened) == sorted(expected)
            for k, lst in enumerate(gens):
                assert all(p.grading == k for p in lst)


def test_complex_ranks(packages):
    ranks = {name: tuple(len(g) for g in
                         packages[name].complexes["N_untwisted"].generators)
             for name in packages}
    assert ranks["interval"] == (1, 0)
    assert ranks["disk"] == (1, 0, 0)
    assert ranks["annulus"] == (1, 1, 0)
    assert ranks["moebius"] == (1, 1, 0)
    assert ranks["tilted_dome"] == (1, 1, 1)


def test_incidence_matrices(packages):
    ann = packages["annulus"].complexes["N_untwisted"]
    assert ann.matrices[1] == [[0]]
    moe_tw = packages["moebius"].complexes["N_orientation"]
    assert moe_tw.matrices[1] in ([[2]], [[-2]])
    moe = packages["moebius"].complexes["N_untwisted"]
    assert moe.matrices[1] == [[0]]
    dome = packages["tilted_dome"].complexes["N_untwisted"]
    assert abs(dome.matrices[2][0][0]) == 1
    assert dome.matrices[1] == [[0]]


def test_relative_side_matrices(packages):
    ann_d = packages["annulus"].complexes["D_untwisted"]
    assert ann_d.step == 1
    assert ann_d.matrices[1] == [[0]]
    moe_d = packages["moebius"].complexes["D_orientation"]
    assert moe_d.matrices[1] in ([[2]], [[-2]])


def test_homology_matches_catalog_references(packages):
    for name, pkg in packages.items():
        refs = catalog.get(name).references()
        targets = {
            "N_untwisted": "H_*(M;Z)",
            "N_orientation": "H_*(M;Z^or)",
            "D_untwisted": "H^*(M,dM;Z^or)",
            "D_orientation": "H^*(M,dM;Z)",
            "D_dual": "H^*(M,dM;Z^or)",
        }
        for key, target in targets.items():
            got = pkg.homology[key]
            ref = refs[target]
            assert got == ref, \
                f"{name}/{key}: {got.as_dict()} != {ref.as_dict()}"


def test_homology_row_judges_the_computed_groups(monkeypatch):
    """The ledger judges the flow's homology, not the references: an N side
    that lost the dome's one orbit (d = 0) fails its homology row, and with
    it the package."""
    lost = HomologyResult((1, 1, 1), ((), (), ()))

    class LostOrbit(IntegerChainComplex):
        def homology(self):
            return lost

    complexes = pipeline._complexes

    def tampered(crit, tables):
        out = complexes(crit, tables)
        cx = out["N_untwisted"]
        out["N_untwisted"] = LostOrbit(cx.top_dim, cx.step, cx.generators, cx.matrices)
        return out

    monkeypatch.setattr(pipeline, "_complexes", tampered)
    pkg = pipeline.build_package(catalog.get("tilted_dome"))
    assert pkg.homology["N_untwisted"] is lost
    row = next(c for c in pkg.checks if c.name.startswith("homology:N_untwisted="))
    assert not row.passed
    assert not pkg.passed


def test_dual_complex_shape(packages):
    dual = packages["annulus"].complexes["D_dual"]
    assert dual.step == -1
    assert dual.homology().betti == (0, 1, 1)
    rebuilt = dual.transpose_dual()
    original = packages["annulus"].complexes["D_untwisted"]
    assert rebuilt.matrices == original.matrices


def test_pairing_annulus_unimodular(packages):
    rep = packages["annulus"].pairing[1]
    assert rep.matrix is not None
    assert abs(rep.matrix[0][0]) == 1
    assert rep.determinant() in (1, -1)


def test_annulus_pairing_is_taken_at_the_first_retry_seed(packages):
    # y is symmetric about the y-axis, so at seed 0 the D point's relative
    # curve runs down the axis into the N minimum (0, -2)
    pkg = packages["annulus"]
    d_point = next(cp for cp in pkg.crit.points
                   if cp.kind == BOUNDARY_D and cp.grading == 1)
    assert np.allclose(d_point.coords, [0.0, -1.0])
    assert pkg.field_neg.perturb_seed is None
    with pytest.raises(NonTransverse) as err:
        flow.relative_cycle_curves(pkg.field_neg, d_point)
    n_min = next(cp for cp in pkg.crit.points if np.allclose(cp.coords, [0.0, -2.0]))
    assert str(err.value) == (
        f"branch 1 of the relative curve of generator {d_point.id} exits at a "
        f"critical point ({n_min.id}); general position fails (perturb_seed None)")
    report = _report(pkg, ["N_untwisted", "D_untwisted"], [], 0)
    assert report["meta"]["pairing_seed"] == 7920


def test_pairing_moebius_diagonal(packages):
    rep = packages["moebius"].pairing[1]
    assert rep.matrix is not None
    assert abs(rep.matrix[0][0]) == 1


def test_pairing_dimension_mismatch_reported(packages):
    rep = packages["disk"].pairing[2]
    assert rep.matrix is None
    assert "precondition" in rep.reason
    rep0 = packages["disk"].pairing[0]
    assert rep0.matrix is None


def test_all_checks_pass(packages):
    for name, pkg in packages.items():
        failed = [c.name for c in pkg.checks if not c.passed]
        assert not failed, f"{name}: {failed}"


def test_invariance_two_entries(packages):
    for name in ("annulus", "moebius"):
        pkg = packages[name]
        per_seed = {s: homologies_for_seed(pkg.entry, s, crit=pkg.crit) for s in (1, 2)}
        assert_identical_homology(per_seed)


def test_invariance_failure_detected():
    good = {"N_untwisted": HomologyResult((1, 1, 0), ((), (), ()))}
    bad = {"N_untwisted": HomologyResult((1, 0, 0), ((), (), ()))}
    with pytest.raises(InvarianceFailure):
        assert_identical_homology({1: good, 2: bad})


def test_pairing_determinant_is_exact():
    big = 10 ** 8
    rep = PairingReport(1, (0, 1), (2, 3), ((big + 1, big), (big, big - 1)))
    assert rep.determinant() == -1


def test_package_builds_each_field_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        # an ascent field descends the negation of f
        calls.append((args[0].negation_of is not None, kwargs["perturb_seed"]))
        return build_adapted(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_adapted", counted)
    pkg = pipeline.build_package(catalog.get("annulus"))
    # descent and ascent fields at the base seed, plus the ascent field of the
    # pairing's retry seed after the base seed's pairing is not transverse
    assert calls == [(False, None), (True, None), (True, pkg.pairing_seed)]


@pytest.fixture(scope="module")
def instrumented():
    """`build_package(name)` recording every field build, every integration
    (field, start, reverse, RK samples) and every trace of the boundary
    loops."""
    built = {}

    def build(name):
        if name in built:
            return built[name]
        fields, launches, traces = [], [], []
        integrate = flow.integrate
        boundary_components = critical.boundary_components

        def counted_build(*args, **kwargs):
            fields.append(build_adapted(*args, **kwargs))
            return fields[-1]

        def counted_integrate(field, start, *, reverse=False, allow_exit=False):
            traj = integrate(field, start, reverse=reverse, allow_exit=allow_exit)
            # the field itself is kept, so no id is reused by a later field
            launches.append((field, tuple(np.asarray(start, dtype=float)), reverse,
                             len(traj.points)))
            return traj

        def counted_trace(*args, **kwargs):
            traces.append(args)
            return boundary_components(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "build_adapted", counted_build)
            mp.setattr(flow, "integrate", counted_integrate)
            mp.setattr(critical, "boundary_components", counted_trace)
            pkg = pipeline.build_package(catalog.get(name))
        built[name] = pkg, fields, launches, traces
        return built[name]

    return build


# bounds on a package's RK samples; at seed 0 there were 513, 432 and 470 when
# they were set, and 3,285, 2,386 and 2,898 before branches ended at capture
# regions
MAX_RK_SAMPLES = {"annulus": 600, "moebius": 500, "tilted_dome": 550}


@pytest.mark.parametrize("name, integrations", [
    ("annulus", 6), ("moebius", 4), ("tilted_dome", 3)])
def test_package_integrates_each_branch_once(instrumented, name, integrations):
    _, _, launches, _ = instrumented(name)
    keys = [(id(field), start, reverse) for field, start, reverse, _ in launches]
    assert len(set(keys)) == len(keys)
    assert len(keys) == integrations
    assert sum(samples for *_, samples in launches) <= MAX_RK_SAMPLES[name]


def test_package_traces_the_wall_once(instrumented):
    pkg, fields, _, traces = instrumented("annulus")
    # the critical search, the descent and ascent fields and the pairing
    # retry's ascent field share one trace
    ascends = [f.objective.negation_of is pkg.entry.field for f in fields]
    assert list(zip(ascends, [f.perturb_seed for f in fields])) == [
        (False, None), (True, None), (True, pkg.pairing_seed)]
    assert len(traces) == 1


def patch_everywhere(monkeypatch, fn, wrapper):
    """Bind wrapper in place of fn in every morseflow module that holds fn,
    however it was imported."""
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("morseflow")
                and getattr(mod, fn.__name__, None) is fn):
            monkeypatch.setattr(mod, fn.__name__, wrapper)


@pytest.mark.parametrize("name", catalog.names())
def test_each_analysis_traces_and_frames_the_wall_once(name, monkeypatch):
    # (function, whether a field build or a certificate was running)
    calls, building = [], []
    for fn in (critical.boundary_components, critical.boundary_frames,
               critical.boundary_sample, pseudogradient.certification_sample):
        def counted(*args, fn=fn, **kwargs):
            calls.append((fn.__name__, bool(building)))
            return fn(*args, **kwargs)
        patch_everywhere(monkeypatch, fn, counted)
    for fn in (pseudogradient.build_adapted, pseudogradient.certify_adapted):
        def inside(*args, fn=fn, **kwargs):
            building.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                building.pop()
        patch_everywhere(monkeypatch, fn, inside)
    pkg = pipeline.build_package(catalog.get(name))
    assert sorted(calls) == [("boundary_components", False), ("boundary_frames", False),
                             ("boundary_sample", False), ("certification_sample", False)]
    # an analysis handed the package's critical set and sample draws neither
    calls.clear()
    pipeline.homologies_for_seed(pkg.entry, 1, DEFAULT, pkg.crit, pkg.sample)
    assert calls == []


@pytest.mark.parametrize("name", catalog.names())
def test_each_analysis_derives_the_d_side_once(name, monkeypatch):
    # -f's critical set is derived once, although annulus builds its D side
    # twice, at seed 0 and at the pairing's retry seed
    calls = []
    reclassify = critical.reclassify_negated

    def counted(*args, **kwargs):
        calls.append(args)
        return reclassify(*args, **kwargs)

    patch_everywhere(monkeypatch, reclassify, counted)
    pkg = pipeline.build_package(catalog.get(name))
    assert len(calls) == 1
    calls.clear()
    pipeline.homologies_for_seed(pkg.entry, 1, DEFAULT, pkg.crit, pkg.sample)
    assert len(calls) == 1


def test_shared_wall_trace_keeps_certificates(instrumented):
    # each field's certificate on the analysis's shared sample equals, bit
    # for bit, the one it gets on a sample its own build would draw
    _, fields, _, _ = instrumented("annulus")
    assert len(fields) == 3
    for fld in fields:
        assert fld.certificate.attempts == 1
        own = pseudogradient.certify_adapted(fld, attempts=1, sample=drawn_sample(
            fld.objective, fld.chart, fld.metric, fld.crit, fld.tol))
        assert fld.certificate.as_dict() == own.as_dict()
