"""One test per acceptance criterion; each prints its own pass/fail line."""
import copy
import dataclasses
import math

import numpy as np
import pytest

from morseflow import catalog, cli, flow, pipeline
from morseflow.critical import BOUNDARY_N, INTERIOR, CriticalSet
from morseflow.params import DEFAULT
from morseflow.pipeline import build_package
from morseflow import verify as V


def _run(check, ctx, *args):
    result = check(ctx, *args) if args else check(ctx)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_absolute_homology(ctx):
    _run(V.check_absolute_homology, ctx)


def test_criterion_02_twisted_moebius(ctx):
    _run(V.check_twisted_moebius, ctx)


def test_criterion_03_relative_cohomology(ctx):
    _run(V.check_relative_cohomology, ctx)


def test_criterion_04_square_zero(ctx):
    _run(V.check_composites_vanish, ctx)


def test_square_zero_criterion_names_every_complex(packages):
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    count = sum(len(pkg.complexes) for pkg in packages.values())
    assert count == 5 * len(packages)
    assert f"all {count} complexes" in V.check_composites_vanish(ctx).detail


def test_square_zero_criterion_fails_on_a_nonzero_composite(monkeypatch):
    """Every incidence read as 1 gives the dome's N side d2 = d1 = (1), so its
    package raises BoundarySquareNonzero when built, which fails criterion 4."""
    monkeypatch.setattr(catalog, "names", lambda: ["tilted_dome"])
    monkeypatch.setattr(flow.IncidenceCount, "flavor", lambda self, coefficients: 1)
    result = V.check_composites_vanish(V.VerificationContext(seed=0))
    assert not result.passed
    assert result.detail.startswith("BoundarySquareNonzero: ")


def test_criterion_05_morse_inequalities(ctx):
    _run(V.check_morse_inequalities, ctx)


def test_criterion_06_forced_orbit_counts(ctx):
    _run(V.check_forced_orbit_counts, ctx)


def test_criterion_07_pairing(ctx):
    _run(V.check_pairing, ctx)


def test_criterion_08_double_identities(ctx):
    _run(V.check_double_identities, ctx)


def test_criterion_09_invariance(ctx):
    _run(V.check_invariance, ctx)


def test_criterion_10_numerics(ctx):
    _run(V.check_numerics, ctx)


def test_criterion_10_fails_on_a_nan_gradient_error(monkeypatch):
    """A NaN gradient fails the gradient's check when the entry is
    constructed, so criterion 10 fails with the construction's NotMorse."""
    make = catalog._BUILDERS["interval"]

    def broken():
        entry = make()
        return dataclasses.replace(entry, field=dataclasses.replace(
            entry.field, gradient=lambda x: np.full(np.shape(x), np.nan)))

    monkeypatch.setitem(catalog._BUILDERS, "interval", broken)
    monkeypatch.setattr(catalog, "_CACHE", {})
    monkeypatch.setattr(catalog, "names", lambda: ["interval"])
    result = V.check_numerics(V.VerificationContext(seed=0))
    assert not result.passed
    assert result.detail == "NotMorse: gradient disagrees with finite differences (nan)"


@pytest.mark.parametrize("margin", [-1e-7, math.nan])
def test_criterion_10_fails_on_a_thin_descent_margin(packages, margin):
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    assert V.check_numerics(ctx).passed
    # a copy of the disk's descent field, so the shared package keeps its own
    field = copy.copy(packages["disk"].field_pos)
    field.certificate = dataclasses.replace(field.certificate, descent_margin=margin)
    ctx._packages["disk"] = dataclasses.replace(packages["disk"], field_pos=field)
    result = V.check_numerics(ctx)
    assert not result.passed
    assert result.detail.startswith(f"disk/descent: {{'descent_margin': {margin}, ")


def test_criterion_10_reads_no_catalog_function(packages, monkeypatch):
    """Criterion 10 judges the built packages only: with every package
    built, it passes with no catalog entry to read."""
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)

    def unreadable(name):
        raise AssertionError(f"catalog.get({name!r})")

    monkeypatch.setattr(catalog, "get", unreadable)
    result = V.check_numerics(ctx)
    assert result.passed, result.detail
    assert result.detail == "certificate margins all pass"


def test_criterion_06_fails_on_a_missing_forced_generator(packages):
    """An annulus without its N point of grading 1, as a run at a huge
    `dedup_dist` finds it, fails criterion 6 and names the incidence; the
    other two entries are judged as before."""
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    pkg = packages["annulus"]
    points = tuple(cp for cp in pkg.crit.points if (cp.kind, cp.grading) != (BOUNDARY_N, 1))
    assert len(points) == len(pkg.crit.points) - 1
    ctx._packages["annulus"] = dataclasses.replace(pkg, crit=CriticalSet(pkg.crit.dim, points))
    result = V.check_forced_orbit_counts(ctx)
    assert not result.passed
    assert result.detail == (
        "annulus: no N incidence from boundary_n grading 1 to boundary_n grading 0; "
        "moebius m=0, twisted=2; dome |m|=1")


def test_verify_reports_a_missing_forced_generator(capsys):
    """At 3 boundary samples the annulus's critical set has no N point of
    grading 1: `verify` fails criterion 6 with exit 2, with no traceback."""
    assert cli.main(["verify", "--tol", "cert_boundary_samples=3"]) == 2
    out, err = capsys.readouterr()
    line = next(s for s in out.splitlines() if s.startswith("[FAIL]  6 "))
    assert "annulus: no N incidence from boundary_n grading 1" in line
    assert "Traceback" not in out + err


def test_seed_independence_spot_check():
    pkg = build_package(catalog.get("annulus"), seed=7)
    assert pkg.passed
    assert pkg.homology["N_untwisted"].betti == (1, 1, 0)


def _keep_top(pkg):
    """The package with its critical set cut to its highest point.  Its
    ledger stays: the rows read the homology and the pairing, not the
    critical set."""
    top = max(pkg.crit.points, key=lambda cp: cp.value)
    return dataclasses.replace(pkg, crit=CriticalSet(pkg.crit.dim, (top,)))


# Criteria 5 and 8 read no ledger row: they judge the critical counts behind
# the N-side and the doubled staircase quotients.
_QUOTIENTS = {"morse_quotient_n": "q_n", "double_manifold": "double"}


@pytest.mark.parametrize("check, entry, row", [
    (V.check_absolute_homology, "disk", "homology:N_untwisted="),
    (V.check_twisted_moebius, "moebius", "homology:N_orientation="),
    (V.check_twisted_moebius, "annulus", "homology:D_orientation="),
    (V.check_relative_cohomology, "annulus", "homology:D_untwisted="),
    (V.check_morse_inequalities, "interval", "morse_quotient_n"),
    (V.check_pairing, "annulus", "pairing_unimodular:deg1"),
    (V.check_pairing, "moebius", "pairing_unimodular:deg1"),
    (V.check_double_identities, "disk", "double_manifold"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_criterion_fails_with_its_ledger_row(packages, check, entry, row):
    """Each criterion judges the package it is handed, not a copy of its
    checks: it fails with a failed ledger row or, for criteria 5 and 8, with
    critical counts whose staircase quotient fails."""
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    pkg = packages[entry]
    assert check(ctx).passed
    if row in _QUOTIENTS:
        broken = _keep_top(pkg)
        assert not V._holds(V.staircase_quotients(broken)[_QUOTIENTS[row]])
    else:
        flipped = [dataclasses.replace(c, passed=False) if c.name.startswith(row) else c
                   for c in pkg.checks]
        assert flipped != pkg.checks
        broken = dataclasses.replace(pkg, checks=flipped)
    ctx._packages[entry] = broken
    assert not check(ctx).passed


@pytest.mark.parametrize("entry", catalog.names())
def test_every_ledger_row_is_read(packages, entry):
    """No ledger row goes unread: flipping any row of an entry's ledger
    fails a criterion that passes on the unflipped package."""
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    pkg = packages[entry]
    assert pkg.checks
    for i, row in enumerate(pkg.checks):
        flipped = list(pkg.checks)
        flipped[i] = dataclasses.replace(row, passed=False)
        ctx._packages[entry] = dataclasses.replace(pkg, checks=flipped)
        failing = next((c for c in V.ALL_CHECKS if not c(ctx).passed), None)
        assert failing is not None, f"no criterion reads {row.name}"
        ctx._packages[entry] = pkg
        assert failing(ctx).passed, row.name


def test_pairing_criterion_fails_without_the_annulus_row(packages):
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    pkg = packages["annulus"]
    ctx._packages["annulus"] = dataclasses.replace(pkg, checks=[
        c for c in pkg.checks if not c.name.startswith("pairing_unimodular:")])
    result = V.check_pairing(ctx)
    assert not result.passed
    assert "annulus deg1 missing from the ledger" in result.detail


def test_staircase_criteria_fail_on_counts_with_the_right_chi(packages):
    """Criteria 5 and 8 judge the critical counts against the reference
    groups: the dome's maximum alone has the dome's χ = 1, yet
    M - P = T^2 - 1 = (1 + T)(T - 1) on the N side and, from the doubled
    counts (0, 0, 2) against (1, 0, 1), on the doubled manifold."""
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    pkg = packages["tilted_dome"]
    top = max(pkg.crit.points, key=lambda cp: cp.value)
    assert (top.kind, top.grading) == (INTERIOR, 2)
    assert V.check_morse_inequalities(ctx).passed
    assert V.check_double_identities(ctx).passed
    ctx._packages["tilted_dome"] = broken = _keep_top(pkg)
    counts = broken.crit.counts()
    assert sum((-1) ** k * (c + n) for k, (c, n, _) in enumerate(counts)) == pkg.entry.chi
    quotients = V.staircase_quotients(broken)
    assert quotients["q_n"] == (-1, 1)
    assert quotients["double"] == (-1, 1)
    assert not V.check_morse_inequalities(ctx).passed
    assert not V.check_double_identities(ctx).passed


def test_invariance_reuses_each_package_critical_set(packages, monkeypatch):
    monkeypatch.setattr(catalog, "names", lambda: ["interval"])
    ctx = V.VerificationContext(seed=0)
    ctx._packages = {"interval": packages["interval"]}
    calls = []
    search = pipeline.find_critical_set

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(pipeline, "find_critical_set", counting)
    result = V.check_invariance(ctx, seeds=(1,))
    assert result.passed, result.detail
    assert calls == []


def test_invariance_compares_each_seed_with_the_package(packages, monkeypatch):
    """With one seed besides the package's, criterion 9 still compares two:
    groups at seed 1 that differ from the package's fail it."""
    monkeypatch.setattr(catalog, "names", lambda: ["interval"])
    ctx = V.VerificationContext(seed=0)
    ctx._packages = {"interval": packages["interval"]}
    real = V.homologies_for_seed

    def shifted(entry, seed, *args):
        out = real(entry, seed, *args)
        plain = out["N_untwisted"]
        out["N_untwisted"] = dataclasses.replace(
            plain, betti=(plain.betti[0] + 1,) + plain.betti[1:])
        return out

    monkeypatch.setattr(V, "homologies_for_seed", shifted)
    result = V.check_invariance(ctx, seeds=(1,))
    assert not result.passed
    assert "InvarianceFailure" in result.detail and "N_untwisted" in result.detail


def test_invariance_builds_no_seed_twice(monkeypatch):
    """The package's seed is judged from the package, so `verify --seed 1`
    builds seed 1's fields once, and seeds 2 and 3 once each."""
    monkeypatch.setattr(catalog, "names", lambda: ["interval"])
    ctx = V.VerificationContext(seed=1)
    calls = []
    real = V.homologies_for_seed

    def counting(entry, seed, *args):
        calls.append(seed)
        return real(entry, seed, *args)

    monkeypatch.setattr(V, "homologies_for_seed", counting)
    result = V.check_invariance(ctx)
    assert result.passed, result.detail
    assert calls == [2, 3]
    assert "seeds (1, 2, 3) agree" in result.detail


def test_a_failed_build_runs_once(monkeypatch, capsys):
    """At max_steps=1 the annulus's build times out.  Every criterion that
    asks for it fails with that error, which one build raised, and the lines
    are those of a context that builds the package again at every use."""
    tol = DEFAULT.override(max_steps=1)
    builds = []
    build = V.build_package

    def counted(entry, *args):
        builds.append(entry.name)
        return build(entry, *args)

    monkeypatch.setattr(V, "build_package", counted)
    lines = [rec.line() for rec in V.run_acceptance(0, tol)]
    assert "annulus" in builds and len(builds) == len(set(builds))
    assert all("FlowTimeout" in line for line in lines)

    class Rebuilding(V.VerificationContext):
        def package(self, name):
            return build(catalog.get(name), self.seed, self.tol)

    assert [fn(Rebuilding(0, tol)).line() for fn in V.ALL_CHECKS] == lines
    builds.clear()
    assert cli.main(["verify", "--tol", "max_steps=1"]) == 2
    assert capsys.readouterr().out.splitlines() == [*lines, "0/10 criteria passed"]
    assert len(builds) == len(set(builds))
