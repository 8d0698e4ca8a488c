"""One test per acceptance criterion; each prints its own pass/fail line."""
import dataclasses

import pytest

from morseflow import catalog, pipeline
from morseflow.critical import INTERIOR, CriticalSet
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
