"""One test per acceptance criterion; each prints its own pass/fail line."""
import dataclasses

import pytest

from morseflow import catalog, pipeline
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
    _run(V.check_square_zero, ctx)


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


@pytest.mark.parametrize("check, entry, row", [
    (V.check_absolute_homology, "disk", "homology:N_untwisted="),
    (V.check_twisted_moebius, "moebius", "homology:N_orientation="),
    (V.check_relative_cohomology, "annulus", "homology:D_untwisted="),
    (V.check_morse_inequalities, "interval", "morse_quotient_n"),
    (V.check_pairing, "annulus", "pairing_unimodular:deg1"),
    (V.check_double_identities, "disk", "double_manifold"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_criterion_fails_with_its_ledger_row(packages, check, entry, row):
    """Each criterion judges the package's ledger, not a copy of its checks."""
    ctx = V.VerificationContext(seed=0)
    ctx._packages = dict(packages)
    pkg = packages[entry]
    flipped = [dataclasses.replace(c, passed=False) if c.name.startswith(row) else c
               for c in pkg.checks]
    assert flipped != pkg.checks
    ctx._packages[entry] = dataclasses.replace(pkg, checks=flipped)
    assert not check(ctx).passed


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
