"""Acceptance checks over the whole catalog, shared by the CLI and the tests.

Each criterion returns a CheckRecord; `run_acceptance` executes all of them
with one shared set of per-entry builds.  Most judge the packages' ledgers,
which compare every flavour with the reference groups the catalog derives from
each entry's dimension, χ and orientability.  Criteria 5 and 8 hold the
critical counts against those groups directly: the staircase (strong Morse)
inequalities on each side and on the doubled manifold.  Criterion 10 checks
the certificate margins.  Each criterion judges what a run can get wrong: the
catalog functions' and walls' derivatives are checked when each entry is
constructed (`fields.validate_field`), before any package is built, so a wrong
one fails every criterion, and the Smith form, which reads no input, is held
to an oracle by the tests.
"""
from __future__ import annotations

import functools

from . import catalog
from .chains import staircase_quotient
from .critical import BOUNDARY_N, INTERIOR
from .errors import MorseflowError
from .params import DEFAULT, Tolerances
from .pipeline import (COMPLEX_TARGETS, CheckRecord, MorsePackage,
                       assert_identical_homology, build_package, complex_key,
                       homologies_for_seed)


def _criterion(number: int, title: str):
    """Make a check returning (passed, detail) into acceptance criterion
    `number`, whose record is named after it; a MorseflowError fails it."""
    name = f"{number:2d} {title}"

    def wrap(check):
        @functools.wraps(check)
        def run(ctx: VerificationContext, *args, **kwargs) -> CheckRecord:
            try:
                passed, detail = check(ctx, *args, **kwargs)
            except MorseflowError as exc:
                return CheckRecord(name, False, f"{type(exc).__name__}: {exc}")
            return CheckRecord(name, passed, detail)
        return run
    return wrap


class VerificationContext:
    """Caches the expensive per-entry builds across criteria."""

    def __init__(self, seed: int = 0, tol: Tolerances = DEFAULT):
        self.seed = seed
        self.tol = tol
        self._packages: dict[str, MorsePackage | MorseflowError] = {}

    def package(self, name: str) -> MorsePackage:
        """The entry's package, built on first use.  A build that raised a
        MorseflowError is not run again: every use raises that error."""
        if name not in self._packages:
            try:
                self._packages[name] = build_package(catalog.get(name), self.seed, self.tol)
            except MorseflowError as exc:
                # kept without its traceback, whose frames would hold the
                # failed analysis for as long as the context lives
                self._packages[name] = exc.with_traceback(None)
        found = self._packages[name]
        if isinstance(found, MorseflowError):
            raise found.with_traceback(None)
        return found


def _row(pkg: MorsePackage, prefix: str) -> CheckRecord:
    """The package's ledger row whose name starts with prefix; a failed row
    when the ledger has none."""
    for rec in pkg.checks:
        if rec.name.startswith(prefix):
            return rec
    return CheckRecord(prefix, False, "missing from the ledger")


def _failed_rows(ctx: VerificationContext, *prefixes: str) -> list[str]:
    """One line per catalog entry with a failed or missing row among prefixes."""
    bad = []
    for name in catalog.names():
        rows = [_row(ctx.package(name), prefix) for prefix in prefixes]
        if not all(r.passed for r in rows):
            bad.append(f"{name}: " + ", ".join(r.detail for r in rows))
    return bad


@_criterion(1, "absolute homology from the plain complex")
def check_absolute_homology(ctx: VerificationContext):
    bad = _failed_rows(ctx, "homology:N_untwisted=")
    return not bad, "; ".join(bad) or "all entries exact"


@_criterion(2, "homology with orientation coefficients")
def check_twisted_moebius(ctx: VerificationContext):
    bad = _failed_rows(ctx, "homology:N_orientation=", "homology:D_orientation=")
    h = ctx.package("moebius").homology  # where the twist leaves Z/2
    return not bad, "; ".join(bad) or (
        f"all entries exact; moebius twisted {h['N_orientation'].as_dict()}, "
        f"relative {h['D_orientation'].as_dict()}")


@_criterion(3, "relative cohomology from the degree-raising complex")
def check_relative_cohomology(ctx: VerificationContext):
    bad = _failed_rows(ctx, "homology:D_untwisted=")
    return not bad, "; ".join(bad) or "all entries exact"


@_criterion(4, "composite differential vanishes")
def check_composites_vanish(ctx: VerificationContext):
    """Every complex checks d∘d = 0 when it is built and raises
    BoundarySquareNonzero otherwise, which fails this criterion; so it
    passes once every package is built."""
    count = sum(len(ctx.package(name).complexes) for name in catalog.names())
    return True, f"d^2 = 0 in all {count} complexes, checked as each was built"


def staircase_quotients(pkg: MorsePackage) -> dict[str, tuple[int, ...] | None]:
    """`staircase_quotient` of the package's critical counts (c interior, n
    and d boundary points per grading) against the entry's reference groups:
    c+n against H_*(M;Z) ("q_n"), c+d against H^*(M,dM;Z^or) ("q_d"), and
    the doubled manifold's 2c+n+d against H_*(M;Z) + H^*(M,dM;Z) ("double")."""
    refs = pkg.entry.references()
    counts = pkg.crit.counts()
    p_abs = refs["H_*(M;Z)"].betti
    p_double = [a + r for a, r in zip(p_abs, refs["H^*(M,dM;Z)"].betti)]
    return {
        "q_n": staircase_quotient([c + n for c, n, _ in counts], p_abs),
        "q_d": staircase_quotient([c + d for c, _, d in counts],
                                  refs["H^*(M,dM;Z^or)"].betti),
        "double": staircase_quotient([2 * c + n + d for c, n, d in counts], p_double),
    }


def _holds(quotient: tuple[int, ...] | None) -> bool:
    """The staircase inequalities: an exact quotient with no negative term."""
    return quotient is not None and all(c >= 0 for c in quotient)


@_criterion(5, "staircase inequalities with non-negative quotients")
def check_morse_inequalities(ctx: VerificationContext):
    quotients = {name: staircase_quotients(ctx.package(name))
                 for name in catalog.names()}
    bad = [f"{name}: q_n = {qs['q_n']}, q_d = {qs['q_d']}"
           for name, qs in quotients.items()
           if not (_holds(qs["q_n"]) and _holds(qs["q_d"]))]
    dome_q = quotients["tilted_dome"]["q_n"]
    if dome_q != (0, 1):
        bad.append(f"tilted_dome q_n = {dome_q} != T")
    return not bad, "; ".join(bad) or "quotients exact, dome q_n = T"


# each entry's forced N-side incidence, from its first critical point of
# (kind, grading) source to its first of target, and the judge returning
# (passed, detail) for it
_FORCED = (
    ("annulus", (BOUNDARY_N, 1), (BOUNDARY_N, 0),
     lambda inc: (inc.count == 0 and len(inc.orbits) == 2
                  and sorted(o.sign for o in inc.orbits) == [-1, 1],
                  f"annulus m={inc.count} from {len(inc.orbits)} orbits")),
    ("moebius", (INTERIOR, 1), (BOUNDARY_N, 0),
     lambda inc: (inc.count == 0 and abs(inc.count_twisted) == 2 and len(inc.orbits) == 2,
                  f"moebius m={inc.count}, twisted={inc.count_twisted}")),
    ("tilted_dome", (INTERIOR, 2), (BOUNDARY_N, 1),
     lambda inc: (abs(inc.count) == 1, f"dome |m|={abs(inc.count)}")),
)


@_criterion(6, "forced orbit multiplicities and signs")
def check_forced_orbit_counts(ctx: VerificationContext):
    """A critical set without a forced incidence's source or target fails
    the criterion, which names the incidence."""
    msgs, ok = [], True
    for name, source, target, judge in _FORCED:
        pkg = ctx.package(name)
        ids = tuple(next((cp.id for cp in pkg.crit.points if (cp.kind, cp.grading) == want),
                         None) for want in (source, target))
        inc = pkg.incidences["N"].get(ids)
        good, msg = judge(inc) if inc is not None else (False, (
            f"{name}: no N incidence from {source[0]} grading {source[1]} "
            f"to {target[0]} grading {target[1]}"))
        ok &= good
        msgs.append(msg)
    return ok, "; ".join(msgs)


@_criterion(7, "duality pairing is unimodular")
def check_pairing(ctx: VerificationContext):
    """Every pairing_unimodular row of every entry; the annulus, whose
    degree-1 pairing is Z against Z, must have one."""
    read = [(name, row) for name in catalog.names() for row in ctx.package(name).checks
            if row.name.startswith("pairing_unimodular:")]
    if "annulus" not in dict(read):
        read.append(("annulus", _row(ctx.package("annulus"), "pairing_unimodular:deg1")))
    return (all(row.passed for _, row in read), "; ".join(
        f"{name} {row.name.split(':')[1]} {row.detail}" for name, row in read))


@_criterion(8, "doubled-manifold polynomial identities")
def check_double_identities(ctx: VerificationContext):
    """The doubled inequality is judged on orientable entries only; the
    doubled quotients of the disk and the annulus must vanish."""
    bad = []
    for name in catalog.names():
        pkg = ctx.package(name)
        q = staircase_quotients(pkg)["double"]
        if pkg.entry.orientable and not _holds(q):
            bad.append(f"{name}: doubled quotient {q}")
        elif name in ("disk", "annulus") and q != ():
            bad.append(f"{name}: doubled quotient {q} != 0")
    return not bad, "; ".join(bad) or "identities exact"


@_criterion(9, "homology invariant across perturbation seeds")
def check_invariance(ctx: VerificationContext, seeds=(1, 2, 3)):
    """Each seed's four judged groups against the package's own, at
    `ctx.seed`, which is not built again.  The critical set and the
    certification sample do not depend on the perturbation seed, so each
    seed reuses the package's."""
    for name in catalog.names():
        pkg = ctx.package(name)
        per_seed = {s: homologies_for_seed(pkg.entry, s, ctx.tol, pkg.crit, pkg.sample)
                    for s in seeds if s != ctx.seed}
        per_seed[ctx.seed] = {complex_key(*key): pkg.homology[complex_key(*key)]
                              for key in COMPLEX_TARGETS}
        assert_identical_homology(per_seed)
    agree = tuple(sorted({ctx.seed, *seeds}))
    return True, f"seeds {agree} agree on every entry and flavor"


# --- numerical hygiene -------------------------------------------------------


@_criterion(10, "numerical hygiene")
def check_numerics(ctx: VerificationContext):
    """The margins of every package's two certificates, with NaN failing."""
    bad = []
    for name in catalog.names():
        pkg = ctx.package(name)
        for label, fld in (("descent", pkg.field_pos), ("ascent", pkg.field_neg)):
            cert = fld.certificate
            if not (cert.descent_margin < -1e-6 and cert.inward_margin > 1e-6):
                bad.append(f"{name}/{label}: {cert.as_dict()}")
    return not bad, "; ".join(bad) or "certificate margins all pass"


ALL_CHECKS = (
    check_absolute_homology,
    check_twisted_moebius,
    check_relative_cohomology,
    check_composites_vanish,
    check_morse_inequalities,
    check_forced_orbit_counts,
    check_pairing,
    check_double_identities,
    check_invariance,
    check_numerics,
)


def run_acceptance(seed: int = 0, tol: Tolerances = DEFAULT) -> list[CheckRecord]:
    ctx = VerificationContext(seed, tol)
    return [fn(ctx) for fn in ALL_CHECKS]
