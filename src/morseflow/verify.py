"""Acceptance checks over the whole catalog, shared by the CLI and the tests.

Each criterion returns a CheckRecord; `run_acceptance` executes all of them
with one shared set of per-entry builds.  Most judge the packages' ledgers,
which compare every flavour with the reference groups the catalog derives from
each entry's dimension, χ and orientability.  Criteria 5 and 8 hold the
critical counts against those groups directly: the staircase (strong Morse)
inequalities on each side and on the doubled manifold.  Criterion 10 checks
the certificate margins, the boundary restriction's derivatives against
arclength differences, and Smith forms against an oracle that takes minors up
to 3 x 3 by closed forms.  The catalog functions' own derivatives are checked
when each entry is constructed (`fields.validate_field`), before any package
is built, so a wrong one fails every criterion.
"""
from __future__ import annotations

import functools
import math
import random
from itertools import combinations, product

import numpy as np

from . import catalog
from .chains import int_det, smith_normal_form, staircase_quotient
from .critical import BOUNDARY_N, INTERIOR, _boundary_step
from .errors import MorseflowError
from .fields import boundary_restriction_derivatives
from .geometry import boundary_frame, normalize_point
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


def _find_id(pkg: MorsePackage, kind: str, grading: int) -> int:
    for cp in pkg.crit.points:
        if cp.kind == kind and cp.grading == grading:
            return cp.id
    raise KeyError((kind, grading))


@_criterion(6, "forced orbit multiplicities and signs")
def check_forced_orbit_counts(ctx: VerificationContext):
    msgs, ok = [], True
    pkg = ctx.package("annulus")
    inc = pkg.incidences["N"][(_find_id(pkg, BOUNDARY_N, 1),
                               _find_id(pkg, BOUNDARY_N, 0))]
    good = (inc.count == 0 and len(inc.orbits) == 2
            and sorted(o.sign for o in inc.orbits) == [-1, 1])
    ok &= good
    msgs.append(f"annulus m={inc.count} from {len(inc.orbits)} orbits")
    pkg = ctx.package("moebius")
    inc = pkg.incidences["N"][(_find_id(pkg, INTERIOR, 1),
                               _find_id(pkg, BOUNDARY_N, 0))]
    good = (inc.count == 0 and abs(inc.count_twisted) == 2
            and len(inc.orbits) == 2)
    ok &= good
    msgs.append(f"moebius m={inc.count}, twisted={inc.count_twisted}")
    pkg = ctx.package("tilted_dome")
    inc = pkg.incidences["N"][(_find_id(pkg, INTERIOR, 2),
                               _find_id(pkg, BOUNDARY_N, 1))]
    ok &= abs(inc.count) == 1
    msgs.append(f"dome |m|={abs(inc.count)}")
    return bool(ok), "; ".join(msgs)


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


def _minors(mat: list[list[int]], k: int):
    """The k x k minors of mat, row selections outer and column selections
    inner, each in lexicographic order: closed forms up to 3 x 3 (for k = 1
    the entries), `int_det` beyond."""
    rows, cols = range(len(mat)), range(len(mat[0]))
    if k == 1:
        return (v for row in mat for v in row)
    if k == 2:
        return (a[j0] * b[j1] - a[j1] * b[j0]
                for a, b in combinations(mat, 2)
                for j0, j1 in combinations(cols, 2))
    if k == 3:
        return (a[j0] * (b[j1] * c[j2] - b[j2] * c[j1])
                - a[j1] * (b[j0] * c[j2] - b[j2] * c[j0])
                + a[j2] * (b[j0] * c[j1] - b[j1] * c[j0])
                for a, b, c in combinations(mat, 3)
                for j0, j1, j2 in combinations(cols, 3))
    return (int_det([[mat[i][j] for j in csel] for i in rsel])
            for rsel, csel in product(combinations(rows, k), combinations(cols, k)))


def snf_oracle(mat: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors from determinant-divisor gcds (brute force).

    D_{k-1} divides every k x k minor, so the scan of degree k's minors stops
    once their gcd has come down to D_{k-1}: D_k can fall no further.
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    diag = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for minor in _minors(mat, k):
            g = math.gcd(g, minor)
            if g == prev:
                break
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag), len(diag)


def rational_rank(mat: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Every entry stays an integer: after pivot k an entry below the pivots is
    a (k+1) x (k+1) minor of the matrix, so each division by the previous
    pivot is exact, and a column with no pivot left stays zero below.
    """
    work = [list(row) for row in mat]
    rows, cols = len(work), len(work[0]) if mat else 0
    rank, prev = 0, 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, rows):
            factor = work[r][col]
            work[r] = [(lead * a - factor * b) // prev for a, b in zip(work[r], work[rank])]
        prev = lead
        rank += 1
        if rank == rows:
            break
    return rank


def fuzz_matrices(cases: int = 1000, seed: int = 20240501):
    """The SNF fuzz's matrices: 1 to 4 rows and columns, entries in [-5, 5]."""
    rng = random.Random(seed)
    for _ in range(cases):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        yield [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]


def snf_fuzz(cases: int = 1000, seed: int = 20240501) -> tuple[int, str]:
    for i, mat in enumerate(fuzz_matrices(cases, seed)):
        got_diag, got_rank = smith_normal_form(mat)
        want_diag, want_rank = snf_oracle(mat)
        want_diag = tuple(d for d in want_diag if d != 0)
        if got_rank != rational_rank(mat) or got_diag != want_diag:
            return i, f"case {i}: {mat} -> {got_diag} vs oracle {want_diag}"
    return cases, "all cases agree"


@_criterion(10, "numerical hygiene")
def check_numerics(ctx: VerificationContext):
    bad = []
    for name in catalog.names():
        pkg = ctx.package(name)
        for label, fld in (("descent", pkg.field_pos), ("ascent", pkg.field_neg)):
            cert = fld.certificate
            if cert.descent_margin >= -1e-6 or cert.inward_margin <= 1e-6:
                bad.append(f"{name}/{label}: {cert.as_dict()}")
        worst = _boundary_fd_error(catalog.get(name), pkg)
        if not worst <= 1e-4:  # NaN fails too
            bad.append(f"{name}: boundary fd error {worst:.2e}")
    count, msg = snf_fuzz()
    if count != 1000:
        bad.append(f"snf oracle: {msg}")
    return not bad, ("; ".join(bad) or
                     "certificates, derivative checks, and snf fuzz all pass")


def _boundary_fd_error(entry, pkg) -> float:
    """Arclength finite differences of the restriction at the boundary
    criticals and a fixed arclength either side of each, where the first
    difference also checks the sign of the step along the boundary.

    The steps are taken in chart arclength and g_t, h_t are per metric-unit
    arclength, so the differences are converted with the euclidean length of
    the metric-unit tangent, as the critical search's refinement does."""
    chart, field = entry.chart, entry.field
    if chart.dim != 2:
        return 0.0
    errors = [0.0]
    h = 1e-4
    for cp in pkg.crit.points:
        if cp.kind == INTERIOR:
            continue
        for x0 in (cp.coords, _boundary_step(chart, cp.coords, 0.1),
                   _boundary_step(chart, cp.coords, -0.1)):
            plus = _boundary_step(chart, x0, h) if x0 is not None else None
            minus = _boundary_step(chart, x0, -h) if x0 is not None else None
            if plus is None or minus is None:
                continue
            f0, fp, fm = (float(field.value(x)) for x in (x0, plus, minus))
            pt = normalize_point(chart, x0)
            t_len = float(np.linalg.norm(boundary_frame(chart, pt, entry.metric)[1]))
            g_t, h_t = boundary_restriction_derivatives(field, chart, pt, entry.metric)
            first = (fp - fm) / (2 * h) * t_len
            second = (fp - 2 * f0 + fm) / h ** 2 * t_len ** 2
            errors += [abs(first - g_t) / max(1.0, abs(g_t)),
                       abs(second - h_t) / max(1.0, abs(h_t))]
    return float(np.max(errors))  # NaN-propagating, unlike the builtin max


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
