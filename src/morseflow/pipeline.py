"""Full construction: complexes in every flavor, homology against references,
duality pairing matrices, and the empirical seed-invariance check.

Each analysis sets up once (`_setup`), and nothing below draws what it is not
handed.  The set-up traces the boundary (`critical.boundary_sample`); the
critical search scans that trace, and the certification sample extends it
with interior points, with the function's gradient at each.  It measures the
sample once (`CertificationSample.measured`) and derives the two sides: N
descends f on its critical set, D descends -f on the set reclassified for
-f.  Every field the analysis builds (both sides, every retry seed, the
pairing's retry) is certified on that one measured sample; the package keeps
the sample without its geometry.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import CatalogEntry
from .chains import HomologyResult, IntegerChainComplex, int_det
from .critical import (BOUNDARY_N, INTERIOR, CriticalSet, boundary_sample,
                       find_critical_set, reclassify_negated)
from .errors import InvarianceFailure, NonTransverse
from .fields import MorseField
from .flow import IncidenceCount, count_connecting_orbits, intersection_pairing
from .params import DEFAULT, Tolerances
from .pseudogradient import (CertificationSample, PseudoGradientField, build_adapted,
                             certification_sample)

SIDES = ("N", "D")
FLAVORS = ("untwisted", "orientation")

COMPLEX_TARGETS = {
    ("N", "untwisted"): "H_*(M;Z)",
    ("N", "orientation"): "H_*(M;Z^or)",
    ("D", "untwisted"): "H^*(M,dM;Z^or)",
    ("D", "orientation"): "H^*(M,dM;Z)",
}


def complex_key(side: str, flavor: str) -> str:
    return f"{side}_{flavor}"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass(frozen=True, eq=False)
class PairingReport:
    degree: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...] | None
    reason: str = ""

    def determinant(self) -> int | None:
        if self.matrix is None or not self.rows or len(self.rows) != len(self.cols):
            return None
        return int_det(self.matrix)

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "rows": list(self.rows),
            "cols": list(self.cols),
            "matrix": None if self.matrix is None else [list(r) for r in self.matrix],
            "reason": self.reason,
        }


@dataclass(eq=False)
class MorsePackage:
    entry: CatalogEntry
    seed: int
    crit: CriticalSet
    field_pos: PseudoGradientField
    field_neg: PseudoGradientField
    incidences: dict[str, dict[tuple[int, int], IncidenceCount]]
    complexes: dict[str, IntegerChainComplex]
    homology: dict[str, HomologyResult]
    pairing: dict[int, PairingReport]
    pairing_seed: int | None
    checks: list[CheckRecord]
    sample: CertificationSample

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True, eq=False)
class _Setup:
    """What every field of one analysis shares: the critical set, the
    certification sample as drawn and measured, and each side's objective
    and critical set, keyed by side."""

    entry: CatalogEntry
    tol: Tolerances
    crit: CriticalSet
    sample: CertificationSample
    measured: CertificationSample
    sides: dict[str, tuple[MorseField, CriticalSet]]

    def build(self, side: str, seed: int | None) -> PseudoGradientField:
        """The certified field of one side at one perturbation seed."""
        objective, crit = self.sides[side]
        return build_adapted(objective, self.entry.chart, crit, self.entry.metric,
                             sample=self.measured, perturb_seed=seed, tol=self.tol)


def _setup(entry: CatalogEntry, tol: Tolerances, crit: CriticalSet | None = None,
           sample: CertificationSample | None = None) -> _Setup:
    """The set-up of one analysis of the entry.  `crit` and `sample`, when
    given, are `entry.field`'s critical set and certification sample, as a
    package holds them; what is not given is drawn here."""
    f, chart, metric = entry.field, entry.chart, entry.metric
    wall = sample if sample is not None else boundary_sample(f, chart, metric, tol)
    if crit is None:
        crit = find_critical_set(f, chart, metric, tol, wall=wall)
    if sample is None:
        sample = certification_sample(f, chart, metric, crit, tol, wall)
    return _Setup(entry, tol, crit, sample, sample.measured(chart, metric),
                  {"N": (f, crit), "D": (f.negated(), reclassify_negated(crit, f, chart))})


def _retry_seeds(base_seed: int, tol: Tolerances) -> list[int | None]:
    first = None if base_seed == 0 else base_seed
    return [first] + [7919 * (base_seed + 1) + i for i in range(1, tol.perturb_retries + 1)]


def build_incidences(field: PseudoGradientField) -> dict[tuple[int, int], IncidenceCount]:
    """Connecting-orbit counts between the field's zeros at grading gap one."""
    zeros = [cp for cp in field.crit.points if cp.kind in (INTERIOR, BOUNDARY_N)]
    table: dict[tuple[int, int], IncidenceCount] = {}
    for p in zeros:
        for q in zeros:
            if p.grading == q.grading + 1:
                table[(p.id, q.id)] = count_connecting_orbits(field, p, q)
    return table


def _first_transverse(attempt, base_seed: int, tol: Tolerances):
    """(attempt(seed), seed) for the first retry seed at which attempt raises
    no NonTransverse; the last NonTransverse when every seed does."""
    last: Exception | None = None
    for seed in _retry_seeds(base_seed, tol):
        try:
            return attempt(seed), seed
        except NonTransverse as exc:
            # keep the error without its traceback, whose frames would hold
            # this analysis in a reference cycle until the cyclic collector runs
            last = exc.with_traceback(None)
    raise last  # type: ignore[misc]


def _build_side(setup: _Setup, side: str, base_seed: int):
    """Field plus incidence table, retrying with perturbation seeds as needed."""
    def attempt(seed):
        field = setup.build(side, seed)
        return field, build_incidences(field)
    return _first_transverse(attempt, base_seed, setup.tol)[0]


def assemble_complex(crit: CriticalSet, side: str, flavor: str,
                     incidences: dict[tuple[int, int], IncidenceCount],
                     ) -> IntegerChainComplex:
    """Incidence matrices over the generator partition of one side.

    The N side is a chain complex in the plain grading; the D side keeps the
    same grading, so its differential raises degree by one.
    """
    gens = crit.generators(side)
    ids = tuple(tuple(p.id for p in lst) for lst in gens)
    n = crit.dim
    step = -1 if side == "N" else 1
    matrices = {}
    for k in range(n + 1):
        tgt = k + step
        if not (0 <= tgt <= n):
            continue
        rows = gens[k]
        cols = gens[tgt]
        mat = [[0] * len(cols) for _ in rows]
        for i, p in enumerate(rows):
            for j, q in enumerate(cols):
                inc = incidences.get((p.id, q.id))
                if inc is not None:
                    mat[i][j] = inc.flavor(flavor)
        matrices[k] = mat
    return IntegerChainComplex(n, step, ids, matrices)


def _complexes(crit: CriticalSet, tables: dict[str, dict[tuple[int, int], IncidenceCount]],
               ) -> dict[str, IntegerChainComplex]:
    """Both sides' complexes in both flavours, keyed by `complex_key`."""
    return {complex_key(side, flavor): assemble_complex(crit, side, flavor, tables[side])
            for side in SIDES for flavor in FLAVORS}


def _pairing_matrices(setup: _Setup, field_pos: PseudoGradientField,
                      field_neg: PseudoGradientField, base_seed: int,
                      ) -> tuple[dict[int, PairingReport], int | None]:
    """Pairing matrices, reusing the certified ascent field for its own seed;
    a retry builds the D side at its seed."""
    crit = setup.crit
    n = crit.dim
    gens_d = crit.generators("D")
    gens_n = crit.generators("N")
    out: dict[int, PairingReport] = {}
    used_seed: int | None = None
    for k in range(n + 1):
        rows = tuple(p.id for p in gens_d[k])
        cols = tuple(p.id for p in gens_n[n - k])
        if 2 * (n - k) != n:
            out[k] = PairingReport(k, rows, cols, None,
                                   reason="complementary-dimension precondition fails")
            continue
        if not rows or not cols:
            out[k] = PairingReport(k, rows, cols, tuple(() for _ in rows))
            continue

        def attempt(seed):
            ascent = (field_neg if seed == field_neg.perturb_seed
                      else setup.build("D", seed))
            return tuple(tuple(intersection_pairing(ascent, field_pos,
                                                    crit.by_id(pid), crit.by_id(qid))
                               for qid in cols)
                         for pid in rows)
        matrix, used_seed = _first_transverse(attempt, base_seed, setup.tol)
        out[k] = PairingReport(k, rows, cols, matrix)
    return out, used_seed


def build_package(entry: CatalogEntry, seed: int = 0,
                  tol: Tolerances = DEFAULT) -> MorsePackage:
    """Run the whole construction for one catalog entry."""
    setup = _setup(entry, tol)
    field_pos, inc_pos = _build_side(setup, "N", seed)
    field_neg, inc_neg = _build_side(setup, "D", seed)

    complexes = _complexes(setup.crit, {"N": inc_pos, "D": inc_neg})
    # reported but not judged: transposing keeps every rank and invariant
    # factor, so its groups stand or fall with the D_untwisted row
    complexes["D_dual"] = complexes[complex_key("D", "untwisted")].transpose_dual()
    homology = {key: cx.homology() for key, cx in complexes.items()}

    pairing, pairing_seed = _pairing_matrices(setup, field_pos, field_neg, seed)

    checks = _collect_checks(entry, homology, pairing)
    return MorsePackage(
        entry=entry, seed=seed, crit=setup.crit, field_pos=field_pos,
        field_neg=field_neg, incidences={"N": inc_pos, "D": inc_neg},
        complexes=complexes, homology=homology, pairing=pairing,
        pairing_seed=pairing_seed, checks=checks, sample=setup.sample,
    )


def _collect_checks(entry, homology, pairing) -> list[CheckRecord]:
    refs = entry.references()
    checks = []
    for (side, flavor), target in COMPLEX_TARGETS.items():
        name = complex_key(side, flavor)
        got = homology[name]
        ref = refs[target]
        checks.append(CheckRecord(f"homology:{name}={target}", got == ref,
                                  f"got {got.as_dict()}, want {ref.as_dict()}"))
    ref_rel, ref_abs = refs["H^*(M,dM;Z^or)"], refs["H_*(M;Z)"]
    n = entry.chart.dim
    for k, rep in pairing.items():
        det = rep.determinant()
        if det is None:
            continue
        both_z = (ref_rel.betti[k] == 1 and not ref_rel.torsion[k]
                  and ref_abs.betti[n - k] == 1 and not ref_abs.torsion[n - k]
                  and len(rep.rows) == 1)
        if both_z:
            checks.append(CheckRecord(
                f"pairing_unimodular:deg{k}", abs(det) == 1,
                f"matrix {rep.matrix}"))
    return checks


# ---------------------------------------------------------------------------
# seed invariance


def homologies_for_seed(entry: CatalogEntry, seed: int,
                        tol: Tolerances = DEFAULT,
                        crit: CriticalSet | None = None,
                        sample: CertificationSample | None = None,
                        ) -> dict[str, HomologyResult]:
    """Every complex's homology at one perturbation seed.  `crit` and
    `sample`, when given, are the package's (see `_setup`)."""
    setup = _setup(entry, tol, crit, sample)
    tables = {side: _build_side(setup, side, seed)[1] for side in SIDES}
    return {key: cx.homology() for key, cx in _complexes(setup.crit, tables).items()}


def assert_identical_homology(per_seed: dict[int, dict[str, HomologyResult]]) -> None:
    seeds = sorted(per_seed)
    base = per_seed[seeds[0]]
    for s in seeds[1:]:
        for key, res in per_seed[s].items():
            if res != base[key]:
                raise InvarianceFailure(
                    f"seed {s} gives {res.as_dict()} for {key}, "
                    f"seed {seeds[0]} gave {base[key].as_dict()}")

