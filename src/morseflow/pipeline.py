"""Full construction: complexes in every flavor, homology against references,
duality pairing matrices, and the empirical seed-invariance check.

Each analysis walks each wall once, for the critical search and the
certification sample alike.  It draws one certification sample (interior
points and the traced wall, with the function's gradient at each) and
certifies every field it builds (both sides, every retry seed, the pairing's
retry) on it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import CatalogEntry
from .chains import HomologyResult, IntegerChainComplex, int_det
from .critical import (BOUNDARY_N, INTERIOR, CriticalSet, boundary_walks,
                       find_critical_set)
from .errors import InvarianceFailure, NonTransverse
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
DUAL_TARGET = "H_*(M,dM;Z^or)"


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


def _retry_seeds(base_seed: int, tol: Tolerances) -> list[int | None]:
    first = None if base_seed == 0 else base_seed
    return [first] + [7919 * (base_seed + 1) + i for i in range(1, tol.perturb_retries + 1)]


def build_incidences(field: PseudoGradientField,
                     tol: Tolerances) -> dict[tuple[int, int], IncidenceCount]:
    """Connecting-orbit counts between the field's zeros at grading gap one."""
    zeros = [cp for cp in field.crit.points if cp.kind in (INTERIOR, BOUNDARY_N)]
    table: dict[tuple[int, int], IncidenceCount] = {}
    for p in zeros:
        for q in zeros:
            if p.grading == q.grading + 1:
                table[(p.id, q.id)] = count_connecting_orbits(field, p, q, tol)
    return table


def _build_side(entry: CatalogEntry, crit: CriticalSet, for_negative: bool,
                base_seed: int, tol: Tolerances,
                sample: CertificationSample | None = None):
    """Field plus incidence table, retrying with perturbation seeds as needed."""
    last: Exception | None = None
    for seed in _retry_seeds(base_seed, tol):
        field = build_adapted(entry.field, entry.chart, crit, entry.metric,
                              for_negative=for_negative, perturb_seed=seed, tol=tol,
                              sample=sample)
        try:
            return field, build_incidences(field, tol)
        except NonTransverse as exc:
            # keep the error without its traceback, whose frames would hold
            # this analysis in a reference cycle until the cyclic collector runs
            last = exc.with_traceback(None)
    raise last  # type: ignore[misc]


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


def _pairing_matrices(entry: CatalogEntry, crit: CriticalSet,
                      field_pos: PseudoGradientField,
                      field_neg: PseudoGradientField, base_seed: int,
                      tol: Tolerances, sample: CertificationSample,
                      ) -> tuple[dict[int, PairingReport], int | None]:
    """Pairing matrices, reusing the certified ascent field for its own seed."""
    n = entry.chart.dim
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
        matrix = None
        last: Exception | None = None
        for seed in _retry_seeds(base_seed, tol):
            ascent = field_neg if seed == field_neg.perturb_seed else build_adapted(
                entry.field, entry.chart, crit, entry.metric,
                for_negative=True, perturb_seed=seed, tol=tol, sample=sample)
            try:
                matrix = tuple(
                    tuple(intersection_pairing(ascent, field_pos,
                                               crit.by_id(pid), crit.by_id(qid), tol)
                          for qid in cols)
                    for pid in rows)
                used_seed = seed
                break
            except NonTransverse as exc:
                last = exc.with_traceback(None)  # as in `_build_side`
        if matrix is None:
            raise last  # type: ignore[misc]
        out[k] = PairingReport(k, rows, cols, matrix)
    return out, used_seed


def build_package(entry: CatalogEntry, seed: int = 0,
                  tol: Tolerances = DEFAULT) -> MorsePackage:
    """Run the whole construction for one catalog entry."""
    walks = boundary_walks(entry.chart, tol)
    crit = find_critical_set(entry.field, entry.chart, entry.metric, tol, walks)
    sample = certification_sample(entry.field, entry.chart, entry.metric, crit, tol,
                                  walks)
    field_pos, inc_pos = _build_side(entry, crit, False, seed, tol, sample)
    field_neg, inc_neg = _build_side(entry, crit, True, seed, tol, sample)

    complexes = _complexes(crit, {"N": inc_pos, "D": inc_neg})
    complexes["D_dual"] = complexes[complex_key("D", "untwisted")].transpose_dual()
    homology = {key: cx.homology() for key, cx in complexes.items()}

    pairing, pairing_seed = _pairing_matrices(entry, crit, field_pos, field_neg,
                                              seed, tol, sample)

    checks = _collect_checks(entry, crit, field_pos, field_neg, homology, pairing)
    return MorsePackage(
        entry=entry, seed=seed, crit=crit, field_pos=field_pos,
        field_neg=field_neg, incidences={"N": inc_pos, "D": inc_neg},
        complexes=complexes, homology=homology, pairing=pairing,
        pairing_seed=pairing_seed, checks=checks, sample=sample,
    )


def _collect_checks(entry, crit, field_pos, field_neg, homology,
                    pairing) -> list[CheckRecord]:
    refs = entry.references()
    named_targets = [(complex_key(side, flavor), target)
                     for (side, flavor), target in COMPLEX_TARGETS.items()]
    named_targets.append(("D_dual", DUAL_TARGET))
    checks = []
    for name, target in named_targets:
        got = homology[name]
        ref = refs[target]
        ok = got.matches(ref.betti, ref.torsion)
        checks.append(CheckRecord(f"homology:{name}={target}", ok,
                                  f"got {got.as_dict()}, want {ref.as_dict()}"))
    for label, fld in (("descent", field_pos), ("ascent", field_neg)):
        cert = fld.certificate
        checks.append(CheckRecord(f"certificate:{label}", cert.passed,
                                  f"margins {cert.descent_margin:.3e}, "
                                  f"{cert.inward_margin:.3e}"))
    checks.append(CheckRecord(
        "euler_characteristic",
        crit.euler_characteristic() == entry.chi,
        f"counts give {crit.euler_characteristic()}, reference {entry.chi}"))
    checks.append(CheckRecord(
        "duality_symmetry",
        homology["D_untwisted"].betti == homology["N_untwisted"].betti[::-1],
        "rank-level coefficient reversal"))
    ref_rel, ref_abs = refs["H_*(M,dM;Z^or)"], refs["H_*(M;Z)"]
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
    """Every complex's homology at one perturbation seed.  `sample`, when
    given, is `certification_sample` for `entry.field` and `crit`, as a
    package holds both."""
    walks = None if sample is not None else boundary_walks(entry.chart, tol)
    if crit is None:
        crit = find_critical_set(entry.field, entry.chart, entry.metric, tol, walks)
    if sample is None:
        sample = certification_sample(entry.field, entry.chart, entry.metric, crit, tol,
                                      walks)
    tables = {side: _build_side(entry, crit, side == "D", seed, tol, sample)[1]
              for side in SIDES}
    return {key: cx.homology() for key, cx in _complexes(crit, tables).items()}


def assert_identical_homology(per_seed: dict[int, dict[str, HomologyResult]]) -> None:
    seeds = sorted(per_seed)
    base = per_seed[seeds[0]]
    for s in seeds[1:]:
        for key, res in per_seed[s].items():
            if not res.matches(base[key].betti, base[key].torsion):
                raise InvarianceFailure(
                    f"seed {s} gives {res.as_dict()} for {key}, "
                    f"seed {seeds[0]} gave {base[key].as_dict()}")

