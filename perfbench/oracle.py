"""Output oracle for the benchmark, written apart from the program.

Every check here uses textbook homology, exact-integer arithmetic of its own
(no call into ``morseflow.chains``) or a property any correct Morse complex
has.  Nothing is compared against a stored copy of the program's output.

``check_report`` takes one ``morseflow analyze --format json`` report, parsed,
and returns a list of problems; an empty list means the report passed.
"""
from __future__ import annotations

import hashlib
import math
from itertools import combinations

# Textbook groups, degree by degree: (betti, torsion coefficients).  The five
# flavours are keyed by the report's complex names:
#   N_untwisted   H_*(M; Z)
#   N_orientation H_*(M; Z^or)
#   D_untwisted   H^*(M, dM; Z^or)  = H_{n-*}(M; Z)    (Lefschetz duality)
#   D_orientation H^*(M, dM; Z)     = H_{n-*}(M; Z^or)
#   D_dual        H_*(M, dM; Z^or)  = H^{n-*}(M; Z)
_Z1 = ((1, 0), ((), ()))             # point-like 1-manifold: Z in degree 0
_Z1_TOP = ((0, 1), ((), ()))
_DISK = ((1, 0, 0), ((), (), ()))
_DISK_TOP = ((0, 0, 1), ((), (), ()))
_CIRCLE = ((1, 1, 0), ((), (), ()))
_CIRCLE_TOP = ((0, 1, 1), ((), (), ()))

TEXTBOOK = {
    "interval": {"N_untwisted": _Z1, "N_orientation": _Z1,
                 "D_untwisted": _Z1_TOP, "D_orientation": _Z1_TOP,
                 "D_dual": _Z1_TOP},
    "disk": {"N_untwisted": _DISK, "N_orientation": _DISK,
             "D_untwisted": _DISK_TOP, "D_orientation": _DISK_TOP,
             "D_dual": _DISK_TOP},
    "tilted_dome": {"N_untwisted": _DISK, "N_orientation": _DISK,
                    "D_untwisted": _DISK_TOP, "D_orientation": _DISK_TOP,
                    "D_dual": _DISK_TOP},
    "annulus": {"N_untwisted": _CIRCLE, "N_orientation": _CIRCLE,
                "D_untwisted": _CIRCLE_TOP, "D_orientation": _CIRCLE_TOP,
                "D_dual": _CIRCLE_TOP},
    # The band retracts onto its core circle; the orientation character is
    # non-trivial along the core, so H_0(M; Z^or) = Z/2 and H_1(M; Z^or) = 0.
    "moebius": {"N_untwisted": _CIRCLE,
                "N_orientation": ((0, 0, 0), ((2,), (), ())),
                "D_untwisted": _CIRCLE_TOP,
                "D_orientation": ((0, 0, 0), ((), (), (2,))),
                "D_dual": _CIRCLE_TOP},
}

EULER = {"interval": 1, "disk": 1, "tilted_dome": 1, "annulus": 0, "moebius": 0}
DIMENSION = {"interval": 1, "disk": 2, "tilted_dome": 2, "annulus": 2, "moebius": 2}


# ---------------------------------------------------------------------------
# exact integer linear algebra


def bareiss_det(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors(mat: list[list[int]]) -> list[int]:
    """Non-zero invariant factors from determinant divisors.

    d_k is the gcd of all k-by-k minors; the k-th invariant factor is
    d_k / d_{k-1}, and the rank is the largest k with d_k != 0.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                g = math.gcd(g, bareiss_det([[mat[i][j] for j in csel] for i in rsel]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def matmul(a: list[list[int]], b: list[list[int]], inner: int) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(len(a))]


# ---------------------------------------------------------------------------
# one complex


def _matrix(cx: dict, k: int) -> list[list[int]]:
    """Incidence matrix out of degree k, zero-filled to the generator shape."""
    gens = cx["generators"]
    tgt = k + cx["step"]
    rows = len(gens[k]) if 0 <= k < len(gens) else 0
    cols = len(gens[tgt]) if 0 <= tgt < len(gens) else 0
    mat = cx["matrices"].get(str(k))
    if mat is None or not rows or not cols:
        return [[0] * cols for _ in range(rows)]
    return [list(r) for r in mat]


def _shape_problem(cx: dict) -> str | None:
    gens = cx["generators"]
    for key, mat in cx["matrices"].items():
        k = int(key)
        tgt = k + cx["step"]
        if not (0 <= k < len(gens) and 0 <= tgt < len(gens)):
            return f"matrix out of degree {k} has no target degree"
        if len(mat) != len(gens[k]) or any(len(r) != len(gens[tgt]) for r in mat):
            return f"matrix out of degree {k} does not match the generators"
    return None


def complex_homology(cx: dict) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Betti numbers and torsion of a report complex, recomputed exactly."""
    gens = cx["generators"]
    betti, torsion = [], []
    for k in range(len(gens)):
        out_rank = len(invariant_factors(_matrix(cx, k)))
        incoming = invariant_factors(_matrix(cx, k - cx["step"]))
        betti.append(len(gens[k]) - out_rank - len(incoming))
        torsion.append(tuple(d for d in incoming if d > 1))
    return tuple(betti), tuple(torsion)


def _as_group(h: dict) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    return tuple(h["betti"]), tuple(tuple(t) for t in h["torsion"])


def check_report(report: dict) -> list[str]:
    """Every oracle check that one analyze report must pass."""
    name = report["manifold"]
    if name not in TEXTBOOK:
        return [f"unknown manifold {name!r}"]
    bad: list[str] = []
    n = DIMENSION[name]
    for key, want in TEXTBOOK[name].items():
        cx = report["complexes"].get(key)
        if cx is None:
            bad.append(f"{name}: complex {key} missing")
            continue
        shape = _shape_problem(cx)
        if shape:
            bad.append(f"{name}/{key}: {shape}")
            continue
        got = _as_group(report["homology"][key])
        if got != want:
            bad.append(f"{name}/{key}: reported {got}, textbook {want}")
        recomputed = complex_homology(cx)
        if recomputed != want:
            bad.append(f"{name}/{key}: matrices give {recomputed}, textbook {want}")
        gens = cx["generators"]
        for k in range(len(gens)):
            mid = k + cx["step"]
            if not 0 <= mid < len(gens):
                continue
            comp = matmul(_matrix(cx, k), _matrix(cx, mid), len(gens[mid]))
            if any(v for row in comp for v in row):
                bad.append(f"{name}/{key}: d.d != 0 out of degree {k}: {comp}")
        # N generators count H_*(M); D generators count the pair (M, dM),
        # whose Euler characteristic is (-1)^n chi(M).
        chi = sum((-1) ** k * len(g) for k, g in enumerate(gens))
        want_chi = EULER[name] * (1 if key.startswith("N") else (-1) ** n)
        if chi != want_chi:
            bad.append(f"{name}/{key}: generator Euler characteristic {chi}, want {want_chi}")
        for k, g in enumerate(gens):
            if len(g) < want[0][k]:
                bad.append(f"{name}/{key}: {len(g)} generators below betti "
                           f"{want[0][k]} in degree {k}")
    if name == "tilted_dome":
        top = report["complexes"]["N_untwisted"]["matrices"].get("2")
        if not top or len(top) != 1 or len(top[0]) != 1 or abs(top[0][0]) != 1:
            bad.append(f"tilted_dome: grading-2 -> grading-1 matrix {top}, want |m| = 1")
    if name == "annulus":
        rep = report["pairing"].get("1")
        mat = rep and rep["matrix"]
        if not mat or len(mat) != len(mat[0]) or abs(bareiss_det(mat)) != 1:
            bad.append(f"annulus: degree-1 pairing {mat} is not unimodular")
    return bad


def check_homology(name: str, homology: dict[str, dict]) -> list[str]:
    """Reported groups (``HomologyResult.as_dict`` per complex) against the textbook."""
    return [f"{name}/{key}: reported {_as_group(h)}, textbook {TEXTBOOK[name][key]}"
            for key, h in sorted(homology.items())
            if _as_group(h) != TEXTBOOK[name][key]]


def homology_key(report: dict) -> tuple:
    return tuple(sorted((k, _as_group(h)) for k, h in report["homology"].items()))


class PassLedger:
    """Cross-operation checks: seed agreement within a pass, and identical
    bytes from every run of one (entry, seed)."""

    def __init__(self):
        self._digests: dict[tuple[str, int], str] = {}

    def check_pass(self, outputs: list[tuple[tuple[str, int], str]],
                   reports: list[dict]) -> list[str]:
        """``outputs`` pairs each (entry, seed) with the text one run printed."""
        bad = []
        by_entry: dict[str, set] = {}
        for rep in reports:
            by_entry.setdefault(rep["manifold"], set()).add(homology_key(rep))
        for name, groups in by_entry.items():
            if len(groups) != 1:
                bad.append(f"{name}: homology differs between seeds of one pass")
        for key, text in outputs:
            digest = hashlib.sha256(text.encode()).hexdigest()
            first = self._digests.setdefault(key, digest)
            if digest != first:
                bad.append(f"{key[0]} seed {key[1]}: output bytes differ from an earlier run of it")
        return bad
