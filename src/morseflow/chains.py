"""Exact integer chain complexes, Smith normal form, and Morse polynomials.

All arithmetic is over Python integers, so invariant factors never overflow.
Matrices are lists of rows; row index = source generator, column = target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BoundarySquareNonzero, NegativeCoefficient, NotDivisible

IntMatrix = list[list[int]]


def zeros(rows: int, cols: int) -> IntMatrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    if rows and len(a[0]) != inner:
        raise ValueError("shape mismatch")
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if aik == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                row[j] += aik * bk[j]
    return out


def _swap_rows(a: IntMatrix, i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: IntMatrix, i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors d_1 | d_2 | ... | d_r and the rank of an integer matrix.

    Unimodular transforms are not retained; only the invariants are needed.
    """
    a = [[int(v) for v in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the trailing block becomes the pivot
        piv, best = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    piv, best = (i, j), v
        if piv is None:
            break
        _swap_rows(a, t, piv[0])
        _swap_cols(a, t, piv[1])
        while True:
            restart = False
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                for j in range(t, cols):
                    a[i][j] -= q * a[t][j]
                if a[i][t] != 0:          # remainder is smaller: promote it
                    _swap_rows(a, t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                for i in range(t, rows):
                    a[i][j] -= q * a[i][t]
                if a[t][j] != 0:
                    _swap_cols(a, t, j)
                    restart = True
                    break
            if restart:
                continue
            break
        t += 1
    diag = [abs(a[i][i]) for i in range(t)]
    # enforce the divisibility chain; diag(a, b) and diag(gcd, lcm) are equivalent
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = math.gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    diag.sort()
    return tuple(diag), len(diag)


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by cofactor expansion."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * int_det(minor)
    return total


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyResult:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        return {"betti": list(self.betti), "torsion": [list(t) for t in self.torsion]}

    def matches(self, betti: Sequence[int], torsion: Sequence[Sequence[int]]) -> bool:
        return (tuple(self.betti) == tuple(betti)
                and tuple(tuple(t) for t in self.torsion)
                == tuple(tuple(t) for t in torsion))


@dataclass(frozen=True, eq=False)
class IntegerChainComplex:
    """Graded free Z-module with incidence matrices of degree -1 or +1.

    matrices[k] maps degree-k generators (rows) to degree k+step generators
    (columns); step is -1 for a chain complex, +1 for a cochain complex.
    """

    top_dim: int
    step: int                                  # -1 chain, +1 cochain
    generators: tuple[tuple[int, ...], ...]    # generator ids per degree
    matrices: dict[int, IntMatrix]

    def __post_init__(self):
        if self.step not in (-1, 1):
            raise ValueError("step must be -1 or +1")
        for k, mat in self.matrices.items():
            tgt = k + self.step
            rows = len(self.generators[k])
            cols = len(self.generators[tgt]) if 0 <= tgt <= self.top_dim else 0
            if len(mat) != rows or (rows and len(mat[0]) != cols):
                raise ValueError(f"matrix at degree {k} has the wrong shape")
        self._check_square_zero()

    def _check_square_zero(self) -> None:
        for k in range(self.top_dim + 1):
            mid = k + self.step
            if k not in self.matrices or mid not in self.matrices:
                continue
            comp = mat_mul(self.matrices[k], self.matrices[mid])
            for i, row in enumerate(comp):
                for j, v in enumerate(row):
                    if v != 0:
                        p = self.generators[k][i]
                        q = self.generators[mid + self.step][j]
                        raise BoundarySquareNonzero(
                            f"composite differential nonzero between generators "
                            f"{p} and {q} (value {v})")

    def rank(self, k: int) -> int:
        return len(self.generators[k]) if 0 <= k <= self.top_dim else 0

    def matrix(self, k: int) -> IntMatrix:
        """Incidence matrix out of degree k (zero-shaped if absent)."""
        if k in self.matrices:
            return self.matrices[k]
        return zeros(self.rank(k), self.rank(k + self.step))

    def homology(self) -> HomologyResult:
        betti = []
        torsion = []
        for k in range(self.top_dim + 1):
            _, out_rank = smith_normal_form(self.matrix(k))
            incoming = self.matrix(k - self.step)
            in_diag, in_rank = smith_normal_form(incoming)
            betti.append(self.rank(k) - out_rank - in_rank)
            torsion.append(tuple(d for d in in_diag if d > 1))
        return HomologyResult(tuple(betti), tuple(torsion))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.rank(k) for k in range(self.top_dim + 1))

    def transpose_dual(self) -> "IntegerChainComplex":
        """Dual complex: same generators, every matrix transposed, step negated."""
        mats: dict[int, IntMatrix] = {}
        for k, mat in self.matrices.items():
            tgt = k + self.step
            flipped = zeros(self.rank(tgt), self.rank(k))
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    flipped[j][i] = v
            mats[tgt] = flipped
        return IntegerChainComplex(self.top_dim, -self.step, self.generators, mats)

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "generators": [list(g) for g in self.generators],
            "matrices": {str(k): [list(r) for r in m] for k, m in sorted(self.matrices.items())},
        }


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(int(v) for v in c))

    @classmethod
    def of(cls, *coeffs: int) -> "IntPolynomial":
        return cls(tuple(coeffs))

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self.coefficient(i) + other.coefficient(i)
                                   for i in range(n)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self.coefficient(i) - other.coefficient(i)
                                   for i in range(n)))

    def __call__(self, t: int) -> int:
        return sum(c * t ** i for i, c in enumerate(self.coeffs))

    def as_list(self) -> list[int]:
        return list(self.coeffs)


def divide_by_one_plus_t(poly: IntPolynomial) -> IntPolynomial:
    """Exact division by (1 + T); raises NotDivisible on a nonzero remainder."""
    if not poly.coeffs:
        return poly
    # synthetic division at the root T = -1, highest degree first
    quotient = [0] * len(poly.coeffs)
    carry = 0
    for i in range(poly.degree, -1, -1):
        carry = poly.coefficient(i) - carry
        quotient[i] = carry
    # quotient[0] holds the remainder after the last fold
    remainder = quotient[0]
    if remainder != 0:
        raise NotDivisible(f"remainder {remainder} on division by (1+T)")
    return IntPolynomial(tuple(quotient[1:]))


def morse_inequality_quotient(m_poly: IntPolynomial,
                              p_poly: IntPolynomial) -> IntPolynomial:
    """Q with M - P = (1 + T) Q; every coefficient must be non-negative."""
    q = divide_by_one_plus_t(m_poly - p_poly)
    if any(c < 0 for c in q.coeffs):
        raise NegativeCoefficient(f"quotient {q.as_list()} has a negative coefficient")
    return q


def duality_symmetry_check(p_abs: IntPolynomial, p_rel: IntPolynomial, n: int) -> bool:
    """True iff the relative polynomial is the degree-n reversal of the absolute one."""
    return all(p_rel.coefficient(k) == p_abs.coefficient(n - k) for k in range(n + 1))


@dataclass(frozen=True)
class DoubleManifoldReport:
    m_double: IntPolynomial
    p_double: IntPolynomial
    additivity_ok: bool
    quotient: IntPolynomial | None
    asserted: bool

    def as_dict(self) -> dict:
        return {
            "morse_double": self.m_double.as_list(),
            "poincare_double": self.p_double.as_list(),
            "additivity_ok": self.additivity_ok,
            "quotient": None if self.quotient is None else self.quotient.as_list(),
            "asserted": self.asserted,
        }


def double_manifold_check(counts: Sequence[tuple[int, int, int]],
                          p_abs: IntPolynomial, p_rel: IntPolynomial,
                          orientable: bool = True) -> DoubleManifoldReport:
    """Doubled-manifold polynomial identities.

    counts[k] = (|C_k|, |N_k|, |D_k|).  The doubled Morse polynomial must equal
    the sum of the one-sided ones identically; the rank-level inequality against
    p_abs + p_rel is asserted only for orientable entries and recorded otherwise.
    """
    m_double = IntPolynomial(tuple(2 * c + n + d for c, n, d in counts))
    m_n = IntPolynomial(tuple(c + n for c, n, _ in counts))
    m_d = IntPolynomial(tuple(c + d for c, _, d in counts))
    additivity = m_double == m_n + m_d
    p_double = p_abs + p_rel
    quotient = None
    if orientable:
        quotient = morse_inequality_quotient(m_double, p_double)
    else:
        try:
            quotient = divide_by_one_plus_t(m_double - p_double)
        except NotDivisible:
            quotient = None
    return DoubleManifoldReport(m_double, p_double, additivity, quotient, orientable)
