"""Exact integer chain complexes, Smith normal form, and the staircase quotient
of the strong Morse inequalities.

All arithmetic is over Python integers, so invariant factors never overflow.
Matrices are lists of rows; row index = source generator, column = target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .errors import BoundarySquareNonzero

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
        self._check_composites_vanish()

    def _check_composites_vanish(self) -> None:
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
# Morse inequalities


def staircase_quotient(morse: Sequence[int],
                       betti: Sequence[int]) -> tuple[int, ...] | None:
    """Coefficients of Q with M - P = (1 + T) Q, trailing zeros dropped, or
    None when (1 + T) does not divide M - P.

    M and P are given by their coefficients, lowest degree first.  Q comes
    from alternating partial sums, Q_k = (M_k - P_k) - Q_{k-1}; the division
    is exact iff the last partial sum, +-(M - P)(-1), is zero.  The strong
    Morse inequalities hold iff Q exists and no coefficient is negative.
    """
    quotient = []
    carry = 0
    for m, p in zip_longest(morse, betti, fillvalue=0):
        carry = m - p - carry
        quotient.append(carry)
    if quotient and quotient.pop() != 0:
        return None
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return tuple(quotient)
