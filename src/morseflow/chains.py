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
    """The product of matrices whose shapes agree, skipping a's zero entries."""
    out = zeros(len(a), len(b[0]) if b else 0)
    for row, acc in zip(a, out):
        for aik, bk in zip(row, b):
            if aik:
                for j, v in enumerate(bk):
                    acc[j] += aik * v
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
            if not (0 <= k <= self.top_dim and 0 <= tgt <= self.top_dim):
                raise ValueError(f"matrix at degree {k} maps outside degrees "
                                 f"0..{self.top_dim}")
            cols = len(self.generators[tgt])
            if (len(mat) != len(self.generators[k])
                    or any(len(row) != cols for row in mat)):
                raise ValueError(f"matrix at degree {k} has the wrong shape")
        self._check_composites_vanish()

    def _check_composites_vanish(self) -> None:
        for k, mat in self.matrices.items():
            after = self.matrices.get(k + self.step)
            if after is None:
                continue
            for i, row in enumerate(mat_mul(mat, after)):
                for j, v in enumerate(row):
                    if v != 0:
                        p = self.generators[k][i]
                        q = self.generators[k + 2 * self.step][j]
                        raise BoundarySquareNonzero(
                            f"composite differential nonzero between generators "
                            f"{p} and {q} (value {v})")

    def rank(self, k: int) -> int:
        return len(self.generators[k]) if 0 <= k <= self.top_dim else 0

    def homology(self) -> HomologyResult:
        """One Smith form per stored matrix, none for one without entries: a
        matrix from degree k to k + step lowers both Betti numbers by its
        rank, and its invariant factors above 1 are degree k + step's torsion."""
        betti = [self.rank(k) for k in range(self.top_dim + 1)]
        torsion = [()] * (self.top_dim + 1)
        for k, mat in self.matrices.items():
            if not mat or not mat[0]:
                continue
            diag, rank = smith_normal_form(mat)
            tgt = k + self.step
            betti[k] -= rank
            betti[tgt] -= rank
            torsion[tgt] = tuple(d for d in diag if d > 1)
        return HomologyResult(tuple(betti), tuple(torsion))

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
