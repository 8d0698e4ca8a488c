import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from morseflow import chains
from morseflow.chains import (IntegerChainComplex, int_det, smith_normal_form,
                              staircase_quotient, zeros)
from morseflow.errors import BoundarySquareNonzero


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
    """The number of fuzz matrices whose Smith form and rank agree with the
    oracles, stopping at the first that does not, and a line naming it."""
    for i, mat in enumerate(fuzz_matrices(cases, seed)):
        got_diag, got_rank = smith_normal_form(mat)
        want_diag, want_rank = snf_oracle(mat)
        want_diag = tuple(d for d in want_diag if d != 0)
        if got_rank != rational_rank(mat) or got_diag != want_diag:
            return i, f"case {i}: {mat} -> {got_diag} vs oracle {want_diag}"
    return cases, "all cases agree"


def test_snf_single_entry():
    assert smith_normal_form([[2]]) == ((2,), 1)


def test_snf_rank_deficient():
    assert smith_normal_form([[1, 0], [0, 0]]) == ((1,), 1)


def test_snf_two_by_two():
    assert smith_normal_form([[2, 4], [6, 8]]) == ((2, 4), 2)


def test_snf_empty_and_zero():
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)


def test_snf_agrees_with_oracle():
    count, msg = snf_fuzz(1000)
    assert count == 1000, msg


def test_oracle_helpers_consistent():
    mat = [[2, 4], [6, 8]]
    assert snf_oracle(mat) == ((2, 4), 2)
    assert rational_rank(mat) == 2


def full_scan_oracle(mat):
    """`snf_oracle` without its early stop: every k x k minor of every degree."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    diag, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                g = math.gcd(g, abs(int_det([[mat[i][j] for j in csel] for i in rsel])))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag), len(diag)


def test_snf_oracle_equals_the_full_scan_on_the_fuzz_matrices():
    for mat in fuzz_matrices():
        assert snf_oracle(mat) == full_scan_oracle(mat)


def test_the_fuzz_checks_the_same_matrices():
    # `test_snf_agrees_with_oracle` compares the Smith form with the oracle
    # on this stream
    mats = list(fuzz_matrices())
    assert mats[0] == [[1, 0, 3], [-4, 1, 4], [4, 3, -2], [4, 0, 3]]
    assert hashlib.sha256(repr(mats).encode()).hexdigest() == (
        "3793d88bcae6d9d91aeb89b919b99250d449d9ba78b285c28e855b9431e2976b")


def _matrices(cols, bound=12):
    row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    return st.lists(row, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(_matrices), st.integers(1, 6))
def test_snf_oracle_equals_the_full_scan(mat, scale):
    # a common factor makes D_1 > 1, so a scan can stop above 1
    mat = [[scale * a for a in row] for row in mat]
    assert snf_oracle(mat) == full_scan_oracle(mat)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: _matrices(cols, 9)))
def test_minors_are_the_cofactor_determinants(mat):
    # the oracle's closed forms (k <= 3) against cofactor expansion, minor by
    # minor in the scan's order
    rows, cols = range(len(mat)), range(len(mat[0]))
    for k in range(1, min(len(rows), len(cols)) + 1):
        want = [int_det([[mat[i][j] for j in csel] for i in rsel])
                for rsel, csel in product(combinations(rows, k), combinations(cols, k))]
        assert list(_minors(mat, k)) == want


def fraction_rank(mat):
    """Rank over Q by elimination in `Fraction`s: the reference for the
    fraction-free `rational_rank`."""
    work = [[Fraction(v) for v in row] for row in mat]
    rows, cols = len(work), len(work[0]) if mat else 0
    rank, pivot_row = 0, 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, rows):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = work[pivot_row][col]
        for r in range(pivot_row + 1, rows):
            if work[r][col] != 0:
                factor = work[r][col] / inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def low_rank_products(count, seed=7):
    """Products of an m x k and a k x n integer matrix, k below min(m, n)
    mostly, with entries large enough that the minors grow."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(m, n))
        a = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(m)]
        b = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(k)]
        yield [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
               for i in range(m)]


RANK_CASES = [
    [], [[]], [[0]], [[0, 0, 0]], [[0], [0], [0]], [[0, 0], [0, 0]],
    [[3]], [[0, 0, 7]], [[1, -2, 3, 4]], [[0], [5], [0]], [[2], [4], [-6]],
    [[1, 2], [2, 4]], [[0, 1], [0, 2]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[0, 0, 1], [0, 0, 2], [3, 0, 0]], [[2, 4, 6], [1, 2, 3], [0, 0, 1]],
]


def test_integer_rank_matches_fraction_elimination():
    cases = RANK_CASES + list(fuzz_matrices()) + list(low_rank_products(300))
    assert len(cases) == len(RANK_CASES) + 1300
    for mat in cases:
        assert rational_rank(mat) == fraction_rank(mat), mat


def _complex(ranks, d1, step=-1):
    gens = tuple(tuple(range(sum(ranks[:k]), sum(ranks[:k + 1])))
                 for k in range(len(ranks)))
    matrices = {1: d1} if step == -1 else {0: d1}
    return IntegerChainComplex(len(ranks) - 1, step, gens, matrices)


def test_homology_annulus_shape():
    cx = _complex((1, 1), [[0]])
    h = cx.homology()
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_homology_twisted_band_shape():
    cx = _complex((1, 1), [[2]])
    h = cx.homology()
    assert h.betti == (0, 0)
    assert h.torsion == ((2,), ())


def test_homology_zero_complex():
    cx = IntegerChainComplex(2, -1, ((), (), ()), {})
    assert cx.homology().betti == (0, 0, 0)


def test_square_zero_enforced():
    gens = ((0,), (1,), (2,))
    with pytest.raises(BoundarySquareNonzero):
        IntegerChainComplex(2, -1, gens, {1: [[1]], 2: [[1]]})


def test_ragged_matrix_is_rejected():
    # the first row has the right length; the second does not
    with pytest.raises(ValueError, match="wrong shape"):
        IntegerChainComplex(1, -1, ((0,), (1, 2)), {1: [[1], [1, 0]]})


@pytest.mark.parametrize("step, degree, mat", [
    (-1, 2, [[1]]),      # degree above top_dim
    (-1, 0, [[]]),       # target below 0
    (1, 1, [[]]),        # target above top_dim
])
def test_matrix_outside_the_degrees_is_rejected(step, degree, mat):
    with pytest.raises(ValueError, match="outside degrees"):
        IntegerChainComplex(1, step, ((0,), (1,)), {degree: mat})


def test_homology_reduces_each_stored_matrix_once(packages, monkeypatch):
    """One Smith form per stored matrix, none for a matrix without rows or
    columns: a 2-D package's five homologies take at most ten."""
    calls = []
    real = chains.smith_normal_form

    def counted(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(chains, "smith_normal_form", counted)
    for name in ("disk", "annulus", "moebius", "tilted_dome"):
        calls.clear()
        complexes = packages[name].complexes.values()
        got = [cx.homology() for cx in complexes]
        assert got == [packages[name].homology[key] for key in packages[name].complexes]
        assert len(calls) <= sum(len(cx.matrices) for cx in complexes) == 10
        assert all(mat and mat[0] for mat in calls)


@st.composite
def _one_differential(draw):
    """(complex, ranks, degree, matrix): free modules of ranks 0 to 4 in
    degrees 0..top_dim, one matrix with entries in [-5, 5] out of `degree`."""
    step = draw(st.sampled_from([-1, 1]))
    top = draw(st.integers(1, 3))
    ranks = draw(st.lists(st.integers(0, 4), min_size=top + 1, max_size=top + 1))
    degree = draw(st.integers(0, top - 1)) + (1 if step == -1 else 0)
    rows, cols = ranks[degree], ranks[degree + step]
    mat = draw(st.lists(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    first = [sum(ranks[:k]) for k in range(top + 1)]
    gens = tuple(tuple(range(first[k], first[k] + ranks[k])) for k in range(top + 1))
    return IntegerChainComplex(top, step, gens, {degree: mat}), ranks, degree, mat


@settings(max_examples=300, deadline=None)
@given(_one_differential())
def test_one_differential_homology_matches_the_oracles(case):
    """Chain (step -1) and cochain (step +1) form: the rank comes off both
    degrees, and the invariant factors above 1 are the target's torsion."""
    cx, ranks, degree, mat = case
    diag, _ = snf_oracle(mat)
    rank = rational_rank(mat)
    betti = list(ranks)
    betti[degree] -= rank
    betti[degree + cx.step] -= rank
    torsion = [()] * len(ranks)
    torsion[degree + cx.step] = tuple(d for d in diag if d > 1)
    h = cx.homology()
    assert h.betti == tuple(betti)
    assert h.torsion == tuple(torsion)


def test_transpose_dual_involution():
    cx = _complex((2, 1), [[3, -1]])
    assert cx.transpose_dual().transpose_dual().matrices == cx.matrices


def conjugated(cx, order, signs):
    """The complex with its generators reordered within degrees (`order`
    maps a degree to a permutation) and the generators in `signs` negated."""
    perm = {k: order.get(k, list(range(len(cx.generators[k]))))
            for k in range(cx.top_dim + 1)}
    gens = tuple(tuple(cx.generators[k][i] for i in perm[k])
                 for k in range(cx.top_dim + 1))
    mats = {}
    for k, mat in cx.matrices.items():
        tgt = k + cx.step
        cols = perm[tgt] if 0 <= tgt <= cx.top_dim else []
        new = zeros(len(perm[k]), len(cols))
        for i, oi in enumerate(perm[k]):
            for j, oj in enumerate(cols):
                new[i][j] = (mat[oi][oj] * signs.get(cx.generators[k][oi], 1)
                             * signs.get(cx.generators[tgt][oj], 1))
        mats[k] = new
    return IntegerChainComplex(cx.top_dim, cx.step, gens, mats)


def test_homology_invariant_under_conjugation():
    cx = _complex((2, 2), [[1, 2], [0, 2]])
    base = cx.homology()
    shuffled = conjugated(cx, order={0: [1, 0], 1: [1, 0]},
                          signs={0: -1, 3: -1})
    got = shuffled.homology()
    assert got.betti == base.betti and got.torsion == base.torsion


def test_quotient_dome():
    assert staircase_quotient((1, 1, 1), (1,)) == (0, 1)


def test_quotient_equal_polynomials():
    assert staircase_quotient((1, 1), (1, 1)) == ()


def test_quotient_impossible_pair_flagged():
    # M - P = -T has remainder 1 at T = -1
    assert staircase_quotient((1,), (1, 1)) is None


def test_quotient_negative_coefficient_flagged():
    # M - P = T^2 - 1 = (1 + T)(T - 1): divisible, but the quotient dips negative
    assert staircase_quotient((0, 0, 1), (1,)) == (-1, 1)


def test_quotient_nonzero_remainder():
    assert staircase_quotient((1, 0, 1), (1,)) is None


def _doubled(counts):
    """2c+n+d per grading from (c, n, d) counts."""
    return tuple(2 * c + n + d for c, n, d in counts)


def test_double_manifold_annulus():
    counts = [(0, 1, 0), (0, 1, 1), (0, 0, 1)]
    assert _doubled(counts) == (1, 2, 1)
    # H_*(M;Z) + H^*(M,dM;Z) = (1, 1, 0) + (0, 1, 1)
    assert staircase_quotient(_doubled(counts), (1, 2, 1)) == ()


def test_double_manifold_disk():
    counts = [(0, 1, 0), (0, 0, 0), (0, 0, 1)]
    # (1, 0, 0) + (0, 0, 1)
    assert staircase_quotient(_doubled(counts), (1, 0, 1)) == ()


def test_double_manifold_nonorientable_recorded_only():
    counts = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    # (1, 1) + ()
    assert staircase_quotient(_doubled(counts), (1, 1)) == (0, 1)


def test_euler_alternating_sum(packages):
    for pkg in packages.values():
        for cx in pkg.complexes.values():
            h = cx.homology()
            chi_h = sum((-1) ** k * b for k, b in enumerate(h.betti))
            chi_c = sum((-1) ** k * cx.rank(k) for k in range(cx.top_dim + 1))
            assert chi_h == chi_c
