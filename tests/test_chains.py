import random
from fractions import Fraction

import pytest

from morseflow.chains import (IntegerChainComplex, smith_normal_form,
                              staircase_quotient, zeros)
from morseflow.errors import BoundarySquareNonzero
from morseflow.verify import fuzz_matrices, rational_rank, snf_fuzz, snf_oracle


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
            assert chi_h == cx.euler_characteristic()
