import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasi3.arith import binom
from quasi3.linsys import (
    build_system,
    coeff_A,
    det_exact,
    diagonal_blocks,
    extract_blocks,
    nullspace,
    nullspace_vectors,
    rank,
    restrict_Bm,
    rref,
    system_columns,
    system_rows,
)


def det_by_permanent_expansion(entries):
    n = len(entries)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(entries[i][perm[i]])
        total += sign * term
    return total


def rref_oracle(matrix):
    """Gauss-Jordan elimination in Fractions, the reference for rref."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


# ints and Fractions mixed, as the callers pass them
scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@st.composite
def matrices(draw, square=False):
    """Small matrices, often with zero rows and columns and low rank.

    Each row after the first may be kept, zeroed, or replaced by a
    combination of two earlier rows; some columns are zeroed.
    """
    nrows = draw(st.integers(0, 5))
    ncols = nrows if square else draw(st.integers(0, 5))
    row = st.lists(scalars, min_size=ncols, max_size=ncols)
    rows = [draw(row) for _ in range(nrows)]
    for k in range(1, nrows):
        kind = draw(st.sampled_from(("keep", "zero", "combination")))
        if kind == "zero":
            rows[k] = [0] * ncols
        elif kind == "combination":
            a, b = draw(scalars), draw(scalars)
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    for c in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols)):
        for row in rows:
            row[c] = 0
    return rows


# fixed examples and no per-example time limit keep the suite deterministic
checked = settings(max_examples=200, deadline=None, derandomize=True)


@checked
@given(matrices())
@example([])
@example([[], [], []])
@example([[0, 0], [0, 0]])
def test_rref_matches_fraction_gauss_jordan(matrix):
    rows, pivots = rref(matrix)
    assert (rows, pivots) == rref_oracle(matrix)
    assert all(type(x) is Fraction for row in rows for x in row)


@checked
@given(matrices(square=True))
@example([])
@example([[0, 1], [0, 2]])
def test_det_exact_matches_leibniz(matrix):
    det = det_exact(matrix)
    assert type(det) is Fraction
    assert det == det_by_permanent_expansion(matrix)


@checked
@given(matrices(square=True))
def test_det_exact_nonzero_iff_full_rank(matrix):
    assert (det_exact(matrix) != 0) == (rank(matrix) == len(matrix))


def test_det_exact_against_leibniz():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            entries = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            assert det_exact(entries) == det_by_permanent_expansion(entries)


def test_det_exact_edge_cases():
    assert det_exact([]) == 1
    assert det_exact([[5]]) == 5
    assert det_exact([[0, 1], [1, 0]]) == -1
    singular = [[1, 2], [2, 4]]
    assert det_exact(singular) == 0


def test_det_exact_does_not_mutate_input():
    for solve in (det_exact, rref):
        entries = [[1, 2], [3, Fraction(4, 3)]]
        solve(entries)
        assert entries == [[1, 2], [3, Fraction(4, 3)]]


def test_rank_and_rref():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    rows, pivots = rref([[2, 4], [1, 2]])
    assert rows[0] == [Fraction(1), Fraction(2)]
    assert rows[1] == [Fraction(0), Fraction(0)]
    assert pivots == [0]


def test_nullspace_vectors():
    vecs = nullspace_vectors([[1, 1, 0], [0, 0, 1]], 3)
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] == 1 and v[0] + v[1] == 0 and v[2] == 0
    # matrix with no rows: the whole space comes back
    full = nullspace_vectors([], 2)
    assert len(full) == 2


def test_coeff_A_diagonal_and_offdiagonal():
    # diagonal label [i, i]: binom(i, k) * (binom(d-i-k, l) - binom(2i-k, l))
    m, d = 2, 7
    assert coeff_A(0, 0, 0, 3, d) == binom(7, 3) - binom(0, 3)
    assert coeff_A(1, 1, 1, 1, d) == binom(1, 1) * (binom(5, 1) - binom(1, 1))
    # off-diagonal [i, j], i > j
    expected = (
        binom(1, 1) * binom(d - 0 - 1, 1)
        + binom(0, 1) * binom(d - 1 - 1, 1)
        - (binom(1, 1) + binom(0, 1)) * binom(1 - 1, 1)
    )
    assert coeff_A(1, 0, 1, 1, d) == expected


def test_system_rows_and_columns():
    m = 2
    assert system_columns(m) == ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
    rows = system_rows(m)
    assert rows[0] == (0, 3)
    assert rows[-1] == (2, 1)
    assert len(rows) == (m + 1) * m  # (m+1) k-values, m odd l-values


def test_build_system_shapes():
    for m in (1, 2, 3):
        for d in (3 * m + 1, 3 * m + 2):
            sys_ = build_system(m, d)
            assert sys_.shape == ((m + 1) * m, (m + 1) * (m + 2) // 2)
            sub = restrict_Bm(sys_)
            n = m * (m + 3) // 2  # rows kept: sum(k+1, k<m) + m
            assert sub.shape == (n, n)


def test_build_system_rejects_bad_degree():
    with pytest.raises(ValueError):
        build_system(2, 9)
    with pytest.raises(ValueError):
        build_system(1, 3)
    with pytest.raises(ValueError):
        build_system(-1, 1)


def test_restricted_system_m1_golden():
    # m = 1, d = 4: single 1x1 leading block and 1x1 final block
    sub = restrict_Bm(build_system(1, 4))
    assert sub.rows == ((0, 1), (1, 1))
    assert sub.cols == ((0, 0), (1, 0))
    assert sub.entries == ((4, 5), (0, 3))
    assert restrict_Bm(build_system(1, 5)).entries == ((5, 7), (0, 4))


def test_extract_blocks_match_submatrices():
    for m in (1, 2, 3):
        for d in (3 * m + 1, 3 * m + 2):
            closed = extract_blocks(m, d)
            sliced = diagonal_blocks(restrict_Bm(build_system(m, d)))
            assert len(closed.leading) == m
            for got, want in zip(closed.all_blocks(), sliced):
                assert [list(map(int, r)) for r in got] == [
                    list(map(int, r)) for r in want
                ]


def test_block_determinant_product_equals_full_determinant():
    for m in (1, 2, 3, 4):
        for d in (3 * m + 1, 3 * m + 2):
            sub = restrict_Bm(build_system(m, d))
            det = det_exact(sub.entries)
            product = Fraction(1)
            for b in extract_blocks(m, d).all_blocks():
                product *= det_exact(b)
            assert det == product
            assert det != 0


def test_golden_determinants_m3_d11():
    blocks = extract_blocks(3, 11)
    dets = [int(det_exact(b)) for b in blocks.all_blocks()]
    assert dets == [462, 6048, 294, 112]


def test_golden_determinants_m3_d10():
    blocks = extract_blocks(3, 10)
    dets = [int(det_exact(b)) for b in blocks.all_blocks()]
    assert dets == [252, 2352, 112, 35]
    sub = restrict_Bm(build_system(3, 10))
    assert int(det_exact(sub.entries)) == 2323399680
    assert 252 * 2352 * 112 * 35 == 2323399680


def test_nullspace_golden_m1():
    sys_ = build_system(1, 4)
    assert sys_.cols == ((0, 0), (1, 0), (1, 1))
    (vec,) = nullspace(sys_)
    assert vec == (Fraction(1), Fraction(-2), Fraction(6))
    (vec,) = nullspace(build_system(1, 5))
    assert vec == (Fraction(1), Fraction(-5, 3), Fraction(10, 3))


def test_nullspace_golden_m2():
    (vec,) = nullspace(build_system(2, 7))
    assert vec == (
        Fraction(1),
        Fraction(-7, 2),
        Fraction(14),
        Fraction(7, 2),
        Fraction(-35, 2),
        Fraction(35),
    )
    (vec,) = nullspace(build_system(2, 8))
    assert vec == (
        Fraction(1),
        Fraction(-16, 5),
        Fraction(56, 5),
        Fraction(14, 5),
        Fraction(-56, 5),
        Fraction(14),
    )


def test_nullity_one_for_small_m():
    for m in range(7):
        for d in (3 * m + 1, 3 * m + 2):
            sys_ = build_system(m, d)
            vecs = nullspace_vectors(sys_.entries, len(sys_.cols))
            assert len(vecs) == 1


def test_m0_system_is_empty_with_free_column():
    sys_ = build_system(0, 1)
    assert sys_.shape == (0, 1)
    (vec,) = nullspace(sys_)
    assert vec == (Fraction(1),)
