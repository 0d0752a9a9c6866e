import random
from fractions import Fraction
from itertools import permutations
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasi3.arith import binom
from quasi3.linsys import (
    MAX_ORDER,
    build_system,
    coeff_A,
    det_exact,
    diagonal_blocks,
    extract_blocks,
    nullspace,
    nullspace_vectors,
    rank,
    restrict_Bm,
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


def _integer_rows(matrix):
    """Each row times the lcm of its denominators, with those lcms.

    Entries may be ints or Fractions; both carry numerator/denominator.
    """
    rows, scales = [], []
    for row in matrix:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    return rows, scales


def det_bareiss(matrix) -> Fraction:
    """Determinant by integer fraction-free (Bareiss) elimination, the
    reference for det_exact (Bareiss 1968, Math. Comp. 22).

    Each row is first scaled to integers by the lcm of its denominators;
    Bareiss' division by the previous pivot is then exact, so every
    intermediate is an integer.  One Fraction is formed at the end, the
    last pivot over the product of the row scales.  Pivoting is
    deterministic: the first row with a nonzero entry in the current
    column.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return Fraction(1)
    a, scales = _integer_rows(matrix)
    sgn = 1
    prev = 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sgn = -sgn
        top = a[c]
        pv = top[c]
        for r in range(c + 1, n):
            row = a[r]
            f = row[c]
            for cc in range(c + 1, n):
                row[cc] = (row[cc] * pv - f * top[cc]) // prev
        prev = pv
    return Fraction(sgn * a[n - 1][n - 1], prod(scales))


def rref_oracle(matrix):
    """Gauss-Jordan elimination in Fractions, the reference for
    nullspace_vectors and rank."""
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


def kernel_oracle(matrix, ncols):
    """Null space read from rref_oracle: one vector per free column f,
    x_f = 1 and x_p = -row[f] at each pivot p, scaled so its first
    nonzero coordinate is 1."""
    rows, pivots = rref_oracle(matrix)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


# ints and Fractions mixed, as the callers pass them
scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@st.composite
def matrices(draw, square=False, size=5):
    """Matrices of at most size rows and columns, often with zero rows
    and columns and low rank.

    Each row after the first may be kept, zeroed, or replaced by a
    combination of two earlier rows; some columns are zeroed.
    """
    nrows = draw(st.integers(0, size))
    ncols = nrows if square else draw(st.integers(0, size))
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
def test_nullspace_matches_fraction_gauss_jordan(matrix):
    ncols = len(matrix[0]) if matrix else 0
    basis = nullspace_vectors(matrix, ncols)
    assert basis == kernel_oracle(matrix, ncols)
    assert all(type(x) is Fraction for v in basis for x in v)


@checked
@given(matrices(square=True))
@example([])
@example([[0, 1], [0, 2]])
def test_det_exact_matches_leibniz(matrix):
    det = det_exact(matrix)
    assert type(det) is Fraction
    assert det == det_by_permanent_expansion(matrix)


@checked
@given(matrices(square=True, size=8))
@example([])
@example([[0, 1], [0, 2]])
def test_det_exact_matches_bareiss(matrix):
    det = det_exact(matrix)
    assert type(det) is Fraction
    assert det == det_bareiss(matrix)


@checked
@given(matrices(square=True))
def test_det_exact_nonzero_iff_full_rank(matrix):
    assert (det_exact(matrix) != 0) == (rank(matrix) == len(matrix))


@checked
@given(matrices())
@example([[], [], []])
def test_rank_counts_rref_pivots(matrix):
    assert rank(matrix) == len(rref_oracle(matrix)[1])


def test_det_exact_matches_bareiss_on_restricted_systems():
    for m in range(1, 9):
        for d in (3 * m + 1, 3 * m + 2):
            entries = restrict_Bm(build_system(m, d)).entries
            assert det_exact(entries) == det_bareiss(entries)


def test_det_exact_edge_cases():
    assert det_exact([]) == 1
    assert det_exact([[5]]) == 5
    assert det_exact([[0, 1], [1, 0]]) == -1
    singular = [[1, 2], [2, 4]]
    assert det_exact(singular) == 0


def test_det_exact_does_not_mutate_input():
    for solve in (det_exact, rank, lambda matrix: nullspace_vectors(matrix, 2)):
        for original in ([[1, 2], [3, Fraction(4, 3)]], [[0, 2], [3, 4]]):
            entries = [row[:] for row in original]
            solve(entries)
            assert entries == original


def test_int_fraction_and_scaled_rows_agree():
    """_eliminate takes an all-int row as it is and scales only a row with
    a non-int entry.  200 seeded square matrices of sizes 1 to 6, each
    as ints, with every entry a Fraction, and as ints with one row
    divided by k, its entries left int where k divides them and at least
    one a true non-integer Fraction: det_exact, rank and
    nullspace_vectors agree, the last determinant times k."""
    rng = random.Random(2028)
    for _ in range(200):
        n = rng.randint(1, 6)
        ints = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(n)] for _ in range(n)]
        if n > 2 and rng.random() < 0.3:  # a dependent row
            ints[0] = [x - y for x, y in zip(ints[1], ints[2])]
        r, c, k = rng.randrange(n), rng.randrange(n), rng.randint(2, 5)
        if ints[r][c] % k == 0:
            ints[r][c] += 1
        fractions = [[Fraction(x) for x in row] for row in ints]
        scaled = [row[:] for row in ints]
        scaled[r] = [x // k if x % k == 0 else Fraction(x, k) for x in ints[r]]
        assert type(scaled[r][c]) is Fraction
        det = det_exact(ints)
        assert type(det) is Fraction and det == det_bareiss(ints)
        assert det_exact(fractions) == det
        assert det_exact(scaled) * k == det
        assert rank(ints) == rank(fractions) == rank(scaled)
        vectors = nullspace_vectors(ints, n)
        assert nullspace_vectors(fractions, n) == vectors
        assert nullspace_vectors(scaled, n) == vectors


def test_rank_and_rref():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    rows, pivots = rref_oracle([[2, 4], [1, 2]])
    assert rows == [[1, 2], [0, 0]] and pivots == [0]
    assert nullspace_vectors([[2, 4], [1, 2]], 2) == [(1, Fraction(-1, 2))]


def test_nullspace_vectors():
    vecs = nullspace_vectors([[1, 1, 0], [0, 0, 1]], 3)
    assert len(vecs) == 1
    v = vecs[0]
    assert v[0] == 1 and v[0] + v[1] == 0 and v[2] == 0
    # matrix with no rows: the whole space comes back
    full = nullspace_vectors([], 2)
    assert len(full) == 2


def binomial_table(d):
    return [[binom(n, l) for l in range(d + 1)] for n in range(d + 1)]


def test_coeff_A_diagonal_and_offdiagonal():
    # diagonal label [i, i]: binom(i, k) * (binom(d-i-k, l) - binom(2i-k, l))
    m, d = 2, 7
    C = binomial_table(d)
    assert coeff_A(0, 0, 0, 3, d, C) == binom(7, 3) - binom(0, 3)
    assert coeff_A(1, 1, 1, 1, d, C) == binom(1, 1) * (binom(5, 1) - binom(1, 1))
    # off-diagonal [i, j], i > j
    expected = (
        binom(1, 1) * binom(d - 0 - 1, 1)
        + binom(0, 1) * binom(d - 1 - 1, 1)
        - (binom(1, 1) + binom(0, 1)) * binom(1 - 1, 1)
    )
    assert coeff_A(1, 0, 1, 1, d, C) == expected


def oracle_coeff_A(i, j, k, l, d):
    """coeff_A as it was before build_system's binomial table: the same
    closed form on binom calls."""
    if i == j:
        return binom(i, k) * (binom(d - i - k, l) - binom(2 * i - k, l))
    return (
        binom(i, k) * binom(d - j - k, l)
        + binom(j, k) * binom(d - i - k, l)
        - (binom(i, k) + binom(j, k)) * binom(i + j - k, l)
    )


def test_system_entries_match_the_closed_form_on_binom_calls():
    for m in range(MAX_ORDER + 1):
        for d in (3 * m + 1, 3 * m + 2):
            sys = build_system(m, d)
            want = tuple(
                tuple(oracle_coeff_A(i, j, k, l, d) for i, j in sys.cols) for k, l in sys.rows
            )
            assert sys.entries == want, (m, d)


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


def test_builders_reject_m_above_max_order():
    m = MAX_ORDER + 1
    with pytest.raises(ValueError, match=f"m must be at most {MAX_ORDER}"):
        build_system(m, 3 * m + 1)
    with pytest.raises(ValueError, match=f"m must be at most {MAX_ORDER}"):
        extract_blocks(m, 3 * m + 2)
    assert len(extract_blocks(MAX_ORDER, 3 * MAX_ORDER + 1)) == MAX_ORDER + 1


def test_restricted_system_m1_golden():
    # m = 1, d = 4: single 1x1 leading block and 1x1 final block
    sub = restrict_Bm(build_system(1, 4))
    assert sub.rows == ((0, 1), (1, 1))
    assert sub.cols == ((0, 0), (1, 0))
    assert sub.entries == ((4, 5), (0, 3))
    assert restrict_Bm(build_system(1, 5)).entries == ((5, 7), (0, 4))


def test_extract_blocks_match_submatrices():
    # for every order: restrict_Bm is block upper triangular (0 left of
    # each diagonal block, in that block's rows), which the block solve of
    # basis.ansatz_coefficients relies on, and its diagonal blocks are the
    # closed formulas
    for m in range(1, MAX_ORDER + 1):
        for d in (3 * m + 1, 3 * m + 2):
            sub = restrict_Bm(build_system(m, d))
            for f in range(1, m + 2):
                start = f * (f - 1) // 2
                for row in sub.entries[start:start + min(f, m)]:
                    assert not any(row[:start]), (m, d, f)
            closed = extract_blocks(m, d)
            assert len(closed) == m + 1
            assert closed == diagonal_blocks(sub)


def test_block_determinant_product_equals_full_determinant():
    for m in (1, 2, 3, 4, 8, 12, 20):
        for d in (3 * m + 1, 3 * m + 2):
            sub = restrict_Bm(build_system(m, d))
            det = det_exact(sub.entries)
            product = Fraction(1)
            for b in extract_blocks(m, d):
                product *= det_exact(b)
            assert det == product
            assert det != 0


def test_golden_determinants_m3_d11():
    dets = [int(det_exact(b)) for b in extract_blocks(3, 11)]
    assert dets == [462, 6048, 294, 112]


def test_golden_determinants_m3_d10():
    dets = [int(det_exact(b)) for b in extract_blocks(3, 10)]
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
