"""Coefficient linear systems, their block submatrices, and exact solvers.

Conventions, fixed once here and relied on everywhere else:

* build_system(m, d) has one row per divisibility constraint (k, l) with
  k = 0..m and l odd, 1 <= l <= 2m-1, ordered k ascending and l descending
  within each k; one column per ansatz label [i, j] with 0 <= j <= i <= m,
  ordered lexicographically ascending.  Valid degrees are d = 3m+1, 3m+2.

* restrict_Bm keeps, for k < m, the top k+1 odd values l in
  {2m-2k-1, ..., 2m-1}; for k = m it keeps every odd l.  It drops the
  column [m, m].  The result is square of size m(m+3)/2 and block upper
  triangular in the ordering above.

* extract_blocks returns the m+1 diagonal blocks f = 1..m+1, block f of
  size min(f, m) with rows k = f-1 and columns [f-1, 0..min(f, m)-1];
  f = m+1 is the final block.  Block f starts at row and column
  f(f-1)/2 of restrict_Bm.  Blocks are computed from one closed binomial
  formula; tests confirm they equal the corresponding submatrices of
  restrict_Bm.

* The exact solvers share one fraction-free integer elimination loop,
  _eliminate; basis.ansatz_coefficients also solves each diagonal block
  with it.  nullspace_vectors clears every other row and reads each
  vector from the integer rows; det_exact and rank stop at echelon form,
  and det_exact forms one Fraction at the end from the diagonal and
  plain-int bookkeeping: the swap count, the gcds divided out, the pivot
  powers and the row scales.  An all-int row is taken as it is; only a
  row with a non-int entry is scaled, by the lcm of its denominators.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, prod

from .arith import binom, integer_scaled

# Largest m build_system and extract_blocks accept, checked before any
# allocation.  At m = 29 the restricted determinant has 4456 digits,
# past Python's default 4300-digit limit for printing an int.
MAX_ORDER = 28


def coeff_A(i: int, j: int, k: int, l: int, d: int, C) -> int:
    """Constraint coefficient of ansatz label [i, j] in row (k, l), degree d.

    This is the coefficient of (x1 - x2)^l x2^(d-k-l) ... in the expansion of
    (1 - s12) applied to the ansatz term; only its closed binomial form is
    needed here, read from build_system's table C[n][l] = binom(n, l).
    Arguments are not checked: build_system, the one caller, passes labels
    0 <= j <= i, k, l >= 0 and a checked degree, and C covers 0..d.
    """
    if k > i:  # binom(i, k) = binom(j, k) = 0, since j <= i
        return 0
    if i == j:
        return C[i][k] * (C[d - i - k][l] - C[2 * i - k][l])
    return (
        C[i][k] * C[d - j - k][l]
        + C[j][k] * C[d - i - k][l]
        - (C[i][k] + C[j][k]) * C[i + j - k][l]
    )


def system_columns(m: int):
    """Ansatz labels [i, j], 0 <= j <= i <= m, lex ascending."""
    return tuple([(i, j) for i in range(m + 1) for j in range(i + 1)])


def system_rows(m: int):
    """Constraint labels (k, l): k ascending, odd l descending within k."""
    return tuple([(k, l) for k in range(m + 1) for l in range(2 * m - 1, 0, -2)])


class CoeffSystem(namedtuple("CoeffSystem", "m d rows cols entries")):
    """An integer constraint matrix with labelled rows and columns: rows
    ((k, l), ...), cols ((i, j), ...), entries a tuple of row tuples of ints."""

    __slots__ = ()

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))


def _check_order_degree(m: int, d: int) -> None:
    """Refuse m above MAX_ORDER and degrees other than 3m+1, 3m+2."""
    if m > MAX_ORDER:
        raise ValueError(f"m must be at most {MAX_ORDER}, got {m}")
    if d not in (3 * m + 1, 3 * m + 2):
        raise ValueError(f"degree must be {3 * m + 1} or {3 * m + 2} for m={m}")


def build_system(m: int, d: int) -> CoeffSystem:
    """Full constraint system for degree-d quasiinvariant ansatz, order m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    _check_order_degree(m, d)
    rows = system_rows(m)
    cols = system_columns(m)
    # this call's binomial table; comb is 0 past the diagonal
    C = [[comb(n, l) for l in range(d + 1)] for n in range(d + 1)]
    # list comprehensions: at small m, tuple() of a generator is slower
    entries = tuple(
        [tuple([coeff_A(i, j, k, l, d, C) for (i, j) in cols]) for (k, l) in rows]
    )
    return CoeffSystem(m=m, d=d, rows=rows, cols=cols, entries=entries)


def restrict_Bm(sys: CoeffSystem) -> CoeffSystem:
    """Square submatrix of the full system with a block triangular shape."""
    m = sys.m
    if m < 1:
        raise ValueError("restriction requires m >= 1")
    keep_rows = []
    for idx, (k, l) in enumerate(sys.rows):
        if k == m or l >= 2 * m - 2 * k - 1:
            keep_rows.append(idx)
    keep_cols = [idx for idx, c in enumerate(sys.cols) if c != (m, m)]
    entries = tuple(
        tuple(sys.entries[r][c] for c in keep_cols) for r in keep_rows
    )
    return CoeffSystem(
        m=m,
        d=sys.d,
        rows=tuple(sys.rows[r] for r in keep_rows),
        cols=tuple(sys.cols[c] for c in keep_cols),
        entries=entries,
    )


def extract_blocks(m: int, d: int):
    """The m+1 diagonal blocks, smallest first, from one closed binomial
    formula.

    Block f = 1..m+1 has size min(f, m) and entry (i, j), 1-based,
        binom(d+1-f-(j-1), 2m+1-2i) - binom(j-1, 2m+1-2i);
    f = m+1 is the final block.
    """
    if m < 1:
        raise ValueError("blocks require m >= 1")
    _check_order_degree(m, d)
    return tuple(
        tuple(
            tuple(
                binom(d + 1 - f - (j - 1), 2 * m + 1 - 2 * i)
                - binom(j - 1, 2 * m + 1 - 2 * i)
                for j in range(1, min(f, m) + 1)
            )
            for i in range(1, min(f, m) + 1)
        )
        for f in range(1, m + 2)
    )


def diagonal_blocks(sys: CoeffSystem):
    """Slice the diagonal blocks directly out of a restricted system:
    block f = 1..m+1 starts at row and column f(f-1)/2, size min(f, m).

    Independent of extract_blocks; used to confirm the closed formulas.
    """
    m = sys.m
    return tuple(
        tuple(
            tuple(
                sys.entries[f * (f - 1) // 2 + i][f * (f - 1) // 2 + j]
                for j in range(min(f, m))
            )
            for i in range(min(f, m))
        )
        for f in range(1, m + 2)
    )


# --- exact linear algebra --------------------------------------------------


def _eliminate(matrix, reduced: bool):
    """The one elimination loop, on integer rows: an all-int row is used
    as it is (never modified), and only a row with a non-int entry is
    scaled to integers by the lcm of its denominators.  First-nonzero
    pivoting; a row nonzero in the pivot column becomes
    row * pivot - factor * pivot_row divided by its gcd.  reduced clears
    every other row (Gauss-Jordan), otherwise only those below the pivot
    (echelon form).

    Returns (rows, pivot_cols, swaps, gcds, divisors).  Scaling a row
    and clearing one multiply the determinant: divisors holds the scales
    of the scaled rows and one pivot**k per pivot column that cleared k
    rows; gcds holds the gcds divided out.  So a square input of full
    rank has det = (-1)^swaps * diagonal * prod(gcds) / prod(divisors).
    """
    rows, divisors, gcds = [], [], []
    for row in matrix:
        if not all(map(int.__instancecheck__, row)):  # a non-int entry
            scale, row = integer_scaled(row)
            divisors.append(scale)
        rows.append(row)
    n = len(rows)
    pivots = []
    swaps = r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == n:
            break
        for pivot in range(r, n):
            if rows[pivot][c]:
                break
        else:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        top = rows[r]
        pv = top[c]
        cleared = 0
        for i in range(0 if reduced else r + 1, n):
            f = rows[i][c]
            if f and i != r:
                row = [x * pv - f * y for x, y in zip(rows[i], top)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                    gcds.append(g)
                rows[i] = row
                cleared += 1
        if cleared:
            divisors.append(pv**cleared)
        pivots.append(c)
        r += 1
    return rows, pivots, swaps, gcds, divisors


def det_exact(matrix) -> Fraction:
    """Determinant from the integer echelon form of _eliminate, formed
    as one Fraction at the end; a short rank leaves a 0 on the diagonal."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    rows, _, swaps, gcds, divisors = _eliminate(matrix, reduced=False)
    diagonal = (-1) ** swaps * prod(rows[k][k] for k in range(n))
    return Fraction(diagonal * prod(gcds), prod(divisors))


def rank(matrix) -> int:
    return len(_eliminate(matrix, reduced=False)[1])


def nullspace_vectors(matrix, ncols: int):
    """Basis of the right null space, each vector scaled so its first
    nonzero coordinate is 1.  Rows may be empty (full space comes back).

    On the integer Gauss-Jordan rows of _eliminate, free column f gives
    x_f = 1 and x_p = -row[f] / row[p] for each pivot p (nonzero only for
    p < f); each coordinate over the first nonzero one is one Fraction.
    """
    rows, pivots = _eliminate(matrix, reduced=True)[:2]
    pivoted = list(zip(pivots, rows))
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        # the first nonzero coordinate is -num / den
        num, den = next(((row[f], row[p]) for p, row in pivoted if row[f]), (-1, 1))
        v = [Fraction(0)] * ncols
        v[f] = Fraction(-den, num)
        for p, row in pivoted:
            if row[f]:
                v[p] = Fraction(row[f] * den, row[p] * num)
        basis.append(tuple(v))
    return basis


def nullspace(sys: CoeffSystem):
    """Null space basis of a coefficient system, by Gauss-Jordan on the
    whole matrix.

    Each vector has first nonzero coordinate 1 (nullspace_vectors), and
    column 0 is [0, 0] in every system build_system and restrict_Bm
    make.  This is the oracle: basis.ansatz_coefficients solves the
    ansatz by block back-substitution instead, and selftest criterion 3
    requires the two vectors to be equal for m <= 6.  Only linear
    algebra happens here; ansatz_coefficients is the one place that
    refuses a system which does not determine the ansatz.
    """
    return nullspace_vectors(sys.entries, len(sys.cols))
