"""Coefficient linear systems, their block submatrices, and exact solvers.

Conventions, fixed once here and relied on everywhere else:

* build_system(m, d) has one row per divisibility constraint (k, l) with
  k = 0..m and l odd, 1 <= l <= 2m-1, ordered k ascending and l descending
  within each k; one column per ansatz label [i, j] with 0 <= j <= i <= m,
  ordered lexicographically ascending.  Valid degrees are d = 3m+1, 3m+2.

* restrict_Bm keeps, for k < m, the top k+1 odd values l in
  {2m-2k-1, ..., 2m-1}; for k = m it keeps every odd l.  It drops the
  column [m, m].  The result is square of size m(m+3)/2 and block lower
  triangular in the ordering above.

* extract_blocks returns the m+1 diagonal blocks: for f = 1..m the f x f
  block with rows k = f-1 and columns [f-1, 0..f-1], then the final m x m
  block with rows k = m and columns [m, 0..m-1].  Blocks are computed from
  closed binomial formulas; tests confirm they equal the corresponding
  submatrices of restrict_Bm.

* The exact solvers (det_exact, rref and everything built on rref) work
  on integers: each input row, int or Fraction, is scaled by the lcm of
  its denominators, elimination is fraction-free (Bareiss for the
  determinant, gcd-reduced row combinations for rref), and Fractions
  are formed once, in a single normalisation at the end.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .arith import binom


def coeff_A(i: int, j: int, k: int, l: int, d: int) -> int:
    """Constraint coefficient of ansatz label [i, j] in row (k, l), degree d.

    This is the coefficient of (x1 - x2)^l x2^(d-k-l) ... in the expansion of
    (1 - s12) applied to the ansatz term; only its closed binomial form is
    needed here.
    """
    if not (0 <= j <= i):
        raise ValueError("need 0 <= j <= i")
    if k < 0 or l < 0 or d < 1:
        raise ValueError("need k >= 0, l >= 0, d >= 1")
    if i == j:
        return binom(i, k) * (binom(d - i - k, l) - binom(2 * i - k, l))
    return (
        binom(i, k) * binom(d - j - k, l)
        + binom(j, k) * binom(d - i - k, l)
        - (binom(i, k) + binom(j, k)) * binom(i + j - k, l)
    )


def system_columns(m: int):
    """Ansatz labels [i, j], 0 <= j <= i <= m, lex ascending."""
    return tuple((i, j) for i in range(m + 1) for j in range(i + 1))


def system_rows(m: int):
    """Constraint labels (k, l): k ascending, odd l descending within k."""
    return tuple((k, l) for k in range(m + 1) for l in range(2 * m - 1, 0, -2))


@dataclass(frozen=True)
class CoeffSystem:
    """An integer constraint matrix with labelled rows and columns."""

    m: int
    d: int
    rows: tuple  # ((k, l), ...)
    cols: tuple  # ((i, j), ...)
    entries: tuple  # tuple of row tuples of ints

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    def to_json_obj(self):
        return {
            "m": self.m,
            "d": self.d,
            "rows": [list(r) for r in self.rows],
            "cols": [list(c) for c in self.cols],
            "entries": [[str(x) for x in row] for row in self.entries],
        }


def build_system(m: int, d: int) -> CoeffSystem:
    """Full constraint system for degree-d quasiinvariant ansatz, order m."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if d not in (3 * m + 1, 3 * m + 2):
        raise ValueError(f"degree must be {3 * m + 1} or {3 * m + 2} for m={m}")
    rows = system_rows(m)
    cols = system_columns(m)
    entries = tuple(
        tuple(coeff_A(i, j, k, l, d) for (i, j) in cols) for (k, l) in rows
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


@dataclass(frozen=True)
class BlockSet:
    """Diagonal blocks of the restricted system, smallest first."""

    m: int
    d: int
    leading: tuple  # f x f matrices for f = 1..m
    final: tuple  # the m x m block

    def all_blocks(self):
        return self.leading + (self.final,)


def extract_blocks(m: int, d: int) -> BlockSet:
    """Diagonal blocks from closed binomial formulas.

    Leading block f entry (i, j), 1-based:
        binom(d - (j-1) - (f-1), 2m+1-2i) - binom(j-1, 2m+1-2i)
    Final block entry (i, j):
        binom(d - m - (j-1), 2m+1-2i) - binom(j-1, 2m+1-2i)
    """
    if m < 1:
        raise ValueError("blocks require m >= 1")
    if d not in (3 * m + 1, 3 * m + 2):
        raise ValueError(f"degree must be {3 * m + 1} or {3 * m + 2} for m={m}")
    leading = []
    for f in range(1, m + 1):
        block = tuple(
            tuple(
                binom(d - (j - 1) - (f - 1), 2 * m + 1 - 2 * i)
                - binom(j - 1, 2 * m + 1 - 2 * i)
                for j in range(1, f + 1)
            )
            for i in range(1, f + 1)
        )
        leading.append(block)
    final = tuple(
        tuple(
            binom(d - m - (j - 1), 2 * m + 1 - 2 * i)
            - binom(j - 1, 2 * m + 1 - 2 * i)
            for j in range(1, m + 1)
        )
        for i in range(1, m + 1)
    )
    return BlockSet(m=m, d=d, leading=tuple(leading), final=final)


def diagonal_blocks(sys: CoeffSystem):
    """Slice the diagonal blocks directly out of a restricted system.

    Independent of extract_blocks; used to confirm the closed formulas.
    """
    m = sys.m
    blocks = []
    row0 = 0
    for f in range(1, m + 1):
        col0 = f * (f - 1) // 2
        blocks.append(
            tuple(
                tuple(sys.entries[row0 + i][col0 + j] for j in range(f))
                for i in range(f)
            )
        )
        row0 += f
    col0 = m * (m + 1) // 2
    blocks.append(
        tuple(
            tuple(sys.entries[row0 + i][col0 + j] for j in range(m))
            for i in range(m)
        )
    )
    return tuple(blocks)


# --- exact linear algebra --------------------------------------------------


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


def det_exact(matrix) -> Fraction:
    """Determinant by integer fraction-free (Bareiss) elimination.

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


def rref(matrix):
    """Reduced row echelon form over the rationals.

    Returns (rows, pivot_cols), the rows as lists of Fractions.  The
    elimination is integer and fraction-free: rows are scaled to
    integers, and a row is cleared in the pivot column by
    row * pivot - factor * pivot_row, then divided by the gcd of its
    entries.  Each row stays a nonzero multiple of its reduced row, so
    one normalisation at the end, dividing each pivot row by its pivot,
    gives the reduced form; that form is unique, so it equals
    Gauss-Jordan elimination over the rationals.  Deterministic
    first-nonzero pivoting.
    """
    rows, _ = _integer_rows(matrix)
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
        top = rows[r]
        pv = top[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row = [x * pv - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    # rows below the rank are zero and keep denominator 1
    leads = [rows[k][c] for k, c in enumerate(pivots)] + [1] * (len(rows) - r)
    return [[Fraction(x, d) for x in row] for row, d in zip(rows, leads)], pivots


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def nullspace_vectors(matrix, ncols: int):
    """Basis of the right null space, each vector scaled so its first
    nonzero coordinate is 1.  Rows may be empty (full space comes back)."""
    reduced, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -reduced[pr][fc]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


def nullspace(sys: CoeffSystem):
    """Null space basis of a coefficient system.

    Each vector has first nonzero coordinate 1 (nullspace_vectors), and
    column 0 is [0, 0] in every system build_system and restrict_Bm
    make, so a one-dimensional generator has [0, 0] coordinate 1 unless
    it is zero.  A zero [0, 0] coordinate would contradict the
    construction and is surfaced as a warning, never silently fixed.
    """
    basis = nullspace_vectors(sys.entries, len(sys.cols))
    if len(basis) == 1 and basis[0][0] == 0:
        warnings.warn(
            f"null vector of system (m={sys.m}, d={sys.d}) has zero "
            "[0, 0] coordinate; returning unnormalized",
            RuntimeWarning,
            stacklevel=2,
        )
    return basis
