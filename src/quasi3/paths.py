"""Lattice paths with a diagonal barrier and the two determinant identities.

Paths move NORTH/WEST on the integer lattice; a barrier L forbids every
vertex with x + y == L ("touching the line" includes endpoints).

Three routes to the same numbers, kept deliberately separate:

* count_paths_dp: dynamic programming over the rectangle (the oracle).
* single_path_formula: the reflection closed form
  binom(h, s) - binom(h, L - s) for (s, s) -> (0, h); valid exactly when
  L is not strictly between the endpoint line-sums 2s and h
  (formula_applicable decides this).
* _pypaths.family_count: exhaustive enumeration of pairwise
  vertex-disjoint path tuples.  _count_family runs it only when the
  product of the single-path counts (guard_product) is at most the
  fixed ENUMERATION_BUDGET, and only on families of two or more paths:
  a one-path family's count is its guard_product, the DP count, so its
  identity compares the closed form (the 1x1 det) with the DP.

verify_thm2 checks det[ binom(a+bi, c+dj) - binom(a+bi, e-dj) ] against
the family count for starts (c+dj, c+dj), ends (0, a+bi), barrier c+e;
entry (i, j) is single_path_formula from start j to end i, so the matrix
and the family are read from the same endpoints.
verify_thm1 checks det[ binom(C+ai, E+bj) - binom(D-ai, E+bj) ] against
prefactor * family count, where the family is the thm2 instance obtained
by the substitution recorded in thm1_inner_params.

The counting kernels live in _pypaths.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from ._pypaths import dp_count, family_count
from .arith import binom
from .linsys import MAX_ORDER, det_exact

# Largest guard_product a family enumeration may visit.
ENUMERATION_BUDGET = 10**7
# Sweeps keep only instances whose guard_product is at most this.
SWEEP_PRODUCT_CAP = 200000


def guard_product(starts, ends, barrier) -> int:
    """Product of the single-path counts starts[t] -> ends[t]: the number
    of candidate tuples a family enumeration would visit."""
    product = 1
    for (sx, sy), (ex, ey) in zip(starts, ends):
        product *= dp_count(sx, sy, ex, ey, barrier)
    return product


def _check_point(pt):
    x, y = pt
    if not (isinstance(x, int) and isinstance(y, int)):
        raise ValueError(f"lattice point must have integer coordinates: {pt!r}")
    if x < 0 or y < 0:
        raise ValueError(f"lattice point must be in the first quadrant: {pt!r}")
    return (x, y)


def count_paths_dp(start, end, barrier=None) -> int:
    """Exact barrier-avoiding path count by dynamic programming."""
    x0, y0 = _check_point(start)
    x1, y1 = _check_point(end)
    if x1 > x0 or y1 < y0:
        raise ValueError("end must be weakly west and north of start for N/W steps")
    if barrier is not None and not isinstance(barrier, int):
        raise ValueError("barrier must be an int or None")
    return dp_count(x0, y0, x1, y1, barrier)


def single_path_formula(s: int, h: int, L) -> int:
    """Reflection closed form for (s, s) -> (0, h) avoiding x + y == L."""
    if L is None:
        return binom(h, s)
    return binom(h, s) - binom(h, L - s)


def formula_applicable(s: int, h: int, L) -> bool:
    """Where the closed form provably equals the true count."""
    if s < 0 or h < s:
        return False
    if L is None:
        return True
    return not (min(2 * s, h) < L < max(2 * s, h))


# --- determinant identity: diagonal starts, axis ends ----------------------


def thm2_endpoints(a, b, c, d, e, n):
    """Starts, ends (paired by position) and barrier for an instance."""
    starts = tuple((c + d * j, c + d * j) for j in range(1, n + 1))
    ends = tuple((0, a + b * i) for i in range(1, n + 1))
    return starts, ends, c + e


def _entries_applicable(starts, ends, L) -> bool:
    """First-quadrant endpoints and a valid closed form for every entry
    (formula_applicable rejects s < 0 and h < s, hence negative ends)."""
    return all(formula_applicable(s, h, L) for s, _ in starts for _, h in ends)


def thm2_instance_applicable(a, b, c, d, e, n) -> bool:
    """Every entry's closed form is valid and the endpoints are usable.

    Requires ascending distinct starts and ends (b, d >= 1), first-quadrant
    endpoints, and formula_applicable for every (start, end) pair.
    """
    if n < 1 or b < 1 or d < 1:
        return False
    return _entries_applicable(*thm2_endpoints(a, b, c, d, e, n))


class Thm2Report(namedtuple(
    "Thm2Report",
    "params entries det starts ends barrier applicable family_count checked equal note",
    defaults=(None, False, None, ""),
)):
    """family_count is an int and equal a bool, both None when unchecked;
    note says why a family is unchecked."""

    __slots__ = ()


def _count_family(report, factor):
    """Count the report's path family and compare det with factor * count.

    The one place that decides whether a family is counted.  A report is
    left unchecked, with a note saying why, at the first of these, tried
    in order: no factor (thm1's prefactor denominator vanishes), unusable
    endpoints, a guard_product over ENUMERATION_BUDGET, and, for two or
    more paths only, a walk deeper than the recursion limit.  A one-path
    family is counted by its guard_product, which is that path's
    dp_count, and a guard_product of 0 is a checked 0: neither walks,
    so neither depends on the caller's stack depth.  Writes only note,
    family_count, checked and equal; never applicable, which
    formula_applicable already makes False wherever an endpoint leaves
    the first quadrant.
    """
    if factor is None:
        return report._replace(note="prefactor denominator vanishes")
    starts, ends, L = report.starts, report.ends, report.barrier
    try:
        for point in starts + ends:
            _check_point(point)
    except ValueError as exc:
        return report._replace(note=f"family endpoints unusable: {exc}")
    product = guard_product(starts, ends, L)
    if product > ENUMERATION_BUDGET:
        note = f"{product} candidate tuples > {ENUMERATION_BUDGET}"
        return report._replace(note=f"enumeration budget exceeded: {note}")
    if len(starts) == 1 or not product:
        count = product
    else:
        try:
            count = family_count(starts, ends, L)
        except RecursionError:
            return report._replace(note="family walk deeper than the recursion limit")
    return report._replace(family_count=count, checked=True, equal=report.det == factor * count)


def _check_size(name, size):
    """Refuse a matrix size outside 1..MAX_ORDER before any entry is built."""
    if size < 1:
        raise ValueError(f"matrix size {name} must be positive")
    if size > MAX_ORDER:
        raise ValueError(f"matrix size {name} must be at most {MAX_ORDER}, got {size}")


def verify_thm2(a, b, c, d, e, n) -> Thm2Report:
    """Compare the determinant with the brute-force family count."""
    _check_size("n", n)
    starts, ends, L = thm2_endpoints(a, b, c, d, e, n)
    entries = tuple(
        tuple(single_path_formula(s, h, L) for s, _ in starts) for _, h in ends
    )
    report = Thm2Report(
        params={"a": a, "b": b, "c": c, "d": d, "e": e, "n": n},
        entries=entries,
        det=int(det_exact(entries)),
        starts=starts,
        ends=ends,
        barrier=L,
        applicable=thm2_instance_applicable(a, b, c, d, e, n),
    )
    return _count_family(report, 1)


# --- determinant identity: prefactor times family count --------------------


def thm1_inner_params(C, D, E, alpha, beta, k):
    """Parameters of the equivalent diagonal/axis instance.

    Its thm2_endpoints are thm1's family in the paper's printed order:
    start (D - t*alpha) on the diagonal and end (0, C + D - E - t*beta)
    for t = k .. 1, with barrier C + D.
    """
    return (
        C + D - E - (k + 1) * beta,
        beta,
        D - (k + 1) * alpha,
        alpha,
        C + (k + 1) * alpha,
    )


def thm1_applicable(C, D, E, alpha, beta, k) -> bool:
    """Prefactor denominators nonzero, endpoints usable, entries valid.

    alpha and beta must share a sign so the positional pairing of the
    printed start and end lists is the non-crossing one; being nonzero
    they also make the starts and the ends distinct.
    """
    if k < 1 or alpha * beta <= 0:
        return False
    if any(binom(C + D, C + t * alpha) == 0 for t in range(1, k + 1)):
        return False
    inner = thm1_inner_params(C, D, E, alpha, beta, k)
    return _entries_applicable(*thm2_endpoints(*inner, k))


class Thm1Report(namedtuple(
    "Thm1Report", (*Thm2Report._fields, "prefactor", "inner_params"),
    defaults=(*Thm2Report._field_defaults.values(), None, ()),
)):
    """A Thm2Report's fields for the substituted family, plus thm1's own
    values: prefactor, a Fraction or None when undefined, and inner_params."""

    __slots__ = ()


def verify_thm1(C, D, E, alpha, beta, k) -> Thm1Report:
    """Compare the determinant with prefactor * family count."""
    _check_size("k", k)
    entries = tuple(
        tuple(
            binom(C + alpha * i, E + beta * j) - binom(D - alpha * i, E + beta * j)
            for j in range(1, k + 1)
        )
        for i in range(1, k + 1)
    )
    det = int(det_exact(entries))
    inner = thm1_inner_params(C, D, E, alpha, beta, k)
    starts, ends, L = thm2_endpoints(*inner, k)

    denominator = 1
    numerator = 1
    for t in range(1, k + 1):
        numerator *= binom(C + D, E + t * beta)
        denominator *= binom(C + D, C + t * alpha)
    prefactor = Fraction(numerator, denominator) if denominator else None
    report = Thm1Report(
        params={"C": C, "D": D, "E": E, "alpha": alpha, "beta": beta, "k": k},
        entries=entries,
        det=det,
        prefactor=prefactor,
        inner_params=inner,
        starts=starts,
        ends=ends,
        barrier=L,
        applicable=thm1_applicable(C, D, E, alpha, beta, k),
    )
    return _count_family(report, prefactor)


# --- block-derived instances ------------------------------------------------


def block_instance_params(m: int, f: int, d: int):
    """Identity parameters whose matrix is the transpose of block f,
    f = 1..m+1; f = m+1 is the final block."""
    if m < 1 or not (1 <= f <= m + 1):
        raise ValueError("need m >= 1 and 1 <= f <= m+1")
    if d not in (3 * m + 1, 3 * m + 2):
        raise ValueError(f"degree must be {3 * m + 1} or {3 * m + 2}")
    return (d + 2 - f, -1, 2 * m + 1, -1, -2, min(f, m))


# --- instance generators ----------------------------------------------------


def thm2_grid(coord_bound: int, nmax: int):
    """Deterministic sweep of applicable instances for exhaustive checks.

    Yields (a, b, c, d, e, n) tuples whose endpoints stay within
    coord_bound, whose entries are all formula-valid, and whose guard
    product is at most SWEEP_PRODUCT_CAP; the loop ranges keep n, b, d >= 1.
    """
    for n in range(1, nmax + 1):
        for b in range(1, 4):
            for d in range(1, 4):
                for c in range(0, 4):
                    if c + n * d > coord_bound:
                        continue
                    for a in range(-3, coord_bound + 1):
                        if a + n * b > coord_bound or a + b < 0:
                            continue
                        for L in range(-1, 2 * coord_bound + 2):
                            e = L - c
                            endpoints = thm2_endpoints(a, b, c, d, e, n)
                            if not _entries_applicable(*endpoints):
                                continue
                            if guard_product(*endpoints) > SWEEP_PRODUCT_CAP:
                                continue
                            yield (a, b, c, d, e, n)


def sample_thm1_instances(rng, count: int):
    """Seeded sample of applicable prefactor-identity instances whose
    endpoints stay within coordinate 12.

    Raises ValueError, naming count and the attempt limit, when the
    limit is reached with fewer than count instances.
    """
    out = []
    limit = 200000
    coord_bound = 12
    for _ in range(limit):
        if len(out) == count:
            break
        k = rng.randint(1, 3)
        alpha = rng.choice((-2, -1, 1, 2))
        beta = rng.choice((-2, -1, 1, 2))
        D = rng.randint(-4, coord_bound)
        C = rng.randint(-4, 2 * coord_bound)
        E = rng.randint(-4, coord_bound)
        if not thm1_applicable(C, D, E, alpha, beta, k):
            continue
        inner = thm1_inner_params(C, D, E, alpha, beta, k)
        starts, ends, L = thm2_endpoints(*inner, k)
        if any(x > coord_bound for x, _ in starts):
            continue
        if any(y > coord_bound for _, y in ends):
            continue
        if guard_product(starts, ends, L) > SWEEP_PRODUCT_CAP:
            continue
        out.append((C, D, E, alpha, beta, k))
    if len(out) < count:
        raise ValueError(f"could not draw {count} thm1 instances in {limit} attempts")
    return out
