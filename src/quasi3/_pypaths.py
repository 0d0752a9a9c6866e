"""Lattice path counting kernels in pure Python: pure kernels; callers guard.

Paths take unit NORTH (+y) and WEST (-x) steps.  A barrier L forbids
every vertex with x + y == L.  Families pair starts[t] with ends[t] and
count tuples of pairwise vertex-disjoint paths.  Neither kernel bounds
its own work: paths._count_family decides whether a family is counted.
"""

from __future__ import annotations


def dp_count(x0: int, y0: int, x1: int, y1: int, barrier) -> int:
    """Barrier-avoiding path count from (x0, y0) to (x1, y1), exact.

    One column, swept west from x0: col[t] counts the paths to
    (x, y0 + t).  Seeded with the start, each cell adds the cell to its
    south, already updated, to the cell to its east, still in place.
    """
    if x1 > x0 or y1 < y0:
        return 0
    col = [1] + [0] * (y1 - y0)
    for x in range(x0, x1 - 1, -1):
        blocked = None if barrier is None else barrier - x - y0
        south = 0
        for t, east in enumerate(col):
            col[t] = south = 0 if t == blocked else east + south
    return col[-1]


def family_count(starts, ends, barrier) -> int:
    """Count pairwise vertex-disjoint path tuples, starts[t] -> ends[t].

    Walks every candidate tuple, recursing once per lattice step, so a
    long enough path raises RecursionError.
    """
    k = len(starts)
    if k != len(ends):
        raise ValueError("starts and ends must pair up")
    if k == 0:
        return 1

    top = max(y for _, y in ends) + 1

    def bit(x, y):
        return 1 << (x * top + y)

    def blocked(x, y):
        return barrier is not None and x + y == barrier

    def walk(t, x, y, used):
        ex, ey = ends[t]
        if x == ex and y == ey:
            if t == k - 1:
                return 1
            nx, ny = starts[t + 1]
            if blocked(nx, ny) or used & bit(nx, ny):
                return 0
            return walk(t + 1, nx, ny, used | bit(nx, ny))
        total = 0
        if y + 1 <= ey and not blocked(x, y + 1):
            b = bit(x, y + 1)
            if not used & b:
                total += walk(t, x, y + 1, used | b)
        if x - 1 >= ex and not blocked(x - 1, y):
            b = bit(x - 1, y)
            if not used & b:
                total += walk(t, x - 1, y, used | b)
        return total

    sx, sy = starts[0]
    if blocked(sx, sy):
        return 0
    return walk(0, sx, sy, bit(sx, sy))
