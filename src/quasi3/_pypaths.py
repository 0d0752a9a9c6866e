"""Lattice path counting kernels in pure Python: pure kernels; callers guard.

Paths take unit NORTH (+y) and WEST (-x) steps.  A barrier L forbids
every vertex with x + y == L; family_count marks those vertices occupied
before its walk.  Families pair starts[t] with ends[t] and count tuples
of pairwise vertex-disjoint paths.  Neither kernel bounds its own work:
paths._count_family decides whether a family is counted.
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

    Walks every candidate tuple depth first, one frame per vertex
    entered, so a family of more than about 1000 vertices raises
    RecursionError.  used holds the occupied vertices, the barrier's
    included: (x, y) is bit x * top + y, top being the largest end
    height plus 1.  walk tests a vertex's bit once, on entering it.
    """
    k = len(starts)
    if k != len(ends):
        raise ValueError("starts and ends must pair up")
    if k == 0:
        return 1

    top = max(y for _, y in ends) + 1

    def walk(t, x, y, used):
        b = 1 << (x * top + y)
        if used & b:
            return 0
        used |= b
        ex, ey = ends[t]
        if x == ex and y == ey:
            if t == k - 1:
                return 1
            return walk(t + 1, *starts[t + 1], used)
        total = 0
        if y < ey:
            total += walk(t, x, y + 1, used)
        if x > ex:
            total += walk(t, x - 1, y, used)
        return total

    # occupy the barrier's vertices with 0 <= x <= largest start x, 0 <= y < top
    used = 0
    if barrier is not None:
        right = max(x for x, _ in starts)
        for x in range(max(barrier - top + 1, 0), min(barrier, right) + 1):
            used |= 1 << (x * top + barrier - x)
    return walk(0, *starts[0], used)
